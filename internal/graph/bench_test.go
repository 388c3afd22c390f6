package graph

import (
	"runtime"
	"testing"

	"beholder/internal/probe"
	"beholder/internal/wire"
)

func testingAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkGraphIngest measures the streaming observer alone: replies
// per second and — the number the fast-path budget cares about —
// allocations per edge operation. The reply stream mixes repeat targets
// (memo hits), interval splits, and reached destinations the way a fill
// campaign does.
func BenchmarkGraphIngest(b *testing.B) {
	replies := randReplies(3, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	var traversals int64
	m0 := testingAllocs()
	for i := 0; i < b.N; i++ {
		g := New("bench")
		for _, r := range replies {
			g.OnReply(r)
		}
		traversals += g.Traversals()
	}
	b.StopTimer()
	allocs := testingAllocs() - m0
	if traversals > 0 {
		b.ReportMetric(float64(allocs)/float64(traversals), "allocs/edge")
	}
	b.ReportMetric(float64(len(replies))*float64(b.N)/b.Elapsed().Seconds(), "replies/s")
}

// BenchmarkFromStore measures building a campaign graph from its
// merged trace store, the construction every Result graph uses.
func BenchmarkFromStore(b *testing.B) {
	st := probe.NewStore(true)
	for _, r := range randReplies(3, 2000) {
		st.Add(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FromStore(st, "bench", wire.ProtoICMPv6).NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkGraphMerge measures folding subgraphs into one graph with
// Union.
func BenchmarkGraphMerge(b *testing.B) {
	replies := randReplies(5, 2000)
	shards := make([]*Graph, 4)
	for i := range shards {
		shards[i] = New("bench")
	}
	for _, r := range replies {
		shards[int(r.Target.As16()[15]+r.TTL)%len(shards)].OnReply(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Union(shards...)
		if g.NumNodes() == 0 {
			b.Fatal("empty merge")
		}
	}
}
