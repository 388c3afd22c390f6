package beholder

import (
	"bytes"
	"testing"
)

// graphExport runs one fdns_any z64 campaign with YarrpOptions.Graph
// under the given shard count and plan-cache size, returning the
// canonical NDJSON bytes of the resulting graph.
func graphExport(t *testing.T, shards, planCache int) []byte {
	t.Helper()
	in := NewSmallInternet(77)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	v := in.NewVantage("graph-det")
	v.SetPlanCache(planCache)
	res, err := v.RunYarrp6(targets, YarrpOptions{
		Rate: 20000, MaxTTL: 16, Key: 7, Fill: true, Shards: shards, Graph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Graph().WriteNDJSON(&buf, in.Universe().Table()); err != nil {
		t.Fatal(err)
	}
	if res.Graph().NumEdges() == 0 {
		t.Fatal("campaign built an empty graph")
	}
	return buf.Bytes()
}

// TestGraphPlanCacheDeterminism: at every shard count, the plan cache
// must not change the campaign graph by a byte. (The full shards ×
// cache matrix — including cross-shard-count byte equality — lives in
// internal/core's TestGraphShardCacheMatrix on a non-scarce universe,
// where cross-shard store equality is exact; this facade run keeps the
// default universe, whose saturated rate limiters make shard counts
// legitimately differ by a few boundary replies, see core.Campaign.)
func TestGraphPlanCacheDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		off := graphExport(t, shards, 0)
		on := graphExport(t, shards, 4096)
		if !bytes.Equal(off, on) {
			t.Errorf("graph differs between plan cache off/on at shards=%d", shards)
		}
	}
}

// TestResultGraphFallback: the graph Result.Graph() builds lazily
// without YarrpOptions.Graph must equal the one built at run end with
// it.
func TestResultGraphFallback(t *testing.T) {
	run := func(stream bool) *Result {
		in := NewSmallInternet(31)
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.4)
		if err != nil {
			t.Fatal(err)
		}
		v := in.NewVantage("graph-fallback")
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 20000, MaxTTL: 16, Key: 3, Graph: stream})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	streamed, batch := run(true), run(false)
	var a, b bytes.Buffer
	if err := streamed.Graph().WriteNDJSON(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := batch.Graph().WriteNDJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("streamed and store-derived graphs differ")
	}
	// The graph's interface nodes mirror the store's interface set.
	m := streamed.Graph()
	ifaces := 0
	for _, addr := range streamed.Interfaces() {
		if m.NodeFlagsOf(addr) != 0 {
			ifaces++
		}
	}
	if ifaces != streamed.NumInterfaces() {
		t.Fatalf("graph covers %d of %d store interfaces", ifaces, streamed.NumInterfaces())
	}
}

// TestUnionAndCollapseFacade exercises the cross-vantage union and the
// alias-driven router collapse through the facade.
func TestUnionAndCollapseFacade(t *testing.T) {
	in := NewSmallInternet(19)
	targets, err := in.TargetSet("fdns_any", 64, "fixediid", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*Result
	for _, name := range []string{"union-a", "union-b"} {
		v := in.NewVantageAt(name, "hosting", 3)
		res, err := v.RunYarrp6(targets, YarrpOptions{Rate: 20000, MaxTTL: 16, Key: 5, Graph: true})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, res)
	}
	u := UnionGraphs(graphs[0].Graph(), graphs[1].Graph())
	if u.NumNodes() < graphs[0].Graph().NumNodes() {
		t.Fatal("union lost nodes")
	}
	if got := len(u.Vantages()); got != 2 {
		t.Fatalf("union vantages = %d, want 2", got)
	}

	// Collapse against detected aliases: aliased fdns_any /64s fold.
	cands := AliasCandidates(targets)
	aliases := in.NewVantage("union-apd").DetectAliases(cands, AliasOptions{Rate: 20000})
	rg := CollapseGraph(u, aliases)
	if rg.NumRouters() > u.NumNodes() {
		t.Fatal("collapse grew the node count")
	}
	if aliases.Len() > 0 && rg.NumRouters() == u.NumNodes() && rg.Folded == 0 {
		// Aliased prefixes exist; the campaign may or may not have
		// traversed them, so only sanity-check the identity bound here.
		t.Log("no interfaces folded (no aliased hops on probed paths)")
	}
	if CollapseGraph(u, nil).NumRouters() != u.NumNodes() {
		t.Fatal("nil-alias collapse is not the identity")
	}
}
