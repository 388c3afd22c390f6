package gen6prob

import (
	"runtime"
	"testing"
	"time"

	"beholder/internal/sixgen"
)

// BenchmarkNextEpoch measures the generator layer alone: a fresh source
// over a hitlist-shaped seed set of 4500 addresses in over 2000
// Tight-mode clusters (the adaptive benchmark's dnsdb list forms 2132)
// drawing four epochs of 2500 targets. Building the source is excluded;
// ns/target and allocs/target cover NextEpoch only.
func BenchmarkNextEpoch(b *testing.B) {
	seeds := synthSeeds(4500, 2500, 3)
	cfg := Config{Key: 0xbe4c, Cluster: sixgen.Config{Mode: sixgen.Tight, MaxClusterSpan: 64}}
	if n := len(sixgen.Clusters(seeds, cfg.Cluster)); n < 2000 {
		b.Fatalf("%d clusters; the benchmark needs at least 2000", n)
	}
	var (
		ms      runtime.MemStats
		elapsed time.Duration
		allocs  uint64
		targets int
	)
	for i := 0; i < b.N; i++ {
		s := New(seeds, cfg)
		for epoch := 0; epoch < 4; epoch++ {
			runtime.ReadMemStats(&ms)
			a0 := ms.Mallocs
			t0 := time.Now()
			targets += len(s.NextEpoch(epoch, 2500, nil))
			elapsed += time.Since(t0)
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - a0
		}
	}
	if targets == 0 {
		b.Fatal("no targets generated")
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(targets), "ns/target")
	b.ReportMetric(float64(allocs)/float64(targets), "allocs/target")
}
