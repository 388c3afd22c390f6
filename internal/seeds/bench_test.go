package seeds

import (
	"testing"

	"beholder/internal/netsim"
)

// BenchmarkSeedList measures building each seed list alone at campaign
// scale on the campaign-scale universe: the per-list cost of the set-up
// a target set pays for its one seed list.
func BenchmarkSeedList(b *testing.B) {
	u := netsim.NewUniverse(netsim.DefaultConfig(2018))
	for _, g := range generators {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := Generate(u, 2018, 1, g.name); !ok {
					b.Fatalf("unknown list %q", g.name)
				}
			}
		})
	}
}
