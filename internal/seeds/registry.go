package seeds

import (
	"math/rand"
	"sort"

	"beholder/internal/kip"
	"beholder/internal/netsim"
)

// generator is one row of the seed-list table: a list name, the RNG
// stream it draws from, and its builder. Every list owns its stream, so
// building one list costs only that list and yields the same contents
// as building it among all the others.
type generator struct {
	name   string
	stream int64
	// cdnK, when non-zero, marks a kIP list: its builder is CDN with
	// this anonymity parameter. The kIP lists share one stream, so All
	// draws their observation sample once.
	cdnK  int
	build func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset)
}

// generators is the study's seed-list table, in stream order.
var generators = []generator{
	{name: "caida", stream: 1, build: func(u *netsim.Universe, rng *rand.Rand, _ Scale) (List, []Subset) {
		return CAIDA(u, rng), nil
	}},
	{name: "fiebig", stream: 2, build: func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
		return Fiebig(u, rng, scale), nil
	}},
	{name: "fdns_any", stream: 3, build: func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
		return FDNS(u, rng, scale), nil
	}},
	{name: "dnsdb", stream: 4, build: func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
		return DNSDB(u, rng, scale), nil
	}},
	{name: "cdn-k32", stream: 5, cdnK: 32},
	{name: "cdn-k256", stream: 5, cdnK: 256}, // same observation stream, different k
	{name: "6gen", stream: 6, build: func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
		return SixGen(u, rng, scale), nil
	}},
	{name: "tum", stream: 7, build: TUM},
	{name: "random", stream: 8, build: func(u *netsim.Universe, rng *rand.Rand, scale Scale) (List, []Subset) {
		return Random(u, rng, scaled(25, scale)*u.Table().NumPrefixes()), nil
	}},
}

func (g generator) rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1315423911 + g.stream))
}

// All generates every seed list the study uses, keyed by name, each from
// an independent deterministic RNG stream so lists do not perturb each
// other when parameters change. The TUM subset inventory is returned
// alongside (Table 2).
func All(u *netsim.Universe, seed int64, scale Scale) (map[string]List, []Subset) {
	lists := make(map[string]List, len(generators))
	var subsets []Subset
	var cdnObs []kip.Observation
	for _, g := range generators {
		if g.cdnK != 0 {
			if cdnObs == nil {
				cdnObs = CDNObservations(u, g.rng(seed), scale, cdnIntervals)
			}
			lists[g.name] = cdnList(cdnObs, scale, g.cdnK)
			continue
		}
		l, sub := g.build(u, g.rng(seed), scale)
		lists[g.name] = l
		if sub != nil {
			subsets = sub
		}
	}
	return lists, subsets
}

// Generate builds the one named list exactly as All would, without
// building the others. It reports false for an unknown name.
func Generate(u *netsim.Universe, seed int64, scale Scale, name string) (List, bool) {
	for _, g := range generators {
		if g.name != name {
			continue
		}
		if g.cdnK != 0 {
			return CDN(u, g.rng(seed), scale, g.cdnK), true
		}
		l, _ := g.build(u, g.rng(seed), scale)
		return l, true
	}
	return List{}, false
}

// IndependentNames returns the six seed lists the paper treats as
// mutually independent (Table 1's first six rows), in presentation order.
func IndependentNames() []string {
	return []string{"caida", "dnsdb", "fiebig", "fdns_any", "cdn-k256", "cdn-k32"}
}

// Names returns all list names in a stable presentation order.
func Names(lists map[string]List) []string {
	out := make([]string, 0, len(lists))
	for n := range lists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
