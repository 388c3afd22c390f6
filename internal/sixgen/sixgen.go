// Package sixgen implements 6Gen-style target generation after Murdock et
// al. (IMC 2017), the generative seed source the paper evaluates as
// "6gen".
//
// 6Gen exploits address locality: clusters of observed addresses identify
// dense regions, and new probe targets are generated inside each cluster's
// nybble pattern. In tight mode a differing nybble position ranges over
// the observed values' span; in loose mode (the paper's configuration) it
// wildcards over all sixteen values. Cluster density — seeds per pattern
// size — orders generation so the densest regions are explored first.
package sixgen

import (
	"net/netip"
	"slices"
	"sort"

	"beholder/internal/ipv6"
)

// Mode selects range construction for differing nybbles.
type Mode int

// Clustering modes.
const (
	Tight Mode = iota // span of observed values per nybble
	Loose             // any differing nybble wildcards to 0..f
)

// Config parameterizes generation.
type Config struct {
	Mode Mode
	// Budget caps the number of generated targets.
	Budget int
	// MaxClusterSpan bounds a cluster's pattern size; candidate merges
	// that would exceed it start a new cluster. This is 6Gen's guard
	// against degenerate clusters swallowing the whole space.
	MaxClusterSpan uint64
}

// DefaultConfig mirrors the paper's loose-mode usage.
func DefaultConfig(budget int) Config {
	return Config{Mode: Loose, Budget: budget, MaxClusterSpan: 1 << 20}
}

// Cluster is a nybble pattern covering one or more seeds.
type Cluster struct {
	// vals[i] is the bitmask of nybble values observed at position i
	// (position 0 is the most significant nybble).
	vals  [32]uint16
	Seeds int
}

// Span returns the number of addresses the cluster's pattern covers under
// mode m.
func (c *Cluster) Span(m Mode) uint64 {
	span := uint64(1)
	for _, v := range c.vals {
		n := uint64(popcount16(v))
		if n > 1 && m == Loose {
			n = 16
		}
		if n == 0 {
			n = 1
		}
		// Saturate instead of overflowing.
		if span > 1<<40 {
			return 1 << 40
		}
		span *= n
	}
	return span
}

// Density is seeds per covered address.
func (c *Cluster) Density(m Mode) float64 {
	return float64(c.Seeds) / float64(c.Span(m))
}

// Mask returns the bitmask of nybble values observed at position i
// (position 0 is the most significant nybble, bit v set means value v
// was observed).
func (c *Cluster) Mask(i int) uint16 { return c.vals[i] }

// Clusters groups the seeds into pattern clusters sorted densest-first —
// the clustering half of Generate, exported so adaptive generation
// (internal/gen6prob) can seed its prefix trie from the same density
// prior that orders 6Gen enumeration.
func Clusters(seeds []netip.Addr, cfg Config) []*Cluster {
	if cfg.MaxClusterSpan == 0 {
		cfg.MaxClusterSpan = 1 << 20
	}
	clusters := clusterize(seeds, cfg)
	sort.SliceStable(clusters, func(i, j int) bool {
		return clusters[i].Density(cfg.Mode) > clusters[j].Density(cfg.Mode)
	})
	return clusters
}

// Nybbles splits an address into its 32 nybbles, most significant
// first.
func Nybbles(a netip.Addr) [32]uint8 { return nybbles(a) }

func popcount16(v uint16) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func nybbles(a netip.Addr) [32]uint8 {
	u := ipv6.FromAddr(a)
	var out [32]uint8
	for i := 0; i < 16; i++ {
		out[i] = uint8(u.Hi>>(60-4*i)) & 0xf
		out[16+i] = uint8(u.Lo>>(60-4*i)) & 0xf
	}
	return out
}

// clusterize groups sorted seeds greedily: a seed joins the current
// cluster unless the merge would push the pattern span past the limit.
func clusterize(seeds []netip.Addr, cfg Config) []*Cluster {
	sorted := make([]netip.Addr, len(seeds))
	copy(sorted, seeds)
	slices.SortFunc(sorted, netip.Addr.Compare)

	var clusters []*Cluster
	var cur *Cluster
	for _, s := range sorted {
		nyb := nybbles(s)
		if cur != nil {
			merged := *cur
			for i, v := range nyb {
				merged.vals[i] |= 1 << v
			}
			merged.Seeds++
			if merged.Span(cfg.Mode) <= cfg.MaxClusterSpan {
				*cur = merged
				continue
			}
		}
		cur = &Cluster{Seeds: 1}
		for i, v := range nyb {
			cur.vals[i] = 1 << v
		}
		clusters = append(clusters, cur)
	}
	return clusters
}

// Generate produces up to cfg.Budget target addresses from the seeds,
// ordered so that denser clusters contribute first. Seed addresses
// themselves are included in their clusters' enumerations.
func Generate(seeds []netip.Addr, cfg Config) []netip.Addr {
	if len(seeds) == 0 || cfg.Budget <= 0 {
		return nil
	}
	if cfg.MaxClusterSpan == 0 {
		cfg.MaxClusterSpan = 1 << 20
	}
	clusters := clusterize(seeds, cfg)
	sort.SliceStable(clusters, func(i, j int) bool {
		return clusters[i].Density(cfg.Mode) > clusters[j].Density(cfg.Mode)
	})

	// Round-robin enumeration across clusters by density rank: every
	// cluster advances through its pattern space one address per round,
	// so high-density regions are not starved by a single huge cluster.
	enums := make([]*patternEnum, len(clusters))
	for i, c := range clusters {
		enums[i] = newPatternEnum(c, cfg.Mode)
	}
	seen := make(map[netip.Addr]struct{}, cfg.Budget)
	var out []netip.Addr
	active := len(enums)
	for active > 0 && len(out) < cfg.Budget {
		active = 0
		for _, e := range enums {
			if e.done {
				continue
			}
			a, ok := e.next()
			if !ok {
				continue
			}
			active++
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			out = append(out, a)
			if len(out) >= cfg.Budget {
				break
			}
		}
	}
	return out
}

// patternEnum walks a cluster's pattern space in mixed-radix order.
type patternEnum struct {
	allowed [32][]uint8 // values per position
	idx     [32]int     // current digit indices
	done    bool
}

func newPatternEnum(c *Cluster, m Mode) *patternEnum {
	e := &patternEnum{}
	for i, mask := range c.vals {
		n := popcount16(mask)
		if m == Loose && n > 1 {
			for v := uint8(0); v < 16; v++ {
				e.allowed[i] = append(e.allowed[i], v)
			}
			continue
		}
		for v := uint8(0); v < 16; v++ {
			if mask&(1<<v) != 0 {
				e.allowed[i] = append(e.allowed[i], v)
			}
		}
		if len(e.allowed[i]) == 0 {
			e.allowed[i] = []uint8{0}
		}
	}
	return e
}

func (e *patternEnum) next() (netip.Addr, bool) {
	if e.done {
		return netip.Addr{}, false
	}
	var u ipv6.U128
	for i := 0; i < 32; i++ {
		v := uint64(e.allowed[i][e.idx[i]])
		if i < 16 {
			u.Hi |= v << (60 - 4*i)
		} else {
			u.Lo |= v << (60 - 4*(i-16))
		}
	}
	// Increment from the least significant position.
	for i := 31; i >= 0; i-- {
		e.idx[i]++
		if e.idx[i] < len(e.allowed[i]) {
			break
		}
		e.idx[i] = 0
		if i == 0 {
			e.done = true
		}
	}
	return u.Addr(), true
}
