package gen6prob

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"net/netip"
	"testing"

	"beholder/internal/core"
	"beholder/internal/ipv6"
	"beholder/internal/probe"
	"beholder/internal/sixgen"
)

// synthSeeds builds n deterministic seed addresses shaped like a DNS
// hitlist: sites (random /52s under a handful of /32 allocations), each
// holding subnets drawn from a few hot nybble values, and mostly
// low-byte interface identifiers. Each site splits into one or more
// 6Gen clusters, so sites sets the cluster count.
func synthSeeds(n, sites int, seed int64) []netip.Addr {
	rng := rand.New(rand.NewSource(seed))
	allocs := []uint64{0x20010db8, 0x2a001450, 0x26001f18, 0x24048000, 0x2c0f0e28}
	bases := make([]uint64, sites)
	for i := range bases {
		bases[i] = allocs[rng.Intn(len(allocs))]<<32 | uint64(rng.Intn(1<<20))<<12
	}
	seen := make(map[netip.Addr]struct{}, n)
	out := make([]netip.Addr, 0, n)
	for len(out) < n {
		u := ipv6.U128{Hi: bases[rng.Intn(sites)], Lo: 1}
		for d := 13; d < 16; d++ {
			v := uint64(rng.Intn(4))
			if rng.Intn(8) == 0 {
				v = uint64(rng.Intn(16))
			}
			u.Hi |= v << (60 - 4*uint(d))
		}
		if rng.Intn(5) == 0 {
			u.Lo = rng.Uint64() & 0xffff
		}
		a := u.Addr()
		if _, dup := seen[a]; dup {
			continue
		}
		seen[a] = struct{}{}
		out = append(out, a)
	}
	return out
}

// goldenCase is one pinned generation series.
type goldenCase struct {
	name   string
	seeds  []netip.Addr
	cfg    Config
	digest string
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name:   "tight",
			seeds:  synthSeeds(600, 150, 1),
			cfg:    Config{Key: 0x7a11, Cluster: sixgen.Config{Mode: sixgen.Tight, MaxClusterSpan: 4096}},
			digest: "3cd2d7816ca23fedb7e7a042a380172b07fe596c181ea3b47b18cc4522f7eb4b",
		},
		{
			name:   "loose",
			seeds:  synthSeeds(600, 100, 2),
			cfg:    Config{Key: 0x100e, Cluster: sixgen.Config{Mode: sixgen.Loose}},
			digest: "785e5a2c551f3e790d582d1457f9606fd1b3c5cde8ae37b90b7d248d6d067bea",
		},
	}
}

// synthFeedback fabricates an epoch's probing results: every third
// target's trace crosses routers named after its /32 and /48 (so
// sibling targets share hops and novelty attribution has to dedup),
// total accumulates every earlier epoch, and aliased is passed through.
func synthFeedback(epoch int, batch []netip.Addr, total *probe.Store, aliased []netip.Prefix) *core.Feedback {
	st := probe.NewStore(true)
	for i, t := range batch {
		if i%3 != 0 {
			continue
		}
		u := ipv6.FromAddr(t)
		hops := []ipv6.U128{
			{Hi: 0x2400<<48 | u.Hi>>32, Lo: 1},
			{Hi: 0x2400<<48 | u.Hi>>16&0xffffffff, Lo: 2},
			{Hi: 0x2400<<48 | u.Hi&0xffffffffffff, Lo: uint64(i%5 + 3)},
		}
		for ttl, h := range hops {
			r := probe.Reply{
				Kind: probe.KindTimeExceeded, From: h.Addr(), Target: t,
				TTL: uint8(ttl + 1), StateRecovered: true,
			}
			st.Add(r)
		}
	}
	fb := &core.Feedback{Epoch: epoch, Store: st, Total: total, Aliased: aliased}
	for _, tr := range st.Traces() {
		for _, h := range tr.Hops {
			total.Add(probe.Reply{Kind: probe.KindTimeExceeded, From: h.Addr,
				Target: tr.Target, TTL: h.TTL, StateRecovered: true})
		}
	}
	return fb
}

// goldenSeries runs six epochs of 150 targets with synthetic reward
// feedback, one alias prune (the /44 covering the second epoch's first
// target) and one serialize/restore hop before epoch 3, and returns a
// digest over every emitted target and the final state blob.
func goldenSeries(t testing.TB, seeds []netip.Addr, cfg Config) string {
	s := New(seeds, cfg)
	total := probe.NewStore(true)
	h := sha256.New()
	var fb *core.Feedback
	emitted := 0
	for epoch := 0; epoch < 6; epoch++ {
		if epoch == 3 {
			blob := s.AppendState(nil)
			s = New(seeds, cfg)
			if err := s.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
		}
		batch := s.NextEpoch(epoch, 150, fb)
		for _, a := range batch {
			a16 := a.As16()
			h.Write(a16[:])
		}
		emitted += len(batch)
		var aliased []netip.Prefix
		if epoch == 1 && len(batch) > 0 {
			aliased = []netip.Prefix{netip.PrefixFrom(batch[0], 44).Masked()}
		}
		fb = synthFeedback(epoch, batch, total, aliased)
	}
	if emitted < 600 {
		t.Fatalf("series emitted only %d targets", emitted)
	}
	h.Write(s.AppendState(nil))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSeries pins the exact generated series — targets and final
// generation state — for one Tight-mode and one Loose-mode seed set,
// each with more than 64 clusters. Any change to sampling, reward,
// pruning, spending or the state format changes a digest; a faster
// sampler must leave both untouched.
func TestGoldenSeries(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			cfg := gc.cfg
			cfg.setDefaults()
			if n := len(sixgen.Clusters(gc.seeds, cfg.Cluster)); n <= 64 {
				t.Fatalf("%d clusters; the golden needs more than 64", n)
			}
			if got := goldenSeries(t, gc.seeds, gc.cfg); got != gc.digest {
				t.Fatalf("series digest %s, pinned %s", got, gc.digest)
			}
		})
	}
}
