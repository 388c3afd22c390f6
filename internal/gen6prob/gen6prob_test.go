package gen6prob

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"beholder/internal/core"
	"beholder/internal/probe"
	"beholder/internal/sixgen"
)

// twoRegionSeeds builds two equally-sized seed regions: eight observed
// /64s under 2001:db8:a::/48 and eight under 2001:db8:b::/48, each with
// the paper's low-byte ::1 interface.
func twoRegionSeeds() []netip.Addr {
	var seeds []netip.Addr
	for _, region := range []string{"a", "b"} {
		for x := 0; x < 8; x++ {
			seeds = append(seeds, netip.MustParseAddr(
				"2001:db8:"+region+":"+string(rune('0'+x))+"::1"))
		}
	}
	return seeds
}

func inPrefix(a netip.Addr, p string) bool {
	return netip.MustParsePrefix(p).Contains(a)
}

func TestDeterministicEpochs(t *testing.T) {
	seeds := twoRegionSeeds()
	cfg := Config{Key: 7}
	a, b := New(seeds, cfg), New(seeds, cfg)
	ba := a.NextEpoch(0, 8, nil)
	bb := b.NextEpoch(0, 8, nil)
	if len(ba) != 8 {
		t.Fatalf("epoch 0 produced %d targets, want 8", len(ba))
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("equal sources diverge at target %d: %v vs %v", i, ba[i], bb[i])
		}
	}
	seen := make(map[netip.Addr]struct{})
	for _, x := range ba {
		if _, dup := seen[x]; dup {
			t.Fatalf("duplicate target %v within one epoch", x)
		}
		seen[x] = struct{}{}
		u16 := x.As16()
		if u16[15] != 1 {
			t.Fatalf("candidate %v does not use the low-byte ::1 IID", x)
		}
	}
	c := New(seeds, Config{Key: 8})
	bc := c.NextEpoch(0, 8, nil)
	same := true
	for i := range ba {
		if i >= len(bc) || ba[i] != bc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys generated the identical epoch series")
	}
}

// TestSpendExhaustsAndDedups: with both regions' /64 spaces fully
// observed (every combination of observed nybble values is a seed),
// the source emits each /64 exactly once and then runs dry — spend
// removes emitted leaves from the distribution and exploration has no
// fresh combination left to synthesize.
func TestSpendExhaustsAndDedups(t *testing.T) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 11})
	seen := make(map[netip.Addr]struct{})
	total := 0
	for epoch := 0; epoch < 10; epoch++ {
		batch := s.NextEpoch(epoch, 6, nil)
		if len(batch) == 0 {
			break
		}
		for _, a := range batch {
			if _, dup := seen[a]; dup {
				t.Fatalf("target %v emitted twice", a)
			}
			seen[a] = struct{}{}
		}
		total += len(batch)
	}
	if total != len(seeds) {
		t.Fatalf("emitted %d targets from a fully-observed space of %d /64s", total, len(seeds))
	}
	for _, a := range seeds {
		if _, ok := seen[a]; !ok {
			t.Errorf("observed /64 %v never emitted", a)
		}
	}
}

// TestExplorationGeneratesFreshPrefixes: seeds observing nybble values
// {1,2} at two positions cover only two of the four combinations; the
// sampler must synthesize the remaining combinations rather than stop
// at the seed set.
func TestExplorationGeneratesFreshPrefixes(t *testing.T) {
	seeds := []netip.Addr{
		netip.MustParseAddr("2001:db8:0:12::1"),
		netip.MustParseAddr("2001:db8:0:21::1"),
	}
	s := New(seeds, Config{Key: 5})
	seen := make(map[netip.Addr]struct{})
	for epoch := 0; epoch < 6; epoch++ {
		for _, a := range s.NextEpoch(epoch, 4, nil) {
			seen[a] = struct{}{}
		}
	}
	for _, want := range []string{"2001:db8:0:11::1", "2001:db8:0:22::1"} {
		if _, ok := seen[netip.MustParseAddr(want)]; !ok {
			t.Errorf("exploration never generated %s; emitted %v", want, seen)
		}
	}
	for a := range seen {
		if !inPrefix(a, "2001:db8::/48") {
			t.Errorf("generated %v outside the observed /48", a)
		}
	}
}

// TestRewardSteersSampling: a heavy novel-interface reward on one
// region must pull the next epoch's batch into that region even though
// both regions carry equal seed weight.
func TestRewardSteersSampling(t *testing.T) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 3, RewardWeight: 1 << 20})
	st := probe.NewStore(true)
	target := netip.MustParseAddr("2001:db8:a:3::1")
	for i := 0; i < 5; i++ {
		hop := netip.MustParseAddr("2400::1").Next()
		for j := 0; j < i; j++ {
			hop = hop.Next()
		}
		st.Add(probe.Reply{
			Kind: probe.KindTimeExceeded, From: hop, Target: target,
			TTL: uint8(i + 1), StateRecovered: true,
		})
	}
	fb := &core.Feedback{Epoch: 0, Store: st}
	batch := s.NextEpoch(1, 8, fb)
	inA := 0
	for _, a := range batch {
		if inPrefix(a, "2001:db8:a::/48") {
			inA++
		}
	}
	if inA < 6 {
		t.Fatalf("reward on region a steered only %d of %d targets there", inA, len(batch))
	}
}

// TestPruneKillsSubtree: an aliased verdict on a region's covering
// prefix removes the whole subtree from the distribution — including
// its exploration frontier — and pruning space never visited is a
// no-op rather than a panic.
func TestPruneKillsSubtree(t *testing.T) {
	var seedsA []netip.Addr
	for _, a := range twoRegionSeeds() {
		if inPrefix(a, "2001:db8:a::/48") {
			seedsA = append(seedsA, a)
		}
	}
	s := New(seedsA, Config{Key: 9})
	fb := &core.Feedback{Epoch: 0, Aliased: []netip.Prefix{
		netip.MustParsePrefix("2001:db8:a::/48"),
		netip.MustParsePrefix("fd00::/16"), // never visited: must no-op
	}}
	if batch := s.NextEpoch(1, 8, fb); len(batch) != 0 {
		t.Fatalf("pruned region still produced %d targets: %v", len(batch), batch)
	}
}

// TestStateRoundtrip: serialize mid-adaptation (after spends, a prune,
// and a reward), restore into a freshly-constructed source, and the
// two must generate identical series from there — and must never
// re-emit a pre-serialization target (the spent flags survive).
func TestStateRoundtrip(t *testing.T) {
	seeds := twoRegionSeeds()
	cfg := Config{Key: 21, RewardWeight: 4096}
	s := New(seeds, cfg)
	before := s.NextEpoch(0, 5, nil)

	st := probe.NewStore(true)
	st.Add(probe.Reply{
		Kind: probe.KindTimeExceeded, From: netip.MustParseAddr("2400::77"),
		Target: netip.MustParseAddr("2001:db8:b:2::1"), TTL: 3, StateRecovered: true,
	})
	fb := &core.Feedback{Epoch: 0, Store: st, Aliased: []netip.Prefix{
		netip.MustParsePrefix("2001:db8:a:1::/64"),
	}}
	before = append(before, s.NextEpoch(1, 3, fb)...)

	blob := s.AppendState(nil)
	r := New(seeds, cfg)
	if err := r.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if again := r.AppendState(nil); string(again) != string(blob) {
		t.Fatal("restore followed by serialize is not byte-identical")
	}
	want := s.NextEpoch(2, 8, nil)
	got := r.NextEpoch(2, 8, nil)
	if len(want) != len(got) {
		t.Fatalf("post-restore epoch sizes differ: %d vs %d", len(want), len(got))
	}
	emitted := make(map[netip.Addr]struct{})
	for _, a := range before {
		emitted[a] = struct{}{}
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("post-restore series diverges at %d: %v vs %v", i, want[i], got[i])
		}
		if _, dup := emitted[want[i]]; dup {
			t.Fatalf("restored source re-emitted pre-serialization target %v", want[i])
		}
	}
}

func TestRestoreStateErrors(t *testing.T) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 2})
	s.NextEpoch(0, 4, nil)
	blob := s.AppendState(nil)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("G6PBxx" + string(blob[6:])),
		"truncated": blob[:len(blob)-3],
		"trailing":  append(append([]byte(nil), blob...), 0xff),
	}
	for name, data := range cases {
		r := New(seeds, Config{Key: 2})
		if err := r.RestoreState(data); err == nil {
			t.Errorf("%s state accepted", name)
		}
	}
}

func TestAliasCandidates(t *testing.T) {
	st := probe.NewStore(true)
	reach := func(a string) {
		st.Add(probe.Reply{Kind: probe.KindEchoReply, Target: netip.MustParseAddr(a),
			From: netip.MustParseAddr(a)})
	}
	reach("2001:db8:1:1::1")
	reach("2001:db8:1:1::2")
	reach("2001:db8:2:2::1")
	// Probed but never reached: must not be nominated.
	st.Add(probe.Reply{Kind: probe.KindTimeExceeded, From: netip.MustParseAddr("2400::9"),
		Target: netip.MustParseAddr("2001:db8:3:3::1"), TTL: 2, StateRecovered: true})

	got := AliasCandidates(st, 1)
	if len(got) != 2 || got[0] != netip.MustParsePrefix("2001:db8:1:1::/64") ||
		got[1] != netip.MustParsePrefix("2001:db8:2:2::/64") {
		t.Fatalf("k=1 candidates = %v", got)
	}
	got = AliasCandidates(st, 2)
	if len(got) != 1 || got[0] != netip.MustParsePrefix("2001:db8:1:1::/64") {
		t.Fatalf("k=2 candidates = %v", got)
	}
	if AliasCandidates(nil, 1) != nil || AliasCandidates(st, 0) != nil {
		t.Fatal("degenerate inputs must nominate nothing")
	}
}

// refWalk is the sampler's former per-walk linear cluster scan, kept as
// the reference the has/allow bitsets and the per-node frontier memo
// are checked against: active lists the indices of the clusters
// admitting the path so far.
type refWalk struct {
	clusters []*sixgen.Cluster
	mode     sixgen.Mode
	active   []int
}

func newRefWalk(s *Source) *refWalk {
	r := &refWalk{clusters: s.clusters, mode: s.cfg.Cluster.Mode}
	for i := range s.clusters {
		r.active = append(r.active, i)
	}
	return r
}

// frontier ORs the observed values at depth d over the active clusters.
func (r *refWalk) frontier(d int) uint16 {
	var explore uint16
	for _, i := range r.active {
		explore |= r.clusters[i].Mask(d)
	}
	return explore
}

// narrow keeps the active clusters admitting value v at depth d.
func (r *refWalk) narrow(d int, v uint8) {
	keep := r.active[:0]
	for _, i := range r.active {
		if maskAllows(r.clusters[i], d, v, r.mode) {
			keep = append(keep, i)
		}
	}
	r.active = keep
}

// bitset renders the active list in the tables' word layout.
func (r *refWalk) bitset(words int) []uint64 {
	out := make([]uint64, words)
	for _, i := range r.active {
		out[i/64] |= 1 << (i % 64)
	}
	return out
}

// refClusterOf is New's former linear admission scan.
func refClusterOf(s *Source, a netip.Addr) *sixgen.Cluster {
	r := newRefWalk(s)
	for d, v := range sixgen.Nybbles(a) {
		r.narrow(d, v)
	}
	if len(r.active) == 0 {
		return nil
	}
	return s.clusters[r.active[0]]
}

// seedsWithClusters returns the shortest sorted prefix of a synthetic
// seed list that forms exactly want clusters. Clustering is greedy
// over sorted seeds, so a sorted prefix's clusters are the full list's
// leading clusters and each added seed adds at most one.
func seedsWithClusters(t *testing.T, want int, seed int64, cc sixgen.Config) []netip.Addr {
	t.Helper()
	seeds := synthSeeds(8*want, want, seed)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].Less(seeds[j]) })
	for n := want; n <= len(seeds); n++ {
		if len(sixgen.Clusters(seeds[:n], cc)) == want {
			return seeds[:n]
		}
	}
	t.Fatalf("no seed prefix forms exactly %d clusters", want)
	return nil
}

// checkWalks runs random walks from the root and asserts, at every
// depth, that the memoized or freshly computed frontier and the active
// bitset equal the linear-scan reference. Walks favour existing
// children and frontier values so they follow clusters deep into the
// trie, and create nodes where they leave it.
func checkWalks(t *testing.T, s *Source, rng *rand.Rand, walks int) {
	t.Helper()
	for w := 0; w < walks; w++ {
		ref := newRefWalk(s)
		s.resetActive()
		n := s.root
		for d := 0; d < prefixDepth; d++ {
			got, want := s.frontier(n, d), ref.frontier(d)
			if got != want {
				t.Fatalf("walk %d depth %d: frontier %016b, reference %016b", w, d, got, want)
			}
			if wantSet := ref.bitset(s.words); !slices.Equal(s.active, wantSet) {
				t.Fatalf("walk %d depth %d: active %x, reference %x", w, d, s.active, wantSet)
			}
			var kids []uint8
			for v, c := range n.children {
				if c != nil {
					kids = append(kids, uint8(v))
				}
			}
			pick := uint8(rng.Intn(16))
			switch {
			case len(kids) > 0 && rng.Intn(2) == 0:
				pick = kids[rng.Intn(len(kids))]
			case want != 0 && rng.Intn(4) != 0:
				for want&(1<<pick) == 0 {
					pick = uint8(rng.Intn(16))
				}
			}
			if n.children[pick] == nil {
				n.children[pick] = &node{}
			}
			n = n.children[pick]
			s.narrow(d, pick)
			ref.narrow(d, pick)
		}
	}
}

// TestFrontierMatchesReference: the cluster bitsets and per-node memo
// reproduce the linear scan at word boundaries (63, 64, 65 and 129
// clusters) in both modes — on nodes New's seed insertion and reward
// insertTo created, on nodes sampling memoized, and on a trie rebuilt
// by RestoreState, whose memo starts empty — and clusterOf picks the
// same cluster as the linear admission scan.
func TestFrontierMatchesReference(t *testing.T) {
	if sz := unsafe.Sizeof(node{}); sz > 144 {
		t.Fatalf("node is %d bytes; it must stay in the 144-byte size class", sz)
	}
	modes := map[string]sixgen.Config{
		"tight": {Mode: sixgen.Tight, MaxClusterSpan: 4096},
		"loose": {Mode: sixgen.Loose},
	}
	for name, cc := range modes {
		for _, want := range []int{63, 64, 65, 129} {
			t.Run(fmt.Sprintf("%s/%d", name, want), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(want)))
				seeds := seedsWithClusters(t, want, int64(want), cc)
				cfg := Config{Key: uint64(want), Cluster: cc}
				s := New(seeds, cfg)
				if len(s.clusters) != want {
					t.Fatalf("%d clusters, want %d", len(s.clusters), want)
				}
				for _, a := range seeds {
					if got, ref := s.clusterOf(a), refClusterOf(s, a); got != ref {
						t.Fatalf("clusterOf(%v) differs from the linear scan", a)
					}
				}
				for i := 0; i < 20; i++ {
					s.insertTo(seeds[rng.Intn(len(seeds))], 64, s.cfg.RewardDepth)
				}
				s.NextEpoch(0, 40, nil)
				checkWalks(t, s, rng, 200)

				r := New(seeds, cfg)
				if err := r.RestoreState(s.AppendState(nil)); err != nil {
					t.Fatal(err)
				}
				checkWalks(t, r, rng, 200)
			})
		}
	}
}

// FuzzRestoreState: generation state arrives inside checkpoint
// artifacts, so the decoder faces arbitrary bytes. A blob that restores
// must re-serialize byte-identically (the decoder accepts only the
// canonical encoding), and sampling from the restored trie must not
// panic.
func FuzzRestoreState(f *testing.F) {
	seeds := twoRegionSeeds()
	s := New(seeds, Config{Key: 2})
	f.Add(s.AppendState(nil))
	s.NextEpoch(0, 6, &core.Feedback{Aliased: []netip.Prefix{netip.MustParsePrefix("2001:db8:b:3::/64")}})
	valid := s.AppendState(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x02
	f.Add(flipped)
	f.Add([]byte(stateMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(seeds, Config{Key: 2})
		if err := r.RestoreState(data); err != nil {
			return
		}
		if again := r.AppendState(nil); !bytes.Equal(again, data) {
			t.Fatalf("restored state re-serializes differently:\n in  %x\n out %x", data, again)
		}
		r.NextEpoch(1, 8, nil)
	})
}
