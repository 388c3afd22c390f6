package ipv6

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func addrsOf(ss ...string) []netip.Addr {
	out := make([]netip.Addr, len(ss))
	for i, s := range ss {
		out[i] = MustAddr(s)
	}
	return out
}

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(addrsOf("2001:db8::2", "2001:db8::1", "2001:db8::2", "2001:db8::1"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d want 2", s.Len())
	}
	if s.At(0) != MustAddr("2001:db8::1") || s.At(1) != MustAddr("2001:db8::2") {
		t.Errorf("order wrong: %v", s.Addrs())
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(addrsOf("2001:db8::1", "2001:db8::5", "2001:db8::9"))
	if !s.Contains(MustAddr("2001:db8::5")) {
		t.Error("missing member")
	}
	if s.Contains(MustAddr("2001:db8::6")) {
		t.Error("phantom member")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(addrsOf("2001:db8::1", "2001:db8::2", "2001:db8::3"))
	b := NewSet(addrsOf("2001:db8::3", "2001:db8::4"))

	if got := a.Union(b).Len(); got != 4 {
		t.Errorf("union len = %d", got)
	}
	inter := a.Intersect(b)
	if inter.Len() != 1 || inter.At(0) != MustAddr("2001:db8::3") {
		t.Errorf("intersect = %v", inter.Addrs())
	}
	diff := a.Diff(b)
	if diff.Len() != 2 || diff.Contains(MustAddr("2001:db8::3")) {
		t.Errorf("diff = %v", diff.Addrs())
	}
}

func TestSetAlgebraQuick(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B| and A\B ∪ A∩B = A, on random sets drawn
	// from a small universe to force collisions.
	f := func(xs, ys []uint8) bool {
		toSet := func(vs []uint8) *Set {
			addrs := make([]netip.Addr, len(vs))
			for i, v := range vs {
				addrs[i] = U128{0x20010db8 << 32, uint64(v)}.Addr()
			}
			return NewSet(addrs)
		}
		a, b := toSet(xs), toSet(ys)
		u := a.Union(b)
		inter := a.Intersect(b)
		if u.Len() != a.Len()+b.Len()-inter.Len() {
			return false
		}
		back := a.Diff(b).Union(inter)
		if back.Len() != a.Len() {
			return false
		}
		for _, addr := range a.Addrs() {
			if !back.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExclusive(t *testing.T) {
	sets := map[string]*Set{
		"a": NewSet(addrsOf("2001:db8::1", "2001:db8::2")),
		"b": NewSet(addrsOf("2001:db8::2", "2001:db8::3")),
		"c": NewSet(addrsOf("2001:db8::4")),
	}
	excl := Exclusive(sets)
	if excl["a"].Len() != 1 || !excl["a"].Contains(MustAddr("2001:db8::1")) {
		t.Errorf("a exclusive = %v", excl["a"].Addrs())
	}
	if excl["b"].Len() != 1 || !excl["b"].Contains(MustAddr("2001:db8::3")) {
		t.Errorf("b exclusive = %v", excl["b"].Addrs())
	}
	if excl["c"].Len() != 1 {
		t.Errorf("c exclusive = %v", excl["c"].Addrs())
	}
}

func TestPrefixSet(t *testing.T) {
	ps := NewPrefixSet([]netip.Prefix{
		netip.PrefixFrom(MustAddr("2001:db8::ff"), 48), // non-canonical
		MustPrefix("2001:db8::/48"),                    // dup after masking
		MustPrefix("2001:db8::/32"),
	})
	if ps.Len() != 2 {
		t.Fatalf("Len = %d want 2 (got %v)", ps.Len(), ps.Prefixes())
	}
	if !ps.Contains(MustPrefix("2001:db8::/48")) {
		t.Error("canonical member missing")
	}
	if !ps.Contains(netip.PrefixFrom(MustAddr("2001:db8::1"), 48)) {
		t.Error("lookup should canonicalize")
	}
	if ps.Contains(MustPrefix("2001:db9::/48")) {
		t.Error("phantom prefix")
	}
}

func TestSetLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	addrs := make([]netip.Addr, 5000)
	for i := range addrs {
		addrs[i] = U128{rng.Uint64(), rng.Uint64()}.Addr()
	}
	s := NewSet(addrs)
	// Sorted invariant.
	for i := 1; i < s.Len(); i++ {
		if !s.At(i - 1).Less(s.At(i)) {
			t.Fatalf("not strictly sorted at %d", i)
		}
	}
	for _, a := range addrs {
		if !s.Contains(a) {
			t.Fatalf("lost member %s", a)
		}
	}
}

// TestNormalizeMatchesReference: NewSet and NewPrefixSet order and
// deduplicate exactly like a plain sort.Slice followed by a
// drop-adjacent-duplicates pass, on random inputs dense in duplicates.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// A small pool makes duplicates common; its members share
		// high bits so orderings hinge on the low ones too.
		pool := make([]U128, 1+rng.Intn(40))
		for i := range pool {
			pool[i] = U128{0x20010db8<<32 | rng.Uint64()&0xff, rng.Uint64() & 0xffff}
		}
		n := rng.Intn(300)
		addrs := make([]netip.Addr, n)
		prefixes := make([]netip.Prefix, n)
		for i := range addrs {
			addrs[i] = pool[rng.Intn(len(pool))].Addr()
			prefixes[i] = netip.PrefixFrom(pool[rng.Intn(len(pool))].Addr(), 40+rng.Intn(89))
		}

		wantAddrs := slices.Clone(addrs)
		sort.Slice(wantAddrs, func(i, j int) bool { return wantAddrs[i].Less(wantAddrs[j]) })
		wantAddrs = dropAdjacentDups(wantAddrs)
		if got := NewSet(addrs).Addrs(); !slices.Equal(got, wantAddrs) {
			t.Fatalf("trial %d: NewSet = %v, want %v", trial, got, wantAddrs)
		}

		wantPrefixes := make([]netip.Prefix, n)
		for i, p := range prefixes {
			wantPrefixes[i] = CanonicalPrefix(p)
		}
		sort.Slice(wantPrefixes, func(i, j int) bool {
			a, b := wantPrefixes[i], wantPrefixes[j]
			if a.Addr() != b.Addr() {
				return a.Addr().Less(b.Addr())
			}
			return a.Bits() < b.Bits()
		})
		wantPrefixes = dropAdjacentDups(wantPrefixes)
		if got := NewPrefixSet(prefixes).Prefixes(); !slices.Equal(got, wantPrefixes) {
			t.Fatalf("trial %d: NewPrefixSet = %v, want %v", trial, got, wantPrefixes)
		}
	}
}

func dropAdjacentDups[T comparable](s []T) []T {
	var out []T
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
