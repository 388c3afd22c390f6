package ipv6

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
)

// Set is an ordered, duplicate-free collection of IPv6 addresses. The
// target-generation pipeline, DPL analysis, and campaign bookkeeping all
// operate on Sets; operations preserve sortedness so that neighbor queries
// (the heart of DPL) are O(log n).
type Set struct {
	addrs []netip.Addr // sorted ascending, unique
}

// NewSet builds a set from addrs, sorting and deduplicating.
func NewSet(addrs []netip.Addr) *Set {
	s := &Set{addrs: make([]netip.Addr, len(addrs))}
	copy(s.addrs, addrs)
	s.normalize()
	return s
}

// EmptySet returns a set with no members.
func EmptySet() *Set { return &Set{} }

// normalize sorts and deduplicates in place. Addresses that compare
// equal are identical, so the unstable sort fixes the order completely.
func (s *Set) normalize() {
	slices.SortFunc(s.addrs, netip.Addr.Compare)
	s.addrs = slices.Compact(s.addrs)
}

// Len returns the number of addresses in the set.
func (s *Set) Len() int { return len(s.addrs) }

// At returns the i'th address in sorted order.
func (s *Set) At(i int) netip.Addr { return s.addrs[i] }

// Addrs returns the underlying sorted slice. Callers must not mutate it.
func (s *Set) Addrs() []netip.Addr { return s.addrs }

// Contains reports whether a is a member.
func (s *Set) Contains(a netip.Addr) bool {
	i := sort.Search(len(s.addrs), func(i int) bool { return !s.addrs[i].Less(a) })
	return i < len(s.addrs) && s.addrs[i] == a
}

// Union returns a new set with the members of s and t.
func (s *Set) Union(t *Set) *Set {
	merged := make([]netip.Addr, 0, len(s.addrs)+len(t.addrs))
	merged = append(merged, s.addrs...)
	merged = append(merged, t.addrs...)
	return NewSet(merged)
}

// Intersect returns the members present in both s and t.
func (s *Set) Intersect(t *Set) *Set {
	a, b := s.addrs, t.addrs
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []netip.Addr
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return &Set{addrs: out}
}

// Diff returns the members of s not present in t.
func (s *Set) Diff(t *Set) *Set {
	var out []netip.Addr
	i, j := 0, 0
	for i < len(s.addrs) {
		switch {
		case j >= len(t.addrs) || s.addrs[i].Less(t.addrs[j]):
			out = append(out, s.addrs[i])
			i++
		case s.addrs[i] == t.addrs[j]:
			i++
			j++
		default:
			j++
		}
	}
	return &Set{addrs: out}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	out := make([]netip.Addr, len(s.addrs))
	copy(out, s.addrs)
	return &Set{addrs: out}
}

// Exclusive computes, for each named set, the members appearing in that set
// and no other. This implements the paper's "exclusive" feature columns
// (Tables 5 and 7): contributions masked by combined/derived sets are the
// caller's responsibility to exclude from the input map.
func Exclusive(sets map[string]*Set) map[string]*Set {
	// Count occurrences across sets; an address is exclusive to a set when
	// its total multiplicity is one.
	mult := make(map[netip.Addr]int)
	for _, s := range sets {
		for _, a := range s.addrs {
			mult[a]++
		}
	}
	out := make(map[string]*Set, len(sets))
	for name, s := range sets {
		var excl []netip.Addr
		for _, a := range s.addrs {
			if mult[a] == 1 {
				excl = append(excl, a)
			}
		}
		out[name] = &Set{addrs: excl}
	}
	return out
}

// PrefixSet is the analogue of Set for prefixes, keyed by canonical
// (masked) prefix value.
type PrefixSet struct {
	prefixes []netip.Prefix // sorted, unique, canonical
}

// NewPrefixSet builds a prefix set, canonicalizing, sorting, and
// deduplicating the input.
func NewPrefixSet(ps []netip.Prefix) *PrefixSet {
	set := &PrefixSet{prefixes: make([]netip.Prefix, len(ps))}
	for i, p := range ps {
		set.prefixes[i] = CanonicalPrefix(p)
	}
	slices.SortFunc(set.prefixes, comparePrefix)
	set.prefixes = slices.Compact(set.prefixes)
	return set
}

// comparePrefix orders prefixes by address, then length.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// Len returns the number of prefixes.
func (s *PrefixSet) Len() int { return len(s.prefixes) }

// At returns the i'th prefix in sorted order.
func (s *PrefixSet) At(i int) netip.Prefix { return s.prefixes[i] }

// Prefixes returns the sorted canonical prefixes. Callers must not mutate.
func (s *PrefixSet) Prefixes() []netip.Prefix { return s.prefixes }

// Contains reports whether p (canonicalized) is a member.
func (s *PrefixSet) Contains(p netip.Prefix) bool {
	p = CanonicalPrefix(p)
	i := sort.Search(len(s.prefixes), func(i int) bool { return comparePrefix(s.prefixes[i], p) >= 0 })
	return i < len(s.prefixes) && s.prefixes[i] == p
}
