package probe

import (
	"cmp"
	"math/bits"
	"net/netip"
	"slices"
)

// HopEntry is one responsive hop of a traced path.
type HopEntry struct {
	TTL  uint8
	Addr netip.Addr
}

// Trace accumulates the responses attributable to one target.
type Trace struct {
	Target netip.Addr
	// Hops holds Time-Exceeded sources by probe TTL, unordered; use
	// SortedHops for path order. Duplicate TTLs keep the first answer
	// (Paris-stable flows make later answers identical in practice).
	Hops []HopEntry
	// seen is a 256-bit bitmap of TTLs present in Hops, so the per-reply
	// duplicate check on the hot path is one word test instead of a
	// linear scan over the hop list.
	seen [4]uint64
	// Reached reports a destination-originated response (echo reply,
	// port unreachable, RST) was received from the target itself.
	Reached bool
	// DestUnreach counts destination-unreachable responses by code.
	DestUnreach map[uint8]int
}

// HasTTL reports whether a hop at ttl has been recorded.
func (t *Trace) HasTTL(ttl uint8) bool {
	return t.seen[ttl>>6]&(1<<(ttl&63)) != 0
}

func (t *Trace) markTTL(ttl uint8) {
	t.seen[ttl>>6] |= 1 << (ttl & 63)
}

// SortedHops returns the hops ordered by TTL.
func (t *Trace) SortedHops() []HopEntry {
	out := make([]HopEntry, len(t.Hops))
	copy(out, t.Hops)
	slices.SortFunc(out, func(a, b HopEntry) int { return cmp.Compare(a.TTL, b.TTL) })
	return out
}

// PathLength returns the highest responding TTL (the paper's path length
// metric for Table 7).
func (t *Trace) PathLength() int {
	for w := 3; w >= 0; w-- {
		if t.seen[w] != 0 {
			return w<<6 | (bits.Len64(t.seen[w]) - 1)
		}
	}
	return 0
}

// Store accumulates campaign results: per-target traces, the global
// interface-address set, and response-mix counters. A Store is owned by a
// single prober goroutine while a campaign runs — the sharded campaign
// engine gives every shard its own Store and folds them together
// afterwards with Merge, which is deterministic regardless of how the
// shard goroutines interleaved.
type Store struct {
	recordPaths bool
	traces      map[netip.Addr]*Trace
	interfaces  map[netip.Addr]struct{}

	// lastTarget/lastTrace memoize the most recent trace touched by Add.
	// Replies cluster by target (fill-mode follow-ups, the sequential
	// baseline's per-destination bursts), so the memo removes the
	// per-reply map lookup for the common repeat case. Trace pointers
	// are stable for the store's lifetime, so the memo never dangles.
	lastTarget netip.Addr
	lastTrace  *Trace

	// block and hopSlab are slabs handed out in fixed pieces, so the
	// reply fold path allocates once per 64 discovered targets instead
	// of once per target, and hop lists grow through a shared block
	// instead of the 1-2-4-8 reallocation ladder per trace.
	block   []Trace
	hopSlab []HopEntry

	// Response mix (Table 4): ICMPv6 type/code counts.
	TimeExceeded      int64
	EchoReplies       int64
	TCPRsts           int64
	DestUnreachByCode map[uint8]int64
	Unparseable       int64 // replies whose probe state could not be recovered
	Rewritten         int64 // quoted target failed the checksum cross-check
}

// NewStore creates a result store. recordPaths enables per-target trace
// retention (needed for path analysis and subnet discovery); without it
// only aggregate counters and the interface set are kept, which is what
// pure discovery-power measurements need.
func NewStore(recordPaths bool) *Store {
	return &Store{
		recordPaths:       recordPaths,
		traces:            make(map[netip.Addr]*Trace),
		interfaces:        make(map[netip.Addr]struct{}),
		DestUnreachByCode: make(map[uint8]int64),
	}
}

// RecordsPaths reports whether per-target traces are retained.
func (s *Store) RecordsPaths() bool { return s.recordPaths }

// Add folds one reply into the store and reports whether the reply's
// source was a previously unseen interface address.
func (s *Store) Add(r Reply) (newInterface bool) {
	if !r.StateRecovered && r.Kind == KindTimeExceeded {
		s.Unparseable++
	}
	if r.TargetRewritten {
		s.Rewritten++
	}
	switch r.Kind {
	case KindTimeExceeded:
		s.TimeExceeded++
		// Insert unconditionally and detect novelty from the size delta:
		// one map operation instead of a lookup followed by an insert.
		before := len(s.interfaces)
		s.interfaces[r.From] = struct{}{}
		newInterface = len(s.interfaces) != before
	case KindEchoReply:
		s.EchoReplies++
	case KindTCPRst:
		s.TCPRsts++
	case KindDestUnreach:
		s.DestUnreachByCode[r.Code]++
	}
	if !s.recordPaths || !r.Target.IsValid() {
		return newInterface
	}
	t := s.lastTrace
	if t == nil || s.lastTarget != r.Target {
		t = s.traces[r.Target]
		if t == nil {
			if len(s.block) == 0 {
				s.block = make([]Trace, 64)
			}
			t = &s.block[0]
			s.block = s.block[1:]
			t.Target = r.Target
			// Pre-back the hop list with a slab piece covering the
			// default randomized TTL range; deeper traces (fill mode)
			// regrow normally.
			if len(s.hopSlab) < 16 {
				s.hopSlab = make([]HopEntry, 16*128)
			}
			t.Hops = s.hopSlab[:0:16]
			s.hopSlab = s.hopSlab[16:]
			s.traces[r.Target] = t
		}
		s.lastTarget, s.lastTrace = r.Target, t
	}
	switch r.Kind {
	case KindTimeExceeded:
		if r.TTL != 0 && !t.HasTTL(r.TTL) {
			t.markTTL(r.TTL)
			t.Hops = append(t.Hops, HopEntry{TTL: r.TTL, Addr: r.From})
		}
	case KindEchoReply, KindTCPRst:
		t.Reached = true
	case KindDestUnreach:
		if r.Code == 4 { // port unreachable comes from the destination
			t.Reached = true
		}
		if t.DestUnreach == nil {
			t.DestUnreach = make(map[uint8]int)
		}
		t.DestUnreach[r.Code]++
	}
	return newInterface
}

// Merge folds src into s. Campaign shards probe disjoint slices of the
// (target × TTL) domain, so hop entries never collide; if they do (e.g.
// merging overlapping ad-hoc campaigns), the entry already present wins,
// matching Add's first-answer rule — merge shards in virtual-time order
// to keep that rule meaningful. Merging is pure set union plus counter
// addition, so the merged store is identical however the shard goroutines
// interleaved. src is not modified.
func (s *Store) Merge(src *Store) {
	s.TimeExceeded += src.TimeExceeded
	s.EchoReplies += src.EchoReplies
	s.TCPRsts += src.TCPRsts
	s.Unparseable += src.Unparseable
	s.Rewritten += src.Rewritten
	for code, n := range src.DestUnreachByCode {
		s.DestUnreachByCode[code] += n
	}
	for a := range src.interfaces {
		s.interfaces[a] = struct{}{}
	}
	if !s.recordPaths {
		return
	}
	for target, st := range src.traces {
		t := s.traces[target]
		if t == nil {
			t = &Trace{Target: target}
			s.traces[target] = t
		}
		for _, hop := range st.Hops {
			if !t.HasTTL(hop.TTL) {
				t.markTTL(hop.TTL)
				t.Hops = append(t.Hops, hop)
			}
		}
		t.Reached = t.Reached || st.Reached
		if len(st.DestUnreach) > 0 {
			if t.DestUnreach == nil {
				t.DestUnreach = make(map[uint8]int, len(st.DestUnreach))
			}
			for code, n := range st.DestUnreach {
				t.DestUnreach[code] += n
			}
		}
	}
}

// Equal reports whether two stores hold identical results: the same
// counters, interface set, and (when both record paths) the same traces
// hop for hop. Sharded-campaign tests use it to prove merge determinism.
func (s *Store) Equal(o *Store) bool {
	if s.TimeExceeded != o.TimeExceeded || s.EchoReplies != o.EchoReplies ||
		s.TCPRsts != o.TCPRsts || s.Unparseable != o.Unparseable ||
		s.Rewritten != o.Rewritten {
		return false
	}
	if len(s.DestUnreachByCode) != len(o.DestUnreachByCode) {
		return false
	}
	for code, n := range s.DestUnreachByCode {
		if o.DestUnreachByCode[code] != n {
			return false
		}
	}
	if len(s.interfaces) != len(o.interfaces) {
		return false
	}
	for a := range s.interfaces {
		if _, ok := o.interfaces[a]; !ok {
			return false
		}
	}
	if s.recordPaths != o.recordPaths {
		return false
	}
	if len(s.traces) != len(o.traces) {
		return false
	}
	for target, st := range s.traces {
		ot := o.traces[target]
		if ot == nil || st.Reached != ot.Reached || st.seen != ot.seen ||
			len(st.Hops) != len(ot.Hops) || len(st.DestUnreach) != len(ot.DestUnreach) {
			return false
		}
		sh, oh := st.SortedHops(), ot.SortedHops()
		for i := range sh {
			if sh[i] != oh[i] {
				return false
			}
		}
		for code, n := range st.DestUnreach {
			if ot.DestUnreach[code] != n {
				return false
			}
		}
	}
	return true
}

// NumInterfaces returns the count of unique Time-Exceeded sources.
func (s *Store) NumInterfaces() int { return len(s.interfaces) }

// AddrSeen reports whether addr was discovered as an interface address,
// without materializing the interface slice.
func (s *Store) AddrSeen(addr netip.Addr) bool {
	_, ok := s.interfaces[addr]
	return ok
}

// ForEachInterface calls fn for every discovered interface address, in
// unspecified order. Analysis passes that only fold addresses into their
// own structures use it to avoid allocating the full slice Interfaces
// returns.
func (s *Store) ForEachInterface(fn func(netip.Addr)) {
	for a := range s.interfaces {
		fn(a)
	}
}

// Interfaces returns the discovered interface addresses, unordered. The
// result is allocated exactly once at full size.
func (s *Store) Interfaces() []netip.Addr {
	out := make([]netip.Addr, 0, len(s.interfaces))
	for a := range s.interfaces {
		out = append(out, a)
	}
	return out
}

// Trace returns the per-target record, or nil without path recording.
func (s *Store) Trace(target netip.Addr) *Trace { return s.traces[target] }

// Traces returns all retained traces, unordered. The result is allocated
// exactly once at full size.
func (s *Store) Traces() []*Trace {
	out := make([]*Trace, 0, len(s.traces))
	for _, t := range s.traces {
		out = append(out, t)
	}
	return out
}

// NumTraces returns how many targets have any recorded response.
func (s *Store) NumTraces() int { return len(s.traces) }

// OtherICMPv6 returns the count of non-Time-Exceeded ICMPv6 responses
// (Table 3's "Other ICMPv6" column).
func (s *Store) OtherICMPv6() int64 {
	n := s.EchoReplies
	for _, c := range s.DestUnreachByCode {
		n += c
	}
	return n
}

// Responses returns the total parsed responses of all kinds.
// OtherICMPv6 already folds echo replies and unreachables.
func (s *Store) Responses() int64 {
	return s.TimeExceeded + s.TCPRsts + s.OtherICMPv6()
}
