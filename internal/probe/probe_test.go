package probe

import (
	"net/netip"
	"testing"
	"time"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func teReply(target, from string, ttl uint8) Reply {
	return Reply{
		From:           addr(from),
		Target:         addr(target),
		Kind:           KindTimeExceeded,
		TTL:            ttl,
		StateRecovered: true,
	}
}

func TestStoreInterfaceDedup(t *testing.T) {
	s := NewStore(false)
	if !s.Add(teReply("2001:db8::1", "2400:1::1", 3)) {
		t.Error("first sighting should be new")
	}
	if s.Add(teReply("2001:db8::2", "2400:1::1", 4)) {
		t.Error("second sighting should not be new")
	}
	if s.NumInterfaces() != 1 {
		t.Errorf("interfaces = %d", s.NumInterfaces())
	}
	if len(s.Interfaces()) != 1 {
		t.Errorf("Interfaces() len = %d", len(s.Interfaces()))
	}
}

func TestStorePathRecording(t *testing.T) {
	s := NewStore(true)
	s.Add(teReply("2001:db8::1", "2400:1::1", 1))
	s.Add(teReply("2001:db8::1", "2400:2::1", 3))
	s.Add(teReply("2001:db8::1", "2400:3::1", 2))
	// Duplicate TTL keeps the first answer.
	s.Add(teReply("2001:db8::1", "2400:9::9", 2))

	tr := s.Trace(addr("2001:db8::1"))
	if tr == nil {
		t.Fatal("no trace")
	}
	hops := tr.SortedHops()
	if len(hops) != 3 {
		t.Fatalf("hops = %d", len(hops))
	}
	for i, want := range []string{"2400:1::1", "2400:3::1", "2400:2::1"} {
		if hops[i].Addr != addr(want) {
			t.Errorf("hop %d = %s want %s", i, hops[i].Addr, want)
		}
	}
	if tr.PathLength() != 3 {
		t.Errorf("path length %d", tr.PathLength())
	}
	if s.NumTraces() != 1 {
		t.Errorf("traces = %d", s.NumTraces())
	}
}

// TestSortedHopsAllocs: sorting a trace's hops costs only the copy it
// returns.
func TestSortedHopsAllocs(t *testing.T) {
	s := NewStore(true)
	for _, ttl := range []uint8{9, 2, 14, 5, 1, 11, 7, 3} {
		s.Add(teReply("2001:db8::1", "2400:1::1", ttl))
	}
	tr := s.Trace(addr("2001:db8::1"))
	if got := testing.AllocsPerRun(100, func() { tr.SortedHops() }); got != 1 {
		t.Fatalf("SortedHops allocs = %v, want 1", got)
	}
	hops := tr.SortedHops()
	for i := 1; i < len(hops); i++ {
		if hops[i-1].TTL >= hops[i].TTL {
			t.Fatalf("hops out of TTL order: %v", hops)
		}
	}
}

func TestStoreNoPathsWithoutRecording(t *testing.T) {
	s := NewStore(false)
	s.Add(teReply("2001:db8::1", "2400:1::1", 1))
	if s.Trace(addr("2001:db8::1")) != nil {
		t.Error("trace retained without recording")
	}
	if s.NumInterfaces() != 1 {
		t.Error("interface lost")
	}
}

func TestStoreReachedAndResponseMix(t *testing.T) {
	s := NewStore(true)
	s.Add(Reply{From: addr("2001:db8::5"), Target: addr("2001:db8::5"), Kind: KindEchoReply, StateRecovered: true})
	s.Add(Reply{From: addr("2001:db8::6"), Target: addr("2001:db8::6"), Kind: KindTCPRst, StateRecovered: true})
	s.Add(Reply{From: addr("2001:db8::7"), Target: addr("2001:db8::7"), Kind: KindDestUnreach, Code: 4, StateRecovered: true})
	s.Add(Reply{From: addr("2400::1"), Target: addr("2001:db8::8"), Kind: KindDestUnreach, Code: 0, StateRecovered: true})

	for _, target := range []string{"2001:db8::5", "2001:db8::6", "2001:db8::7"} {
		if tr := s.Trace(addr(target)); tr == nil || !tr.Reached {
			t.Errorf("target %s not marked reached", target)
		}
	}
	if tr := s.Trace(addr("2001:db8::8")); tr == nil || tr.Reached {
		t.Error("no-route target wrongly marked reached")
	}
	if s.EchoReplies != 1 || s.TCPRsts != 1 {
		t.Errorf("mix: echo=%d rst=%d", s.EchoReplies, s.TCPRsts)
	}
	if s.DestUnreachByCode[4] != 1 || s.DestUnreachByCode[0] != 1 {
		t.Errorf("unreach codes: %v", s.DestUnreachByCode)
	}
	if s.OtherICMPv6() != 3 {
		t.Errorf("other icmpv6 = %d", s.OtherICMPv6())
	}
	if s.Responses() != 4 {
		t.Errorf("responses = %d", s.Responses())
	}
}

func TestStoreUnparseableAndRewritten(t *testing.T) {
	s := NewStore(false)
	s.Add(Reply{From: addr("2400::1"), Kind: KindTimeExceeded, StateRecovered: false})
	s.Add(Reply{From: addr("2400::2"), Kind: KindTimeExceeded, StateRecovered: true, TargetRewritten: true, Target: addr("2001:db8::1"), TTL: 2})
	if s.Unparseable != 1 {
		t.Errorf("unparseable = %d", s.Unparseable)
	}
	if s.Rewritten != 1 {
		t.Errorf("rewritten = %d", s.Rewritten)
	}
	// The unparseable reply still contributed its interface.
	if s.NumInterfaces() != 2 {
		t.Errorf("interfaces = %d", s.NumInterfaces())
	}
}

func TestStoreZeroTTLNotRecordedAsHop(t *testing.T) {
	s := NewStore(true)
	r := teReply("2001:db8::1", "2400:1::1", 0)
	r.StateRecovered = false
	s.Add(r)
	tr := s.Trace(addr("2001:db8::1"))
	if tr != nil && len(tr.Hops) != 0 {
		t.Error("TTL-0 reply recorded as a hop")
	}
}

func TestReplyHelpers(t *testing.T) {
	r := teReply("2001:db8::1", "2400:1::1", 1)
	if !r.IsTimeExceeded() {
		t.Error("IsTimeExceeded false")
	}
	r.Kind = KindEchoReply
	if r.IsTimeExceeded() {
		t.Error("IsTimeExceeded true for echo")
	}
	if r.At != 0 {
		t.Error("zero value At")
	}
	_ = time.Duration(0)
}
