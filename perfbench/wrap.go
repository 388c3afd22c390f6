package main

// Forwarding wrappers that time calls into each module from the
// benchmark's side of the boundary. None of them changes what it
// forwards: the traced run must be the same program as the untraced
// one, which checkForwarding and the result-digest comparison enforce.

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"beholder/internal/core"
	"beholder/internal/gen6prob"
	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// tracedConn wraps a simulator vantage. It forwards every optional
// interface the engine type-asserts — probe.BatchConn, probe.Primer,
// probe.ConnCheckpointer and probe.SimStateCheckpointer — so the prober
// takes the same paths it takes on a bare *netsim.Vantage.
type tracedConn struct {
	v  *netsim.Vantage
	tr *tracer
	ln *lane
}

func newTracedConn(v *netsim.Vantage, tr *tracer, ln *lane) *tracedConn {
	return &tracedConn{v: v, tr: tr, ln: ln}
}

// enter opens the lane's shard span at the first send or receive after
// the previous FlushStats, and returns the call's start time.
func (c *tracedConn) enter() int64 {
	t := c.tr.now()
	if !c.ln.shardOpen {
		c.ln.shardOpen = true
		c.ln.shardStart = t
	}
	return t
}

func (c *tracedConn) LocalAddr() netip.Addr { return c.v.LocalAddr() }
func (c *tracedConn) Now() time.Duration    { return c.v.Now() }
func (c *tracedConn) Sleep(d time.Duration) { c.v.Sleep(d) }
func (c *tracedConn) Pending() int          { return c.v.Pending() }
func (c *tracedConn) NextDeliveryAt() (time.Duration, bool) {
	return c.v.NextDeliveryAt()
}

func (c *tracedConn) Send(pkt []byte) error {
	t := c.enter()
	err := c.v.Send(pkt)
	c.ln.add(lNetsimSend, t, c.tr.now())
	c.ln.sendCalls++
	return err
}

func (c *tracedConn) SendBatch(pkts [][]byte, gap time.Duration) (int, bool, error) {
	t := c.enter()
	n, deliverable, err := c.v.SendBatch(pkts, gap)
	c.ln.add(lNetsimSend, t, c.tr.now())
	c.ln.sendCalls++
	return n, deliverable, err
}

func (c *tracedConn) sampleQueue() {
	if d := c.v.Pending(); d > c.ln.queueMax {
		c.ln.queueMax = d
	}
}

func (c *tracedConn) Recv(buf []byte) (int, bool) {
	c.sampleQueue()
	t := c.enter()
	n, ok := c.v.Recv(buf)
	c.ln.add(lNetsimRecv, t, c.tr.now())
	if ok {
		c.ln.replies++
		c.capture(buf[:n])
	}
	return n, ok
}

func (c *tracedConn) RecvBatch(buf []byte, sizes []int) int {
	c.sampleQueue()
	t := c.enter()
	n := c.v.RecvBatch(buf, sizes)
	c.ln.add(lNetsimRecv, t, c.tr.now())
	c.ln.replies += int64(n)
	if c.ln.capture != nil && len(c.ln.capture) < cap(c.ln.capture) {
		off := 0
		for _, sz := range sizes[:n] {
			c.capture(buf[off : off+sz])
			off += sz
		}
	}
	return n
}

func (c *tracedConn) capture(pkt []byte) {
	if c.ln.capture != nil && len(c.ln.capture) < cap(c.ln.capture) {
		c.ln.capture = append(c.ln.capture, bytes.Clone(pkt))
	}
}

// FlushStats ends the prober's run on this connection: it closes the
// lane's shard span.
func (c *tracedConn) FlushStats() {
	t := c.tr.now()
	c.v.FlushStats()
	end := c.tr.now()
	c.ln.add(lNetsimSend, t, end)
	if c.ln.shardOpen {
		c.ln.add(lCoreShard, c.ln.shardStart, end)
		c.ln.shardOpen = false
	}
	c.ln.lastFlush = end
}

func (c *tracedConn) BeginPrime() {
	c.ln.primeStart = c.tr.now()
	c.v.BeginPrime()
}

func (c *tracedConn) Prime(pkt []byte, at time.Duration) error { return c.v.Prime(pkt, at) }
func (c *tracedConn) PrimeFlow(pkt []byte) (int, error)        { return c.v.PrimeFlow(pkt) }
func (c *tracedConn) PrimeIdx(tok int, ttl uint8, at time.Duration) {
	c.v.PrimeIdx(tok, ttl, at)
}

func (c *tracedConn) EndPrime() {
	c.v.EndPrime()
	c.ln.add(lNetsimPrime, c.ln.primeStart, c.tr.now())
	c.ln.primeCalls++
}

func (c *tracedConn) ExportPending(fn func(at time.Duration, data []byte)) { c.v.ExportPending(fn) }
func (c *tracedConn) InjectReply(at time.Duration, data []byte)            { c.v.InjectReply(at, data) }
func (c *tracedConn) ExportSimState(buf []byte) []byte                     { return c.v.ExportSimState(buf) }
func (c *tracedConn) ImportSimState(data []byte) error                     { return c.v.ImportSimState(data) }

// checkForwarding fails when wrapped hides an optional interface that
// inner implements. The engine type-asserts these at run time, and a
// hidden one silently switches it to a fallback path — a different
// program from the untraced run.
func checkForwarding(inner, wrapped any) error {
	checks := []struct {
		name string
		has  func(any) bool
	}{
		{"probe.BatchConn", func(x any) bool { _, ok := x.(probe.BatchConn); return ok }},
		{"probe.Primer", func(x any) bool { _, ok := x.(probe.Primer); return ok }},
		{"probe.ConnCheckpointer", func(x any) bool { _, ok := x.(probe.ConnCheckpointer); return ok }},
		{"probe.SimStateCheckpointer", func(x any) bool { _, ok := x.(probe.SimStateCheckpointer); return ok }},
		{"probe.Observer", func(x any) bool { _, ok := x.(probe.Observer); return ok }},
		{"core.TargetSource", func(x any) bool { _, ok := x.(core.TargetSource); return ok }},
	}
	for _, c := range checks {
		if c.has(inner) && !c.has(wrapped) {
			return fmt.Errorf("%T hides %s implemented by %T", wrapped, c.name, inner)
		}
	}
	return nil
}

// forwardCheck keeps the first checkForwarding failure of a run.
type forwardCheck struct{ err error }

func (f *forwardCheck) check(inner, wrapped any) {
	if f.err == nil {
		f.err = checkForwarding(inner, wrapped)
	}
}

// planStats sums the flow-plan cache counters of a run's connections.
func planStats(conns []*netsim.Vantage) netsim.VantageStats {
	var s netsim.VantageStats
	for _, c := range conns {
		s.PlanHits += c.Stats.PlanHits
		s.PlanMisses += c.Stats.PlanMisses
		s.PlanEvictions += c.Stats.PlanEvictions
	}
	return s
}

// tracedObserver times streaming graph construction.
type tracedObserver struct {
	g  *graph.Graph
	tr *tracer
	ln *lane
}

func (o *tracedObserver) OnReply(r probe.Reply) {
	t := o.tr.now()
	o.g.OnReply(r)
	o.ln.add(lGraphObserve, t, o.tr.now())
}

// tracedSource times gen6prob's epoch generation.
type tracedSource struct {
	s    *gen6prob.Source
	tr   *tracer
	ln   *lane
	last []netip.Addr // the latest non-empty epoch, for the microbenchmarks
}

func (s *tracedSource) NextEpoch(epoch, want int, fb *core.Feedback) []netip.Addr {
	t := s.tr.now()
	out := s.s.NextEpoch(epoch, want, fb)
	s.ln.add(lGenNext, t, s.tr.now())
	if len(out) > 0 {
		s.last = out
	}
	return out
}

func (s *tracedSource) AppendState(buf []byte) []byte  { return s.s.AppendState(buf) }
func (s *tracedSource) RestoreState(data []byte) error { return s.s.RestoreState(data) }

// streamEvent is one lifecycle record seen on a campaign's stream.
type streamEvent struct {
	at    int64
	event string
}

// tsWriter timestamps the supervisor's lifecycle events as they are
// written to a campaign's stream. Graph delta records pass through
// unrecorded. The supervisor serializes writes per stream.
type tsWriter struct {
	w      io.Writer
	tr     *tracer
	mu     sync.Mutex
	events []streamEvent
}

var deltaPrefix = []byte(`{"event":"delta"`)

func (w *tsWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	if !bytes.HasPrefix(p, deltaPrefix) {
		at := w.tr.now()
		ev := eventName(p)
		w.mu.Lock()
		w.events = append(w.events, streamEvent{at: at, event: ev})
		w.mu.Unlock()
	}
	return n, err
}

// eventName extracts the "event" field of one NDJSON record.
func eventName(p []byte) string {
	const key = `"event":"`
	i := bytes.Index(p, []byte(key))
	if i < 0 {
		return ""
	}
	rest := p[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

func (w *tsWriter) snapshot() []streamEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]streamEvent(nil), w.events...)
}
