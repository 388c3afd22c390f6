package main

// Span recording and layer accounting for the traced run.
//
// Spans are recorded from the benchmark's own wrappers around the calls
// into each module (see wrap.go), kept in memory per lane, and reduced
// after the run. A lane is one sequential thread of work: the driving
// goroutine (the main lane), one campaign shard, or one supervised campaign.
// Spans on a lane nest or are disjoint. A layer's self time on a lane
// is its span time minus the part its child spans cover.
//
// Self times of concurrent lanes overlap in wall time, so summing them
// would exceed the wall clock. For the add-up check every wall-clock
// instant is split evenly between the worker lanes busy at that instant
// and given to each lane's innermost span; when no worker lane is busy
// the instant goes to the driving lane's innermost span, and the part
// no span covers is the unattributed remainder.

import (
	"sort"
	"time"
)

// layer identifies one traced module boundary.
type layer uint8

const (
	lUnattributed   layer = iota // root self time: glue no wrapper covers
	lCoreRun                     // Campaign/Adaptive Run on the driving lane, outside child spans
	lCoreMerge                   // last shard FlushStats → Run return
	lCoreShard                   // shard span self time: the prober's own work
	lCoreEpochSetup              // epoch conn factory call → first send
	lNetsimSend
	lNetsimRecv
	lNetsimPrime
	lGraphObserve
	lGraphUnion
	lGenBuild
	lGenNext
	lAliasDetect
	lSchedRun // supervised campaign: started → terminal event, outside child spans
	lStorePut
	numLayers
)

var layerNames = [numLayers]string{
	"unattributed", "core.run", "core.merge", "core.shard", "core.epoch_setup",
	"netsim.send", "netsim.recv", "netsim.prime", "graph.observe", "graph.union",
	"gen6prob.build", "gen6prob.next_epoch", "alias.detect", "sched.run", "store.put",
}

type span struct {
	start, end int64 // ns since the tracer origin
	layer      layer
}

// lane holds one sequential thread's spans and the counters recorded
// at its boundaries. Only one goroutine uses a lane at a time; the
// engine's own synchronization (shard start/join, supervisor hand-offs)
// orders successive users.
type lane struct {
	spans []span

	sendCalls, replies int64
	queueMax           int
	primeCalls         int64

	shardOpen  bool
	shardStart int64
	primeStart int64
	lastFlush  int64

	// capture, when non-nil, collects up to cap(capture) reply packets
	// for the per-probe microbenchmarks.
	capture [][]byte
}

func (l *lane) add(ly layer, start, end int64) {
	l.spans = append(l.spans, span{start: start, end: end, layer: ly})
}

// tracer is the clock of one traced run.
type tracer struct{ t0 time.Time }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// seg is a piece of a lane's timeline owned by its innermost span.
type seg struct {
	a, b  int64
	layer layer
}

// flatten turns a lane's nested spans into disjoint innermost segments
// in time order. A child that overruns its parent is clipped to it.
func flatten(spans []span) []seg {
	ss := append([]span(nil), spans...)
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].start != ss[j].start {
			return ss[i].start < ss[j].start
		}
		return ss[i].end > ss[j].end
	})
	var out []seg
	emit := func(a, b int64, ly layer) {
		if b > a {
			out = append(out, seg{a, b, ly})
		}
	}
	var stack []span
	var cur int64
	for _, s := range ss {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			emit(cur, top.end, top.layer)
			cur = top.end
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			emit(cur, s.start, top.layer)
			if s.end > top.end {
				s.end = top.end
			}
		}
		cur = s.start
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		emit(cur, top.end, top.layer)
		cur = top.end
	}
	return out
}

// accounting is the reduced trace of one run.
type accounting struct {
	wall float64            // root span, seconds
	attr [numLayers]float64 // wall-clock attribution, seconds; sums to wall
	self [numLayers]float64 // per-lane self time summed over lanes, seconds
	busy [numLayers]float64 // span durations (self plus children), seconds
}

// attributedSum is the wall time the layers account for, excluding the
// unattributed remainder.
func (a *accounting) attributedSum() float64 {
	var s float64
	for ly := layer(1); ly < numLayers; ly++ {
		s += a.attr[ly]
	}
	return s
}

// account reduces the spans recorded on main (the driving lane) and
// workers over the root interval [t0, t1].
func account(main *lane, workers []*lane, t0, t1 int64) accounting {
	var acc accounting
	acc.wall = float64(t1-t0) / 1e9
	clip := func(s seg) (seg, bool) {
		if s.a < t0 {
			s.a = t0
		}
		if s.b > t1 {
			s.b = t1
		}
		return s, s.b > s.a
	}
	mainSegs := flatten(append(main.spans, span{start: t0, end: t1, layer: lUnattributed}))
	for _, s := range mainSegs {
		if s, ok := clip(s); ok {
			acc.self[s.layer] += float64(s.b-s.a) / 1e9
		}
	}
	type event struct {
		t     int64
		lane  int32
		layer layer
		start bool
	}
	var evs []event
	for i, l := range workers {
		for _, s := range flatten(l.spans) {
			s, ok := clip(s)
			if !ok {
				continue
			}
			acc.self[s.layer] += float64(s.b-s.a) / 1e9
			evs = append(evs, event{s.a, int32(i), s.layer, true}, event{s.b, int32(i), s.layer, false})
		}
	}
	for _, l := range append([]*lane{main}, workers...) {
		for _, s := range l.spans {
			acc.busy[s.layer] += float64(s.end-s.start) / 1e9
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return !evs[i].start && evs[j].start
	})

	// Driving-lane attribution for intervals no worker covers: walk its
	// segments with a cursor, since the queried intervals only advance.
	mi := 0
	mainAttr := func(a, b int64) {
		for a < b {
			for mi < len(mainSegs) && mainSegs[mi].b <= a {
				mi++
			}
			if mi == len(mainSegs) || mainSegs[mi].a >= b {
				acc.attr[lUnattributed] += float64(b-a) / 1e9
				return
			}
			s := mainSegs[mi]
			if s.a > a {
				acc.attr[lUnattributed] += float64(s.a-a) / 1e9
				a = s.a
			}
			e := min(s.b, b)
			acc.attr[s.layer] += float64(e-a) / 1e9
			a = e
		}
	}

	curLayer := make([]layer, len(workers))
	var active []int32
	prev := t0
	for _, ev := range evs {
		if dt := ev.t - prev; dt > 0 {
			if len(active) == 0 {
				mainAttr(prev, ev.t)
			} else {
				share := float64(dt) / 1e9 / float64(len(active))
				for _, li := range active {
					acc.attr[curLayer[li]] += share
				}
			}
			prev = ev.t
		}
		if ev.start {
			curLayer[ev.lane] = ev.layer
			active = append(active, ev.lane)
			continue
		}
		for k, li := range active {
			if li == ev.lane {
				active[k] = active[len(active)-1]
				active = active[:len(active)-1]
				break
			}
		}
	}
	if prev < t1 {
		mainAttr(prev, t1)
	}
	return acc
}
