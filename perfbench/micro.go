package main

// Per-probe microbenchmarks of the probe path's pure stages, timed on
// inputs the traced run captured: its targets and the first replies
// its shard 0 received.

import (
	"time"

	"beholder/internal/perm"
	"beholder/internal/probe"
)

const microRounds = 5

// timeOp runs op in rounds of at least round each and returns the
// median ns per op and the heap objects allocated per op.
func timeOp(round time.Duration, op func()) (nsPerOp, allocsPerOp float64) {
	var per []float64
	var ops uint64
	a0 := heapAllocs()
	for r := 0; r < microRounds; r++ {
		n := 0
		t0 := time.Now()
		for {
			for k := 0; k < 256; k++ {
				op()
			}
			n += 256
			if time.Since(t0) >= round {
				break
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		ops += uint64(n)
	}
	return median(per), float64(heapAllocs()-a0) / float64(ops)
}

func microbench(cfg config, r *report, out *tracedRun) {
	targets := out.cfg.Targets
	if len(targets) == 0 || out.conn == nil {
		return
	}
	round := cfg.sz.microRound
	maxTTL := int(out.cfg.MaxTTL)
	if maxTTL == 0 {
		maxTTL = campaignTTL
	}

	codec := probe.NewCodec(out.conn, out.cfg.Proto, 0)
	buf := make([]byte, 1500)
	i := 0
	ns, allocs := timeOp(round, func() {
		codec.BuildProbe(buf, targets[i%len(targets)], uint8(i%maxTTL)+1)
		i++
	})
	r.set("probe.build_ns", "ns", ns)
	r.set("probe.build_allocs", "objects/op", allocs)

	var captured [][]byte
	if len(out.shards) > 0 {
		captured = out.shards[0].capture
	}
	if len(captured) > 0 {
		parser := probe.NewCodec(out.conn, out.cfg.Proto, 0)
		j := 0
		ns, allocs = timeOp(round, func() {
			parser.ParseReply(captured[j%len(captured)])
			j++
		})
		r.set("probe.parse_ns", "ns", ns)
		r.set("probe.parse_allocs", "objects/op", allocs)

		var replies []probe.Reply
		for _, b := range captured {
			if rep, ok := parser.ParseReply(b); ok {
				replies = append(replies, rep)
			}
		}
		if len(replies) > 0 {
			st := probe.NewStore(true)
			k := 0
			ns, allocs = timeOp(round, func() {
				if k == len(replies) {
					st, k = probe.NewStore(true), 0
				}
				st.Add(replies[k])
				k++
			})
			r.set("probe.store_add_ns", "ns", ns)
			r.set("probe.store_add_allocs", "objects/op", allocs)
		}
	}

	p, err := perm.New(out.cfg.Key, uint64(len(targets)*maxTTL))
	if err == nil {
		it := p.Iter()
		ns, allocs = timeOp(round, func() {
			if _, ok := it.Next(); !ok {
				it = p.Iter()
			}
		})
		r.set("perm.next_ns", "ns", ns)
		r.set("perm.next_allocs", "objects/op", allocs)
	}
	r.note("microbenchmarks on %d targets and %d captured replies", len(targets), len(captured))
}
