package main

// The per-layer report of a traced run.

import (
	"time"

	"beholder/internal/core"
	"beholder/internal/netsim"
)

// tracedRun is the outcome of one traced campaign.
type tracedRun struct {
	digest string
	acc    accounting
	shards []*lane
	probes int64
	ifaces int
	wall   time.Duration
	gcFrac float64
	heapMB float64
	plan   netsim.VantageStats
	conn   *netsim.Vantage // a spare clone for the microbenchmarks
	cfg    core.Config
}

// reportTraced fills the per-layer metrics every traced campaign run
// shares and runs the checks that the traced run is the same program
// and that its layers add up. untraced holds the same workload run
// without tracing just before and just after the traced run; the
// tracing overhead is measured against their mean, so warm-up falls on
// neither side.
func reportTraced(cfg config, r *report, out *tracedRun, untraced []repResult) {
	var uwall float64
	for _, u := range untraced {
		uwall += u.wall.Seconds() / float64(len(untraced))
		if out.digest != u.digest {
			r.fail("traced digest %s differs from untraced digest %s", out.digest, u.digest)
		}
	}
	r.note("traced result digest %s, untraced %d times", out.digest, len(untraced))
	acc := &out.acc
	var sendCalls, replies, prime int64
	var qmax int
	var shardSpans []float64
	for _, l := range out.shards {
		sendCalls += l.sendCalls
		replies += l.replies
		prime += l.primeCalls
		qmax = max(qmax, l.queueMax)
		var s float64
		for _, sp := range l.spans {
			if sp.layer == lCoreShard {
				s += float64(sp.end-sp.start) / 1e9
			}
		}
		if s > 0 {
			shardSpans = append(shardSpans, s)
		}
	}
	probes := float64(out.probes)
	perProbe := func(ly layer) float64 { return acc.self[ly] * 1e9 / probes }
	r.set("netsim.send_ns_per_probe", "ns", perProbe(lNetsimSend))
	if sendCalls > 0 {
		r.set("netsim.probes_per_send_call", "probes/call", probes/float64(sendCalls))
	}
	if n := out.plan.PlanHits + out.plan.PlanMisses; n > 0 {
		r.set("netsim.plan_hit_ratio", "ratio", float64(out.plan.PlanHits)/float64(n))
	}
	r.set("netsim.plan_evictions_per_kprobe", "count/kprobe", float64(out.plan.PlanEvictions)*1000/probes)
	if replies > 0 {
		r.set("netsim.recv_ns_per_reply", "ns", acc.self[lNetsimRecv]*1e9/float64(replies))
	}
	r.set("netsim.queue_depth_max", "count", float64(qmax))
	r.set("netsim.prime_s", "s", acc.busy[lNetsimPrime])
	r.set("netsim.prime_calls", "count", float64(prime))
	if len(shardSpans) > 0 {
		var sum, mx float64
		for _, s := range shardSpans {
			sum += s
			mx = max(mx, s)
		}
		r.set("core.shard_run_s_max", "s", mx)
		r.set("core.shard_imbalance", "ratio", mx/(sum/float64(len(shardSpans))))
	}
	r.set("core.merge_s", "s", acc.busy[lCoreMerge])
	r.set("core.self_ns_per_probe", "ns", perProbe(lCoreShard))
	var observes int64
	for _, l := range out.shards {
		for _, sp := range l.spans {
			if sp.layer == lGraphObserve {
				observes++
			}
		}
	}
	if observes > 0 {
		r.set("graph.observe_ns_per_reply", "ns", acc.self[lGraphObserve]*1e9/float64(observes))
	}
	r.set("graph.union_ms", "ms", acc.busy[lGraphUnion]*1e3)
	r.set("runtime.gc_cpu_frac", "ratio", out.gcFrac)
	r.set("runtime.heap_peak_mb", "MB", out.heapMB)

	wall := out.wall.Seconds()
	r.set("trace.wall_s", "s", wall)
	r.set("trace.overhead_s", "s", wall-uwall)
	r.set("trace.overhead_frac", "ratio", wall/uwall-1)
	sum := acc.attributedSum()
	r.set("trace.unattributed_frac", "ratio", acc.attr[lUnattributed]/wall)
	r.set("trace.layer_sum_frac", "ratio", sum/wall)
	for ly := layer(1); ly < numLayers; ly++ {
		r.set("attr."+layerNames[ly]+"_frac", "ratio", acc.attr[ly]/wall)
	}
	tol := cfg.pins.LayerSumTolerance
	if d := sum/wall - 1; d > tol || d < -tol {
		r.fail("layer self times sum to %.4f of the traced wall time; tolerance ±%.3f", sum/wall, tol)
	}
	r.note("traced wall %.3fs, untraced %.3fs; layers account for %.4f of the traced wall", wall, uwall, sum/wall)
	for ly := layer(0); ly < numLayers; ly++ {
		if acc.attr[ly] > 0 || acc.self[ly] > 0 {
			r.note("layer %-20s attributed %8.4fs  self %8.4fs  busy %8.4fs", layerNames[ly], acc.attr[ly], acc.self[ly], acc.busy[ly])
		}
	}
	microbench(cfg, r, out)
}
