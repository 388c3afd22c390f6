package main

// hitlist-sharded: one Internet-wide Yarrp6 campaign over a hitlist —
// the union of the tum and 6gen target sets on the campaign-scale
// universe, probed by two shards with streaming graph construction.

import (
	"net/netip"
	"time"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

var hitlistLists = []string{"tum", "6gen"}

// hitlistShards is the campaign's shard count: one per CPU of the
// two-CPU hosts the benchmark was sized on.
const hitlistShards = 2

// unionTargets appends the addresses of each set not seen before, in
// order.
func unionTargets(sets ...[]netip.Addr) []netip.Addr {
	seen := make(map[netip.Addr]struct{})
	var out []netip.Addr
	for _, s := range sets {
		for _, a := range s {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	return out
}

// hitlistSetup is the facade set-up: universe, seed lists and target
// sets through Internet.TargetSet.
func hitlistSetup(sz size) ([]netip.Addr, error) {
	in := newInternet(sz)
	var sets [][]netip.Addr
	for _, name := range hitlistLists {
		ts, err := in.TargetSet(name, 64, "lowbyte1", sz.hitScale)
		if err != nil {
			return nil, err
		}
		sets = append(sets, ts)
	}
	return unionTargets(sets...), nil
}

func hitlistOptions(seed int64) beholder.YarrpOptions {
	return beholder.YarrpOptions{Rate: campaignPPS, MaxTTL: campaignTTL, Shards: hitlistShards, Graph: true, Key: campaignKey(seed)}
}

func runHitlist(cfg config, r *report) error {
	if cfg.trace {
		return traceHitlist(cfg, r)
	}
	reps, setups, targets, err := measureReps(cfg, r,
		func() ([]netip.Addr, error) { return hitlistSetup(cfg.sz) },
		func(targets []netip.Addr) (repResult, error) { return hitlistRep(cfg, targets) })
	if err != nil {
		return err
	}
	r.note("targets %d", len(targets))
	reportReps(r, reps, setups)
	want := ""
	if sp, ok := cfg.pins.forSeed(cfg.seed); ok {
		want = sp.Hitlist
	}
	return checkDigest(cfg, r, reps[0].digest, want, func() (string, error) {
		out, err := hitlistTraced(cfg, targets, newTracer())
		if err != nil {
			return "", err
		}
		return out.digest, nil
	})
}

func hitlistRep(cfg config, targets []netip.Addr) (repResult, error) {
	in := newInternet(cfg.sz)
	v := in.NewVantage(vantageName)
	gcQuiesce()
	a0 := heapAllocs()
	t0 := time.Now()
	res, err := v.RunYarrp6(targets, hitlistOptions(cfg.seed))
	wall := time.Since(t0)
	allocs := heapAllocs() - a0
	rss := peakRSSMB()
	if err != nil {
		return repResult{}, err
	}
	if err := campaignFailure(res.Quarantined, res.Incomplete, res.ShardStats); err != nil {
		return repResult{}, err
	}
	return repResult{
		wall: wall, probes: res.ProbesSent, allocs: allocs, ifaces: res.NumInterfaces(),
		digest: resultDigest(res.Store(), res.Graph(), in), rss: rss,
	}, nil
}

// hitlistTraced runs the campaign through core.NewCampaign with the
// facade's sharded conn factory and graph observers, wrapped.
func hitlistTraced(cfg config, targets []netip.Addr, tr *tracer) (*tracedRun, error) {
	in := newInternet(cfg.sz)
	nv := in.NewVantage(vantageName).Conn().(*netsim.Vantage)
	opt := hitlistOptions(cfg.seed)
	main := &lane{}
	shards := make([]*lane, opt.Shards)
	for i := range shards {
		shards[i] = &lane{}
	}
	shards[0].capture = make([][]byte, 0, cfg.sz.capture)
	laneOf := func(s int) *lane {
		for s >= len(shards) {
			shards = append(shards, &lane{})
		}
		return shards[s]
	}
	var fwd forwardCheck
	graphs := make([]*graph.Graph, opt.Shards)
	ccfg := core.CampaignConfig{
		Config: core.Config{
			Targets: targets,
			PPS:     opt.Rate,
			MaxTTL:  uint8(opt.MaxTTL),
			Proto:   wire.ProtoICMPv6,
			Key:     opt.Key,
		},
		Shards:      opt.Shards,
		RecordPaths: true,
		NewObserver: func(s int) probe.Observer {
			graphs[s] = graph.New(nv.Name())
			o := &tracedObserver{g: graphs[s], tr: tr, ln: laneOf(s)}
			fwd.check(graphs[s], o)
			return o
		},
	}
	var clones []*netsim.Vantage
	rs := startRuntimeSampler()
	t0 := tr.now()
	epoch := nv.Now()
	nv.BeginShardGroup()
	camp := core.NewCampaign(ccfg, func(s int, start time.Duration) probe.Conn {
		c := nv.Clone(epoch + start)
		clones = append(clones, c)
		tc := newTracedConn(c, tr, laneOf(s))
		fwd.check(c, tc)
		return tc
	})
	r0 := tr.now()
	store, stats, err := camp.Run()
	r1 := tr.now()
	var g *graph.Graph
	if err == nil {
		g = graph.Union(graphs...)
	}
	t1 := tr.now()
	gcFrac, heap := rs.finish()
	if err != nil {
		return nil, err
	}
	if fwd.err != nil {
		return nil, fwd.err
	}
	if err := campaignFailure(stats.Quarantined, stats.Incomplete, stats.PerShard); err != nil {
		return nil, err
	}
	main.add(lCoreRun, r0, r1)
	var lastFlush int64
	for _, l := range shards {
		lastFlush = max(lastFlush, l.lastFlush)
	}
	main.add(lCoreMerge, lastFlush, r1)
	main.add(lGraphUnion, r1, t1)
	out := &tracedRun{
		digest: resultDigest(store, g, in),
		acc:    account(main, shards, t0, t1),
		shards: shards,
		probes: stats.ProbesSent,
		ifaces: store.NumInterfaces(),
		wall:   time.Duration(t1 - t0),
		heapMB: heap,
		gcFrac: gcFrac,
		plan:   planStats(clones),
		conn:   nv.Clone(0),
		cfg:    ccfg.Config,
	}
	return out, nil
}

// traceHitlist is the --trace 1 run: a traced set-up, one untraced and
// one traced campaign, and the microbenchmarks on captured inputs.
func traceHitlist(cfg config, r *report) error {
	var st setupTimes
	t0 := time.Now()
	in := newInternet(cfg.sz)
	st.universe = time.Since(t0)
	targets := unionTargets(tracedTargetSets(in, cfg.sz.hitScale, hitlistLists, &st)...)
	st.report(r)
	facadeTargets, err := hitlistSetup(cfg.sz)
	if err != nil {
		return err
	}
	if addrsDigest(facadeTargets) != addrsDigest(targets) {
		r.fail("traced set-up built different targets from Internet.TargetSet")
	}

	untraced, err := hitlistRep(cfg, targets)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	tr := newTracer()
	out, err := hitlistTraced(cfg, targets, tr)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	after, err := hitlistRep(cfg, targets)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	reportTraced(cfg, r, out, []repResult{untraced, after})
	return nil
}
