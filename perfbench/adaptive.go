package main

// adaptive-gen: closed-loop probabilistic target generation seeded
// from the dnsdb list, with boundary alias detection between epochs.

import (
	"math/rand"
	"net/netip"
	"time"

	"beholder"
	"beholder/internal/alias"
	"beholder/internal/core"
	"beholder/internal/gen6prob"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/wire"
)

func adaptiveOptions(seed int64, sz size) beholder.YarrpOptions {
	return beholder.YarrpOptions{
		Rate: campaignPPS, MaxTTL: campaignTTL, Shards: 1, Key: campaignKey(seed),
		Adaptive: &beholder.AdaptiveOptions{
			Budget:       sz.adBudget,
			EpochTargets: sz.adEpochTargets,
			MaxEpochs:    sz.adMaxEpochs,
		},
	}
}

func adaptiveSetup(sz size) []netip.Addr {
	in := newInternet(sz)
	return in.SeedLists(sz.adSeedScale)["dnsdb"].Addrs.Addrs()
}

func runAdaptive(cfg config, r *report) error {
	if cfg.trace {
		return traceAdaptive(cfg, r)
	}
	reps, setups, seedAddrs, err := measureReps(cfg, r,
		func() ([]netip.Addr, error) { return adaptiveSetup(cfg.sz), nil },
		func(seeds []netip.Addr) (repResult, error) { return adaptiveRep(cfg, seeds) })
	if err != nil {
		return err
	}
	r.note("seeds %d", len(seedAddrs))
	reportReps(r, reps, setups)
	want := ""
	if sp, ok := cfg.pins.forSeed(cfg.seed); ok {
		want = sp.Adaptive
	}
	return checkDigest(cfg, r, reps[0].digest, want, func() (string, error) {
		out, _, err := adaptiveTraced(cfg, seedAddrs, newTracer())
		if err != nil {
			return "", err
		}
		return out.digest, nil
	})
}

func adaptiveRep(cfg config, seedAddrs []netip.Addr) (repResult, error) {
	in := newInternet(cfg.sz)
	v := in.NewVantage(vantageName)
	gcQuiesce()
	a0 := heapAllocs()
	t0 := time.Now()
	res, err := v.RunYarrp6(seedAddrs, adaptiveOptions(cfg.seed, cfg.sz))
	wall := time.Since(t0)
	allocs := heapAllocs() - a0
	rss := peakRSSMB()
	if err != nil {
		return repResult{}, err
	}
	return repResult{
		wall: wall, probes: res.ProbesSent, allocs: allocs, ifaces: res.NumInterfaces(),
		digest: resultDigest(res.Store(), nil, in), rss: rss,
	}, nil
}

// adaptiveTraced runs the facade's adaptive path — core.NewAdaptive
// over a gen6prob source, with the facade's clone factory and boundary
// alias hook — through the wrappers.
func adaptiveTraced(cfg config, seedAddrs []netip.Addr, tr *tracer) (*tracedRun, core.AdaptiveStats, error) {
	in := newInternet(cfg.sz)
	nv := in.NewVantage(vantageName).Conn().(*netsim.Vantage)
	opt := adaptiveOptions(cfg.seed, cfg.sz)
	main := &lane{}
	shard := &lane{}
	shard.capture = make([][]byte, 0, cfg.sz.capture)
	var fwd forwardCheck
	// The facade's adaptiveAliasHook with AliasMinHits 0 (one hit).
	detect := func(epoch int, store *probe.Store) []netip.Prefix {
		t := tr.now()
		defer func() { main.add(lAliasDetect, t, tr.now()) }()
		cands := gen6prob.AliasCandidates(store, 1)
		if len(cands) == 0 {
			return nil
		}
		dv := nv.Clone(0)
		dv.SetPlanCache(0)
		det := alias.NewDetector(dv, alias.DefaultParams())
		rng := rand.New(rand.NewSource(universeSeed ^ int64(epoch+1)*0xa11a5))
		return det.Detect(cands, rng).Aliased.Prefixes()
	}
	acfg := core.AdaptiveConfig{
		CampaignConfig: core.CampaignConfig{
			Config: core.Config{
				PPS:    opt.Rate,
				MaxTTL: uint8(opt.MaxTTL),
				Proto:  wire.ProtoICMPv6,
				Key:    opt.Key,
			},
			Shards:      1,
			RecordPaths: true,
		},
		Budget:        opt.Adaptive.Budget,
		EpochTargets:  opt.Adaptive.EpochTargets,
		MaxEpochs:     opt.Adaptive.MaxEpochs,
		DetectAliases: detect,
	}
	var opened []int64 // when each epoch's conn factory ran
	var clones []*netsim.Vantage
	rs := startRuntimeSampler()
	t0 := tr.now()
	// The facade builds the generator inside RunYarrp6, so building it
	// is part of the probing phase.
	src := &tracedSource{s: gen6prob.New(seedAddrs, gen6prob.Config{Key: opt.Key}), tr: tr, ln: main}
	main.add(lGenBuild, t0, tr.now())
	fwd.check(src.s, src)
	acfg.Source = src
	epoch := nv.Now()
	nv.BeginShardGroup()
	camp := core.NewAdaptive(acfg, func(_ int, start time.Duration) probe.Conn {
		at := tr.now()
		c := nv.Clone(epoch + start)
		clones = append(clones, c)
		tc := newTracedConn(c, tr, shard)
		fwd.check(c, tc)
		opened = append(opened, at)
		return tc
	})
	r0 := tr.now()
	store, astats, err := camp.Run()
	t1 := tr.now()
	gcFrac, heap := rs.finish()
	if err != nil {
		return nil, astats, err
	}
	if fwd.err != nil {
		return nil, astats, fwd.err
	}
	main.add(lCoreRun, r0, t1)
	// Epoch set-up: from the epoch's conn factory call to its first
	// send, which opens the shard span on the shard lane.
	shardStarts := make([]int64, 0, len(opened))
	for _, sp := range shard.spans {
		if sp.layer == lCoreShard {
			shardStarts = append(shardStarts, sp.start)
		}
	}
	for i, at := range opened {
		if i < len(shardStarts) && shardStarts[i] >= at {
			main.add(lCoreEpochSetup, at, shardStarts[i])
		}
	}
	out := &tracedRun{
		digest: resultDigest(store, nil, in),
		acc:    account(main, []*lane{shard}, t0, t1),
		shards: []*lane{shard},
		probes: astats.ProbesSent,
		ifaces: store.NumInterfaces(),
		wall:   time.Duration(t1 - t0),
		heapMB: heap,
		gcFrac: gcFrac,
		plan:   planStats(clones),
		conn:   nv.Clone(0),
		cfg:    acfg.Config,
	}
	out.cfg.Targets = src.last
	return out, astats, nil
}

func traceAdaptive(cfg config, r *report) error {
	var st setupTimes
	t0 := time.Now()
	in := newInternet(cfg.sz)
	st.universe = time.Since(t0)
	t1 := time.Now()
	lists := in.SeedLists(cfg.sz.adSeedScale)
	st.seedLists = time.Since(t1)
	seedAddrs := lists["dnsdb"].Addrs.Addrs()
	st.report(r)

	untraced, err := adaptiveRep(cfg, seedAddrs)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	out, astats, err := adaptiveTraced(cfg, seedAddrs, newTracer())
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	after, err := adaptiveRep(cfg, seedAddrs)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	reportTraced(cfg, r, out, []repResult{untraced, after})
	epochs := float64(len(astats.Epochs))
	var targets int
	for _, e := range astats.Epochs {
		targets += e.Targets
	}
	if epochs > 0 {
		r.set("gen6prob.next_epoch_ms", "ms", out.acc.busy[lGenNext]*1e3/epochs)
		r.set("gen6prob.build_ms", "ms", out.acc.busy[lGenBuild]*1e3)
		r.set("alias.detect_ms", "ms", out.acc.busy[lAliasDetect]*1e3/epochs)
		r.set("core.epoch_setup_ms", "ms", out.acc.busy[lCoreEpochSetup]*1e3/epochs)
	}
	if targets > 0 {
		r.set("gen6prob.new_ifaces_per_target", "ifaces/target", float64(out.ifaces)/float64(targets))
	}
	r.note("%d epochs, %d generated targets, %d interfaces", len(astats.Epochs), targets, out.ifaces)
	return nil
}
