package main

// daemon-ckpt: beholderd's shape as a closed loop. One scheduler over
// the campaign-scale universe runs two tenants' campaigns on two
// workers, checkpointing every running campaign on a fixed wall cadence
// into a durable store; each tenant's client submits its next small
// campaign when the previous one ends, and persists the final store as
// beholderd does.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/sched"
	"beholder/internal/store"
	"beholder/internal/wire"
)

var daemonTenants = []string{"alice", "bob"}

const daemonWorkers = 2

// daemonGeneration is how many campaigns one scheduler runs before the
// loop rotates to a fresh one (see daemonLoop.run).
const daemonGeneration = 20

func daemonTag(tenant string, i int) string { return fmt.Sprintf("%s/c%03d", tenant, i) }

// daemonKey gives every campaign of a run its own permutation key.
func daemonKey(seed int64, tenant, i int) uint64 {
	return campaignKey(seed) + uint64(i*len(daemonTenants)+tenant) + 1
}

// daemonTargets is beholderd's default request shape: caida seeds, /64,
// lowbyte1 synthesis, at the workload's scale.
func daemonTargets(in *beholder.Internet, sz size) ([]netip.Addr, error) {
	return in.TargetSet("caida", 64, "lowbyte1", sz.dmScale)
}

func openStateStore(cfg config) (*store.Store, string, error) {
	dir, err := os.MkdirTemp(cfg.stateRoot, "daemon-state-")
	if err != nil {
		return nil, "", err
	}
	st, err := store.Open(store.Config{Dir: dir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return st, dir, nil
}

// campaignOut is one finished campaign as its client saw it.
type campaignOut struct {
	tag     string
	index   int
	latency time.Duration
	probes  int64
	ifaces  int
	digest  string
	stats   core.CampaignStats
	err     error
}

// daemonLoop is the client side shared by the facade and traced runs.
type daemonLoop struct {
	st     *store.Store
	dir    string
	submit func(tenant string, name string, key uint64, stream io.Writer) (*sched.Handle, error)
	// stream wraps a campaign's stream file; put writes a blob to the
	// store. The traced run times both.
	stream func(tag string, f *os.File) io.Writer
	put    func(tag, key, kind string, data []byte) error
}

// run drives one client per tenant until claim refuses the next
// campaign, and returns every campaign's outcome and the loop's wall
// time. Every perGen campaigns the clients meet and rotate starts a
// fresh scheduler: the supervisor keeps every finished campaign's
// result, store, graph and last core.Campaign for its status listing
// (about 40 MB each at full size), so one scheduler running the whole
// loop would hold gigabytes. Rotation bounds that to one generation,
// as a daemon restart on the same state directory would.
func (d *daemonLoop) run(seed int64, claim func(tenant, i int) bool, perGen int, rotate func() error) ([]campaignOut, time.Duration, error) {
	var outs []campaignOut
	next := make([]int, len(daemonTenants))
	t0 := time.Now()
	for {
		var mu sync.Mutex
		var wg sync.WaitGroup
		refused := false
		for ti, tenant := range daemonTenants {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < perGen/len(daemonTenants); n++ {
					if !claim(ti, next[ti]) {
						mu.Lock()
						refused = true
						mu.Unlock()
						return
					}
					o := d.one(seed, ti, tenant, next[ti])
					next[ti]++
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if refused {
			break
		}
		if err := rotate(); err != nil {
			return nil, 0, err
		}
	}
	wall := time.Since(t0)
	sort.Slice(outs, func(a, b int) bool { return outs[a].tag < outs[b].tag })
	return outs, wall, nil
}

func (d *daemonLoop) one(seed int64, ti int, tenant string, i int) campaignOut {
	name := fmt.Sprintf("c%03d", i)
	o := campaignOut{tag: daemonTag(tenant, i), index: i}
	key := tenant + "__" + name
	f, err := os.OpenFile(filepath.Join(d.dir, key+".stream.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		o.err = err
		return o
	}
	defer f.Close()
	t0 := time.Now()
	h, err := d.submit(tenant, name, daemonKey(seed, ti, i), d.stream(o.tag, f))
	if err != nil {
		o.err = err
		return o
	}
	<-h.Done()
	o.latency = time.Since(t0)
	res := h.Result()
	o.stats = res.Stats
	switch {
	case res.State != sched.StateCompleted:
		o.err = fmt.Errorf("ended %s (%s): %v", res.State, res.Reason, res.Err)
	case res.Retries > 0:
		o.err = fmt.Errorf("%d watchdog retries", res.Retries)
	case res.Stats.Retries > 0:
		o.err = fmt.Errorf("%d retried sends", res.Stats.Retries)
	case len(res.Stats.Quarantined) > 0 || len(res.Stats.Incomplete) > 0:
		o.err = fmt.Errorf("degraded: quarantined %v, incomplete %v", res.Stats.Quarantined, res.Stats.Incomplete)
	}
	if res.Store != nil {
		bin := res.Store.AppendBinary(nil)
		o.probes = res.Stats.ProbesSent
		o.ifaces = res.Store.NumInterfaces()
		dg := newDigest()
		dg.Write(bin)
		o.digest = dg.sum()
		if res.State == sched.StateCompleted {
			if err := d.put(o.tag, key, "store", bin); err != nil && o.err == nil {
				o.err = err
			}
		}
		if err := d.put(o.tag, key, "done", []byte(`{"state":"`+res.State.String()+`"}`)); err != nil && o.err == nil {
			o.err = err
		}
		_ = d.st.Delete(key, "ckpt") // not found when no periodic checkpoint ran
	}
	if err := f.Sync(); err != nil && o.err == nil {
		o.err = err
	}
	return o
}

// facadeDaemon is the untraced daemon: beholder.Internet.NewScheduler
// with a store-backed checkpoint sink, as beholderd wires it.
type facadeDaemon struct {
	in       *beholder.Internet
	v        *beholder.Vantage
	targets  []netip.Addr
	st       *store.Store
	dir      string
	sch      *beholder.Scheduler
	ckpt     time.Duration
	sinkErrs atomic.Int64
}

// daemonSetup builds the universe and target set, opens the store and
// starts the scheduler.
func daemonSetup(cfg config) (*facadeDaemon, error) {
	in := newInternet(cfg.sz)
	targets, err := daemonTargets(in, cfg.sz)
	if err != nil {
		return nil, err
	}
	st, dir, err := openStateStore(cfg)
	if err != nil {
		return nil, err
	}
	d := &facadeDaemon{in: in, v: in.NewVantage(vantageName), targets: targets, st: st, dir: dir, ckpt: cfg.sz.dmCkpt}
	if err := d.start(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// start starts a scheduler with a store-backed checkpoint sink.
func (d *facadeDaemon) start() error {
	var tenants []beholder.Tenant
	for _, t := range daemonTenants {
		tenants = append(tenants, beholder.Tenant{Name: t})
	}
	var err error
	d.sch, err = d.in.NewScheduler(beholder.SchedulerOptions{
		Tenants:         tenants,
		Workers:         daemonWorkers,
		CheckpointEvery: d.ckpt,
		CheckpointSink: func(tenant, name string, artifact []byte) error {
			err := d.st.Put(tenant+"__"+name, "ckpt", artifact)
			if err != nil {
				d.sinkErrs.Add(1)
			}
			return err
		},
		Telemetry: beholder.NewTelemetry(),
	})
	return err
}

// rotate drains the scheduler and starts a fresh one.
func (d *facadeDaemon) rotate() error {
	if err := d.drain(); err != nil {
		return err
	}
	return d.start()
}

func (d *facadeDaemon) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	left, err := d.sch.Drain(ctx)
	d.sch = nil
	if err == nil && len(left) > 0 {
		err = fmt.Errorf("drain left %d campaigns", len(left))
	}
	return err
}

func (d *facadeDaemon) loop() *daemonLoop {
	return &daemonLoop{
		st:  d.st,
		dir: d.dir,
		submit: func(tenant, name string, key uint64, stream io.Writer) (*sched.Handle, error) {
			return d.sch.Submit(d.v, d.targets, beholder.SubmitOptions{Tenant: tenant, Name: name, Key: key, Stream: stream})
		},
		stream: func(_ string, f *os.File) io.Writer { return f },
		put:    func(_ string, key, kind string, data []byte) error { return d.st.Put(key, kind, data) },
	}
}

// close drains the scheduler, closes the store and removes its
// directory.
func (d *facadeDaemon) close() error {
	var errs []error
	if d.sch != nil {
		errs = append(errs, d.drain())
	}
	errs = append(errs, d.st.Close(), os.RemoveAll(d.dir))
	return errors.Join(errs...)
}

// fixedClaim runs exactly each campaigns per tenant.
func fixedClaim(each int) func(tenant, i int) bool {
	return func(_, i int) bool { return i < each }
}

// judge counts failures and checks digests against pins (tag →
// digest) when pins is non-nil.
func judge(r *report, outs []campaignOut, pins map[string]string, sinkErrs int64) {
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			r.failed++
			r.note("campaign %s failed: %v", o.tag, o.err)
			continue
		}
		if pins == nil {
			continue
		}
		want, ok := pins[o.tag]
		switch {
		case !ok:
			r.fail("campaign %s has no pinned digest", o.tag)
		case want != o.digest:
			r.fail("campaign %s digest %s, pinned %s", o.tag, o.digest, want)
		}
	}
	if sinkErrs > 0 {
		r.attempted++
		r.failed++
		r.note("%d checkpoint sink errors", sinkErrs)
	}
}

func runDaemon(cfg config, r *report) error {
	sz := cfg.sz
	if cfg.trace {
		return traceDaemon(cfg, r)
	}
	var setups []float64
	var d *facadeDaemon
	for i := 0; i < sz.minReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
			d = nil
		}
		gcQuiesce()
		t0 := time.Now()
		var err error
		if d, err = daemonSetup(cfg); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.note("targets %d per campaign, setups %v s, state dir on %s", len(d.targets), setups, fsType(d.dir))

	perTenant := sz.dmMin / len(daemonTenants)
	var started atomic.Int64
	var deadline time.Time
	claim := func(_, i int) bool {
		if i < perTenant || (started.Load() < int64(sz.dmMax) && time.Now().Before(deadline)) {
			started.Add(1)
			return true
		}
		return false
	}
	gcQuiesce()
	a0 := heapAllocs()
	deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	outs, wall, err := d.loop().run(cfg.seed, claim, daemonGeneration, d.rotate)
	if err != nil {
		d.close()
		return err
	}
	allocs := heapAllocs() - a0
	rss := peakRSSMB()
	sinkErrs := d.sinkErrs.Load()
	if err := d.close(); err != nil {
		return err
	}

	var pinned map[string]string
	if sp, ok := cfg.pins.forSeed(cfg.seed); ok {
		pinned = sp.Daemon
	}
	judge(r, outs, pinned, sinkErrs)

	var probes, fixedProbes int64
	var fixedIfaces int
	var lat []float64
	completed := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		completed++
		probes += o.probes
		lat = append(lat, o.latency.Seconds())
		if o.index < perTenant {
			fixedProbes += o.probes
			fixedIfaces += o.ifaces
		}
	}
	if probes == 0 || fixedProbes == 0 {
		return fmt.Errorf("no campaign completed")
	}
	r.set("probes_per_s", "probes/s", float64(probes)/wall.Seconds())
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", rss)
	r.set("allocs_per_probe", "objects/probe", float64(allocs)/float64(probes))
	r.set("ifaces_per_kprobe", "ifaces/kprobe", float64(fixedIfaces)*1000/float64(fixedProbes))
	r.set("campaigns_per_s", "1/s", float64(completed)/wall.Seconds())
	r.set("campaign_p50_s", "s", median(lat))
	r.set("campaign_p90_s", "s", quantile(lat, 0.9))
	r.note("%d campaigns in %.2fs; latency samples %d, beyond p90 %d; ifaces_per_kprobe over the first %d per tenant",
		completed, wall.Seconds(), len(lat), len(lat)-int(0.9*float64(len(lat))+0.5), perTenant)

	if pinned != nil {
		return nil
	}
	// No pins for this seed: the traced run of the first campaigns must
	// reproduce the untraced digests.
	tr := newTracer()
	tout, err := daemonTraced(cfg, sz.dmCheckEach, tr)
	if err != nil {
		return err
	}
	byTag := map[string]string{}
	for _, o := range outs {
		byTag[o.tag] = o.digest
	}
	for _, o := range tout.outs {
		if o.err != nil {
			r.fail("traced campaign %s failed: %v", o.tag, o.err)
		} else if byTag[o.tag] != o.digest {
			r.fail("campaign %s untraced digest %s, traced %s", o.tag, byTag[o.tag], o.digest)
		}
	}
	r.note("no pin for seed %d: %d traced campaigns reproduce the untraced digests", cfg.seed, len(tout.outs))
	return nil
}

// daemonTrace is the outcome of the traced daemon run.
type daemonTrace struct {
	run        *tracedRun
	outs       []campaignOut
	puts       []float64 // checkpoint store.Put durations, ms
	ckptBytes  []float64
	queueWait  []float64 // submitted → first started, ms
	runTime    []float64 // first started → terminal, ms
	ckptEncode float64
	rewind     float64
	setup      setupTimes
}

// daemonTraced runs each campaigns per tenant through sched.New with
// the facade's opener logic, every layer wrapped.
func daemonTraced(cfg config, each int, tr *tracer) (*daemonTrace, error) {
	var st setupTimes
	t0 := time.Now()
	in := newInternet(cfg.sz)
	st.universe = time.Since(t0)
	sets := tracedTargetSets(in, cfg.sz.dmScale, []string{"caida"}, &st)
	targets := sets[0]
	ss, dir, err := openStateStore(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer ss.Close()
	root := in.NewVantage(vantageName).Conn().(*netsim.Vantage)

	out := &daemonTrace{}
	main := &lane{}
	var mu sync.Mutex
	lanes := map[string]*lane{}
	writers := map[string]*tsWriter{}
	var laneList []*lane
	var clones []*netsim.Vantage
	var fwd forwardCheck
	laneOf := func(tag string) *lane {
		mu.Lock()
		defer mu.Unlock()
		return lanes[tag]
	}
	timedPut := func(ln *lane, key, kind string, data []byte) error {
		t := tr.now()
		err := ss.Put(key, kind, data)
		ln.add(lStorePut, t, tr.now())
		return err
	}
	var sinkErrs atomic.Int64
	var tenants []sched.Tenant
	for _, t := range daemonTenants {
		tenants = append(tenants, sched.Tenant{Name: t})
	}
	newSup := func() (*sched.Supervisor, error) {
		return sched.New(sched.Config{
			Opener: func(spec *sched.CampaignSpec) (core.ConnFactory, error) {
				ln := laneOf(spec.Tag())
				mu.Lock()
				defer mu.Unlock()
				root.BeginShardGroup()
				p := root.Clone(0)
				p.SetCampaign(spec.Tag())
				p.BeginShardGroup()
				return func(_ int, start time.Duration) probe.Conn {
					mu.Lock()
					defer mu.Unlock()
					c := p.Clone(start)
					clones = append(clones, c)
					tc := newTracedConn(c, tr, ln)
					fwd.check(c, tc)
					return tc
				}, nil
			},
			Tenants:         tenants,
			Workers:         daemonWorkers,
			CheckpointEvery: cfg.sz.dmCkpt,
			CheckpointSink: func(spec *sched.CampaignSpec, artifact []byte) error {
				t := tr.now()
				err := timedPut(laneOf(spec.Tag()), spec.Tenant+"__"+spec.Name, "ckpt", artifact)
				if err != nil {
					sinkErrs.Add(1)
				}
				mu.Lock()
				out.puts = append(out.puts, float64(tr.now()-t)/1e6)
				out.ckptBytes = append(out.ckptBytes, float64(len(artifact)))
				mu.Unlock()
				return err
			},
			Telemetry: beholder.NewTelemetry(),
		})
	}
	drain := func(sup *sched.Supervisor) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_, err := sup.Drain(ctx)
		return err
	}
	sup, err := newSup()
	if err != nil {
		return nil, err
	}
	rotate := func() error {
		if err := drain(sup); err != nil {
			return err
		}
		sup, err = newSup()
		return err
	}
	loop := &daemonLoop{
		st:  ss,
		dir: dir,
		submit: func(tenant, name string, key uint64, stream io.Writer) (*sched.Handle, error) {
			return sup.Submit(sched.CampaignSpec{
				Tenant: tenant, Name: name, Vantage: root.Name(),
				Targets: targets, Proto: wire.ProtoICMPv6, Key: key, Stream: stream,
			})
		},
		stream: func(tag string, f *os.File) io.Writer {
			w := &tsWriter{w: f, tr: tr}
			ln := &lane{}
			if tag == daemonTag(daemonTenants[0], 0) {
				ln.capture = make([][]byte, 0, cfg.sz.capture)
			}
			mu.Lock()
			lanes[tag] = ln
			writers[tag] = w
			laneList = append(laneList, ln)
			mu.Unlock()
			return w
		},
		put: func(tag, key, kind string, data []byte) error { return timedPut(laneOf(tag), key, kind, data) },
	}
	rs := startRuntimeSampler()
	l0 := tr.now()
	outs, _, err := loop.run(cfg.seed, fixedClaim(each), daemonGeneration, rotate)
	l1 := tr.now()
	gcFrac, heap := rs.finish()
	if err != nil {
		return nil, err
	}
	if err := drain(sup); err != nil {
		return nil, err
	}
	if fwd.err != nil {
		return nil, fwd.err
	}
	out.outs = outs
	if n := sinkErrs.Load(); n > 0 {
		return nil, fmt.Errorf("%d checkpoint sink errors", n)
	}

	// Supervisor spans from the lifecycle events each stream saw.
	for tag, w := range writers {
		var submitted, started, terminal int64 = -1, -1, -1
		for _, ev := range w.snapshot() {
			switch ev.event {
			case "submitted":
				submitted = ev.at
			case "started":
				if started < 0 {
					started = ev.at
				}
			case "completed", "incomplete", "drained":
				terminal = ev.at
			}
		}
		if submitted >= 0 && started >= submitted {
			out.queueWait = append(out.queueWait, float64(started-submitted)/1e6)
		}
		if started >= 0 && terminal >= started {
			out.runTime = append(out.runTime, float64(terminal-started)/1e6)
			lanes[tag].add(lSchedRun, started, terminal)
		}
	}

	var probes int64
	var ifaces int
	dg := newDigest()
	for _, o := range outs {
		probes += o.probes
		ifaces += o.ifaces
		dg.Write([]byte(o.tag + "=" + o.digest + "\n"))
	}
	run := &tracedRun{
		digest: dg.sum(),
		acc:    account(main, laneList, l0, l1),
		shards: laneList,
		probes: probes,
		ifaces: ifaces,
		wall:   time.Duration(l1 - l0),
		heapMB: heap,
		gcFrac: gcFrac,
		plan:   planStats(clones),
		conn:   root.Clone(0),
		cfg:    core.Config{Targets: targets, Proto: wire.ProtoICMPv6, Key: daemonKey(cfg.seed, 0, 0)},
	}
	// Put the capture lane first for the microbenchmarks.
	for i, l := range run.shards {
		if l.capture != nil {
			run.shards[0], run.shards[i] = run.shards[i], run.shards[0]
			break
		}
	}
	out.run = run

	// Checkpoint encode and in-process rewind on the workload's campaign
	// shape, interrupted halfway through its virtual schedule.
	var elapsed time.Duration
	for _, o := range outs {
		if o.err == nil {
			elapsed = o.stats.Elapsed
			break
		}
	}
	if elapsed > 0 {
		out.ckptEncode, out.rewind, err = ckptBench(root, targets, daemonKey(cfg.seed, 0, 0), elapsed/2)
		if err != nil {
			return nil, err
		}
	}
	out.setup = st
	return out, nil
}

// ckptBench times Campaign.Checkpoint and Campaign.Rewind on a campaign
// of the daemon's shape interrupted at the given virtual instant, and
// returns the medians in ms.
func ckptBench(root *netsim.Vantage, targets []netip.Addr, key uint64, at time.Duration) (encodeMs, rewindMs float64, err error) {
	var enc, rw []float64
	for k := 0; k < 5; k++ {
		root.BeginShardGroup()
		p := root.Clone(0)
		p.BeginShardGroup()
		factory := func(_ int, start time.Duration) probe.Conn { return p.Clone(start) }
		camp := core.NewCampaign(core.CampaignConfig{
			Config:      core.Config{Targets: targets, Proto: wire.ProtoICMPv6, Key: key},
			Shards:      1,
			RecordPaths: true,
			InterruptAt: at,
			DeferMerge:  true,
		}, factory)
		if _, _, err := camp.Run(); !errors.Is(err, core.ErrInterrupted) {
			return 0, 0, fmt.Errorf("checkpoint bench: run ended with %v, want an interrupt", err)
		}
		t0 := time.Now()
		if _, err := camp.Checkpoint(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := camp.Rewind(core.ResumeConfig{}, factory); err != nil {
			return 0, 0, err
		}
		enc = append(enc, float64(t1.Sub(t0))/1e6)
		rw = append(rw, float64(time.Since(t1))/1e6)
	}
	return median(enc), median(rw), nil
}

func traceDaemon(cfg config, r *report) error {
	sz := cfg.sz
	var pinned map[string]string
	if sp, ok := cfg.pins.forSeed(cfg.seed); ok {
		pinned = sp.Daemon
	}
	// Untraced reference: the same campaigns through the facade.
	untraced := func() (repResult, error) {
		d, err := daemonSetup(cfg)
		if err != nil {
			return repResult{}, err
		}
		outs, wall, err := d.loop().run(cfg.seed, fixedClaim(sz.dmTraceEach), daemonGeneration, d.rotate)
		if err != nil {
			d.close()
			return repResult{}, err
		}
		sinkErrs := d.sinkErrs.Load()
		if err := d.close(); err != nil {
			return repResult{}, err
		}
		judge(r, outs, pinned, sinkErrs)
		dg := newDigest()
		for _, o := range outs {
			dg.Write([]byte(o.tag + "=" + o.digest + "\n"))
		}
		return repResult{wall: wall, digest: dg.sum()}, nil
	}
	before, err := untraced()
	if err != nil {
		return err
	}
	out, err := daemonTraced(cfg, sz.dmTraceEach, newTracer())
	if err != nil {
		return err
	}
	judge(r, out.outs, pinned, 0)
	out.setup.report(r)
	after, err := untraced()
	if err != nil {
		return err
	}

	reportTraced(cfg, r, out.run, []repResult{before, after})
	r.set("core.ckpt_encode_ms", "ms", out.ckptEncode)
	r.set("core.rewind_ms", "ms", out.rewind)
	r.set("store.put_ms_p50", "ms", median(out.puts))
	r.set("store.put_ms_p90", "ms", quantile(out.puts, 0.9))
	r.set("store.bytes_per_ckpt", "bytes", median(out.ckptBytes))
	r.set("sched.ckpts_per_campaign", "count", float64(len(out.puts))/float64(len(out.outs)))
	r.set("sched.queue_wait_ms", "ms", median(out.queueWait))
	r.set("sched.run_ms", "ms", median(out.runTime))
	r.note("%d traced campaigns, %d periodic checkpoints", len(out.outs), len(out.puts))
	return nil
}
