// Package beholder is a reproduction of "In the IP of the Beholder:
// Strategies for Active IPv6 Topology Discovery" (Beverly, Durairajan,
// Plonka, Rohrer — IMC 2018) as a reusable Go library.
//
// It provides Yarrp6 — the paper's stateless randomized high-speed IPv6
// topology prober — together with every substrate the study needs: a
// packet-level simulated IPv6 internetwork with RFC 4443 ICMPv6 rate
// limiting (standing in for the live Internet and a native vantage
// point), the seven seed-list sources and the three-step target
// generation pipeline, the sequential and Doubletree baseline probers,
// and the Section 6 subnet-inference algorithms.
//
// The top-level API wraps those pieces for application use; the
// Experiments type regenerates every table and figure in the paper's
// evaluation. See README.md for a tour and DESIGN.md for the system
// inventory.
package beholder

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"beholder/internal/alias"
	"beholder/internal/core"
	"beholder/internal/faultsim"
	"beholder/internal/gen6prob"
	"beholder/internal/graph"
	"beholder/internal/ipv6"
	"beholder/internal/netsim"
	"beholder/internal/probe"
	"beholder/internal/seeds"
	"beholder/internal/subnet"
	"beholder/internal/target"
	"beholder/internal/telemetry"
	"beholder/internal/trace"
	"beholder/internal/wire"
)

// Internet is a deterministic simulated IPv6 internetwork: the study's
// measurement substrate. All campaigns run against it in virtual time,
// so a day-long probing campaign completes in seconds while exhibiting
// the same rate-limiting dynamics.
type Internet struct {
	u    *netsim.Universe
	seed int64
}

// NewInternet creates a campaign-scale internetwork (about 1200
// autonomous systems).
func NewInternet(seed int64) *Internet {
	return &Internet{u: netsim.NewUniverse(netsim.DefaultConfig(seed)), seed: seed}
}

// NewSmallInternet creates a small internetwork suitable for tests and
// quick demonstrations (about 120 autonomous systems).
func NewSmallInternet(seed int64) *Internet {
	return &Internet{u: netsim.NewUniverse(netsim.TestConfig(seed)), seed: seed}
}

// NumASes returns the autonomous system count.
func (in *Internet) NumASes() int { return len(in.u.ASes()) }

// NumPrefixes returns the advertised BGP prefix count.
func (in *Internet) NumPrefixes() int { return in.u.Table().NumPrefixes() }

// Reset restores pristine router state (token buckets, clock) while
// keeping the topology, as between the paper's trial days.
func (in *Internet) Reset() { in.u.ResetState() }

// Universe exposes the underlying simulator for advanced use.
func (in *Internet) Universe() *netsim.Universe { return in.u }

// FaultConfig is the deterministic fault-injection plane configuration:
// a seed keying every fault draw plus the rules to inject. See
// internal/faultsim for the failure-mode catalogue.
type FaultConfig = faultsim.Config

// FaultRule injects one fault class at one vantage (or one shard clone
// of it).
type FaultRule = faultsim.Rule

// FaultKind enumerates the injectable fault classes.
type FaultKind = faultsim.Kind

// Injectable fault classes, re-exported for rule construction.
const (
	FaultCrash         = faultsim.KindCrash
	FaultStall         = faultsim.KindStall
	FaultTransientSend = faultsim.KindTransientSend
	FaultTruncateReply = faultsim.KindTruncateReply
	FaultCorruptReply  = faultsim.KindCorruptReply
	FaultDelayBurst    = faultsim.KindDelayBurst
)

// FaultAnyShard in FaultRule.Shard matches every shard clone of the
// rule's vantage.
const FaultAnyShard = faultsim.MatchAnyShard

// SetFaults installs (or, with nil, clears) the fault-injection plane.
// Faults are resolved when a vantage is created, so call this before
// NewVantage for the vantages the rules should afflict. Fault draws are
// keyed on absolute virtual time: a faulted campaign is exactly as
// reproducible as a clean one, and checkpoint/resume commutes with the
// fault schedule.
func (in *Internet) SetFaults(fc *FaultConfig) { in.u.SetFaults(fc) }

// SeedLists generates every seed source at the given scale (1.0 is
// campaign scale). The result maps the paper's list names (caida,
// fiebig, fdns_any, dnsdb, cdn-k32, cdn-k256, 6gen, tum, random) to
// their contents.
func (in *Internet) SeedLists(scale float64) map[string]seeds.List {
	lists, _ := seeds.All(in.u, in.seed, seeds.Scale(scale))
	return lists
}

// TargetSet runs the three-step target generation pipeline for one seed
// source: seeds → zn prefix transformation → IID synthesis. synth is one
// of "lowbyte1", "fixediid", "randomiid", "known"; scale must be finite
// and positive. Only the named seed list is generated, with the contents
// SeedLists would give it.
func (in *Internet) TargetSet(seedName string, zn int, synth string, scale float64) ([]netip.Addr, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("beholder: seed scale %v must be finite and positive", scale)
	}
	var method target.Synth
	switch synth {
	case "lowbyte1":
		method = target.LowByte1
	case "fixediid":
		method = target.FixedIID
	case "randomiid":
		method = target.RandomIID
	case "known":
		method = target.Known
	default:
		return nil, fmt.Errorf("beholder: unknown synthesis %q", synth)
	}
	list, ok := seeds.Generate(in.u, in.seed, seeds.Scale(scale), seedName)
	if !ok {
		return nil, fmt.Errorf("beholder: unknown seed list %q", seedName)
	}
	rng := rand.New(rand.NewSource(in.seed))
	set := target.Build(list, target.Spec{SeedName: seedName, ZN: zn, Synth: method}, rng)
	return set.Targets.Addrs(), nil
}

// GroundTruthSubnets exports the simulator's true subnet plan for up to
// limit subnets per AS with prefix length at most maxBits — the
// validation data Section 6 could only approximate on the real Internet.
func (in *Internet) GroundTruthSubnets(maxBits, perASLimit int) []netip.Prefix {
	var out []netip.Prefix
	for _, as := range in.u.ASes() {
		if as.Tier != 3 {
			continue
		}
		out = append(out, in.u.TruthSubnets(as, maxBits, perASLimit)...)
	}
	return out
}

// Vantage is a measurement host inside the internetwork.
type Vantage struct {
	in *Internet
	v  *netsim.Vantage

	// clk tracks this vantage's own campaign timeline. Vantages created
	// on one universe share the underlying simulator clock (the
	// single-prober regime); a sharded campaign's shard clones get
	// private clocks opened relative to the campaign epoch, and that
	// epoch must not depend on what OTHER vantages concurrently did to
	// the shared clock — per-packet draws are keyed on absolute virtual
	// send time, so a racing epoch read would make results depend on
	// goroutine scheduling. For a lone vantage, clk equals the shared
	// clock at every point the old Now()-read did, so behaviour is
	// unchanged; for concurrent vantages it pins each family's schedule
	// deterministically.
	clk time.Duration
}

// NewVantage attaches a vantage by name. Names map deterministically to
// host networks; the same name always lands in the same AS.
func (in *Internet) NewVantage(name string) *Vantage {
	return in.NewVantageAt(name, "university", 4)
}

// NewVantageAt attaches a vantage to an AS of the given kind
// ("university", "hosting", "eyeball", "enterprise", "transit") with the
// given on-premise access path length.
func (in *Internet) NewVantageAt(name, kind string, chainLen int) *Vantage {
	var k netsim.ASKind
	switch kind {
	case "university":
		k = netsim.KindUniversity
	case "hosting":
		k = netsim.KindHosting
	case "eyeball":
		k = netsim.KindEyeballISP
	case "enterprise":
		k = netsim.KindEnterprise
	default:
		k = netsim.KindTransit
	}
	nv := in.u.NewVantage(netsim.VantageSpec{Name: name, Kind: k, ChainLen: chainLen})
	return &Vantage{in: in, v: nv, clk: nv.Now()}
}

// Addr returns the vantage's probing source address.
func (v *Vantage) Addr() netip.Addr { return v.v.LocalAddr() }

// Conn exposes the vantage as a probe connection for direct prober use.
func (v *Vantage) Conn() probe.Conn { return v.v }

// SetPlanCache resizes this vantage's flow-plan cache (entries <= 0
// disables it). The cache memoizes the simulator's per-flow path plans —
// pure functions of the universe seed and flow identity — so results are
// byte-identical at any setting; the knob trades memory for probing
// speed. See DESIGN.md "The packet fast path".
func (v *Vantage) SetPlanCache(entries int) { v.v.SetPlanCache(entries) }

// PlanCacheStats returns the vantage's flow-plan cache hit/miss counters.
func (v *Vantage) PlanCacheStats() (hits, misses int64) {
	return v.v.Stats.PlanHits, v.v.Stats.PlanMisses
}

// PlanCacheEvictions returns how many plan-cache misses displaced a
// different flow's entry from its direct-mapped slot — the conflict-miss
// share of the miss counter.
func (v *Vantage) PlanCacheEvictions() int64 { return v.v.Stats.PlanEvictions }

// TelemetryRegistry aggregates campaign metrics: counters, gauges, and
// fixed-bucket histograms. One registry may span several runs (and
// several concurrent shards — each holds a private delta buffer that
// folds in at sampling cadence, keeping the probe fast path free of
// shared-memory traffic). Pass it in YarrpOptions, AliasOptions, or the
// trace options to collect; read back via Snapshot/Delta or serve it
// with ServeTelemetry.
type TelemetryRegistry = telemetry.Registry

// TelemetrySnapshot is a point-in-time, name-sorted view of a
// TelemetryRegistry.
type TelemetrySnapshot = telemetry.Snapshot

// ProgressPoint is one sample of a campaign's live progress series:
// campaign-relative virtual timestamp plus cumulative counters. The
// series is deterministic — byte-identical at any shard count and batch
// size.
type ProgressPoint = telemetry.Point

// NewTelemetry creates an empty metrics registry.
func NewTelemetry() *TelemetryRegistry { return telemetry.NewRegistry() }

// ServeTelemetry starts an HTTP observability endpoint on addr (use
// ":0" for an ephemeral port) serving /metrics (Prometheus text),
// /debug/vars (expvar), and /debug/pprof/. It returns the bound
// address. The server runs until process exit.
func ServeTelemetry(addr string, reg *TelemetryRegistry) (string, error) {
	a, err := telemetry.Serve(addr, reg)
	if err != nil {
		return "", err
	}
	return a.String(), nil
}

// YarrpOptions parameterizes a Yarrp6 campaign through the facade.
type YarrpOptions struct {
	Rate      float64 // packets per second (default 1000)
	MaxTTL    int     // default 16
	Transport string  // "icmp6" (default), "udp", "tcp"
	Fill      bool    // enable fill mode
	Key       uint64  // permutation key
	// Shards splits the permutation domain across this many concurrent
	// Yarrp6 instances (distinct Instance bytes, same key), each on its
	// own cloned vantage connection. The shards replay the exact
	// single-prober virtual schedule in parallel wall time: results are
	// deterministic at any shard count and byte-identical to a 1-shard
	// run — each shard clone opens with its router token buckets
	// advanced through the serial schedule preceding its window, so
	// even rate-limit-saturated regimes shard exactly (see
	// core.Campaign; fill mode retains a narrow saturation caveat
	// because fill probes are reply-dependent). Result.Curve is the
	// global discovery curve interleaved from the shard windows by
	// virtual time; the per-window curves remain in Result.ShardStats.
	// Default 1.
	Shards int
	// Batch is the probe-pipeline send-batch size: permutation draw,
	// probe build, and simulator routing are dispatched Batch probes at
	// a time. Batching never changes the virtual schedule — results are
	// byte-identical at any value. Zero selects the engine default
	// (core.DefaultBatch); one disables batching.
	Batch int
	// Graph builds the interface-level topology graph from the merged
	// trace store when the campaign finishes, so the returned Result
	// already holds it. Without it, Result.Graph() builds the same graph
	// on first call. Adaptive and resumed runs always build lazily.
	Graph bool
	// Telemetry, when non-nil, collects hot-path metrics for the run:
	// yarrp_* probe/reply counters and RTT/batch-fill/drain-gap
	// histograms from the prober, plus sim_*, plan_cache_*, store and
	// graph figures folded in by the facade at run end. The registry
	// may be shared across runs; Result.Telemetry holds the snapshot
	// taken when this run finished.
	Telemetry *TelemetryRegistry
	// Progress, when non-nil, streams the campaign's live progress as
	// NDJSON sample records stamped in virtual time. The stream is
	// deterministic: byte-identical at any Shards and Batch setting.
	// The parsed series is also returned in Result.Progress.
	Progress io.Writer
	// ProgressPerShard appends per-shard breakdown records to the
	// Progress stream after the sample series.
	ProgressPerShard bool
	// InterruptAt, when positive, stops the campaign at that instant of
	// campaign virtual time (as an operator's signal handler would at a
	// wall instant). RunYarrp6 then returns the partial Result — with
	// Result.Checkpoint holding the serialized resume artifact — and an
	// error wrapping ErrInterrupted.
	InterruptAt time.Duration
	// Adaptive, when non-nil, switches the run to closed-loop
	// probabilistic target generation: the targets passed to RunYarrp6
	// become the generator's seed observations, and the campaign grows
	// its own (target × TTL) domain epoch by epoch (see AdaptiveOptions).
	Adaptive *AdaptiveOptions
}

// AdaptiveOptions parameterizes adaptive probabilistic target
// generation (internal/gen6prob over the core adaptive campaign
// engine). The run probes in epochs: a density-weighted prefix trie —
// seeded from the 6Gen clusters of the observed addresses — samples
// each epoch's target batch, and the epoch's results feed back before
// the next batch: targets whose traces surfaced never-seen interfaces
// reward their trie paths, and prefixes the between-epoch alias
// detector flags are pruned outright. The whole series is
// deterministic at any Shards × Batch combination, and an interrupted
// run checkpoints its generation state alongside the campaign
// artifact.
type AdaptiveOptions struct {
	// Budget caps total probes across all epochs. Zero leaves MaxEpochs
	// alone to bound the run.
	Budget int64
	// EpochTargets caps the targets generated per epoch. Default 256.
	EpochTargets int
	// MaxEpochs bounds the epoch count. Default 16.
	MaxEpochs int
	// AliasMinHits is the fully-responsive-target count per /64 that
	// nominates the prefix for alias detection at the epoch boundary
	// (default 1 — the generator probes one low-byte address per /64;
	// negative disables boundary detection).
	AliasMinHits int
	// Seeds supplies the original seed observations when resuming an
	// adaptive checkpoint: ResumeYarrp6 rebuilds the generator from them
	// and restores its serialized state from the artifact. Ignored by
	// RunYarrp6 (the targets argument is the seed set there).
	Seeds []netip.Addr
}

// ErrInterrupted is returned (wrapped) by RunYarrp6 and ResumeYarrp6
// when the campaign stopped at YarrpOptions.InterruptAt; the partial
// Result carries the checkpoint artifact to resume from.
var ErrInterrupted = core.ErrInterrupted

func transportProto(name string) (uint8, error) {
	switch name {
	case "", "icmp6", "icmpv6":
		return wire.ProtoICMPv6, nil
	case "udp":
		return wire.ProtoUDP, nil
	case "tcp":
		return wire.ProtoTCP, nil
	}
	return 0, fmt.Errorf("beholder: unknown transport %q", name)
}

// Result holds a campaign's outcome.
type Result struct {
	ProbesSent int64
	Fills      int64
	Replies    int64
	Elapsed    time.Duration
	// Curve samples discovery progress. For a sharded campaign it is
	// the global curve interleaved from the per-shard windows by
	// virtual time (exact in probes and in unique-interface counts);
	// the per-window curves live in ShardStats.
	Curve []core.CurvePoint
	// ShardStats holds the per-shard counter breakdown: one entry per
	// campaign shard (a single-shard run has one), followed by any
	// recovery probers that re-probed quarantined ranges. Nil for
	// adaptive runs, whose per-epoch breakdown is in Epochs.
	ShardStats []core.Stats
	// PlanHits, PlanMisses, PlanEvictions and SharedPlanHits are the
	// flow-plan cache counters accumulated by this run alone (summed
	// across shard clones for sharded campaigns).
	PlanHits       int64
	PlanMisses     int64
	PlanEvictions  int64
	SharedPlanHits int64
	// Progress is the campaign's virtual-time progress series, present
	// when YarrpOptions.Progress or Telemetry was set.
	Progress []ProgressPoint
	// Telemetry is the registry snapshot taken at run end, present when
	// YarrpOptions.Telemetry was set.
	Telemetry TelemetrySnapshot
	// Quarantined lists campaign shards whose connections failed fatally
	// mid-run (e.g. an injected crash) and had their remaining
	// permutation range re-sharded onto recovery probers; Incomplete
	// lists any index ranges recovery could not finish. Both are empty
	// on a clean run.
	Quarantined []int
	Incomplete  []core.PermRange
	// Checkpoint is the serialized resume artifact of an interrupted
	// campaign, set when the run stopped at YarrpOptions.InterruptAt.
	// Feed it to Vantage.ResumeYarrp6 to finish the campaign with
	// byte-identical results.
	Checkpoint []byte
	// Epochs holds the per-epoch breakdown of an adaptive run
	// (YarrpOptions.Adaptive): targets generated, window placement, and
	// the cumulative interface count at each boundary. Nil for static
	// campaigns.
	Epochs []core.EpochStats

	store   *probe.Store
	graph   *graph.Graph
	vantage string
	proto   uint8
}

// NumInterfaces returns the count of unique router interface addresses
// discovered (sources of ICMPv6 Time Exceeded).
func (r *Result) NumInterfaces() int { return r.store.NumInterfaces() }

// Interfaces returns the discovered interface addresses.
func (r *Result) Interfaces() []netip.Addr { return r.store.Interfaces() }

// Path returns the traced path toward target as (ttl, address) hops in
// TTL order.
func (r *Result) Path(target netip.Addr) []probe.HopEntry {
	t := r.store.Trace(target)
	if t == nil {
		return nil
	}
	return t.SortedHops()
}

// Reached reports whether the target itself responded.
func (r *Result) Reached(target netip.Addr) bool {
	t := r.store.Trace(target)
	return t != nil && t.Reached
}

// Discovered reports whether addr was seen as a router interface
// address, without materializing the interface slice.
func (r *Result) Discovered(addr netip.Addr) bool { return r.store.AddrSeen(addr) }

// Store exposes the underlying result store for analysis.
func (r *Result) Store() *probe.Store { return r.store }

// Graph returns the campaign's interface-level topology graph, built
// from the merged trace store and cached: at run end with
// YarrpOptions.Graph, otherwise on first call. The graph supports
// canonical NDJSON/DOT export, router collapse against alias-detection
// results, and cross-vantage union via UnionGraphs.
func (r *Result) Graph() *graph.Graph {
	if r.graph == nil {
		r.graph = graph.FromStore(r.store, r.vantage, r.proto)
	}
	return r.graph
}

// UnionGraphs folds campaign graphs from any number of vantages (or
// protocols) into one topology graph. The merge is commutative and
// shard-safe; inputs are not modified.
func UnionGraphs(gs ...*graph.Graph) *graph.Graph { return graph.Union(gs...) }

// CollapseGraph folds a graph's interfaces into router nodes using
// detected aliased prefixes: every interface beneath one aliased prefix
// becomes a single router. aliases may be nil, making the collapse the
// identity.
func CollapseGraph(g *graph.Graph, aliases *AliasSet) *graph.RouterGraph {
	var st *alias.Store
	if aliases != nil {
		st = aliases.res.Aliased
	}
	return g.Collapse(graph.StoreResolver(st))
}

// RunYarrp6 probes targets with the randomized stateless prober. With
// opt.Shards > 1 the permutation domain is split across that many
// concurrent prober instances, each on its own cloned vantage
// connection, replaying the single-instance virtual schedule in a
// fraction of the wall time (see YarrpOptions.Shards for the exact
// equivalence guarantee). With opt.Adaptive the targets are instead the
// generator's seed observations and the campaign grows its own domain
// epoch by epoch (see AdaptiveOptions).
func (v *Vantage) RunYarrp6(targets []netip.Addr, opt YarrpOptions) (*Result, error) {
	if opt.Adaptive != nil {
		return v.runAdaptive(targets, opt)
	}
	proto, err := transportProto(opt.Transport)
	if err != nil {
		return nil, err
	}
	shards := max(opt.Shards, 1)
	ccfg := core.CampaignConfig{
		Config: core.Config{
			Targets: targets,
			PPS:     opt.Rate,
			MaxTTL:  uint8(opt.MaxTTL),
			Proto:   proto,
			Key:     opt.Key,
			Fill:    opt.Fill,
			Batch:   opt.Batch,
		},
		Shards:      shards,
		RecordPaths: true,
		Telemetry:   opt.Telemetry,
		InterruptAt: opt.InterruptAt,
	}
	if opt.Progress != nil || opt.Telemetry != nil {
		ccfg.Progress = &core.ProgressConfig{
			Writer:   opt.Progress,
			PerShard: opt.ProgressPerShard,
		}
	}
	r := v.beginRun(opt.Telemetry)
	r.graph = opt.Graph
	conns := func(int, time.Duration) probe.Conn {
		// A lone shard owns the whole window and probes on the vantage's
		// own connection, so back-to-back runs on one vantage carry its
		// token buckets, plan cache and counters forward.
		return v.v
	}
	if shards > 1 {
		epoch := v.clk
		conns = r.shardConns(func() time.Duration { return epoch })
	}
	return r.finish(core.NewCampaign(ccfg, conns), proto)
}

// ResumeYarrp6 resumes an interrupted campaign from the checkpoint
// artifact a previous run's Result.Checkpoint carried, and runs it to
// completion (or to opt.InterruptAt again — checkpoints compose). The
// artifact pins the campaign configuration; of opt only Telemetry,
// Progress, ProgressPerShard, and InterruptAt apply (plus Adaptive for
// adaptive artifacts, which must carry the original seed set in
// Adaptive.Seeds). Resumed on an identically-seeded Internet replayed
// to the same virtual instant, the finished campaign is byte-identical
// — store, graph, progress stream, discovery curve — to one that was
// never interrupted: router token-bucket levels ride in the artifact,
// so even rate-limiters saturated across the interrupt instant replay
// exactly. The resumed run's Result.Graph() is built from the trace
// store on first call, like every Result graph.
func (v *Vantage) ResumeYarrp6(artifact []byte, opt YarrpOptions) (*Result, error) {
	if core.IsAdaptiveCheckpoint(artifact) {
		return v.resumeAdaptive(artifact, opt)
	}
	r := v.beginRun(opt.Telemetry)
	var camp *core.Campaign
	camp, err := core.Resume(artifact, core.ResumeConfig{
		Telemetry:        opt.Telemetry,
		ProgressWriter:   opt.Progress,
		ProgressPerShard: opt.ProgressPerShard,
		InterruptAt:      opt.InterruptAt,
	}, r.shardConns(func() time.Duration { return camp.Epoch() }))
	if err != nil {
		return nil, err
	}
	return r.finish(camp, camp.Proto())
}

// errAdaptiveProgress rejects a progress stream on an adaptive run.
var errAdaptiveProgress = errors.New("beholder: progress streaming is unsupported under adaptive generation")

// runAdaptive executes a closed-loop adaptive campaign: seeds build a
// gen6prob source, and the core adaptive engine alternates sharded
// probing epochs with trie re-weighting and boundary alias detection.
func (v *Vantage) runAdaptive(seeds []netip.Addr, opt YarrpOptions) (*Result, error) {
	proto, err := transportProto(opt.Transport)
	if err != nil {
		return nil, err
	}
	if opt.Progress != nil {
		return nil, errAdaptiveProgress
	}
	acfg := core.AdaptiveConfig{
		CampaignConfig: core.CampaignConfig{
			Config: core.Config{
				PPS:    opt.Rate,
				MaxTTL: uint8(opt.MaxTTL),
				Proto:  proto,
				Key:    opt.Key,
				Fill:   opt.Fill,
				Batch:  opt.Batch,
			},
			Shards:      max(opt.Shards, 1),
			RecordPaths: true,
			Telemetry:   opt.Telemetry,
			InterruptAt: opt.InterruptAt,
		},
		Source:        gen6prob.New(seeds, gen6prob.Config{Key: opt.Key}),
		Budget:        opt.Adaptive.Budget,
		EpochTargets:  opt.Adaptive.EpochTargets,
		MaxEpochs:     opt.Adaptive.MaxEpochs,
		DetectAliases: v.adaptiveAliasHook(opt.Adaptive.AliasMinHits),
	}
	r := v.beginRun(opt.Telemetry)
	epoch := v.clk
	return r.finish(core.NewAdaptive(acfg, r.shardConns(func() time.Duration { return epoch })), proto)
}

// resumeAdaptive continues an interrupted adaptive campaign: the
// generator is rebuilt from opt.Adaptive.Seeds, its state restored from
// the artifact, and the run picks up mid-epoch or mid-adaptation
// exactly where it stopped.
func (v *Vantage) resumeAdaptive(artifact []byte, opt YarrpOptions) (*Result, error) {
	if opt.Adaptive == nil || len(opt.Adaptive.Seeds) == 0 {
		return nil, fmt.Errorf("beholder: adaptive checkpoint: set YarrpOptions.Adaptive.Seeds to the original seed observations")
	}
	if opt.Progress != nil {
		return nil, errAdaptiveProgress
	}
	info, err := core.InspectCheckpoint(artifact)
	if err != nil {
		return nil, err
	}
	r := v.beginRun(opt.Telemetry)
	var camp *core.AdaptiveCampaign
	camp, err = core.ResumeAdaptive(artifact, core.AdaptiveResumeConfig{
		// The artifact pins the permutation key; the generator's sampler
		// is keyed identically so its restored counter replays the same
		// draws.
		Source:        gen6prob.New(opt.Adaptive.Seeds, gen6prob.Config{Key: info.Key}),
		DetectAliases: v.adaptiveAliasHook(opt.Adaptive.AliasMinHits),
		Telemetry:     opt.Telemetry,
		InterruptAt:   opt.InterruptAt,
	}, r.shardConns(func() time.Duration { return camp.Epoch() }))
	if err != nil {
		return nil, err
	}
	return r.finish(camp, info.Proto)
}

// facadeRun carries one campaign run through the facade, from its
// connection factory to its Result.
type facadeRun struct {
	v         *Vantage
	reg       *TelemetryRegistry
	vsBefore  netsim.VantageStats
	simBefore netsim.SimStats
	// epoch is the run's origin on the vantage timeline, set when its
	// shards probe clones; nil when a lone shard probes the vantage's
	// own connection.
	epoch  func() time.Duration
	clones []*netsim.Vantage
	graph  bool // build the Result graph at run end (YarrpOptions.Graph)
}

// beginRun snapshots the counters a run's Result reports deltas of.
func (v *Vantage) beginRun(reg *TelemetryRegistry) *facadeRun {
	r := &facadeRun{v: v, reg: reg, vsBefore: v.v.Stats}
	if reg != nil {
		r.simBefore = v.in.u.StatsSnapshot()
	}
	return r
}

// shardConns starts a shard group on the vantage and returns the run's
// connection factory: every shard probes a private clone opened at
// epoch() plus its window start, collected for the plan-cache counters.
// Resumed runs read epoch from the artifact, fresh ones pin the
// vantage timeline.
func (r *facadeRun) shardConns(epoch func() time.Duration) core.ConnFactory {
	r.epoch = epoch
	r.v.v.BeginShardGroup()
	return func(_ int, start time.Duration) probe.Conn {
		nv := r.v.v.Clone(epoch() + start)
		r.clones = append(r.clones, nv)
		return nv
	}
}

// engine is the campaign behind a facade run: a core.Campaign or a
// core.AdaptiveCampaign, fresh or resumed.
type engine interface {
	Checkpoint() ([]byte, error)
}

// finish is the one epilogue of every facade run. It runs the engine
// (an interrupt yields a partial Result carrying the resume artifact
// and an error wrapping ErrInterrupted), advances the vantage timeline,
// and builds the Result with its plan-cache counters and telemetry.
func (r *facadeRun) finish(eng engine, proto uint8) (*Result, error) {
	var (
		store  *probe.Store
		st     core.CampaignStats
		epochs []core.EpochStats
		err    error
	)
	switch e := eng.(type) {
	case *core.Campaign:
		store, st, err = e.Run()
	case *core.AdaptiveCampaign:
		var as core.AdaptiveStats
		store, as, err = e.Run()
		st.Stats, epochs = as.Stats, as.Epochs
	}
	interrupted := errors.Is(err, core.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	v := r.v
	if r.epoch == nil {
		v.clk = v.v.Now()
	} else {
		// Clones left the vantage's own connection idle; advance it
		// through the run so follow-up operations on this vantage see
		// the same virtual time at any shard count. The facade timeline
		// advances from the run's own origin — never from another
		// vantage's concurrent activity on the shared clock.
		v.v.Sleep(st.Elapsed)
		v.clk = r.epoch() + st.Elapsed
	}
	res := &Result{
		ProbesSent:  st.ProbesSent,
		Fills:       st.Fills,
		Replies:     st.Replies,
		Elapsed:     st.Elapsed,
		Curve:       st.Curve,
		ShardStats:  st.PerShard,
		Progress:    st.Progress,
		Quarantined: st.Quarantined,
		Incomplete:  st.Incomplete,
		Epochs:      epochs,
		store:       store,
		vantage:     v.v.Name(),
		proto:       proto,
	}
	if r.graph {
		res.Graph()
	}
	res.setPlanStats(v, r.vsBefore, r.clones)
	if r.reg != nil {
		v.publishRunTelemetry(r.reg, r.simBefore, res)
		res.Telemetry = r.reg.Snapshot()
	}
	if interrupted {
		art, cerr := eng.Checkpoint()
		if cerr != nil {
			return nil, cerr
		}
		res.Checkpoint = art
	}
	return res, err
}

// adaptiveAliasHook builds the between-epoch alias-detection hook:
// candidate /64s whose targets all answered are probed with the APD
// scheme on a private boundary clone. The clone owns its clock, token
// buckets, and plan cache, so the verdicts are a pure function of
// (universe seed, epoch, candidates) — deterministic at any shard count
// — and the campaign schedule is undisturbed. A negative minHits
// disables detection.
func (v *Vantage) adaptiveAliasHook(minHits int) func(int, *probe.Store) []netip.Prefix {
	if minHits < 0 {
		return nil
	}
	if minHits == 0 {
		minHits = 1
	}
	return func(epoch int, store *probe.Store) []netip.Prefix {
		cands := gen6prob.AliasCandidates(store, minHits)
		if len(cands) == 0 {
			return nil
		}
		nv := v.v.Clone(0)
		nv.SetPlanCache(0)
		det := alias.NewDetector(nv, alias.DefaultParams())
		rng := rand.New(rand.NewSource(v.in.seed ^ int64(epoch+1)*0xa11a5))
		return det.Detect(cands, rng).Aliased.Prefixes()
	}
}

// setPlanStats fills the result's flow-plan cache counters: the parent
// vantage's delta over the run plus, for sharded campaigns, the shard
// clones' whole-life counters (clones are born zeroed and die with the
// run).
func (r *Result) setPlanStats(v *Vantage, before netsim.VantageStats, clones []*netsim.Vantage) {
	after := v.v.Stats
	r.PlanHits = after.PlanHits - before.PlanHits
	r.PlanMisses = after.PlanMisses - before.PlanMisses
	r.PlanEvictions = after.PlanEvictions - before.PlanEvictions
	r.SharedPlanHits = after.SharedPlanHits - before.SharedPlanHits
	for _, c := range clones {
		r.PlanHits += c.Stats.PlanHits
		r.PlanMisses += c.Stats.PlanMisses
		r.PlanEvictions += c.Stats.PlanEvictions
		r.SharedPlanHits += c.Stats.SharedPlanHits
	}
}

// publishRunTelemetry folds the facade-level counters of one finished
// campaign into the registry: simulator event deltas, flow-plan cache
// outcomes, and store/graph discovery figures.
func (v *Vantage) publishRunTelemetry(reg *TelemetryRegistry, simBefore netsim.SimStats, res *Result) {
	sim := v.in.u.StatsSnapshot().Sub(simBefore)
	add := func(name string, n int64) { reg.Counter(name).Add(n) }
	add("sim_packets_routed_total", sim.PacketsRouted)
	add("sim_time_exceeded_sent_total", sim.TimeExceededSent)
	add("sim_rate_limit_dropped_total", sim.RateLimitDropped)
	add("sim_unresponsive_drops_total", sim.UnresponsiveDrops)
	add("sim_errors_sent_total", sim.ErrorsSent)
	add("sim_echo_replies_sent_total", sim.EchoRepliesSent)
	add("sim_tcp_rsts_sent_total", sim.TCPRstsSent)
	add("sim_port_unreach_sent_total", sim.PortUnreachSent)
	add("sim_loss_dropped_total", sim.LossDropped)
	add("sim_filtered_drops_total", sim.FilteredDrops)
	add("sim_fault_crash_denials_total", sim.FaultCrashDenials)
	add("sim_fault_stall_drops_total", sim.FaultStallDrops)
	add("sim_fault_transient_errs_total", sim.FaultTransientErrs)
	add("sim_fault_truncated_total", sim.FaultTruncated)
	add("sim_fault_corrupted_total", sim.FaultCorrupted)
	add("sim_fault_delayed_total", sim.FaultDelayed)
	add("plan_cache_hits_total", res.PlanHits)
	add("plan_cache_misses_total", res.PlanMisses)
	add("plan_cache_evictions_total", res.PlanEvictions)
	add("shared_plan_hits_total", res.SharedPlanHits)
	reg.Gauge("store_unique_interfaces").Set(int64(res.store.NumInterfaces()))
	reg.Gauge("store_traces").Set(int64(res.store.NumTraces()))
	if res.graph != nil {
		reg.Gauge("graph_nodes").Set(int64(res.graph.NumNodes()))
		reg.Gauge("graph_edges").Set(int64(res.graph.NumEdges()))
	}
	if res.ProbesSent > 0 {
		reg.Gauge("discovery_per_probe_ppm").Set(int64(res.store.NumInterfaces()) * 1_000_000 / res.ProbesSent)
	}
}

// SequentialOptions parameterizes the scamper-like baseline.
type SequentialOptions struct {
	Rate   float64
	MaxTTL int
	Window int
	// Telemetry, when non-nil, receives the run's trace_* counters.
	Telemetry *TelemetryRegistry
}

// RunSequential probes targets with the stateful sequential baseline
// (per-destination increasing TTL, ICMP-Paris semantics).
func (v *Vantage) RunSequential(targets []netip.Addr, opt SequentialOptions) *Result {
	store := probe.NewStore(true)
	ecfg := trace.EngineConfig{PPS: opt.Rate, Window: opt.Window}
	if opt.Telemetry != nil {
		ecfg.Telemetry = opt.Telemetry.NewShard()
	}
	s := trace.NewSequential(v.v, trace.SequentialConfig{
		Engine: ecfg,
		MaxTTL: uint8(opt.MaxTTL),
	})
	stats := s.Run(targets, store)
	v.clk = v.v.Now()
	return &Result{ProbesSent: stats.ProbesSent, Elapsed: stats.Elapsed, store: store,
		vantage: v.v.Name(), proto: wire.ProtoICMPv6}
}

// DoubletreeOptions parameterizes the Doubletree baseline.
type DoubletreeOptions struct {
	Rate     float64
	StartTTL int
	MaxTTL   int
	Window   int
	// Telemetry, when non-nil, receives the run's trace_* counters
	// (including trace_stopset_hits_total).
	Telemetry *TelemetryRegistry
}

// RunDoubletree probes targets with Doubletree's forward/backward
// stop-set algorithm.
func (v *Vantage) RunDoubletree(targets []netip.Addr, opt DoubletreeOptions) *Result {
	store := probe.NewStore(true)
	ecfg := trace.EngineConfig{PPS: opt.Rate, Window: opt.Window}
	if opt.Telemetry != nil {
		ecfg.Telemetry = opt.Telemetry.NewShard()
	}
	d := trace.NewDoubletree(v.v, trace.DoubletreeConfig{
		Engine:   ecfg,
		StartTTL: uint8(opt.StartTTL),
		MaxTTL:   uint8(opt.MaxTTL),
	})
	stats := d.Run(targets, store)
	v.clk = v.v.Now()
	return &Result{ProbesSent: stats.ProbesSent, Elapsed: stats.Elapsed, store: store,
		vantage: v.v.Name(), proto: wire.ProtoICMPv6}
}

// Subnet is one inferred subnet candidate.
type Subnet struct {
	Prefix netip.Prefix
	MinLen int
	IAHack bool
}

// DiscoverSubnets runs Section 6's path-divergence inference plus the
// /64 IA hack over a campaign's traces, returning candidates and the
// count of traces pinned to exact /64s.
func (v *Vantage) DiscoverSubnets(r *Result) ([]Subnet, int) {
	res := subnet.Discover(r.store, v.in.u.Table(), v.v.AS().ASN, subnet.DefaultParams())
	out := make([]Subnet, len(res.Candidates))
	for i, c := range res.Candidates {
		out[i] = Subnet{Prefix: c.Prefix, MinLen: c.MinLen, IAHack: c.IAHack}
	}
	return out, res.IAHackCount
}

// AliasOptions parameterizes aliased-prefix detection (APD) through the
// facade. Zero values select the library defaults.
type AliasOptions struct {
	Probes     int     // random IIDs probed per candidate prefix (default 8)
	MinReplies int     // replies classifying a candidate aliased (default: majority)
	Rate       float64 // probing rate in pps (default 1000)
	Budget     int64   // total probe cap (0 = unlimited)
	// Telemetry, when non-nil, receives the run's apd_* counters.
	Telemetry *TelemetryRegistry
}

// AliasSet is a detected aliased-prefix list together with its probing
// cost, produced by Vantage.DetectAliases.
type AliasSet struct {
	res *alias.Result
}

// Prefixes returns the detected aliased prefixes in address order.
func (a *AliasSet) Prefixes() []netip.Prefix { return a.res.Aliased.Prefixes() }

// Contains reports whether addr falls beneath a detected aliased prefix.
func (a *AliasSet) Contains(addr netip.Addr) bool { return a.res.Aliased.Contains(addr) }

// Len returns the number of detected aliased prefixes.
func (a *AliasSet) Len() int { return a.res.Aliased.Len() }

// ProbesSent returns the detection campaign's probe cost.
func (a *AliasSet) ProbesSent() int64 { return a.res.ProbesSent }

// Tested returns the number of candidate prefixes probed.
func (a *AliasSet) Tested() int { return a.res.Tested }

// Skipped returns the number of candidates left unprobed by the budget.
func (a *AliasSet) Skipped() int { return a.res.Skipped }

// Store exposes the underlying alias store for direct library use.
func (a *AliasSet) Store() *alias.Store { return a.res.Aliased }

// AliasCandidates derives the unique covering /64s of targets — the
// candidate prefixes DetectAliases probes.
func AliasCandidates(targets []netip.Addr) []netip.Prefix {
	return alias.Candidates(ipv6.NewSet(targets), 64)
}

// DetectAliases probes candidate prefixes from this vantage with the
// 6Prob-style APD scheme: random IIDs per candidate, interleaved for
// per-prefix cool-down, under an optional probe budget. Candidates
// whose random addresses answer are aliased — a middlebox, not hosts.
func (v *Vantage) DetectAliases(candidates []netip.Prefix, opt AliasOptions) *AliasSet {
	// APD probes each random address exactly once, so its flows never
	// repeat and the flow-plan cache cannot hit; run with it disabled to
	// skip the per-miss cache bookkeeping. Plans are pure functions of
	// the flow, so this changes no results.
	prev := v.v.PlanCacheSize()
	v.v.SetPlanCache(0)
	defer v.v.SetPlanCache(prev)
	params := alias.Params{
		Probes:     opt.Probes,
		MinReplies: opt.MinReplies,
		PPS:        opt.Rate,
		Budget:     opt.Budget,
		Instance:   alias.DefaultParams().Instance,
	}
	if opt.Telemetry != nil {
		params.Telemetry = opt.Telemetry.NewShard()
	}
	det := alias.NewDetector(v.v, params)
	rng := rand.New(rand.NewSource(v.in.seed ^ 0xa11a5))
	res := det.Detect(candidates, rng)
	v.clk = v.v.Now()
	return &AliasSet{res: res}
}

// DealiasStats re-exports the dealiasing summary.
type DealiasStats = alias.Stats

// DealiasTargets drops every target inside a detected aliased prefix,
// returning the cleaned list. The underlying library also offers a
// Collapse mode that keeps one representative per aliased prefix.
func DealiasTargets(targets []netip.Addr, aliases *AliasSet) ([]netip.Addr, DealiasStats) {
	kept, stats := alias.Dealias(ipv6.NewSet(targets), aliases.res.Aliased, alias.Drop)
	return kept.Addrs(), stats
}

// AliasedGroundTruth exports the simulator's true aliased /64s, up to
// perASLimit per hosting AS — the validation data real-world alias
// detection can only estimate.
func (in *Internet) AliasedGroundTruth(perASLimit int) []netip.Prefix {
	var out []netip.Prefix
	for _, as := range in.u.ASes() {
		out = append(out, in.u.TruthAliasedLANs(as, perASLimit)...)
	}
	return out
}

// FixedIID is the paper's fixed pseudo-random interface identifier used
// for target synthesis (Section 3.3).
const FixedIID = target.FixedIIDValue

// MustAddr parses an IPv6 address, panicking on error; a convenience for
// examples and tests.
func MustAddr(s string) netip.Addr { return ipv6.MustAddr(s) }

// SharedPlanHits returns how many private plan-cache misses were served
// from the campaign-shared plan-core cache instead of a fresh compute.
func (v *Vantage) SharedPlanHits() int64 { return v.v.Stats.SharedPlanHits }
