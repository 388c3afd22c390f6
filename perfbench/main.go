// Command perfbench is the repository benchmark: it runs one named
// workload through the public APIs, checks its outputs, and prints its
// metrics by name with their units. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload hitlist-sharded --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the workload once untraced and once through the benchmark's
// forwarding wrappers and reports the per-layer metrics. All probe
// traffic stays inside the process, in the netsim simulator.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

//go:embed pins.json
var pinsJSON []byte

// pins holds the reference digests of each workload's results at full
// size, per seed, and the tolerance of the layer add-up check.
type pins struct {
	// LayerSumTolerance bounds |Σ layer self time − traced wall| as a
	// share of the traced wall time.
	LayerSumTolerance float64             `json:"layer_sum_tolerance"`
	Seeds             map[string]seedPins `json:"seeds"`
}

type seedPins struct {
	Hitlist  string            `json:"hitlist-sharded,omitempty"`
	Adaptive string            `json:"adaptive-gen,omitempty"`
	Daemon   map[string]string `json:"daemon-ckpt,omitempty"` // campaign key → store digest
}

func (p *pins) forSeed(seed int64) (seedPins, bool) {
	sp, ok := p.Seeds[fmt.Sprint(seed)]
	return sp, ok
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       size
	pins     *pins
	// stateRoot is the directory daemon state directories go under.
	stateRoot string
}

type workloadFunc func(cfg config, r *report) error

var workloads = map[string]workloadFunc{
	"hitlist-sharded": runHitlist,
	"daemon-ckpt":     runDaemon,
	"adaptive-gen":    runAdaptive,
}

// endToEnd and perLayer list every metric with its unit. Each run emits
// the whole list for its mode; a layer a workload does not exercise
// reads 0 there.
var endToEnd = []struct{ name, unit string }{
	{"probes_per_s", "probes/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_probe", "objects/probe"},
	{"ifaces_per_kprobe", "ifaces/kprobe"},
	{"campaigns_per_s", "1/s"},
	{"campaign_p50_s", "s"},
	{"campaign_p90_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"netsim.send_ns_per_probe", "ns"},
	{"netsim.probes_per_send_call", "probes/call"},
	{"netsim.plan_hit_ratio", "ratio"},
	{"netsim.plan_evictions_per_kprobe", "count/kprobe"},
	{"netsim.recv_ns_per_reply", "ns"},
	{"netsim.queue_depth_max", "count"},
	{"netsim.prime_s", "s"},
	{"netsim.prime_calls", "count"},
	{"core.shard_run_s_max", "s"},
	{"core.shard_imbalance", "ratio"},
	{"core.merge_s", "s"},
	{"core.self_ns_per_probe", "ns"},
	{"probe.build_ns", "ns"},
	{"probe.build_allocs", "objects/op"},
	{"probe.parse_ns", "ns"},
	{"probe.parse_allocs", "objects/op"},
	{"probe.store_add_ns", "ns"},
	{"probe.store_add_allocs", "objects/op"},
	{"perm.next_ns", "ns"},
	{"perm.next_allocs", "objects/op"},
	{"graph.observe_ns_per_reply", "ns"},
	{"graph.union_ms", "ms"},
	{"core.ckpt_encode_ms", "ms"},
	{"core.rewind_ms", "ms"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p90", "ms"},
	{"store.bytes_per_ckpt", "bytes"},
	{"sched.ckpts_per_campaign", "count"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.run_ms", "ms"},
	{"gen6prob.build_ms", "ms"},
	{"gen6prob.next_epoch_ms", "ms"},
	{"alias.detect_ms", "ms"},
	{"core.epoch_setup_ms", "ms"},
	{"gen6prob.new_ifaces_per_target", "ifaces/target"},
	{"setup.universe_s", "s"},
	{"setup.seed_lists_s", "s"},
	{"setup.targets_s", "s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.layer_sum_frac", "ratio"},
	{"attr.core.run_frac", "ratio"},
	{"attr.core.merge_frac", "ratio"},
	{"attr.core.shard_frac", "ratio"},
	{"attr.core.epoch_setup_frac", "ratio"},
	{"attr.netsim.send_frac", "ratio"},
	{"attr.netsim.recv_frac", "ratio"},
	{"attr.netsim.prime_frac", "ratio"},
	{"attr.graph.observe_frac", "ratio"},
	{"attr.graph.union_frac", "ratio"},
	{"attr.gen6prob.build_frac", "ratio"},
	{"attr.gen6prob.next_epoch_frac", "ratio"},
	{"attr.alias.detect_frac", "ratio"},
	{"attr.sched.run_frac", "ratio"},
	{"attr.store.put_frac", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "workload name: hitlist-sharded, daemon-ckpt or adaptive-gen")
	seed := flag.Int64("seed", 1, "input seed: universe, target synthesis and permutation keys derive from it")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	pinMode := flag.Bool("pin", false, "print the reference digests for --seed instead of measuring")
	stateRoot := flag.String("state-root", ".bench_build", "directory under which daemon state directories are made")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: pins.json: %v\n", err)
		os.Exit(2)
	}
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traceMode == 1,
		sz:        fullSize,
		pins:      &p,
		stateRoot: *stateRoot,
	}
	if err := os.MkdirAll(cfg.stateRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *pinMode {
		out, err := pinDigests(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		b, _ := json.MarshalIndent(out, "", "  ")
		fmt.Println(string(b))
		return
	}
	r, err := runWorkload(fn, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	emit(os.Stdout, r)
}

// runWorkload runs one workload and completes its report.
func runWorkload(fn workloadFunc, cfg config) (*report, error) {
	r := newReport()
	r.note("host %s", hostRecord(cfg))
	if err := fn(cfg, r); err != nil {
		return nil, err
	}
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	want := map[string]bool{}
	for _, m := range list {
		want[m.name] = true
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
		if got := r.metrics[m.name]; got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			r.fail("metric %s: %v %q (want unit %q)", m.name, got.Value, got.Unit, m.unit)
		}
	}
	for name := range r.metrics {
		if !want[name] {
			delete(r.metrics, name)
		}
	}
	return r, nil
}

// emit prints the notes, every metric by name with its unit, and the
// result object as the last line.
func emit(f *os.File, r *report) {
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "# %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ff := 0.0
	if r.attempted > 0 {
		ff = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "# %-34s %14.6g ratio (%d of %d operations)\n", "failed_frac", ff, r.failed, r.attempted)
	for _, c := range r.checks {
		fmt.Fprintf(f, "# CHECK FAILED: %s\n", c)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.checks) == 0 && r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
	b, _ := json.Marshal(out)
	fmt.Fprintln(f, string(b))
}

// size scales a workload's inputs. fullSize is the benchmark; tinySize
// is the self-test.
type size struct {
	small bool // 120-AS universe instead of the campaign-scale one
	// minReps is how many set-ups an untraced run makes at least —
	// each followed by a measured campaign, except in daemon-ckpt —
	// and setup_s is their median.
	minReps int

	hitScale float64

	dmScale     float64
	dmMin       int           // campaigns per untraced run, at least
	dmMax       int           // campaigns per untraced run, at most
	dmTraceEach int           // campaigns per tenant in the --trace 1 run
	dmCheckEach int           // campaigns per tenant in the unpinned-seed check
	dmCkpt      time.Duration // periodic checkpoint cadence

	adSeedScale    float64
	adBudget       int64
	adEpochTargets int
	adMaxEpochs    int

	microRound time.Duration // time per microbenchmark round
	capture    int           // replies captured for the microbenchmarks
}

var fullSize = size{
	minReps:  3,
	hitScale: 1,
	dmScale:  0.2, dmMin: 110, dmMax: 320, dmTraceEach: 10, dmCheckEach: 3, dmCkpt: 100 * time.Millisecond,
	adSeedScale: 0.5, adBudget: 1_000_000, adEpochTargets: 2048, adMaxEpochs: 64,
	microRound: 20 * time.Millisecond, capture: 8192,
}

var tinySize = size{
	small:    true,
	minReps:  1,
	hitScale: 0.1,
	dmScale:  0.1, dmMin: 4, dmMax: 8, dmTraceEach: 2, dmCheckEach: 1, dmCkpt: 5 * time.Millisecond,
	adSeedScale: 0.2, adBudget: 20_000, adEpochTargets: 128, adMaxEpochs: 8,
	microRound: 2 * time.Millisecond, capture: 256,
}
