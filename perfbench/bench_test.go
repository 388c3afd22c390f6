package main

// Self-test: every workload at the tiny size, in both modes.
//
//	cd perfbench && go test ./...

import (
	"encoding/json"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"beholder/internal/netsim"
	"beholder/internal/probe"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyLayerSumTolerance is the add-up tolerance at the tiny size. Tiny
// supervised campaigns last a few milliseconds, so the dispatch gaps
// between them — time no traced layer covers — weigh several times
// more than at full size, where pins.json's tolerance applies.
const tinyLayerSumTolerance = 0.15

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      1,
		seconds:   0.01,
		trace:     trace,
		sz:        tinySize,
		pins:      &pins{LayerSumTolerance: tinyLayerSumTolerance},
		stateRoot: t.TempDir(),
	}
}

// TestWorkloadsEmitEveryMetric runs each workload in both modes and
// checks the result carries exactly the BENCHMARK.json metrics of that
// mode, with their units, and passes its output checks.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		fn, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			r, err := runWorkload(fn, tinyConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if len(r.checks) > 0 || r.failed > 0 {
				t.Errorf("%s trace=%v: checks %v, %d of %d failed", w.Name, trace, r.checks, r.failed, r.attempted)
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, name, m.Unit, unit)
				}
			}
			if !trace {
				for _, name := range []string{"probes_per_s", "setup_s", "peak_rss_mb", "ifaces_per_kprobe"} {
					if r.metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, r.metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestWrongPinFails feeds each workload a wrong pinned digest and
// expects its output check to fail, and the right one to pass.
func TestWrongPinFails(t *testing.T) {
	for name, fn := range workloads {
		cfg := tinyConfig(t, name, false)
		got, err := pinDigests(cfg)
		if err != nil {
			t.Fatal(err)
		}
		right := seedPinsOf(t, got)
		wrong := right
		wrong.Hitlist, wrong.Adaptive = "0", "0"
		wrong.Daemon = map[string]string{}
		for k := range right.Daemon {
			wrong.Daemon[k] = "0"
		}
		for _, tc := range []struct {
			sp   seedPins
			fail bool
		}{{right, false}, {wrong, true}} {
			cfg.pins = &pins{LayerSumTolerance: tinyLayerSumTolerance, Seeds: map[string]seedPins{"1": tc.sp}}
			r, err := runWorkload(fn, cfg)
			if err != nil {
				t.Fatal(err)
			}
			failed := false
			for _, c := range r.checks {
				failed = failed || strings.Contains(c, "pinned")
			}
			if failed != tc.fail {
				t.Errorf("%s: pinned-digest check failed=%v, want %v (checks %v)", name, failed, tc.fail, r.checks)
			}
		}
	}
}

func seedPinsOf(t *testing.T, m map[string]any) seedPins {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var sp seedPins
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// bareConn forwards only probe.Conn: it hides every optional interface.
type bareConn struct{ probe.Conn }

func TestCheckForwarding(t *testing.T) {
	v := newInternet(tinySize).NewVantage(vantageName).Conn().(*netsim.Vantage)
	if err := checkForwarding(v, newTracedConn(v, newTracer(), &lane{})); err != nil {
		t.Errorf("tracedConn: %v", err)
	}
	if err := checkForwarding(v, bareConn{v}); err == nil {
		t.Error("a wrapper hiding probe.BatchConn passed the forwarding check")
	}
}

// TestAccountAddsUp checks the wall-clock attribution on a hand-built
// trace: two overlapping worker lanes share wall time evenly, the
// driving lane takes what no worker covers, and the remainder is
// unattributed.
func TestAccountAddsUp(t *testing.T) {
	ms := int64(time.Millisecond)
	main := &lane{}
	main.add(lCoreRun, 0, 8*ms)
	a, b := &lane{}, &lane{}
	a.add(lCoreShard, 1*ms, 5*ms)
	a.add(lNetsimSend, 2*ms, 3*ms)
	b.add(lCoreShard, 3*ms, 7*ms)
	acc := account(main, []*lane{a, b}, 0, 10*ms)
	want := map[layer]float64{
		lUnattributed: 2e-3, // [8, 10)
		lCoreRun:      2e-3, // [0, 1) and [7, 8)
		lNetsimSend:   1e-3, // [2, 3) alone
		lCoreShard:    5e-3, // [1, 2) + [3, 5) shared (1) + [3, 5) shared (1) + [5, 7)
	}
	for ly, w := range want {
		if d := acc.attr[ly] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s attributed %v, want %v", layerNames[ly], acc.attr[ly], w)
		}
	}
	if sum := acc.attributedSum() + acc.attr[lUnattributed]; sum-acc.wall > 1e-12 || acc.wall-sum > 1e-12 {
		t.Errorf("attribution sums to %v, wall %v", sum, acc.wall)
	}
	if d := acc.self[lCoreShard] - 7e-3; d > 1e-12 || d < -1e-12 {
		t.Errorf("core.shard self %v, want 7ms", acc.self[lCoreShard])
	}
}

// TestUnionTargets pins the hitlist union's order and dedup.
func TestUnionTargets(t *testing.T) {
	a := netip.MustParseAddr("2001:db8::1")
	b := netip.MustParseAddr("2001:db8::2")
	c := netip.MustParseAddr("2001:db8::3")
	got := unionTargets([]netip.Addr{a, b}, []netip.Addr{b, c, a})
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("union %v", got)
	}
}
