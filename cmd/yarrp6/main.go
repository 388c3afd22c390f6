// Command yarrp6 runs a single Yarrp6 campaign against the simulated
// IPv6 internetwork and emits discovery results, in the spirit of the
// yarrp tool this library reproduces.
//
// Targets come either from -input (one IPv6 address per line) or from
// the built-in target generation pipeline via -seeds/-zn/-synth.
//
// Example:
//
//	yarrp6 -seeds cdn-k32 -zn 64 -synth fixediid -rate 1000 -fill
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/wire"
)

// conflictf renders one flag-vs-artifact conflict when cond holds.
func conflictf(cond bool, format string, args ...any) string {
	if !cond {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// protoOfTransport maps the -transport flag to a wire protocol number.
func protoOfTransport(name string) (uint8, error) {
	switch name {
	case "", "icmp6", "icmpv6":
		return wire.ProtoICMPv6, nil
	case "udp":
		return wire.ProtoUDP, nil
	case "tcp":
		return wire.ProtoTCP, nil
	}
	return 0, fmt.Errorf("unknown transport %q", name)
}

// transportOfProto names a wire protocol number like the -transport flag.
func transportOfProto(p uint8) string {
	switch p {
	case wire.ProtoUDP:
		return "udp"
	case wire.ProtoTCP:
		return "tcp"
	}
	return "icmp6"
}

func main() {
	var (
		simSeed   = flag.Int64("sim-seed", 2018, "simulated internetwork seed")
		small     = flag.Bool("small", false, "use the small universe")
		input     = flag.String("input", "", "target file (one IPv6 address per line)")
		seedsName = flag.String("seeds", "caida", "seed list for target generation")
		zn        = flag.Int("zn", 64, "prefix transformation level")
		synth     = flag.String("synth", "lowbyte1", "IID synthesis: lowbyte1|fixediid|randomiid|known")
		scale     = flag.Float64("scale", 0.5, "seed list scale")
		rate      = flag.Float64("rate", 1000, "probing rate (pps)")
		maxTTL    = flag.Int("maxttl", 16, "maximum randomized TTL")
		transport = flag.String("transport", "icmp6", "probe transport: icmp6|udp|tcp")
		fill      = flag.Bool("fill", false, "enable fill mode")
		key       = flag.Uint64("key", 0x6b657921, "permutation key")
		shards    = flag.Int("shards", 1, "concurrent prober instances splitting the permutation domain")
		batch     = flag.Int("batch", 0, "probe-pipeline send batch size (0 = engine default; results are identical at any value)")
		vantage   = flag.String("vantage", "US-EDU-1", "vantage name")
		hops      = flag.Bool("hops", false, "print per-target hop listings")
		graphOut  = flag.String("graph", "", "export the topology graph to this file (.ndjson for NDJSON, anything else for Graphviz DOT); the graph is built from the merged result store at run end")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-campaign) to this file")
		progress  = flag.String("progress", "", `stream virtual-time NDJSON progress samples to this file ("-" for stderr); byte-identical at any -shards/-batch`)
		progShard = flag.Bool("progress-shards", false, "append per-shard breakdown records to the progress stream")
		telAddr   = flag.String("telemetry-addr", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		interrupt = flag.Duration("interrupt-at", 0, "stop the campaign at this virtual instant and write the -checkpoint artifact (resume later with -resume)")
		ckptPath  = flag.String("checkpoint", "", "file for the resume artifact of an interrupted campaign (required with -interrupt-at)")
		resume    = flag.String("resume", "", "resume a campaign from this checkpoint artifact; the artifact pins the campaign configuration, and explicitly-set target or tuning flags that contradict it are an error")

		adaptive = flag.Bool("adaptive", false, "closed-loop probabilistic generation: the -input/-seeds addresses become seed observations for a density-weighted prefix trie that generates targets epoch by epoch from discovery feedback")
		adBudget = flag.Int64("adaptive-budget", 0, "total probe budget across adaptation epochs (0 = bounded by -adaptive-epochs alone)")
		adPerEp  = flag.Int("adaptive-epoch-targets", 0, "targets generated per adaptation epoch (0 = engine default)")
		adEpochs = flag.Int("adaptive-epochs", 0, "maximum adaptation epochs (0 = engine default)")
		adAPD    = flag.Int("adaptive-apd", 1, "fully-responsive targets per /64 that nominate it for boundary alias detection (negative disables APD pruning)")
	)
	flag.Parse()
	if *interrupt > 0 && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "yarrp6: -interrupt-at requires -checkpoint")
		os.Exit(1)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProf)

	var in *beholder.Internet
	if *small {
		in = beholder.NewSmallInternet(*simSeed)
	} else {
		in = beholder.NewInternet(*simSeed)
	}
	v := in.NewVantage(*vantage)

	// On resume, the artifact is authoritative for targets and tuning.
	// Validate it up front and cross-check every explicitly-set flag
	// against the embedded configuration: a contradiction is an error,
	// never a silent preference for the artifact's values.
	var resumeArt []byte
	var info core.CheckpointInfo
	if *resume != "" {
		var err error
		resumeArt, err = os.ReadFile(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		info, err = core.InspectCheckpoint(resumeArt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yarrp6: %s is not a usable checkpoint: %v\n", *resume, err)
			os.Exit(1)
		}
		if info.Adaptive && !*adaptive {
			fmt.Fprintf(os.Stderr, "yarrp6: %s is an adaptive checkpoint: pass -adaptive plus the original -input/-seeds flags so the generator can be rebuilt\n", *resume)
			os.Exit(1)
		}
	}

	// Target loading. A fresh run always needs targets; an adaptive
	// resume needs them too — they are the generator's original seed
	// observations, from which the serialized trie state is rebuilt.
	var targets []netip.Addr
	if *resume == "" || info.Adaptive {
		if *input != "" {
			var err error
			targets, err = readTargets(*input)
			if err != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", err)
				os.Exit(1)
			}
		} else {
			var err error
			targets, err = in.TargetSet(*seedsName, *zn, *synth, *scale)
			if err != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", err)
				os.Exit(1)
			}
		}
		if *resume == "" {
			noun := "targets"
			if *adaptive {
				noun = "seed observations"
			}
			fmt.Fprintf(os.Stderr, "yarrp6: %d %s from vantage %s (%s), %g pps, maxttl %d, %d shard(s)\n",
				len(targets), noun, *vantage, v.Addr(), *rate, *maxTTL, *shards)
		}
	}

	if *resume != "" {
		effBatch := *batch
		if effBatch <= 0 {
			effBatch = core.DefaultBatch
		}
		wantProto, protoErr := protoOfTransport(*transport)
		conflicts := map[string]func() string{
			"shards": func() string {
				return conflictf(*shards != info.Shards, "-shards %d (artifact: %d)", *shards, info.Shards)
			},
			"batch": func() string {
				return conflictf(effBatch != info.Batch, "-batch %d (artifact: %d)", *batch, info.Batch)
			},
			"transport": func() string {
				if protoErr != nil {
					return fmt.Sprintf("-transport %q (unknown; artifact: %s)", *transport, transportOfProto(info.Proto))
				}
				return conflictf(wantProto != info.Proto, "-transport %s (artifact: %s)", *transport, transportOfProto(info.Proto))
			},
			"rate": func() string {
				return conflictf(*rate != info.PPS, "-rate %g (artifact: %g)", *rate, info.PPS)
			},
			"maxttl": func() string {
				return conflictf(*maxTTL != int(info.MaxTTL), "-maxttl %d (artifact: %d)", *maxTTL, info.MaxTTL)
			},
			"key": func() string {
				return conflictf(*key != info.Key, "-key %#x (artifact: %#x)", *key, info.Key)
			},
			"fill": func() string {
				return conflictf(*fill != info.Fill, "-fill %v (artifact: %v)", *fill, info.Fill)
			},
			"input": func() string { return "-input (the artifact pins the target set)" },
			"seeds": func() string { return "-seeds (the artifact pins the target set)" },
			"zn":    func() string { return "-zn (the artifact pins the target set)" },
			"synth": func() string { return "-synth (the artifact pins the target set)" },
			"scale": func() string { return "-scale (the artifact pins the target set)" },
			"adaptive": func() string {
				return conflictf(!info.Adaptive, "-adaptive (the artifact is a static-target campaign)")
			},
			"adaptive-budget": func() string {
				return "-adaptive-budget (the artifact pins the adaptive configuration)"
			},
			"adaptive-epoch-targets": func() string {
				return "-adaptive-epoch-targets (the artifact pins the adaptive configuration)"
			},
			"adaptive-epochs": func() string {
				return "-adaptive-epochs (the artifact pins the adaptive configuration)"
			},
		}
		if info.Adaptive {
			// An adaptive resume rebuilds the generator from the original
			// seed observations, so the seed-pipeline flags are not only
			// allowed but expected.
			for _, f := range []string{"input", "seeds", "zn", "synth", "scale"} {
				delete(conflicts, f)
			}
		}
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			if chk := conflicts[f.Name]; chk != nil {
				if msg := chk(); msg != "" {
					bad = append(bad, msg)
				}
			}
		})
		if len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "yarrp6: -resume: the checkpoint pins the campaign configuration; conflicting flags:")
			for _, m := range bad {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
			fmt.Fprintln(os.Stderr, "yarrp6: drop these flags, or set them to the artifact's values shown above")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "yarrp6: resuming from %s on vantage %s (%s): %d targets, %d shard(s), batch %d, %s, %g pps\n",
			*resume, *vantage, v.Addr(), info.Targets, info.Shards, info.Batch, transportOfProto(info.Proto), info.PPS)
	}

	// The checkpoint file opens before the campaign runs: an unwritable
	// path must fail fast, not after minutes of probing.
	var ckptFile *os.File
	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		ckptFile = f
	}

	// Telemetry registry: created for the HTTP endpoint, and also useful
	// on its own so the campaign summary can report cache effectiveness.
	var reg *beholder.TelemetryRegistry
	if *telAddr != "" {
		reg = beholder.NewTelemetry()
		bound, err := beholder.ServeTelemetry(*telAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "yarrp6: telemetry on http://%s/metrics (profiles at /debug/pprof/)\n", bound)
	}
	var progW io.Writer
	if *progress == "-" {
		progW = os.Stderr
	} else if *progress != "" {
		f, err := os.Create(*progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		bw := bufio.NewWriter(f)
		defer func() { bw.Flush(); f.Close() }()
		progW = bw
	}

	var res *beholder.Result
	var err error
	switch {
	case *resume != "" && info.Adaptive:
		res, err = v.ResumeYarrp6(resumeArt, beholder.YarrpOptions{
			Telemetry: reg, Progress: progW, ProgressPerShard: *progShard,
			InterruptAt: *interrupt,
			Adaptive:    &beholder.AdaptiveOptions{AliasMinHits: *adAPD, Seeds: targets},
		})
	case *resume != "":
		res, err = v.ResumeYarrp6(resumeArt, beholder.YarrpOptions{
			Telemetry: reg, Progress: progW, ProgressPerShard: *progShard,
			InterruptAt: *interrupt,
		})
	default:
		opt := beholder.YarrpOptions{
			Rate: *rate, MaxTTL: *maxTTL, Transport: *transport, Fill: *fill, Key: *key,
			Shards: *shards, Batch: *batch, Graph: *graphOut != "",
			Telemetry: reg, Progress: progW, ProgressPerShard: *progShard,
			InterruptAt: *interrupt,
		}
		if *adaptive {
			opt.Adaptive = &beholder.AdaptiveOptions{
				Budget:       *adBudget,
				EpochTargets: *adPerEp,
				MaxEpochs:    *adEpochs,
				AliasMinHits: *adAPD,
			}
		}
		res, err = v.RunYarrp6(targets, opt)
	}
	interrupted := errors.Is(err, beholder.ErrInterrupted)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
		os.Exit(1)
	}
	if ckptFile != nil {
		if interrupted {
			if _, werr := ckptFile.Write(res.Checkpoint); werr != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", werr)
				os.Exit(1)
			}
			if werr := ckptFile.Close(); werr != nil {
				fmt.Fprintln(os.Stderr, "yarrp6:", werr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "yarrp6: interrupted at %s; checkpoint (%d bytes) written to %s\n",
				res.Elapsed, len(res.Checkpoint), *ckptPath)
		} else {
			// The campaign outran -interrupt-at (or none was set); no
			// artifact exists, so don't leave an empty file behind.
			ckptFile.Close()
			os.Remove(*ckptPath)
		}
	}
	if len(res.Quarantined) > 0 {
		fmt.Fprintf(os.Stderr, "yarrp6: %d shard(s) quarantined after fatal faults; %d range(s) unrecovered\n",
			len(res.Quarantined), len(res.Incomplete))
	}

	fmt.Printf("probes %d fills %d replies %d interfaces %d elapsed %s\n",
		res.ProbesSent, res.Fills, res.Replies, res.NumInterfaces(), res.Elapsed)
	fmt.Fprintf(os.Stderr, "yarrp6: plan cache %d hits / %d misses (%d evictions), %d shared-core hits\n",
		res.PlanHits, res.PlanMisses, res.PlanEvictions, res.SharedPlanHits)
	if *graphOut != "" {
		// AS-annotated from the simulator's BGP table; NDJSON or DOT by
		// file extension.
		if err := graph.WriteFile(*graphOut, res.Graph(), in.Universe().Table()); err != nil {
			fmt.Fprintln(os.Stderr, "yarrp6:", err)
			os.Exit(1)
		}
		g := res.Graph()
		fmt.Fprintf(os.Stderr, "yarrp6: graph %s: %d nodes, %d edges\n", *graphOut, g.NumNodes(), g.NumEdges())
	}
	if *hops {
		for _, t := range targets {
			path := res.Path(t)
			if len(path) == 0 {
				continue
			}
			fmt.Printf("%s\n", t)
			for _, h := range path {
				fmt.Printf("  %2d  %s\n", h.TTL, h.Addr)
			}
		}
	} else {
		ifaces := res.Interfaces()
		sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Less(ifaces[j]) })
		for _, a := range ifaces {
			fmt.Println(a)
		}
	}
}

// writeMemProfile dumps a garbage-collected heap profile, so hot-path
// allocation regressions can be diagnosed without editing code.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "yarrp6:", err)
	}
}

func readTargets(path string) ([]netip.Addr, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []netip.Addr
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		a, err := netip.ParseAddr(line)
		if err != nil {
			return nil, fmt.Errorf("bad target %q: %w", line, err)
		}
		out = append(out, a)
	}
	return out, sc.Err()
}
