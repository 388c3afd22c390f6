package main

// Inputs, result digests and the measured-campaign loop the workloads
// share.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"beholder"
	"beholder/internal/core"
	"beholder/internal/graph"
	"beholder/internal/probe"
	"beholder/internal/seeds"
	"beholder/internal/target"
)

const (
	vantageName = "US-EDU-1"
	campaignPPS = 20000
	campaignTTL = 16
)

// universeSeed fixes the simulated Internet every workload probes —
// beholderd's default -sim-seed. The Internet is the environment, not
// an input: the workload seed varies what is sent into it (permutation
// keys, hence probe order and the adaptive generator's draws), so runs
// on different seeds stay comparable.
const universeSeed = 2018

func newInternet(sz size) *beholder.Internet {
	if sz.small {
		return beholder.NewSmallInternet(universeSeed)
	}
	return beholder.NewInternet(universeSeed)
}

// campaignKey derives a workload's permutation key from the seed.
func campaignKey(seed int64) uint64 { return uint64(seed)*0x9e3779b97f4a7c15 + 1 }

// resultDigest hashes a campaign's store, its graph when it has one,
// and its interface count.
func resultDigest(st *probe.Store, g *graph.Graph, in *beholder.Internet) string {
	d := newDigest()
	d.Write(st.AppendBinary(nil))
	if g != nil {
		g.WriteNDJSON(d, in.Universe().Table())
	}
	d.int(st.NumInterfaces())
	return d.sum()
}

func addrsDigest(as []netip.Addr) string {
	d := newDigest()
	for _, a := range as {
		b := a.As16()
		d.Write(b[:])
	}
	return d.sum()
}

// setupTimes splits a traced set-up by layer.
type setupTimes struct{ universe, seedLists, targets time.Duration }

func (s setupTimes) report(r *report) {
	r.set("setup.universe_s", "s", s.universe.Seconds())
	r.set("setup.seed_lists_s", "s", s.seedLists.Seconds())
	r.set("setup.targets_s", "s", s.targets.Seconds())
}

// tracedTargetSets makes the calls Internet.TargetSet makes — seed-list
// generation, then the zn/synthesis pipeline — timing each, for the
// lowbyte1 /64 sets of the named lists.
func tracedTargetSets(in *beholder.Internet, scale float64, names []string, st *setupTimes) [][]netip.Addr {
	var out [][]netip.Addr
	for _, name := range names {
		t0 := time.Now()
		lists, _ := seeds.All(in.Universe(), universeSeed, seeds.Scale(scale))
		t1 := time.Now()
		rng := rand.New(rand.NewSource(universeSeed))
		set := target.Build(lists[name], target.Spec{SeedName: name, ZN: 64, Synth: target.LowByte1}, rng)
		out = append(out, set.Targets.Addrs())
		st.seedLists += t1.Sub(t0)
		st.targets += time.Since(t1)
	}
	return out
}

// repResult is one measured campaign.
type repResult struct {
	wall   time.Duration
	probes int64
	allocs uint64
	ifaces int
	digest string
	rss    float64
}

// measureReps alternates a set-up and a campaign on its inputs until at
// least sz.minReps campaigns have run and the run time is spent, and
// returns the campaigns, the set-up times and the last inputs. Spreading
// the campaigns over the whole run, instead of running them after all
// set-ups, samples more of the host's speed swings. Every campaign must
// produce the same result.
func measureReps(cfg config, r *report, setup func() ([]netip.Addr, error), rep func([]netip.Addr) (repResult, error)) ([]repResult, []float64, []netip.Addr, error) {
	var reps []repResult
	var setups []float64
	var inputs []netip.Addr
	start := time.Now()
	for len(reps) < cfg.sz.minReps || time.Since(start).Seconds() < cfg.seconds {
		inputs = nil
		gcQuiesce()
		t0 := time.Now()
		in, err := setup()
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inputs = in
		res, err := rep(inputs)
		r.attempted++
		if err != nil {
			r.failed++
			r.note("campaign failed: %v", err)
			if len(reps) == 0 && r.attempted >= cfg.sz.minReps {
				return nil, nil, nil, err
			}
			continue
		}
		if len(reps) > 0 && res.digest != reps[0].digest {
			r.fail("campaign %d digest %s differs from the first campaign's %s", len(reps), res.digest, reps[0].digest)
		}
		reps = append(reps, res)
	}
	r.note("set-ups %v s", setups)
	return reps, setups, inputs, nil
}

// reportReps fills the end-to-end metrics of a repeated-campaign
// workload: medians over campaigns, and the first campaign's memory
// high-water mark.
func reportReps(r *report, reps []repResult, setups []float64) {
	var pps, app, lat []float64
	var wall float64
	for _, x := range reps {
		pps = append(pps, float64(x.probes)/x.wall.Seconds())
		app = append(app, float64(x.allocs)/float64(x.probes))
		lat = append(lat, x.wall.Seconds())
		wall += x.wall.Seconds()
	}
	r.set("probes_per_s", "probes/s", median(pps))
	r.set("allocs_per_probe", "objects/probe", median(app))
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", reps[0].rss)
	r.set("ifaces_per_kprobe", "ifaces/kprobe", float64(reps[0].ifaces)*1000/float64(reps[0].probes))
	r.set("campaigns_per_s", "1/s", float64(len(reps))/wall)
	r.set("campaign_p50_s", "s", median(lat))
	r.set("campaign_p90_s", "s", quantile(lat, 0.9))
	r.note("%d campaigns (latency samples); probes/s per campaign %v", len(reps), pps)
}

// checkDigest compares a run's result digest with the pinned one, or —
// on a seed without a pin — with the traced run's.
func checkDigest(cfg config, r *report, got, want string, traced func() (string, error)) error {
	if want != "" {
		if got != want {
			r.fail("result digest %s, pinned %s", got, want)
		} else {
			r.note("result digest %s matches the pin", got)
		}
		return nil
	}
	td, err := traced()
	if err != nil {
		return err
	}
	if td != got {
		r.fail("untraced digest %s differs from traced digest %s", got, td)
	} else {
		r.note("no pin for seed %d: untraced digest %s equals the traced run's", cfg.seed, got)
	}
	return nil
}

// campaignFailure reports a campaign that completed degraded: a
// quarantined shard, an unprobed range, or a retried send.
func campaignFailure(quarantined []int, incomplete []core.PermRange, shards []core.Stats) error {
	if len(quarantined) > 0 || len(incomplete) > 0 {
		return fmt.Errorf("degraded: quarantined shards %v, incomplete ranges %v", quarantined, incomplete)
	}
	for i, s := range shards {
		if s.Retries > 0 {
			return fmt.Errorf("shard %d retried %d sends", i, s.Retries)
		}
	}
	return nil
}
