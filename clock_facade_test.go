package beholder

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"
)

// clockMark is the vantage timeline after one facade run: the facade's
// campaign clock, the vantage connection's own clock, and the run's
// reported span.
type clockMark struct {
	clk, now, elapsed time.Duration
}

// msMark builds a clockMark from millisecond values.
func msMark(clk, now, elapsed int64) clockMark {
	return clockMark{time.Duration(clk) * time.Millisecond, time.Duration(now) * time.Millisecond, time.Duration(elapsed) * time.Millisecond}
}

func (m clockMark) String() string {
	return fmt.Sprintf("{%d, %d, %d}", m.clk, m.now, m.elapsed)
}

// TestFacadeClockBookkeeping pins how every facade entry point advances
// the vantage's virtual timeline: Vantage.clk (where the next run's
// shard windows open), the vantage connection's clock, and
// Result.Elapsed. Back-to-back runs on one vantage make each step
// depend on the one before, so a change to the bookkeeping of any
// entry point shows up here.
func TestFacadeClockBookkeeping(t *testing.T) {
	const interruptAt = 300 * time.Millisecond
	setup := func() (*Internet, *Vantage, []netip.Addr) {
		in := NewSmallInternet(3)
		v := in.NewVantage("clock-test")
		targets, err := in.TargetSet("caida", 64, "lowbyte1", 0.2)
		if err != nil {
			t.Fatal(err)
		}
		return in, v, targets
	}
	static := func(shards int) YarrpOptions {
		return YarrpOptions{Rate: 2000, MaxTTL: 12, Key: 1, Shards: shards}
	}
	adaptive := func(in *Internet) YarrpOptions {
		seeds := in.SeedLists(0.2)["dnsdb"].Addrs.Addrs()
		return YarrpOptions{Rate: 4000, MaxTTL: 12, Key: 7, Shards: 2,
			Adaptive: &AdaptiveOptions{Budget: 6000, EpochTargets: 64, MaxEpochs: 4, Seeds: seeds}}
	}
	mark := func(v *Vantage, res *Result) clockMark {
		return clockMark{v.clk, v.v.Now(), res.Elapsed}
	}
	// interrupted checks that a run stopped at interruptAt with a
	// resume artifact.
	interrupted := func(t *testing.T, res *Result, err error) {
		if !errors.Is(err, ErrInterrupted) || len(res.Checkpoint) == 0 {
			t.Fatalf("interrupt run: err %v, checkpoint %d bytes", err, len(res.Checkpoint))
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T) []clockMark
		want []clockMark
	}{
		{
			name: "static-1-shard-twice",
			run: func(t *testing.T) []clockMark {
				_, v, targets := setup()
				var out []clockMark
				for i := 0; i < 2; i++ {
					res, err := v.RunYarrp6(targets, static(1))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, mark(v, res))
				}
				return out
			},
			want: []clockMark{msMark(5792, 5792, 5792), msMark(11584, 11584, 5792)},
		},
		{
			name: "static-2-shards-graph-then-1-shard",
			run: func(t *testing.T) []clockMark {
				_, v, targets := setup()
				opt := static(2)
				opt.Graph = true
				res, err := v.RunYarrp6(targets, opt)
				if err != nil {
					t.Fatal(err)
				}
				out := []clockMark{mark(v, res)}
				res, err = v.RunYarrp6(targets, static(1))
				if err != nil {
					t.Fatal(err)
				}
				return append(out, mark(v, res))
			},
			want: []clockMark{msMark(5792, 5792, 5792), msMark(11584, 11584, 5792)},
		},
		{
			name: "static-interrupt-resume",
			run: func(t *testing.T) []clockMark {
				var out []clockMark
				for _, shards := range []int{1, 2} {
					_, v, targets := setup()
					opt := static(shards)
					opt.InterruptAt = interruptAt
					part, err := v.RunYarrp6(targets, opt)
					interrupted(t, part, err)
					out = append(out, mark(v, part))
					res, err := v.ResumeYarrp6(part.Checkpoint, YarrpOptions{})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, mark(v, res))
				}
				return out
			},
			want: []clockMark{msMark(300, 300, 300), msMark(5792, 6092, 5792), msMark(1896, 1896, 1896), msMark(5792, 7688, 5792)},
		},
		{
			name: "adaptive-run",
			run: func(t *testing.T) []clockMark {
				in, v, _ := setup()
				opt := adaptive(in)
				res, err := v.RunYarrp6(opt.Adaptive.Seeds, opt)
				if err != nil {
					t.Fatal(err)
				}
				return []clockMark{mark(v, res)}
			},
			want: []clockMark{msMark(8768, 8768, 8768)},
		},
		{
			name: "adaptive-interrupt-resume",
			run: func(t *testing.T) []clockMark {
				in, v, _ := setup()
				opt := adaptive(in)
				opt.InterruptAt = interruptAt
				part, err := v.RunYarrp6(opt.Adaptive.Seeds, opt)
				interrupted(t, part, err)
				out := []clockMark{mark(v, part)}
				opt.InterruptAt = 0
				res, err := v.ResumeYarrp6(part.Checkpoint, opt)
				if err != nil {
					t.Fatal(err)
				}
				return append(out, mark(v, res))
			},
			want: []clockMark{msMark(2096, 2096, 2096), msMark(8768, 10864, 8768)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("clock marks {clk, now, elapsed}:\n got  %v\n want %v", got, tc.want)
			}
		})
	}
}
