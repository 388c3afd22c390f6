package main

// Process-level measurements and the result record every workload
// fills in.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's figures and verdicts.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	checks    []string // failed output checks; empty when correct
	notes     []string // human-readable lines printed before the result
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// digest hashes result artifacts into a short hex string.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d *digest) int(n int) { d.h.Write([]byte(strconv.Itoa(n) + "\n")) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds returns cumulative GC CPU and total CPU seconds as the
// runtime estimates them.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSampler records the GC's share of CPU time and the peak live
// heap over a traced phase.
type runtimeSampler struct {
	stop, done chan struct{}
	peak       uint64 // written by the sampling goroutine until done closes
	gc0, cpu0  float64
}

func startRuntimeSampler() *runtimeSampler {
	gcQuiesce()
	s := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.gc0, s.cpu0 = cpuSeconds()
	go func() {
		defer close(s.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			s.peak = max(s.peak, heap[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the GC CPU fraction and the peak
// heap in MB.
func (s *runtimeSampler) finish() (gcFrac, heapMB float64) {
	gc1, cpu1 := cpuSeconds()
	close(s.stop)
	<-s.done
	if cpu1 > s.cpu0 {
		gcFrac = (gc1 - s.gc0) / (cpu1 - s.cpu0)
	}
	return gcFrac, float64(s.peak) / (1 << 20)
}

// gcQuiesce collects garbage left by a previous phase so it does not
// count against the next one.
func gcQuiesce() { runtime.GC() }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
