package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
)

// runConfig is one run's protocol: closed loop, one process, `workers`
// goroutines on as many cores.
type runConfig struct {
	scale     float64
	workers   int
	seed      int64
	seconds   float64 // timed passes repeat until this much is measured
	setupReps int     // set-up is timed this often, median reported
	minPasses int     // at least this many timed passes
	warmup    bool    // one untimed pass at a tenth of the plan first
	outDir    string  // where the traced run writes its spans
}

// passStats is one timed call of a workload's user-facing entry point.
type passStats struct {
	wall, cpu float64
	alloc     uint64
	faults    int
	gcCycles  uint32
	gcPauseMs float64
	results   map[string]*campaign.Result
	figs      []*core.FigureResult // fleet workload only
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass returns the workload's user-facing call for one pass and what to
// tear down afterwards. A fleet is started before the clock and stopped
// after it; hooks tap it for the traced run.
func (w workload) pass(seed int64, inj, workers int, hooks *fleetHooks) (call func() (map[string]*campaign.Result, []*core.FigureResult, error), done func() error, err error) {
	if w.Fleet {
		f := startFleet(fleetWorkers, hooks)
		p := fleetParams(seed, inj, workers, f.client.SweepRunner())
		return func() (map[string]*campaign.Result, []*core.FigureResult, error) { return runFigures(p) }, f.stop, nil
	}
	camps, err := w.matrix(seed, inj, workers)
	if err != nil {
		return nil, nil, err
	}
	call = func() (map[string]*campaign.Result, []*core.FigureResult, error) {
		sr, err := campaign.Sweep(camps, campaign.SweepOptions{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return sr.Results, nil, nil
	}
	return call, func() error { return nil }, nil
}

// timedPass runs one pass and measures it from outside the call.
func (w workload) timedPass(seed int64, inj, workers int, hooks *fleetHooks) (passStats, error) {
	call, done, err := w.pass(seed, inj, workers, hooks)
	if err != nil {
		return passStats{}, err
	}
	// Start every pass from a collected heap, so one pass's garbage is
	// not another's collection work.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	results, figs, err := call()
	wall, c1 := time.Since(t0).Seconds(), cpuSeconds()
	runtime.ReadMemStats(&m1)
	if derr := done(); err == nil {
		err = derr
	}
	if err != nil {
		return passStats{}, err
	}
	ps := passStats{
		wall: wall, cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC, gcPauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		results: results, figs: figs,
	}
	for _, r := range results {
		ps.faults += len(r.Outcomes)
	}
	return ps, nil
}

// setupOnce times what a user pays before the first replay. For a local
// workload it also returns the golden fingerprints it saw.
func (w workload) setupOnce(seed int64, inj, workers int) (time.Duration, map[string]uint64, error) {
	if w.Fleet {
		d, err := fleetSetup(seed, inj, workers)
		return d, nil, err
	}
	runtime.GC()
	start := time.Now()
	if err := assembleAll(); err != nil {
		return 0, nil, err
	}
	camps, err := w.matrix(seed, inj, workers)
	if err != nil {
		return 0, nil, err
	}
	p, err := prepare(camps, nil, make([]int, workers))
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), p.fps, nil
}

// maxPasses bounds the timed passes of one run, so that every pass has a
// plan seed of its own.
const maxPasses = 16

// planSeed is the seed of the fault plans of one pass. Every pass of a run
// draws fresh plans from the run's seed: the work of a pass varies with
// its plans by several percent, and passes over distinct plans let the
// median damp that variation along with the machine's noise.
func planSeed(seed int64, pass int) int64 { return seed*maxPasses + int64(pass) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// series is a metric's value on every repeat; the median is reported and
// the extremes are kept as its spread.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, v := range s {
		out[k] = median(v)
	}
	return out
}

// outcome is what one run of one workload reports.
type outcome struct {
	metrics   map[string]float64
	spread    series // per-repeat values behind each median
	attempted int
	failed    int
	problems  []string
}

// runUntraced measures a workload's end-to-end metrics with tracing and
// the obs registry off.
func runUntraced(w workload, rc runConfig, e *expectations) (*outcome, error) {
	inj := w.injections(rc.scale)
	out := &outcome{spread: make(series)}

	for i := 0; i < rc.setupReps; i++ {
		d, fps, err := w.setupOnce(planSeed(rc.seed, 0), inj, rc.workers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.spread.add("setup_s", d.Seconds())
		if i == 0 {
			out.problems = append(out.problems, checkFingerprints(e, fps)...)
		}
	}
	if rc.warmup {
		if _, err := w.timedPass(planSeed(rc.seed, 0), max(2, inj/10), rc.workers, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	start := time.Now()
	for n := 0; n < maxPasses && (n < rc.minPasses || time.Since(start).Seconds() < rc.seconds); n++ {
		seed := planSeed(rc.seed, n)
		ps, err := w.timedPass(seed, inj, rc.workers, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		failed, problems := checkResults(e, w, seed, inj, ps.results)
		out.attempted += ps.faults
		out.failed += failed
		out.problems = append(out.problems, problems...)
		k := float64(ps.faults) / 1000
		out.spread.add("campaign_wall_s", ps.wall)
		out.spread.add("faults_per_s", float64(ps.faults)/ps.wall)
		out.spread.add("cpu_s_per_kfault", ps.cpu/k)
		out.spread.add("alloc_mb_per_kfault", float64(ps.alloc)/1e6/k)
	}
	out.metrics = out.spread.medians()
	return out, nil
}
