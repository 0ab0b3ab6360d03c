package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Probe sizes are fixed iteration counts, so the counts among the layer
// metrics repeat exactly from run to run.
const (
	probeStateOps   = 100    // snapshots, restores and state hashes per benchmark
	probeStateGap   = 64     // cycles stepped between two of them (the engine's hash stride)
	probePlanFaults = 20_000 // planner, pruner and collector probes
	probeSpecs      = 200_000
	probeObserves   = 1_000_000
	probeCompares   = 20_000
	probeReplays    = 150 // scalar replays per campaign: 1200 samples over the matrix
	probeBuilds     = 5
)

// since times one call.
func since(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func programs() ([]*asm.Program, error) {
	var out []*asm.Program
	for _, b := range benches {
		wl, err := bench.ByName(b)
		if err != nil {
			return nil, err
		}
		p, err := wl.Program()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// probes measures the layers a workload exercises, each from outside
// through its exported functions, and leaves the rest at 0.
func probes(m map[string]float64, w workload, rc runConfig) error {
	progs, err := programs()
	if err != nil {
		return err
	}
	var models []core.Model
	if w.Model == core.ModelMicroarch || w.Fleet {
		models = append(models, core.ModelMicroarch)
	}
	if w.Model == core.ModelRTL || w.Fleet {
		models = append(models, core.ModelRTL)
	}
	var pin *trace.Pinout
	for _, model := range models {
		p, err := kernelProbe(m, model, progs)
		if err != nil {
			return err
		}
		if pin == nil {
			pin = p
		}
	}
	if err := goldenProbe(m, w, models, progs); err != nil {
		return err
	}
	if err := plannerProbe(m, w, models[0], progs[0]); err != nil {
		return err
	}
	if w.Name == "ma_windowed" {
		if err := scalarReplayProbe(m, w, rc); err != nil {
			return err
		}
		// A window's worth of compare over the busiest golden pinout.
		d := since(func() {
			for i := 0; i < probeCompares; i++ {
				from := uint64(i%50) * 512
				trace.CompareWindow(pin, pin, from, from+window, trace.CompareContent)
			}
		})
		m["trace.compare_window_us"] = d.Seconds() * 1e6 / probeCompares
	}
	var builds []float64
	for i := 0; i < probeBuilds; i++ {
		var err error
		d := since(func() { err = assembleAll() })
		if err != nil {
			return err
		}
		builds = append(builds, d.Seconds()*1e3)
	}
	m["bench.program_build_ms"] = median(builds)
	return nil
}

// kernelProbe runs each benchmark bare to its exit on one model, with
// nothing of the campaign engine around it, then times snapshot, restore
// and state hash mid-run. It returns the first benchmark's pinout.
func kernelProbe(m map[string]float64, model core.Model, progs []*asm.Program) (*trace.Pinout, error) {
	prefix := map[core.Model]string{core.ModelMicroarch: "microarch.", core.ModelRTL: "rtlcore."}[model]
	setup := core.CampaignSetup()
	var cycles, txns, mallocs, bytes uint64
	var run, snap, restore, hash time.Duration
	var first *trace.Pinout
	for _, p := range progs {
		sim, err := core.NewSimulator(model, p, setup)
		if err != nil {
			return nil, err
		}
		pin := &trace.Pinout{}
		sim.SetPinout(pin)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run += since(func() { sim.Run(1 << 40) })
		runtime.ReadMemStats(&m1)
		cycles += sim.Cycles()
		txns += uint64(pin.Len())
		mallocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		if first == nil {
			first = pin
		}

		// State operations from a quarter into the run, each after a
		// stretch of stepping so the state has changed since the last
		// one, as it has in a replay. The restore returns to the
		// iteration's snapshot, so the walk ends before the program does.
		n := sim.Cycles()
		sim, err = core.NewSimulator(model, p, setup)
		if err != nil {
			return nil, err
		}
		sim.Run(n / 4)
		step := func() {
			for i := 0; i < probeStateGap; i++ {
				sim.Step()
			}
		}
		for i := 0; i < probeStateOps; i++ {
			var s campaign.Snapshot
			step()
			snap += since(func() { s = sim.Snapshot() })
			step()
			hash += since(func() { sim.StateHash() })
			step()
			restore += since(func() { sim.Restore(s) })
		}
	}
	ops := float64(probeStateOps * len(progs))
	m[prefix+"golden_mcyc_per_s"] = float64(cycles) / 1e6 / run.Seconds()
	m[prefix+"allocs_per_cycle"] = float64(mallocs) / float64(cycles)
	if model == core.ModelMicroarch {
		m[prefix+"alloc_bytes_per_cycle"] = float64(bytes) / float64(cycles)
	}
	m[prefix+"snapshot_us"] = snap.Seconds() * 1e6 / ops
	m[prefix+"restore_us"] = restore.Seconds() * 1e6 / ops
	m[prefix+"statehash_us"] = hash.Seconds() * 1e6 / ops
	m[prefix+"golden_cycles"] = float64(cycles)
	m[prefix+"pinout_txns"] = float64(txns)
	return first, nil
}

// goldenProbe times PrepareGolden over the four benchmarks with the plain
// options and, where the workload records them, with one artifact on.
func goldenProbe(m map[string]float64, w workload, models []core.Model, progs []*asm.Program) error {
	setup := core.CampaignSetup()
	prep := func(opts campaign.GoldenOptions) (float64, *campaign.Golden, error) {
		var total time.Duration
		var last *campaign.Golden
		for _, model := range models {
			for _, p := range progs {
				var err error
				total += since(func() { last, err = campaign.PrepareGolden(core.Factory(model, p, setup), opts) })
				if err != nil {
					return 0, nil, err
				}
			}
		}
		return total.Seconds(), last, nil
	}
	plain, _, err := prep(campaign.GoldenOptions{})
	if err != nil {
		return err
	}
	m["campaign.golden_prep_s"] = plain
	if w.Name != "ma_runtoend" {
		return nil
	}
	for name, opts := range map[string]campaign.GoldenOptions{
		"hash":     {HashEvery: 64},
		"lifetime": {Lifetime: true},
		"quantile": {SnapPolicy: campaign.SnapQuantile},
	} {
		t, g, err := prep(opts)
		if err != nil {
			return err
		}
		m["campaign.golden_"+name+"_overhead_frac"] = t/plain - 1
		if name == "lifetime" {
			m["lifetime.events_per_kcycle"] = float64(g.LifetimeEvents()) / float64(g.Cycles) * 1000
		}
	}
	return nil
}

// plannerProbe times the planner, the pruner and the collector with no
// replay between them: PlanCampaign and a drain of NextReplay, then a
// Deliver of canned outcomes, then the fault generator and the sequential
// estimator underneath them on their own.
func plannerProbe(m map[string]float64, w workload, model core.Model, prog *asm.Program) error {
	cfg := campaign.Config{Target: fault.TargetRF, Window: window}
	if !w.Fleet {
		cfg = w.Config(fault.TargetRF)
	}
	cfg.Injections, cfg.Seed = probePlanFaults, 1
	g, err := campaign.PrepareGolden(core.Factory(model, prog, core.CampaignSetup()), campaign.GoldenOptionsFor(cfg))
	if err != nil {
		return err
	}

	type job struct {
		idx  int
		spec fault.Spec
	}
	var jobs []job
	var p *campaign.Planned
	d := since(func() {
		if p, err = g.PlanCampaign(cfg); err != nil {
			return
		}
		for {
			idx, spec, ok := p.NextReplay()
			if !ok {
				return
			}
			jobs = append(jobs, job{idx, spec})
		}
	})
	if err != nil {
		return err
	}
	m["campaign.plan_us_per_fault"] = d.Seconds() * 1e6 / probePlanFaults

	d = since(func() {
		for _, j := range jobs {
			oc := campaign.RunOutcome{Spec: j.spec, Class: campaign.ClassMasked, EndCycle: j.spec.Cycle + window}
			if err = p.Deliver(j.idx, oc); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m["campaign.collect_us_per_outcome"] = d.Seconds() * 1e6 / float64(len(jobs))

	if cfg.Prune != campaign.PruneOff {
		specs, err := g.Plan(cfg)
		if err != nil {
			return err
		}
		d = since(func() {
			for _, s := range specs {
				g.PruneVerdict(s, cfg)
			}
		})
		m["campaign.prune_verdict_ns"] = d.Seconds() * 1e9 / float64(len(specs))
	}

	gen, err := fault.NewGenerator(fault.TargetRF, 4096, g.Cycles, fault.DistNormal, fault.Params{}, rand.New(rand.NewSource(1)))
	if err != nil {
		return err
	}
	d = since(func() {
		for i := 0; i < probeSpecs; i++ {
			gen.Next()
		}
	})
	m["fault.plan_ns_per_spec"] = d.Seconds() * 1e9 / probeSpecs

	classes := []int{int(campaign.ClassMasked), int(campaign.ClassMismatch), int(campaign.ClassSDC), int(campaign.ClassCrash), int(campaign.ClassHang)}
	seq, err := stats.NewSequential(0.99, classes...)
	if err != nil {
		return err
	}
	d = since(func() {
		for i := 0; i < probeObserves; i++ {
			seq.Observe(classes[i%len(classes)])
		}
	})
	m["stats.observe_ns"] = d.Seconds() * 1e9 / probeObserves
	return nil
}

// scalarReplayProbe replays the windowed microarch matrix one fault at a
// time through Golden.ReplayOne on one goroutine, timing every replay.
// Against the bare kernel's rate this is the per-cycle tax a replay pays
// for restore, fast-forward, compare and the engine around them.
func scalarReplayProbe(m map[string]float64, w workload, rc runConfig) error {
	camps, err := w.matrix(planSeed(rc.seed, 0), probeReplays, 1)
	if err != nil {
		return err
	}
	p, err := prepare(camps, nil, make([]int, 1))
	if err != nil {
		return err
	}
	var us []float64
	var total time.Duration
	var cycles uint64
	for i, c := range camps {
		sim, err := c.Factory()
		if err != nil {
			return err
		}
		g, pl := p.goldens[i], p.planned[i]
		cfg := pl.Config()
		for {
			idx, spec, ok := pl.NextReplay()
			if !ok {
				break
			}
			var oc campaign.RunOutcome
			d := since(func() { oc, err = g.ReplayOne(sim, spec, cfg) })
			if err != nil {
				return err
			}
			us = append(us, d.Seconds()*1e6)
			total += d
			if err := pl.Deliver(idx, oc); err != nil {
				return err
			}
		}
		res, err := pl.Result(total)
		if err != nil {
			return err
		}
		cycles += res.CyclesSimulated
	}
	m["campaign.replay_scalar_us_p50"] = percentile(us, 0.50)
	m["campaign.replay_scalar_us_p99"] = percentile(us, 0.99)
	rate := float64(cycles) / 1e6 / total.Seconds()
	m["campaign.replay_mcyc_per_s"] = rate
	m["campaign.replay_tax_x"] = m["microarch.golden_mcyc_per_s"] / rate
	m["campaign.restore_share_frac"] = m["microarch.restore_us"] * float64(len(us)) / (total.Seconds() * 1e6)
	return nil
}
