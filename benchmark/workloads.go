package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// Every workload runs these four benchmarks under core.CampaignSetup():
// two pinout-heavy programs (qsort, fft) and two quiet ones (caes, sha),
// from 13k to 42k microarch cycles.
var benches = []string{"qsort", "caes", "fft", "sha"}

// window is the pinout observation window of the windowed workloads, the
// default of cmd/paper.
const window = 500

// defaultScale sizes a pass to about 3 s on two cores: the driver makes
// some ninety runs inside one hour, so a run has half a minute for set-up
// and three timed passes. Injections per campaign scale uniformly; the
// workloads and the pass count do not.
const defaultScale = 0.5

// targets are the two structures the paper compares across levels.
var targets = []struct {
	short string
	t     fault.Target
}{{"rf", fault.TargetRF}, {"l1d", fault.TargetL1D}}

// workload is one named set of inputs. Names are fixed: later issues cite
// them.
type workload struct {
	Name string
	Why  string

	// Injections per campaign at scale 1.
	Injections int

	// Local workloads: the model under test and the campaign config of
	// one target. Fleet is set instead for the cross-level matrix.
	Model  core.Model
	Config func(t fault.Target) campaign.Config
	Fleet  bool
}

var workloads = []workload{
	{
		Name:       "ma_windowed",
		Why:        "microarch, 500-cycle window, stream schedule: snapshot restore, fast-forward and pinout compare are the bulk; the RTL kernel is idle",
		Injections: 1000,
		Model:      core.ModelMicroarch,
		Config: func(t fault.Target) campaign.Config {
			return campaign.Config{Target: t, Window: window, Obs: campaign.ObsPinout}
		},
	},
	{
		Name:       "rtl_windowed",
		Why:        "RTL, 64-lane batch replay, advance-to-use on l1d: the RTL kernel, lane stepping and lane peel do the work; the microarch kernel is idle",
		Injections: 600,
		Model:      core.ModelRTL,
		Config: func(t fault.Target) campaign.Config {
			return campaign.Config{
				Target: t, Window: window, Obs: campaign.ObsPinout,
				AdvanceToUse: t == fault.TargetL1D,
			}
		},
	},
	{
		Name:       "ma_runtoend",
		Why:        "microarch run to end with early stop, dead pruning, cursor forks and quantile snapshots: the same layers used for long runs and per-cycle hashing",
		Injections: 300,
		Model:      core.ModelMicroarch,
		Config: func(t fault.Target) campaign.Config {
			return campaign.Config{
				Target: t, Obs: campaign.ObsCombined, EarlyStop: true,
				Prune: campaign.PruneDead, Sched: campaign.SchedCursor,
				SnapPolicy: campaign.SnapQuantile,
			}
		},
	},
	{
		Name:       "fleet_xlevel",
		Why:        "Figure 1 + Figure 2 on both levels through a loopback coordinator and two workers: the only run with leases, JSON wire and merge on the path",
		Injections: 128,
		Fleet:      true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// injections is the per-campaign sample size at a scale.
func (w workload) injections(scale float64) int {
	return max(2, int(math.Round(float64(w.Injections)*scale)))
}

// matrix builds a local workload's campaigns, group-major so both targets
// of one benchmark share a golden run.
func (w workload) matrix(seed int64, inj, workers int) ([]campaign.SweepCampaign, error) {
	setup := core.CampaignSetup()
	var camps []campaign.SweepCampaign
	for _, b := range benches {
		wl, err := bench.ByName(b)
		if err != nil {
			return nil, err
		}
		prog, err := wl.Program()
		if err != nil {
			return nil, err
		}
		fac := core.Factory(w.Model, prog, setup)
		for _, tg := range targets {
			cfg := w.Config(tg.t)
			cfg.Injections, cfg.Workers = inj, workers
			// Every campaign draws its own plan. With one seed for all,
			// the eight plans would share their random draws, and the
			// work of a run would vary with the seed as if it had an
			// eighth of the faults.
			cfg.Seed = seed*int64(len(benches)*len(targets)) + int64(len(camps))
			camps = append(camps, campaign.SweepCampaign{
				Key:     w.Name + "/" + tg.short + "/" + b,
				Group:   w.Model.String() + "/" + b,
				Factory: fac,
				Config:  cfg,
			})
		}
	}
	return camps, nil
}

// fleetParams is the cross-level matrix as cmd/paper -fig 1/2 plans it.
func fleetParams(seed int64, inj, workers int, runner core.SweepRunner) core.Params {
	return core.Params{
		Injections: inj, Seed: seed, Window: window, Workers: workers,
		Setup: core.CampaignSetup(), Benches: benches, Runner: runner,
	}
}

// runFigures is the fleet workload's user-facing call; the same call with
// a nil runner is the local sweep it is compared against.
func runFigures(p core.Params) (map[string]*campaign.Result, []*core.FigureResult, error) {
	f1, err := p.Figure1()
	if err != nil {
		return nil, nil, err
	}
	f2, err := p.Figure2()
	if err != nil {
		return nil, nil, err
	}
	figs := []*core.FigureResult{f1, f2}
	out := make(map[string]*campaign.Result)
	for _, f := range figs {
		for _, s := range f.Series {
			for b, r := range s.Results {
				out[f.Name+"/"+s.Label+"/"+b] = r
			}
		}
	}
	return out, figs, nil
}

// mergeGolden is the union of two campaigns' golden-artifact needs, as
// Sweep merges them for the members of one group.
func mergeGolden(a, b campaign.GoldenOptions) campaign.GoldenOptions {
	a.Timeline = a.Timeline || b.Timeline
	a.Lifetime = a.Lifetime || b.Lifetime
	a.HashEvery = max(a.HashEvery, b.HashEvery)
	return a
}

// prepared is a local workload taken through the public set-up pieces.
type prepared struct {
	camps   []campaign.SweepCampaign
	goldens []*campaign.Golden  // per campaign
	planned []*campaign.Planned // per campaign
	fps     map[string]uint64   // golden fingerprint per group
}

// trackName is the span track of worker w.
func trackName(w int) string { return fmt.Sprintf("w%d", w) }

// fanOut runs fn on k worker tracks and records, per track, the wait for
// the slowest one as an idle span under that track's root.
func fanOut(rec *Recorder, roots []int, fn func(w int) error) error {
	k := len(roots)
	ends := make([]time.Time, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
			ends[w] = time.Now()
		}(w)
	}
	wg.Wait()
	done := time.Now()
	for w := 0; w < k; w++ {
		rec.Add(roots[w], trackName(w), "idle", "", ends[w], done)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepare is what a user pays before the first replay: assemble the
// programs, one PrepareGolden per golden group (in parallel, as Sweep
// runs them) and one PlanCampaign per campaign. roots are the open root
// spans of the worker tracks; with a nil recorder nothing is recorded.
func prepare(camps []campaign.SweepCampaign, rec *Recorder, roots []int) (*prepared, error) {
	type group struct {
		name    string
		factory campaign.Factory
		opts    campaign.GoldenOptions
		golden  *campaign.Golden
	}
	var groups []*group
	byName := make(map[string]*group)
	for _, c := range camps {
		opts := campaign.GoldenOptionsFor(c.Config)
		g, ok := byName[c.Group]
		if !ok {
			g = &group{name: c.Group, factory: c.Factory, opts: opts}
			byName[c.Group] = g
			groups = append(groups, g)
			continue
		}
		g.opts = mergeGolden(g.opts, opts)
	}

	var next atomic.Int64
	err := fanOut(rec, roots, func(w int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(groups) {
				return nil
			}
			g := groups[i]
			s := rec.Begin(roots[w], trackName(w), "golden_prep", g.name)
			gold, err := campaign.PrepareGolden(g.factory, g.opts)
			rec.End(s)
			if err != nil {
				return fmt.Errorf("golden %s: %w", g.name, err)
			}
			g.golden = gold
		}
	})
	if err != nil {
		return nil, err
	}

	p := &prepared{camps: camps, fps: make(map[string]uint64)}
	err = fanOut(rec, roots, func(w int) error {
		if w != 0 {
			return nil
		}
		for _, c := range camps {
			g := byName[c.Group].golden
			s := rec.Begin(roots[0], trackName(0), "plan", c.Key)
			pl, err := g.PlanCampaign(c.Config)
			rec.End(s)
			if err != nil {
				return fmt.Errorf("plan %s: %w", c.Key, err)
			}
			p.goldens = append(p.goldens, g)
			p.planned = append(p.planned, pl)
			p.fps[c.Group] = g.Fingerprint()
		}
		return nil
	})
	return p, err
}

// assembleAll assembles every benchmark program from source. The bench
// package caches its own copy, so set-up timing assembles afresh.
func assembleAll() error {
	for _, b := range benches {
		wl, err := bench.ByName(b)
		if err != nil {
			return err
		}
		if _, err := asm.Assemble(b+".s", wl.Source()); err != nil {
			return err
		}
	}
	return nil
}
