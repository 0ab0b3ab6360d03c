package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/protect"
	"repro/internal/stats"
)

// Params parameterises the paper's experiments. The paper used 4000
// injections per benchmark per component (Leveugle, 2% error at 99%
// confidence); smaller samples trade precision for wall time, with the
// widened confidence intervals reported alongside every estimate.
type Params struct {
	Injections int
	Seed       int64
	Window     uint64 // pinout observation window (the paper's 20k cycles)
	Workers    int
	Setup      Setup
	Benches    []string // nil = the paper's TABLE II benchmark list

	// Fault selects the fault model every figure's campaigns inject
	// (zero value = the paper's single transient bit flip). The
	// fault-model ablation (E9) sweeps all models itself and only
	// honours Fault.Burst and Fault.Span as its burst/intermittent
	// parameters.
	Fault fault.Params

	// Checkpoint enables streaming per-run outcome checkpoints (JSONL
	// shards) in this directory; an interrupted regeneration resumes
	// from them. Empty disables checkpointing.
	Checkpoint string

	// EarlyStop enables the adaptive engine's convergence exit in every
	// figure's campaigns: replays whose state digest reconverges with
	// golden are classified Masked immediately. Classes are unchanged
	// by construction; only cycles drop.
	EarlyStop bool

	// TargetError, when positive, enables sequential statistical
	// stopping in every figure's campaigns: injection dispatch stops
	// once each class proportion is within this margin at the
	// campaign confidence.
	TargetError float64

	// Lanes bounds bit-parallel lockstep replay width (both models, RF
	// and L1D targets) in every figure's campaigns: 0 selects the
	// default of 64, 1 forces the scalar engine. Classifications are
	// byte-identical at any width; see campaign.Config.Lanes.
	Lanes int

	// Prune enables golden-trace fault pruning in every figure's
	// campaigns: dead-interval faults classify Masked with zero replay
	// cycles (exact), and PruneClasses additionally replays one
	// representative per first-consumer equivalence class
	// (MeRLiN-style, approximate). The E11 ablation sweeps all three
	// modes itself.
	Prune campaign.PruneMode

	// Runner, when non-nil, executes every planned campaign matrix in
	// place of the local campaign.Sweep — cmd/paper -remote installs
	// the distributed client's runner here, so any figure regenerates
	// against a coordinator-fed worker fleet instead of this process.
	Runner SweepRunner

	// Stop, when non-nil, is forwarded to campaign.Sweep for graceful
	// interruption: the cmd entry points close it on SIGINT/SIGTERM so
	// checkpoint shards flush before exit.
	Stop <-chan struct{}
}

// MatrixItem is one campaign of a planned figure matrix plus the
// identity a remote runner needs to rebuild its simulator factory on
// another machine (the Factory closure itself cannot cross the wire).
type MatrixItem struct {
	Campaign campaign.SweepCampaign
	Workload string
	Model    Model
	Setup    string // Setup.Name, resolvable via ParseSetup
}

// SweepRunner executes a planned campaign matrix. The default (nil
// Params.Runner) strips the items down to their campaigns and runs
// campaign.Sweep locally; a distributed runner submits each item to a
// coordinator and assembles the same SweepResult from the fleet's
// merged outcomes — bit-identical by the shard-merge determinism
// contract, so figure assembly cannot tell the difference.
type SweepRunner func(items []MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error)

// DefaultParams returns laptop-scale defaults; cmd/paper exposes flags to
// raise Injections to the paper's 4000.
//
// The default window is 500 cycles: the paper's 20k-cycle timeout scaled
// by the ratio of its multi-million-cycle MiBench runs to this
// repository's 13k-520k-cycle scaled runs, so the window covers the same
// fraction (~0.1-4%) of the program. EXPERIMENTS.md discusses the
// scaling; pass the paper's absolute 20k via the -window flag to see the
// window saturate on these short runs.
func DefaultParams() Params {
	return Params{
		Injections: 400,
		Seed:       1,
		Window:     500,
		Setup:      CampaignSetup(),
	}
}

func (p Params) benchList() ([]*bench.Workload, error) {
	if p.Benches == nil {
		return bench.All(), nil
	}
	out := make([]*bench.Workload, 0, len(p.Benches))
	for _, name := range p.Benches {
		w, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// RunCampaign runs one standalone (workload, model) campaign.
func RunCampaign(workload string, m Model, setup Setup, cfg campaign.Config) (*campaign.Result, error) {
	w, err := bench.ByName(workload)
	if err != nil {
		return nil, err
	}
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	return campaign.Run(Factory(m, p, setup), cfg)
}

// RunCampaignOpts runs one standalone (workload, model) campaign
// through the sweep scheduler instead of campaign.Run, which buys it
// streaming JSONL checkpoints and graceful SweepOptions.Stop handling.
// Classification results are bit-identical to RunCampaign by the
// sweep's determinism contract; per-run timing is attributed busy time
// rather than private-pool wall time.
func RunCampaignOpts(workload string, m Model, setup Setup, cfg campaign.Config, opt campaign.SweepOptions) (*campaign.Result, error) {
	w, err := bench.ByName(workload)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	if opt.Workers <= 0 {
		opt.Workers = cfg.Workers
	}
	key := fmt.Sprintf("%s/%v", workload, m)
	sr, err := campaign.Sweep([]campaign.SweepCampaign{{
		Key:     key,
		Group:   sweepGroup(m, workload, setup),
		Factory: Factory(m, prog, setup),
		Config:  cfg,
	}}, opt)
	if err != nil {
		return nil, err
	}
	return sr.Results[key], nil
}

// Series is one bar group of a figure: a vulnerability estimate per
// benchmark for one (model, methodology) combination.
type Series struct {
	Label   string
	Vuln    map[string]stats.Proportion
	Results map[string]*campaign.Result
}

// FigureResult holds every series of one reproduced figure plus the
// paper's headline difference statistics between the first two series.
type FigureResult struct {
	Name    string
	Benches []string
	Series  []Series
	Diff    stats.AbsDiffStats

	// GoldenRuns counts the distinct golden runs backing this figure's
	// campaigns: series sharing a (model, benchmark) share one golden
	// run, so this is below len(Series)*len(Benches) whenever a figure
	// repeats a model (Fig. 1: 3 series but 2 golden runs/benchmark).
	// In a combined RunAll sweep the same goldens may also back other
	// figures; they are still counted once here.
	GoldenRuns int
}

// seriesSpec describes how to run one series of a figure.
type seriesSpec struct {
	label string
	model Model
	cfg   campaign.Config
}

// figurePlan is one figure's campaign matrix before scheduling.
type figurePlan struct {
	name    string
	benches []*bench.Workload // nil = p.benchList()
	series  []seriesSpec
}

// sweepGroup names the golden-sharing group of (model, workload) under a
// setup: every campaign in the group shares one golden run.
func sweepGroup(m Model, workload string, s Setup) string {
	return fmt.Sprintf("%v/%s/%s", m, s.Name, workload)
}

// sweepBuilder accumulates figure plans into one campaign matrix,
// reusing one factory (and one assembled program) per group.
type sweepBuilder struct {
	setup     Setup
	items     []MatrixItem
	factories map[string]campaign.Factory
}

func newSweepBuilder(setup Setup) *sweepBuilder {
	return &sweepBuilder{setup: setup, factories: make(map[string]campaign.Factory)}
}

func campaignKey(figure, label, workload string) string {
	return figure + "/" + label + "/" + workload
}

func (b *sweepBuilder) add(plan figurePlan) error {
	for _, sp := range plan.series {
		for _, w := range plan.benches {
			group := sweepGroup(sp.model, w.Name, b.setup)
			fac, ok := b.factories[group]
			if !ok {
				prog, err := w.Program()
				if err != nil {
					return err
				}
				fac = Factory(sp.model, prog, b.setup)
				b.factories[group] = fac
			}
			b.items = append(b.items, MatrixItem{
				Campaign: campaign.SweepCampaign{
					Key:     campaignKey(plan.name, sp.label, w.Name),
					Group:   group,
					Factory: fac,
					Config:  sp.cfg,
				},
				Workload: w.Name,
				Model:    sp.model,
				Setup:    b.setup.Name,
			})
		}
	}
	return nil
}

// sweep executes an accumulated matrix through the configured runner
// (local campaign.Sweep by default).
func (p Params) sweep(items []MatrixItem) (*campaign.SweepResult, error) {
	opt := campaign.SweepOptions{
		Workers: p.Workers, CheckpointDir: p.Checkpoint, Stop: p.Stop,
	}
	if p.Runner != nil {
		return p.Runner(items, opt)
	}
	camps := make([]campaign.SweepCampaign, len(items))
	for i, it := range items {
		camps[i] = it.Campaign
	}
	return campaign.Sweep(camps, opt)
}

// assembleFigure extracts one figure's results from a sweep.
func assembleFigure(plan figurePlan, sr *campaign.SweepResult, setup Setup) (*FigureResult, error) {
	figGroups := make(map[string]bool)
	for _, sp := range plan.series {
		for _, w := range plan.benches {
			figGroups[sweepGroup(sp.model, w.Name, setup)] = true
		}
	}
	fig := &FigureResult{Name: plan.name, GoldenRuns: len(figGroups)}
	for _, w := range plan.benches {
		fig.Benches = append(fig.Benches, w.Name)
	}
	for _, sp := range plan.series {
		s := Series{
			Label:   sp.label,
			Vuln:    make(map[string]stats.Proportion, len(plan.benches)),
			Results: make(map[string]*campaign.Result, len(plan.benches)),
		}
		for _, w := range plan.benches {
			res, ok := sr.Results[campaignKey(plan.name, sp.label, w.Name)]
			if !ok {
				return nil, fmt.Errorf("%s/%s/%s: missing from sweep", plan.name, sp.label, w.Name)
			}
			s.Vuln[w.Name] = res.Unsafeness
			s.Results[w.Name] = res
		}
		fig.Series = append(fig.Series, s)
	}
	if len(fig.Series) >= 2 {
		a := make([]float64, len(fig.Benches))
		b := make([]float64, len(fig.Benches))
		for i, bn := range fig.Benches {
			a[i] = fig.Series[0].Vuln[bn].P
			b[i] = fig.Series[1].Vuln[bn].P
		}
		var err error
		fig.Diff, err = stats.CompareSeries(a, b)
		if err != nil {
			return nil, err
		}
	}
	return fig, nil
}

// runFigure schedules one figure's matrix as a sweep: one golden run per
// (model, benchmark) shared across all series, all replays through one
// global pool.
func (p Params) runFigure(plan figurePlan, err error) (*FigureResult, error) {
	if err != nil {
		return nil, err
	}
	b := newSweepBuilder(p.Setup)
	if err := b.add(plan); err != nil {
		return nil, err
	}
	sr, err := p.sweep(b.items)
	if err != nil {
		return nil, err
	}
	return assembleFigure(plan, sr, p.Setup)
}

// figure1Plan is Fig. 1's matrix: register-file unsafeness at the core
// pinout — the microarchitectural model and the RTL model with the
// windowed timeout, plus the microarchitectural model run to the end
// ("GeFIN-no timer"). The two GeFIN series share one golden run.
func (p Params) figure1Plan() (figurePlan, error) {
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	base := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
		Lanes: p.Lanes,
	}
	windowed := base
	windowed.Window = p.Window
	return figurePlan{
		name:    "fig1-rf-unsafeness",
		benches: workloads,
		series: []seriesSpec{
			{"GeFIN", ModelMicroarch, windowed},
			{"RTL", ModelRTL, windowed},
			{"GeFIN-no-timer", ModelMicroarch, base},
		},
	}, nil
}

// Figure1 reproduces Fig. 1: register-file unsafeness per benchmark with
// the core-pinout observation point.
func (p Params) Figure1() (*FigureResult, error) {
	return p.runFigure(p.figure1Plan())
}

// figure2Plan is Fig. 2's matrix: L1 data cache unsafeness at the core
// pinout. The RTL series enables injection-time advancement, the
// optimisation the paper identifies as the cause of the GeFIN-vs-RTL gap
// on this figure.
func (p Params) figure2Plan() (figurePlan, error) {
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	base := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
		Lanes: p.Lanes,
	}
	ma := base
	ma.Window = p.Window
	rtl := ma
	rtl.AdvanceToUse = true
	return figurePlan{
		name:    "fig2-l1d-unsafeness",
		benches: workloads,
		series: []seriesSpec{
			{"GeFIN", ModelMicroarch, ma},
			{"RTL", ModelRTL, rtl},
			{"GeFIN-no-timer", ModelMicroarch, base},
		},
	}, nil
}

// Figure2 reproduces Fig. 2: L1 data cache unsafeness at the core pinout.
func (p Params) Figure2() (*FigureResult, error) {
	return p.runFigure(p.figure2Plan())
}

// figure3Plan is Fig. 3's matrix: L1D AVF through the software
// observation point, run to the end of the program on both levels. The
// paper could only afford the shorter benchmarks at RTL; the default
// benchmark list mirrors that subset.
func (p Params) figure3Plan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"caes", "stringsearch", "susan_c", "susan_e", "susan_s"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	cfg := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetL1D,
		Obs: campaign.ObsSOP, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
		Lanes: p.Lanes,
	}
	return figurePlan{
		name:    "fig3-l1d-avf-sop",
		benches: workloads,
		series: []seriesSpec{
			{"GeFIN", ModelMicroarch, cfg},
			{"RTL", ModelRTL, cfg},
		},
	}, nil
}

// Figure3 reproduces Fig. 3: L1D AVF through the software observation
// point.
func (p Params) Figure3() (*FigureResult, error) {
	return p.runFigure(p.figure3Plan())
}

// ablationLatchesPlan is the RTL-only pipeline-latch injection
// experiment (E7 in EXPERIMENTS.md): the fault space that has no
// microarchitectural counterpart.
func (p Params) ablationLatchesPlan() (figurePlan, error) {
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	cfg := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetLatches,
		Obs: campaign.ObsPinout, Window: p.Window, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
		Lanes: p.Lanes,
	}
	return figurePlan{
		name:    "ablation-rtl-latches",
		benches: workloads,
		series:  []seriesSpec{{"RTL-latches", ModelRTL, cfg}},
	}, nil
}

// AblationLatches runs the RTL-only pipeline-latch injection experiment.
func (p Params) AblationLatches() (*FigureResult, error) {
	return p.runFigure(p.ablationLatchesPlan())
}

// ablationWindowPlan sweeps the observation-window length on the
// microarchitectural model (E8: the early-stopping accuracy loss the
// paper's conclusions highlight). Every window length shares the same
// golden run per benchmark — the sweep runs one, not len(windows).
func (p Params) ablationWindowPlan(windows []uint64) (figurePlan, error) {
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	specs := make([]seriesSpec, 0, len(windows))
	for _, w := range windows {
		cfg := campaign.Config{
			Injections: p.Injections, Seed: p.Seed, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: w, Workers: p.Workers, Fault: p.Fault,
			EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
			Lanes: p.Lanes,
		}
		label := fmt.Sprintf("window-%d", w)
		if w == 0 {
			label = "window-to-end"
		}
		specs = append(specs, seriesSpec{label, ModelMicroarch, cfg})
	}
	return figurePlan{
		name:    "ablation-window-sweep",
		benches: workloads,
		series:  specs,
	}, nil
}

// AblationWindow sweeps the observation-window length on the
// microarchitectural model.
func (p Params) AblationWindow(windows []uint64) (*FigureResult, error) {
	return p.runFigure(p.ablationWindowPlan(windows))
}

// ablationModelsPlan is the fault-model ablation (E9 in
// EXPERIMENTS.md): the same register-file campaign under all four fault
// models — transient, burst, stuck-at, intermittent — on both
// abstraction levels, run to program end with the combined observation
// point so the class breakdown separates Masked, Mismatch and SDC. All
// four models on one level share that level's single golden run: the
// golden run is fault-free, so the model only changes the plan and the
// replay. The default benchmark subset mirrors Fig. 3's short list (E9
// replays run to the end on both levels).
func (p Params) ablationModelsPlan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"caes", "stringsearch"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	models := []fault.Params{
		{Model: fault.ModelTransient},
		{Model: fault.ModelBurst, Burst: p.Fault.Burst},
		{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: p.Fault.Span},
	}
	var specs []seriesSpec
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, fm := range models {
			cfg := campaign.Config{
				Injections: p.Injections, Seed: p.Seed, Target: fault.TargetRF,
				Obs: campaign.ObsCombined, Workers: p.Workers, Fault: fm,
				EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
				Lanes: p.Lanes,
			}
			specs = append(specs, seriesSpec{
				label: fmt.Sprintf("%v/%v", m, fm.Model),
				model: m,
				cfg:   cfg,
			})
		}
	}
	return figurePlan{
		name:    "ablation-fault-models",
		benches: workloads,
		series:  specs,
	}, nil
}

// AblationModels runs the fault-model ablation: all four fault models
// on both abstraction levels.
func (p Params) AblationModels() (*FigureResult, error) {
	return p.runFigure(p.ablationModelsPlan())
}

// EarlyStopRow summarises one benchmark of the adaptive-engine ablation
// (E10): how many runs and simulated cycles the adaptive engine saved
// against the fixed plan, and how far the truncated estimate drifted.
type EarlyStopRow struct {
	Bench           string
	FixedRuns       int
	AdaptiveRuns    int
	Converged       int     // replays ended by the convergence exit
	FixedMCycles    float64 // replay cycles simulated by the fixed plan (M)
	AdaptiveMCycles float64
	SavedFrac       float64 // 1 - adaptive/fixed simulated replay cycles
	Margin          float64 // achieved class-proportion margin (adaptive)
	Drift           float64 // |unsafeness(adaptive) - unsafeness(fixed)|
}

// EarlyStopResult is the E10 deliverable: the two-series figure plus the
// per-benchmark savings table.
type EarlyStopResult struct {
	Fig  *FigureResult
	Rows []EarlyStopRow
}

// earlyStopDefaultMargin is the sequential-stopping margin the E10
// ablation uses when Params.TargetError is unset: loose enough to
// trigger at laptop-scale sample sizes, and exactly the margin the
// drift column is judged against.
const earlyStopDefaultMargin = 0.05

// ablationEarlyStopPlan is the adaptive-engine ablation (E10): the same
// run-to-end register-file campaign executed by the fixed-plan engine
// and by the adaptive engine (convergence exit + sequential stopping at
// 95% confidence). Run-to-end replays are where the paper-scale cost
// lives — the fig. 1 "no timer" series — so they are where the
// convergence exit pays. Both series share one golden run.
func (p Params) ablationEarlyStopPlan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"caes", "stringsearch"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	fixed := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Workers: p.Workers, Fault: p.Fault,
		Confidence: 0.95, Lanes: p.Lanes,
	}
	adaptive := fixed
	adaptive.EarlyStop = true
	adaptive.TargetError = p.TargetError
	if adaptive.TargetError == 0 {
		adaptive.TargetError = earlyStopDefaultMargin
	}
	return figurePlan{
		name:    "ablation-early-stop",
		benches: workloads,
		series: []seriesSpec{
			{"fixed-plan", ModelMicroarch, fixed},
			{"adaptive", ModelMicroarch, adaptive},
		},
	}, nil
}

// AblationEarlyStop runs the adaptive-engine ablation and folds the two
// series into the per-benchmark savings table.
func (p Params) AblationEarlyStop() (*EarlyStopResult, error) {
	fig, err := p.runFigure(p.ablationEarlyStopPlan())
	if err != nil {
		return nil, err
	}
	res := &EarlyStopResult{Fig: fig}
	fixed, adaptive := fig.Series[0], fig.Series[1]
	for _, b := range fig.Benches {
		fr, ar := fixed.Results[b], adaptive.Results[b]
		row := EarlyStopRow{
			Bench:           b,
			FixedRuns:       len(fr.Outcomes),
			AdaptiveRuns:    len(ar.Outcomes),
			Converged:       ar.ConvergedRuns,
			FixedMCycles:    float64(fr.CyclesSimulated) / 1e6,
			AdaptiveMCycles: float64(ar.CyclesSimulated) / 1e6,
			Margin:          ar.AchievedMargin,
			Drift:           math.Abs(ar.Unsafeness.P - fr.Unsafeness.P),
		}
		if fr.CyclesSimulated > 0 {
			row.SavedFrac = 1 - float64(ar.CyclesSimulated)/float64(fr.CyclesSimulated)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// PruningRow summarises one (level, benchmark) cell of the golden-trace
// pruning ablation (E11): the simulated replay cycles and attributed
// wall time of the full, dead-pruned and class-pruned engines, the
// pruning volumes, and the estimate drift of each pruned variant
// against the full plan. DriftDead must be zero — dead pruning is exact
// by construction — and the row reports it so the claim stays visible.
type PruningRow struct {
	Bench string
	Level string

	FullMCycles    float64 // replay cycles simulated by the full plan (M)
	DeadMCycles    float64
	ClassesMCycles float64

	FullWall    float64 // attributed replay wall time (s)
	DeadWall    float64
	ClassesWall float64

	Pruned       int // dead-interval faults classified injection-lessly (dead mode)
	Classes      int // equivalence classes replayed (classes mode)
	Extrapolated int // members inheriting their representative's outcome

	DriftDead    float64 // |unsafeness(dead) - unsafeness(full)|; zero by construction
	DriftClasses float64
}

// PruningResult is the E11 deliverable: the figure plus the savings table.
type PruningResult struct {
	Fig  *FigureResult
	Rows []PruningRow
}

// ablationPruningPlan is the golden-trace pruning ablation (E11): the
// same windowed L1D campaign — the paper's primary pinout flow —
// executed by the full engine, with exact dead-interval pruning, and
// with MeRLiN-style class pruning, on both abstraction levels. The
// windowed flow is where pruning pays most: a fault whose first
// consumption lies beyond the observation window is provably Masked no
// matter what happens later, so the timeout that the paper introduced
// to cap replay cost ALSO caps the set of faults worth replaying at
// all. All three engines on one level share that level's single golden
// run.
func (p Params) ablationPruningPlan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"caes", "stringsearch"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	base := campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: p.Window, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError,
		Lanes: p.Lanes,
	}
	var specs []seriesSpec
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, mode := range []campaign.PruneMode{campaign.PruneOff, campaign.PruneDead, campaign.PruneClasses} {
			cfg := base
			cfg.Prune = mode
			specs = append(specs, seriesSpec{
				label: fmt.Sprintf("%v/prune-%v", m, mode),
				model: m,
				cfg:   cfg,
			})
		}
	}
	return figurePlan{
		name:    "ablation-pruning",
		benches: workloads,
		series:  specs,
	}, nil
}

// AblationPruning runs the pruning ablation and folds the six series
// into the per-(level, benchmark) savings table.
func (p Params) AblationPruning() (*PruningResult, error) {
	fig, err := p.runFigure(p.ablationPruningPlan())
	if err != nil {
		return nil, err
	}
	res := &PruningResult{Fig: fig}
	byLabel := make(map[string]Series, len(fig.Series))
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		full := byLabel[fmt.Sprintf("%v/prune-off", m)]
		dead := byLabel[fmt.Sprintf("%v/prune-dead", m)]
		classes := byLabel[fmt.Sprintf("%v/prune-classes", m)]
		for _, b := range fig.Benches {
			fr, dr, cr := full.Results[b], dead.Results[b], classes.Results[b]
			res.Rows = append(res.Rows, PruningRow{
				Bench:          b,
				Level:          m.String(),
				FullMCycles:    float64(fr.CyclesSimulated) / 1e6,
				DeadMCycles:    float64(dr.CyclesSimulated) / 1e6,
				ClassesMCycles: float64(cr.CyclesSimulated) / 1e6,
				FullWall:       fr.Elapsed.Seconds(),
				DeadWall:       dr.Elapsed.Seconds(),
				ClassesWall:    cr.Elapsed.Seconds(),
				Pruned:         dr.PrunedRuns,
				Classes:        cr.PruneClassCount,
				Extrapolated:   cr.ExtrapolatedRuns,
				DriftDead:      math.Abs(dr.Unsafeness.P - fr.Unsafeness.P),
				DriftClasses:   math.Abs(cr.Unsafeness.P - fr.Unsafeness.P),
			})
		}
	}
	return res, nil
}

// AVFRow summarises one (level, target, benchmark) cell of the
// injection-free ACE/AVF experiment (E12): the golden-trace estimate
// next to the fault-injection ground truth it predicts. Its two checks
// point in different directions on purpose. Predicted is the fault
// plan's sampled ACE fraction, a Monte-Carlo estimate of the exhaustive
// planner-weighted AVF — so the exhaustive value must land inside
// Predicted's Wilson interval (Within, asserted on both levels).
// Against FI, ACE analysis is a one-sided bound: it cannot see logical
// masking, so the measured unsafe fraction can never exceed Predicted
// (Bounded) and Gap — the masking the bound leaves on the table — is
// the experiment's cross-level observable (RTL's wide datapath makes
// its register-file gap far larger than the microarchitectural one).
type AVFRow struct {
	Bench  string
	Level  string
	Target string

	AVF         float64 // structure-wide ACE fraction of bit-cycles
	AVFWeighted float64 // weighted by the planner's injection-instant distribution

	// Predicted is the plan-sample ACE fraction with its Wilson interval
	// (PlanLive of PlanN planned faults are ACE).
	Predicted stats.Proportion

	FIUnsafe stats.Proportion // FI-measured unsafeness with its Wilson interval

	Gap     float64 // Predicted.P - FIUnsafe.P: logical masking invisible to ACE analysis
	Within  bool    // AVFWeighted inside [Predicted.Lo, Predicted.Hi]
	Bounded bool    // FIUnsafe.P <= Predicted.P: the ACE upper bound held
}

// AVFResult is the E12 deliverable: the figure plus the AVF-vs-FI table.
type AVFResult struct {
	Fig  *FigureResult
	Rows []AVFRow
}

// avfTargets are the structures the golden lifetime trace covers on
// both abstraction levels (pipeline latches are not lifetime-traced).
var avfTargets = []fault.Target{fault.TargetRF, fault.TargetL1D}

// avfPlan is the injection-free estimation experiment (E12): the same
// windowed pinout campaign per (level, target) with Config.AVF on, so
// the estimate is attached to the very campaign whose measured
// unsafeness cross-checks it — the FI arm doubles as ground truth and
// the estimator costs zero extra replays.
func (p Params) avfPlan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"caes", "stringsearch"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	base := campaign.Config{
		Injections: p.Injections, Seed: p.Seed,
		Obs: campaign.ObsPinout, Window: p.Window, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError,
		Lanes: p.Lanes, AVF: true,
	}
	var specs []seriesSpec
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, tg := range avfTargets {
			cfg := base
			cfg.Target = tg
			specs = append(specs, seriesSpec{
				label: fmt.Sprintf("%v/avf-%v", m, tg),
				model: m,
				cfg:   cfg,
			})
		}
	}
	return figurePlan{
		name:    "avf",
		benches: workloads,
		series:  specs,
	}, nil
}

// ExperimentAVF runs E12 and folds the series into the per-(level,
// target, benchmark) AVF-vs-FI table.
func (p Params) ExperimentAVF() (*AVFResult, error) {
	fig, err := p.runFigure(p.avfPlan())
	if err != nil {
		return nil, err
	}
	res := &AVFResult{Fig: fig}
	byLabel := make(map[string]Series, len(fig.Series))
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, tg := range avfTargets {
			s := byLabel[fmt.Sprintf("%v/avf-%v", m, tg)]
			for _, b := range fig.Benches {
				r := s.Results[b]
				if r.AVF == nil {
					return nil, fmt.Errorf("avf/%v/%v/%s: campaign carries no AVF estimate", m, tg, b)
				}
				conf := r.Unsafeness.Conf
				if conf == 0 {
					conf = 0.95
				}
				pred, err := stats.EstimateProportion(r.AVF.PlanLive, r.AVF.PlanN, conf)
				if err != nil {
					return nil, fmt.Errorf("avf/%v/%v/%s: %w", m, tg, b, err)
				}
				row := AVFRow{
					Bench:       b,
					Level:       m.String(),
					Target:      tg.String(),
					AVF:         r.AVF.Estimate.AVF,
					AVFWeighted: r.AVF.Estimate.AVFWeighted,
					Predicted:   pred,
					FIUnsafe:    r.Unsafeness,
					Gap:         pred.P - r.Unsafeness.P,
				}
				row.Within = row.AVFWeighted >= pred.Lo && row.AVFWeighted <= pred.Hi
				row.Bounded = r.Unsafeness.P <= pred.P
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// ProtectionRow summarises one (level, fault model, structure, scheme)
// cell of the protection-ROI experiment (E13): the protected campaign's
// class split next to its unprotected baseline, and two ROI views. The
// two views point in different directions on purpose. UnsafeROI charges
// detection against availability — ClassDUE counts as unsafe, so a
// detect-only scheme can post negative unsafeness ROI under fault
// models it merely converts silent corruption into detected stops for
// (or worse, spuriously trips on). SDCROI is the complementary
// silent-corruption view — reduction of the SDC fraction per protected
// bit, the number a detection scheme is actually bought for. Both are
// scaled per kilobit of overhead so laptop-scale campaigns produce
// readable magnitudes. LogicDUERate is E13's blind-spot observable —
// the DUE rate among faults landing on the checker logic itself. The
// campaign-wide DUEFrac cannot show the blind spot (persistent data
// faults keep re-asserting and being detected, drowning the checker
// path), but the logic region isolates it: under parity it is 1.0 on
// the transient row and 0.0 on the stuck-at row, because an asserted-0
// checker path disarms detection instead of raising it.
type ProtectionRow struct {
	Bench  string
	Level  string
	Model  string // fault model
	Target string
	Scheme string

	DataBits     int
	OverheadBits int

	Runs     int // classified outcomes of the protected arm
	Overhead int // of Runs, synthesised overhead-region faults
	Masked   int
	DUE      int
	SDC      int // ClassSDC alone; Unsafe aggregates every non-Masked class

	BaseUnsafe stats.Proportion // unprotected baseline unsafeness
	Unsafe     stats.Proportion // protected unsafeness (DUE included)

	BaseSDCFrac float64
	SDCFrac     float64
	DUEFrac     float64

	LogicRuns    int     // overhead faults landing on the checker logic
	LogicDUE     int     // of LogicRuns, classified DUE
	LogicDUERate float64 // the blind-spot observable

	UnsafeROI float64 // (BaseUnsafe.P - Unsafe.P) per kilobit of overhead
	SDCROI    float64 // (BaseSDCFrac - SDCFrac) per kilobit of overhead
}

// ProtectionResult is the E13 deliverable: the raw figure (one series
// per matrix cell) plus the folded ROI table.
type ProtectionResult struct {
	Fig  *FigureResult
	Rows []ProtectionRow
}

// protectionTargets lists the structures E13 protects per level: the
// register file and L1D data array on both levels, pipeline latches on
// RTL only (the microarchitectural model keeps no latch state).
func protectionTargets(m Model) []fault.Target {
	if m == ModelRTL {
		return []fault.Target{fault.TargetRF, fault.TargetL1D, fault.TargetLatches}
	}
	return []fault.Target{fault.TargetRF, fault.TargetL1D}
}

// protectionSchemes are E13's arms in report order; index 0 is the
// unprotected baseline every ROI is measured against.
var protectionSchemes = []protect.Scheme{
	protect.SchemeNone, protect.SchemeParity, protect.SchemeSECDED, protect.SchemeDup,
}

// protectionModels are E13's four fault models. The persistent models
// pin the forced value to 0 instead of sampling it per injection: an
// asserted-0 checker path is exactly the parity blind spot the
// experiment exists to demonstrate, and a sampled value would halve the
// signal.
func (p Params) protectionModels() []fault.Params {
	return []fault.Params{
		{Model: fault.ModelTransient},
		{Model: fault.ModelBurst, Burst: p.Fault.Burst},
		{Model: fault.ModelStuckAt, Stuck: 0},
		{Model: fault.ModelIntermittent, Stuck: 0, Span: p.Fault.Span},
	}
}

func protectionLabel(m Model, fm fault.Model, tgt fault.Target, sc protect.Scheme) string {
	return fmt.Sprintf("%v/%v/%s/%v", m, fm, protect.TargetKey(tgt), sc)
}

// protectionPlan is the protection-ROI experiment (E13): the same
// campaign per (level, fault model, structure) — run to program end
// with the combined observation point, like the fault-model ablation,
// so the class split separates Masked, Mismatch, SDC and DUE — once
// unprotected and once per scheme. All arms of one (level, benchmark)
// share that level's single golden run: protection extends only the
// fault plan and the classification, never the golden simulation. The
// default benchmark subset is one workload; the matrix is already
// 2 levels x 4 fault models x 2-3 structures x 4 arms per benchmark.
func (p Params) protectionPlan() (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = []string{"qsort"}
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	var specs []seriesSpec
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, fm := range p.protectionModels() {
			for _, tgt := range protectionTargets(m) {
				for _, sc := range protectionSchemes {
					cfg := campaign.Config{
						Injections: p.Injections, Seed: p.Seed, Target: tgt,
						Obs: campaign.ObsCombined, Workers: p.Workers, Fault: fm,
						EarlyStop: p.EarlyStop, TargetError: p.TargetError,
						Lanes: p.Lanes,
					}
					if sc != protect.SchemeNone {
						cfg.Protect = protect.TargetKey(tgt) + "=" + sc.String()
					}
					specs = append(specs, seriesSpec{
						label: protectionLabel(m, fm.Model, tgt, sc),
						model: m,
						cfg:   cfg,
					})
				}
			}
		}
	}
	return figurePlan{
		name:    "protection",
		benches: workloads,
		series:  specs,
	}, nil
}

// ExperimentProtection runs E13 and folds every protected arm against
// its unprotected baseline into the ROI table.
func (p Params) ExperimentProtection() (*ProtectionResult, error) {
	fig, err := p.runFigure(p.protectionPlan())
	if err != nil {
		return nil, err
	}
	res := &ProtectionResult{Fig: fig}
	byLabel := make(map[string]Series, len(fig.Series))
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	frac := func(hits, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(hits) / float64(n)
	}
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		for _, fm := range p.protectionModels() {
			for _, tgt := range protectionTargets(m) {
				for _, b := range fig.Benches {
					base := byLabel[protectionLabel(m, fm.Model, tgt, protect.SchemeNone)].Results[b]
					baseSDC := frac(base.Counts[campaign.ClassSDC], len(base.Outcomes))
					for _, sc := range protectionSchemes[1:] {
						r := byLabel[protectionLabel(m, fm.Model, tgt, sc)].Results[b]
						if r.ProtectOverheadBits == 0 {
							return nil, fmt.Errorf("protection/%v/%v/%v/%v/%s: protected arm reports no overhead bits",
								m, fm.Model, tgt, sc, b)
						}
						n := len(r.Outcomes)
						kbits := float64(r.ProtectOverheadBits) / 1024
						logicStart := r.ProtectDataBits + protect.CheckBits(sc, r.ProtectDataBits)
						var logicRuns, logicDUE int
						for _, oc := range r.Outcomes {
							if !oc.Overhead || oc.Spec.Bit < logicStart {
								continue
							}
							logicRuns++
							if oc.Class == campaign.ClassDUE {
								logicDUE++
							}
						}
						row := ProtectionRow{
							Bench: b, Level: m.String(), Model: fm.Model.String(),
							Target: protect.TargetKey(tgt), Scheme: sc.String(),
							DataBits:     r.ProtectDataBits,
							OverheadBits: r.ProtectOverheadBits,
							Runs:         n,
							Overhead:     r.OverheadRuns,
							Masked:       r.Counts[campaign.ClassMasked],
							DUE:          r.Counts[campaign.ClassDUE],
							SDC:          r.Counts[campaign.ClassSDC],
							BaseUnsafe:   base.Unsafeness,
							Unsafe:       r.Unsafeness,
							BaseSDCFrac:  baseSDC,
							SDCFrac:      frac(r.Counts[campaign.ClassSDC], n),
							DUEFrac:      frac(r.Counts[campaign.ClassDUE], n),
							LogicRuns:    logicRuns,
							LogicDUE:     logicDUE,
							LogicDUERate: frac(logicDUE, logicRuns),
						}
						row.UnsafeROI = (row.BaseUnsafe.P - row.Unsafe.P) / kbits
						row.SDCROI = (row.BaseSDCFrac - row.SDCFrac) / kbits
						res.Rows = append(res.Rows, row)
					}
				}
			}
		}
	}
	return res, nil
}

// ThroughputRow is one row of the paper's TABLE II.
type ThroughputRow struct {
	Bench        string
	RTLSecPerRun float64
	MASecPerRun  float64
	Ratio        float64
	RTLMCycles   float64
	MAMCycles    float64
}

// table2Rows folds measured golden-run costs into TABLE II rows.
func table2Rows(workloads []*bench.Workload, measured map[string]campaign.GoldenInfo,
	measure func(m Model, w *bench.Workload) (campaign.GoldenInfo, error),
	setup Setup) ([]ThroughputRow, float64, error) {

	rows := make([]ThroughputRow, 0, len(workloads))
	var ratioSum float64
	for _, w := range workloads {
		row := ThroughputRow{Bench: w.Name}
		for _, m := range []Model{ModelMicroarch, ModelRTL} {
			info, ok := measured[sweepGroup(m, w.Name, setup)]
			if !ok {
				var err error
				info, err = measure(m, w)
				if err != nil {
					return nil, 0, fmt.Errorf("table2 %s on %v: %w", w.Name, m, err)
				}
			}
			switch m {
			case ModelMicroarch:
				row.MASecPerRun = info.Elapsed.Seconds()
				row.MAMCycles = float64(info.Cycles) / 1e6
			case ModelRTL:
				row.RTLSecPerRun = info.Elapsed.Seconds()
				row.RTLMCycles = float64(info.Cycles) / 1e6
			}
		}
		if row.MASecPerRun > 0 {
			row.Ratio = row.RTLSecPerRun / row.MASecPerRun
		}
		ratioSum += row.Ratio
		rows = append(rows, row)
	}
	return rows, ratioSum / float64(len(rows)), nil
}

// measureGolden times one golden run through the shared golden-artifact
// phase, mirroring the sweep's golden configuration — the default
// snapshot schedule, and the L1D access timeline on the RTL flow (its
// §IV.B advancement records one) — so `-table 2` standalone and the
// sweep-reusing RunAll report the same kind of cost.
func (p Params) measureGolden(m Model, w *bench.Workload) (campaign.GoldenInfo, error) {
	prog, err := w.Program()
	if err != nil {
		return campaign.GoldenInfo{}, err
	}
	g, err := campaign.PrepareGolden(Factory(m, prog, p.Setup),
		campaign.GoldenOptions{Timeline: m == ModelRTL})
	if err != nil {
		return campaign.GoldenInfo{}, err
	}
	return campaign.GoldenInfo{
		Group: sweepGroup(m, w.Name, p.Setup), Cycles: g.Cycles,
		Txns: g.Txns, Elapsed: g.Elapsed, Snapshots: g.Snapshots(),
	}, nil
}

// Table2 reproduces TABLE II standalone: the wall-clock cost of one full
// golden run per benchmark on each framework and the RTL/microarch
// throughput ratio. RunAll instead reuses the golden runs its sweep
// already measured.
//
// The measured cost is deliberately the golden phase of each FLOW, not a
// bare simulation: both levels pay the snapshot schedule and the RTL
// flow additionally records its L1D access timeline (§IV.B), exactly as
// in a campaign. In RunAll the goldens also run concurrently on the
// pool, so expect some contention noise on loaded machines.
func (p Params) Table2() ([]ThroughputRow, float64, error) {
	workloads, err := p.benchList()
	if err != nil {
		return nil, 0, err
	}
	return table2Rows(workloads, nil, p.measureGolden, p.Setup)
}

// AllResults holds every table and figure of one full regeneration.
type AllResults struct {
	Fig1            *FigureResult
	Fig2            *FigureResult
	Fig3            *FigureResult
	AblationWindow  *FigureResult
	AblationLatches *FigureResult

	Table2Rows     []ThroughputRow
	Table2AvgRatio float64

	// GoldenRuns is the number of golden runs the whole regeneration
	// executed: at most one per (model, benchmark), shared across
	// every figure, ablation and TABLE II.
	GoldenRuns int
	Resumed    int
	Elapsed    time.Duration
}

// RunAll regenerates every figure and TABLE II as ONE sweep: all five
// campaign matrices are planned up front, goldens are shared across
// figures (at most one golden run per (model, benchmark)), every replay
// goes through one global worker pool, and TABLE II reuses the measured
// golden elapsed times instead of re-simulating. windows selects the
// ablation sweep's window lengths.
func (p Params) RunAll(windows []uint64) (*AllResults, error) {
	plans := make([]figurePlan, 0, 5)
	for _, mk := range []func() (figurePlan, error){
		p.figure1Plan, p.figure2Plan, p.figure3Plan,
		func() (figurePlan, error) { return p.ablationWindowPlan(windows) },
		p.ablationLatchesPlan,
	} {
		plan, err := mk()
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}

	b := newSweepBuilder(p.Setup)
	for _, plan := range plans {
		if err := b.add(plan); err != nil {
			return nil, err
		}
	}
	sr, err := p.sweep(b.items)
	if err != nil {
		return nil, err
	}

	all := &AllResults{
		GoldenRuns: sr.GoldenRuns,
		Resumed:    sr.Resumed,
		Elapsed:    sr.Elapsed,
	}
	figs := []**FigureResult{
		&all.Fig1, &all.Fig2, &all.Fig3, &all.AblationWindow, &all.AblationLatches,
	}
	for i, plan := range plans {
		fig, err := assembleFigure(plan, sr, p.Setup)
		if err != nil {
			return nil, err
		}
		*figs[i] = fig
	}

	workloads, err := p.benchList()
	if err != nil {
		return nil, err
	}
	all.Table2Rows, all.Table2AvgRatio, err = table2Rows(workloads, sr.Goldens, p.measureGolden, p.Setup)
	if err != nil {
		return nil, err
	}
	return all, nil
}
