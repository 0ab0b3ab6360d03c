package core

import (
	"fmt"
	"math"
	"strings"
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
//
// The campaign knobs below (Fault, EarlyStop, TargetError, Lanes, Prune,
// Window) reach every series of every experiment except where the
// experiment's registry entry lists the field in Owns.
type Params struct {
	Injections int
	Seed       int64
	Window     uint64 // pinout observation window (the paper's 20k cycles)
	Workers    int
	Setup      Setup
	Benches    []string // nil = each experiment's default subset (Experiment.Benches)

	// Fault selects the fault model every figure's campaigns inject
	// (zero value = the paper's single transient bit flip). E9 and E13
	// sweep all models themselves and only honour Fault.Burst and
	// Fault.Span as their burst/intermittent parameters.
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
	Setup    string // Setup.Name, resolvable via ParseSim
}

// SweepRunner executes a planned campaign matrix. The default (nil
// Params.Runner) is LocalSweep; a distributed runner submits each item
// to a coordinator and assembles the same SweepResult from the fleet's
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

// Standalone describes one (workload, model) campaign as a matrix of
// one, keyed "<workload>/<model>" (the name its checkpoint records
// carry): RunCampaign runs it with no options, cmd/faultsim through a
// SweepRunner with a checkpoint directory and a stop channel.
func Standalone(workload string, m Model, setup Setup, cfg campaign.Config) (MatrixItem, error) {
	return Sim{workload, m, setup}.item(fmt.Sprintf("%s/%v", workload, m), cfg)
}

// RunCampaign runs one standalone (workload, model) campaign.
func RunCampaign(workload string, m Model, setup Setup, cfg campaign.Config) (*campaign.Result, error) {
	it, err := Standalone(workload, m, setup, cfg)
	if err != nil {
		return nil, err
	}
	return campaign.Run(it.Campaign.Factory, it.Campaign.Config)
}

// TargetBits is the size of target t's bit space on workload's
// simulator at level m — the data bits a protection scheme guards.
func TargetBits(workload string, m Model, setup Setup, t fault.Target) (int, error) {
	it, err := Standalone(workload, m, setup, campaign.Config{})
	if err != nil {
		return 0, err
	}
	sim, err := it.Campaign.Factory()
	if err != nil {
		return 0, err
	}
	return sim.Bits(t), nil
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

// Experiment is one entry of the evaluation registry. The paper's
// evaluation is one matrix — level x structure x observation point x
// window over the same benchmarks — and every figure and ablation is a
// slice of it: a descriptor says which slice (series), what it folds the
// finished figure into (fold), and how cmd/paper and the docs name it.
// internal/report keys the matching table spec by Figure.
type Experiment struct {
	ID     int    // E-number in EXPERIMENTS.md
	Name   string // the `paper -fig` value
	Figure string // FigureResult.Name, also the campaign-key prefix

	// Benches is the benchmark subset used when Params.Benches is nil;
	// nil = the paper's TABLE II list.
	Benches []string

	// InAll marks the experiments RunAll (`paper -all`) regenerates.
	InAll bool

	// Owns names the Params fields this experiment decides itself in
	// every series, ignoring the global flag: because it sweeps the field
	// (E8 Window, E9 Fault, E11 Prune) or because honouring it would
	// corrupt what the experiment measures (E10's fixed-plan arm, the
	// unpruned ground truth of E12 and E13). Every other field of
	// baseConfig reaches every series untouched — the registry tests
	// hold both directions.
	Owns []string

	// series expands the descriptor into campaign series. base is
	// p.baseConfig(); the closure aims it (target, observation point,
	// window) and overrides exactly the fields Owns names.
	series func(p Params, base campaign.Config) []seriesSpec

	// fold, when non-nil, reduces the assembled figure to the
	// experiment's table rows (ExperimentResult.Rows). E13's fold also
	// adds the protected arms it derives to the figure's series.
	fold func(p Params, fig *FigureResult) (rows any, err error)
}

// ExperimentResult is one experiment's deliverable: the figure, plus
// the folded table rows ([]EarlyStopRow, []PruningRow, []AVFRow or
// []ProtectionRow) when the experiment has a fold, nil otherwise.
type ExperimentResult struct {
	Fig  *FigureResult
	Rows any
}

// baseConfig is the one place Params becomes a campaign.Config: every
// global knob applied, run to program end, target and observation point
// left for the experiment's series closure.
func (p Params) baseConfig() campaign.Config {
	return campaign.Config{
		Injections: p.Injections, Seed: p.Seed, Workers: p.Workers, Fault: p.Fault,
		EarlyStop: p.EarlyStop, TargetError: p.TargetError, Prune: p.Prune,
		Lanes: p.Lanes,
	}
}

// aim points a config at one structure through one observation point,
// replays cut off window cycles after injection (0 = run to the end).
func aim(cfg campaign.Config, t fault.Target, obs campaign.ObsPoint, window uint64) campaign.Config {
	cfg.Target, cfg.Obs, cfg.Window = t, obs, window
	return cfg
}

// levels are the two abstraction levels, in report order.
var levels = []Model{ModelMicroarch, ModelRTL}

// ablationWindows is E8's window-length sweep (0 = run to the end).
var ablationWindows = []uint64{100, 500, 2_000, 20_000, 0}

// earlyStopDefaultMargin is the sequential-stopping margin the E10
// ablation uses when Params.TargetError is unset: loose enough to
// trigger at laptop-scale sample sizes, and exactly the margin the
// drift column is judged against.
const earlyStopDefaultMargin = 0.05

// avfTargets are the structures the golden lifetime trace covers on
// both abstraction levels (pipeline latches are not lifetime-traced).
var avfTargets = []fault.Target{fault.TargetRF, fault.TargetL1D}

// sweptFaultModels are the four fault models E9 and E13 sweep, with
// Params.Fault contributing only the burst width and intermittent span.
// stuck is the persistent models' forced value: E9 samples it per
// injection (fault.StuckRandom); E13 pins it to 0, because an asserted-0
// checker path is exactly the parity blind spot that experiment exists
// to demonstrate, and a sampled value would halve the signal.
func sweptFaultModels(p fault.Params, stuck int) []fault.Params {
	return []fault.Params{
		{Model: fault.ModelTransient},
		{Model: fault.ModelBurst, Burst: p.Burst},
		{Model: fault.ModelStuckAt, Stuck: stuck},
		{Model: fault.ModelIntermittent, Stuck: stuck, Span: p.Span},
	}
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

func protectionLabel(m Model, fm fault.Model, tgt fault.Target, sc protect.Scheme) string {
	return fmt.Sprintf("%v/%v/%s/%v", m, fm, protect.TargetKey(tgt), sc)
}

// experiments is the registry, in `paper -fig` help and `paper -all`
// output order. Adding an experiment is one entry here plus, when it
// folds rows, one table spec in internal/report.
var experiments = []Experiment{
	{
		// Fig. 1: register-file unsafeness at the core pinout — the
		// microarchitectural model and the RTL model with the windowed
		// timeout, plus the microarchitectural model run to the end
		// ("GeFIN-no timer"). The two GeFIN series share one golden run.
		ID: 3, Name: "1", Figure: "fig1-rf-unsafeness", InAll: true,
		series: func(p Params, base campaign.Config) []seriesSpec {
			windowed := aim(base, fault.TargetRF, campaign.ObsPinout, p.Window)
			return []seriesSpec{
				{"GeFIN", ModelMicroarch, windowed},
				{"RTL", ModelRTL, windowed},
				{"GeFIN-no-timer", ModelMicroarch, aim(base, fault.TargetRF, campaign.ObsPinout, 0)},
			}
		},
	},
	{
		// Fig. 2: L1 data cache unsafeness at the core pinout. The RTL
		// series enables injection-time advancement, the optimisation the
		// paper identifies as the cause of the GeFIN-vs-RTL gap on this
		// figure.
		ID: 4, Name: "2", Figure: "fig2-l1d-unsafeness", InAll: true,
		series: func(p Params, base campaign.Config) []seriesSpec {
			windowed := aim(base, fault.TargetL1D, campaign.ObsPinout, p.Window)
			advanced := windowed
			advanced.AdvanceToUse = true
			return []seriesSpec{
				{"GeFIN", ModelMicroarch, windowed},
				{"RTL", ModelRTL, advanced},
				{"GeFIN-no-timer", ModelMicroarch, aim(base, fault.TargetL1D, campaign.ObsPinout, 0)},
			}
		},
	},
	{
		// Fig. 3: L1D AVF through the software observation point, run to
		// the end of the program on both levels. The paper could only
		// afford the shorter benchmarks at RTL; the default benchmark
		// list mirrors that subset.
		ID: 5, Name: "3", Figure: "fig3-l1d-avf-sop", InAll: true,
		Benches: []string{"caes", "stringsearch", "susan_c", "susan_e", "susan_s"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			cfg := aim(base, fault.TargetL1D, campaign.ObsSOP, 0)
			return []seriesSpec{{"GeFIN", ModelMicroarch, cfg}, {"RTL", ModelRTL, cfg}}
		},
	},
	{
		// E8: the observation-window length sweep on the
		// microarchitectural model (the early-stopping accuracy loss the
		// paper's conclusions highlight). Every window length shares the
		// same golden run per benchmark — the sweep runs one, not
		// len(ablationWindows).
		ID: 8, Name: "ablation-window", Figure: "ablation-window-sweep", InAll: true,
		Owns: []string{"Window"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			specs := make([]seriesSpec, 0, len(ablationWindows))
			for _, w := range ablationWindows {
				label := fmt.Sprintf("window-%d", w)
				if w == 0 {
					label = "window-to-end"
				}
				specs = append(specs, seriesSpec{label, ModelMicroarch,
					aim(base, fault.TargetL1D, campaign.ObsPinout, w)})
			}
			return specs
		},
	},
	{
		// E7: the RTL-only pipeline-latch injection experiment — the
		// fault space that has no microarchitectural counterpart.
		ID: 7, Name: "ablation-latches", Figure: "ablation-rtl-latches", InAll: true,
		series: func(p Params, base campaign.Config) []seriesSpec {
			return []seriesSpec{{"RTL-latches", ModelRTL,
				aim(base, fault.TargetLatches, campaign.ObsPinout, p.Window)}}
		},
	},
	{
		// E9: the same register-file campaign under all four fault
		// models — transient, burst, stuck-at, intermittent — on both
		// abstraction levels, run to program end with the combined
		// observation point so the class breakdown separates Masked,
		// Mismatch and SDC. All four models on one level share that
		// level's single golden run: the golden run is fault-free, so the
		// model only changes the plan and the replay. The default
		// benchmark subset mirrors Fig. 3's short list (E9 replays run to
		// the end on both levels).
		ID: 9, Name: "ablation-models", Figure: "ablation-fault-models",
		Benches: []string{"caes", "stringsearch"},
		Owns:    []string{"Fault"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			cfg := aim(base, fault.TargetRF, campaign.ObsCombined, 0)
			var specs []seriesSpec
			for _, m := range levels {
				for _, fm := range sweptFaultModels(p.Fault, fault.StuckRandom) {
					cfg.Fault = fm
					specs = append(specs, seriesSpec{fmt.Sprintf("%v/%v", m, fm.Model), m, cfg})
				}
			}
			return specs
		},
	},
	{
		// E10: the same run-to-end register-file campaign executed by
		// the fixed-plan engine and by the adaptive engine (convergence
		// exit + sequential stopping at 95% confidence). Run-to-end
		// replays are where the paper-scale cost lives — the fig. 1 "no
		// timer" series — so they are where the convergence exit pays.
		// Both series share one golden run. The fixed arm is the
		// yardstick, so no global engine flag may touch it; the adaptive
		// arm takes Params.TargetError as its margin when set.
		ID: 10, Name: "early-stop", Figure: "ablation-early-stop",
		Benches: []string{"caes", "stringsearch"},
		Owns:    []string{"EarlyStop", "TargetError", "Prune"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			fixed := aim(base, fault.TargetRF, campaign.ObsPinout, 0)
			fixed.EarlyStop, fixed.TargetError, fixed.Prune = false, 0, campaign.PruneOff
			fixed.Confidence = 0.95
			adaptive := fixed
			adaptive.EarlyStop = true
			adaptive.TargetError = p.TargetError
			if adaptive.TargetError == 0 {
				adaptive.TargetError = earlyStopDefaultMargin
			}
			return []seriesSpec{
				{"fixed-plan", ModelMicroarch, fixed},
				{"adaptive", ModelMicroarch, adaptive},
			}
		},
		fold: foldEarlyStop,
	},
	{
		// E11: the same windowed L1D campaign — the paper's primary
		// pinout flow — executed by the full engine, with exact
		// dead-interval pruning, and with MeRLiN-style class pruning, on
		// both abstraction levels. The windowed flow is where pruning
		// pays most: a fault whose first consumption lies beyond the
		// observation window is provably Masked no matter what happens
		// later, so the timeout that the paper introduced to cap replay
		// cost ALSO caps the set of faults worth replaying at all. All
		// three engines on one level share that level's single golden
		// run.
		ID: 11, Name: "pruning", Figure: "ablation-pruning",
		Benches: []string{"caes", "stringsearch"},
		Owns:    []string{"Prune"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			cfg := aim(base, fault.TargetL1D, campaign.ObsPinout, p.Window)
			var specs []seriesSpec
			for _, m := range levels {
				for _, mode := range []campaign.PruneMode{campaign.PruneOff, campaign.PruneDead, campaign.PruneClasses} {
					cfg.Prune = mode
					specs = append(specs, seriesSpec{fmt.Sprintf("%v/prune-%v", m, mode), m, cfg})
				}
			}
			return specs
		},
		fold: foldPruning,
	},
	{
		// E12: the same windowed pinout campaign per (level, target)
		// with Config.AVF on, so the estimate is attached to the very
		// campaign whose measured unsafeness cross-checks it — the FI arm
		// doubles as ground truth and the estimator costs zero extra
		// replays. The ground truth must be the full plan, so pruning is
		// off whatever the global flag says.
		ID: 12, Name: "avf", Figure: "avf",
		Benches: []string{"caes", "stringsearch"},
		Owns:    []string{"Prune"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			base.Prune, base.AVF = campaign.PruneOff, true
			var specs []seriesSpec
			for _, m := range levels {
				for _, tg := range avfTargets {
					specs = append(specs, seriesSpec{fmt.Sprintf("%v/avf-%v", m, tg), m,
						aim(base, tg, campaign.ObsPinout, p.Window)})
				}
			}
			return specs
		},
		fold: foldAVF,
	},
	{
		// E13: the same campaign per (level, fault model, structure) —
		// run to program end with the combined observation point, like
		// the fault-model ablation, so the class split separates Masked,
		// Mismatch, SDC and DUE — once unprotected and once per scheme.
		// Only the unprotected arms replay, all of one (level, benchmark)
		// over that level's single golden run; the fold derives each
		// protected arm from its unprotected twin's outcomes
		// (protect.Derive), so the arms share their data faults. The
		// default benchmark subset is one workload; the matrix is
		// already 2 levels x 4 fault models x 2-3 structures x 4 arms per
		// benchmark. Every ROI compares a protected arm with its twin,
		// which must replay the full plan: pruning is off whatever the
		// global flag says.
		ID: 13, Name: "protection", Figure: "protection",
		Benches: []string{"qsort"},
		Owns:    []string{"Fault", "Prune"},
		series: func(p Params, base campaign.Config) []seriesSpec {
			base.Prune = campaign.PruneOff
			var specs []seriesSpec
			for _, m := range levels {
				for _, fm := range sweptFaultModels(p.Fault, 0) {
					for _, tgt := range protectionTargets(m) {
						cfg := aim(base, tgt, campaign.ObsCombined, 0)
						cfg.Fault = fm
						specs = append(specs, seriesSpec{protectionLabel(m, fm.Model, tgt, protect.SchemeNone), m, cfg})
					}
				}
			}
			return specs
		},
		fold: foldProtection,
	},
}

// Experiments returns the registry in `paper -fig` help order. The
// slice is shared: callers must not modify it.
func Experiments() []Experiment { return experiments }

// ExperimentNames returns the registered `paper -fig` values, in
// registry order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i := range experiments {
		names[i] = experiments[i].Name
	}
	return names
}

// LookupExperiment resolves a `paper -fig` name, naming the known ones
// when it is not registered.
func LookupExperiment(name string) (*Experiment, error) {
	for i := range experiments {
		if experiments[i].Name == name {
			return &experiments[i], nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (have: %s)", name, strings.Join(ExperimentNames(), ", "))
}

// figurePlan is one experiment's campaign matrix before scheduling.
type figurePlan struct {
	exp     *Experiment
	benches []*bench.Workload
	series  []seriesSpec
}

// plan expands one descriptor under p: its benchmark list (Params.Benches,
// else the descriptor's default subset) and its series over baseConfig.
func (p Params) plan(e *Experiment) (figurePlan, error) {
	if p.Benches == nil {
		p.Benches = e.Benches
	}
	workloads, err := p.benchList()
	if err != nil {
		return figurePlan{}, err
	}
	return figurePlan{exp: e, benches: workloads, series: e.series(p, p.baseConfig())}, nil
}

func campaignKey(figure, label, workload string) string {
	return figure + "/" + label + "/" + workload
}

// item is the matrix item of one campaign of s, keyed key.
func (s Sim) item(key string, cfg campaign.Config) (MatrixItem, error) {
	fac, err := s.Factory()
	if err != nil {
		return MatrixItem{}, err
	}
	return MatrixItem{
		Campaign: campaign.SweepCampaign{Key: key, Group: s.Group(), Factory: fac, Config: cfg},
		Workload: s.Workload,
		Model:    s.Model,
		Setup:    s.Setup.Name,
	}, nil
}

// matrix flattens figure plans into one campaign matrix.
func matrix(plans []figurePlan, setup Setup) ([]MatrixItem, error) {
	var items []MatrixItem
	for _, plan := range plans {
		for _, sp := range plan.series {
			for _, w := range plan.benches {
				it, err := Sim{w.Name, sp.model, setup}.item(campaignKey(plan.exp.Figure, sp.label, w.Name), sp.cfg)
				if err != nil {
					return nil, err
				}
				items = append(items, it)
			}
		}
	}
	return items, nil
}

// sweep executes an accumulated matrix through the configured runner
// (LocalSweep by default).
func (p Params) sweep(items []MatrixItem) (*campaign.SweepResult, error) {
	run := p.Runner
	if run == nil {
		run = LocalSweep
	}
	return run(items, campaign.SweepOptions{
		Workers: p.Workers, CheckpointDir: p.Checkpoint, Stop: p.Stop,
	})
}

// LocalSweep is the in-process SweepRunner: it strips the items down to
// their campaigns and runs them as one campaign.Sweep.
func LocalSweep(items []MatrixItem, opt campaign.SweepOptions) (*campaign.SweepResult, error) {
	camps := make([]campaign.SweepCampaign, len(items))
	for i, it := range items {
		camps[i] = it.Campaign
	}
	return campaign.Sweep(camps, opt)
}

// assemble extracts one experiment's figure from a sweep and folds it.
func (p Params) assemble(plan figurePlan, sr *campaign.SweepResult) (*ExperimentResult, error) {
	name := plan.exp.Figure
	figGroups := make(map[Sim]bool)
	for _, sp := range plan.series {
		for _, w := range plan.benches {
			figGroups[Sim{w.Name, sp.model, p.Setup}] = true
		}
	}
	fig := &FigureResult{Name: name, GoldenRuns: len(figGroups)}
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
			res, ok := sr.Results[campaignKey(name, sp.label, w.Name)]
			if !ok {
				return nil, fmt.Errorf("%s/%s/%s: missing from sweep", name, sp.label, w.Name)
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
	res := &ExperimentResult{Fig: fig}
	if plan.exp.fold != nil {
		var err error
		if res.Rows, err = plan.exp.fold(p, fig); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runExperiments schedules the given descriptors' matrices as ONE
// sweep — one golden run per (model, benchmark) shared across all their
// series, all replays through one global pool — and assembles one result
// per descriptor, in order.
func (p Params) runExperiments(exps []*Experiment) ([]*ExperimentResult, *campaign.SweepResult, error) {
	plans := make([]figurePlan, len(exps))
	for i, e := range exps {
		var err error
		if plans[i], err = p.plan(e); err != nil {
			return nil, nil, err
		}
	}
	items, err := matrix(plans, p.Setup)
	if err != nil {
		return nil, nil, err
	}
	sr, err := p.sweep(items)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*ExperimentResult, len(plans))
	for i, plan := range plans {
		if out[i], err = p.assemble(plan, sr); err != nil {
			return nil, nil, err
		}
	}
	return out, sr, nil
}

// Run regenerates the experiment registered under the `paper -fig` name.
func (p Params) Run(name string) (*ExperimentResult, error) {
	e, err := LookupExperiment(name)
	if err != nil {
		return nil, err
	}
	out, _, err := p.runExperiments([]*Experiment{e})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// figure runs a fold-less experiment for its figure alone.
func (p Params) figure(name string) (*FigureResult, error) {
	res, err := p.Run(name)
	if err != nil {
		return nil, err
	}
	return res.Fig, nil
}

// Figure1 reproduces Fig. 1: register-file unsafeness per benchmark with
// the core-pinout observation point.
func (p Params) Figure1() (*FigureResult, error) { return p.figure("1") }

// Figure2 reproduces Fig. 2: L1 data cache unsafeness at the core pinout.
func (p Params) Figure2() (*FigureResult, error) { return p.figure("2") }

// seriesByLabel indexes a figure's series for the folds.
func seriesByLabel(fig *FigureResult) map[string]Series {
	byLabel := make(map[string]Series, len(fig.Series))
	for _, s := range fig.Series {
		byLabel[s.Label] = s
	}
	return byLabel
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

// foldEarlyStop folds E10's two series into the per-benchmark savings
// table.
func foldEarlyStop(_ Params, fig *FigureResult) (any, error) {
	var rows []EarlyStopRow
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
		rows = append(rows, row)
	}
	return rows, nil
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

// foldPruning folds E11's six series into the per-(level, benchmark)
// savings table.
func foldPruning(_ Params, fig *FigureResult) (any, error) {
	var rows []PruningRow
	byLabel := seriesByLabel(fig)
	for _, m := range levels {
		full := byLabel[fmt.Sprintf("%v/prune-off", m)]
		dead := byLabel[fmt.Sprintf("%v/prune-dead", m)]
		classes := byLabel[fmt.Sprintf("%v/prune-classes", m)]
		for _, b := range fig.Benches {
			fr, dr, cr := full.Results[b], dead.Results[b], classes.Results[b]
			rows = append(rows, PruningRow{
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
	return rows, nil
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

// foldAVF folds E12's series into the per-(level, target, benchmark)
// AVF-vs-FI table.
func foldAVF(_ Params, fig *FigureResult) (any, error) {
	var rows []AVFRow
	byLabel := seriesByLabel(fig)
	for _, m := range levels {
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
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
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

// foldProtection derives every protected arm of E13 from its
// unprotected twin, inserts the arms into the figure after their twin,
// and folds each against the twin into the ROI table.
func foldProtection(p Params, fig *FigureResult) (any, error) {
	var rows []ProtectionRow
	byLabel := seriesByLabel(fig)
	frac := func(hits, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(hits) / float64(n)
	}
	var all []Series
	for _, m := range levels {
		for _, fm := range sweptFaultModels(p.Fault, 0) {
			for _, tgt := range protectionTargets(m) {
				twin := byLabel[protectionLabel(m, fm.Model, tgt, protect.SchemeNone)]
				all = append(all, twin)
				for _, sc := range protectionSchemes[1:] {
					all = append(all, Series{
						Label:   protectionLabel(m, fm.Model, tgt, sc),
						Vuln:    make(map[string]stats.Proportion, len(fig.Benches)),
						Results: make(map[string]*campaign.Result, len(fig.Benches)),
					})
				}
				arms := all[len(all)-len(protectionSchemes)+1:]
				for _, b := range fig.Benches {
					base := twin.Results[b]
					baseSDC := frac(base.Counts[campaign.ClassSDC], len(base.Outcomes))
					bits, err := TargetBits(b, m, p.Setup, tgt)
					if err != nil {
						return nil, err
					}
					for i, sc := range protectionSchemes[1:] {
						r, err := protect.Derive(base, sc, bits)
						if err != nil {
							return nil, fmt.Errorf("%s/%s: %w", arms[i].Label, b, err)
						}
						arms[i].Results[b], arms[i].Vuln[b] = r, r.Unsafeness
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
						rows = append(rows, row)
					}
				}
			}
		}
	}
	fig.Series = all
	return rows, nil
}

// PaperTables are the `paper -table` values: TABLE I (E1), TABLE II
// (E2) and the §IV sample-size formulation (E6) — the artifacts that are
// not campaign matrices and so have no registry entry.
var PaperTables = []string{"1", "2", "sample"}

// ThroughputRow is one row of the paper's TABLE II.
type ThroughputRow struct {
	Bench        string
	RTLSecPerRun float64
	MASecPerRun  float64
	Ratio        float64
	RTLMCycles   float64
	MAMCycles    float64
}

// table2 folds golden-run costs into TABLE II rows and their average
// ratio: a (model, benchmark) the sweep behind measured already ran is
// reused, anything else is measured now.
func (p Params) table2(measured map[string]campaign.GoldenInfo) ([]ThroughputRow, float64, error) {
	workloads, err := p.benchList()
	if err != nil {
		return nil, 0, err
	}
	rows := make([]ThroughputRow, 0, len(workloads))
	var ratioSum float64
	for _, w := range workloads {
		row := ThroughputRow{Bench: w.Name}
		for _, m := range levels {
			sim := Sim{w.Name, m, p.Setup}
			info, ok := measured[sim.Group()]
			if !ok {
				if info, err = measureGolden(sim); err != nil {
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

// measureGolden times one golden run of s through the shared
// golden-artifact phase, recording what every run of s records — the
// default snapshot schedule, and the L1D access timeline on the RTL flow
// (its §IV.B advancement records one) — so `-table 2` standalone and
// the sweep-reusing RunAll report the same kind of cost.
func measureGolden(s Sim) (campaign.GoldenInfo, error) {
	fac, err := s.Factory()
	if err != nil {
		return campaign.GoldenInfo{}, err
	}
	g, err := campaign.PrepareGolden(fac, s.GoldenOptions(campaign.Config{}))
	if err != nil {
		return campaign.GoldenInfo{}, err
	}
	return campaign.GoldenInfo{Group: s.Group(), Cycles: g.Cycles, Txns: g.Txns, Elapsed: g.Elapsed}, nil
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
func (p Params) Table2() ([]ThroughputRow, float64, error) { return p.table2(nil) }

// AllResults holds every table and figure of one full regeneration.
type AllResults struct {
	// Figures holds one result per InAll experiment, in registry order.
	Figures []*ExperimentResult

	Table2Rows     []ThroughputRow
	Table2AvgRatio float64

	// GoldenRuns is the number of golden runs the whole regeneration
	// executed: at most one per (model, benchmark), shared across
	// every figure, ablation and TABLE II.
	GoldenRuns int
	Resumed    int
	Elapsed    time.Duration
}

// RunAll regenerates every InAll experiment and TABLE II as ONE sweep:
// all campaign matrices are planned up front, goldens are shared across
// figures (at most one golden run per (model, benchmark)), every replay
// goes through one global worker pool, and TABLE II reuses the measured
// golden elapsed times instead of re-simulating.
func (p Params) RunAll() (*AllResults, error) {
	var exps []*Experiment
	for i := range experiments {
		if experiments[i].InAll {
			exps = append(exps, &experiments[i])
		}
	}
	figs, sr, err := p.runExperiments(exps)
	if err != nil {
		return nil, err
	}
	all := &AllResults{
		Figures:    figs,
		GoldenRuns: sr.GoldenRuns,
		Resumed:    sr.Resumed,
		Elapsed:    sr.Elapsed,
	}
	all.Table2Rows, all.Table2AvgRatio, err = p.table2(sr.Goldens)
	if err != nil {
		return nil, err
	}
	return all, nil
}
