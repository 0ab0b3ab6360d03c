// Command benchjson emits the campaign-engine performance baseline as
// machine-readable JSON (BENCH_campaign.json): differential-replay
// throughput on both abstraction levels, full-sweep wall time for a
// miniature matrix, the adaptive engine's measured savings on a
// run-to-end campaign (simulated-cycle reduction, sequential-stop runs
// saved and estimate drift vs the fixed plan), golden-trace pruning's
// simulated-cycle reduction on both levels, the injection-locality
// cursor schedule's throughput and fast-forward elimination (model
// "replay-sched"), the observability overhead arm — the same campaign
// with the metrics registry off and on, gated at 3% throughput loss —
// each kernel's heap allocations per simulated cycle, gated at 0.01
// with no tolerance, and each model's state-digest cost. CI runs it on
// every push so future changes to the hot path have a trajectory to
// compare against:
//
//	go run ./tools/benchjson -out BENCH_campaign.json
//
// With -baseline it additionally gates against a committed baseline:
// the run fails when replay throughput (replaysPerSec, mcyclesPerSec)
// regresses by more than -max-regression (default 25%) on any model —
// the CI perf-regression gate:
//
//	go run ./tools/benchjson -out BENCH_campaign.new.json -baseline BENCH_campaign.json
//
// The baseline is absolute throughput, so it carries the hardware it
// was measured on; the 25% default absorbs normal runner noise, but a
// change of CI hardware class shows up as a gate failure — regenerate
// and commit a fresh BENCH_campaign.json from the new reference
// machine (or widen -max-regression) when that happens.
//
// This file is the canonical source of BENCH_campaign.json. The
// benchmarks in bench_test.go cover the same paths in Go-benchmark
// form (b.N loops, per-op metrics) at deliberately different sample
// sizes; comparisons belong within one source, never across the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Baseline is the emitted document.
type Baseline struct {
	GeneratedBy string            `json:"generatedBy"`
	Replay      []ReplayPoint     `json:"replay"`
	Sweep       SweepPoint        `json:"sweep"`
	EarlyStop   EarlyStop         `json:"earlyStop"`
	Pruning     []PruningPoint    `json:"pruning"`
	AvfPrior    AvfPriorPoint     `json:"avfPrior"`
	ReplaySched ReplaySchedPoint  `json:"replaySched"`
	Protection  ProtectionPoint   `json:"protection"`
	ObsOverhead ObsOverheadPoint  `json:"obsOverhead"`
	MAAllocs    KernelAllocsPoint `json:"microarchAllocsPerCycle"`
	RTLAllocs   KernelAllocsPoint `json:"rtlAllocsPerCycle"`
	MAHash      StateHashPoint    `json:"microarchStateHashUs"`
	RTLHash     StateHashPoint    `json:"rtlStateHashUs"`
}

// ObsOverheadPoint measures what enabling the metrics registry costs
// the engine hot path: the same campaign run with observability off and
// on, in back-to-back pairs that alternate which arm goes first.
// overheadFrac is the fractional throughput loss of the enabled arm at
// the median of the per-pair time ratios — a pair shares whatever the
// machine was doing that tenth of a second, so the ratio holds still
// where either arm's best time does not; the two throughputs are each
// arm's median. With -baseline set the run fails when overheadFrac
// exceeds 3%, which pins the registry's allocation-free atomic-counter
// design in CI. Baselines predating the arm carry a zero-valued point
// and the gate still applies (it compares the two same-run arms, not
// the baseline).
type ObsOverheadPoint struct {
	Workload     string  `json:"workload"`
	Injections   int     `json:"injections"`
	Pairs        int     `json:"pairs"`
	PlainRPS     float64 `json:"plainReplaysPerSec"`
	ObsRPS       float64 `json:"obsReplaysPerSec"`
	OverheadFrac float64 `json:"overheadFrac"`
}

// StateHashPoint is one model's full-state digest cost: a golden run
// digested every 64 cycles, as PrepareGolden records it for the
// convergence exit. stateHashUs is the mean cost of one digest and
// overheadFrac the share it adds to the golden run's stepping time —
// the "hash recording overhead" row of the ledger. Timing rows: not
// gated.
type StateHashPoint struct {
	Workload     string  `json:"workload"`
	Cycles       uint64  `json:"cycles"`
	Digests      int     `json:"digests"`
	StateHashUs  float64 `json:"stateHashUs"`
	OverheadFrac float64 `json:"overheadFrac"`
}

// KernelAllocsPoint is one stepping kernel's allocation row: one whole
// golden run (construction excluded, pinout capture attached) and the
// heap allocations it made. Both kernels step allocation-free — the
// microarch in-flight window (DESIGN.md "Window representation"), the
// RTL clock edge, interlock and cache miss path (DESIGN.md "RTL model")
// — so what remains is per syscall and per first-touched page, a few per
// ten thousand cycles. With -baseline set the run fails
// above kernelAllocsGate; the count is deterministic, so there is no
// tolerance.
type KernelAllocsPoint struct {
	Workload       string  `json:"workload"`
	Cycles         uint64  `json:"cycles"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerCycle float64 `json:"allocsPerCycle"`
}

// ReplayPoint is the oneRun replay-throughput measurement for one model.
type ReplayPoint struct {
	Model        string  `json:"model"`
	Replays      int     `json:"replays"`
	ReplaysPerS  float64 `json:"replaysPerSec"`
	MCyclesPerS  float64 `json:"mcyclesPerSec"`
	GoldenCycles uint64  `json:"goldenCycles"`

	// Lockstep arms ("<model>-batch") only: the share of replays the
	// design consumed (peeled to a scalar tail), mean lanes per group,
	// and where the stepped cycles went — golden cycles the groups rode
	// together against cycles peeled lanes simulated alone.
	PeeledFrac     float64 `json:"peeledFrac,omitempty"`
	LaneOccupancy  float64 `json:"laneOccupancy,omitempty"`
	LockstepCycles uint64  `json:"lockstepCycles,omitempty"`
	PrivateCycles  uint64  `json:"privateCycles,omitempty"`
}

// SweepPoint is the miniature full-sweep wall-time measurement.
type SweepPoint struct {
	Campaigns  int     `json:"campaigns"`
	Injections int     `json:"injections"`
	GoldenRuns int     `json:"goldenRuns"`
	WallSec    float64 `json:"wallSec"`
}

// EarlyStop compares the fixed-plan and adaptive engines on the same
// run-to-end campaign. The adaptive arm runs with sequential stopping
// enabled (a margin loose enough to trigger at this sample size), so
// runsSaved exercises — and reports — the statistical-stopping path,
// not just the convergence exit.
type EarlyStop struct {
	Workload        string  `json:"workload"`
	Injections      int     `json:"injections"`
	FixedMCycles    float64 `json:"fixedMcycles"`
	AdaptiveMCycles float64 `json:"adaptiveMcycles"`
	SavedFrac       float64 `json:"savedFrac"`
	Converged       int     `json:"converged"`
	RunsSaved       int     `json:"runsSaved"`
	Drift           float64 `json:"unsafenessDrift"`
	Margin          float64 `json:"achievedMargin"`
}

// PruningPoint compares the full engine against golden-trace pruning
// (dead-interval classification + MeRLiN-style class extrapolation) on
// one run-to-end campaign per abstraction level.
type PruningPoint struct {
	Model        string  `json:"model"`
	Workload     string  `json:"workload"`
	Injections   int     `json:"injections"`
	FullMCycles  float64 `json:"fullMcycles"`
	PruneMCycles float64 `json:"pruneMcycles"`
	Speedup      float64 `json:"mcycleSpeedup"` // full/pruned simulated cycles
	Pruned       int     `json:"pruned"`        // dead-classified, zero replay
	Extrapolated int     `json:"extrapolated"`  // class members inheriting their rep
	Classes      int     `json:"classes"`
	Drift        float64 `json:"unsafenessDrift"`
}

// AvfPriorPoint compares runs-to-margin of the same sequential-stopping
// campaign with and without the injection-free AVF prediction seeded as
// a prior. Both arms are deterministic at the fixed seed, so the
// -baseline gate pins the prior's saving exactly: a semantic change to
// the prior (or to sequential stopping under it) shows up as a gate
// failure, not a silent drift.
type AvfPriorPoint struct {
	Workload     string  `json:"workload"`
	Target       string  `json:"target"`
	Injections   int     `json:"injections"`
	TargetError  float64 `json:"targetError"`
	PredictedAVF float64 `json:"predictedAvf"`
	PlainRuns    int     `json:"plainRuns"` // runs to margin without the prior
	PriorRuns    int     `json:"priorRuns"` // runs to margin with it
	SavedFrac    float64 `json:"savedFrac"`
	Drift        float64 `json:"unsafenessDrift"`
}

// ProtectionPoint runs one protected register-file campaign (parity,
// pinout observation) at a fixed seed and records its deterministic
// class split — the extended plan size, the synthesised overhead-region
// faults and the Masked/DUE counts. Like avf-prior, every field is
// seed-pinned, so the -baseline gate compares the split exactly: a
// semantic change anywhere in the protection fold (word arity rule,
// overhead synthesis, DUE classification) shows up as a gate failure,
// not a silent drift. Baselines predating the arm carry a zero-valued
// point and the gate skips it.
type ProtectionPoint struct {
	Workload     string  `json:"workload"`
	Protect      string  `json:"protect"`
	Injections   int     `json:"injections"`
	DataBits     int     `json:"dataBits"`
	OverheadBits int     `json:"overheadBits"`
	Runs         int     `json:"runs"`
	OverheadRuns int     `json:"overheadRuns"`
	Masked       int     `json:"masked"`
	DUE          int     `json:"due"`
	Unsafeness   float64 `json:"unsafeness"`
}

// ReplaySchedPoint measures the injection-locality cursor schedule on
// the microarch model: the same 120-transient plan the scalar microarch
// arm replays in stream order, driven through one single-threaded
// CursorReplayer instead. streamFfMcycles is the golden fast-forward
// the stream order would pay (Σ instant − nearest snapshot),
// cursorFfMcycles is what the cursor actually stepped, and
// eliminatedMcycles is their difference — the same quantity a
// cursor-scheduled campaign reports as FastForwardSaved in
// report.Campaign, so the two artifacts reconcile directly. The arm's
// throughput is also appended to replay[] as model "replay-sched",
// which puts it under the -baseline regression gate.
type ReplaySchedPoint struct {
	Model             string  `json:"model"` // underlying simulation model
	Workload          string  `json:"workload"`
	Replays           int     `json:"replays"`
	ReplaysPerS       float64 `json:"replaysPerSec"`
	StreamFFMcycles   float64 `json:"streamFfMcycles"`
	CursorFFMcycles   float64 `json:"cursorFfMcycles"`
	EliminatedMcycles float64 `json:"eliminatedMcycles"`
	Forks             int     `json:"forks"`
	SpeedupVsStream   float64 `json:"speedupVsStream"` // vs this run's scalar microarch arm
}

func main() {
	out := flag.String("out", "BENCH_campaign.json", "output path")
	baseline := flag.String("baseline", "", "compare against this committed baseline and fail on regression")
	maxReg := flag.Float64("max-regression", 0.25, "tolerated fractional throughput regression vs -baseline")
	flag.Parse()
	if err := run(*out, *baseline, *maxReg); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, baseline string, maxReg float64) error {
	doc := Baseline{GeneratedBy: "tools/benchjson"}

	for _, m := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		pt, err := measureReplay(m, 120)
		if err != nil {
			return err
		}
		doc.Replay = append(doc.Replay, pt)
	}

	// The bit-parallel arms replay the same planned-fault shape through
	// the 64-lane lockstep engine on each model; committed next to the
	// scalar points, the baseline gate pins the batched speedups too.
	for _, m := range []core.Model{core.ModelRTL, core.ModelMicroarch} {
		bp, err := measureReplayBatch(m, 512)
		if err != nil {
			return err
		}
		doc.Replay = append(doc.Replay, bp)
	}

	// The cursor-schedule arm replays the microarch arm's exact plan
	// through the injection-locality scheduler; its throughput point
	// lands in replay[] (model "replay-sched") so the -baseline gate
	// covers it, and the fast-forward elimination is reported alongside.
	sp, spt, err := measureReplaySched(doc.Replay[0])
	if err != nil {
		return err
	}
	doc.Replay = append(doc.Replay, sp)
	doc.ReplaySched = spt

	sw, err := measureSweep()
	if err != nil {
		return err
	}
	doc.Sweep = sw

	es, err := measureEarlyStop()
	if err != nil {
		return err
	}
	doc.EarlyStop = es

	for _, m := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		pp, err := measurePruning(m)
		if err != nil {
			return err
		}
		doc.Pruning = append(doc.Pruning, pp)
	}

	ap, err := measureAVFPrior()
	if err != nil {
		return err
	}
	doc.AvfPrior = ap

	pr, err := measureProtection()
	if err != nil {
		return err
	}
	doc.Protection = pr

	oo, err := measureObsOverhead()
	if err != nil {
		return err
	}
	doc.ObsOverhead = oo

	if doc.MAAllocs, err = measureKernelAllocs(core.ModelMicroarch); err != nil {
		return err
	}
	if doc.RTLAllocs, err = measureKernelAllocs(core.ModelRTL); err != nil {
		return err
	}
	if doc.MAHash, err = measureStateHash(core.ModelMicroarch); err != nil {
		return err
	}
	if doc.RTLHash, err = measureStateHash(core.ModelRTL); err != nil {
		return err
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if baseline == "" {
		return nil
	}
	// The observability gate compares this run's two arms against each
	// other (no hardware dependence), so it rides the -baseline mode
	// flag rather than any baseline field.
	if doc.ObsOverhead.OverheadFrac > obsOverheadGate {
		return fmt.Errorf("metrics overhead %.1f%% exceeds the %.0f%% gate (plain %.1f replays/s, obs %.1f replays/s)",
			doc.ObsOverhead.OverheadFrac*100, obsOverheadGate*100,
			doc.ObsOverhead.PlainRPS, doc.ObsOverhead.ObsRPS)
	}
	// Likewise the kernel allocation gates: an absolute ceiling on a
	// deterministic count, per abstraction level.
	for _, k := range []struct {
		model core.Model
		pt    KernelAllocsPoint
	}{{core.ModelMicroarch, doc.MAAllocs}, {core.ModelRTL, doc.RTLAllocs}} {
		if k.pt.AllocsPerCycle > kernelAllocsGate {
			return fmt.Errorf("%s kernel allocates %.4f times per cycle (%d in %d cycles of %s), gate %.2f",
				k.model, k.pt.AllocsPerCycle, k.pt.Allocs, k.pt.Cycles, k.pt.Workload, kernelAllocsGate)
		}
	}
	return compareBaseline(doc, baseline, maxReg)
}

// compareBaseline is the CI perf-regression gate: replay throughput
// (replays/s and simulated Mcycles/s) must stay within maxReg of the
// committed baseline on every model.
func compareBaseline(doc Baseline, path string, maxReg float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	byModel := make(map[string]ReplayPoint, len(base.Replay))
	for _, pt := range base.Replay {
		byModel[pt.Model] = pt
	}
	var failures []string
	check := func(model, metric string, now, was float64) {
		if was <= 0 {
			return
		}
		if now < was*(1-maxReg) {
			failures = append(failures,
				fmt.Sprintf("%s %s regressed %.1f%% (%.2f -> %.2f, tolerance %.0f%%)",
					model, metric, (1-now/was)*100, was, now, maxReg*100))
		}
	}
	for _, pt := range doc.Replay {
		was, ok := byModel[pt.Model]
		if !ok {
			continue
		}
		check(pt.Model, "replaysPerSec", pt.ReplaysPerS, was.ReplaysPerS)
		check(pt.Model, "mcyclesPerSec", pt.MCyclesPerS, was.MCyclesPerS)
	}
	// The avf-prior arm is deterministic (fixed seed, no wall clock), so
	// it is gated without tolerance: the prior seeding must keep reaching
	// the margin in no more runs than the committed baseline records.
	if was := base.AvfPrior.PriorRuns; was > 0 && doc.AvfPrior.PriorRuns > was {
		failures = append(failures,
			fmt.Sprintf("avf-prior runs-to-margin regressed (%d -> %d of %d planned)",
				was, doc.AvfPrior.PriorRuns, doc.AvfPrior.Injections))
	}
	// The protected-campaign arm is deterministic at its fixed seed, so
	// its class split is gated exactly whenever the committed baseline
	// carries one (older baselines record a zero-valued point).
	if was := base.Protection; was.Runs > 0 {
		now := doc.Protection
		if now.Runs != was.Runs || now.OverheadRuns != was.OverheadRuns ||
			now.Masked != was.Masked || now.DUE != was.DUE {
			failures = append(failures, fmt.Sprintf(
				"protected-campaign split drifted (runs %d -> %d, overhead %d -> %d, masked %d -> %d, due %d -> %d)",
				was.Runs, now.Runs, was.OverheadRuns, now.OverheadRuns,
				was.Masked, now.Masked, was.DUE, now.DUE))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", f)
		}
		return fmt.Errorf("%d perf regression(s) beyond the %.0f%% gate vs %s",
			len(failures), maxReg*100, path)
	}
	fmt.Printf("benchjson: within %.0f%% of baseline %s on every replay metric\n", maxReg*100, path)
	return nil
}

func measureReplay(m core.Model, n int) (ReplayPoint, error) {
	prog, err := workload("qsort")
	if err != nil {
		return ReplayPoint{}, err
	}
	factory := core.Factory(m, prog, core.CampaignSetup())
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		return ReplayPoint{}, err
	}
	sim, err := factory()
	if err != nil {
		return ReplayPoint{}, err
	}
	// Lanes = 1: these rows are the scalar engine's trajectory, whatever
	// engine the default lane width selects on the model.
	cfg := campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, Lanes: 1,
	}
	specs, err := fault.Plan(n, cfg.Target, sim.Bits(cfg.Target), g.Cycles,
		fault.DistNormal, cfg.Fault, rand.New(rand.NewSource(1)))
	if err != nil {
		return ReplayPoint{}, err
	}
	var cycles uint64
	start := time.Now()
	for _, s := range specs {
		oc, err := g.ReplayOne(sim, s, cfg)
		if err != nil {
			return ReplayPoint{}, err
		}
		cycles += oc.EndCycle - s.Cycle
	}
	el := time.Since(start).Seconds()
	return ReplayPoint{
		Model: m.String(), Replays: n,
		ReplaysPerS:  float64(n) / el,
		MCyclesPerS:  float64(cycles) / el / 1e6,
		GoldenCycles: g.Cycles,
	}, nil
}

// measureReplayBatch measures the bit-parallel lockstep engine on one
// model: n planned transients replayed through one 64-lane
// BatchReplayer (cycle-clustered groups, lane peeling on first
// consumption). Reported under model "<model>-batch" with the same
// replaysPerSec/mcyclesPerSec metrics as the scalar arms, so the
// -baseline gate covers the batched path the moment the point lands in
// the committed baseline, plus the engine's own account of the pass.
func measureReplayBatch(m core.Model, n int) (ReplayPoint, error) {
	prog, err := workload("qsort")
	if err != nil {
		return ReplayPoint{}, err
	}
	factory := core.Factory(m, prog, core.CampaignSetup())
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		return ReplayPoint{}, err
	}
	probe, err := factory()
	if err != nil {
		return ReplayPoint{}, err
	}
	cfg := campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, Lanes: campaign.MaxLanes,
	}
	specs, err := fault.Plan(n, cfg.Target, probe.Bits(cfg.Target), g.Cycles,
		fault.DistNormal, cfg.Fault, rand.New(rand.NewSource(1)))
	if err != nil {
		return ReplayPoint{}, err
	}
	br, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: factory})
	if err != nil {
		return ReplayPoint{}, err
	}
	defer br.Close()
	if _, ok := br.(*campaign.BatchReplayer); !ok {
		return ReplayPoint{}, fmt.Errorf("%v model lost its batch surface", m)
	}
	var cycles uint64
	i := 0
	start := time.Now()
	err = br.Replay(func() (int, fault.Spec, bool) {
		if i >= len(specs) {
			return 0, fault.Spec{}, false
		}
		i++
		return i - 1, specs[i-1], true
	}, func(idx int, oc campaign.RunOutcome) error {
		cycles += oc.EndCycle - specs[idx].Cycle
		return nil
	})
	if err != nil {
		return ReplayPoint{}, err
	}
	el := time.Since(start).Seconds()
	st := br.Stats()
	return ReplayPoint{
		Model: m.String() + "-batch", Replays: n,
		ReplaysPerS:    float64(n) / el,
		MCyclesPerS:    float64(cycles) / el / 1e6,
		GoldenCycles:   g.Cycles,
		PeeledFrac:     float64(st.Peeled) / float64(n),
		LaneOccupancy:  float64(st.LaneSum) / float64(st.Groups),
		LockstepCycles: st.Lockstep,
		PrivateCycles:  st.Private,
	}, nil
}

// measureReplaySched drives the scalar microarch arm's fault plan
// through one CursorReplayer (single-threaded, so the comparison
// against the scalar arm is engine-for-engine) and reports throughput
// plus the golden fast-forward cycles the schedule eliminated.
func measureReplaySched(scalar ReplayPoint) (ReplayPoint, ReplaySchedPoint, error) {
	const n = 120
	prog, err := workload("qsort")
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	factory := core.Factory(core.ModelMicroarch, prog, core.CampaignSetup())
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	probe, err := factory()
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	cfg := campaign.Config{
		Injections: 1, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, Sched: campaign.SchedCursor,
		Lanes: 1, // the cursor engine itself, not lanes under the cursor schedule
	}
	specs, err := fault.Plan(n, cfg.Target, probe.Bits(cfg.Target), g.Cycles,
		fault.DistNormal, cfg.Fault, rand.New(rand.NewSource(1)))
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: factory})
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	cr, ok := r.(*campaign.CursorReplayer)
	if !ok {
		return ReplayPoint{}, ReplaySchedPoint{}, fmt.Errorf("cursor schedule selected %T, not the cursor engine", r)
	}
	var cycles uint64
	i := 0
	start := time.Now()
	err = cr.Replay(func() (int, fault.Spec, bool) {
		if i >= len(specs) {
			return 0, fault.Spec{}, false
		}
		i++
		return i - 1, specs[i-1], true
	}, func(idx int, oc campaign.RunOutcome) error {
		cycles += oc.EndCycle - specs[idx].Cycle
		return nil
	})
	if err != nil {
		return ReplayPoint{}, ReplaySchedPoint{}, err
	}
	el := time.Since(start).Seconds()
	pt := ReplayPoint{
		Model: "replay-sched", Replays: n,
		ReplaysPerS:  float64(n) / el,
		MCyclesPerS:  float64(cycles) / el / 1e6,
		GoldenCycles: g.Cycles,
	}
	sp := ReplaySchedPoint{
		Model: core.ModelMicroarch.String(), Workload: "qsort", Replays: n,
		ReplaysPerS:       pt.ReplaysPerS,
		StreamFFMcycles:   float64(cr.StreamFF) / 1e6,
		CursorFFMcycles:   float64(cr.FastForward) / 1e6,
		EliminatedMcycles: float64(cr.StreamFF-cr.FastForward) / 1e6,
		Forks:             cr.Forks,
	}
	if scalar.ReplaysPerS > 0 {
		sp.SpeedupVsStream = pt.ReplaysPerS / scalar.ReplaysPerS
	}
	return pt, sp, nil
}

func measureSweep() (SweepPoint, error) {
	prog, err := workload("qsort")
	if err != nil {
		return SweepPoint{}, err
	}
	factory := core.Factory(core.ModelMicroarch, prog, core.CampaignSetup())
	cfg := campaign.Config{
		Injections: 40, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	l1d := cfg
	l1d.Target = fault.TargetL1D
	start := time.Now()
	sr, err := campaign.Sweep([]campaign.SweepCampaign{
		{Key: "rf", Group: "ma/qsort", Factory: factory, Config: cfg},
		{Key: "l1d", Group: "ma/qsort", Factory: factory, Config: l1d},
	}, campaign.SweepOptions{})
	if err != nil {
		return SweepPoint{}, err
	}
	return SweepPoint{
		Campaigns: 2, Injections: cfg.Injections * 2,
		GoldenRuns: sr.GoldenRuns, WallSec: time.Since(start).Seconds(),
	}, nil
}

func measureEarlyStop() (EarlyStop, error) {
	const bench = "caes"
	cfg := campaign.Config{
		Injections: 80, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout,
	}
	fixed, err := core.RunCampaign(bench, core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return EarlyStop{}, err
	}
	// The adaptive arm enables BOTH engine features: the convergence
	// exit (converged, cycle savings) and sequential stopping with a
	// margin/confidence loose enough to trigger inside 80 injections,
	// so the emitted runsSaved actually exercises the stopping path
	// instead of reporting a structural zero.
	cfg.EarlyStop = true
	cfg.TargetError = 0.1
	cfg.Confidence = 0.9
	cfg.MinRuns = 30
	adaptive, err := core.RunCampaign(bench, core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return EarlyStop{}, err
	}
	es := EarlyStop{
		Workload: bench, Injections: cfg.Injections,
		FixedMCycles:    float64(fixed.CyclesSimulated) / 1e6,
		AdaptiveMCycles: float64(adaptive.CyclesSimulated) / 1e6,
		Converged:       adaptive.ConvergedRuns,
		RunsSaved:       adaptive.RunsSaved,
		Drift:           math.Abs(adaptive.Unsafeness.P - fixed.Unsafeness.P),
		Margin:          adaptive.AchievedMargin,
	}
	if fixed.CyclesSimulated > 0 {
		es.SavedFrac = 1 - float64(adaptive.CyclesSimulated)/float64(fixed.CyclesSimulated)
	}
	return es, nil
}

// measurePruning compares the full engine against golden-trace class
// pruning on one windowed L1D campaign per abstraction level — the
// paper's primary pinout flow, where a fault first consumed beyond the
// observation window is provably Masked without replay.
func measurePruning(m core.Model) (PruningPoint, error) {
	const bench = "caes"
	n := 60
	if m == core.ModelRTL {
		n = 24
	}
	cfg := campaign.Config{
		Injections: n, Seed: 5, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 500,
	}
	full, err := core.RunCampaign(bench, m, core.CampaignSetup(), cfg)
	if err != nil {
		return PruningPoint{}, err
	}
	cfg.Prune = campaign.PruneClasses
	pruned, err := core.RunCampaign(bench, m, core.CampaignSetup(), cfg)
	if err != nil {
		return PruningPoint{}, err
	}
	pp := PruningPoint{
		Model: m.String(), Workload: bench, Injections: n,
		FullMCycles:  float64(full.CyclesSimulated) / 1e6,
		PruneMCycles: float64(pruned.CyclesSimulated) / 1e6,
		Pruned:       pruned.PrunedRuns,
		Extrapolated: pruned.ExtrapolatedRuns,
		Classes:      pruned.PruneClassCount,
		Drift:        math.Abs(pruned.Unsafeness.P - full.Unsafeness.P),
	}
	if pruned.CyclesSimulated > 0 {
		pp.Speedup = float64(full.CyclesSimulated) / float64(pruned.CyclesSimulated)
	}
	return pp, nil
}

// measureAVFPrior runs one sequential-stopping register-file campaign
// twice — plain, then with the injection-free AVF prediction seeded as
// the stopping prior — and reports both runs-to-margin counts. The
// prior moves only the stopping index, never the per-run outcomes, so
// the drift between the two arms' estimates is pure sample-size effect.
func measureAVFPrior() (AvfPriorPoint, error) {
	const bench = "caes"
	cfg := campaign.Config{
		Injections: 150, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000,
		EarlyStop: true, TargetError: 0.1, Confidence: 0.9, MinRuns: 30,
		AVF: true,
	}
	plain, err := core.RunCampaign(bench, core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return AvfPriorPoint{}, err
	}
	cfg.AVFPrior = true
	prior, err := core.RunCampaign(bench, core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return AvfPriorPoint{}, err
	}
	ap := AvfPriorPoint{
		Workload: bench, Target: cfg.Target.String(), Injections: cfg.Injections,
		TargetError: cfg.TargetError,
		PlainRuns:   len(plain.Outcomes),
		PriorRuns:   len(prior.Outcomes),
		Drift:       math.Abs(prior.Unsafeness.P - plain.Unsafeness.P),
	}
	if plain.AVF != nil {
		ap.PredictedAVF = plain.AVF.Predicted
	}
	if ap.PlainRuns > 0 {
		ap.SavedFrac = 1 - float64(ap.PriorRuns)/float64(ap.PlainRuns)
	}
	return ap, nil
}

// measureProtection runs the protected-campaign arm: parity on the
// register file, fixed seed, pinout window — the smallest campaign that
// exercises the extended fault plan (overhead synthesis) and the
// use-time DUE classification together.
func measureProtection() (ProtectionPoint, error) {
	cfg := campaign.Config{
		Injections: 120, Seed: 7, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000,
		Protect: "rf=parity",
	}
	res, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return ProtectionPoint{}, err
	}
	return ProtectionPoint{
		Workload: "qsort", Protect: cfg.Protect, Injections: cfg.Injections,
		DataBits:     res.ProtectDataBits,
		OverheadBits: res.ProtectOverheadBits,
		Runs:         len(res.Outcomes),
		OverheadRuns: res.OverheadRuns,
		Masked:       res.Counts[campaign.ClassMasked],
		DUE:          res.Counts[campaign.ClassDUE],
		Unsafeness:   res.Unsafeness.P,
	}, nil
}

// obsOverheadGate is the tolerated fractional throughput cost of
// enabling the metrics registry, enforced whenever -baseline is set.
const obsOverheadGate = 0.03

// measureObsOverhead times the same full campaign (golden prep reused,
// replay phase timed) with observability off and on, in obsPairs (or,
// while the reading is above the gate, up to obsMaxPairs) back-to-back
// pairs that alternate which arm runs first. The plan is sized so an
// arm runs for ~0.2 s — 7680 injections now that the default engine on
// this model is the lockstep one, whose counters are what the enabled
// arm exercises: an arm of a few tens of milliseconds (120 injections
// on the scalar engine, 960 on this one) crossed the 3% gate on
// run-to-run noise alone. Arms are compared pair by pair, not best
// against best: one lucky plain run sets a bar no enabled run of
// another pair ever saw, which tripped the gate about one run in three
// on a loaded two-core box.
func measureObsOverhead() (ObsOverheadPoint, error) {
	cfg := campaign.Config{
		Injections: 7680, Seed: 9, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	arm := func(enabled bool) (float64, error) {
		if enabled {
			obs.Enable()
		} else {
			obs.Disable()
		}
		defer obs.Disable()
		runtime.GC() // so neither arm pays for the other's garbage
		start := time.Now()
		if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	var plain, observed []float64
	overhead := 0.0
	for pairs := obsPairs; ; pairs *= 2 {
		for r := len(plain); r < pairs; r++ {
			var el [2]float64 // [plain, enabled]
			for k := 0; k < 2; k++ {
				i := (r + k) % 2 // odd pairs run the enabled arm first
				var err error
				if el[i], err = arm(i == 1); err != nil {
					return ObsOverheadPoint{}, err
				}
			}
			plain = append(plain, el[0])
			observed = append(observed, el[1])
		}
		overhead = pairedOverhead(plain, observed)
		if overhead <= obsOverheadGate || pairs >= obsMaxPairs {
			break
		}
	}
	return ObsOverheadPoint{
		Workload: "qsort", Injections: cfg.Injections, Pairs: len(plain),
		PlainRPS:     float64(cfg.Injections) / median(plain),
		ObsRPS:       float64(cfg.Injections) / median(observed),
		OverheadFrac: overhead,
	}, nil
}

// obsPairs is the number of plain/enabled pairs the overhead arm starts
// with: even, so both orders are equally represented and whatever
// running second is worth cancels in the median. A reading above the
// gate doubles the sample, up to obsMaxPairs, before it counts: on a
// shared two-core box one pair's ratio spreads by ~3%, so the median of
// eight still crosses 3% about one run in ten at a true overhead of 1%,
// the median of 32 one in a few hundred, and a real regression stays
// above the gate however many pairs are drawn.
const (
	obsPairs    = 8
	obsMaxPairs = 32
)

// pairedOverhead is the fractional throughput loss of the enabled arm at
// the median of the per-pair time ratios observed[i]/plain[i], floored
// at zero.
func pairedOverhead(plain, observed []float64) float64 {
	ratios := make([]float64, len(plain))
	for i := range plain {
		ratios[i] = observed[i] / plain[i]
	}
	return math.Max(0, 1-1/median(ratios))
}

func median(xs []float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// kernelAllocsGate is the ceiling on a stepping kernel's heap
// allocations per simulated cycle, enforced whenever -baseline is set.
// The measured counts on qsort — microarch 7 in 28 759 cycles, RTL 18 in
// 54 993, all syscall output and first-touched pages — sit thirty times
// below it, while the cheapest regression on record (the RTL interlock's
// per-instruction source list) added 0.1.
const kernelAllocsGate = 0.01

// kernelBench is the program of the per-kernel rows.
const kernelBench = "qsort"

// kernelSim builds model m on kernelBench, not yet stepped, with a
// pre-grown pinout capture attached as the campaign engine's are.
func kernelSim(m core.Model) (campaign.Simulator, error) {
	p, err := workload(kernelBench)
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulator(m, p, core.CampaignSetup())
	if err != nil {
		return nil, err
	}
	sim.SetPinout(&trace.Pinout{Txns: make([]trace.Transaction, 0, 4096)})
	return sim, nil
}

// measureKernelAllocs counts the heap allocations of one golden run of
// model m, from the first Step to the last, on this goroutine alone.
func measureKernelAllocs(m core.Model) (KernelAllocsPoint, error) {
	sim, err := kernelSim(m)
	if err != nil {
		return KernelAllocsPoint{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run(1 << 40)
	runtime.ReadMemStats(&after)
	pt := KernelAllocsPoint{Workload: kernelBench, Cycles: sim.Cycles(), Allocs: after.Mallocs - before.Mallocs}
	if pt.Cycles == 0 {
		return pt, fmt.Errorf("%s golden run of %s simulated no cycle", m, kernelBench)
	}
	pt.AllocsPerCycle = float64(pt.Allocs) / float64(pt.Cycles)
	return pt, nil
}

// hashEvery is the digest stride of the state-hash rows: the engine's
// default (campaign's defaultHashEvery).
const hashEvery = 64

// measureStateHash steps one golden run of model m, digesting the full
// state every hashEvery cycles and timing the digests apart from the
// stepping between them.
func measureStateHash(m core.Model) (StateHashPoint, error) {
	sim, err := kernelSim(m)
	if err != nil {
		return StateHashPoint{}, err
	}
	pt := StateHashPoint{Workload: kernelBench}
	var hashing time.Duration
	start := time.Now()
	for sim.Step() {
		if sim.Cycles()%hashEvery == 0 {
			t0 := time.Now()
			sim.StateHash()
			hashing += time.Since(t0)
			pt.Digests++
		}
	}
	stepping := time.Since(start) - hashing
	pt.Cycles = sim.Cycles()
	if pt.Digests == 0 || stepping <= 0 {
		return pt, fmt.Errorf("%s golden run of %s took no digest", m, kernelBench)
	}
	pt.StateHashUs = hashing.Seconds() * 1e6 / float64(pt.Digests)
	pt.OverheadFrac = hashing.Seconds() / stepping.Seconds()
	return pt, nil
}

func workload(name string) (*asm.Program, error) {
	w, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return w.Program()
}
