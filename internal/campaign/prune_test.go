package campaign_test

import (
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// pruneMatrix is the exactness matrix: both abstraction levels, all
// four fault models, both campaign targets for the transients. Dead
// pruning must reproduce the full-replay classes class for class; the
// persistent models must fall back to full replay (zero pruned runs).
var pruneMatrix = []struct {
	name   string
	model  core.Model
	target fault.Target
	prm    fault.Params
	window uint64
}{
	{"ma/rf/transient", core.ModelMicroarch, fault.TargetRF, fault.Params{Model: fault.ModelTransient}, 3000},
	{"ma/rf/transient-to-end", core.ModelMicroarch, fault.TargetRF, fault.Params{Model: fault.ModelTransient}, 0},
	{"ma/l1d/transient", core.ModelMicroarch, fault.TargetL1D, fault.Params{Model: fault.ModelTransient}, 3000},
	{"ma/rf/burst", core.ModelMicroarch, fault.TargetRF, fault.Params{Model: fault.ModelBurst, Burst: 3}, 3000},
	{"ma/rf/stuck", core.ModelMicroarch, fault.TargetRF, fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}, 3000},
	{"ma/rf/intermittent", core.ModelMicroarch, fault.TargetRF, fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 400}, 3000},
	{"rtl/rf/transient", core.ModelRTL, fault.TargetRF, fault.Params{Model: fault.ModelTransient}, 3000},
	{"rtl/l1d/transient", core.ModelRTL, fault.TargetL1D, fault.Params{Model: fault.ModelTransient}, 3000},
	{"rtl/rf/burst", core.ModelRTL, fault.TargetRF, fault.Params{Model: fault.ModelBurst, Burst: 3}, 3000},
	{"rtl/rf/stuck", core.ModelRTL, fault.TargetRF, fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}, 3000},
	{"rtl/rf/intermittent", core.ModelRTL, fault.TargetRF, fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 400}, 3000},
}

func pruneCfg(tc struct {
	name   string
	model  core.Model
	target fault.Target
	prm    fault.Params
	window uint64
}, prune campaign.PruneMode) campaign.Config {
	return campaign.Config{
		Injections: 24, Seed: 31, Target: tc.target, Fault: tc.prm,
		Obs: campaign.ObsPinout, Window: tc.window, Workers: 4,
		Prune: prune,
	}
}

// TestPruneDeadExactness runs the matrix with pruning off and with
// dead-interval pruning and asserts per-index identical classes: the
// injection-less classification must be invisible in the results,
// cheaper only in cycles.
func TestPruneDeadExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("full replay matrix is slow")
	}
	prunedTransients := 0
	for _, tc := range pruneMatrix {
		factory := factoryFor(t, "qsort", tc.model)
		full := mustRun(t, factory, pruneCfg(tc, campaign.PruneOff))
		dead := mustRun(t, factory, pruneCfg(tc, campaign.PruneDead))
		if len(full.Outcomes) != len(dead.Outcomes) {
			t.Fatalf("%s: outcome counts differ (%d vs %d)", tc.name, len(full.Outcomes), len(dead.Outcomes))
		}
		for i := range full.Outcomes {
			f, d := full.Outcomes[i], dead.Outcomes[i]
			if f.Spec != d.Spec {
				t.Fatalf("%s[%d]: plans diverged (%+v vs %+v)", tc.name, i, f.Spec, d.Spec)
			}
			if f.Class != d.Class {
				t.Errorf("%s[%d]: class %v under full replay, %v under dead pruning (spec %+v, pruned=%v)",
					tc.name, i, f.Class, d.Class, d.Spec, d.Pruned)
			}
			if d.Pruned && d.Class != campaign.ClassMasked {
				t.Errorf("%s[%d]: pruned outcome classified %v", tc.name, i, d.Class)
			}
		}
		if tc.prm.Model.Persistent() {
			if dead.PrunedRuns != 0 {
				t.Errorf("%s: persistent model pruned %d runs (must fall back to replay)", tc.name, dead.PrunedRuns)
			}
		} else {
			prunedTransients += dead.PrunedRuns
			if dead.PruneSavedCycles == 0 && dead.PrunedRuns > 0 {
				t.Errorf("%s: %d pruned runs saved zero cycles", tc.name, dead.PrunedRuns)
			}
		}
		if full.PrunedRuns != 0 || full.ExtrapolatedRuns != 0 || full.PruneSavedCycles != 0 {
			t.Errorf("%s: pruning accounting active with Prune off", tc.name)
		}
	}
	if prunedTransients == 0 {
		t.Error("no transient fault was dead-pruned anywhere in the matrix; the exactness assertion is vacuous")
	}
}

// TestPruneDeadExactnessSOP covers the run-to-end software observation
// point: dead faults must be Masked at the SOP too (identical output).
func TestPruneDeadExactnessSOP(t *testing.T) {
	if testing.Short() {
		t.Skip("run-to-end replays are slow")
	}
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 24, Seed: 7, Target: fault.TargetL1D,
		Obs: campaign.ObsSOP, Workers: 4,
	}
	full := mustRun(t, factory, cfg)
	cfg.Prune = campaign.PruneDead
	dead := mustRun(t, factory, cfg)
	for i := range full.Outcomes {
		if full.Outcomes[i].Class != dead.Outcomes[i].Class {
			t.Errorf("outcome %d: %v vs %v (pruned=%v)", i,
				full.Outcomes[i].Class, dead.Outcomes[i].Class, dead.Outcomes[i].Pruned)
		}
	}
	if dead.PrunedRuns == 0 {
		t.Error("no L1D fault was dead-pruned on a run-to-end SOP campaign")
	}
}

// TestPruneClassesAccounting checks the MeRLiN mode's bookkeeping and
// determinism: every planned fault is accounted exactly once (pruned,
// extrapolated, or replayed), representatives carry their class sizes,
// members mirror their representative's class, and a rerun reproduces
// the result bit for bit.
func TestPruneClassesAccounting(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 60, Seed: 11, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 3000, Workers: 4,
		Prune: campaign.PruneClasses,
	}
	res := mustRun(t, factory, cfg)
	if res.ExtrapolatedRuns == 0 {
		t.Error("no fault was extrapolated; the class-fanout assertions below are vacuous")
	}
	replayed := 0
	classMass := 0
	for _, oc := range res.Outcomes {
		switch {
		case oc.Pruned:
		case oc.Extrapolated:
		default:
			replayed++
			if oc.ClassSize > 1 {
				classMass += oc.ClassSize - 1
			}
		}
	}
	if res.PrunedRuns+res.ExtrapolatedRuns+replayed != len(res.Outcomes) {
		t.Fatalf("accounting leak: %d pruned + %d extrapolated + %d replayed != %d outcomes",
			res.PrunedRuns, res.ExtrapolatedRuns, replayed, len(res.Outcomes))
	}
	if classMass != res.ExtrapolatedRuns {
		t.Errorf("class sizes carry %d members, %d outcomes extrapolated", classMass, res.ExtrapolatedRuns)
	}
	if res.PruneClassCount == 0 || res.PruneClassCount > replayed {
		t.Errorf("PruneClassCount = %d with %d replayed outcomes", res.PruneClassCount, replayed)
	}
	again := mustRun(t, factory, cfg)
	if len(again.Outcomes) != len(res.Outcomes) {
		t.Fatalf("rerun produced %d outcomes, want %d", len(again.Outcomes), len(res.Outcomes))
	}
	for i := range res.Outcomes {
		if res.Outcomes[i] != again.Outcomes[i] {
			t.Fatalf("outcome %d not deterministic: %+v vs %+v", i, res.Outcomes[i], again.Outcomes[i])
		}
	}
	if res.Unsafeness != again.Unsafeness {
		t.Errorf("unsafeness not deterministic: %+v vs %+v", res.Unsafeness, again.Unsafeness)
	}
}

// TestPruneClassesSeedPins holds class pruning on the paper's primary
// flow — a windowed L1D pinout campaign, where a fault first consumed
// beyond the window is provably Masked without replay — to its exact
// seed-determined accounting on both levels: simulated cycles without
// and with pruning, dead-classified runs, classes, an unchanged estimate.
// Both modes take their dead verdicts from one plan-time pass, so a
// PruneDead arm on the same plan must prune exactly the same indices.
func TestPruneClassesSeedPins(t *testing.T) {
	for _, tc := range []struct {
		model core.Model
		n     int
		want  [5]uint64
	}{
		{core.ModelMicroarch, 60, [5]uint64{97_067, 16_462, 50, 10, 0}},
		{core.ModelRTL, 24, [5]uint64{36_254, 11_839, 17, 7, 0}},
	} {
		cfg := campaign.Config{
			Injections: tc.n, Seed: 5, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: 500,
		}
		full := runSmall(t, tc.model, cfg, "caes")
		cfg.Prune = campaign.PruneClasses
		pruned := runSmall(t, tc.model, cfg, "caes")
		got := [5]uint64{full.CyclesSimulated, pruned.CyclesSimulated, uint64(pruned.PrunedRuns),
			uint64(pruned.PruneClassCount), uint64(pruned.ExtrapolatedRuns)}
		if got != tc.want || pruned.Unsafeness.P != full.Unsafeness.P {
			t.Errorf("%v pins moved: (cycles full, pruned; runs dead-pruned, classes, runs extrapolated) = %v, want %v; unsafeness %v -> %v",
				tc.model, got, tc.want, full.Unsafeness.P, pruned.Unsafeness.P)
		}
		cfg.Prune = campaign.PruneDead
		dead := runSmall(t, tc.model, cfg, "caes")
		if d, c := prunedIndices(dead), prunedIndices(pruned); dead.PrunedRuns != pruned.PrunedRuns || !slices.Equal(d, c) {
			t.Errorf("%v: PruneDead pruned %d runs at %v, PruneClasses %d at %v",
				tc.model, dead.PrunedRuns, d, pruned.PrunedRuns, c)
		}
	}
}

// prunedIndices lists the plan indices res classified dead without replay.
func prunedIndices(res *campaign.Result) []int {
	var idx []int
	for i, oc := range res.Outcomes {
		if oc.Pruned {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestPruneClassesMembersMirrorRep verifies the extrapolation invariant
// directly: re-running a classes-mode campaign with pruning disabled,
// every extrapolated member's true class may differ (that is the
// documented approximation), but the member must have inherited exactly
// its representative's class in the pruned run.
func TestPruneClassesMembersMirrorRep(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 60, Seed: 11, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 3000, Workers: 1,
		Prune: campaign.PruneClasses,
	}
	res := mustRun(t, factory, cfg)
	// Each extrapolated outcome copies some replayed outcome's class.
	classes := map[campaign.Class]bool{}
	for _, oc := range res.Outcomes {
		if !oc.Extrapolated && !oc.Pruned {
			classes[oc.Class] = true
		}
	}
	for i, oc := range res.Outcomes {
		if oc.Extrapolated && !classes[oc.Class] {
			t.Errorf("outcome %d extrapolated to class %v no representative produced", i, oc.Class)
		}
	}
}

// TestPruneSweepCheckpointResume runs a pruned sweep twice over one
// checkpoint directory: the rerun must resume its replayed outcomes
// from the shards (never re-simulating) and reproduce the first run's
// results exactly, including the re-derived pruning accounting. A
// third sweep with pruning off must ignore the pruned shards.
func TestPruneSweepCheckpointResume(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	dir := t.TempDir()
	matrix := []campaign.SweepCampaign{
		{
			Key: "dead", Group: "ma/qsort", Factory: factory,
			Config: campaign.Config{
				Injections: 24, Seed: 31, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Window: 3000, Prune: campaign.PruneDead,
			},
		},
		{
			// L1D at this sample size produces real equivalence classes
			// (members > 0), so the resume path exercises the
			// representative fanout, not just record reload.
			Key: "classes", Group: "ma/qsort", Factory: factory,
			Config: campaign.Config{
				Injections: 60, Seed: 11, Target: fault.TargetL1D,
				Obs: campaign.ObsPinout, Window: 3000, Prune: campaign.PruneClasses,
			},
		},
	}
	first := mustSweep(t, matrix, campaign.SweepOptions{Workers: 4, CheckpointDir: dir})
	second := mustSweep(t, matrix, campaign.SweepOptions{Workers: 4, CheckpointDir: dir})
	if second.Resumed == 0 {
		t.Fatal("nothing resumed from the pruned shards")
	}
	if first.Results["classes"].ExtrapolatedRuns == 0 {
		t.Error("classes campaign produced no extrapolation; the fanout-on-resume path is untested")
	}
	for _, key := range []string{"dead", "classes"} {
		a, b := first.Results[key], second.Results[key]
		if len(a.Outcomes) != len(b.Outcomes) {
			t.Fatalf("%s: %d vs %d outcomes after resume", key, len(a.Outcomes), len(b.Outcomes))
		}
		for i := range a.Outcomes {
			if a.Outcomes[i] != b.Outcomes[i] {
				t.Fatalf("%s outcome %d changed across resume: %+v vs %+v",
					key, i, a.Outcomes[i], b.Outcomes[i])
			}
		}
		if a.PrunedRuns != b.PrunedRuns || a.ExtrapolatedRuns != b.ExtrapolatedRuns ||
			a.PruneClassCount != b.PruneClassCount || a.PruneSavedCycles != b.PruneSavedCycles {
			t.Errorf("%s: pruning accounting changed across resume", key)
		}
		if a.Unsafeness != b.Unsafeness {
			t.Errorf("%s: unsafeness changed across resume", key)
		}
	}
	// Replays resumed must cover exactly the replayed (non-synthetic)
	// outcomes of both campaigns.
	wantResumed := 0
	for _, key := range []string{"dead", "classes"} {
		r := first.Results[key]
		wantResumed += len(r.Outcomes) - r.PrunedRuns - r.ExtrapolatedRuns
	}
	if second.Resumed != wantResumed {
		t.Errorf("resumed %d replays, want %d (synthetic outcomes must not hit shards)",
			second.Resumed, wantResumed)
	}
	// Prune-off shards must not cross-match pruned records.
	offMatrix := []campaign.SweepCampaign{{
		Key: "dead", Group: "ma/qsort", Factory: factory,
		Config: campaign.Config{
			Injections: 24, Seed: 31, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 3000,
		},
	}}
	off := mustSweep(t, offMatrix, campaign.SweepOptions{Workers: 4, CheckpointDir: dir})
	if off.Resumed != 0 {
		t.Errorf("prune-off sweep resumed %d outcomes from pruned shards", off.Resumed)
	}
}

// TestPruneGoldenOverhead bounds the lifetime trace's footprint sanity:
// a golden run with recording enabled must produce events and classify
// known-dead faults, and the default-off path must record nothing.
func TestPruneGoldenOverhead(t *testing.T) {
	factory := factoryFor(t, "qsort", core.ModelMicroarch)
	plain, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.LifetimeEvents() != 0 {
		t.Fatalf("default golden run recorded %d lifetime events", plain.LifetimeEvents())
	}
	traced, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{Lifetime: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.LifetimeEvents() == 0 {
		t.Fatal("lifetime-enabled golden run recorded no events")
	}
	if traced.Cycles != plain.Cycles {
		t.Fatalf("recording perturbed the golden run: %d vs %d cycles", traced.Cycles, plain.Cycles)
	}
}
