package campaign_test

// Protection is no longer an engine option: protect.Derive turns an
// unprotected campaign's result (the twin) into a protected arm's. These
// tests hold the derivation end to end, on twins the engines replay.

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/protect"
)

// rfDataBits reports the microarch/RTL register file's real bit space,
// the boundary between a derived arm's data faults and its overhead
// region.
func rfDataBits(t *testing.T, model core.Model) int {
	t.Helper()
	bits, err := core.TargetBits("qsort", model, core.CampaignSetup(), fault.TargetRF)
	if err != nil {
		t.Fatal(err)
	}
	return bits
}

// protArm runs cfg unprotected on qsort and derives its arm under s.
func protArm(t *testing.T, model core.Model, cfg campaign.Config, s protect.Scheme) (twin, arm *campaign.Result) {
	t.Helper()
	twin = mustRun(t, factoryFor(t, "qsort", model), cfg)
	arm, err := protect.Derive(twin, s, rfDataBits(t, model))
	if err != nil {
		t.Fatal(err)
	}
	return twin, arm
}

// TestProtectedOutcomeDeterminism derives a parity arm from the twins
// every execution engine replays — the 64-lane walk against the scalar
// stream replayer (Lanes 1) on both models, and the sweep pool — and
// requires byte-identical outcome lists, DUE classifications included.
// Its last case is determinism across commits: one larger parity arm
// held to its exact split, so a change anywhere in the derivation (the
// draw stream, the word arity rule, the overhead verdicts) fails here.
func TestProtectedOutcomeDeterminism(t *testing.T) {
	base := campaign.Config{
		Injections: 24, Seed: 9, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
	}
	derive := func(model core.Model, twin *campaign.Result) *campaign.Result {
		t.Helper()
		arm, err := protect.Derive(twin, protect.SchemeParity, rfDataBits(t, model))
		if err != nil {
			t.Fatal(err)
		}
		return arm
	}
	_, walk := protArm(t, core.ModelMicroarch, base, protect.SchemeParity)
	if walk.Counts[campaign.ClassDUE] == 0 {
		t.Fatalf("parity arm has no DUE outcomes: %v", walk.Counts)
	}

	one := base
	one.Lanes = 1
	if _, scalar := protArm(t, core.ModelMicroarch, one, protect.SchemeParity); !reflect.DeepEqual(walk.Outcomes, scalar.Outcomes) {
		t.Errorf("arm derived from the lane walk diverged from the scalar replay's")
	}

	f := factoryFor(t, "qsort", core.ModelMicroarch)
	sr := mustSweep(t, []campaign.SweepCampaign{
		{Key: "twin", Group: "ma/qsort", Factory: f, Config: base},
	}, campaign.SweepOptions{Workers: 4})
	if !reflect.DeepEqual(walk.Outcomes, derive(core.ModelMicroarch, sr.Results["twin"]).Outcomes) {
		t.Errorf("arm derived from the sweep pool diverged from standalone Run's")
	}

	_, rs := protArm(t, core.ModelRTL, one, protect.SchemeParity)
	_, rl := protArm(t, core.ModelRTL, base, protect.SchemeParity)
	if !reflect.DeepEqual(rs.Outcomes, rl.Outcomes) {
		t.Errorf("RTL arm derived from the lanes diverged from the scalar replay's")
	}
	if rs.Counts[campaign.ClassDUE] == 0 {
		t.Errorf("RTL parity arm has no DUE outcomes: %v", rs.Counts)
	}

	_, pin := protArm(t, core.ModelMicroarch, campaign.Config{
		Injections: 120, Seed: 7, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000,
	}, protect.SchemeParity)
	got := [6]int{pin.ProtectDataBits, pin.ProtectOverheadBits, len(pin.Outcomes),
		pin.OverheadRuns, pin.Counts[campaign.ClassMasked], pin.Counts[campaign.ClassDUE]}
	if want := [6]int{1792, 112, 120, 3, 107, 13}; got != want {
		t.Errorf("pinned split moved: (data bits, overhead bits, runs, overhead runs, masked, due) = %v, want %v", got, want)
	}
}

// TestSECDEDAnalyticClasses checks the scheme model end to end on a
// SECDED-protected register file under single-bit transients: every
// data fault is corrected on use (Masked), every stored-check-bit fault
// is self-correcting (Masked), and every checker-logic fault raises a
// spurious detection (DUE). The arm's only unsafeness is the checker
// itself.
func TestSECDEDAnalyticClasses(t *testing.T) {
	cfg := campaign.Config{
		Injections: 48, Seed: 3, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
	}
	_, res := protArm(t, core.ModelMicroarch, cfg, protect.SchemeSECDED)
	data := rfDataBits(t, core.ModelMicroarch)
	checkEnd := data + protect.CheckBits(protect.SchemeSECDED, data)
	logicEnd := data + protect.OverheadBits(protect.SchemeSECDED, data)
	if res.ProtectDataBits != data || res.ProtectOverheadBits != logicEnd-data {
		t.Errorf("protection accounting: got (%d, %d), want (%d, %d)",
			res.ProtectDataBits, res.ProtectOverheadBits, data, logicEnd-data)
	}
	for i, oc := range res.Outcomes {
		want := campaign.ClassMasked
		wantOverhead := false
		switch {
		case oc.Spec.Bit < data:
			// arity-1 data corruption: corrected on use.
		case oc.Spec.Bit < checkEnd:
			wantOverhead = true // check bits localise their own flips
		default:
			want = campaign.ClassDUE // spurious detection from the checker
			wantOverhead = true
		}
		if oc.Class != want || oc.Overhead != wantOverhead {
			t.Errorf("outcome %d (bit %d): class %v overhead %v, want %v %v",
				i, oc.Spec.Bit, oc.Class, oc.Overhead, want, wantOverhead)
		}
	}
}

// TestParityStuckAtBlindSpot is E13's headline observable at unit-test
// scale: a transient glitch on parity's checker logic raises a spurious
// DUE, but a stuck-at-0 on the same path disarms detection entirely.
// With Stuck pinned to 0 both twins' plans and both arms' draw streams
// consume their RNGs identically, so the two arms sample the same
// (bit, cycle) stream and the comparison is paired per index.
func TestParityStuckAtBlindSpot(t *testing.T) {
	base := campaign.Config{
		Injections: 120, Seed: 17, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
	}
	stuck := base
	stuck.Fault = fault.Params{Model: fault.ModelStuckAt, Stuck: 0}
	_, resT := protArm(t, core.ModelMicroarch, base, protect.SchemeParity)
	_, resS := protArm(t, core.ModelMicroarch, stuck, protect.SchemeParity)
	data := rfDataBits(t, core.ModelMicroarch)
	logicStart := data + protect.CheckBits(protect.SchemeParity, data)
	logicFaults := 0
	for i, ocT := range resT.Outcomes {
		ocS := resS.Outcomes[i]
		if ocT.Spec.Bit != ocS.Spec.Bit || ocT.Spec.Cycle != ocS.Spec.Cycle {
			t.Fatalf("plans diverged at %d: transient (%d,%d) vs stuck-at (%d,%d)",
				i, ocT.Spec.Bit, ocT.Spec.Cycle, ocS.Spec.Bit, ocS.Spec.Cycle)
		}
		if ocT.Spec.Bit < logicStart {
			continue
		}
		logicFaults++
		if ocT.Class != campaign.ClassDUE {
			t.Errorf("transient on checker bit %d: %v, want due", ocT.Spec.Bit, ocT.Class)
		}
		if ocS.Class != campaign.ClassMasked {
			t.Errorf("stuck-at-0 on checker bit %d: %v, want masked (detection disarmed)",
				ocS.Spec.Bit, ocS.Class)
		}
	}
	if logicFaults == 0 {
		t.Fatal("draws reached no checker-logic bit; grow Injections or change Seed")
	}
}

// TestProtectOtherTargetIdentity pins the twin-untouched guarantee:
// deriving arms leaves the twin's result byte-identical (E13 reports
// the twin beside its arms), and a plan that does not cover the
// injected target selects no scheme, so faultsim derives nothing.
func TestProtectOtherTargetIdentity(t *testing.T) {
	cfg := campaign.Config{
		Injections: 40, Seed: 31, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
		TargetError: 0.2, MinRuns: 10,
	}
	twin := runSmall(t, core.ModelMicroarch, cfg, "qsort")
	again := runSmall(t, core.ModelMicroarch, cfg, "qsort")
	for _, s := range []protect.Scheme{protect.SchemeParity, protect.SchemeSECDED, protect.SchemeDup} {
		if _, err := protect.Derive(twin, s, rfDataBits(t, core.ModelMicroarch)); err != nil {
			t.Fatal(err)
		}
	}
	twin.Account = campaign.Account{}
	again.Account = campaign.Account{}
	if !reflect.DeepEqual(twin, again) {
		t.Errorf("deriving protected arms changed the twin")
	}
	plan, err := protect.Parse("l1d=secded")
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Scheme(fault.TargetRF); s != protect.SchemeNone {
		t.Errorf("l1d=secded protects the register file with %v", s)
	}
}

// TestProtectCheckpointStaleness: a protected arm depends only on its
// twin's outcomes, so an arm derived from a twin resumed from its own
// checkpoints equals the arm derived from the uninterrupted twin, DUE
// classifications included. (Shards of campaigns the engine replayed
// protected never merge into a twin: TestOldProtectedShardNeverMerges.)
func TestProtectCheckpointStaleness(t *testing.T) {
	dir := t.TempDir()
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 12, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 2,
	}
	run := func() (*campaign.Result, int) {
		sr := mustSweep(t, []campaign.SweepCampaign{
			{Key: "ckpt", Group: "ma/qsort", Factory: f, Config: cfg},
		}, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
		res := sr.Results["ckpt"]
		res.Account = campaign.Account{}
		arm, err := protect.Derive(res, protect.SchemeDup, rfDataBits(t, core.ModelMicroarch))
		if err != nil {
			t.Fatal(err)
		}
		return arm, sr.Resumed
	}
	fresh, resumed := run()
	if resumed != 0 {
		t.Fatalf("fresh run resumed %d records", resumed)
	}
	again, resumed := run()
	if resumed != cfg.Injections {
		t.Fatalf("resume restored %d replays, want %d", resumed, cfg.Injections)
	}
	if fresh.Counts[campaign.ClassDUE] == 0 {
		t.Fatalf("dup arm has no DUE outcomes: %v", fresh.Counts)
	}
	if !reflect.DeepEqual(fresh, again) {
		t.Errorf("arm derived from the resumed twin diverged:\n got %+v\nwant %+v", again, fresh)
	}
}

// TestProtectValidate covers what the derivation refuses and how it
// names its plan: a class-pruned twin (an overhead draw would drop a
// representative's class weight) is an error, and the arm carries its
// canonical plan.
func TestProtectValidate(t *testing.T) {
	cfg := campaign.Config{Injections: 6, Seed: 1, Target: fault.TargetRF, Window: 500}
	twin := runSmall(t, core.ModelMicroarch, cfg, "qsort")
	bits := rfDataBits(t, core.ModelMicroarch)
	arm, err := protect.Derive(twin, protect.SchemeSECDED, bits)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Protect != "rf=secded" {
		t.Errorf("arm plan %q, want rf=secded", arm.Protect)
	}
	classes := cfg
	classes.Injections, classes.Prune = 30, campaign.PruneClasses
	if _, err := protect.Derive(runSmall(t, core.ModelMicroarch, classes, "qsort"), protect.SchemeParity, bits); err == nil {
		t.Error("derivation from a class-pruned twin accepted")
	}
}
