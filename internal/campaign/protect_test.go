package campaign_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/protect"
)

// protRun executes one standalone protected campaign on the given model.
func protRun(t *testing.T, model core.Model, cfg campaign.Config) *campaign.Result {
	t.Helper()
	f := factoryFor(t, "qsort", model)
	res := mustRun(t, f, cfg)
	return res
}

// rfDataBits reports the microarch/RTL register file's real bit space,
// the boundary between replayed data faults and the scheme model's
// synthesised overhead region.
func rfDataBits(t *testing.T, model core.Model) int {
	t.Helper()
	f := factoryFor(t, "qsort", model)
	sim, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return sim.Bits(fault.TargetRF)
}

// TestProtectedOutcomeDeterminism runs the same protected campaign
// through every execution engine — the 64-lane walk against the scalar
// stream replayer (Lanes 1) on both models, and the sweep pool — and
// requires byte-identical outcome lists
// including the DUE classifications. Its last case is determinism across
// commits: one larger parity campaign held to its exact split, so a
// change anywhere in the protection fold (word arity rule, overhead
// synthesis, DUE classification) fails here.
func TestProtectedOutcomeDeterminism(t *testing.T) {
	base := campaign.Config{
		Injections: 24, Seed: 9, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
		Protect: "rf=parity",
	}
	walk := protRun(t, core.ModelMicroarch, base)
	if walk.Counts[campaign.ClassDUE] == 0 {
		t.Fatalf("protected parity campaign produced no DUE outcomes: %v", walk.Counts)
	}

	one := base
	one.Lanes = 1
	scalarMA := protRun(t, core.ModelMicroarch, one)
	if !reflect.DeepEqual(walk.Outcomes, scalarMA.Outcomes) {
		t.Errorf("lane walk diverged from scalar replay under protection")
	}

	f := factoryFor(t, "qsort", core.ModelMicroarch)
	sr := mustSweep(t, []campaign.SweepCampaign{
		{Key: "prot", Group: "ma/qsort", Factory: f, Config: base},
	}, campaign.SweepOptions{Workers: 4})
	if !reflect.DeepEqual(walk.Outcomes, sr.Results["prot"].Outcomes) {
		t.Errorf("sweep pool diverged from standalone Run under protection")
	}

	scalar := base
	scalar.Lanes = 1
	lanes := base
	lanes.Lanes = campaign.MaxLanes
	rs := protRun(t, core.ModelRTL, scalar)
	rl := protRun(t, core.ModelRTL, lanes)
	if !reflect.DeepEqual(rs.Outcomes, rl.Outcomes) {
		t.Errorf("bit-parallel lanes diverged from scalar replay under protection")
	}
	if rs.Counts[campaign.ClassDUE] == 0 {
		t.Errorf("RTL protected campaign produced no DUE outcomes: %v", rs.Counts)
	}

	pin := protRun(t, core.ModelMicroarch, campaign.Config{
		Injections: 120, Seed: 7, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Protect: "rf=parity",
	})
	got := [6]int{pin.ProtectDataBits, pin.ProtectOverheadBits, len(pin.Outcomes),
		pin.OverheadRuns, pin.Counts[campaign.ClassMasked], pin.Counts[campaign.ClassDUE]}
	if want := [6]int{1792, 112, 120, 8, 99, 21}; got != want {
		t.Errorf("pinned split moved: (data bits, overhead bits, runs, overhead runs, masked, due) = %v, want %v", got, want)
	}
}

// TestSECDEDAnalyticClasses checks the scheme model end to end on a
// SECDED-protected register file under single-bit transients: every
// data fault is corrected on use (Masked), every stored-check-bit fault
// is self-correcting (Masked), and every checker-logic fault raises a
// spurious detection (DUE). The campaign's only unsafeness is the
// checker itself.
func TestSECDEDAnalyticClasses(t *testing.T) {
	cfg := campaign.Config{
		Injections: 48, Seed: 3, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
		Protect: "rf=secded",
	}
	res := protRun(t, core.ModelMicroarch, cfg)
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
// With Stuck pinned to 0 both plans consume the RNG identically, so the
// two campaigns sample the same (bit, cycle) stream and the comparison
// is paired per index.
func TestParityStuckAtBlindSpot(t *testing.T) {
	base := campaign.Config{
		Injections: 120, Seed: 17, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
		Protect: "rf=parity",
	}
	stuck := base
	stuck.Fault = fault.Params{Model: fault.ModelStuckAt, Stuck: 0}
	resT := protRun(t, core.ModelMicroarch, base)
	resS := protRun(t, core.ModelMicroarch, stuck)
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
		t.Fatal("plan sampled no checker-logic faults; grow Injections or change Seed")
	}
}

// TestProtectOtherTargetIdentity pins the engine-untouched guarantee: a
// protection plan that does not cover the injected target changes
// nothing — outcomes, stopping index and margins are byte-identical to
// the unprotected campaign (only the config string differs).
func TestProtectOtherTargetIdentity(t *testing.T) {
	unprot := campaign.Config{
		Injections: 40, Seed: 31, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 4,
		TargetError: 0.2, MinRuns: 10,
	}
	prot := unprot
	prot.Protect = "l1d=secded"
	ru := protRun(t, core.ModelMicroarch, unprot)
	rp := protRun(t, core.ModelMicroarch, prot)
	if !reflect.DeepEqual(ru.Outcomes, rp.Outcomes) {
		t.Errorf("protecting an uninjected target changed the outcomes")
	}
	if ru.Unsafeness != rp.Unsafeness || ru.AchievedMargin != rp.AchievedMargin {
		t.Errorf("estimates diverged: %+v/%v vs %+v/%v",
			ru.Unsafeness, ru.AchievedMargin, rp.Unsafeness, rp.AchievedMargin)
	}
	if rp.ProtectOverheadBits != 0 || rp.OverheadRuns != 0 {
		t.Errorf("protection accounting active without coverage: %d bits, %d runs",
			rp.ProtectOverheadBits, rp.OverheadRuns)
	}
}

// TestProtectCheckpointStaleness mirrors the fault-model staleness rule
// for protection: checkpoints written by an unprotected run must not
// merge into a protected campaign (or vice versa), while a matching
// protected resume restores every replayed outcome — DUE classes
// round-tripping through the JSONL shards intact.
func TestProtectCheckpointStaleness(t *testing.T) {
	dir := t.TempDir()
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 12, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 3_000, Workers: 2,
	}
	run := func(protectSpec string) (*campaign.Result, int) {
		c := cfg
		c.Protect = protectSpec
		sr := mustSweep(t, []campaign.SweepCampaign{
			{Key: "ckpt", Group: "ma/qsort", Factory: f, Config: c},
		}, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
		return sr.Results["ckpt"], sr.Resumed
	}

	if _, resumed := run(""); resumed != 0 {
		t.Fatalf("fresh unprotected run resumed %d records", resumed)
	}
	protA, resumed := run("rf=parity")
	if resumed != 0 {
		t.Fatalf("protected run resumed %d unprotected records (stale merge)", resumed)
	}
	protB, resumed := run("rf=parity")
	if want := len(protA.Outcomes) - protA.OverheadRuns; resumed != want {
		t.Fatalf("protected resume restored %d replays, want %d", resumed, want)
	}
	if !reflect.DeepEqual(protA.Outcomes, protB.Outcomes) {
		t.Errorf("protected resume diverged from the original run")
	}
	if protB.Counts[campaign.ClassDUE] != protA.Counts[campaign.ClassDUE] {
		t.Errorf("DUE count changed across checkpoint round-trip: %d vs %d",
			protA.Counts[campaign.ClassDUE], protB.Counts[campaign.ClassDUE])
	}
	if _, resumed := run(""); resumed == 0 {
		t.Errorf("unprotected re-run failed to resume its own records")
	}
}

// TestProtectValidate covers config-level rejection and
// canonicalisation.
func TestProtectValidate(t *testing.T) {
	good := campaign.Config{
		Injections: 1, Target: fault.TargetRF, Protect: "l1d=secded , rf=parity",
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid protected config rejected: %v", err)
	}
	if good.Protect != "rf=parity,l1d=secded" {
		t.Errorf("Protect not canonicalised: %q", good.Protect)
	}
	bad := campaign.Config{Injections: 1, Target: fault.TargetRF, Protect: "rf=tmr"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown scheme accepted")
	}
	avf := campaign.Config{
		Injections: 1, Target: fault.TargetRF, Protect: "rf=parity", AVF: true,
	}
	if err := avf.Validate(); err == nil {
		t.Error("AVF + protection accepted; the ACE sweep cannot judge check bits")
	}
}
