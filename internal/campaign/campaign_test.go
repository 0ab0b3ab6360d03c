package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// mustRun is campaign.Run, failing the test on error.
func mustRun(t *testing.T, f campaign.Factory, cfg campaign.Config) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustSweep is campaign.Sweep, failing the test on error.
func mustSweep(t *testing.T, m []campaign.SweepCampaign, opt campaign.SweepOptions) *campaign.SweepResult {
	t.Helper()
	sr, err := campaign.Sweep(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func runSmall(t *testing.T, model core.Model, cfg campaign.Config, workload string) *campaign.Result {
	t.Helper()
	res, err := core.RunCampaign(workload, model, core.CampaignSetup(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPinoutCampaignMicroarch(t *testing.T) {
	cfg := campaign.Config{
		Injections: 60, Seed: 11, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 20_000, Workers: 4,
	}
	res := runSmall(t, core.ModelMicroarch, cfg, "qsort")
	if got := len(res.Outcomes); got != 60 {
		t.Fatalf("outcomes = %d", got)
	}
	total := 0
	for _, n := range res.Counts {
		total += n
	}
	if total != 60 {
		t.Errorf("class counts sum to %d", total)
	}
	if res.Counts[campaign.ClassMasked] == 0 {
		t.Error("no masked runs at all: classification suspicious")
	}
	if res.Unsafeness.N != 60 {
		t.Errorf("proportion N = %d", res.Unsafeness.N)
	}
	if res.GoldenTxns == 0 {
		t.Error("golden run produced no pinout traffic")
	}
}

func TestPinoutCampaignRTL(t *testing.T) {
	cfg := campaign.Config{
		Injections: 25, Seed: 12, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 10_000, Workers: 4,
	}
	res := runSmall(t, core.ModelRTL, cfg, "sha")
	if len(res.Outcomes) != 25 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	if res.Counts[campaign.ClassMasked] == 0 {
		t.Error("no masked runs at all")
	}
}

func TestSOPCampaign(t *testing.T) {
	cfg := campaign.Config{
		Injections: 40, Seed: 13, Target: fault.TargetL1D,
		Obs: campaign.ObsSOP, Workers: 4,
	}
	res := runSmall(t, core.ModelMicroarch, cfg, "stringsearch")
	if len(res.Outcomes) != 40 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	// SOP campaigns must never report pinout mismatches.
	if res.Counts[campaign.ClassMismatch] != 0 {
		t.Error("SOP campaign produced pinout mismatch class")
	}
}

func TestSOPRequiresRunToEnd(t *testing.T) {
	cfg := campaign.Config{
		Injections: 1, Target: fault.TargetL1D,
		Obs: campaign.ObsSOP, Window: 100,
	}
	if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg); err == nil {
		t.Fatal("SOP with window accepted")
	}
}

func TestCampaignDeterministicUnderSeed(t *testing.T) {
	cfg := campaign.Config{
		Injections: 30, Seed: 99, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 5_000, Workers: 3,
	}
	a := runSmall(t, core.ModelMicroarch, cfg, "fft")
	b := runSmall(t, core.ModelMicroarch, cfg, "fft")
	if a.Unsafeness.P != b.Unsafeness.P {
		t.Errorf("unsafeness differs under the same seed: %v vs %v", a.Unsafeness.P, b.Unsafeness.P)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i].Class != b.Outcomes[i].Class || a.Outcomes[i].Spec != b.Outcomes[i].Spec {
			t.Fatalf("outcome %d differs", i)
		}
	}
}

func TestAdvancementRaisesL1DWindowedUnsafeness(t *testing.T) {
	// The paper's §IV.B: moving the injection instant next to the
	// line's next use raises the chance of observing it in the window.
	base := campaign.Config{
		Injections: 80, Seed: 21, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 20_000, Workers: 4,
	}
	adv := base
	adv.AdvanceToUse = true
	plain := runSmall(t, core.ModelMicroarch, base, "qsort")
	moved := runSmall(t, core.ModelMicroarch, adv, "qsort")
	t.Logf("plain %.3f vs advanced %.3f", plain.Unsafeness.P, moved.Unsafeness.P)
	if moved.Unsafeness.P < plain.Unsafeness.P {
		t.Errorf("advancement lowered unsafeness: %.3f -> %.3f", plain.Unsafeness.P, moved.Unsafeness.P)
	}
}

// TestFaultModelsOnRealSimulator runs a small campaign under every
// fault model on the microarchitectural simulator: each must classify
// all injections and be bit-deterministic under its seed.
func TestFaultModelsOnRealSimulator(t *testing.T) {
	for _, prm := range []fault.Params{
		{Model: fault.ModelTransient},
		{Model: fault.ModelBurst, Burst: 3},
		{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 400},
	} {
		prm := prm
		t.Run(prm.Model.String(), func(t *testing.T) {
			t.Parallel()
			cfg := campaign.Config{
				Injections: 12, Seed: 31, Target: fault.TargetRF, Fault: prm,
				Obs: campaign.ObsPinout, Window: 3_000, Workers: 2,
			}
			a := runSmall(t, core.ModelMicroarch, cfg, "qsort")
			b := runSmall(t, core.ModelMicroarch, cfg, "qsort")
			total := 0
			for _, n := range a.Counts {
				total += n
			}
			if total != 12 {
				t.Errorf("class counts sum to %d", total)
			}
			for i := range a.Outcomes {
				if a.Outcomes[i] != b.Outcomes[i] {
					t.Fatalf("outcome %d differs under the same seed", i)
				}
				if got := a.Outcomes[i].Spec.Model; got != prm.Model {
					t.Fatalf("outcome %d planned model %v", i, got)
				}
			}
		})
	}
}

// TestCombinedObsSplitsClasses: ObsCombined must be able to report both
// SDC and Mismatch, and rejects windowed configs like ObsSOP does.
func TestCombinedObsSplitsClasses(t *testing.T) {
	cfg := campaign.Config{
		Injections: 40, Seed: 3, Target: fault.TargetRF,
		Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		Obs:   campaign.ObsCombined, Workers: 4,
	}
	res := runSmall(t, core.ModelMicroarch, cfg, "qsort")
	if n := res.Counts[campaign.ClassMasked]; n == 0 {
		t.Error("no masked outcomes at all")
	}
	if res.Counts[campaign.ClassSDC]+res.Counts[campaign.ClassMismatch] == 0 {
		t.Error("combined observation never saw a deviation from 40 permanent faults")
	}
	bad := cfg
	bad.Window = 100
	if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), bad); err == nil {
		t.Error("ObsCombined with a window accepted")
	}
}

func TestLatchTargetRejectedOnMicroarch(t *testing.T) {
	cfg := campaign.Config{
		Injections: 2, Seed: 5, Target: fault.TargetLatches,
		Obs: campaign.ObsPinout, Window: 1_000,
	}
	if _, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg); err == nil {
		t.Fatal("latch injection on microarch accepted")
	}
}

func TestBadConfigs(t *testing.T) {
	if _, err := campaign.Run(nil, campaign.Config{Injections: 0}); err == nil {
		t.Error("zero injections accepted")
	}
}

func TestCompareWindowSemantics(t *testing.T) {
	g := &trace.Pinout{}
	f := &trace.Pinout{}
	g.Record(10, 0x100, trace.KindWriteback, []byte{1})
	g.Record(30, 0x200, trace.KindWriteback, []byte{2})
	f.Record(30, 0x200, trace.KindWriteback, []byte{2})
	// From cycle 10 onward, the first golden transaction is excluded
	// (it happened at the snapshot cycle) and the traces match.
	if d := trace.CompareWindow(g, f, 10, 100, trace.CompareContent); !d.Match {
		t.Errorf("expected match: %+v", d)
	}
	// From cycle 0, the golden capture has one extra transaction.
	if d := trace.CompareWindow(g, f, 0, 100, trace.CompareContent); d.Match {
		t.Error("expected count mismatch")
	}
}
