package campaign_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestCursorReplayerSeedPins drives one 120-transient plan through the
// engine Lanes = 1 + SchedCursor must select, single-threaded, and holds
// the cursor's account of the pass to its exact seed-determined values:
// the fast-forward stream order would pay (Σ instant − nearest snapshot),
// what the cursor stepped instead, and one fork per replay.
func TestCursorReplayerSeedPins(t *testing.T) {
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 120, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500, Lanes: 1, Sched: campaign.SchedCursor,
	}
	g, err := campaign.PrepareGolden(f, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: f})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cr, ok := r.(*campaign.CursorReplayer)
	if !ok {
		t.Fatalf("cursor schedule selected %T, not the cursor engine", r)
	}
	if err := cr.Replay(p.NextReplay, func(int, campaign.RunOutcome) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got := [3]uint64{cr.StreamFF, cr.FastForward, uint64(cr.Forks)}
	if want := [3]uint64{118_971, 21_064, 120}; got != want {
		t.Errorf("pins moved: (stream fast-forward, cursor fast-forward, forks) = %v, want %v", got, want)
	}
}

// TestCursorSchedCheckpointResume asserts a cursor-scheduled campaign's
// checkpoint shards resume exactly: a second run over the same
// directory re-executes nothing and reproduces the first run's result,
// and the shards equally resume a stream-scheduled run (records carry
// no schedule — classifications are schedule-independent).
func TestCursorSchedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 16, Seed: 9, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
		Sched: campaign.SchedCursor,
	}
	checkpointed := func(cfg campaign.Config) *campaign.Result {
		t.Helper()
		c, err := core.Standalone("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sr := mustSweep(t, []campaign.SweepCampaign{c}, campaign.SweepOptions{CheckpointDir: dir})
		return sr.Results[c.Key]
	}
	first := checkpointed(cfg)
	second := checkpointed(cfg)
	if second.Elapsed != 0 {
		t.Errorf("resumed run attributed busy time %v; expected full resume", second.Elapsed)
	}
	streamCfg := cfg
	streamCfg.Sched = campaign.SchedStream
	resumedStream := checkpointed(streamCfg)
	normalizeEngine(first)
	normalizeEngine(second)
	normalizeEngine(resumedStream)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed cursor result differs from original")
	}
	if !reflect.DeepEqual(first, resumedStream) {
		t.Errorf("cursor shards did not resume a stream-scheduled run identically")
	}
}

// TestSnapPolicyPlacementIndependence asserts snapshot placement is
// pure accounting: quantile-placed snapshots produce the same
// classifications, end cycles and stopping behavior as the stride
// default (only the fast-forward spend may differ).
func TestSnapPolicyPlacementIndependence(t *testing.T) {
	cfg := campaign.Config{
		Injections: 20, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
		EarlyStop: true, TargetError: 0.2,
	}
	quant := cfg
	quant.SnapPolicy = campaign.SnapQuantile
	stride, quantRes := runSmall(t, core.ModelMicroarch, cfg, "qsort"), runSmall(t, core.ModelMicroarch, quant, "qsort")
	// Placement moves the per-replay base snapshots, so cycle accounting
	// (simulated/saved totals) may differ along with the fast-forward
	// spend; the classified science must not.
	for _, res := range []*campaign.Result{stride, quantRes} {
		normalizeEngine(res)
		res.Config.SnapPolicy, res.CyclesSimulated, res.CyclesSaved = 0, 0, 0
	}
	if !reflect.DeepEqual(stride, quantRes) {
		t.Errorf("quantile snapshot placement changed campaign results:\nstride:   %+v\nquantile: %+v", stride, quantRes)
	}
}
