package campaign_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestCursorReplayerSeedPins drives one 120-transient plan through the
// engine SchedCursor must select for a campaign that rides no lanes —
// the walk, forking every replay — single-threaded, and holds its
// account of the pass to exact seed-determined values: one fork per
// replay and the golden cycles the walker stepped to reach them. The
// same campaign on one worker reports those cycles as FastForwardCycles
// and, as FastForwardSaved, what stream order would have stepped beyond
// them (Σ instant − nearest snapshot, minus the walker's). The RTL
// latch row is the cursor schedule at default lanes: latches have no
// lane surface. The plain-sim row hides every optional capability of
// the microarchitectural simulator — no lanes at any width, no zero-copy
// fork source — and must reproduce the first row's pins exactly.
func TestCursorReplayerSeedPins(t *testing.T) {
	for _, tc := range []struct {
		name      string
		model     core.Model
		target    fault.Target
		lanes     int
		plain     bool
		ff, saved uint64
	}{
		{"microarch/rf", core.ModelMicroarch, fault.TargetRF, 1, false, 21_064, 97_907},
		{"microarch/rf/plain-sim", core.ModelMicroarch, fault.TargetRF, 0, true, 21_064, 97_907},
		{"rtl/latches", core.ModelRTL, fault.TargetLatches, 0, false, 35_864, 92_036},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := factoryFor(t, "qsort", tc.model)
			if tc.plain {
				inner := f
				f = func() (campaign.Simulator, error) {
					s, err := inner()
					return plainSim{s}, err
				}
			}
			cfg := campaign.Config{
				Injections: 120, Seed: 1, Target: tc.target,
				Obs: campaign.ObsPinout, Window: 500, Lanes: tc.lanes, Sched: campaign.SchedCursor,
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
			if _, ok := r.(*campaign.BatchReplayer); !ok {
				t.Fatalf("cursor schedule selected %T, not the walk", r)
			}
			if err := r.Replay(p.NextReplay, func(int, campaign.RunOutcome) error { return nil }); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.Executed != 120 || st.FastForward != tc.ff || st.Batched+st.Peeled != 0 {
				t.Errorf("pins moved: executed %d, fast-forward %d, %d rode lanes; want 120, %d, 0",
					st.Executed, st.FastForward, st.Batched+st.Peeled, tc.ff)
			}
			cfg.Workers = 1
			res := mustRun(t, f, cfg)
			if got := [2]uint64{res.FastForwardCycles, res.FastForwardSaved}; got != [2]uint64{tc.ff, tc.saved} {
				t.Errorf("one worker reports (FastForwardCycles, FastForwardSaved) = %v, want [%d %d]", got, tc.ff, tc.saved)
			}
		})
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

// plainSim exposes only the Simulator interface of the simulator it
// wraps: none of the optional capabilities (BatchCapable,
// LiveSnapshotter) an engine may look for.
type plainSim struct{ campaign.Simulator }
