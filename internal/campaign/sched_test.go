package campaign_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/report"
)

// normalizeSched strips the fields legitimately allowed to differ
// between two schedules of one campaign: what normalizeResult clears and
// the fast-forward accounting (the cursor's whole point is spending
// fewer golden cycles; everything else must be byte-identical).
func normalizeSched(res *campaign.Result) {
	normalizeResult(res)
	res.FastForwardCycles = 0
	res.FastForwardSaved = 0
	res.Config.Sched = campaign.SchedStream
	res.Config.SnapPolicy = campaign.SnapStride
}

// TestCursorSchedMatchesStream asserts the injection-locality cursor
// schedule is an execution-order optimisation only: for every engine
// mode on both abstraction levels, classifications, stopping indices,
// per-outcome end cycles and the rendered report are byte-identical to
// the default stream schedule.
func TestCursorSchedMatchesStream(t *testing.T) {
	base := campaign.Config{
		Injections: 20, Seed: 31, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	cases := []struct {
		name  string
		model core.Model
		mut   func(*campaign.Config)
	}{
		{"microarch/plain", core.ModelMicroarch, nil},
		{"microarch/earlystop", core.ModelMicroarch, func(c *campaign.Config) {
			c.EarlyStop = true
			c.TargetError = 0.2
		}},
		{"microarch/prune-classes", core.ModelMicroarch, func(c *campaign.Config) {
			c.Prune = campaign.PruneClasses
		}},
		{"microarch/quantile-snaps", core.ModelMicroarch, func(c *campaign.Config) {
			c.SnapPolicy = campaign.SnapQuantile
		}},
		{"rtl/plain", core.ModelRTL, nil},
		{"rtl/lanes", core.ModelRTL, func(c *campaign.Config) {
			c.Lanes = 8
		}},
		{"rtl/earlystop", core.ModelRTL, func(c *campaign.Config) {
			c.EarlyStop = true
			c.TargetError = 0.2
		}},
	}
	setup := core.CampaignSetup()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			stream := cfg
			stream.Sched = campaign.SchedStream
			cursor := cfg
			cursor.Sched = campaign.SchedCursor

			sRes, err := core.RunCampaign("qsort", tc.model, setup, stream)
			if err != nil {
				t.Fatal(err)
			}
			cRes, err := core.RunCampaign("qsort", tc.model, setup, cursor)
			if err != nil {
				t.Fatal(err)
			}
			if cRes.Config.Sched != campaign.SchedCursor {
				t.Fatalf("cursor run reports schedule %v", cRes.Config.Sched)
			}
			normalizeSched(sRes)
			normalizeSched(cRes)
			if !reflect.DeepEqual(sRes, cRes) {
				t.Errorf("cursor result differs from stream:\nstream: %+v\ncursor: %+v", sRes, cRes)
			}
			if s, c := report.Campaign("x", sRes), report.Campaign("x", cRes); s != c {
				t.Errorf("report bytes differ:\n--- stream ---\n%s--- cursor ---\n%s", s, c)
			}
		})
	}
}

// TestCursorReplayerSeedPins drives one 120-transient plan through the
// engine Lanes = 1 + SchedCursor must select, single-threaded, and holds
// the cursor's account of the pass to its exact seed-determined values:
// the fast-forward stream order would pay (Σ instant − nearest snapshot),
// what the cursor stepped instead, and one fork per replay.
func TestCursorReplayerSeedPins(t *testing.T) {
	f, err := workloadFactory("qsort", core.CampaignSetup())
	if err != nil {
		t.Fatal(err)
	}
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

// TestCursorSchedSweepMatchesStream runs a mixed matrix (both levels,
// golden sharing, lanes) through the sweep scheduler under both
// schedules and asserts identical results — the production path of
// cmd/paper and checkpointed runs.
func TestCursorSchedSweepMatchesStream(t *testing.T) {
	setup := core.CampaignSetup()
	base := campaign.Config{
		Injections: 16, Seed: 7, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	build := func(sched campaign.Sched) []campaign.SweepCampaign {
		var m []campaign.SweepCampaign
		for _, lvl := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
			f, err := workloadFactoryModel("qsort", lvl, setup)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Sched = sched
			l1d := cfg
			l1d.Target = fault.TargetL1D
			if lvl == core.ModelRTL {
				l1d.Lanes = 8
			}
			m = append(m,
				campaign.SweepCampaign{Key: lvl.String() + "/rf", Group: lvl.String() + "/qsort", Factory: f, Config: cfg},
				campaign.SweepCampaign{Key: lvl.String() + "/l1d", Group: lvl.String() + "/qsort", Factory: f, Config: l1d},
			)
		}
		return m
	}
	sSR, err := campaign.Sweep(build(campaign.SchedStream), campaign.SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cSR, err := campaign.Sweep(build(campaign.SchedCursor), campaign.SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sSR.GoldenRuns != cSR.GoldenRuns {
		t.Errorf("golden runs: stream %d, cursor %d (schedule must not split golden sharing)",
			sSR.GoldenRuns, cSR.GoldenRuns)
	}
	for key, sRes := range sSR.Results {
		cRes := cSR.Results[key]
		if cRes == nil {
			t.Fatalf("%s: missing cursor result", key)
		}
		normalizeSched(sRes)
		normalizeSched(cRes)
		if !reflect.DeepEqual(sRes, cRes) {
			t.Errorf("%s: cursor sweep result differs from stream", key)
		}
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
		sr, err := campaign.Sweep([]campaign.SweepCampaign{c}, campaign.SweepOptions{CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
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
	normalizeSched(first)
	normalizeSched(second)
	normalizeSched(resumedStream)
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
	setup := core.CampaignSetup()
	cfg := campaign.Config{
		Injections: 20, Seed: 5, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
		EarlyStop: true, TargetError: 0.2,
	}
	quant := cfg
	quant.SnapPolicy = campaign.SnapQuantile
	stride, err := core.RunCampaign("qsort", core.ModelMicroarch, setup, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quantRes, err := core.RunCampaign("qsort", core.ModelMicroarch, setup, quant)
	if err != nil {
		t.Fatal(err)
	}
	// Placement moves the per-replay base snapshots, so cycle accounting
	// (simulated/saved totals) may differ along with the fast-forward
	// spend; the classified science must not.
	for _, res := range []*campaign.Result{stride, quantRes} {
		normalizeSched(res)
		res.CyclesSimulated = 0
		res.CyclesSaved = 0
	}
	if !reflect.DeepEqual(stride, quantRes) {
		t.Errorf("quantile snapshot placement changed campaign results:\nstride:   %+v\nquantile: %+v", stride, quantRes)
	}
}
