package campaign_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestCursorReplayerSeedPins drives one 120-transient plan through the
// engine NewReplayer picks, single-threaded, and holds its account of
// the pass to exact seed-determined values. The RTL latches ride the
// walk's lanes at default lanes: every replay rides (batched or peeled),
// and the walker steps the golden cycles between lanes. A campaign that
// can ride no lanes — Lanes 1, or a microarchitectural simulator hiding
// every optional capability — gets the scalar stream replayer, which
// reports no walked cycles. Whatever the engine, the same campaign on
// one worker reports the stream-order estimate (Σ instant − nearest
// snapshot) as FastForwardCycles.
func TestCursorReplayerSeedPins(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  core.Model
		target fault.Target
		lanes  int
		plain  bool
		engine string
		ff     uint64
		rode   int
		stream uint64
	}{
		{"microarch/rf", core.ModelMicroarch, fault.TargetRF, 1, false, "*campaign.scalarReplayer", 0, 0, 118_971},
		{"microarch/rf/plain-sim", core.ModelMicroarch, fault.TargetRF, 0, true, "*campaign.scalarReplayer", 0, 0, 118_971},
		{"rtl/latches", core.ModelRTL, fault.TargetLatches, 0, false, "*campaign.BatchReplayer", 20_786, 120, 127_900},
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
				Obs: campaign.ObsPinout, Window: 500, Lanes: tc.lanes,
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
			if typ := fmt.Sprintf("%T", r); typ != tc.engine {
				t.Fatalf("Lanes %d selected %s, want %s", tc.lanes, typ, tc.engine)
			}
			if err := r.Replay(p.NextReplay, func(int, campaign.RunOutcome) error { return nil }); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.Executed != 120 || st.FastForward != tc.ff || st.Batched+st.Peeled != tc.rode {
				t.Errorf("pins moved: executed %d, fast-forward %d, %d rode lanes; want 120, %d, %d",
					st.Executed, st.FastForward, st.Batched+st.Peeled, tc.ff, tc.rode)
			}
			cfg.Workers = 1
			res := mustRun(t, f, cfg)
			if got := [2]uint64{res.FastForwardCycles, res.FastForwardSaved}; got != [2]uint64{tc.stream, 0} {
				t.Errorf("one worker reports (FastForwardCycles, FastForwardSaved) = %v, want [%d 0]", got, tc.stream)
			}
		})
	}
}

// TestCursorSchedCheckpointResume asserts the checkpoint shards of an
// RTL latch campaign resume exactly on either engine: a second run over
// the same directory re-executes nothing and reproduces the first run's
// result, and the shards its lanes wrote equally resume a scalar
// (Lanes 1) run — records carry no engine.
func TestCursorSchedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 16, Seed: 9, Target: fault.TargetLatches,
		Obs: campaign.ObsPinout, Window: 500,
	}
	checkpointed := func(cfg campaign.Config) *campaign.Result {
		t.Helper()
		c, err := core.Standalone("qsort", core.ModelRTL, core.CampaignSetup(), cfg)
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
	scalarCfg := cfg
	scalarCfg.Lanes = 1
	resumedScalar := checkpointed(scalarCfg)
	normalizeEngine(first)
	normalizeEngine(second)
	normalizeEngine(resumedScalar)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("resumed lane result differs from original")
	}
	if !reflect.DeepEqual(first, resumedScalar) {
		t.Errorf("lane shards did not resume a scalar run identically")
	}
}

// plainSim exposes only the Simulator interface of the simulator it
// wraps: none of the optional capabilities (BatchCapable) an engine may
// look for.
type plainSim struct{ campaign.Simulator }
