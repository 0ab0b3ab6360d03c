package campaign_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// TestCursorReplayerSeedPins drives one 120-transient plan through the
// pool on one worker and holds the engine's account of the pass to exact
// seed-determined values. The RTL latches ride the walk's lanes at
// default lanes: one walk carries them, every replay rides (batched or
// peeled), and the walker steps the golden cycles between lanes. A
// campaign that can ride no lanes — Lanes 1, or a microarchitectural
// simulator hiding every optional capability — gets the scalar stream
// replayer, which reports no walk and no walked cycles. Whatever the
// engine, the same campaign on one worker reports the stream-order
// estimate (Σ instant − nearest snapshot) as FastForwardCycles.
func TestCursorReplayerSeedPins(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  core.Model
		target fault.Target
		lanes  int
		plain  bool
		walks  int
		ff     uint64
		rode   int
		stream uint64
	}{
		{"microarch/rf", core.ModelMicroarch, fault.TargetRF, 1, false, 0, 0, 0, 118_971},
		{"microarch/rf/plain-sim", core.ModelMicroarch, fault.TargetRF, 0, true, 0, 0, 0, 118_971},
		{"rtl/latches", core.ModelRTL, fault.TargetLatches, 0, false, 1, 20_786, 120, 127_900},
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
			var st campaign.ReplayStats
			w := &campaign.Work{Golden: g, Config: cfg, Factory: f, Next: p.NextReplay,
				Deliver: func(int, campaign.RunOutcome) error { return nil },
				Note:    func(s campaign.ReplayStats) { st = s },
			}
			if err := campaign.ReplayPool(1, nil, w); err != nil {
				t.Fatal(err)
			}
			if st.Executed != 120 || st.Walks != tc.walks || st.FastForward != tc.ff || st.Batched+st.Peeled != tc.rode {
				t.Errorf("pins moved: executed %d, %d walks, fast-forward %d, %d rode lanes; want 120, %d, %d, %d",
					st.Executed, st.Walks, st.FastForward, st.Batched+st.Peeled, tc.walks, tc.ff, tc.rode)
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
		it, err := core.Standalone("qsort", core.ModelRTL, core.CampaignSetup(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sr := mustSweep(t, []campaign.SweepCampaign{it.Campaign}, campaign.SweepOptions{CheckpointDir: dir})
		return sr.Results[it.Campaign.Key]
	}
	first := checkpointed(cfg)
	second := checkpointed(cfg)
	if second.Elapsed != 0 {
		t.Errorf("resumed run attributed busy time %v; expected full resume", second.Elapsed)
	}
	scalarCfg := cfg
	scalarCfg.Lanes = 1
	resumedScalar := checkpointed(scalarCfg)
	first.Account = campaign.Account{}
	second.Account = campaign.Account{}
	resumedScalar.Account = campaign.Account{}
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

// TestWalkStepsTimelineOnce holds the scheduler to the lockstep rule that
// every golden cycle is stepped once for all the faulty machines riding
// it. A windowed campaign of four walk chunks (Lanes × 8 specs each),
// drawn uniformly over the golden run, is queued in injection-cycle
// order and cut into contiguous runs, so the golden cycles its walks
// step — with lanes riding and fast-forward — add up to the golden run
// plus, per walk, at most one window past its last injection and one
// snapshot stride of seek. Pulls in plan order walk the whole timeline
// each, four times and more over. Outcomes stay the scalar engine's.
func TestWalkStepsTimelineOnce(t *testing.T) {
	f := factoryFor(t, "qsort", core.ModelMicroarch)
	cfg := campaign.Config{
		Injections: 4 * campaign.MaxLanes * 8, Seed: 3, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 500,
	}
	g, err := campaign.PrepareGolden(f, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Snapshots lie one stride apart from cycle 0; the last gap is the
	// shortest, so this bounds the stride from above.
	stride := g.Cycles / uint64(g.Snapshots()-1)

	scalar := cfg
	scalar.Lanes, scalar.Workers = 1, 2
	want := mustRun(t, f, scalar).Outcomes

	for _, workers := range []int{1, 3} {
		p, err := g.PlanCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu sync.Mutex
			st campaign.ReplayStats
		)
		w := &campaign.Work{
			Golden: g, Config: cfg, Factory: f, Size: cfg.Injections,
			Next: p.NextReplay, Deliver: p.Deliver,
			Note: func(s campaign.ReplayStats) {
				mu.Lock()
				defer mu.Unlock()
				st.Walks += s.Walks
				st.FastForward += s.FastForward
				st.Lockstep += s.Lockstep
			},
		}
		if err := campaign.ReplayPool(workers, nil, w); err != nil {
			t.Fatal(err)
		}
		stepped := st.FastForward + st.Lockstep
		bound := g.Cycles + uint64(st.Walks)*(uint64(cfg.Window)+stride)
		t.Logf("%d workers: %d golden cycles stepped over %d walks (golden run %d, bound %d)",
			workers, stepped, st.Walks, g.Cycles, bound)
		if stepped > bound {
			t.Errorf("%d workers: walks stepped %d golden cycles over %d walks, want at most %d (golden run %d)",
				workers, stepped, st.Walks, bound, g.Cycles)
		}
		res, err := p.Result(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Outcomes, want) {
			t.Errorf("%d workers: outcomes differ from the scalar engine's", workers)
		}
	}
}
