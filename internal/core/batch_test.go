package core

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lanestore"
)

// benchFactory builds the campaign factory of one workload on one model.
func benchFactory(t *testing.T, m Model, workload string) campaign.Factory {
	t.Helper()
	return Factory(m, benchProgram(t, workload), CampaignSetup())
}

// benchProgram is one workload's assembled program.
func benchProgram(t *testing.T, workload string) *asm.Program {
	t.Helper()
	w, err := bench.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var faultModels = []struct {
	name  string
	fault fault.Params
}{
	{"transient", fault.Params{Model: fault.ModelTransient}},
	{"burst", fault.Params{Model: fault.ModelBurst}},
	{"stuck-at", fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}},
	{"intermittent", fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom}},
}

// TestBatchReplayerSeedPins drives one 512-transient plan through the
// pool on one worker at 64 lanes on either model, and holds the engine's
// account of the pass (the pool's Busy stamp aside) to its exact
// seed-determined values: lanes retired in lockstep against lanes the
// design consumed, the one walk that carried them all (the scalar
// engine walks nothing, so it shows the pool picked the lockstep one),
// and where the stepped cycles went — a walk steps no golden cycle
// twice, so what it rode and what it stepped with nobody riding fit
// inside the golden run (most of the fast-forward is the sparse ends of
// the plan, where lanes that peeled leave stretches unridden, not the
// approach to the first instant).
func TestBatchReplayerSeedPins(t *testing.T) {
	for _, tc := range []struct {
		model Model
		want  campaign.ReplayStats
	}{
		{ModelRTL, campaign.ReplayStats{Executed: 512, Batched: 361, Peeled: 151, Walks: 1,
			Peels:       [lanestore.NumPeelReasons]int{lanestore.PeelBranch: 59, lanestore.PeelTarget: 1, lanestore.PeelAddress: 91},
			FastForward: 6_039, Lockstep: 41_390, Private: 53_243, LaneCycles: 191_240}},
		{ModelMicroarch, campaign.ReplayStats{Executed: 512, Batched: 469, Peeled: 43, Walks: 1,
			Peels:       [lanestore.NumPeelReasons]int{lanestore.PeelBranch: 14, lanestore.PeelAddress: 29},
			FastForward: 1_827, Lockstep: 24_645, Private: 12_866, LaneCycles: 237_061}},
	} {
		f := benchFactory(t, tc.model, "qsort")
		cfg := campaign.Config{
			Injections: 512, Seed: 1, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 500, Lanes: campaign.MaxLanes,
		}
		g, err := campaign.PrepareGolden(f, campaign.GoldenOptionsFor(cfg))
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.PlanCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := replayOnOne(t, &campaign.Work{Golden: g, Config: cfg, Factory: f, Next: p.NextReplay,
			Deliver: func(int, campaign.RunOutcome) error { return nil }})
		if got != tc.want {
			t.Errorf("%v pins moved:\ngot  %+v\nwant %+v", tc.model, got, tc.want)
		}
		if got.FastForward+got.Lockstep > g.Cycles {
			t.Errorf("%v: one walk stepped %d + %d golden cycles of %d", tc.model, got.FastForward, got.Lockstep, g.Cycles)
		}
	}
}

// replayOnOne drives w through the replay pool on one worker and returns
// the engine's account of it, without the wall time the pool stamps.
func replayOnOne(t *testing.T, w *campaign.Work) campaign.ReplayStats {
	t.Helper()
	var st campaign.ReplayStats
	w.Note = func(s campaign.ReplayStats) { st = s }
	if err := campaign.ReplayPool(1, nil, w); err != nil {
		t.Fatal(err)
	}
	st.Busy = 0
	return st
}

// TestLanePeelMatchesPruneVerdict cross-checks two independent
// implementations of one claim — "the golden run first consumes this
// flip at cycle C, or never inside the horizon". The lifetime trace
// answers it after the golden run from recorded events
// (Golden.PruneVerdict, what dead-interval pruning trusts); the lane
// tracker answers it during a golden walk from live events (what the
// lockstep engine trusts). For every planned transient fault a lane
// must stay unpeeled to its horizon exactly when the trace says dead,
// and otherwise peel in the very cycle the trace names. Both models hold
// to the same peel-cycle convention (the cycle count after the consuming
// step), with no stamp offset between them.
func TestLanePeelMatchesPruneVerdict(t *testing.T) {
	for _, model := range []Model{ModelMicroarch, ModelRTL} {
		t.Run(model.String(), func(t *testing.T) {
			f := benchFactory(t, model, "qsort")
			g, err := campaign.PrepareGolden(f, campaign.GoldenOptions{Lifetime: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []fault.Target{fault.TargetRF, fault.TargetL1D} {
				for _, window := range []uint64{400, 0} {
					for _, fm := range faultModels[:2] { // the transient models
						cfg := campaign.Config{
							Injections: 2 * campaign.MaxLanes, Seed: 23, Target: target,
							Window: window, Fault: fm.fault,
						}
						specs, err := g.Plan(cfg)
						if err != nil {
							t.Fatal(err)
						}
						sort.Slice(specs, func(i, j int) bool { return specs[i].Cycle < specs[j].Cycle })
						live := 0
						for len(specs) > 0 {
							n := min(len(specs), campaign.MaxLanes)
							live += checkPeelCycles(t, f, g, cfg, specs[:n])
							specs = specs[n:]
						}
						if live == 0 || live == cfg.Injections {
							t.Errorf("%v window %d %s: %d of %d faults live; one side of the claim went untested",
								target, window, fm.name, live, cfg.Injections)
						}
					}
				}
			}
		})
	}
}

// checkPeelCycles walks one fresh golden instance over a cycle-sorted
// group of at most MaxLanes transient faults, one lane each, and holds
// every lane's fate against the lifetime trace's verdict. It returns the
// number of live faults.
func checkPeelCycles(t *testing.T, f campaign.Factory, g *campaign.Golden, cfg campaign.Config, specs []fault.Spec) (live int) {
	t.Helper()
	sim, err := f()
	if err != nil {
		t.Fatal(err)
	}
	host := sim.(campaign.BatchCapable)
	if sim.Bits(cfg.Target) == 0 {
		t.Fatalf("no lane tracker over %v", cfg.Target)
	}
	lanes := host.AttachLanes([]fault.Target{cfg.Target})[0]
	defer host.DetachLanes()
	// Value lanes note every read of a diff and peel later, on control.
	// Before its first read a lane's diff sits only where it was
	// injected, so that read is the one the trace names.
	v, ok := lanes.(interface{ Consumed() uint64 })
	if !ok {
		t.Fatalf("%T does not report the reads of a diff", lanes)
	}
	consumed := v.Consumed
	const never = ^uint64(0)
	peeledAt := make([]uint64, len(specs))
	horizon := make([]uint64, len(specs))
	for k, sp := range specs {
		peeledAt[k], horizon[k] = never, g.Cycles
		if cfg.Window > 0 {
			horizon[k] = sp.Cycle + cfg.Window
		}
	}
	for stepped := true; stepped; {
		c := sim.Cycles()
		for k, sp := range specs {
			if sp.Cycle == c {
				lo, hi := sp.BitSpan()
				for b := lo; b < hi; b++ {
					if err := lanes.Flip(k, b); err != nil {
						t.Fatal(err)
					}
				}
			}
			if c == horizon[k] {
				lanes.Retire(k) // events past the horizon are nobody's business
			}
		}
		lanes.BeginTick()
		stepped = sim.Step()
		for m := consumed(); m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			peeledAt[k] = sim.Cycles()
			lanes.Retire(k)
		}
	}
	for k, sp := range specs {
		v := g.PruneVerdict(sp, cfg)
		switch {
		case !v.Tracked:
			t.Fatalf("%+v: the lifetime trace does not cover the fault", sp)
		case v.Dead && peeledAt[k] != never:
			t.Errorf("%+v: trace says dead, lane peeled at cycle %d", sp, peeledAt[k])
		case !v.Dead && peeledAt[k] != v.ConsumeCycle:
			t.Errorf("%+v: trace says first consumed at %d, lane peeled at %d (^0 = never)", sp, v.ConsumeCycle, peeledAt[k])
		}
		if !v.Dead {
			live++
		}
	}
	return live
}
