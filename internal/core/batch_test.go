package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lanestore"
)

// benchFactory builds the campaign factory of one workload on one model.
func benchFactory(t *testing.T, m Model, workload string) campaign.Factory {
	t.Helper()
	w, err := bench.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return Factory(m, p, CampaignSetup())
}

// runLanePair runs one campaign config twice over one model — scalar
// in stream order (Lanes=1, the oracle) and lockstep as cfg asks (0
// lanes means all 64) — and requires the outcome streams to be
// byte-identical: same specs, classes, end cycles, convergence flags
// and pruning annotations for every index.
func runLanePair(t *testing.T, m Model, workload string, cfg campaign.Config) (*campaign.Result, *campaign.Result) {
	t.Helper()
	f := benchFactory(t, m, workload)

	scalarCfg := cfg
	scalarCfg.Lanes, scalarCfg.Sched = 1, campaign.SchedStream
	scalar, err := campaign.Run(f, scalarCfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := campaign.Run(f, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(scalar.Outcomes, batch.Outcomes) {
		n := len(scalar.Outcomes)
		if len(batch.Outcomes) != n {
			t.Fatalf("outcome counts differ: scalar %d, batch %d", n, len(batch.Outcomes))
		}
		for i := range scalar.Outcomes {
			if !reflect.DeepEqual(scalar.Outcomes[i], batch.Outcomes[i]) {
				t.Fatalf("outcome %d differs:\nscalar %+v\nbatch  %+v", i, scalar.Outcomes[i], batch.Outcomes[i])
			}
		}
		t.Fatal("outcome streams differ")
	}
	if !reflect.DeepEqual(scalar.Counts, batch.Counts) {
		t.Fatalf("class counts differ: scalar %v, batch %v", scalar.Counts, batch.Counts)
	}
	if scalar.Unsafeness != batch.Unsafeness {
		t.Fatalf("unsafeness differs: scalar %+v, batch %+v", scalar.Unsafeness, batch.Unsafeness)
	}
	if scalar.BatchedRuns != 0 || scalar.PeeledRuns != 0 {
		t.Fatalf("scalar run reports batching: %d batched, %d peeled", scalar.BatchedRuns, scalar.PeeledRuns)
	}
	return scalar, batch
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

// TestBatchMatchesScalarAllModels is the engine's equivalence
// acceptance: for every fault model, on both simulators, a 64-lane
// campaign classifies byte-identically to the scalar engine — lockstep
// retirement and lane peeling change throughput, never results. The
// microarchitectural model additionally runs its L1D target and a
// run-to-end replay, where live lanes ride thousands of cycles before
// they peel.
func TestBatchMatchesScalarAllModels(t *testing.T) {
	shapes := []struct {
		name   string
		model  Model
		target fault.Target
		window uint64
		n      int
	}{
		{"rtl/rf", ModelRTL, fault.TargetRF, 400, 30},
		{"microarch/rf", ModelMicroarch, fault.TargetRF, 400, 30},
		{"microarch/l1d", ModelMicroarch, fault.TargetL1D, 400, 30},
		{"microarch/rf/run-to-end", ModelMicroarch, fault.TargetRF, 0, 12},
		{"microarch/l1d/run-to-end", ModelMicroarch, fault.TargetL1D, 0, 12},
	}
	for _, sh := range shapes {
		for _, m := range faultModels {
			sh, m := sh, m
			t.Run(sh.name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				cfg := campaign.Config{
					Injections: sh.n,
					Seed:       7,
					Target:     sh.target,
					Window:     sh.window,
					Fault:      m.fault,
					Workers:    3,
				}
				_, batch := runLanePair(t, sh.model, "qsort", cfg)
				if batch.BatchedRuns+batch.PeeledRuns != len(batch.Outcomes) {
					t.Errorf("batch accounting %d+%d does not cover %d outcomes",
						batch.BatchedRuns, batch.PeeledRuns, len(batch.Outcomes))
				}
				if batch.LaneOccupancy <= 1 {
					t.Errorf("lane occupancy %.2f: batching never packed lanes", batch.LaneOccupancy)
				}
			})
		}
	}
}

// TestBatchMatchesScalarComposed verifies the batch path composes with
// the rest of the engine exactly as the scalar path does, on both
// simulators: convergence early-exit, golden-trace pruning (both
// modes), sequential stopping, protection, narrow and odd lane widths,
// the cursor schedule and the L1D target all yield byte-identical
// outcome streams.
func TestBatchMatchesScalarComposed(t *testing.T) {
	base := campaign.Config{
		Injections: 30,
		Seed:       11,
		Target:     fault.TargetRF,
		Window:     400,
		Workers:    3,
	}
	cases := []struct {
		name string
		mod  func(*campaign.Config)
	}{
		{"early-stop", func(c *campaign.Config) { c.EarlyStop = true }},
		{"prune-dead", func(c *campaign.Config) { c.Prune = campaign.PruneDead; c.EarlyStop = true }},
		{"prune-classes", func(c *campaign.Config) { c.Prune = campaign.PruneClasses }},
		{"seq-stop", func(c *campaign.Config) {
			c.Injections = 60
			c.TargetError = 0.25
			c.MinRuns = 20
		}},
		{"l1d", func(c *campaign.Config) {
			c.Target = fault.TargetL1D
			c.EarlyStop = true
		}},
		{"protect", func(c *campaign.Config) { c.Protect = "rf=parity" }},
		{"lanes7-cursor", func(c *campaign.Config) {
			c.Lanes, c.Sched = 7, campaign.SchedCursor
			c.EarlyStop = true
		}},
	}
	// The microarchitectural model is cheap enough for the whole
	// product of what composes: every fault model and both targets,
	// windowed and run to end, under each engine option, at three lane
	// widths and both schedules — each against its own scalar oracle.
	maOptions := []struct {
		name string
		mod  func(*campaign.Config)
	}{
		{"plain", func(*campaign.Config) {}},
		{"early-stop", func(c *campaign.Config) { c.EarlyStop = true }},
		{"prune-dead", func(c *campaign.Config) { c.Prune = campaign.PruneDead; c.EarlyStop = true }},
		{"protect", func(c *campaign.Config) { c.Protect = "rf=parity,l1d=secded" }},
	}
	type engine struct {
		lanes int
		sched campaign.Sched
	}
	maEngines := []engine{
		{7, campaign.SchedStream}, {64, campaign.SchedStream},
		{7, campaign.SchedCursor}, {64, campaign.SchedCursor},
		{1, campaign.SchedCursor}, // the cursor engine, no longer what default lanes select
	}
	for _, tc := range cases {
		tc := tc
		for _, m := range []Model{ModelRTL, ModelMicroarch} {
			m := m
			t.Run(m.String()+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := base
				tc.mod(&cfg)
				runLanePair(t, m, "qsort", cfg)
			})
		}
	}
	for _, fm := range faultModels {
		for _, target := range []fault.Target{fault.TargetRF, fault.TargetL1D} {
			for _, window := range []uint64{400, 0} {
				for oi, opt := range maOptions {
					fm, target, window, oi, opt := fm, target, window, oi, opt
					name := fmt.Sprintf("microarch/%s/%v/window%d/%s", fm.name, target, window, opt.name)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := campaign.Config{
							Injections: 24, Seed: 17, Target: target, Window: window,
							Fault: fm.fault, Workers: 2,
						}
						engines := maEngines
						if window == 0 {
							// Run-to-end replays cost tens of thousands of
							// cycles each: fewer faults, and two engines per
							// case, rotating so each option meets them all.
							cfg.Injections = 10
							engines = []engine{maEngines[oi%len(maEngines)], maEngines[(oi+2)%len(maEngines)]}
						}
						opt.mod(&cfg)
						f := benchFactory(t, ModelMicroarch, "sha")
						oracle := cfg
						oracle.Lanes, oracle.Sched = 1, campaign.SchedStream
						want, err := campaign.Run(f, oracle)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range engines {
							cfg.Lanes, cfg.Sched = e.lanes, e.sched
							got, err := campaign.Run(f, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(want.Outcomes, got.Outcomes) {
								for i := range want.Outcomes {
									if i < len(got.Outcomes) && !reflect.DeepEqual(want.Outcomes[i], got.Outcomes[i]) {
										t.Fatalf("lanes %d %v: outcome %d differs:\nscalar %+v\ngot    %+v",
											e.lanes, e.sched, i, want.Outcomes[i], got.Outcomes[i])
									}
								}
								t.Fatalf("lanes %d %v: %d outcomes against the oracle's %d",
									e.lanes, e.sched, len(got.Outcomes), len(want.Outcomes))
							}
							if !reflect.DeepEqual(want.Counts, got.Counts) || want.Unsafeness != got.Unsafeness {
								t.Fatalf("lanes %d %v: aggregate differs: %v %+v against %v %+v",
									e.lanes, e.sched, got.Counts, got.Unsafeness, want.Counts, want.Unsafeness)
							}
							if e.lanes > 1 && got.BatchedRuns+got.PeeledRuns == 0 && got.PrunedRuns+got.OverheadRuns < len(got.Outcomes) {
								t.Errorf("lanes %d %v: the lockstep engine never ran", e.lanes, e.sched)
							}
						}
					})
				}
			}
		}
	}
}

// TestBatchSweepMatchesScalarSweep is the sweep-pool equivalence
// acceptance: routing Sweep's shared worker pool through per-worker
// BatchReplayers (Lanes=64) must reproduce the scalar sweep byte for
// byte — same outcome streams, counts and unsafeness for every
// campaign, on both simulators at once — while actually batching the
// lane-capable targets.
func TestBatchSweepMatchesScalarSweep(t *testing.T) {
	rtl := benchFactory(t, ModelRTL, "qsort")
	ma := benchFactory(t, ModelMicroarch, "qsort")
	matrix := func(lanes int) []campaign.SweepCampaign {
		return []campaign.SweepCampaign{
			{
				Key: "rf", Group: "rtl/qsort", Factory: rtl,
				Config: campaign.Config{
					Injections: 30, Seed: 7, Target: fault.TargetRF,
					Window: 400, Lanes: lanes,
				},
			},
			{
				Key: "l1d", Group: "rtl/qsort", Factory: rtl,
				Config: campaign.Config{
					Injections: 30, Seed: 9, Target: fault.TargetL1D,
					Window: 400, Lanes: lanes, EarlyStop: true,
				},
			},
			{
				// No batch surface for latches: must fall back to the
				// scalar path inside the batched sweep.
				Key: "latches", Group: "rtl/qsort", Factory: rtl,
				Config: campaign.Config{
					Injections: 8, Seed: 3, Target: fault.TargetLatches,
					Window: 300, Lanes: lanes,
				},
			},
			{
				Key: "ma-rf", Group: "microarch/qsort", Factory: ma,
				Config: campaign.Config{
					Injections: 90, Seed: 7, Target: fault.TargetRF,
					Window: 400, Lanes: lanes,
					Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
				},
			},
			{
				Key: "ma-l1d", Group: "microarch/qsort", Factory: ma,
				Config: campaign.Config{
					Injections: 90, Seed: 9, Target: fault.TargetL1D,
					Lanes: lanes, EarlyStop: true, Prune: campaign.PruneDead,
					Sched: campaign.SchedCursor,
				},
			},
		}
	}
	batched := []string{"rf", "l1d", "ma-rf", "ma-l1d"}
	scalar, err := campaign.Sweep(matrix(1), campaign.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := campaign.Sweep(matrix(campaign.MaxLanes), campaign.SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range append([]string{"latches"}, batched...) {
		s, b := scalar.Results[key], batch.Results[key]
		if len(s.Outcomes) != len(b.Outcomes) {
			t.Fatalf("%s: outcome counts differ: scalar %d, batch %d", key, len(s.Outcomes), len(b.Outcomes))
		}
		for i := range s.Outcomes {
			if !reflect.DeepEqual(s.Outcomes[i], b.Outcomes[i]) {
				t.Fatalf("%s outcome %d differs:\nscalar %+v\nbatch  %+v", key, i, s.Outcomes[i], b.Outcomes[i])
			}
		}
		if !reflect.DeepEqual(s.Counts, b.Counts) {
			t.Fatalf("%s: class counts differ: scalar %v, batch %v", key, s.Counts, b.Counts)
		}
		if s.Unsafeness != b.Unsafeness {
			t.Fatalf("%s: unsafeness differs: scalar %+v, batch %+v", key, s.Unsafeness, b.Unsafeness)
		}
		if s.BatchedRuns != 0 || s.PeeledRuns != 0 {
			t.Errorf("%s: scalar sweep reports batching (%d batched, %d peeled)", key, s.BatchedRuns, s.PeeledRuns)
		}
	}
	for _, key := range batched {
		b := batch.Results[key]
		if got, want := b.BatchedRuns+b.PeeledRuns, len(b.Outcomes)-b.PrunedRuns; got != want {
			t.Errorf("%s: batch accounting %d+%d does not cover %d replayed outcomes",
				key, b.BatchedRuns, b.PeeledRuns, want)
		}
		if b.LaneOccupancy <= 1 {
			t.Errorf("%s: lane occupancy %.2f: the sweep never packed lanes", key, b.LaneOccupancy)
		}
	}
	if b := batch.Results["latches"]; b.BatchedRuns != 0 || b.PeeledRuns != 0 {
		t.Errorf("latch sweep campaign reports batching: %d batched, %d peeled", b.BatchedRuns, b.PeeledRuns)
	}
	if batch.GoldenRuns != 2 {
		t.Errorf("batched sweep executed %d golden runs, want one shared per model", batch.GoldenRuns)
	}
}

// TestBatchFusedUnitMatchesScalarRuns is the shared walk's equivalence
// acceptance. Campaigns of one golden group that ride lanes are
// dispatched as one unit: one goroutine pulls a chunk of each, one
// golden walk carries them all — a register-file and an L1D tracker side
// by side, windowed and run-to-end lanes in the slots of one tracker, a
// persistent model beside transients, a seven-lane campaign that must
// defer beside 64-lane ones. A Lanes = 1 campaign in the middle of the
// group stays on the scalar engine and splits the unit in two. Whatever
// the company and however the pool's goroutines cut the pulls, every
// campaign must reproduce its own scalar standalone Run.
func TestBatchFusedUnitMatchesScalarRuns(t *testing.T) {
	group := []struct {
		key string
		cfg campaign.Config
	}{
		{"rf-windowed", campaign.Config{Injections: 40, Seed: 7, Target: fault.TargetRF, Window: 400}},
		{"l1d-windowed", campaign.Config{Injections: 40, Seed: 9, Target: fault.TargetL1D, Window: 400}},
		{"rf-run-to-end", campaign.Config{Injections: 10, Seed: 11, Target: fault.TargetRF}},
		{"rf-lanes1", campaign.Config{Injections: 16, Seed: 13, Target: fault.TargetRF, Window: 400, Lanes: 1}},
		{"l1d-early-stop-prune", campaign.Config{
			Injections: 24, Seed: 15, Target: fault.TargetL1D,
			EarlyStop: true, Prune: campaign.PruneDead, Sched: campaign.SchedCursor,
		}},
		{"rf-stuck-at", campaign.Config{
			Injections: 30, Seed: 17, Target: fault.TargetRF, Window: 400,
			Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		}},
		{"rf-lanes7", campaign.Config{Injections: 60, Seed: 19, Target: fault.TargetRF, Window: 6000, Lanes: 7, EarlyStop: true}},
	}
	for _, model := range []Model{ModelMicroarch, ModelRTL} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			f := benchFactory(t, model, "qsort")
			want := make(map[string]*campaign.Result, len(group))
			var matrix []campaign.SweepCampaign
			for _, c := range group {
				oracle := c.cfg
				oracle.Lanes, oracle.Sched, oracle.Workers = 1, campaign.SchedStream, 2
				res, err := campaign.Run(f, oracle)
				if err != nil {
					t.Fatal(err)
				}
				want[c.key] = res
				matrix = append(matrix, campaign.SweepCampaign{Key: c.key, Group: "g", Factory: f, Config: c.cfg})
			}
			for _, workers := range []int{1, 2} {
				sr, err := campaign.Sweep(matrix, campaign.SweepOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if sr.GoldenRuns != 1 {
					t.Fatalf("%d golden runs; the group was meant to share one", sr.GoldenRuns)
				}
				for _, c := range group {
					w, g := want[c.key], sr.Results[c.key]
					for i := range w.Outcomes {
						if i >= len(g.Outcomes) || w.Outcomes[i] != g.Outcomes[i] {
							t.Fatalf("%d workers, %s outcome %d differs:\nscalar %+v\nfused  %+v (of %d)",
								workers, c.key, i, w.Outcomes[i], g.Outcomes[min(i, len(g.Outcomes)-1)], len(g.Outcomes))
						}
					}
					if len(g.Outcomes) != len(w.Outcomes) || !reflect.DeepEqual(w.Counts, g.Counts) || w.Unsafeness != g.Unsafeness {
						t.Fatalf("%d workers, %s: aggregate differs: %d outcomes %v %+v against %d %v %+v",
							workers, c.key, len(g.Outcomes), g.Counts, g.Unsafeness, len(w.Outcomes), w.Counts, w.Unsafeness)
					}
					rode, replayed := g.BatchedRuns+g.PeeledRuns, len(g.Outcomes)-g.PrunedRuns
					if c.cfg.Lanes == 1 {
						replayed = 0
					}
					if rode != replayed {
						t.Errorf("%d workers, %s: %d+%d replays rode lanes, want %d",
							workers, c.key, g.BatchedRuns, g.PeeledRuns, replayed)
					}
				}
			}
		})
	}
}

// TestBatchLatchesFallsBackScalar pins the capability boundary: the
// pipeline-latch target has no batch surface, so a Lanes=64 campaign
// silently runs the scalar engine and reports no batching.
func TestBatchLatchesFallsBackScalar(t *testing.T) {
	cfg := campaign.Config{
		Injections: 8,
		Seed:       3,
		Target:     fault.TargetLatches,
		Window:     300,
		Workers:    2,
	}
	_, batch := runLanePair(t, ModelRTL, "qsort", cfg)
	if batch.BatchedRuns != 0 || batch.PeeledRuns != 0 || batch.LaneOccupancy != 0 {
		t.Errorf("latch campaign reports batching: %d batched, %d peeled, occupancy %.2f",
			batch.BatchedRuns, batch.PeeledRuns, batch.LaneOccupancy)
	}
}

// TestBatchReplayerSeedPins drives one 512-transient plan through the
// engine 64 lanes must select on either model, single-threaded, and
// holds the engine's account of the pass to its exact seed-determined
// values: lanes retired in lockstep against lanes the design consumed,
// the one walk that carried them all, and where the stepped cycles went
// — a walk steps no golden cycle twice, so what it rode and what it
// stepped with nobody riding fit inside the golden run (most of the
// fast-forward is the sparse ends of the plan, where lanes that peeled
// leave stretches unridden, not the approach to the first instant).
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
		r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: f})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.(*campaign.BatchReplayer); !ok {
			t.Errorf("%v: %d lanes selected %T, not the lockstep engine", tc.model, cfg.Lanes, r)
		}
		if err := r.Replay(p.NextReplay, func(int, campaign.RunOutcome) error { return nil }); err != nil {
			t.Fatal(err)
		}
		got := r.Stats()
		if got != tc.want {
			t.Errorf("%v pins moved:\ngot  %+v\nwant %+v", tc.model, got, tc.want)
		}
		if got.FastForward+got.Lockstep > g.Cycles {
			t.Errorf("%v: one walk stepped %d + %d golden cycles of %d", tc.model, got.FastForward, got.Lockstep, g.Cycles)
		}
		r.Close()
	}
}

// TestBatchDeferralMatchesScalar packs a plan too dense for seven lanes
// — windows of thousands of cycles keep more faults alive than that — so
// instants arrive with every lane of the campaign taken: those specs are
// deferred and replayed by follow-up walks over the leftovers, and every
// outcome must still be the scalar engine's.
func TestBatchDeferralMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		model  Model
		window uint64
	}{
		{ModelMicroarch, 3000},
		{ModelRTL, 8000}, // its lanes peel earlier: longer windows to crowd seven
	} {
		model := tc.model
		f := benchFactory(t, model, "qsort")
		cfg := campaign.Config{
			Injections: 96, Seed: 5, Target: fault.TargetRF,
			Window: tc.window, Lanes: 7, EarlyStop: true,
		}
		g, err := campaign.PrepareGolden(f, campaign.GoldenOptionsFor(cfg))
		if err != nil {
			t.Fatal(err)
		}
		specs, err := g.Plan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := campaign.NewReplayer(&campaign.Work{Golden: g, Config: cfg, Factory: f})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]campaign.RunOutcome, len(specs))
		k := 0
		err = r.Replay(func() (int, fault.Spec, bool) {
			if k == len(specs) {
				return 0, fault.Spec{}, false
			}
			k++
			return k - 1, specs[k-1], true
		}, func(idx int, oc campaign.RunOutcome) error { got[idx] = oc; return nil })
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		r.Close()
		if st.Deferred == 0 || st.Walks < 3 {
			t.Errorf("%v: %d specs deferred over %d walks; the plan was meant to outrun seven lanes", model, st.Deferred, st.Walks)
		}
		if st.Executed != len(specs) {
			t.Errorf("%v: %d of %d replays executed", model, st.Executed, len(specs))
		}
		sim, err := f()
		if err != nil {
			t.Fatal(err)
		}
		scalar := cfg
		scalar.Lanes = 1
		for i, sp := range specs {
			want, err := g.ReplayOne(sim, sp, scalar)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%v outcome %d differs:\nscalar %+v\nbatch  %+v", model, i, want, got[i])
			}
		}
	}
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
	if units, _ := host.LaneGeometry(cfg.Target); units == 0 {
		t.Fatalf("no lane tracker over %v", cfg.Target)
	}
	rfLanes, l1dLanes := host.AttachLanes(cfg.Target == fault.TargetRF, cfg.Target == fault.TargetL1D)
	lanes := rfLanes
	if lanes == nil {
		lanes = l1dLanes
	}
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
