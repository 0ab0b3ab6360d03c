package core

// The oracle harness. The paper's result is a difference between two
// simulators, so every shortcut the replay engines take — bit-parallel
// lanes and their deferral and peels, fused units, the pool's
// splits, the hosts, checkpoint resume — must reproduce the scalar
// stream replay: the same campaigns with Lanes 1. An oracleCase is one
// point of the cross-product model × program × fault model × target ×
// window/observation point × prune × early stop × target error × AVF
// prior × lanes × simulator capabilities × fused-or-alone × pool size ×
// host × checkpoint resume × protection; checkOracle runs it and
// requires each campaign's result, engine accounting aside, to DeepEqual
// its oracle's — under a protection plan, as the arm protect.Derive
// makes of it. The tests in this file are fixed-seed case
// lists; FuzzValueLanes draws random cases (drawCase).

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/protect"
)

// host is how a case's campaigns reach the engines.
type host int

const (
	hostSweep  host = iota // one Sweep: campaigns of one model share a golden run, and those on lanes ride fused
	hostRun                // each campaign alone through campaign.Run
	hostManual             // each campaign planned by hand, replayed by a one-worker pool, its outcomes delivered in reverse
	hostResume             // hostSweep with checkpoints, then again from shards cut to resumeAt records each
	numHosts
)

func (h host) String() string {
	return [...]string{"Sweep", "Run", "manual", "resume"}[h]
}

// What a case holds the engines to beyond the oracle. Whatever a case
// expects, a campaign off lanes (Lanes 1 or a plain simulator) must
// report no lane accounting.
const (
	// expRides: every replayed outcome of a campaign on lanes rode one
	// (batched or peeled).
	expRides = 1 << iota
	// expPacks: every campaign on lanes had more than one lane in flight
	// on average.
	expPacks
	// expDefers: hostManual's lane engine left specs to follow-up walks
	// (Deferred > 0 over at least three walks).
	expDefers
	// expStops: the oracle's sequential stop fired.
	expStops
)

// oracleCamp is one campaign of a case.
type oracleCamp struct {
	model Model
	cfg   campaign.Config
}

type oracleCase struct {
	name       string       // subtest; cases sharing a name run in it in order
	bench      string       // workload; empty runs prog
	prog       *asm.Program // checkOracle sets it from bench
	camps      []oracleCamp
	host       host
	workers    int    // pool size; 0 means 2
	resumeAt   int    // hostResume: records each shard keeps
	engine     string // hostManual: "scalar" or "walk", the engine the pool must pick (read off its account)
	plain      bool   // simulators hide BatchCapable
	goldenRuns int    // hostSweep, hostResume: golden runs the sweep must execute (0: unchecked)
	expect     int
	protect    string // protection plan: a covered campaign is compared as its derived arm
}

func (c oracleCase) factory(m Model) campaign.Factory {
	f := Factory(m, c.prog, CampaignSetup())
	if !c.plain {
		return f
	}
	return func() (campaign.Simulator, error) {
		s, err := f()
		return plainSim{s}, err
	}
}

// plainSim exposes only the Simulator interface of the simulator it
// wraps: none of the optional capabilities (BatchCapable) an engine may
// look for.
type plainSim struct{ campaign.Simulator }

// runOracleCases runs cases as parallel subtests, one per distinct name.
func runOracleCases(t *testing.T, cases []oracleCase) {
	var names []string
	byName := map[string][]oracleCase{}
	for _, c := range cases {
		if byName[c.name] == nil {
			names = append(names, c.name)
		}
		byName[c.name] = append(byName[c.name], c)
	}
	for _, name := range names {
		group := byName[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range group {
				checkOracle(t, c)
			}
		})
	}
}

// checkOracle runs one case on its host and holds every campaign to the
// scalar stream oracle.
func checkOracle(t *testing.T, c oracleCase) {
	t.Helper()
	if c.prog == nil {
		c.prog = benchProgram(t, c.bench)
	}
	want, err := scalarOracle(c)
	if err != nil {
		t.Fatal(err)
	}
	// sweep runs the case's own sweep and checks its golden runs.
	sweep := func(opt campaign.SweepOptions) []*campaign.Result {
		t.Helper()
		res, goldenRuns, err := c.sweep(opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.goldenRuns > 0 && goldenRuns != c.goldenRuns {
			t.Errorf("%d golden runs, want %d", goldenRuns, c.goldenRuns)
		}
		return res
	}
	opt := campaign.SweepOptions{Workers: cmp.Or(c.workers, 2)}
	var got []*campaign.Result
	switch c.host {
	case hostRun:
		for _, oc := range c.camps {
			cfg := oc.cfg
			cfg.Workers = opt.Workers
			res, err := campaign.Run(c.factory(oc.model), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res)
		}
	case hostManual:
		for _, oc := range c.camps {
			got = append(got, driveManually(t, c, oc))
		}
	case hostSweep:
		got = sweep(opt)
	case hostResume:
		opt.CheckpointDir = t.TempDir()
		matchOracle(t, c, want, sweep(opt))
		cutShards(t, opt.CheckpointDir, c.resumeAt)
		got = sweep(opt)
	}
	matchOracle(t, c, want, got)
}

// oracles memoises the scalar oracles of bench cases by campaign list,
// so hosts and engines held to one oracle share its run. An oracle is
// shared across tests and goroutines, so it reports only through its
// error, never through a test.
var oracles sync.Map

// scalarOracle runs the case's distinct campaigns with Lanes 1 as one
// Sweep (each campaign is bit-identical to its standalone Run) and
// returns the results, accounts cleared, in case order.
func scalarOracle(c oracleCase) ([]*campaign.Result, error) {
	o, idx := c, make([]int, len(c.camps))
	o.camps = nil
	for i, oc := range c.camps {
		oc.cfg.Lanes, oc.cfg.Workers = 1, 0
		if idx[i] = slices.Index(o.camps, oc); idx[i] < 0 {
			idx[i] = len(o.camps)
			o.camps = append(o.camps, oc)
		}
	}
	run := sync.OnceValues(func() ([]*campaign.Result, error) {
		res, _, err := o.sweep(campaign.SweepOptions{Workers: 2})
		for _, r := range res {
			r.Account = campaign.Account{}
		}
		return res, err
	})
	if c.bench != "" {
		v, _ := oracles.LoadOrStore(fmt.Sprintf("%s %+v", c.bench, o.camps), run)
		run = v.(func() ([]*campaign.Result, error))
	}
	res, err := run()
	if err != nil {
		return nil, err
	}
	want := make([]*campaign.Result, len(idx))
	for i, k := range idx {
		want[i] = res[k]
	}
	return want, nil
}

// sweep runs the case's campaigns as one Sweep and returns their results
// in case order, and the golden runs the sweep executed.
func (c oracleCase) sweep(opt campaign.SweepOptions) ([]*campaign.Result, int, error) {
	camps := make([]campaign.SweepCampaign, len(c.camps))
	for i, oc := range c.camps {
		camps[i] = campaign.SweepCampaign{Key: fmt.Sprint(i), Group: oc.model.String(), Factory: c.factory(oc.model), Config: oc.cfg}
	}
	sr, err := campaign.Sweep(camps, opt)
	if err != nil {
		return nil, 0, err
	}
	res := make([]*campaign.Result, len(camps))
	for i := range res {
		res[i] = sr.Results[fmt.Sprint(i)]
	}
	return res, sr.GoldenRuns, nil
}

// cutShards keeps the first keep records of every checkpoint shard in
// dir, as if the sweep had been killed there.
func cutShards(t *testing.T, dir string, keep int) {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range shards {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(b), "\n")
		if err := os.WriteFile(path, []byte(strings.Join(lines[:min(keep, len(lines))], "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// driveManually is the coordinator-shaped host: plan the campaign,
// replay it through the pool on one worker into a list of its own,
// deliver the outcomes in REVERSE order (the collector must not care),
// and aggregate.
func driveManually(t *testing.T, c oracleCase, oc oracleCamp) *campaign.Result {
	t.Helper()
	fac, cfg := c.factory(oc.model), oc.cfg
	if err := cfg.Validate(); err != nil { // as a coordinator does on submission
		t.Fatal(err)
	}
	g, err := campaign.PrepareGolden(fac, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	var outs []campaign.RunOutcome
	st := replayOnOne(t, &campaign.Work{Golden: g, Config: cfg, Factory: fac, Next: p.NextReplay,
		Deliver: func(i int, oc campaign.RunOutcome) error {
			idx, outs = append(idx, i), append(outs, oc)
			return nil
		}})
	// The walk carries every replay on lanes; the scalar engine walks
	// nothing and rides no lane.
	engine, rode, wantRode := "scalar", st.Batched+st.Peeled, 0
	if st.Walks > 0 {
		engine, wantRode = "walk", st.Executed
	}
	if c.engine != "" && engine != c.engine {
		t.Errorf("the pool picked the %s engine, want %s", engine, c.engine)
	}
	if rode != wantRode {
		t.Errorf("%d of %d replays rode lanes on the %s engine, want %d", rode, st.Executed, engine, wantRode)
	}
	if st.Executed != len(outs) {
		t.Errorf("replayer reports %d executed, delivered %d", st.Executed, len(outs))
	}
	if c.expect&expDefers != 0 && (st.Deferred == 0 || st.Walks < 3) {
		t.Errorf("%d specs deferred over %d walks; the plan was meant to outrun the lanes", st.Deferred, st.Walks)
	}
	for i := len(outs) - 1; i >= 0; i-- {
		if err := p.Deliver(idx[i], outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// matchOracle checks the case's expectations on got and then requires
// each result, its account cleared, to equal the oracle's.
func matchOracle(t *testing.T, c oracleCase, want, got []*campaign.Result) {
	t.Helper()
	for i, oc := range c.camps {
		g, w := got[i], want[i]
		lanes := cmp.Or(oc.cfg.Lanes, campaign.MaxLanes)
		rode := g.BatchedRuns + g.PeeledRuns
		replayed := len(g.Outcomes) - g.PrunedRuns - g.ExtrapolatedRuns
		switch {
		case lanes == 1 || c.plain:
			if rode != 0 || g.LaneOccupancy != 0 {
				t.Errorf("%s campaign %d is off lanes yet reports %d batched, %d peeled, occupancy %.2f",
					c.host, i, g.BatchedRuns, g.PeeledRuns, g.LaneOccupancy)
			}
		case c.expect&expRides != 0 && rode != replayed:
			t.Errorf("%s campaign %d: %d+%d replays rode lanes of %d replayed", c.host, i, g.BatchedRuns, g.PeeledRuns, replayed)
		case c.expect&expPacks != 0 && g.LaneOccupancy <= 1:
			t.Errorf("%s campaign %d: lane occupancy %.2f, batching never packed lanes", c.host, i, g.LaneOccupancy)
		}
		if c.expect&expStops != 0 && oc.cfg.TargetError > 0 && w.RunsSaved == 0 {
			t.Errorf("campaign %d: the sequential stop never fired; the case tests nothing", i)
		}
		g.Account = campaign.Account{}
		w, g = c.derive(t, oc, w), c.derive(t, oc, g)
		if reflect.DeepEqual(w, g) {
			continue
		}
		for k := range min(len(w.Outcomes), len(g.Outcomes)) {
			if w.Outcomes[k] != g.Outcomes[k] {
				t.Fatalf("%s campaign %d %+v: outcome %d differs:\nscalar %+v\ngot    %+v",
					c.host, i, oc.cfg, k, w.Outcomes[k], g.Outcomes[k])
			}
		}
		t.Fatalf("%s campaign %d %+v diverged from the scalar stream oracle:\n got %+v\nwant %+v",
			c.host, i, oc.cfg, g, w)
	}
}

// derive returns campaign oc's arm under the case's protection plan
// (protect.Derive), or r itself where the plan leaves its target
// unprotected or the campaign is class-pruned, which cannot be derived.
func (c oracleCase) derive(t *testing.T, oc oracleCamp, r *campaign.Result) *campaign.Result {
	t.Helper()
	plan, err := protect.Parse(c.protect)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Scheme(oc.cfg.Target)
	if s == protect.SchemeNone || oc.cfg.Prune == campaign.PruneClasses {
		return r
	}
	sim, err := c.factory(oc.model)()
	if err != nil {
		t.Fatal(err)
	}
	arm, err := protect.Derive(r, s, sim.Bits(oc.cfg.Target))
	if err != nil {
		t.Fatal(err)
	}
	return arm
}

// drawCase draws one point of the harness's cross-product on model m:
// one to three campaigns of at most maxN faults each, on any target the
// model has, under any combination of the engine options Validate
// accepts, on a random host and pool size.
func drawCase(rng *rand.Rand, m Model, maxN int) oracleCase {
	c := oracleCase{host: host(rng.Intn(int(numHosts))), workers: 1 + rng.Intn(3), resumeAt: rng.Intn(maxN)}
	targets := []fault.Target{fault.TargetRF, fault.TargetL1D}
	if m == ModelRTL {
		targets = append(targets, fault.TargetLatches)
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		cfg := campaign.Config{
			Injections: 2 + rng.Intn(maxN-1), Seed: rng.Int63n(1000),
			Target:    targets[rng.Intn(len(targets))],
			Fault:     faultModels[rng.Intn(len(faultModels))].fault,
			Window:    100 * uint64(rng.Intn(8)),
			Prune:     campaign.PruneMode(rng.Intn(3)),
			EarlyStop: rng.Intn(2) == 0,
			Lanes:     []int{1, 7, campaign.MaxLanes}[rng.Intn(3)],
		}
		if cfg.Window == 0 {
			cfg.Obs = campaign.ObsPoint(1 + rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			cfg.TargetError, cfg.MinRuns = 0.3, 4
			cfg.AVFPrior = rng.Intn(2) == 0 && !cfg.Fault.Model.Persistent() && cfg.Target != fault.TargetLatches
		}
		c.camps = append(c.camps, oracleCamp{m, cfg})
	}
	if rng.Intn(3) == 0 {
		var plan []string
		for _, tgt := range targets {
			plan = append(plan, protect.TargetKey(tgt)+"="+protect.Scheme(1+rng.Intn(3)).String())
		}
		c.protect = strings.Join(plan, ",")
	}
	return c
}

// TestEngineHostMatrix: every replay engine, under every host — and the
// lane engine under a checkpointed sweep resumed from seven records per
// shard — reproduces the scalar oracle field for field on both models,
// and each row really selects its engine. Lanes alone picks it: 1 the
// scalar replayer, anything wider the walk, whose lanes the RTL latch
// row rides at default lanes like any other target.
func TestEngineHostMatrix(t *testing.T) {
	scenarios := []struct {
		name    string
		cfg     campaign.Config
		expect  int
		protect string
	}{
		{"plain", campaign.Config{Injections: 24, Seed: 3, Target: fault.TargetRF, Window: 400}, 0, ""},
		{"earlystop+prune-dead", campaign.Config{
			Injections: 24, Seed: 5, Target: fault.TargetL1D, Window: 400,
			EarlyStop: true, Prune: campaign.PruneDead,
		}, 0, ""},
		{"sequential-stop", campaign.Config{
			Injections: 80, Seed: 7, Target: fault.TargetRF, Window: 400,
			TargetError: 0.2, MinRuns: 10, Confidence: 0.95,
		}, expStops, ""},
		{"protected", campaign.Config{Injections: 24, Seed: 9, Target: fault.TargetRF, Window: 400}, 0, "rf=parity"},
	}
	engines := []struct {
		lanes   int
		latches bool // RTL only
		typ     string
	}{
		{1, false, "scalar"},
		{0, true, "walk"},
		{8, false, "walk"},
	}
	var cases []oracleCase
	for _, m := range []Model{ModelRTL, ModelMicroarch} {
		for _, sc := range scenarios {
			for i, e := range engines {
				for h := range numHosts {
					if h == hostSweep && i == 0 || h == hostResume && i != len(engines)-1 || e.latches && m != ModelRTL {
						continue // the oracle itself; resume once, on the lanes; latches only on RTL
					}
					cfg := sc.cfg
					cfg.Lanes = e.lanes
					if e.latches {
						cfg.Target = fault.TargetLatches
					}
					cases = append(cases, oracleCase{
						name: m.String() + "/" + sc.name, bench: "sha", camps: []oracleCamp{{m, cfg}},
						host: h, resumeAt: 7, engine: e.typ, expect: sc.expect, protect: sc.protect,
					})
				}
			}
		}
	}
	runOracleCases(t, cases)
}

// TestManualDispatchMatchesOracle: campaigns planned and dispatched by
// hand, as a coordinator drives them — every replay run by a one-worker
// pool on the engine the config selects, outcomes delivered in reverse —
// reproduce the scalar oracle under a sequential stop and both pruning
// modes.
func TestManualDispatchMatchesOracle(t *testing.T) {
	var cases []oracleCase
	for _, sc := range []struct {
		name   string
		cfg    campaign.Config
		expect int
	}{
		{"baseline-rf", campaign.Config{Injections: 60, Seed: 7, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 2_000}, 0},
		{"seqstop", campaign.Config{
			Injections: 120, Seed: 9, Target: fault.TargetRF, Obs: campaign.ObsPinout, Window: 2_000,
			TargetError: 0.12, MinRuns: 20, Confidence: 0.95,
		}, expStops},
		{"prune-dead-l1d", campaign.Config{
			Injections: 60, Seed: 11, Target: fault.TargetL1D, Obs: campaign.ObsPinout, Window: 500,
			Prune: campaign.PruneDead,
		}, 0},
		{"prune-classes-earlystop", campaign.Config{
			Injections: 60, Seed: 13, Target: fault.TargetL1D, Obs: campaign.ObsPinout, Window: 500,
			Prune: campaign.PruneClasses, EarlyStop: true,
		}, 0},
	} {
		cases = append(cases, oracleCase{
			name: sc.name, bench: "qsort", camps: []oracleCamp{{ModelMicroarch, sc.cfg}},
			host: hostManual, expect: sc.expect,
		})
	}
	runOracleCases(t, cases)
}

// TestBatchMatchesScalarAllModels: for every fault model, on both
// simulators, a 64-lane campaign classifies exactly as the scalar
// engine — on the microarchitectural model also on its L1D target and
// run to the end, where live lanes ride thousands of cycles.
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
		{"microarch/rf/run-to-end", ModelMicroarch, fault.TargetRF, 0, 8},
		{"microarch/l1d/run-to-end", ModelMicroarch, fault.TargetL1D, 0, 8},
	}
	var cases []oracleCase
	for _, sh := range shapes {
		for _, fm := range faultModels {
			cfg := campaign.Config{Injections: sh.n, Seed: 7, Target: sh.target, Window: sh.window, Fault: fm.fault}
			cases = append(cases, oracleCase{
				name: sh.name + "/" + fm.name, bench: "qsort", camps: []oracleCamp{{sh.model, cfg}},
				host: hostRun, workers: 3, expect: expRides | expPacks,
			})
		}
	}
	runOracleCases(t, cases)
}

// TestBatchMatchesScalarComposed: the lane engine composes with the rest
// of the engine exactly as the scalar one does, on both simulators —
// convergence exit, both pruning modes, sequential stopping, the L1D
// target, and the protected arms derived from its campaigns — and, on
// the microarchitectural model, over the product of fault model,
// target, windowed or run to the end, and engine option, with two lane
// widths as campaigns of one sweep. At default
// lanes the RTL latches ride under a convergence exit and a sequential
// stop, and a microarchitectural simulator hiding BatchCapable falls to
// the scalar replayer.
func TestBatchMatchesScalarComposed(t *testing.T) {
	base := campaign.Config{Injections: 30, Seed: 11, Target: fault.TargetRF, Window: 400}
	var cases []oracleCase
	for _, tc := range []struct {
		name    string
		mod     func(*campaign.Config)
		expect  int
		protect string
	}{
		{"early-stop", func(c *campaign.Config) { c.EarlyStop = true }, expRides, ""},
		{"prune-dead", func(c *campaign.Config) { c.Prune = campaign.PruneDead; c.EarlyStop = true }, expRides, ""},
		{"prune-classes", func(c *campaign.Config) { c.Prune = campaign.PruneClasses }, expRides, ""},
		{"seq-stop", func(c *campaign.Config) { c.Injections, c.TargetError, c.MinRuns = 60, 0.25, 20 }, expStops, ""},
		{"l1d", func(c *campaign.Config) { c.Target, c.EarlyStop = fault.TargetL1D, true }, expRides, ""},
		{"protect", func(*campaign.Config) {}, expRides, "rf=parity"},
	} {
		for _, m := range []Model{ModelRTL, ModelMicroarch} {
			cfg := base
			tc.mod(&cfg)
			cases = append(cases, oracleCase{
				name: m.String() + "/" + tc.name, bench: "qsort", camps: []oracleCamp{{m, cfg}},
				host: hostRun, workers: 3, expect: tc.expect, protect: tc.protect,
			})
		}
	}
	other := campaign.Config{Injections: 20, Seed: 31, Obs: campaign.ObsPinout, Window: 500}
	latches, plain := other, other
	latches.Target, latches.EarlyStop, latches.TargetError = fault.TargetLatches, true, 0.2
	plain.Target = fault.TargetRF
	cases = append(cases,
		oracleCase{name: "rtl/latches", bench: "qsort", camps: []oracleCamp{{ModelRTL, latches}}, host: hostRun, expect: expRides},
		oracleCase{name: "microarch/plain-sim", bench: "qsort", camps: []oracleCamp{{ModelMicroarch, plain}}, host: hostRun, plain: true},
	)
	options := []struct {
		name    string
		mod     func(*campaign.Config)
		protect string
	}{
		{"plain", func(*campaign.Config) {}, ""},
		{"early-stop", func(c *campaign.Config) { c.EarlyStop = true }, ""},
		{"prune-dead", func(c *campaign.Config) { c.Prune = campaign.PruneDead; c.EarlyStop = true }, ""},
		{"protect", func(*campaign.Config) {}, "rf=parity,l1d=secded"},
	}
	for _, fm := range faultModels {
		for _, target := range []fault.Target{fault.TargetRF, fault.TargetL1D} {
			for _, window := range []uint64{400, 0} {
				for _, opt := range options {
					cfg := campaign.Config{Injections: 12, Seed: 17, Target: target, Window: window, Fault: fm.fault}
					if window == 0 {
						cfg.Injections = 5 // a replay run to the end costs tens of thousands of cycles
					}
					opt.mod(&cfg)
					c := oracleCase{
						name:  fmt.Sprintf("microarch/%s/%v/window%d/%s", fm.name, target, window, opt.name),
						bench: "sha", expect: expRides, protect: opt.protect,
					}
					for _, lanes := range []int{7, 64} {
						cfg.Lanes = lanes
						c.camps = append(c.camps, oracleCamp{ModelMicroarch, cfg})
					}
					cases = append(cases, c)
				}
			}
		}
	}
	runOracleCases(t, cases)
}

// TestBatchSweepMatchesScalarSweep: Sweep's shared pool on 64-lane
// engines reproduces the scalar sweep on both simulators at once — one
// golden run per model, the latch campaign on a walk of its own beside
// the RTL register-file and L1D one (a store tracks two targets), every
// campaign actually packed.
func TestBatchSweepMatchesScalarSweep(t *testing.T) {
	stuck := fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}
	checkOracle(t, oracleCase{bench: "qsort", host: hostSweep, workers: 3, goldenRuns: 2, expect: expRides | expPacks, camps: []oracleCamp{
		{ModelRTL, campaign.Config{Injections: 30, Seed: 7, Target: fault.TargetRF, Window: 400}},
		{ModelRTL, campaign.Config{Injections: 30, Seed: 9, Target: fault.TargetL1D, Window: 400, EarlyStop: true}},
		{ModelRTL, campaign.Config{Injections: 40, Seed: 3, Target: fault.TargetLatches, Window: 3000}},
		{ModelMicroarch, campaign.Config{Injections: 90, Seed: 7, Target: fault.TargetRF, Window: 400, Fault: stuck}},
		{ModelMicroarch, campaign.Config{
			Injections: 90, Seed: 9, Target: fault.TargetL1D,
			EarlyStop: true, Prune: campaign.PruneDead,
		}},
	}})
}

// TestBatchFusedUnitMatchesScalarRuns: campaigns of one golden group on
// lanes are dispatched as one unit, one golden walk carrying them all —
// register-file and L1D lanes side by side, windowed and run-to-end
// lanes, a persistent model beside transients, a seven-lane campaign
// that must defer beside 64-lane ones, and a Lanes 1 campaign in the
// middle that splits the unit in two. However the pool's goroutines cut
// the pulls, every campaign reproduces its scalar standalone run.
func TestBatchFusedUnitMatchesScalarRuns(t *testing.T) {
	group := []campaign.Config{
		{Injections: 40, Seed: 7, Target: fault.TargetRF, Window: 400},
		{Injections: 40, Seed: 9, Target: fault.TargetL1D, Window: 400},
		{Injections: 10, Seed: 11, Target: fault.TargetRF},
		{Injections: 16, Seed: 13, Target: fault.TargetRF, Window: 400, Lanes: 1},
		{Injections: 24, Seed: 15, Target: fault.TargetL1D, EarlyStop: true, Prune: campaign.PruneDead},
		{Injections: 30, Seed: 17, Target: fault.TargetRF, Window: 400, Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom}},
		{Injections: 60, Seed: 19, Target: fault.TargetRF, Window: 6000, Lanes: 7, EarlyStop: true},
	}
	var cases []oracleCase
	for _, m := range []Model{ModelMicroarch, ModelRTL} {
		var camps []oracleCamp
		for _, cfg := range group {
			camps = append(camps, oracleCamp{m, cfg})
		}
		for _, workers := range []int{1, 2} {
			cases = append(cases, oracleCase{
				name: m.String(), bench: "qsort", camps: camps,
				host: hostSweep, workers: workers, goldenRuns: 1, expect: expRides,
			})
		}
	}
	runOracleCases(t, cases)
}

// TestBatchLatchesRideLanes: under every fault model a 64-lane
// pipeline-latch campaign rides the walk's lanes with every replay — a
// data-latch flip as a diff, any other latch fault peeled on its first
// tick — and classifies exactly as the scalar engine.
func TestBatchLatchesRideLanes(t *testing.T) {
	var cases []oracleCase
	for _, fm := range faultModels {
		cases = append(cases, oracleCase{
			name: fm.name, bench: "qsort", host: hostRun, expect: expRides, camps: []oracleCamp{
				{ModelRTL, campaign.Config{Injections: 24, Seed: 3, Target: fault.TargetLatches, Window: 300, Fault: fm.fault}},
			},
		})
	}
	runOracleCases(t, cases)
}

// TestBatchDeferralMatchesScalar packs a plan too dense for seven lanes —
// windows of thousands of cycles keep more faults alive than that — so
// instants arrive with every lane taken: those specs are deferred to
// follow-up walks over the leftovers, and every outcome must still be
// the scalar engine's.
func TestBatchDeferralMatchesScalar(t *testing.T) {
	var cases []oracleCase
	for _, tc := range []struct {
		model  Model
		window uint64
	}{
		{ModelMicroarch, 3000},
		{ModelRTL, 8000}, // its lanes peel earlier: longer windows to crowd seven
	} {
		cfg := campaign.Config{Injections: 96, Seed: 5, Target: fault.TargetRF, Window: tc.window, Lanes: 7, EarlyStop: true}
		cases = append(cases, oracleCase{
			name: tc.model.String(), bench: "qsort", camps: []oracleCamp{{tc.model, cfg}},
			host: hostManual, engine: "walk", expect: expDefers,
		})
	}
	runOracleCases(t, cases)
}
