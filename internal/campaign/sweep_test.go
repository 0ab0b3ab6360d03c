package campaign_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/lifetime"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// mockSim is a deterministic counter machine implementing the campaign
// Simulator interface, used to drive error paths no real model hits.
type mockSim struct {
	cycles uint64
	limit  uint64
	stop   refsim.StopReason
	broken bool // Step fails immediately (replay-error injection)

	onFlip func() // called on every injection, when set
}

func (s *mockSim) Step() bool {
	if s.broken {
		s.stop = refsim.StopFault
		return false
	}
	s.cycles++
	if s.cycles >= s.limit {
		s.stop = refsim.StopExit
		return false
	}
	return true
}

func (s *mockSim) Run(max uint64) refsim.StopReason {
	for s.cycles < max {
		if !s.Step() {
			return s.stop
		}
	}
	s.stop = refsim.StopLimit
	return s.stop
}

func (s *mockSim) Cycles() uint64                { return s.cycles }
func (s *mockSim) StopReason() refsim.StopReason { return s.stop }
func (s *mockSim) Output() []byte                { return []byte("ok") }
func (s *mockSim) SetPinout(*trace.Pinout)       {}
func (s *mockSim) Bits(fault.Target) int         { return 32 }
func (s *mockSim) Flip(fault.Target, int) error {
	if s.onFlip != nil {
		s.onFlip()
	}
	return nil
}
func (s *mockSim) Force(fault.Target, int, int) error { return nil }
func (s *mockSim) Snapshot() campaign.Snapshot        { return s.cycles }
func (s *mockSim) SetL1DAccessHook(func(int, int))    {}
func (s *mockSim) SetLifetime(*lifetime.Recorder)     {}
func (s *mockSim) L1DLineOfBit(int) (int, int)        { return 0, 0 }
func (s *mockSim) Restore(snap campaign.Snapshot)     { s.cycles = snap.(uint64); s.stop = 0 }
func (s *mockSim) StateHash() uint64                  { return s.cycles }

// laneSim gives a simulator a lane surface over every target on which
// each lane peels on its first tick, as an RTL control-latch fault does:
// a walk over it restores both of its simulators, and its injections
// reach the walker's Flip.
type laneSim struct{ campaign.Simulator }

func (s laneSim) DetachLanes() {}
func (s laneSim) SnapshotInto(campaign.Snapshot) campaign.Snapshot {
	return s.Snapshot()
}
func (s laneSim) AttachLanes(targets []fault.Target) []campaign.LaneSet {
	sets := make([]campaign.LaneSet, len(targets))
	for i := range sets {
		sets[i] = &peelingLanes{sim: s.Simulator}
	}
	return sets
}

type peelingLanes struct {
	sim  campaign.Simulator
	busy uint64
}

func (l *peelingLanes) Flip(lane, bit int) error {
	l.busy |= 1 << lane
	return l.sim.Flip(fault.TargetRF, bit)
}
func (l *peelingLanes) Force(lane, bit, v int) error {
	l.busy |= 1 << lane
	return l.sim.Force(fault.TargetRF, bit, v)
}
func (l *peelingLanes) BeginTick()                            {}
func (l *peelingLanes) Peeled() uint64                        { return l.busy }
func (l *peelingLanes) Reason(int) lanestore.PeelReason       { return lanestore.PeelFault }
func (l *peelingLanes) Rebuild(int, campaign.Simulator) error { return nil }
func (l *peelingLanes) Retire(lane int)                       { l.busy &^= 1 << lane }
func (l *peelingLanes) Clean(int) bool                        { return false }
func (l *peelingLanes) OutputDiffers(int) bool                { return false }
func (l *peelingLanes) AppendDiverged(_ int, buf []trace.Transaction) []trace.Transaction {
	return buf
}

// runWithTimeout guards against the historical all-workers-dead
// deadlock: the campaign must terminate, not hang the test binary.
func runWithTimeout(t *testing.T, f campaign.Factory, cfg campaign.Config) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := campaign.Run(f, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		t.Fatal("campaign.Run did not terminate (worker-pool deadlock)")
		return nil
	}
}

func errCfg() campaign.Config {
	return campaign.Config{
		Injections: 50, Seed: 7, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 10, Workers: 4,
	}
}

func TestGoldenFactoryErrorPropagates(t *testing.T) {
	boom := errors.New("no simulator for you")
	_, err := campaign.Run(func() (campaign.Simulator, error) { return nil, boom }, errCfg())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("golden factory error not propagated: %v", err)
	}
}

func TestAllWorkerFactoriesFailNoDeadlock(t *testing.T) {
	// The golden instance builds fine; every worker instance fails, so
	// with the old unbuffered dispatch no one drained the jobs channel.
	var calls int32
	boom := errors.New("worker factory down")
	factory := func() (campaign.Simulator, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			return &mockSim{limit: 100}, nil
		}
		return nil, boom
	}
	err := runWithTimeout(t, factory, errCfg())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want worker factory error, got %v", err)
	}
}

func TestAllWorkersReplayErrorNoDeadlock(t *testing.T) {
	// Every replay instance breaks on its first Step, so every worker
	// exits early through the oneRunBuf error path.
	var calls int32
	factory := func() (campaign.Simulator, error) {
		broken := atomic.AddInt32(&calls, 1) > 1
		return &mockSim{limit: 100, broken: broken}, nil
	}
	err := runWithTimeout(t, factory, errCfg())
	if err == nil || !strings.Contains(err.Error(), "replay stopped") {
		t.Fatalf("want replay error, got %v", err)
	}
}

func TestSweepWorkerErrorNoDeadlock(t *testing.T) {
	var calls int32
	factory := func() (campaign.Simulator, error) {
		broken := atomic.AddInt32(&calls, 1) > 1
		return &mockSim{limit: 100, broken: broken}, nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := campaign.Sweep([]campaign.SweepCampaign{
			{Key: "a", Group: "mock", Factory: factory, Config: errCfg()},
		}, campaign.SweepOptions{Workers: 4})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "replay stopped") {
			t.Fatalf("want replay error, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Sweep did not terminate (worker-pool deadlock)")
	}
}

func TestSweepRejectsBadMatrices(t *testing.T) {
	factory := func() (campaign.Simulator, error) { return &mockSim{limit: 100}, nil }
	ok := errCfg()
	if _, err := campaign.Sweep(nil, campaign.SweepOptions{}); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := campaign.Sweep([]campaign.SweepCampaign{
		{Key: "a", Group: "g", Factory: factory, Config: ok},
		{Key: "a", Group: "g", Factory: factory, Config: ok},
	}, campaign.SweepOptions{}); err == nil {
		t.Error("duplicate keys accepted")
	}
	sop := ok
	sop.Obs = campaign.ObsSOP
	sop.Window = 100
	if _, err := campaign.Sweep([]campaign.SweepCampaign{
		{Key: "a", Group: "g", Factory: factory, Config: sop},
	}, campaign.SweepOptions{}); err == nil {
		t.Error("SOP+Window accepted by sweep validation")
	}
	zero := ok
	zero.Injections = 0
	if _, err := campaign.Sweep([]campaign.SweepCampaign{
		{Key: "a", Group: "g", Factory: factory, Config: zero},
	}, campaign.SweepOptions{}); err == nil {
		t.Error("zero injections accepted by sweep validation")
	}
}

// sweepFixture is a 4-campaign matrix where the first two campaigns
// share one golden run (same model and workload, different targets and
// seeds), the third is its own group, and the fourth exercises a
// non-default fault model (permanent stuck-at) against the first
// group's golden run.
func sweepFixture(t *testing.T) []campaign.SweepCampaign {
	t.Helper()
	mk := func(workload string) campaign.Factory { return factoryFor(t, workload, core.ModelMicroarch) }
	qsort := mk("qsort")
	return []campaign.SweepCampaign{
		{
			Key: "rf/qsort", Group: "ma/qsort", Factory: qsort,
			Config: campaign.Config{
				Injections: 25, Seed: 11, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Window: 5_000,
			},
		},
		{
			Key: "l1d/qsort", Group: "ma/qsort", Factory: qsort,
			Config: campaign.Config{
				Injections: 25, Seed: 12, Target: fault.TargetL1D,
				Obs: campaign.ObsPinout, Window: 5_000,
			},
		},
		{
			Key: "rf/sha", Group: "ma/sha", Factory: mk("sha"),
			Config: campaign.Config{
				Injections: 20, Seed: 13, Target: fault.TargetRF,
				Obs: campaign.ObsPinout, Window: 5_000,
			},
		},
		{
			Key: "rf-stuck/qsort", Group: "ma/qsort", Factory: qsort,
			Config: campaign.Config{
				Injections: 15, Seed: 11, Target: fault.TargetRF,
				Fault: fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
				Obs:   campaign.ObsPinout, Window: 5_000,
			},
		},
	}
}

// TestSweepMatchesStandaloneRuns is the determinism contract: a sweep
// must produce bit-identical Unsafeness and Outcomes to standalone
// campaign.Run with the same seeds, while executing one golden run per
// shared (model, workload) group instead of one per campaign.
func TestSweepMatchesStandaloneRuns(t *testing.T) {
	campaigns := sweepFixture(t)
	sr := mustSweep(t, campaigns, campaign.SweepOptions{Workers: 4})
	if sr.GoldenRuns != 2 {
		t.Errorf("sweep ran %d golden runs for 4 campaigns in 2 groups", sr.GoldenRuns)
	}
	for _, c := range campaigns {
		standalone := mustRun(t, c.Factory, c.Config)
		got := sr.Results[c.Key]
		if got == nil {
			t.Fatalf("%s: missing sweep result", c.Key)
		}
		if got.Unsafeness != standalone.Unsafeness {
			t.Errorf("%s: sweep unsafeness %+v != standalone %+v",
				c.Key, got.Unsafeness, standalone.Unsafeness)
		}
		if got.GoldenCycles != standalone.GoldenCycles {
			t.Errorf("%s: golden cycles differ: %d vs %d",
				c.Key, got.GoldenCycles, standalone.GoldenCycles)
		}
		if len(got.Outcomes) != len(standalone.Outcomes) {
			t.Fatalf("%s: outcome counts differ", c.Key)
		}
		for i := range got.Outcomes {
			if got.Outcomes[i] != standalone.Outcomes[i] {
				t.Fatalf("%s: outcome %d differs: %+v vs %+v",
					c.Key, i, got.Outcomes[i], standalone.Outcomes[i])
			}
		}
	}
	for _, g := range sr.Goldens {
		if g.Cycles == 0 || g.Elapsed <= 0 {
			t.Errorf("golden info %q incomplete: %+v", g.Group, g)
		}
	}
}

// TestSweepRunsEachDistinctCampaignOnce adds to the fixture a twin of
// one campaign that differs only in Workers and Lanes, and a campaign
// of another group with the same config. The twin must replay once,
// behind the first key's checkpoint shard, and read that key's result
// in a copy of its own; the other group's campaign must still run.
func TestSweepRunsEachDistinctCampaignOnce(t *testing.T) {
	campaigns := sweepFixture(t)
	twin := campaigns[0]
	twin.Key = "rf/qsort-twin"
	twin.Config.Workers, twin.Config.Lanes = 1, 1
	elsewhere := campaigns[2]
	elsewhere.Key, elsewhere.Config = "rf/sha-as-qsort", campaigns[0].Config
	campaigns = append(campaigns, twin, elsewhere)
	dir := t.TempDir()
	sr := mustSweep(t, campaigns, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
	a, b := sr.Results[campaigns[0].Key], sr.Results[twin.Key]
	if a == b || !reflect.DeepEqual(a, b) {
		t.Fatalf("twin result: want an equal copy, got %p %+v and %p %+v", a, a, b, b)
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != len(campaigns)-1 {
		t.Errorf("%d checkpoint shards for %d distinct campaigns", len(shards), len(campaigns)-1)
	}
	if got, want := sr.Results[elsewhere.Key].GoldenCycles, sr.Results["rf/sha"].GoldenCycles; got != want {
		t.Errorf("campaign of group ma/sha ran against %d golden cycles, want %d", got, want)
	}
}

func TestSweepCheckpointResume(t *testing.T) {
	campaigns := sweepFixture(t)
	dir := t.TempDir()
	opt := campaign.SweepOptions{Workers: 4, CheckpointDir: dir}
	first := mustSweep(t, campaigns, opt)
	if first.Resumed != 0 {
		t.Errorf("fresh sweep resumed %d replays", first.Resumed)
	}
	second := mustSweep(t, campaigns, opt)
	total := 0
	for _, c := range campaigns {
		total += c.Config.Injections
	}
	if second.Resumed != total {
		t.Errorf("resumed %d of %d replays from checkpoints", second.Resumed, total)
	}
	for _, c := range campaigns {
		a, b := first.Results[c.Key], second.Results[c.Key]
		if a.Unsafeness != b.Unsafeness {
			t.Errorf("%s: resumed unsafeness differs: %+v vs %+v", c.Key, a.Unsafeness, b.Unsafeness)
		}
		for i := range a.Outcomes {
			if a.Outcomes[i] != b.Outcomes[i] {
				t.Fatalf("%s: resumed outcome %d differs", c.Key, i)
			}
		}
	}
	// A different seed must invalidate the stale shards, not reuse them.
	changed := make([]campaign.SweepCampaign, len(campaigns))
	copy(changed, campaigns)
	changed[0].Config.Seed = 999
	third := mustSweep(t, changed, opt)
	if third.Resumed > total-changed[0].Config.Injections {
		t.Errorf("stale checkpoints reused after seed change: resumed %d", third.Resumed)
	}
	// A different window leaves the fault plan identical but changes
	// classification, so those records must be invalidated too.
	rewindowed := make([]campaign.SweepCampaign, len(campaigns))
	copy(rewindowed, campaigns)
	rewindowed[0].Config.Window = 20_000
	fourth := mustSweep(t, rewindowed, opt)
	if fourth.Resumed > total-rewindowed[0].Config.Injections {
		t.Errorf("stale checkpoints reused after window change: resumed %d", fourth.Resumed)
	}
	ref := mustRun(t, rewindowed[0].Factory, rewindowed[0].Config)
	if got := fourth.Results[rewindowed[0].Key].Unsafeness; got != ref.Unsafeness {
		t.Errorf("rewindowed sweep result %+v != standalone %+v", got, ref.Unsafeness)
	}
}

// TestSweepCheckpointDiscardsOtherModel: changing a campaign's fault
// model must invalidate its stale shards — a transient record replayed
// into a burst or stuck-at plan would silently misclassify — while the
// fresh results still match standalone runs.
func TestSweepCheckpointDiscardsOtherModel(t *testing.T) {
	campaigns := sweepFixture(t)
	dir := t.TempDir()
	opt := campaign.SweepOptions{Workers: 4, CheckpointDir: dir}
	if _, err := campaign.Sweep(campaigns, opt); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range campaigns {
		total += c.Config.Injections
	}
	remodeled := make([]campaign.SweepCampaign, len(campaigns))
	copy(remodeled, campaigns)
	remodeled[0].Config.Fault = fault.Params{Model: fault.ModelBurst, Burst: 3}
	second := mustSweep(t, remodeled, opt)
	if second.Resumed > total-remodeled[0].Config.Injections {
		t.Errorf("stale checkpoints reused after fault-model change: resumed %d", second.Resumed)
	}
	ref := mustRun(t, remodeled[0].Factory, remodeled[0].Config)
	got := second.Results[remodeled[0].Key]
	if got.Unsafeness != ref.Unsafeness {
		t.Errorf("remodeled sweep result %+v != standalone %+v", got.Unsafeness, ref.Unsafeness)
	}
	for i := range got.Outcomes {
		if got.Outcomes[i] != ref.Outcomes[i] {
			t.Fatalf("remodeled outcome %d differs: %+v vs %+v", i, got.Outcomes[i], ref.Outcomes[i])
		}
	}
	// Re-running the remodeled matrix resumes everything, including
	// the burst campaign's fresh records.
	third := mustSweep(t, remodeled, opt)
	if third.Resumed != total {
		t.Errorf("resumed %d of %d after the model change was checkpointed", third.Resumed, total)
	}
}

// engineCounter builds mock simulators for one campaign and counts the
// engines that replayed something: the instances injected into at least
// once (an engine injects into one of its simulators only). With
// together set, an engine's first injection waits for a second engine's
// — so the count is 2 exactly when the pool split the campaign across
// two goroutines, however they are scheduled — and gives up after a
// timeout so an unsplit campaign fails the count instead of hanging.
type engineCounter struct {
	together bool
	used     atomic.Int32
	second   chan struct{}
}

func newEngineCounter(together bool) *engineCounter {
	return &engineCounter{together: together, second: make(chan struct{})}
}

func (e *engineCounter) factory() (campaign.Simulator, error) {
	var once sync.Once
	return laneSim{&mockSim{limit: 100, onFlip: func() {
		once.Do(func() {
			n := e.used.Add(1)
			if !e.together {
				return
			}
			if n == 2 {
				close(e.second)
			}
			select {
			case <-e.second:
			case <-time.After(2 * time.Second):
			}
		})
	}}}, nil
}

// TestSweepSplitsLastCampaign holds the scheduler's guided
// self-scheduling across units: a grab takes at most its share of what
// the whole pool has left, in modelled golden cycles, so a campaign is
// split across the pool's goroutines when it outweighs that share —
// the only one, for Run; the last of a sweep; a heavy one wherever it
// stands in line — and goes to one goroutine whole when the campaigns
// queued behind it can occupy the rest. Every campaign has a golden run
// of its own and rides the mock's lanes, so one grab could hold a whole
// campaign (a walk's chunk, Lanes × 8 = 512, is larger than every
// campaign here): only the cost share can split one. Results do not
// depend on the split.
func TestSweepSplitsLastCampaign(t *testing.T) {
	cfg := errCfg()
	cfg.Injections = 400
	sweep := func(workers int, cfgs []campaign.Config, counters ...*engineCounter) *campaign.SweepResult {
		t.Helper()
		var camps []campaign.SweepCampaign
		for i, c := range counters {
			camps = append(camps, campaign.SweepCampaign{
				Key: fmt.Sprint("c", i), Group: fmt.Sprint("mock", i), Factory: c.factory, Config: cfgs[i],
			})
		}
		sr := mustSweep(t, camps, campaign.SweepOptions{Workers: workers})
		for _, r := range sr.Results {
			r.Account = campaign.Account{}
		}
		return sr
	}

	one := []campaign.Config{cfg}
	alone := newEngineCounter(true)
	split := sweep(2, one, alone)
	if n := alone.used.Load(); n != 2 {
		t.Errorf("one-campaign sweep on 2 goroutines replayed on %d engine(s), want 2", n)
	}
	serial := sweep(1, one, newEngineCounter(false))
	if !reflect.DeepEqual(split.Results, serial.Results) {
		t.Error("split campaign differs from the one-goroutine run")
	}

	// Run to the end, the first campaign models five times the cycles of
	// either windowed one behind it: more than half the pool, so it is
	// split; the second is then half of what is left and goes whole.
	heavy := cfg
	heavy.Window = 0
	three := []campaign.Config{heavy, cfg, cfg}
	counters := []*engineCounter{newEngineCounter(true), newEngineCounter(false), newEngineCounter(true)}
	sweep(2, three, counters...)
	for i, want := range []int32{2, 1, 2} {
		if n := counters[i].used.Load(); n != want {
			t.Errorf("campaign %d of 3 replayed on %d engine(s), want %d", i, n, want)
		}
	}
}

// TestRunIsSweepOfOne: Run adds nothing to a one-campaign Sweep — same
// result on both models, same error for a factory that fails.
func TestRunIsSweepOfOne(t *testing.T) {
	cfg := campaign.Config{
		Injections: 40, Seed: 5, Target: fault.TargetRF, Window: 400,
		Workers: 2, EarlyStop: true, Prune: campaign.PruneDead,
	}
	one := func(fac campaign.Factory) (*campaign.Result, error) {
		sr, err := campaign.Sweep([]campaign.SweepCampaign{
			{Key: "run", Group: "run", Factory: fac, Config: cfg},
		}, campaign.SweepOptions{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		return sr.Results["run"], nil
	}
	for _, m := range []core.Model{core.ModelMicroarch, core.ModelRTL} {
		fac := factoryFor(t, "sha", m)
		got := mustRun(t, fac, cfg)
		want, err := one(fac)
		if err != nil {
			t.Fatal(err)
		}
		got.Account = campaign.Account{}
		want.Account = campaign.Account{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Run differs from a one-campaign Sweep:\n got %+v\nwant %+v", m, got, want)
		}
	}

	// Golden factory down, then only the engines' factory calls down.
	for _, healthy := range []int32{0, 1} {
		boom := errors.New("no simulator for you")
		var calls atomic.Int32
		fac := func() (campaign.Simulator, error) {
			if calls.Add(1) <= healthy {
				return &mockSim{limit: 100}, nil
			}
			return nil, boom
		}
		_, runErr := campaign.Run(fac, cfg)
		calls.Store(0)
		_, sweepErr := one(fac)
		if runErr == nil || sweepErr == nil || runErr.Error() != sweepErr.Error() || !errors.Is(runErr, boom) {
			t.Errorf("failing factory after %d good calls: Run says %v, Sweep says %v", healthy, runErr, sweepErr)
		}
	}
}
