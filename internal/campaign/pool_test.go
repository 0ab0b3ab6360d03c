package campaign_test

// Error-path coverage for the one replay pool: a goroutine failing
// mid-stream must cancel dispatch, surface the first error and leave no
// goroutine behind — including the historical all-workers-exit case,
// where a producer that never runs dry used to block forever on the job
// channel.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// waitNoLeak polls until the goroutine count returns to the baseline,
// failing after a deadline — the goroutine-leak assertion of the pool
// tests (counts settle asynchronously, so a single snapshot would
// flake).
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
}

// mockWork is a pool campaign over the mock counter machine whose
// producer NEVER runs dry: if dispatch cancellation is broken the pool
// can only hang, which the test deadline converts into a failure.
// deliver decides each outcome's fate; produced counts Next calls.
func mockWork(t *testing.T, deliver func(idx int) error) (*campaign.Work, *atomic.Int64) {
	t.Helper()
	factory := func() (campaign.Simulator, error) { return &mockSim{limit: 100}, nil }
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var produced atomic.Int64
	return &campaign.Work{
		Golden: g, Config: errCfg(), Factory: factory,
		Next: func() (int, fault.Spec, bool) {
			n := int(produced.Add(1))
			return n, fault.Spec{Target: fault.TargetRF, Cycle: uint64(20 + n%50), Model: fault.ModelTransient}, true
		},
		Deliver: func(idx int, _ campaign.RunOutcome) error { return deliver(idx) },
	}, &produced
}

// finiteNext is a source of n replays, indices 0 … n-1.
func finiteNext(n int) func() (int, fault.Spec, bool) {
	k := 0
	return func() (int, fault.Spec, bool) {
		if k >= n {
			return 0, fault.Spec{}, false
		}
		k++
		return k - 1, fault.Spec{Target: fault.TargetRF, Cycle: uint64(10 + k%80), Model: fault.ModelTransient}, true
	}
}

// poolWithTimeout runs the pool, failing the test if it hangs.
func poolWithTimeout(t *testing.T, workers int, w *campaign.Work) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- campaign.ReplayPool(workers, nil, w) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("ReplayPool deadlocked on a producer that never runs dry")
		return nil
	}
}

func TestPoolWorkerErrorCancelsDispatch(t *testing.T) {
	base := runtime.NumGoroutine()
	sentinel := errors.New("replay worker died")
	var delivered atomic.Int64
	w, produced := mockWork(t, func(int) error {
		if delivered.Add(1) == 40 {
			return sentinel // die mid-stream with replays still flowing
		}
		return nil
	})
	if err := poolWithTimeout(t, 4, w); !errors.Is(err, sentinel) {
		t.Fatalf("ReplayPool error = %v, want the worker's %v", err, sentinel)
	}
	waitNoLeak(t, base)
	// Dispatch must have stopped: with the pool gone the producer can
	// never be driven again, so the count is final.
	p := produced.Load()
	time.Sleep(20 * time.Millisecond)
	if got := produced.Load(); got != p {
		t.Fatalf("producer still being driven after ReplayPool returned: %d -> %d", p, got)
	}
}

func TestPoolAllWorkersDieNoDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	sentinel := errors.New("boom")
	// Every goroutine takes exactly one replay, then dies.
	w, _ := mockWork(t, func(int) error { return sentinel })
	if err := poolWithTimeout(t, 4, w); !errors.Is(err, sentinel) {
		t.Fatalf("ReplayPool error = %v, want %v", err, sentinel)
	}
	waitNoLeak(t, base)

	// Same, dying before the first pull: no goroutine can even build its
	// engine.
	down := errors.New("worker factory down")
	w, _ = mockWork(t, func(int) error { return nil })
	w.Factory = func() (campaign.Simulator, error) { return nil, down }
	if err := poolWithTimeout(t, 4, w); !errors.Is(err, down) {
		t.Fatalf("ReplayPool error = %v, want %v", err, down)
	}
	waitNoLeak(t, base)
}

func TestPoolFirstErrorWins(t *testing.T) {
	base := runtime.NumGoroutine()
	only := errors.New("the one real failure")
	// One delivery fails; every other goroutine drains cleanly. The
	// returned error must be the failing one's, never nil and never a
	// synthetic pool error.
	var failed atomic.Bool
	w, _ := mockWork(t, func(idx int) error {
		if idx >= 25 && failed.CompareAndSwap(false, true) {
			return only
		}
		return nil
	})
	w.Name = "camp"
	err := poolWithTimeout(t, 3, w)
	if !errors.Is(err, only) {
		t.Fatalf("ReplayPool error = %v, want %v", err, only)
	}
	if err.Error() != "camp: "+only.Error() {
		t.Errorf("error %q does not name the failing campaign", err)
	}
	waitNoLeak(t, base)
}

// TestPoolDeliversEverythingOnce runs finite sources of every shape —
// smaller than the pool, a short tail campaign queued behind a long one,
// an empty one — and asserts each replay is delivered exactly once.
func TestPoolDeliversEverythingOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	factory := func() (campaign.Simulator, error) { return &mockSim{limit: 100}, nil }
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1000, 0, 3}
	seen := make([][]atomic.Int32, len(sizes))
	var work []*campaign.Work
	for c, n := range sizes {
		c := c
		seen[c] = make([]atomic.Int32, n)
		work = append(work, &campaign.Work{
			Golden: g, Config: errCfg(), Factory: factory, Size: n, Next: finiteNext(n),
			Deliver: func(idx int, _ campaign.RunOutcome) error { seen[c][idx].Add(1); return nil },
		})
	}
	if err := campaign.ReplayPool(8, nil, work...); err != nil {
		t.Fatal(err)
	}
	for c := range seen {
		for i := range seen[c] {
			if n := seen[c][i].Load(); n != 1 {
				t.Fatalf("campaign %d replay %d delivered %d times", c, i, n)
			}
		}
	}
	// A fired stop ceases dispatch even on a producer that never runs
	// dry, and says so: it draws the one replay that proves work was
	// left, and runs none.
	stop := make(chan struct{})
	close(stop)
	var ran atomic.Int64
	w, produced := mockWork(t, func(int) error { ran.Add(1); return nil })
	if err := campaign.ReplayPool(8, stop, w); !errors.Is(err, campaign.ErrInterrupted) {
		t.Errorf("stopped pool returned %v, want ErrInterrupted", err)
	}
	if n, r := produced.Load(), ran.Load(); n > 1 || r != 0 {
		t.Errorf("stopped pool still pulled %d replays and ran %d", n, r)
	}
	waitNoLeak(t, base)
}

// usedSim is a mock simulator that remembers whether anything was ever
// replayed on it (every replay starts with a Restore).
type usedSim struct {
	mockSim
	used atomic.Bool
}

func (s *usedSim) Restore(snap campaign.Snapshot) {
	s.used.Store(true)
	s.mockSim.Restore(snap)
}

// TestPoolBuildsEnginesOnlyForServedUnits: a goroutine pulls before it
// builds, so one that arrives at a unit another goroutine has just
// drained pays for no engine. Eight goroutines race for sources of one
// or two replays; every simulator the factory handed out must have been
// replayed on. The scalar engine (Lanes 1) owns one simulator; the walk
// (default lanes, forking every replay: the mock tracks no lanes) owns a
// pair.
func TestPoolBuildsEnginesOnlyForServedUnits(t *testing.T) {
	base := runtime.NumGoroutine()
	plain := func() (campaign.Simulator, error) { return &mockSim{limit: 100}, nil }
	g, err := campaign.PrepareGolden(plain, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		lanes, sims int // Config.Lanes; simulators per engine
	}{
		{"scalar", 1, 1},
		{"walk", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu    sync.Mutex
				built []*usedSim
			)
			counting := func() (campaign.Simulator, error) {
				s := &usedSim{mockSim: mockSim{limit: 100}}
				mu.Lock()
				built = append(built, s)
				mu.Unlock()
				return s, nil
			}
			cfg := errCfg()
			cfg.Lanes = tc.lanes
			var work []*campaign.Work
			var delivered atomic.Int64
			total := 0
			for _, n := range []int{1, 0, 2, 1, 1, 0, 1} {
				total += n
				work = append(work, &campaign.Work{
					Golden: g, Config: cfg, Factory: counting, Size: n, Next: finiteNext(n),
					Deliver: func(int, campaign.RunOutcome) error { delivered.Add(1); return nil },
				})
			}
			if err := campaign.ReplayPool(8, nil, work...); err != nil {
				t.Fatal(err)
			}
			if got := int(delivered.Load()); got != total {
				t.Fatalf("delivered %d of %d replays", got, total)
			}
			if len(built) == 0 || len(built) > tc.sims*total {
				t.Errorf("%d simulators built for %d replays, want at most %d per replay", len(built), total, tc.sims)
			}
			for i, s := range built {
				if !s.used.Load() {
					t.Errorf("simulator %d of %d was built and never served a replay", i, len(built))
				}
			}
		})
	}
	waitNoLeak(t, base)
}

// TestPoolStopAfterLastIssueIsNotAnInterrupt: a source whose pulls all
// came back full is not known to be dry. A stop that fires then — every
// replay issued and delivered — interrupted nothing, and the pool must
// not say it did; one that fires with a replay still unissued must.
func TestPoolStopAfterLastIssueIsNotAnInterrupt(t *testing.T) {
	base := runtime.NumGoroutine()
	factory := func() (campaign.Simulator, error) { return &mockSim{limit: 100}, nil }
	g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	cfg := errCfg()
	cfg.Lanes = 1
	for _, stopAt := range []int64{n, n - 1} {
		stop := make(chan struct{})
		var delivered atomic.Int64
		w := &campaign.Work{
			Golden: g, Config: cfg, Factory: factory, Size: n, Next: finiteNext(n),
			Deliver: func(int, campaign.RunOutcome) error {
				if delivered.Add(1) == stopAt {
					close(stop)
				}
				return nil
			},
		}
		// One goroutine on the scalar engine, one replay a pull: the pool
		// meets the stop right after delivery stopAt.
		err := campaign.ReplayPool(1, stop, w)
		switch {
		case stopAt == n && err != nil:
			t.Errorf("stop after the last replay was delivered: ReplayPool = %v, want nil", err)
		case stopAt < n && !errors.Is(err, campaign.ErrInterrupted):
			t.Errorf("stop with a replay unissued: ReplayPool = %v, want ErrInterrupted", err)
		}
		if got := delivered.Load(); got != stopAt {
			t.Errorf("stop at %d: %d replays delivered", stopAt, got)
		}
	}
	waitNoLeak(t, base)
}
