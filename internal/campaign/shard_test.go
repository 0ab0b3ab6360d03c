package campaign_test

// The shard-execution API's determinism contract: a campaign driven by
// hand through Planned.NextReplay/Deliver — in any delivery order, with
// replays executed by a "remote" simulator instance — must produce a
// Result identical to campaign.Run's, because the distributed
// coordinator is exactly such a driver.
//
// Reverse-order delivery from a one-worker ReplayPool is the oracle
// harness's manual host (internal/core, TestManualDispatchMatchesOracle).

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

func factoryFor(t *testing.T, workload string, m core.Model) campaign.Factory {
	t.Helper()
	it, err := core.Standalone(workload, m, core.CampaignSetup(), campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return it.Campaign.Factory
}

// TestSweepStopInterrupts: a fired Stop channel makes Sweep drain,
// flush its checkpoint shards and return ErrInterrupted; a later sweep
// over the same matrix and directory completes the work.
func TestSweepStopInterrupts(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 30, Seed: 4, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 1_000,
	}
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	matrix := []campaign.SweepCampaign{{Key: "k", Group: "g", Factory: fac, Config: cfg}}

	stop := make(chan struct{})
	close(stop) // interrupt before the first replay is even issued
	_, err := campaign.Sweep(matrix, campaign.SweepOptions{
		Workers: 2, CheckpointDir: dir, Stop: stop,
	})
	if !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("Sweep error = %v, want ErrInterrupted", err)
	}

	sr := mustSweep(t, matrix, campaign.SweepOptions{Workers: 2, CheckpointDir: dir})
	if got := len(sr.Results["k"].Outcomes); got != cfg.Injections {
		t.Fatalf("resumed sweep produced %d outcomes, want %d", got, cfg.Injections)
	}
}

// TestPlannedGoldenIsReadOnly: planning only reads a prepared golden
// run, so campaigns of one simulator may plan against it at once, as
// the coordinator's preparation loops do. Every mode classifies the
// whole plan against the lifetime trace inside PlanCampaign — dead and
// class pruning both through the pruner's role table, AVF through its
// ACE verdicts — so a query that wrote to the trace (a lazily built
// index, say) would race here. Run under -race; a fresh golden per mode
// makes each mode's first queries the concurrent ones.
func TestPlannedGoldenIsReadOnly(t *testing.T) {
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	for _, tc := range []struct {
		name string
		cfg  campaign.Config
	}{
		{"dead", campaign.Config{Prune: campaign.PruneDead}},
		{"classes", campaign.Config{Prune: campaign.PruneClasses}},
		{"avf", campaign.Config{AVF: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := campaign.PrepareGolden(fac, campaign.GoldenOptions{Lifetime: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Injections, cfg.Seed, cfg.Target, cfg.Window = 40, 9, fault.TargetRF, 1_000
			errs := make(chan error, 2)
			for range 2 {
				go func() {
					_, err := g.PlanCampaign(cfg)
					errs <- err
				}()
			}
			for range 2 {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestPlannedCheckpointResume: a campaign half replayed by hand and
// checkpointed resumes that half in a fresh Planned and dispatches only
// the tail, through the replay pool, to the uninterrupted result. While
// the pool runs, other goroutines read the plan through Planned.Spec,
// as a coordinator's handlers do when rebuilding remote outcomes; Spec
// takes no lock, so under -race this checks that nothing writes the
// plan after PlanCampaign.
func TestPlannedCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 50, Seed: 17, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
	}
	fac := factoryFor(t, "qsort", core.ModelMicroarch)
	want := mustRun(t, fac, cfg)
	g, err := campaign.PrepareGolden(fac, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}

	// First "coordinator": replays half the plan, then "crashes"
	// (checkpoint closed, state dropped).
	p1, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.OpenCheckpoint(dir, "camp"); err != nil {
		t.Fatal(err)
	}
	sim, err := fac()
	if err != nil {
		t.Fatal(err)
	}
	half := cfg.Injections / 2
	for i := 0; i < half; i++ {
		idx, spec, ok := p1.NextReplay()
		if !ok {
			t.Fatalf("plan ran dry at %d", i)
		}
		oc, err := g.ReplayOne(sim, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p1.Deliver(idx, oc); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Restarted coordinator: same campaign key resumes the delivered
	// prefix and only dispatches the tail.
	p2, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.OpenCheckpoint(dir, "camp"); err != nil {
		t.Fatal(err)
	}
	if got := p2.Resumed(); got != half {
		t.Fatalf("resumed %d outcomes, want %d", got, half)
	}
	plan, err := g.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rest atomic.Int32
	w := &campaign.Work{
		Name: "camp", Golden: g, Config: p2.Config(), Factory: fac, Size: cfg.Injections,
		Next: func() (int, fault.Spec, bool) {
			idx, spec, ok := p2.NextReplay()
			if ok {
				rest.Add(1)
			}
			return idx, spec, ok
		},
		Deliver: p2.Deliver,
	}
	done := make(chan struct{})
	readers := make(chan error, 2)
	for range 2 {
		go func() {
			for {
				for i, want := range plan {
					if got := p2.Spec(i); got != want {
						readers <- fmt.Errorf("Spec(%d) = %+v during dispatch, want %+v", i, got, want)
						return
					}
				}
				select {
				case <-done:
					readers <- nil
					return
				default:
				}
			}
		}()
	}
	err = campaign.ReplayPool(2, nil, w)
	close(done)
	for range 2 {
		if rerr := <-readers; rerr != nil {
			t.Error(rerr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if rest := int(rest.Load()); rest != cfg.Injections-half {
		t.Fatalf("resumed run dispatched %d replays, want %d", rest, cfg.Injections-half)
	}
	if err := p2.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	want.Account = campaign.Account{}
	got.Account = campaign.Account{}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint-resumed result diverged:\n got %+v\nwant %+v", got, want)
	}
}
