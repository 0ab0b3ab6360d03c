package campaign_test

// The shard-execution API's determinism contract: a campaign driven by
// hand through Planned.NextReplay/Deliver — in any delivery order, with
// replays executed by a "remote" simulator instance — must produce a
// Result identical to campaign.Run's, because the distributed
// coordinator is exactly such a driver.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

func factoryFor(t *testing.T, workload string, m core.Model) campaign.Factory {
	t.Helper()
	c, err := core.Standalone(workload, m, core.CampaignSetup(), campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c.Factory
}

// normalizeResult clears the fields that legitimately differ between
// two executions of the same campaign: wall time, pool size, and the
// lane accounting, which follows how the pool happened to chunk the plan
// (and is absent when replays were resumed or driven one by one).
func normalizeResult(r *campaign.Result) {
	r.Elapsed = 0
	r.AvgSecPerRun = 0
	r.GoldenElapsed = 0
	r.Config.Workers = 0
	r.BatchedRuns, r.PeeledRuns, r.LaneOccupancy = 0, 0, 0
}

// normalizeEngine clears, beyond normalizeResult, what legitimately
// differs between two engines executing one campaign: the config knobs
// that select the engine and each engine's account of the golden
// cycles it walked.
func normalizeEngine(r *campaign.Result) {
	normalizeResult(r)
	r.Config.Lanes, r.Config.Sched = 0, 0
	r.FastForwardCycles, r.FastForwardSaved = 0, 0
}

// driveManually executes a planned campaign by hand: pull every replay
// job, execute each against a fresh simulator, deliver the outcomes in
// REVERSE order (the collector must not care), and aggregate.
func driveManually(t *testing.T, fac campaign.Factory, cfg campaign.Config) *campaign.Result {
	t.Helper()
	g, err := campaign.PrepareGolden(fac, campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.PlanCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		idx  int
		spec fault.Spec
	}
	var jobs []job
	for {
		idx, spec, ok := p.NextReplay()
		if !ok {
			break
		}
		jobs = append(jobs, job{idx, spec})
	}
	sim, err := fac()
	if err != nil {
		t.Fatal(err)
	}
	ocs := make([]campaign.RunOutcome, len(jobs))
	for i, j := range jobs {
		if ocs[i], err = g.ReplayOne(sim, j.spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		if err := p.Deliver(jobs[i].idx, ocs[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPlannedManualDispatchMatchesRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  campaign.Config
	}{
		{"baseline-rf", campaign.Config{
			Injections: 60, Seed: 7, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
		}},
		{"seqstop", campaign.Config{
			Injections: 120, Seed: 9, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
			TargetError: 0.12, MinRuns: 20, Confidence: 0.95,
		}},
		{"prune-dead-l1d", campaign.Config{
			Injections: 60, Seed: 11, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: 500, Workers: 4,
			Prune: campaign.PruneDead,
		}},
		{"prune-classes-earlystop", campaign.Config{
			Injections: 60, Seed: 13, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: 500, Workers: 4,
			Prune: campaign.PruneClasses, EarlyStop: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fac := factoryFor(t, "qsort", core.ModelMicroarch)
			want := mustRun(t, fac, tc.cfg)
			got := driveManually(t, fac, tc.cfg)
			normalizeResult(want)
			normalizeResult(got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("manual shard dispatch diverged from Run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
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
	rest := 0
	for {
		idx, spec, ok := p2.NextReplay()
		if !ok {
			break
		}
		rest++
		oc, err := g.ReplayOne(sim, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p2.Deliver(idx, oc); err != nil {
			t.Fatal(err)
		}
	}
	if rest != cfg.Injections-half {
		t.Fatalf("resumed run dispatched %d replays, want %d", rest, cfg.Injections-half)
	}
	if err := p2.CloseCheckpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := p2.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	normalizeResult(want)
	normalizeResult(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint-resumed result diverged:\n got %+v\nwant %+v", got, want)
	}
}
