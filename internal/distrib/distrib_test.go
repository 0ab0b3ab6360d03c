package distrib_test

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/report"
)

func startCoordinator(t *testing.T, opt distrib.CoordinatorOptions) (*distrib.Coordinator, *httptest.Server) {
	t.Helper()
	c := distrib.NewCoordinator(opt)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := c.Close(); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
	})
	return c, srv
}

func startWorker(t *testing.T, url, id string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := distrib.NewWorker(distrib.WorkerOptions{
		Coordinator: url, ID: id, Workers: 2, Poll: 10 * time.Millisecond,
		Logf: t.Logf,
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// normalize clears the fields that legitimately differ between local
// and distributed execution of one campaign: wall time, the pool-size
// default, which is a per-process concern, and the lane accounting a
// fleet worker keeps to itself.
func normalize(r *campaign.Result) {
	r.Elapsed = 0
	r.AvgSecPerRun = 0
	r.GoldenElapsed = 0
	r.Config.Workers = 0
	r.BatchedRuns, r.PeeledRuns, r.LaneOccupancy = 0, 0, 0
}

// TestDistributedMatchesSingleProcess is the acceptance test: one
// campaign distributed over two worker engines — one of which is
// killed mid-run, forcing lease expiry and shard re-issue — must
// produce classification counts, outcomes and report tables
// byte-identical to campaign.Run with the same seed.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg := campaign.Config{
		Injections: 90, Seed: 21, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
	}
	want, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, srv := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: 300 * time.Millisecond, ShardSize: 8, Logf: t.Logf,
	})
	killW1 := startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")

	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond
	id, err := client.Submit(distrib.CampaignSpec{
		Workload: "qsort", Model: "microarch", Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Resubmission of the identical spec must be idempotent.
	id2, err := client.Submit(distrib.CampaignSpec{
		Workload: "qsort", Model: "microarch", Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("resubmission created a new campaign: %s vs %s", id2, id)
	}

	// Kill worker 1 mid-run: as soon as replays are flowing, cancel it
	// (possibly mid-shard) so its lease expires and the shard is
	// re-issued to worker 2.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			p, err := client.Progress(id)
			if err == nil && (p.Replayed >= 8 || p.Status == distrib.StatusDone || p.Status == distrib.StatusFailed) {
				killW1()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	got, err := client.Wait(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-killed

	normalize(want)
	normalize(got)
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Errorf("classification counts diverged: got %v, want %v", got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("distributed result diverged from single-process:\n got %+v\nwant %+v", got, want)
	}
	// The rendered report table must be byte-identical too.
	if gr, wr := report.Campaign("qsort/microarch", got), report.Campaign("qsort/microarch", want); gr != wr {
		t.Errorf("report tables diverged:\n got:\n%s\nwant:\n%s", gr, wr)
	}
}

// TestDistributedAdaptiveEngines proves the accelerators compose with
// distribution: sequential stopping and golden-trace pruning give the
// same results over a two-worker fleet as single-process.
func TestDistributedAdaptiveEngines(t *testing.T) {
	cases := []struct {
		name string
		cfg  campaign.Config
	}{
		{"seqstop-earlystop", campaign.Config{
			Injections: 120, Seed: 5, Target: fault.TargetRF,
			Obs: campaign.ObsPinout, Window: 2_000, Workers: 4,
			EarlyStop: true, TargetError: 0.12, MinRuns: 20, Confidence: 0.95,
		}},
		{"prune-classes", campaign.Config{
			Injections: 60, Seed: 3, Target: fault.TargetL1D,
			Obs: campaign.ObsPinout, Window: 500, Workers: 4,
			Prune: campaign.PruneClasses,
		}},
	}
	_, srv := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 16, Logf: t.Logf,
	})
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.RunCampaign(distrib.CampaignSpec{
				Workload: "qsort", Model: "microarch", Config: tc.cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			normalize(want)
			normalize(got)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("distributed %s diverged:\n got %+v\nwant %+v", tc.name, got, want)
			}
		})
	}
}

// TestCoordinatorRestartResumes: with a checkpoint directory, a
// restarted coordinator that receives the same campaign submission
// finishes it from the durable shards alone — no worker needed — and
// reports the same result.
func TestCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 40, Seed: 8, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 1_000,
	}
	spec := distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Config: cfg}

	_, srv1 := startCoordinator(t, distrib.CoordinatorOptions{
		CheckpointDir: dir, ShardSize: 8, Logf: t.Logf,
	})
	startWorker(t, srv1.URL, "w1")
	client1 := distrib.NewClient(srv1.URL)
	client1.Poll = 20 * time.Millisecond
	id, err := client1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := client1.Wait(id, nil)
	if err != nil {
		t.Fatal(err)
	}

	// "Restarted" coordinator over the same checkpoint directory, with
	// NO workers: resubmission must resume every outcome and finish.
	_, srv2 := startCoordinator(t, distrib.CoordinatorOptions{
		CheckpointDir: dir, Logf: t.Logf,
	})
	client2 := distrib.NewClient(srv2.URL)
	client2.Poll = 20 * time.Millisecond
	id2, err := client2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("restart assigned a different campaign ID: %s vs %s", id2, id)
	}
	got, err := client2.Wait(id2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := client2.Progress(id2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Resumed == 0 {
		t.Error("restarted coordinator resumed nothing from the checkpoint shards")
	}
	if p.Replayed != 0 {
		t.Errorf("restarted coordinator re-executed %d replays despite full checkpoints", p.Replayed)
	}
	normalize(want)
	normalize(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed result diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLeaseExpiryReissues drives the coordinator engine directly: a
// leased shard whose worker never returns must be re-issued with the
// same jobs after the TTL.
func TestLeaseExpiryReissues(t *testing.T) {
	c, _ := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: 50 * time.Millisecond, ShardSize: 4,
	})
	cfg := campaign.Config{
		Injections: 12, Seed: 1, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	resp, err := c.Submit(distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for preparation to finish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		p, err := c.Progress(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p.Status == distrib.StatusRunning {
			break
		}
		if p.Status == distrib.StatusFailed || time.Now().After(deadline) {
			t.Fatalf("campaign never started running: %+v", p)
		}
		time.Sleep(10 * time.Millisecond)
	}
	l1, err := c.Lease(distrib.LeaseRequest{Worker: "dead-worker"})
	if err != nil || l1 == nil {
		t.Fatalf("first lease: %v %v", l1, err)
	}
	time.Sleep(80 * time.Millisecond) // let the lease expire unheartbeated
	l2, err := c.Lease(distrib.LeaseRequest{Worker: "live-worker"})
	if err != nil || l2 == nil {
		t.Fatalf("re-issue lease: %v %v", l2, err)
	}
	if !reflect.DeepEqual(l1.Jobs, l2.Jobs) {
		t.Errorf("re-issued lease carries different jobs:\n got %+v\nwant %+v", l2.Jobs, l1.Jobs)
	}
	if l2.ID == l1.ID {
		t.Error("re-issued lease kept the expired lease ID")
	}
	// The expired lease's late outcome post must be rejected.
	if err := c.Outcomes(distrib.OutcomeBatch{Lease: l1.ID, Worker: "dead-worker"}); err == nil {
		t.Error("outcome post against an expired lease succeeded")
	}
}

// submitRunning submits a small RF campaign to c and waits until its
// shards are leasable.
func submitRunning(t *testing.T, c *distrib.Coordinator) string {
	t.Helper()
	cfg := campaign.Config{
		Injections: 8, Seed: 2, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 500,
	}
	resp, err := c.Submit(distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		p, err := c.Progress(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if p.Status == distrib.StatusRunning {
			return resp.ID
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started: %+v", p)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardFailureBudget: a shard that keeps failing must fail the
// campaign instead of looping forever.
func TestShardFailureBudget(t *testing.T) {
	c, _ := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 4, MaxShardFails: 2,
	})
	id := submitRunning(t, c)
	for i := 0; i < 2; i++ {
		l, err := c.Lease(distrib.LeaseRequest{Worker: "flaky"})
		if err != nil || l == nil {
			t.Fatalf("lease %d: %v %v", i, l, err)
		}
		if err := c.Outcomes(distrib.OutcomeBatch{Lease: l.ID, Worker: "flaky", Error: "simulated crash"}); err != nil {
			t.Fatalf("error batch %d: %v", i, err)
		}
	}
	p, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.Status != distrib.StatusFailed {
		t.Fatalf("campaign status %q after exhausting the shard budget, want failed", p.Status)
	}
}

// TestOutOfRangeClassRequeues: a worker batch with an outcome whose
// class is missing (decoding to 0) or unknown is a failed shard —
// requeued against the retry budget — and none of its outcomes merge.
func TestOutOfRangeClassRequeues(t *testing.T) {
	c, _ := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 4, MaxShardFails: 2,
	})
	id := submitRunning(t, c)
	for i, class := range []int{0, 99} {
		l, err := c.Lease(distrib.LeaseRequest{Worker: "garbled"})
		if err != nil || l == nil {
			t.Fatalf("lease %d: %v %v", i, l, err)
		}
		outs := make([]distrib.WireOutcome, len(l.Jobs))
		for k, j := range l.Jobs {
			outs[k] = distrib.WireOutcome{Index: j.Index, Class: int(campaign.ClassMasked), EndCycle: j.Spec.Cycle + 1}
		}
		outs[len(outs)-1].Class = class
		if err := c.Outcomes(distrib.OutcomeBatch{Lease: l.ID, Worker: "garbled", Outcomes: outs}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		p, err := c.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Delivered != 0 {
			t.Fatalf("class %d: %d outcomes merged from a batch that should have been requeued", class, p.Delivered)
		}
	}
	if p, err := c.Progress(id); err != nil || p.Status != distrib.StatusFailed {
		t.Fatalf("campaign status %+v (%v) after two garbled batches, want failed", p, err)
	}
}

// TestSubmitRejectsBadSpecs: submission-time validation.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	c, _ := startCoordinator(t, distrib.CoordinatorOptions{})
	bad := []distrib.CampaignSpec{
		{Workload: "no-such-bench", Model: "microarch", Config: campaign.Config{Injections: 1, Target: fault.TargetRF}},
		{Workload: "qsort", Model: "no-such-model", Config: campaign.Config{Injections: 1, Target: fault.TargetRF}},
		{Workload: "qsort", Model: "microarch", Setup: "no-such-setup", Config: campaign.Config{Injections: 1, Target: fault.TargetRF}},
		{Workload: "qsort", Model: "microarch", Config: campaign.Config{Injections: 0, Target: fault.TargetRF}},
		{Workload: "qsort", Model: "microarch", Config: campaign.Config{Injections: 1, Target: fault.TargetRF, Obs: campaign.ObsSOP, Window: 5}},
	}
	for i, spec := range bad {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestDistributedCursorSchedMatchesLocal proves latch lanes survive
// distribution: an RTL latch campaign at default lanes rides every
// replay of each lease on a worker goroutine's golden walk (data-latch
// flips as diffs, the rest peeled on their first tick), and the merged
// result equals the local run field for field, the stream-order
// fast-forward estimate included.
func TestDistributedCursorSchedMatchesLocal(t *testing.T) {
	cfg := campaign.Config{
		Injections: 90, Seed: 21, Target: fault.TargetLatches,
		Obs: campaign.ObsPinout, Window: 500, Workers: 4,
	}
	want, err := core.RunCampaign("qsort", core.ModelRTL, core.CampaignSetup(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, srv := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 8, Logf: t.Logf,
	})
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond
	got, err := client.RunCampaign(distrib.CampaignSpec{
		Workload: "qsort", Model: "rtl", Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(want)
	normalize(got)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("distributed latch result diverged from the local run:\n got %+v\nwant %+v", got, want)
	}
}
