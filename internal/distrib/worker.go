package distrib

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// WorkerOptions parameterises a pull-based worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://host:9090").
	Coordinator string

	// ID names this worker in leases and logs (default "host-pid").
	ID string

	// Workers bounds parallel replays within one shard (0 selects
	// GOMAXPROCS).
	Workers int

	// Poll is the idle re-poll interval when the coordinator has no
	// work (0 selects 500ms).
	Poll time.Duration

	// HTTP overrides the transport (tests); nil uses a default client.
	HTTP *http.Client

	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)

	// ReqLog, when non-nil, receives one line per coordinator HTTP
	// round trip (method, path, status, duration) — the worker-side
	// access log faultsimd wires to slog at debug level. Status 0
	// reports a transport failure.
	ReqLog func(method, path string, status int, d time.Duration)
}

// Worker is the fleet side of a distributed campaign: it pulls unit
// leases from the coordinator, naming the golden runs it holds,
// prepares (and caches) the members' golden artifacts locally, verifies
// the coordinator's golden fingerprint — refusing to contribute
// outcomes from a skewed golden run — replays the lease's planned
// injections, and posts the classifications back while heartbeating the
// lease.
type Worker struct {
	opt  WorkerOptions
	api  jsonAPI
	logf func(string, ...any)

	goldens goldenCache
}

// NewWorker builds a worker engine.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opt.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opt.Poll <= 0 {
		opt.Poll = 500 * time.Millisecond
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	hc := opt.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	api := jsonAPI{
		http: hc, base: opt.Coordinator, attempts: retryAttempts,
		reqLog: opt.ReqLog, retries: obsWorkerHTTPRetries,
	}
	return &Worker{opt: opt, api: api, logf: logf}
}

// Run pulls and executes leases until ctx is cancelled. Transient
// coordinator errors (connection refused during startup, restarts) are
// retried at the poll interval rather than surfaced: a fleet must
// outlive its coordinator's hiccups.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		worked, err := w.once(ctx)
		if err != nil && ctx.Err() == nil {
			w.logf("distrib worker %s: %v", w.opt.ID, err)
		}
		if worked && err == nil {
			continue // drain available work without idling
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.opt.Poll):
		}
	}
}

// once performs one lease cycle, reporting whether a shard was
// executed.
func (w *Worker) once(ctx context.Context) (bool, error) {
	lease, err := w.pullLease(ctx)
	if err != nil || lease == nil {
		return false, err
	}
	if lease.API != APIVersion {
		return false, fmt.Errorf("lease API v%d, worker v%d", lease.API, APIVersion)
	}

	batch := OutcomeBatch{Lease: lease.ID, Worker: w.opt.ID}
	shardStart := time.Now()
	outs, err := w.executeShard(ctx, lease)
	if err != nil {
		batch.Error = err.Error()
	} else {
		batch.Outcomes = outs
		obsWorkerShards.Inc()
		obsWorkerShardSeconds.Observe(time.Since(shardStart).Seconds())
	}
	if err := w.postOutcomes(ctx, batch); err != nil {
		return true, err
	}
	if batch.Error != "" {
		return true, fmt.Errorf("shard %s: %s", lease.ID, batch.Error)
	}
	return true, nil
}

// executeShard prepares the golden artifacts the lease's members share,
// verifies golden identity, and runs the lease's jobs through the
// campaign replay pool, one Work per member — the engine is whichever
// one each member's config selects — heartbeating the lease while it
// works. Anything wrong with the lease itself comes back as an error
// for the coordinator, never as a panic: its fields arrive off the
// wire.
func (w *Worker) executeShard(ctx context.Context, lease *Lease) ([]WireOutcome, error) {
	jobs := lease.Jobs
	if len(jobs) == 0 {
		return nil, fmt.Errorf("lease %s carries no jobs", lease.ID)
	}
	// The pool sees each member's jobs by their lease slots, which double
	// as the replay indices, so an outcome lands at its job's slot
	// whatever order the engine finishes them in.
	seen := make(map[[2]int]bool, len(jobs))
	slots := make([][]int, len(lease.Members))
	for i, j := range jobs {
		if j.Member < 0 || j.Member >= len(lease.Members) {
			return nil, fmt.Errorf("lease %s: job names member %d of %d", lease.ID, j.Member, len(lease.Members))
		}
		if seen[[2]int{j.Member, j.Index}] {
			return nil, fmt.Errorf("lease %s lists fault index %d of member %d twice", lease.ID, j.Index, j.Member)
		}
		seen[[2]int{j.Member, j.Index}] = true
		slots[j.Member] = append(slots[j.Member], i)
	}

	// The members share one local run of their simulator, recorded with
	// the union of their needs, exactly as the coordinator and the sweep
	// scheduler share theirs. Every member replays against that run, on
	// one simulator factory, so the pool fuses the members that ride
	// lanes into one walk.
	var need campaign.GoldenOptions
	for mi, m := range lease.Members {
		if keyOf(m.Spec) != keyOf(lease.Members[0].Spec) {
			return nil, fmt.Errorf("lease %s: member %d needs another golden run than member 0", lease.ID, mi)
		}
		need = need.Merge(needOf(m.Spec))
	}
	start := time.Now()
	entry, fresh, err := w.goldens.get(lease.Members[0].Spec, need, 1)
	if err != nil {
		return nil, err
	}
	defer w.goldens.release(entry)
	if fresh {
		w.logf("distrib worker %s: prepared golden %s/%s", w.opt.ID, entry.key.workload, entry.key.model)
		obsWorkerGoldenSeconds.Observe(time.Since(start).Seconds())
	}
	if entry.fp != lease.GoldenFP {
		obsWorkerFPRefusals.Inc()
		return nil, fmt.Errorf("golden fingerprint mismatch (worker %016x, coordinator %016x): version or workload skew", entry.fp, lease.GoldenFP)
	}
	factory := entry.factory()
	out := make([]WireOutcome, len(jobs))
	deliver := func(i int, oc campaign.RunOutcome) error {
		out[i] = WireOutcome{
			Member: jobs[i].Member, Index: jobs[i].Index, Class: int(oc.Class),
			EndCycle: oc.EndCycle, Converged: oc.Converged,
		}
		return nil
	}
	work := make([]*campaign.Work, len(lease.Members))
	for mi, m := range lease.Members {
		mine, k := slots[mi], 0
		work[mi] = &campaign.Work{
			Golden: entry.g, Config: m.Spec.Config, Factory: factory, Deliver: deliver,
			// A lease is a finite, cycle-contiguous source: Size makes the
			// pool split it evenly, so each goroutine's engine walks one
			// contiguous stretch of the golden timeline.
			Size: len(mine),
			Next: func() (int, fault.Spec, bool) {
				if k >= len(mine) {
					return 0, fault.Spec{}, false
				}
				k++
				return mine[k-1], jobs[mine[k-1]].Spec, true
			},
		}
	}

	// Heartbeat for as long as the replays run. The shard context also
	// aborts when a heartbeat learns the lease is gone (expired and
	// re-issued under us): finishing a disowned shard would burn
	// simulation time on a batch the coordinator will drop anyway.
	shardCtx, cancelShard := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := max(time.Duration(lease.TTLMillis)*time.Millisecond/3, 50*time.Millisecond)
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-time.After(interval):
				err := w.heartbeat(shardCtx, lease.ID)
				switch {
				case errors.Is(err, ErrGone):
					w.logf("distrib worker %s: lease %s re-issued under us; aborting shard", w.opt.ID, lease.ID)
					cancelShard()
					return
				case err != nil && shardCtx.Err() == nil:
					w.logf("distrib worker %s: heartbeat %s: %v", w.opt.ID, lease.ID, err)
				}
			}
		}
	}()
	defer func() {
		cancelShard()
		hbWG.Wait()
	}()

	err = campaign.ReplayPool(min(w.opt.Workers, len(jobs)), shardCtx.Done(), work...)
	switch {
	case err != nil && !errors.Is(err, campaign.ErrInterrupted):
		return nil, err
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case shardCtx.Err() != nil:
		return nil, fmt.Errorf("lease %s expired under us; shard aborted", lease.ID)
	}
	return out, nil
}

// factory hands the pool this golden's warmed simulators first and
// builds the shortfall, so simulators are reused across leases whatever
// engine each lease selects. Leases execute one at a time; the lock
// only orders one pool's goroutines.
func (e *goldenEntry) factory() campaign.Factory {
	var mu sync.Mutex
	used := 0
	return func() (campaign.Simulator, error) {
		mu.Lock()
		defer mu.Unlock()
		if used == len(e.sims) {
			sim, err := e.build()
			if err != nil {
				return nil, err
			}
			e.sims = append(e.sims, sim)
		}
		used++
		return e.sims[used-1], nil
	}
}

// ---------------------------------------------------------- transport

func (w *Worker) pullLease(ctx context.Context) (*Lease, error) {
	req := LeaseRequest{API: APIVersion, Worker: w.opt.ID, Golden: w.goldens.held()}
	var lease Lease
	code, err := w.api.call(ctx, http.MethodPost, "/api/v1/lease", req, &lease)
	if err != nil || code == http.StatusNoContent {
		return nil, err
	}
	return &lease, nil
}

// heartbeat extends the lease, mapping the coordinator's 410 onto
// ErrGone so the shard executor can abort disowned work.
func (w *Worker) heartbeat(ctx context.Context, leaseID string) error {
	code, err := w.api.call(ctx, http.MethodPost, "/api/v1/heartbeat", HeartbeatRequest{Worker: w.opt.ID, Lease: leaseID}, nil)
	if code == http.StatusGone {
		return ErrGone
	}
	return err
}

// postOutcomes delivers a batch, tolerating a re-issued lease: a 410
// means the coordinator presumed this worker dead and handed the shard
// elsewhere, so the batch is redundant, not wrong.
func (w *Worker) postOutcomes(ctx context.Context, batch OutcomeBatch) error {
	code, err := w.api.call(ctx, http.MethodPost, "/api/v1/outcomes", batch, nil)
	if code == http.StatusGone {
		w.logf("distrib worker %s: lease %s re-issued under us; dropping batch", w.opt.ID, batch.Lease)
		return nil
	}
	return err
}
