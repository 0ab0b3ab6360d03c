package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Coordinator defaults.
const (
	defaultLeaseTTL      = 15 * time.Second
	defaultShardSize     = 64
	defaultMaxShardFails = 5
	submitQueueDepth     = 256
	maxPrepWorkers       = 4

	// cursorLookahead is how many shards' worth of jobs fillShardLocked
	// pulls at once for a cursor-scheduled campaign, so the cycle sort
	// has enough material to slice cycle-contiguous shards from.
	cursorLookahead = 4
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrGone reports an unknown or expired lease: its shard was
	// re-issued and the poster's outcomes are discarded (duplicates are
	// harmless, but the coordinator no longer owes this worker
	// anything).
	ErrGone = errors.New("distrib: lease unknown or expired")
	// ErrNotReady reports a report request against a campaign that has
	// not finished.
	ErrNotReady = errors.New("distrib: campaign not finished")
	// ErrNotFound reports an unknown campaign ID.
	ErrNotFound = errors.New("distrib: campaign not found")
	// ErrBusy reports a full submission queue.
	ErrBusy = errors.New("distrib: submission queue full")
)

// CoordinatorOptions parameterises a coordinator.
type CoordinatorOptions struct {
	// CheckpointDir enables durable outcome streaming: every replayed
	// outcome is appended to a per-campaign JSONL shard, and a
	// restarted coordinator that receives the same campaign submission
	// resumes from the shards instead of re-dispatching finished work.
	// Empty disables durability.
	CheckpointDir string

	// LeaseTTL is how long a worker may hold a shard without
	// heartbeating before it is presumed dead and the shard re-issued
	// (0 selects 15s).
	LeaseTTL time.Duration

	// ShardSize is the number of replay jobs per lease (0 selects 64).
	ShardSize int

	// MaxShardFails bounds how often one shard may be re-issued after
	// worker failures before the campaign is failed (0 selects 5) — a
	// shard that kills every worker it meets must surface, not loop.
	MaxShardFails int

	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)

	// Journal, when non-nil, receives the structured campaign event
	// stream (submitted, golden-ready, shard-leased, shard-done,
	// stop-fired, result-merged) as JSONL.
	Journal *obs.Journal
}

// Coordinator owns the service side of a distributed campaign: it
// accepts submissions, prepares golden artifacts and fault plans in a
// small background worker pool — distinct golden shapes prepare
// concurrently, while campaigns with identical golden needs
// single-flight onto one shared run — splits plans into shards, leases
// shards to pulling workers, merges outcome batches in fault-index
// order through the campaign engine's own collector, and serves
// progress and final reports.
type Coordinator struct {
	opt  CoordinatorOptions
	logf func(string, ...any)

	mu        sync.Mutex
	campaigns map[string]*campState
	order     []string
	leases    map[string]*activeLease
	leaseSeq  int

	// Completed-lease round-trip accounting behind the average-latency
	// gauge; latN guards the division until a first lease completes.
	latSum time.Duration
	latN   int

	prepCh  chan *campState
	goldens goldenCache
	closed  chan struct{}
	wg      sync.WaitGroup
}

// shardEntry is a queued (or re-queued) shard with its failure count.
type shardEntry struct {
	jobs  []Job
	fails int
}

// activeLease is one shard out with one worker.
type activeLease struct {
	id       string
	campID   string
	shard    shardEntry
	worker   string
	issuedAt time.Time
	deadline time.Time
}

// campState is one campaign's coordinator-side lifecycle.
type campState struct {
	id     string
	spec   CampaignSpec
	status string
	errMsg string

	planned      *campaign.Planned
	goldenFP     uint64
	goldenCycles uint64

	// The engine state Progress serves once planned is released; while
	// it is live, Progress reads planned itself.
	delivered  int
	resumed    int
	stopped    bool
	stopLogged bool // stop-fired journal event emitted

	queue    []shardEntry
	leased   int
	replayed int
	result   *campaign.Result
	start    time.Time
	elapsed  time.Duration // frozen at completion
}

// NewCoordinator builds and starts a coordinator engine. Close releases
// it.
func NewCoordinator(opt CoordinatorOptions) *Coordinator {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = defaultLeaseTTL
	}
	if opt.ShardSize <= 0 {
		opt.ShardSize = defaultShardSize
	}
	if opt.MaxShardFails <= 0 {
		opt.MaxShardFails = defaultMaxShardFails
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		opt:       opt,
		logf:      logf,
		campaigns: make(map[string]*campState),
		leases:    make(map[string]*activeLease),
		prepCh:    make(chan *campState, submitQueueDepth),
		goldens:   goldenCache{evictions: obsGoldenEvictions},
		closed:    make(chan struct{}),
	}
	// Golden runs dominate preparation and distinct shapes are
	// independent, so a small pool preps them concurrently; identical
	// shapes still share one run through the golden cache's single-flight.
	// One P stays free of golden runs: they are pure compute that never
	// enters the runtime (the microarch kernel does not allocate), so a
	// pool as wide as GOMAXPROCS left the API's goroutines waiting ~10 ms
	// per network hop for sysmon to poll and preempt on their behalf.
	prep := min(max(1, runtime.GOMAXPROCS(0)-1), maxPrepWorkers)
	c.wg.Add(prep)
	for i := 0; i < prep; i++ {
		go c.prepLoop()
	}
	return c
}

// Close stops the preparation loop and flushes every open campaign
// checkpoint, so a restart resumes from durable state.
func (c *Coordinator) Close() error {
	close(c.closed)
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, cs := range c.campaigns {
		if cs.planned == nil {
			continue
		}
		if err := cs.planned.CloseCheckpoint(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// journal emits one event to the configured journal (nil-safe).
func (c *Coordinator) journal(e obs.Event) { c.opt.Journal.Emit(e) }

// specID derives the deterministic campaign ID of a normalised spec:
// identical campaigns — across submissions and coordinator restarts —
// share an ID, which is what lets checkpoint resume work without any
// client-side bookkeeping.
func specID(spec CampaignSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// CampaignSpec is marshalable by construction (plain values).
		panic(fmt.Sprintf("distrib: spec marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("c%016x", h.Sum64())
}

// Submit registers a campaign (idempotently: an identical spec returns
// the existing campaign) and queues its golden/plan preparation.
func (c *Coordinator) Submit(spec CampaignSpec) (SubmitResponse, error) {
	if err := spec.normalize(); err != nil {
		return SubmitResponse{}, err
	}
	if _, err := spec.factory(); err != nil {
		return SubmitResponse{}, err
	}
	id := specID(spec)
	c.mu.Lock()
	if cs, ok := c.campaigns[id]; ok {
		resp := SubmitResponse{ID: id, Status: cs.status}
		c.mu.Unlock()
		return resp, nil
	}
	// Register and enqueue atomically: the non-blocking send decides
	// admission while the lock is still held, so a full queue never
	// has to roll back state a concurrent submission may have built on.
	cs := &campState{id: id, spec: spec, status: StatusPreparing}
	select {
	case c.prepCh <- cs:
		c.campaigns[id] = cs
		c.order = append(c.order, id)
		c.mu.Unlock()
	default:
		c.mu.Unlock()
		return SubmitResponse{}, ErrBusy
	}
	c.logf("distrib: campaign %s submitted (%s/%s, n=%d)", id, spec.Workload, spec.Model, spec.Config.Injections)
	obsCampaignsSubmitted.Inc()
	c.journal(obs.Event{
		Event: obs.EvSubmitted, Campaign: id,
		Workload: spec.Workload, Model: spec.Model, N: spec.Config.Injections,
	})
	return SubmitResponse{ID: id, Status: StatusPreparing}, nil
}

// prepLoop drains the submission queue; several instances run
// concurrently, so distinct golden shapes prepare in parallel while
// the golden cache single-flights identical shapes onto one run.
func (c *Coordinator) prepLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closed:
			return
		case cs := <-c.prepCh:
			c.prepare(cs)
		}
	}
}

// prepare executes one campaign's golden-artifact phase and planning.
func (c *Coordinator) prepare(cs *campState) {
	fail := func(err error) {
		c.logf("distrib: campaign %s failed to prepare: %v", cs.id, err)
		c.mu.Lock()
		cs.status = StatusFailed
		cs.errMsg = err.Error()
		c.mu.Unlock()
	}
	e, fresh, err := c.goldens.get(cs.spec)
	if fresh {
		obsGoldenMisses.Inc()
	} else {
		obsGoldenHits.Inc()
	}
	if err != nil {
		fail(err)
		return
	}
	g := e.g
	planned, err := g.PlanCampaign(cs.spec.Config)
	if err != nil {
		fail(err)
		return
	}
	if c.opt.CheckpointDir != "" {
		if err := planned.OpenCheckpoint(c.opt.CheckpointDir, cs.id); err != nil {
			fail(err)
			return
		}
	}
	c.mu.Lock()
	cs.planned = planned
	cs.goldenFP = g.Fingerprint()
	cs.goldenCycles = g.Cycles
	cs.status = StatusRunning
	cs.start = time.Now()
	c.maybeFinishLocked(cs) // a fully checkpointed campaign needs no worker
	c.mu.Unlock()
	c.logf("distrib: campaign %s running (golden %d cycles, %d resumed)", cs.id, g.Cycles, planned.Resumed())
	c.journal(obs.Event{
		Event: obs.EvGoldenReady, Campaign: cs.id,
		Workload: cs.spec.Workload, Model: cs.spec.Model, N: planned.Resumed(),
		Detail: fmt.Sprintf("golden %d cycles", g.Cycles),
	})
}

// Lease hands the next available shard to a pulling worker, or reports
// none available. Expired leases are reclaimed first, so a dead
// worker's shard goes to the next puller.
func (c *Coordinator) Lease(req LeaseRequest) (*Lease, error) {
	if req.API != 0 && req.API != APIVersion {
		return nil, fmt.Errorf("distrib: worker API v%d, coordinator v%d", req.API, APIVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	for _, id := range c.order {
		cs := c.campaigns[id]
		if cs.status != StatusRunning {
			continue
		}
		var se shardEntry
		if len(cs.queue) > 0 {
			se = cs.queue[0]
			cs.queue = cs.queue[1:]
		} else {
			jobs := c.fillShardLocked(cs)
			if len(jobs) == 0 {
				c.maybeFinishLocked(cs)
				continue
			}
			se = shardEntry{jobs: jobs}
		}
		c.leaseSeq++
		now := time.Now()
		l := &activeLease{
			id:       fmt.Sprintf("l%06d", c.leaseSeq),
			campID:   cs.id,
			shard:    se,
			worker:   req.Worker,
			issuedAt: now,
			deadline: now.Add(c.opt.LeaseTTL),
		}
		c.leases[l.id] = l
		cs.leased++
		obsLeasesIssued.Inc()
		c.journal(obs.Event{
			Event: obs.EvShardLeased, Campaign: cs.id,
			Shard: l.id, Worker: req.Worker, N: len(se.jobs),
		})
		return &Lease{
			API: APIVersion, ID: l.id, CampaignID: cs.id, Spec: cs.spec,
			GoldenFP: cs.goldenFP, Jobs: se.jobs,
			TTLMillis: c.opt.LeaseTTL.Milliseconds(),
		}, nil
	}
	return nil, nil
}

// fillShardLocked pulls up to ShardSize replay jobs from the campaign's
// producer. Pruning-resolved indices never become jobs — their
// synthetic outcomes are delivered inside NextReplay, exactly as in the
// single-process dispatch loop. For a cursor-scheduled campaign it
// pulls several shards' worth at once, sorts by injection cycle and
// slices cycle-contiguous shards (extras queue immediately), so each
// worker's golden cursor walks a compact cycle span instead of the
// plan's random one. Shard composition changes nothing downstream: the
// coordinator's collector consumes outcomes in plan order regardless.
func (c *Coordinator) fillShardLocked(cs *campState) []Job {
	pull := c.opt.ShardSize
	cursor := cs.spec.Config.Sched == campaign.SchedCursor
	if cursor {
		pull *= cursorLookahead
	}
	var jobs []Job
	for len(jobs) < pull {
		idx, spec, ok := cs.planned.NextReplay()
		if !ok {
			break
		}
		jobs = append(jobs, Job{Index: idx, Spec: spec})
	}
	if cursor && len(jobs) > 1 {
		sort.Slice(jobs, func(i, j int) bool {
			if jobs[i].Spec.Cycle != jobs[j].Spec.Cycle {
				return jobs[i].Spec.Cycle < jobs[j].Spec.Cycle
			}
			return jobs[i].Index < jobs[j].Index
		})
		if len(jobs) > c.opt.ShardSize {
			rest := jobs[c.opt.ShardSize:]
			jobs = jobs[:c.opt.ShardSize:c.opt.ShardSize]
			for len(rest) > 0 {
				n := c.opt.ShardSize
				if n > len(rest) {
					n = len(rest)
				}
				cs.queue = append(cs.queue, shardEntry{jobs: rest[:n:n]})
				rest = rest[n:]
			}
		}
	}
	return jobs
}

// Heartbeat extends a live lease.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	l, ok := c.leases[req.Lease]
	if !ok {
		return ErrGone
	}
	l.deadline = time.Now().Add(c.opt.LeaseTTL)
	return nil
}

// Outcomes completes (or fails) a lease. Outcomes are merged through
// the campaign collector in whatever order batches arrive; the
// collector itself only ever consumes them in fault-index order, which
// is what keeps sequential stopping and pruning extrapolation
// byte-identical to single-process execution.
func (c *Coordinator) Outcomes(batch OutcomeBatch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	obsOutcomeBatches.Inc()
	l, ok := c.leases[batch.Lease]
	if !ok {
		return ErrGone
	}
	delete(c.leases, batch.Lease)
	cs := c.campaigns[l.campID]
	cs.leased--
	if cs.status != StatusRunning {
		return nil // campaign already failed; drop silently
	}
	if batch.Error != "" {
		c.logf("distrib: campaign %s: worker %s failed shard %s: %s", cs.id, l.worker, l.id, batch.Error)
		c.requeueLocked(cs, l.shard, batch.Error)
		return nil
	}
	var mergeStart time.Time
	if obs.Enabled() {
		mergeStart = time.Now()
	}
	byIdx := make(map[int]WireOutcome, len(batch.Outcomes))
	for _, oc := range batch.Outcomes {
		if !campaign.Class(oc.Class).Valid() {
			c.requeueLocked(cs, l.shard, fmt.Sprintf("shard %s: index %d: class %d out of range", l.id, oc.Index, oc.Class))
			return nil
		}
		byIdx[oc.Index] = oc
	}
	for _, j := range l.shard.jobs {
		oc, ok := byIdx[j.Index]
		if !ok {
			c.requeueLocked(cs, l.shard, fmt.Sprintf("shard %s: incomplete batch (missing index %d)", l.id, j.Index))
			return nil
		}
		ro := campaign.RunOutcome{
			Spec:      cs.planned.Spec(j.Index),
			Class:     campaign.Class(oc.Class),
			EndCycle:  oc.EndCycle,
			Converged: oc.Converged,
		}
		if err := cs.planned.Deliver(j.Index, ro); err != nil {
			// A checkpoint write failure breaks the durability the
			// campaign was promised; surface it terminally.
			c.failLocked(cs, err.Error())
			return nil
		}
		cs.replayed++
	}
	obsShardsDone.Inc()
	if !mergeStart.IsZero() {
		obsMergeSeconds.Observe(time.Since(mergeStart).Seconds())
	}
	// Lease round trip, issue to merge; the average gauge divides only
	// once at least one lease has completed.
	rtt := time.Since(l.issuedAt)
	obsLeaseLatency.Observe(rtt.Seconds())
	c.latSum += rtt
	c.latN++
	if c.latN > 0 {
		obsLeaseLatencyAvg.Set(c.latSum.Seconds() / float64(c.latN))
	}
	c.journal(obs.Event{
		Event: obs.EvShardDone, Campaign: cs.id,
		Shard: l.id, Worker: batch.Worker, N: len(l.shard.jobs),
	})
	if !cs.stopLogged && cs.planned.Stopped() {
		cs.stopLogged = true
		c.journal(obs.Event{
			Event: obs.EvStopFired, Campaign: cs.id, N: cs.planned.Delivered(),
			Detail: "sequential stopping margin reached",
		})
	}
	c.maybeFinishLocked(cs)
	return nil
}

// requeueLocked puts a failed shard back on its campaign's queue, or
// fails the campaign once the shard has burned its retry budget.
func (c *Coordinator) requeueLocked(cs *campState, se shardEntry, reason string) {
	se.fails++
	if se.fails >= c.opt.MaxShardFails {
		obsShardFailures.Inc()
		c.failLocked(cs, fmt.Sprintf("shard failed %d times: %s", se.fails, reason))
		return
	}
	obsShardRetries.Inc()
	cs.queue = append(cs.queue, se)
}

// failLocked terminates a campaign with an error.
func (c *Coordinator) failLocked(cs *campState, msg string) {
	cs.status = StatusFailed
	cs.errMsg = msg
	cs.queue = nil
	if cs.planned != nil {
		if err := cs.planned.CloseCheckpoint(); err != nil {
			c.logf("distrib: campaign %s: checkpoint close: %v", cs.id, err)
		}
	}
	releasePlanned(cs)
	obsCampaignsFailed.Inc()
	c.logf("distrib: campaign %s failed: %s", cs.id, msg)
}

// releasePlanned freezes the engine state Progress reports and drops
// the campaign's planning state (outcome arrays, pruner, golden
// reference): finished campaigns keep only their Result, so a
// long-lived coordinator's memory tracks live campaigns, not history.
func releasePlanned(cs *campState) {
	if p := cs.planned; p != nil {
		cs.delivered, cs.resumed, cs.stopped = p.Delivered(), p.Resumed(), p.Stopped()
	}
	cs.planned = nil
}

// maybeFinishLocked finalises a campaign once nothing is queued, leased
// or producible: the merge is complete, so the result aggregates
// exactly as campaign.Run would have aggregated it.
func (c *Coordinator) maybeFinishLocked(cs *campState) {
	if cs.status != StatusRunning || len(cs.queue) > 0 || cs.leased > 0 {
		return
	}
	jobs := c.fillShardLocked(cs)
	if len(jobs) > 0 {
		cs.queue = append(cs.queue, shardEntry{jobs: jobs})
		return
	}
	cs.elapsed = time.Since(cs.start)
	res, err := cs.planned.Result(cs.elapsed)
	if err != nil {
		c.failLocked(cs, err.Error())
		return
	}
	if err := cs.planned.CloseCheckpoint(); err != nil {
		c.failLocked(cs, err.Error())
		return
	}
	cs.result = res
	cs.status = StatusDone
	releasePlanned(cs)
	obsCampaignsDone.Inc()
	c.journal(obs.Event{
		Event: obs.EvResultMerged, Campaign: cs.id,
		Workload: cs.spec.Workload, Model: cs.spec.Model, N: cs.replayed,
	})
	c.logf("distrib: campaign %s done (%d replayed by workers, %d resumed, wall %.1fs)",
		cs.id, cs.replayed, cs.resumed, cs.elapsed.Seconds())
}

// expireLocked reclaims shards of leases whose worker stopped
// heartbeating — the re-issue path behind worker-death recovery.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		cs := c.campaigns[l.campID]
		cs.leased--
		if cs.status != StatusRunning {
			continue
		}
		obsLeasesExpired.Inc()
		c.logf("distrib: lease %s (worker %s) expired; re-issuing %d jobs", l.id, l.worker, len(l.shard.jobs))
		c.requeueLocked(cs, l.shard, "lease expired (worker presumed dead)")
	}
}

// Progress snapshots one campaign's live state. The poll path reads
// the collector's O(1) counters — it never walks the collector or pulls
// the producer, so polling costs the same no matter how large the
// campaign or how many clients watch it. (Completion is always
// triggered by the merge/lease/prepare paths themselves.)
func (c *Coordinator) Progress(id string) (Progress, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	cs, ok := c.campaigns[id]
	if !ok {
		return Progress{}, ErrNotFound
	}
	return c.progressLocked(cs), nil
}

func (c *Coordinator) progressLocked(cs *campState) Progress {
	p := Progress{
		ID: cs.id, Status: cs.status,
		Workload: cs.spec.Workload, Model: cs.spec.Model,
		Injections: cs.spec.Config.Injections,
		Queued:     len(cs.queue), Leased: cs.leased,
		Replayed: cs.replayed, Error: cs.errMsg,
		GoldenCycles: cs.goldenCycles,
		Delivered:    cs.delivered,
		Resumed:      cs.resumed,
		Stopped:      cs.stopped,
	}
	if pl := cs.planned; pl != nil {
		p.Delivered, p.Resumed, p.Stopped = pl.Delivered(), pl.Resumed(), pl.Stopped()
	}
	switch {
	case cs.status == StatusDone || cs.status == StatusFailed:
		p.ElapsedSecs = cs.elapsed.Seconds()
	case !cs.start.IsZero():
		p.ElapsedSecs = time.Since(cs.start).Seconds()
	}
	return p
}

// List snapshots every campaign in submission order.
func (c *Coordinator) List() []Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	out := make([]Progress, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.progressLocked(c.campaigns[id]))
	}
	return out
}

// Report returns a finished campaign's full result.
func (c *Coordinator) Report(id string) (*campaign.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cs, ok := c.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	if cs.status == StatusRunning {
		c.maybeFinishLocked(cs)
	}
	switch cs.status {
	case StatusDone:
		return cs.result, nil
	case StatusFailed:
		return nil, fmt.Errorf("distrib: campaign %s failed: %s", id, cs.errMsg)
	default:
		return nil, ErrNotReady
	}
}
