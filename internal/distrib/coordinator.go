package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
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
// small background worker pool — distinct simulators prepare
// concurrently, while the campaigns of one simulator single-flight onto
// one shared run and start together — splits plans
// into shards, leases the shards of campaigns sharing a golden run to
// pulling workers as one unit, merges outcome batches in fault-index
// order through the campaign engine's own collector, and serves
// progress and final reports.
type Coordinator struct {
	opt  CoordinatorOptions
	logf func(string, ...any)

	mu        sync.Mutex
	campaigns map[string]*campState
	order     []*campState // submission order
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

// shardEntry is a queued (or re-queued) shard of one campaign with its
// failure count.
type shardEntry struct {
	jobs  []Job
	fails int
}

// leasePart is one member campaign's shard within a lease.
type leasePart struct {
	cs    *campState
	shard shardEntry
}

// activeLease is one unit out with one worker: a shard of each member.
type activeLease struct {
	id       string
	parts    []leasePart
	worker   string
	issuedAt time.Time
	deadline time.Time
}

// campState is one campaign's coordinator-side lifecycle.
type campState struct {
	id     string
	spec   CampaignSpec
	key    goldenKey
	status string
	errMsg string

	claimed      bool         // a preparation has taken the campaign
	golden       *goldenEntry // pinned while the campaign is live
	planned      *campaign.Planned
	goldenCycles uint64

	// The engine state Progress serves once planned is released; while
	// it is live, Progress reads planned itself.
	delivered  int
	resumed    int
	stopped    bool
	stopLogged bool // stop-fired journal event emitted

	next     int  // plan index after the last one pulled
	drained  bool // the producer has nothing left to pull
	queue    []shardEntry
	leased   int
	replayed int
	result   *campaign.Result
	start    time.Time
	elapsed  time.Duration // frozen at completion
}

// cyclesLeft models the replay cycles the campaign still owes: its jobs
// not yet leased, each a window long, or a golden run long when it runs
// to the end.
func (cs *campState) cyclesLeft() uint64 {
	jobs := 0
	if !cs.drained {
		jobs = cs.spec.Config.Injections - cs.next
	}
	for _, se := range cs.queue {
		jobs += len(se.jobs)
	}
	if w := cs.spec.Config.Window; w > 0 {
		return uint64(jobs) * w
	}
	return uint64(jobs) * cs.goldenCycles
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
	// Golden runs dominate preparation and distinct simulators are
	// independent, so a small pool preps them concurrently; one
	// simulator's campaigns still share one run through the golden
	// cache's single-flight.
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
	b, _ := json.Marshal(spec) // plain values: marshalable by construction
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
	cs := &campState{id: id, spec: spec, key: keyOf(spec), status: StatusPreparing}
	select {
	case c.prepCh <- cs:
		c.campaigns[id] = cs
		c.order = append(c.order, cs)
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
// concurrently, so distinct simulators prepare in parallel while the
// golden cache single-flights each simulator's campaigns onto one run.
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

// prepare runs the golden-artifact phase and planning of cs and of
// every campaign of its golden key still waiting, then of those
// submitted meanwhile, and starts them all together, so the unit's
// first lease already carries them all. Each batch asks the cache once,
// for the union of its members' needs, pinning the run once per member,
// and plans every member against it. A campaign a sibling's preparation
// took is skipped when its own turn comes.
func (c *Coordinator) prepare(cs *campState) {
	type prepped struct {
		cs  *campState
		e   *goldenEntry
		p   *campaign.Planned
		err error
	}
	var ready []prepped
	for {
		c.mu.Lock()
		var batch []*campState
		var need campaign.GoldenOptions
		for _, m := range c.order {
			if m.key == cs.key && m.status == StatusPreparing && !m.claimed {
				m.claimed = true
				batch = append(batch, m)
				need = need.Merge(needOf(m.spec))
			}
		}
		c.mu.Unlock()
		if len(batch) == 0 {
			break
		}
		e, fresh, err := c.goldens.get(cs.spec, need, len(batch))
		hits := len(batch)
		if fresh {
			obsGoldenMisses.Inc()
			hits--
		}
		obsGoldenHits.Add(uint64(hits))
		for _, m := range batch {
			r := prepped{cs: m, e: e, err: err}
			if err == nil {
				r.p, r.err = e.g.PlanCampaign(m.spec.Config)
				if r.err == nil && c.opt.CheckpointDir != "" {
					r.err = r.p.OpenCheckpoint(c.opt.CheckpointDir, m.id)
				}
				if r.err != nil {
					c.goldens.release(e) // the pin get took for m
				}
			}
			ready = append(ready, r)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range ready {
		m := r.cs
		if r.err != nil {
			c.logf("distrib: campaign %s failed to prepare: %v", m.id, r.err)
			m.status, m.errMsg = StatusFailed, r.err.Error()
			continue
		}
		m.golden, m.planned, m.goldenCycles = r.e, r.p, r.e.g.Cycles
		m.status, m.start = StatusRunning, time.Now()
		c.logf("distrib: campaign %s running (golden %d cycles, %d resumed)", m.id, r.e.g.Cycles, r.p.Resumed())
		c.journal(obs.Event{
			Event: obs.EvGoldenReady, Campaign: m.id,
			Workload: m.spec.Workload, Model: m.spec.Model, N: r.p.Resumed(),
			Detail: fmt.Sprintf("golden %d cycles", r.e.g.Cycles),
		})
	}
	for _, r := range ready {
		c.maybeFinishLocked(r.cs) // a fully checkpointed campaign needs no worker
	}
}

// Lease hands the next available unit to a pulling worker, or reports
// none available: a shard of every running campaign of one golden run,
// each member's oldest requeued shard or else up to ShardSize fresh
// jobs. The unit is one whose golden run the worker names as held, if
// any is leasable, and among those, or else among all, the one with the
// most modelled replay cycles left, so the longest unit does not start
// last. Expired leases are reclaimed first, so a dead worker's shards
// go to the next pullers.
func (c *Coordinator) Lease(req LeaseRequest) (*Lease, error) {
	if req.API != 0 && req.API != APIVersion {
		return nil, fmt.Errorf("distrib: worker API v%d, coordinator v%d", req.API, APIVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	// Each pass leases, or drains (and may finish) every member it
	// picked, so the loop ends.
	for members := c.pickUnitLocked(req.Golden); members != nil; members = c.pickUnitLocked(req.Golden) {
		var parts []leasePart
		for _, cs := range members {
			if len(cs.queue) == 0 {
				if jobs := c.fillShardLocked(cs); len(jobs) > 0 {
					cs.queue = append(cs.queue, shardEntry{jobs: jobs})
				} else {
					c.maybeFinishLocked(cs)
					continue
				}
			}
			parts = append(parts, leasePart{cs: cs, shard: cs.queue[0]})
			cs.queue = cs.queue[1:]
		}
		if len(parts) == 0 {
			continue
		}
		c.leaseSeq++
		now := time.Now()
		l := &activeLease{id: fmt.Sprintf("l%06d", c.leaseSeq), parts: parts, worker: req.Worker,
			issuedAt: now, deadline: now.Add(c.opt.LeaseTTL)}
		c.leases[l.id] = l
		out := &Lease{API: APIVersion, ID: l.id, GoldenFP: parts[0].cs.golden.fp, TTLMillis: c.opt.LeaseTTL.Milliseconds()}
		for i, p := range parts {
			p.cs.leased++
			out.Members = append(out.Members, LeaseMember{CampaignID: p.cs.id, Spec: p.cs.spec})
			for _, j := range p.shard.jobs {
				j.Member = i
				out.Jobs = append(out.Jobs, j)
			}
			c.journal(obs.Event{
				Event: obs.EvShardLeased, Campaign: p.cs.id,
				Shard: l.id, Worker: req.Worker, N: len(p.shard.jobs),
			})
		}
		obsLeasesIssued.Inc()
		return out, nil
	}
	return nil, nil
}

// pickUnitLocked returns the campaigns with work to lease, in
// submission order, of the unit the next lease serves (see Lease); nil
// means none has work.
func (c *Coordinator) pickUnitLocked(held []uint64) []*campState {
	var keys []goldenKey
	units := make(map[goldenKey][]*campState)
	cycles := make(map[goldenKey]uint64)
	for _, cs := range c.order {
		if cs.status != StatusRunning || cs.drained && len(cs.queue) == 0 {
			continue
		}
		if units[cs.key] == nil {
			keys = append(keys, cs.key)
		}
		units[cs.key] = append(units[cs.key], cs)
		cycles[cs.key] += cs.cyclesLeft()
	}
	var best []*campState
	for _, k := range keys {
		u := units[k]
		h, hb := slices.Contains(held, u[0].golden.fp), best != nil && slices.Contains(held, best[0].golden.fp)
		if best == nil || h && !hb || h == hb && cycles[k] > cycles[best[0].key] {
			best = u
		}
	}
	return best
}

// fillShardLocked pulls up to ShardSize replay jobs from the campaign's
// producer. Pruning-resolved indices never become jobs — their
// synthetic outcomes are delivered inside NextReplay, exactly as in the
// single-process dispatch loop. Each worker's walk sorts its own shard
// by injection cycle.
func (c *Coordinator) fillShardLocked(cs *campState) []Job {
	var jobs []Job
	for !cs.drained && len(jobs) < c.opt.ShardSize {
		idx, spec, ok := cs.planned.NextReplay()
		if !ok {
			cs.drained = true
			break
		}
		cs.next = idx + 1
		jobs = append(jobs, Job{Index: idx, Spec: spec})
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
// each member's collector in whatever order batches arrive; the
// collector itself only ever consumes them in fault-index order, which
// is what keeps sequential stopping and pruning extrapolation
// byte-identical to single-process execution. A failed, incomplete or
// malformed batch merges nothing and requeues every member's shard.
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
	byJob := make(map[[2]int]WireOutcome, len(batch.Outcomes))
	for _, oc := range batch.Outcomes {
		byJob[[2]int{oc.Member, oc.Index}] = oc
	}
	reason := batch.Error
	for i, p := range l.parts {
		p.cs.leased--
		for _, j := range p.shard.jobs {
			oc, ok := byJob[[2]int{i, j.Index}]
			switch {
			case reason != "":
			case !ok:
				reason = fmt.Sprintf("incomplete batch (campaign %s, missing index %d)", p.cs.id, j.Index)
			case !campaign.Class(oc.Class).Valid():
				reason = fmt.Sprintf("campaign %s, index %d: class %d out of range", p.cs.id, j.Index, oc.Class)
			}
		}
	}
	if reason != "" {
		c.logf("distrib: worker %s failed lease %s: %s", l.worker, l.id, reason)
		for _, p := range l.parts {
			c.requeueLocked(p.cs, p.shard, reason)
		}
		return nil
	}
	mergeStart := time.Now()
	for i, p := range l.parts {
		c.mergeLocked(l, i, p, byJob)
	}
	obsShardsDone.Inc()
	obsMergeSeconds.Observe(time.Since(mergeStart).Seconds())
	// Lease round trip, issue to merge, and its running average.
	rtt := time.Since(l.issuedAt)
	obsLeaseLatency.Observe(rtt.Seconds())
	c.latSum += rtt
	c.latN++
	obsLeaseLatencyAvg.Set(c.latSum.Seconds() / float64(c.latN))
	return nil
}

// mergeLocked merges member i's outcomes of lease l into its campaign.
// A campaign that ended meanwhile takes nothing.
func (c *Coordinator) mergeLocked(l *activeLease, i int, p leasePart, byJob map[[2]int]WireOutcome) {
	cs := p.cs
	if cs.status != StatusRunning {
		return
	}
	for _, j := range p.shard.jobs {
		oc := byJob[[2]int{i, j.Index}]
		ro := campaign.RunOutcome{Spec: cs.planned.Spec(j.Index), Class: campaign.Class(oc.Class),
			EndCycle: oc.EndCycle, Converged: oc.Converged}
		if err := cs.planned.Deliver(j.Index, ro); err != nil {
			// A checkpoint write failure breaks the durability the
			// campaign was promised; surface it terminally.
			c.failLocked(cs, err.Error())
			return
		}
		cs.replayed++
	}
	c.journal(obs.Event{
		Event: obs.EvShardDone, Campaign: cs.id,
		Shard: l.id, Worker: l.worker, N: len(p.shard.jobs),
	})
	if !cs.stopLogged && cs.planned.Stopped() {
		cs.stopLogged = true
		c.journal(obs.Event{
			Event: obs.EvStopFired, Campaign: cs.id, N: cs.planned.Delivered(),
			Detail: "sequential stopping margin reached",
		})
	}
	c.maybeFinishLocked(cs)
}

// requeueLocked puts a failed shard back on its campaign's queue, or
// fails the campaign once the shard has burned its retry budget. A
// campaign that already ended takes nothing back.
func (c *Coordinator) requeueLocked(cs *campState, se shardEntry, reason string) {
	if cs.status != StatusRunning {
		return
	}
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
	c.releaseLocked(cs)
	obsCampaignsFailed.Inc()
	c.logf("distrib: campaign %s failed: %s", cs.id, msg)
}

// releaseLocked freezes the engine state Progress reports, drops the
// campaign's planning state (outcome arrays, pruner, golden reference)
// and unpins its golden run: finished campaigns keep only their Result,
// so a long-lived coordinator's memory tracks live campaigns, not
// history.
func (c *Coordinator) releaseLocked(cs *campState) {
	if p := cs.planned; p != nil {
		cs.delivered, cs.resumed, cs.stopped = p.Delivered(), p.Resumed(), p.Stopped()
	}
	cs.planned = nil
	if cs.golden != nil {
		c.goldens.release(cs.golden)
		cs.golden = nil
	}
}

// maybeFinishLocked finalises a campaign once nothing is queued, leased
// or producible: the merge is complete, so the result aggregates
// exactly as campaign.Run would have aggregated it.
func (c *Coordinator) maybeFinishLocked(cs *campState) {
	if cs.status != StatusRunning || len(cs.queue) > 0 || cs.leased > 0 {
		return
	}
	if jobs := c.fillShardLocked(cs); len(jobs) > 0 {
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
	c.releaseLocked(cs)
	obsCampaignsDone.Inc()
	c.journal(obs.Event{
		Event: obs.EvResultMerged, Campaign: cs.id,
		Workload: cs.spec.Workload, Model: cs.spec.Model, N: cs.replayed,
	})
	c.logf("distrib: campaign %s done (%d replayed by workers, %d resumed, wall %.1fs)",
		cs.id, cs.replayed, cs.resumed, cs.elapsed.Seconds())
}

// expireLocked reclaims the shards of leases whose worker stopped
// heartbeating — the re-issue path behind worker-death recovery.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(c.leases, id)
		obsLeasesExpired.Inc()
		c.logf("distrib: lease %s (worker %s) expired; re-issuing its %d shards", l.id, l.worker, len(l.parts))
		for _, p := range l.parts {
			p.cs.leased--
			c.requeueLocked(p.cs, p.shard, "lease expired (worker presumed dead)")
		}
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
	for _, cs := range c.order {
		out = append(out, c.progressLocked(cs))
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
	c.maybeFinishLocked(cs)
	switch cs.status {
	case StatusDone:
		return cs.result, nil
	case StatusFailed:
		return nil, fmt.Errorf("distrib: campaign %s failed: %s", id, cs.errMsg)
	default:
		return nil, ErrNotReady
	}
}
