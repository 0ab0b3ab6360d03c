package campaign

// One replay pool: the only way a host drives a replay engine — Sweep
// (Run is a sweep of one), the distributed worker and runsim's probe.
//
//	Work (one per campaign)          scheduler                  goroutine × workers
//	  Next ──────────────────▶ unit queue, cycle-sorted ──▶ a run off its head ──▶ its own engine
//	  Deliver ◀───────────────────────────────────────────────────────────────── every outcome
//
// A host describes each campaign as a Work — where its replays come
// from and where outcomes go — and the pool does the rest. The scheduler
// dispatches units: a run of consecutive campaigns that ride lockstep
// lanes over one golden run, on at most two targets, is one unit (they
// share its walk), any other campaign is a unit of its own. A unit
// reaching the head of the line queues its replays in injection-cycle
// order — a finite lockstep source whole, any other one chunk at a time
// in plan order — and each goroutine takes a contiguous run off the
// head of that queue from the mutex-guarded scheduler, sized by guided
// self-scheduling, so every stretch of the golden timeline is walked
// once for all the faulty machines riding it. A goroutine owns one
// engine (the one newReplayer picks for the unit), and builds it only
// after a grab brought work and only when the unit changes. Outcomes may
// land in any order; the in-order collector behind Planned.Deliver stays
// the sole decider of stopping indices and cuts, which is why every host
// and every engine yields the same bytes.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/obs"
)

// ReplayStats is what one engine did for one campaign since it was
// built. The pool hands it to the campaign's Work.Note when a goroutine
// moves on.
type ReplayStats struct {
	Executed int // replays run to a classification

	// Busy is the wall time spent replaying, stamped by the pool: an
	// engine shared by several campaigns has its time split between them
	// in proportion to the cycles it stepped for each.
	Busy time.Duration

	// Bit-parallel engine only: replays retired in lockstep and replays
	// finished on the scalar tail; golden walks that carried a lane of
	// the campaign, and specs a walk had no free lane for and left to a
	// follow-up walk.
	Batched, Peeled, Walks, Deferred int

	// Peels breaks Peeled down by the control outcome a lane's diff
	// changed.
	Peels [lanestore.NumPeelReasons]int

	// Where the stepped cycles went. FastForward is golden cycles a walk
	// stepped with nothing riding, on its way to the next lane it seats.
	// Lockstep is the campaign's share of the golden cycles lanes rode —
	// a walk's are split between its campaigns by LaneCycles, the lanes
	// in flight summed over those cycles — and Private the cycles its
	// peeled lanes then simulated alone.
	FastForward, Lockstep, Private, LaneCycles uint64
}

func (s *ReplayStats) add(o ReplayStats) {
	s.Executed += o.Executed
	s.Busy += o.Busy
	s.Batched += o.Batched
	s.Peeled += o.Peeled
	s.Walks += o.Walks
	s.Deferred += o.Deferred
	for i, n := range o.Peels {
		s.Peels[i] += n
	}
	s.FastForward += o.FastForward
	s.Lockstep += o.Lockstep
	s.Private += o.Private
	s.LaneCycles += o.LaneCycles
}

// replayer is one replay engine instance: it executes pulled replays on
// simulators it owns and streams every classified outcome to its
// campaign's Deliver. The two engines (scalar stream order and the
// lockstep walk) differ only in how they order and share the golden
// pre-injection work — classifications are byte-identical.
// Single-goroutine: each pool goroutine owns one, drives it one pull of
// its unit at a time and folds its account per member.
type replayer interface {
	replayPulled(items []pulledSpec) error
	memberStats() []ReplayStats
	Close()
}

// Work is one campaign's replays as the pool sees them.
type Work struct {
	// Name prefixes the campaign's errors (a sweep's campaign key).
	Name string

	// Golden, Config and Factory select and build the engine: every
	// simulator must come from the factory the golden run used.
	Golden  *Golden
	Config  Config
	Factory Factory

	// Next yields the replays still to run and reports ok=false
	// terminally once there are none. The scheduler serialises calls, so
	// it may be stateful. Deliver receives every outcome, from any
	// goroutine, in any order.
	Next    func() (idx int, spec fault.Spec, ok bool)
	Deliver func(idx int, oc RunOutcome) error

	// Size is the number of replays the source holds at most: a plan's
	// size, a lease's job count. Only the scheduler reads it: it sizes
	// the unit's queue, and a lockstep source of known size without a
	// sequential stop is drained whole into it (Work.drains). Zero means
	// unknown: the source is pulled one chunk at a time.
	Size int

	// Note, when set, receives each engine's account of the campaign as
	// a pool goroutine moves on from it, possibly from several
	// goroutines at once: the way a host reads its ReplayStats.
	Note func(ReplayStats)
}

func (w *Work) wrap(err error) error {
	if err == nil || w.Name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", w.Name, err)
}

// lockstep reports whether the campaign rides lanes: lanes enabled on a
// BatchCapable model, which has lanes for every target it has bits for
// (a target without bits never plans: fault.NewGenerator rejects it).
// Decided from the golden run's own instance, so no simulator is built
// to find out.
func (w *Work) lockstep() bool {
	_, ok := w.Golden.sim.(BatchCapable)
	return ok && w.Config.Lanes > 1
}

// chunk is how many of the campaign's replays one grab carries at most:
// enough for the walk's cycle sort to cluster injection instants, 1 on
// the scalar engine, where order buys nothing. A sequentially stopped
// campaign is pulled one lane width at a time: a grab is replayed whole
// before the collector can decide the stop, so a larger one only runs
// replays the stop then discards.
func (w *Work) chunk() int {
	switch {
	case !w.lockstep():
		return 1
	case w.Config.TargetError > 0:
		return w.Config.Lanes
	}
	return w.Config.Lanes * batchPull
}

// drains reports whether the scheduler queues the campaign's whole
// source when its unit reaches the head: a lockstep campaign of known
// Size without a sequential stop. Any other source keeps plan order and
// is pulled one chunk at a time.
func (w *Work) drains() bool {
	return w.Size > 0 && w.Config.TargetError == 0 && w.lockstep()
}

// estimate models the cost of the campaign's replays before they are
// queued: Size replays injected at mid-run (see unit.costOf).
func (w *Work) estimate() uint64 {
	mid := fault.Spec{Cycle: w.Golden.Cycles / 2}
	return uint64(w.Size) * (w.Golden.fullReplayEnd(mid, w.Config) - mid.Cycle)
}

// newReplayer is the one place an engine is chosen: a unit that rides
// lanes (Config.Lanes above 1 on a model that tracks its target) gets
// the lockstep walk, any other the scalar stream replayer (the oracle).
// The unit's campaigns have validated configs and share a golden run;
// the engine runs on simulators of the first one's factory.
func newReplayer(unit []*Work) (replayer, error) {
	w := unit[0]
	a, err := w.Factory()
	if err != nil {
		return nil, fmt.Errorf("worker simulator: %w", err)
	}
	if !w.lockstep() {
		return &scalarReplayer{w: w, sim: a}, nil
	}
	if _, ok := a.(BatchCapable); !ok {
		return nil, fmt.Errorf("campaign: the factory's simulators track no lanes over %v, the golden run's does", w.Config.Target)
	}
	// The walk drives a pair: one instance that only ever walks the
	// fault-free timeline, one that runs the faulty tails.
	b, err := w.Factory()
	if err != nil {
		return nil, fmt.Errorf("worker simulator: %w", err)
	}
	return newBatchReplayer(a, b, unit), nil
}

// scalarReplayer is the stream-order engine: every replay restores the
// snapshot nearest its injection instant and fast-forwards to it.
type scalarReplayer struct {
	w   *Work
	sim Simulator
	buf replayBuf
	n   int
}

func (r *scalarReplayer) replayPulled(items []pulledSpec) error {
	for _, p := range items {
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		oc, err := oneRunBuf(r.sim, r.w.Golden, p.spec, r.w.Config, &r.buf)
		if err != nil {
			return r.w.wrap(err)
		}
		if !t0.IsZero() {
			obsReplaySeconds.Observe(time.Since(t0).Seconds())
		}
		r.n++
		if err := r.w.Deliver(p.idx, oc); err != nil {
			return r.w.wrap(err)
		}
	}
	return nil
}

func (r *scalarReplayer) memberStats() []ReplayStats { return []ReplayStats{{Executed: r.n}} }
func (r *scalarReplayer) Close()                     {}

// pulledSpec is one plan entry drained from a producer: member names the
// campaign it belongs to within the unit that was pulled.
type pulledSpec struct {
	idx    int
	spec   fault.Spec
	member int
}

// pullSpecs drains up to n entries of next into buf, tagged with member.
func pullSpecs(next func() (int, fault.Spec, bool), n, member int, buf []pulledSpec) []pulledSpec {
	for ; n > 0; n-- {
		idx, spec, ok := next()
		if !ok {
			break
		}
		buf = append(buf, pulledSpec{idx: idx, spec: spec, member: member})
	}
	return buf
}

// sortByCycle orders specs by injection cycle with unit and plan order
// as the tie-break, so a walk along the golden timeline only moves
// forward.
func sortByCycle(ps []pulledSpec) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := &ps[i], &ps[j]
		if a.spec.Cycle != b.spec.Cycle {
			return a.spec.Cycle < b.spec.Cycle
		}
		if a.member != b.member {
			return a.member < b.member
		}
		return a.idx < b.idx
	})
}

// ReplayPool runs every campaign in work, in order, on `workers`
// goroutines and returns the first error any of them hit. It validates
// each Work's Config in place (filling its defaults) first. Closing stop
// ceases dispatch: pulls already made drain, and the pool returns
// ErrInterrupted if replays were left unissued. It returns only after
// every goroutine has exited.
func ReplayPool(workers int, stop <-chan struct{}, work ...*Work) error {
	if workers < 1 {
		workers = 1
	}
	s := &scheduler{workers: workers, stop: stop}
	for _, w := range work {
		if err := w.Config.Validate(); err != nil {
			return w.wrap(err)
		}
		// Consecutive lockstep campaigns over one golden run (Sweep orders
		// its work group-major) ride one walk while its store has a lane
		// group for their target; anything else stays on its own engine.
		lanes := w.lockstep()
		if n := len(s.units); n > 0 && lanes && s.units[n-1].admits(w) {
			s.units[n-1].members = append(s.units[n-1].members, w)
			continue
		}
		s.units = append(s.units, &unit{members: []*Work{w}, lanes: lanes})
	}
	for _, u := range s.units {
		u.dry = make([]bool, len(u.members))
		u.width = 1
		for _, w := range u.members {
			u.pull += w.chunk()
			u.cost += w.estimate()
			if u.lanes {
				u.width = max(u.width, w.Config.Lanes)
			}
		}
	}
	err := fanOut(workers, workers, func(int) error { return s.serve() })
	if err == nil && s.interrupted {
		return ErrInterrupted
	}
	return err
}

// unit is what the scheduler dispatches as one: the campaigns of one
// engine and the queue of their replays. dry marks the members whose
// source has run out.
type unit struct {
	members []*Work
	lanes   bool
	dry     []bool

	// pull is the most one grab takes (the members' chunks summed),
	// width the least while the queue holds more (one lane width).
	pull, width int

	// q is the queue, cycle-sorted per refill: q[head:] waits to be
	// handed out, q[:head] went to goroutines as slices and is theirs.
	// cost is q[head:]'s modelled cycles (costOf summed), and before the
	// first refill the members' estimate.
	q    []pulledSpec
	head int
	cost uint64
}

// refill queues more of the unit's replays and reports whether there
// were any. Only an exhausted queue is refilled: its handed-out storage
// stays with the goroutines and the new specs go behind it. The first
// refill allocates the queue for every member's Size and drains each
// member that drains whole; every other member adds one chunk in plan
// order, at each refill. What one refill adds is cycle-sorted.
func (u *unit) refill() bool {
	if u.q == nil {
		size := 0
		for _, w := range u.members {
			size += w.Size
		}
		u.q, u.cost = make([]pulledSpec, 0, size), 0
	}
	u.q, u.head = u.q[len(u.q):], 0
	for i, w := range u.members {
		if u.dry[i] {
			continue
		}
		n := w.chunk()
		if w.drains() {
			n = math.MaxInt
		}
		have := len(u.q)
		u.q = pullSpecs(w.Next, n, i, u.q)
		u.dry[i] = len(u.q)-have < n
	}
	sortByCycle(u.q)
	for i := range u.q {
		u.cost += u.costOf(&u.q[i])
	}
	return len(u.q) > 0
}

// costOf models a replay's cost in golden cycles: from its injection to
// where a replay that deviates nowhere would end (fullReplayEnd) — the
// window for a windowed campaign, the rest of the golden run for a
// run-to-end one.
func (u *unit) costOf(p *pulledSpec) uint64 {
	w := u.members[p.member]
	if end := w.Golden.fullReplayEnd(p.spec, w.Config); end > p.spec.Cycle {
		return end - p.spec.Cycle
	}
	return 0
}

// grab hands out a contiguous run off the head of the queue, as a slice
// of it: at most pull replays, and at most ⌈pool / workers⌉ modelled
// cycles, pool being what the whole pool has left (guided
// self-scheduling: early grabs are large, late ones small, so the
// goroutines finish together), but never fewer than width replays.
// Consecutive grabs are consecutive stretches of the golden timeline, so
// a unit's walks together step it about once.
func (u *unit) grab(workers int, pool uint64) []pulledSpec {
	share := (pool + uint64(workers) - 1) / uint64(workers)
	var c uint64
	end := u.head
	for end < len(u.q) && end-u.head < u.pull && (end-u.head < u.width || c < share) {
		c += u.costOf(&u.q[end])
		end++
	}
	run := u.q[u.head:end:end]
	u.head, u.cost = end, u.cost-c
	return run
}

// admits reports whether lockstep campaign w may join the unit's walk:
// the unit rides lanes over w's golden run, and the walk's store has a
// lane group for every target with w's added.
func (u *unit) admits(w *Work) bool {
	if !u.lanes || u.members[0].Golden != w.Golden {
		return false
	}
	targets := map[fault.Target]bool{w.Config.Target: true}
	for _, m := range u.members {
		targets[m.Config.Target] = true
	}
	return len(targets) <= lanestore.Groups
}

// scheduler hands (unit, run) pairs to the pool's goroutines. Units are
// dispatched one after another (a sweep passes its campaigns
// group-major, so at most a few goldens are hot at once); goroutines
// still finishing an earlier unit's run simply arrive later.
type scheduler struct {
	workers int
	stop    <-chan struct{}

	mu          sync.Mutex
	units       []*unit // not yet run dry; units[0] is being dispatched
	halted      bool    // a goroutine failed or stop fired: issue nothing more
	interrupted bool    // stop fired with replays still unissued
}

// next hands out the next run of the unit being dispatched and returns
// the unit; a nil unit means nothing more is to be issued. Work.Next runs
// under the scheduler's lock — that is what lets it be stateful — when
// the unit reaches the head and whenever its queue runs out; a unit
// whose queue is exhausted and whose sources are all dry is retired, and
// its queue with it (the goroutines keep their runs).
//
// Every unit is cut by guided self-scheduling on what the whole pool has
// left — the head unit's queue plus the estimates of the units behind
// it — the last one as any other: a unit that fits in one goroutine's
// share goes out whole while the units behind it can occupy the rest,
// a heavy one spreads over the pool wherever it stands in line, and a
// source smaller than one chunk (a lease, a standalone campaign, a
// sweep's tail) is split along the timeline, not into random subsets
// that each walk all of it.
func (s *scheduler) next() (*unit, []pulledSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.halted && len(s.units) > 0 {
		select {
		case <-s.stop:
			s.halted, s.interrupted = true, s.unissued()
			return nil, nil
		default:
		}
		u := s.units[0]
		if u.head < len(u.q) || u.refill() {
			pool := u.cost
			for _, v := range s.units[1:] {
				pool += v.cost
			}
			return u, u.grab(s.workers, pool)
		}
		u.q = nil
		s.units = s.units[1:]
	}
	return nil, nil
}

// unissued reports whether any replay is left unissued: one still
// queued, or one a source still holds, found by drawing it — a source
// whose last pull came back full may be dry all the same, and a pool
// stopped after everything was issued was not interrupted. The caller
// holds the lock and issues nothing afterwards.
func (s *scheduler) unissued() bool {
	for _, u := range s.units {
		if u.head < len(u.q) {
			return true
		}
		for i, w := range u.members {
			if !u.dry[i] {
				if _, _, ok := w.Next(); ok {
					return true
				}
			}
		}
	}
	return false
}

func (s *scheduler) halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
}

// serve is one pool goroutine: one live engine, built for the first run
// of a unit it is handed and rebuilt when the unit changes, its stats
// folded into the campaigns it served.
func (s *scheduler) serve() (err error) {
	var (
		cur  *unit
		eng  replayer
		busy time.Duration
	)
	fold := func() {
		if eng == nil {
			return
		}
		sts := eng.memberStats()
		eng.Close()
		splitBusy(busy, sts)
		for i, st := range sts {
			if note := cur.members[i].Note; note != nil {
				note(st)
			}
		}
		eng, busy = nil, 0
	}
	defer func() {
		fold()
		if err != nil {
			s.halt()
		}
	}()
	for {
		u, items := s.next()
		if u == nil {
			return nil
		}
		if u != cur {
			fold()
			cur = u
			if eng, err = newReplayer(u.members); err != nil {
				return u.members[0].wrap(err)
			}
		}
		t0 := time.Now()
		err = eng.replayPulled(items)
		d := time.Since(t0)
		busy += d
		obsBusy(d)
		if err != nil {
			return err
		}
	}
}

// splitBusy attributes an engine's replay wall time to the campaigns it
// served, in proportion to the cycles it stepped for each; whatever the
// rounding leaves goes to the last.
func splitBusy(busy time.Duration, sts []ReplayStats) {
	var total uint64
	for _, st := range sts {
		total += st.FastForward + st.Lockstep + st.Private
	}
	rest := busy
	for i := range sts[:len(sts)-1] {
		if total > 0 {
			st := &sts[i]
			st.Busy = time.Duration(float64(busy) * float64(st.FastForward+st.Lockstep+st.Private) / float64(total))
			rest -= st.Busy
		}
	}
	sts[len(sts)-1].Busy = rest
}

// fanOut runs fn(0) … fn(n-1) on up to `workers` goroutines, stops
// handing out indices after the first error and returns that error once
// every goroutine has exited.
func fanOut(workers, n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i, failed := next, first != nil
				next++
				mu.Unlock()
				if failed || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
