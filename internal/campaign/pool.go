package campaign

// One replay pool: the single execution path behind Sweep (Run is a
// sweep of one) and the distributed worker.
//
//	Work (one per campaign)          scheduler                goroutine × workers
//	  Next ──────────────────▶ next(unit, one chunk each) ──▶ its own engine
//	  Deliver ◀─────────────────────────────────────────────── every outcome
//
// A host describes each campaign as a Work — where its replays come
// from and where outcomes go — and the pool does the rest. The scheduler
// dispatches units: a run of consecutive campaigns that ride lockstep
// lanes over one golden run, on at most two targets, is one unit (they
// share its walk), any other campaign is a unit of its own. Each
// goroutine pulls one chunk of every member of the unit currently being
// dispatched from the mutex-guarded scheduler, owns one engine (the one
// NewReplayer would pick), and builds it only after a pull brought work
// and only when the unit changes. Outcomes may land in any order; the in-order collector behind
// Planned.Deliver stays the sole decider of stopping indices and cuts,
// which is why every host and every engine yields the same bytes.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/obs"
)

// ReplayStats is what one replayer did for one campaign since it was
// built. The pool folds it into the campaign when a goroutine moves on.
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

// Replayer is one replay engine instance: it drains a producer of
// planned injections, executes each replay on simulators it owns and
// streams every classified outcome through deliver. The two engines
// (scalar stream order and the lockstep walk) differ only in how they
// order and share the golden pre-injection work — classifications are
// byte-identical.
// Single-goroutine: one per worker. A pool goroutine drives it one pull
// of its unit at a time (replayPulled) and folds its account per member.
type Replayer interface {
	Replay(next func() (idx int, spec fault.Spec, ok bool), deliver func(idx int, oc RunOutcome) error) error
	Stats() ReplayStats
	Close()

	replayPulled(items []pulledSpec) error
	memberStats() []ReplayStats
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
	// size, a lease's job count. Only the scheduler reads it, and only
	// for the last unit it holds (see next). Zero means unknown and is
	// never split.
	Size int

	note func(ReplayStats) // per-replayer accounting sink (Planned.note)
}

func (w *Work) wrap(err error) error {
	if err == nil || w.Name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", w.Name, err)
}

// lockstep reports whether the campaign rides lanes: lanes enabled on a
// model with a lockstep surface for the target. Decided from the golden
// run's own instance, so no simulator is built to find out.
func (w *Work) lockstep() bool {
	bc, ok := w.Golden.sim.(BatchCapable)
	if !ok || w.Config.Lanes <= 1 {
		return false
	}
	units, _ := bc.LaneGeometry(w.Config.Target)
	return units > 0
}

// chunk is how many of the campaign's replays one pull takes: enough for
// the walk's cycle sort to cluster injection instants, 1 on the scalar
// engine, where order buys nothing.
func (w *Work) chunk() int {
	if w.lockstep() {
		return w.Config.Lanes * batchPull
	}
	return 1
}

// NewReplayer is the one place an engine is chosen: a campaign that
// rides lanes (Config.Lanes above 1 on a model that tracks its target)
// gets the lockstep walk, any other the scalar stream replayer (the
// oracle). It validates the config, so callers may pass one straight
// off the wire.
func NewReplayer(w *Work) (Replayer, error) {
	v := *w
	if err := v.Config.Validate(); err != nil {
		return nil, err
	}
	return newReplayer([]*Work{&v})
}

// newReplayer builds the engine of one unit — campaigns with validated
// configs that share a golden run and, when there are several, all ride
// lanes — on simulators of the first one's factory.
func newReplayer(unit []*Work) (Replayer, error) {
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

func (r *scalarReplayer) Replay(next func() (int, fault.Spec, bool), deliver func(int, RunOutcome) error) error {
	for {
		idx, spec, ok := next()
		if !ok {
			return nil
		}
		if err := r.one(idx, spec, deliver); err != nil {
			return err
		}
	}
}

func (r *scalarReplayer) replayPulled(items []pulledSpec) error {
	for _, p := range items {
		if err := r.one(p.idx, p.spec, r.w.Deliver); err != nil {
			return r.w.wrap(err)
		}
	}
	return nil
}

// one replays and delivers a single spec.
func (r *scalarReplayer) one(idx int, spec fault.Spec, deliver func(int, RunOutcome) error) error {
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}
	oc, err := oneRunBuf(r.sim, r.w.Golden, spec, r.w.Config, &r.buf)
	if err != nil {
		return err
	}
	if !t0.IsZero() {
		obsReplaySeconds.Observe(time.Since(t0).Seconds())
	}
	r.n++
	return deliver(idx, oc)
}

func (r *scalarReplayer) Stats() ReplayStats         { return ReplayStats{Executed: r.n} }
func (r *scalarReplayer) memberStats() []ReplayStats { return []ReplayStats{r.Stats()} }
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

// sortByCycle orders a pull by injection cycle with unit and plan order
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
	}
	err := fanOut(workers, workers, func(int) error { return s.serve() })
	if err == nil && s.interrupted {
		return ErrInterrupted
	}
	return err
}

// unit is what the scheduler dispatches as one: the campaigns of one
// engine. dry marks the members whose source has run out.
type unit struct {
	members []*Work
	lanes   bool
	dry     []bool
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

// scheduler hands (unit, pull) pairs to the pool's goroutines. Units are
// dispatched one after another (a sweep passes its campaigns
// group-major, so at most a few goldens are hot at once); goroutines
// still finishing an earlier unit's pull simply arrive later.
type scheduler struct {
	workers int
	stop    <-chan struct{}

	mu          sync.Mutex
	units       []*unit // not yet run dry; units[0] is being dispatched
	halted      bool    // a goroutine failed or stop fired: issue nothing more
	interrupted bool    // stop fired with replays still unissued
}

// next moves up to one chunk of every member of the unit being
// dispatched into buf and returns the unit; a nil unit means nothing
// more is to be issued. Work.Next runs under the scheduler's lock — that
// is what lets it be stateful — and a unit whose sources are all dry is
// retired.
//
// While units queue behind this one a goroutine takes each member's
// whole chunk: the others find work in the next unit, and smaller pulls
// would only walk the golden timeline more often. Nothing queues behind
// the last unit, so there every member's chunk is capped at an even
// share of its Size — a source smaller than one chunk (a 64-job lease, a
// standalone campaign, a sweep's tail) still spreads over the whole
// pool, and every goroutine's walk still carries all the members.
func (s *scheduler) next(buf []pulledSpec) (*unit, []pulledSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.halted && len(s.units) > 0 {
		select {
		case <-s.stop:
			s.halted, s.interrupted = true, s.unissued()
			return nil, buf
		default:
		}
		u, last, live := s.units[0], len(s.units) == 1, false
		for i, w := range u.members {
			if u.dry[i] {
				continue
			}
			n := w.chunk()
			if share := (w.Size + s.workers - 1) / s.workers; last && w.Size > 0 && share < n {
				n = share
			}
			have := len(buf)
			buf = pullSpecs(w.Next, n, i, buf)
			u.dry[i] = len(buf)-have < n
			live = live || !u.dry[i]
		}
		if !live {
			s.units = s.units[1:]
		}
		if len(buf) > 0 {
			return u, buf
		}
	}
	return nil, buf
}

// unissued reports whether any source still holds a replay, by drawing
// one: a source whose last pull came back full may be dry all the same,
// and a pool stopped after everything was issued was not interrupted.
// The caller holds the lock and issues nothing afterwards.
func (s *scheduler) unissued() bool {
	for _, u := range s.units {
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

// serve is one pool goroutine: one live engine, built for the first
// non-empty pull of a unit and rebuilt when the unit changes, its stats
// folded into the campaigns it served.
func (s *scheduler) serve() (err error) {
	var (
		cur   *unit
		eng   Replayer
		busy  time.Duration
		items []pulledSpec
	)
	fold := func() {
		if eng == nil {
			return
		}
		sts := eng.memberStats()
		eng.Close()
		splitBusy(busy, sts)
		for i, st := range sts {
			if note := cur.members[i].note; note != nil {
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
		var u *unit
		if u, items = s.next(items[:0]); u == nil {
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
