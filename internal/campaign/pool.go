package campaign

// One replay pool: the single execution path behind Sweep (Run is a
// sweep of one) and the distributed worker.
//
//	Work (one per campaign)          scheduler               goroutine × workers
//	  Next ──────────────────▶ pull(campaign, chunk) ──▶ its own Replayer.Replay
//	  Deliver ◀─────────────────────────────────────────── every outcome
//
// A host describes each campaign as a Work — where its replays come
// from and where outcomes go — and the pool does the rest: each
// goroutine owns one Replayer (the engine NewReplayer picks for the
// campaign), pulls chunks of the campaign currently being dispatched
// from a mutex-guarded scheduler, and rebuilds its replayer only when
// the campaign changes. Outcomes may land in any order; the in-order
// collector behind Planned.Deliver stays the sole decider of stopping
// indices and cuts, which is why every host and every engine yields the
// same bytes.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ReplayStats is what one replayer did since it was built. The pool
// folds it into the campaign when a goroutine moves on.
type ReplayStats struct {
	Executed int           // replays run to a classification
	Busy     time.Duration // wall time inside Replay, stamped by the pool

	// Bit-parallel engine only: replays retired in lockstep, replays
	// finished on the scalar tail, and the group count / lane sum behind
	// the mean lane occupancy.
	Batched, Peeled, Groups, LaneSum int

	// FastForward is the golden pre-injection cycles a cursor or batch
	// replayer actually stepped; Lockstep the golden cycles the batch
	// engine's lane groups rode together and Private the cycles its
	// peeled lanes then simulated alone.
	FastForward, Lockstep, Private uint64
}

func (s *ReplayStats) add(o ReplayStats) {
	s.Executed += o.Executed
	s.Busy += o.Busy
	s.Batched += o.Batched
	s.Peeled += o.Peeled
	s.Groups += o.Groups
	s.LaneSum += o.LaneSum
	s.FastForward += o.FastForward
	s.Lockstep += o.Lockstep
	s.Private += o.Private
}

// Replayer is one replay engine instance: it drains a producer of
// planned injections, executes each replay on simulators it owns and
// streams every classified outcome through deliver. The three engines
// (scalar stream order, golden cursor, 64-lane lockstep batch) differ
// only in how they order and share the golden pre-injection work —
// classifications are byte-identical. Single-goroutine: one per worker.
type Replayer interface {
	Replay(next func() (idx int, spec fault.Spec, ok bool), deliver func(idx int, oc RunOutcome) error) error
	Stats() ReplayStats
	Close()

	// chunk is how many replays the engine wants per pull: enough for
	// its cycle sort to cluster injection instants, 1 when order buys
	// nothing.
	chunk() int
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
	// for the last campaign it holds (see pull). Zero means unknown and
	// is never split.
	Size int

	stopped func() bool       // sequential stop decided (Planned.Stopped)
	note    func(ReplayStats) // per-replayer accounting sink (Planned.note)
}

func (w *Work) wrap(err error) error {
	if w.Name == "" {
		return err
	}
	return fmt.Errorf("%s: %w", w.Name, err)
}

// NewReplayer is the one place an engine is chosen, from what the code
// can observe: lanes enabled on a model with a batch surface for the
// target selects the lockstep batch engine, the cursor schedule selects
// the golden-cursor engine, anything else replays in stream order. It
// validates the config, so callers may pass one straight off the wire.
func NewReplayer(w *Work) (Replayer, error) {
	cfg := w.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, err := w.Factory()
	if err != nil {
		return nil, fmt.Errorf("worker simulator: %w", err)
	}
	_, lanes := a.(BatchCapable)
	lanes = lanes && cfg.Lanes > 1
	cursor := cfg.Sched == SchedCursor
	var b Simulator
	if lanes || cursor {
		// Both of those engines drive a pair: one instance that only ever
		// walks the fault-free timeline, one that runs the faulty tails.
		if b, err = w.Factory(); err != nil {
			return nil, fmt.Errorf("worker simulator: %w", err)
		}
	}
	if lanes {
		// nil when the model tracks no lanes over this target (the RTL
		// pipeline latches).
		if br := NewBatchReplayer(w.Golden, cfg, a, b); br != nil {
			return br, nil
		}
	}
	if cursor {
		cr := NewCursorReplayer(w.Golden, cfg, a, b)
		cr.Stop = w.stopped
		return cr, nil
	}
	return &scalarReplayer{g: w.Golden, cfg: cfg, sim: a}, nil
}

// scalarReplayer is the stream-order engine: every replay restores the
// snapshot nearest its injection instant and fast-forwards to it.
type scalarReplayer struct {
	g   *Golden
	cfg Config
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
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		oc, err := oneRunBuf(r.sim, r.g, spec, r.cfg, &r.buf)
		if err != nil {
			return err
		}
		if !t0.IsZero() {
			obsReplaySeconds.Observe(time.Since(t0).Seconds())
		}
		r.n++
		if err := deliver(idx, oc); err != nil {
			return err
		}
	}
}

func (r *scalarReplayer) Stats() ReplayStats { return ReplayStats{Executed: r.n} }
func (r *scalarReplayer) Close()             {}
func (r *scalarReplayer) chunk() int         { return 1 }

// pulledSpec is one plan entry drained from a producer.
type pulledSpec struct {
	idx  int
	spec fault.Spec
}

// pullSpecs drains up to n entries of next into buf.
func pullSpecs(next func() (int, fault.Spec, bool), n int, buf []pulledSpec) []pulledSpec {
	for len(buf) < n {
		idx, spec, ok := next()
		if !ok {
			break
		}
		buf = append(buf, pulledSpec{idx: idx, spec: spec})
	}
	return buf
}

// sortByCycle orders a pull by injection cycle with plan order as the
// tie-break, so a walk along the golden timeline only moves forward.
func sortByCycle(ps []pulledSpec) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].spec.Cycle != ps[j].spec.Cycle {
			return ps[i].spec.Cycle < ps[j].spec.Cycle
		}
		return ps[i].idx < ps[j].idx
	})
}

// chunkIter feeds one pulled chunk to a replayer as its producer.
type chunkIter struct {
	items []pulledSpec
	k     int
}

func (c *chunkIter) next() (int, fault.Spec, bool) {
	if c.k >= len(c.items) {
		return 0, fault.Spec{}, false
	}
	c.k++
	return c.items[c.k-1].idx, c.items[c.k-1].spec, true
}

// ReplayPool runs every campaign in work, in order, on `workers`
// goroutines and returns the first error any of them hit. Closing stop
// ceases dispatch: chunks already pulled drain, and the pool returns
// ErrInterrupted if work was left unissued. It returns only after every
// goroutine has exited.
func ReplayPool(workers int, stop <-chan struct{}, work ...*Work) error {
	if workers < 1 {
		workers = 1
	}
	s := &scheduler{workers: workers, stop: stop, work: work}
	err := fanOut(workers, workers, func(int) error { return s.serve() })
	if err == nil && s.interrupted {
		return ErrInterrupted
	}
	return err
}

// scheduler hands (campaign, chunk) pairs to the pool's goroutines.
// Campaigns are dispatched one after another (a sweep passes them
// group-major, so at most a few goldens are hot at once); goroutines
// still finishing an earlier campaign's chunk simply arrive later.
type scheduler struct {
	workers int
	stop    <-chan struct{}

	mu          sync.Mutex
	work        []*Work // campaigns not yet run dry; work[0] is being dispatched
	halted      bool    // a goroutine failed or stop fired: issue nothing more
	interrupted bool
}

// current returns the campaign being dispatched, nil when nothing more
// is to be issued.
func (s *scheduler) current() *Work {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted || len(s.work) == 0 {
		return nil
	}
	select {
	case <-s.stop:
		s.halted, s.interrupted = true, true
		return nil
	default:
	}
	return s.work[0]
}

// pull moves up to n of w's replays into buf. w.Next runs under the
// scheduler's lock — that is what lets it be stateful — and a dry
// source retires the campaign.
//
// While campaigns queue behind w a goroutine takes the engine's whole
// chunk: the others find work in the next campaign, and smaller chunks
// would only re-walk the golden timeline more often. Nothing queues
// behind the last campaign, so there a chunk is capped at an even share
// of Size — a source smaller than one engine chunk (a 64-job lease, a
// standalone campaign, a sweep's tail) still spreads over the whole
// pool.
func (s *scheduler) pull(w *Work, n int, buf []pulledSpec) []pulledSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.halted || len(s.work) == 0 || s.work[0] != w {
		return buf
	}
	if share := (w.Size + s.workers - 1) / s.workers; len(s.work) == 1 && w.Size > 0 && share < n {
		n = share
	}
	buf = pullSpecs(w.Next, n, buf)
	if len(buf) < n {
		s.work = s.work[1:]
	}
	return buf
}

func (s *scheduler) halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
}

// serve is one pool goroutine: one live replayer, rebuilt when the
// campaign changes, its stats folded into the campaign it served.
func (s *scheduler) serve() (err error) {
	var (
		cur  *Work
		r    Replayer
		busy time.Duration
		it   chunkIter
	)
	next := it.next
	fold := func() {
		if r == nil {
			return
		}
		st := r.Stats()
		st.Busy = busy
		r.Close()
		if cur.note != nil {
			cur.note(st)
		}
		r, busy = nil, 0
	}
	defer func() {
		fold()
		if err != nil {
			s.halt()
		}
	}()
	for {
		w := s.current()
		if w == nil {
			return nil
		}
		if w != cur {
			fold()
			cur = w
			if r, err = NewReplayer(w); err != nil {
				return w.wrap(err)
			}
		}
		it.items, it.k = s.pull(w, r.chunk(), it.items[:0]), 0
		if len(it.items) == 0 {
			continue
		}
		t0 := time.Now()
		err = r.Replay(next, w.Deliver)
		d := time.Since(t0)
		busy += d
		obsBusy(d)
		if err != nil {
			return w.wrap(err)
		}
	}
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
