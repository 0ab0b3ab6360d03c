package campaign

// Replay scheduling: execution order as an engine-level degree of
// freedom.
//
// The in-order outcome collector (seqStop) consumes outcomes strictly
// in plan order no matter when they arrive, so sequential stopping,
// convergence exits, pruning fanout and checkpoints all decide over the
// same in-order prefix under any execution schedule. That makes replay
// order free to optimise: SchedCursor sorts each worker's pending
// replays by injection cycle and walks a per-worker *golden cursor* —
// one simulator advanced monotonically along the golden timeline that
// forks (snapshot the cursor, restore into the worker's replay
// simulator) at each injection instant. Inter-injection golden cycles
// are then simulated once per worker pass instead of once per replay,
// eliminating the dominant fast-forward cost of the scalar stream
// engine while classifications and stopping indices stay byte-identical
// to SchedStream.

import (
	"fmt"

	"repro/internal/fault"
)

// Sched selects the replay execution schedule.
type Sched int

const (
	// SchedStream is the seed engine's order: workers pull plan indices
	// as the dispatcher produces them, and every replay restores the
	// snapshot nearest its injection instant and fast-forwards golden
	// cycles up to it.
	SchedStream Sched = iota

	// SchedCursor sorts each worker's pending replays by injection
	// cycle and forks each replay off a monotonically advancing golden
	// cursor, paying inter-injection golden cycles once per worker pass
	// instead of once per replay. Classifications, stopping indices and
	// checkpoint records are byte-identical to SchedStream — only
	// execution order and throughput change.
	SchedCursor
)

var schedNames = map[Sched]string{
	SchedStream: "stream",
	SchedCursor: "cursor",
}

func (s Sched) String() string {
	if n, ok := schedNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Sched(%d)", int(s))
}

// ParseSched converts a CLI name to a Sched.
func ParseSched(s string) (Sched, error) {
	switch s {
	case "stream":
		return SchedStream, nil
	case "cursor":
		return SchedCursor, nil
	}
	return 0, fmt.Errorf("campaign: unknown schedule %q (stream, cursor)", s)
}

// SnapPolicy selects where the golden run's differential-injection
// snapshots are placed.
type SnapPolicy int

const (
	// SnapStride places snapshots every SnapshotEvery cycles — the seed
	// engine's fixed grid, oblivious to where the plan's injection
	// instants actually land.
	SnapStride SnapPolicy = iota

	// SnapQuantile places the same number of snapshots at quantiles of
	// the planner's truncated-normal instant distribution (equal
	// expected replay mass per snapshot gap), shrinking the expected
	// fast-forward distance at an unchanged snapshot budget. Placement
	// needs the golden cycle count first, so the golden phase runs a
	// second snapshot-only pass; replay classifications are unaffected
	// (snapshots are restoration points, never observations).
	SnapQuantile
)

var snapPolicyNames = map[SnapPolicy]string{
	SnapStride:   "stride",
	SnapQuantile: "quantile",
}

func (p SnapPolicy) String() string {
	if n, ok := snapPolicyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("SnapPolicy(%d)", int(p))
}

// ParseSnapPolicy converts a CLI name to a SnapPolicy.
func ParseSnapPolicy(s string) (SnapPolicy, error) {
	switch s {
	case "stride":
		return SnapStride, nil
	case "quantile":
		return SnapQuantile, nil
	}
	return 0, fmt.Errorf("campaign: unknown snapshot policy %q (stride, quantile)", s)
}

// LiveSnapshotter is an optional Simulator capability: LiveSnapshot
// returns the simulator's current state as a zero-copy Snapshot value,
// valid as a Restore source only until the simulator steps again. The
// cursor fork uses it to hand a worker's golden cursor state straight
// to the replay simulator's deep-copying Restore without paying a full
// Snapshot allocation per fork; simulators without it fall back to
// Snapshot().
type LiveSnapshotter interface {
	LiveSnapshot() Snapshot
}

// cursorPull bounds how many pending replays one cursor pass pulls and
// sorts before walking the golden timeline. Larger pulls cluster
// injection instants more tightly (less cursor backtracking across
// passes); the bound keeps a sequential stop from over-issuing the
// whole plan to one worker.
const cursorPull = 512

// CursorReplayer executes replays in injection-cycle order off a
// monotonic golden cursor — the Replayer NewReplayer picks for
// SchedCursor campaigns without a batch surface. One replayer drives two
// simulator instances from the campaign's factory — the cursor, which
// only ever simulates the fault-free timeline, and the replay
// simulator, which runs each faulty observation window — and is not
// safe for concurrent use; run one per worker.
type CursorReplayer struct {
	g      *Golden
	cfg    Config
	cursor Simulator
	replay Simulator
	buf    replayBuf
	pend   []pulledSpec
	onPath bool // cursor state lies on the golden timeline at its Cycles()

	// Stop, when set, is polled between replays: once it reports true
	// (the sequential stop was decided) the rest of the pulled batch is
	// abandoned. Safe because a decided stop means every index below
	// the stopping point has been delivered, so whatever this replayer
	// still holds lies past the counted prefix and would be discarded
	// by the collector's cut anyway.
	Stop func() bool

	// FastForward counts the golden pre-injection cycles this replayer
	// actually stepped (cursor advance plus post-restore catch-up).
	// StreamFF counts what stream order would have stepped for the same
	// replays (injection instant minus nearest snapshot, summed); the
	// difference is the fast-forward work the schedule eliminated.
	// Forks counts cursor forks (one per replay executed).
	FastForward uint64
	StreamFF    uint64
	Forks       int
}

// NewCursorReplayer builds a cursor replayer over golden artifacts g.
// cursor and replay must come from the same factory as the golden run.
func NewCursorReplayer(g *Golden, cfg Config, cursor, replay Simulator) *CursorReplayer {
	cursor.SetPinout(nil) // the cursor retraces golden; nothing observes its pins
	return &CursorReplayer{g: g, cfg: cfg, cursor: cursor, replay: replay}
}

// Replay pulls pending replays from next until exhaustion, executing
// each pull in injection-cycle order and delivering every outcome.
func (r *CursorReplayer) Replay(next func() (int, fault.Spec, bool), deliver func(int, RunOutcome) error) error {
	ff0 := r.FastForward
	defer func() { obsFFCycles.Add(r.FastForward - ff0) }()
	for {
		r.pend = pullSpecs(next, cursorPull, 0, r.pend[:0])
		if len(r.pend) == 0 {
			return nil
		}
		sortByCycle(r.pend)
		for _, cs := range r.pend {
			if r.Stop != nil && r.Stop() {
				return nil
			}
			oc, err := r.one(cs.spec)
			if err != nil {
				return err
			}
			if err := deliver(cs.idx, oc); err != nil {
				return err
			}
		}
	}
}

// Stats reports the replays forked and the golden cycles walked.
func (r *CursorReplayer) Stats() ReplayStats {
	return ReplayStats{Executed: r.Forks, FastForward: r.FastForward}
}

// Close is a no-op: the cursor attaches nothing to its simulators.
func (r *CursorReplayer) Close() {}

// one replays a single injection off the cursor. The replay simulator
// ends up in exactly the state oneRunBuf's restore-and-fast-forward
// produces — golden at the injection instant, pinout seeded with the
// golden transactions since the nearest snapshot — so finishRun's
// classification (window compare base, convergence hash scan, end
// cycle) is byte-identical to stream order.
func (r *CursorReplayer) one(spec fault.Spec) (RunOutcome, error) {
	base := nearestSnap(r.g.snaps, spec.Cycle)
	if spec.Cycle > base.cycle {
		r.StreamFF += spec.Cycle - base.cycle
	}

	// Position the cursor at the injection instant: keep walking when
	// it is behind the target with no snapshot nearer, restore from the
	// nearest snapshot on first use, on a backward jump across pulls,
	// or when a snapshot sits closer to the target than the cursor does
	// (sparse plans degenerate gracefully to stream-style restores).
	if !r.onPath || r.cursor.Cycles() > spec.Cycle || base.cycle > r.cursor.Cycles() {
		r.cursor.Restore(base.snap)
		r.onPath = true
	}
	for r.cursor.Cycles() < spec.Cycle {
		if !r.cursor.Step() {
			r.onPath = false
			return RunOutcome{}, fmt.Errorf("campaign: cursor stopped at %d before injection at %d (%v)",
				r.cursor.Cycles(), spec.Cycle, r.cursor.StopReason())
		}
		r.FastForward++
	}

	// Fork: hand the cursor's state to the replay simulator. Restore
	// deep-copies its source, so the cursor is untouched by whatever
	// the faulty replay does next.
	if ls, ok := r.cursor.(LiveSnapshotter); ok {
		r.replay.Restore(ls.LiveSnapshot())
	} else {
		r.replay.Restore(r.cursor.Snapshot())
	}
	r.Forks++
	obsCursorForks.Inc()

	// Seed the faulty pinout with the golden transactions between the
	// nearest snapshot and the injection instant — the prefix a stream
	// replay would have recorded while fast-forwarding — so window
	// compares span the identical transaction range.
	pin := r.buf.seedGolden(r.g, base.cycle, spec.Cycle)
	r.replay.SetPinout(pin)

	if err := applyFault(r.replay, spec); err != nil {
		return RunOutcome{}, err
	}
	return finishRun(r.replay, r.g, spec, r.cfg, base.cycle, pin)
}
