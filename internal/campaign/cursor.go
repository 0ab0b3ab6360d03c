package campaign

// Replay scheduling: execution order as an engine-level degree of
// freedom.
//
// The in-order outcome collector (seqStop) consumes outcomes strictly
// in plan order no matter when they arrive, so sequential stopping,
// convergence exits, pruning fanout and checkpoints all decide over the
// same in-order prefix under any execution schedule. That makes replay
// order free to optimise: SchedCursor hands a campaign that rides no
// lanes to the lockstep walk anyway, which sorts each pull by injection
// cycle, advances one golden instance monotonically along the timeline
// and forks each replay off it at its injection instant (restore the
// walker's state into the scalar instance). Inter-injection golden
// cycles are then simulated once per pull instead of once per replay,
// eliminating the dominant fast-forward cost of the scalar stream
// engine while classifications and stopping indices stay byte-identical
// to SchedStream.

import "fmt"

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
	// walk, paying inter-injection golden cycles once per pull instead
	// of once per replay. Classifications, stopping indices and
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
// walk's fork uses it to hand its golden instance's state straight to
// the scalar instance's deep-copying Restore without paying a full
// Snapshot allocation per fork; simulators without it fall back to
// Snapshot().
type LiveSnapshotter interface {
	LiveSnapshot() Snapshot
}

// CursorReplayer is the engine NewReplayer builds for SchedCursor
// campaigns: the lockstep walk, whose members that ride no lanes fork
// off it.
//
// Deprecated: use BatchReplayer.
type CursorReplayer = BatchReplayer

// NewCursorReplayer builds the walk over golden artifacts g for one
// campaign, riding lanes where cfg and the simulators allow and forking
// every replay off the walk where they do not. cursor and replay must
// come from the same factory as the golden run.
func NewCursorReplayer(g *Golden, cfg Config, cursor, replay Simulator) *CursorReplayer {
	return newBatchReplayer(cursor, replay, []*Work{{Golden: g, Config: cfg}})
}
