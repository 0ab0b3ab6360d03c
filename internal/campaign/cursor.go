package campaign

// What is left of the golden cursor once the walk took over its fork
// path (BatchReplayer.fork in batch.go): the capability a fork restores
// from, and the deprecated names that once selected the cursor.

// Sched once selected the replay execution schedule. The engine is now
// chosen by Config.Lanes alone.
//
// Deprecated: Sched selects nothing.
type Sched int

// The two former schedules.
//
// Deprecated: they select nothing.
const (
	SchedStream Sched = iota
	SchedCursor
)

// SnapPolicy once selected where the golden run's snapshots are placed.
// Snapshots are now always taken every SnapshotEvery cycles.
//
// Deprecated: SnapPolicy selects nothing.
type SnapPolicy int

// The two former snapshot policies.
//
// Deprecated: they select nothing.
const (
	SnapStride SnapPolicy = iota
	SnapQuantile
)

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

// CursorReplayer is the lockstep walk, whose members that ride no lanes
// fork off it.
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
