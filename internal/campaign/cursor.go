package campaign

// What is left of the golden cursor: the deprecated names that once
// selected it, kept while the benchmark compiles against them.

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

// CursorReplayer is the lockstep walk.
//
// Deprecated: drive engines through ReplayPool.
type CursorReplayer = BatchReplayer

// NewCursorReplayer is NewBatchReplayer.
//
// Deprecated: drive engines through ReplayPool.
func NewCursorReplayer(g *Golden, cfg Config, cursor, replay Simulator) *CursorReplayer {
	return NewBatchReplayer(g, cfg, cursor, replay)
}
