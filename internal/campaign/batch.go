package campaign

// Bit-parallel lockstep replay: up to MaxLanes faulty machines ride one
// golden evaluation, each represented only by its sparse state diff
// against the golden machine (internal/lifetime's Lanes, the one tracker
// both models feed from their read and write hooks). While no
// diffed word has been consumed by the design, a faulty machine's entire
// behavior — every signal, register write, bus transaction and output
// byte — is the golden machine's, so one golden tick advances every lane
// at once. The moment the design reads a word a lane has corrupted, that
// lane's future genuinely diverges: it is peeled out of the batch and
// finished on a scalar simulator rebuilt at the pre-tick cycle from a
// ring snapshot plus the lane's reconstructed diff, then classified by
// the exact finishRun tail the scalar engine uses. Lanes that never peel
// can only ever be Masked — they retire at their convergence point,
// observation-window limit or the golden program end without a single
// private simulation cycle.
//
// Groups are cycle-clustered: the replayer pulls several batches' worth
// of specs, sorts them by injection instant and packs adjacent instants
// into one group, so the golden span a group replays stays a small slice
// of the run instead of the whole program. Classifications are
// byte-identical to the scalar path at any lane width; batching changes
// only throughput.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/lifetime"
)

// MaxLanes is the lane capacity of one replay batch: the lane tracker's.
const MaxLanes = lifetime.MaxLanes

// batchRingEvery is the in-group golden snapshot stride: a peeled lane's
// scalar rebuild replays at most this many golden catch-up cycles. A
// stride S costs one recycled capture per S lockstep cycles plus S/2
// catch-up cycles per peel; on the RTL windowed L1D campaign (0.75 µs a
// capture, 0.3 µs a cycle, one peel per 272 lockstep cycles) the sum is
// minimal near S = 38 and within 0.5% of a replay's CPU from 16 to 64 —
// measured flat there, 3% worse at 128. The microarchitectural model's
// counters put its minimum at the same place (0.6 µs a capture, 0.2 µs a
// cycle, one peel per 240 lockstep cycles on the windowed RF+L1D
// campaigns: S = 38, and 64 costs 0.005 µs a lockstep cycle more, under
// 1% of a replay's CPU), so both models share the one stride.
const batchRingEvery = 64

// batchPull is how many groups' worth of specs one Replay pull drains
// from the plan before cycle-sorting: larger pulls cluster injection
// instants more tightly (smaller golden span per group) at the cost of
// coarser work distribution across workers.
const batchPull = 8

// BatchCapable is implemented by simulators that can ride lockstep lanes
// over an injection target: both models do, for the register file and
// the L1D data array (not for the RTL pipeline latches).
type BatchCapable interface {
	// AttachLanes attaches a fresh lane tracker over target t and
	// returns it, or ok=false when the target has no lockstep surface.
	// Lane indices are dense [0, MaxLanes); the tracker's flat bit space
	// is the one Simulator.Flip uses for the target. DetachLanes
	// disconnects whatever tracker is attached.
	AttachLanes(t fault.Target) (lanes *lifetime.Lanes, ok bool)
	DetachLanes()

	// SnapshotInto captures like Simulator.Snapshot but may overwrite
	// old, a capture this simulator returned earlier that the caller has
	// finished with (nil allocates). The replayer's ring keeps only its
	// latest capture, so each one recycles the storage of the last.
	SnapshotInto(old Snapshot) Snapshot
}

// laneState is one in-flight replay occupying a batch lane.
type laneState struct {
	idx      int // plan index
	spec     fault.Spec
	limit    uint64 // observation-window limit (hang budget when run-to-end)
	hi       int    // next golden hash index (convergence exit)
	injected bool
	done     bool
}

// BatchReplayer drives bit-parallel lockstep replay for one worker: a
// golden instance carrying the lane diffs, and a scalar instance that
// finishes peeled lanes. Both must come from the campaign's factory. It
// is single-goroutine; run one replayer per worker.
type BatchReplayer struct {
	g      *Golden
	cfg    Config
	gold   Simulator
	ring   BatchCapable // gold, as the lane host and the ring capture's recycler
	scalar Simulator
	lanes  *lifetime.Lanes
	buf    replayBuf

	states []laneState
	pull   []pulledSpec

	// onGolden marks that the golden instance's state lies on this
	// campaign's golden timeline: false at construction (a pooled sim
	// may carry any state), latched true by the first group's restore.
	onGolden bool

	ringSnap Snapshot

	// persist marks the in-flight lanes carrying a persistent fault: the
	// only ones the loop must visit on every cycle (re-assertion).
	persist uint64

	// Accounting, summed into Result by the caller: Batched counts
	// replays retired entirely in lockstep, Peeled those finished on
	// the scalar tail; LaneSum/Groups yield mean lane occupancy.
	// FastForward counts golden catch-up cycles stepped before each
	// group's earliest injection — the pre-injection work the cursor
	// schedule shrinks by feeding cycle-contiguous groups to a golden
	// instance that keeps walking forward instead of restoring.
	// Lockstep counts the golden cycles groups rode together, Private
	// the cycles peeled lanes then simulated alone (ring catch-up plus
	// faulty tail): together with FastForward, every cycle the engine
	// stepped.
	Batched     int
	Peeled      int
	Groups      int
	LaneSum     int
	FastForward uint64
	Lockstep    uint64
	Private     uint64
}

// NewBatchReplayer builds a replayer over one worker's simulator pair,
// or returns nil when batching does not apply: lanes disabled
// (cfg.Lanes <= 1), a simulator without a batch surface, or a target it
// cannot track (pipeline latches are read combinationally every cycle,
// so a latch fault would peel on its first tick). Callers fall back to
// the scalar path on nil.
func NewBatchReplayer(g *Golden, cfg Config, gold, scalar Simulator) *BatchReplayer {
	if cfg.Lanes <= 1 {
		return nil
	}
	bc, ok := gold.(BatchCapable)
	if !ok {
		return nil
	}
	lanes, ok := bc.AttachLanes(cfg.Target)
	if !ok {
		return nil
	}
	gold.SetPinout(nil)
	return &BatchReplayer{
		g: g, cfg: cfg, gold: gold, ring: bc, scalar: scalar, lanes: lanes,
		states: make([]laneState, 0, cfg.Lanes),
		pull:   make([]pulledSpec, 0, cfg.Lanes*batchPull),
	}
}

// Close detaches the lane tracker from the golden instance.
func (r *BatchReplayer) Close() { r.ring.DetachLanes() }

// Stats reports the replayer's accounting in the pool's common form.
func (r *BatchReplayer) Stats() ReplayStats {
	return ReplayStats{
		Executed: r.Batched + r.Peeled,
		Batched:  r.Batched, Peeled: r.Peeled, Groups: r.Groups, LaneSum: r.LaneSum,
		FastForward: r.FastForward, Lockstep: r.Lockstep, Private: r.Private,
	}
}

func (r *BatchReplayer) chunk() int { return r.cfg.Lanes * batchPull }

// Replay drains the plan through the batch engine: it pulls up to
// Lanes*batchPull specs from next, sorts them by injection instant,
// packs adjacent instants into groups of at most Lanes and replays each
// group in lockstep, delivering every outcome through deliver (in
// whatever order lanes finish — the collector is order-agnostic).
func (r *BatchReplayer) Replay(next func() (idx int, spec fault.Spec, ok bool), deliver func(idx int, oc RunOutcome) error) error {
	ff0 := r.FastForward
	defer func() { obsFFCycles.Add(r.FastForward - ff0) }()
	for {
		r.pull = pullSpecs(next, r.chunk(), r.pull[:0])
		if len(r.pull) == 0 {
			return nil
		}
		sortByCycle(r.pull)
		for off := 0; off < len(r.pull); off += r.cfg.Lanes {
			end := off + r.cfg.Lanes
			if end > len(r.pull) {
				end = len(r.pull)
			}
			if err := r.replayGroup(r.pull[off:end], deliver); err != nil {
				return err
			}
		}
	}
}

// replayGroup runs one lane group to completion: golden catch-up to the
// earliest injection, then a lockstep loop that injects lanes at their
// instants, re-asserts persistent faults, retires lanes at their
// convergence point / window limit / golden end, and peels lanes whose
// corruption the design consumed. group must be cycle-sorted.
func (r *BatchReplayer) replayGroup(group []pulledSpec, deliver func(int, RunOutcome) error) error {
	g, cfg := r.g, r.cfg
	first := group[0].spec.Cycle
	base := nearestSnap(g.snaps, first)
	// The golden instance's own state always lies on the golden
	// timeline (lane corruption lives in the side diffs), so under the
	// cursor schedule it keeps walking forward into the next
	// cycle-clustered group whenever it sits at or before the target
	// with no snapshot nearer; it restores only on a backward jump or
	// when a snapshot would skip ahead of it.
	if cur := r.gold.Cycles(); !r.onGolden || cfg.Sched != SchedCursor || cur > first || cur < base.cycle {
		r.gold.Restore(base.snap)
		r.onGolden = true
	}
	for r.gold.Cycles() < first {
		if !r.gold.Step() {
			return fmt.Errorf("campaign: replay stopped at %d before injection at %d (%v)",
				r.gold.Cycles(), first, r.gold.StopReason())
		}
		r.FastForward++
	}

	earlyStop := cfg.EarlyStop && len(g.hashes) > 0
	r.states = r.states[:0]
	for _, ps := range group {
		limit := g.hangBudget()
		if cfg.Window > 0 {
			limit = ps.spec.Cycle + cfg.Window
		}
		st := laneState{idx: ps.idx, spec: ps.spec, limit: limit}
		if earlyStop {
			// First hash point strictly after the injection instant,
			// exactly as runConvergent seeds its scan.
			st.hi = sort.Search(len(g.hashes), func(i int) bool { return g.hashes[i].cycle > ps.spec.Cycle })
		}
		r.states = append(r.states, st)
	}
	r.Groups++
	r.LaneSum += len(group)
	obsBatchGroups.Inc()
	obsBatchLaneSlots.Add(uint64(len(group)))

	remaining := len(r.states)
	r.persist = 0
	nextRing := r.gold.Cycles()
	// nextScan is the earliest cycle at which some lane has anything to
	// do besides riding along — be injected, meet a golden hash point or
	// reach its limit. Cycles before it skip the lane scan: walking 64
	// lane records on every cycle was a fifth of a windowed microarch
	// replay's time and a tenth of an RTL one's.
	nextScan := first
	lockstep0 := r.gold.Cycles()
	defer func() {
		n := r.gold.Cycles() - lockstep0
		r.Lockstep += n
		obsLockstepCycles.Add(n)
	}()
	for remaining > 0 {
		c := r.gold.Cycles()
		if c >= nextRing {
			r.ringSnap = r.ring.SnapshotInto(r.ringSnap)
			nextRing = c + batchRingEvery
		}
		// Re-assert the still-active persistent faults before the edge —
		// the mirror of the scalar loop's post-Step applyFault (design
		// writes must not heal the bit).
		for m := r.persist; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			if st := &r.states[k]; st.spec.ActiveAt(c) {
				if err := r.applyLaneFault(k, st.spec); err != nil {
					return err
				}
			}
		}
		if c >= nextScan {
			var err error
			if nextScan, err = r.scanLanes(c, earlyStop, deliver, &remaining); err != nil {
				return err
			}
			if remaining == 0 {
				break
			}
		}
		r.lanes.BeginTick()
		stepped := r.gold.Step()
		if peeled := r.lanes.Peeled(); peeled != 0 {
			if err := r.peelLanes(peeled, c, deliver, &remaining); err != nil {
				return err
			}
		}
		if !stepped {
			// Golden program end: every still-batched lane retraced
			// the fault-free run to its stop — Masked at either
			// observation point, ending where golden ends.
			endCycle := r.gold.Cycles()
			for k := range r.states {
				st := &r.states[k]
				if st.done {
					continue
				}
				if !st.injected {
					return fmt.Errorf("campaign: replay stopped at %d before injection at %d (%v)",
						endCycle, st.spec.Cycle, r.gold.StopReason())
				}
				if err := r.retire(k, RunOutcome{Spec: st.spec, Class: ClassMasked, EndCycle: endCycle}, deliver, &remaining); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// scanLanes is the lockstep loop's per-lane work at golden cycle c:
// inject the lanes whose instant has come, retire the ones at a hash
// point they have reconverged by or at their limit. It returns the next
// cycle at which any lane needs it again.
func (r *BatchReplayer) scanLanes(c uint64, earlyStop bool, deliver func(int, RunOutcome) error, remaining *int) (next uint64, err error) {
	g := r.g
	next = ^uint64(0)
	for k := range r.states {
		st := &r.states[k]
		if st.done {
			continue
		}
		if !st.injected {
			if st.spec.Cycle != c {
				next = min(next, st.spec.Cycle)
				continue
			}
			if err := r.applyLaneFault(k, st.spec); err != nil {
				return 0, err
			}
			st.injected = true
			if st.spec.Model.Persistent() {
				r.persist |= 1 << uint(k)
			}
		} else {
			// Convergence retire: at a golden hash point with the
			// fault inactive, an empty diff means the lane's state IS
			// golden (and its pinout prefix trivially matches), which
			// is the scalar convergence exit's double match. Checked
			// before the limit, as runConvergent reaches the hash at
			// the limit cycle before its loop condition does.
			if earlyStop {
				for st.hi < len(g.hashes) && g.hashes[st.hi].cycle < c {
					st.hi++
				}
				if st.hi < len(g.hashes) && g.hashes[st.hi].cycle == c {
					if !st.spec.ActiveAt(c) && r.lanes.Clean(k) {
						if err := r.retire(k, RunOutcome{Spec: st.spec, Class: ClassMasked, EndCycle: c, Converged: true}, deliver, remaining); err != nil {
							return 0, err
						}
						continue
					}
					st.hi++
				}
			}
			// Window-limit retire: an unpeeled lane reaching its limit
			// deviated nowhere inside the observation window — Masked,
			// as the scalar window compare would conclude.
			if c >= st.limit {
				if err := r.retire(k, RunOutcome{Spec: st.spec, Class: ClassMasked, EndCycle: st.limit}, deliver, remaining); err != nil {
					return 0, err
				}
				continue
			}
		}
		next = min(next, st.limit)
		if earlyStop && st.hi < len(g.hashes) {
			next = min(next, g.hashes[st.hi].cycle)
		}
	}
	return next, nil
}

// retire finishes a lane that never peeled, delivering its (always
// Masked) outcome and recycling the lane slot's diffs.
func (r *BatchReplayer) retire(k int, oc RunOutcome, deliver func(int, RunOutcome) error, remaining *int) error {
	st := &r.states[k]
	r.lanes.Retire(k)
	r.persist &^= 1 << uint(k)
	st.done = true
	*remaining--
	r.Batched++
	obsBatchedRuns.Inc()
	return deliver(st.idx, oc)
}

// peelLanes finishes every lane the just-stepped tick peeled: each is
// rebuilt on the scalar simulator at the pre-tick cycle and classified
// by the exact scalar tail.
func (r *BatchReplayer) peelLanes(peeled uint64, preTick uint64, deliver func(int, RunOutcome) error, remaining *int) error {
	for m := peeled; m != 0; {
		k := bits.TrailingZeros64(m)
		m &^= 1 << uint(k)
		st := &r.states[k]
		oc, err := r.peelOne(k, st, preTick)
		if err != nil {
			return err
		}
		r.lanes.Retire(k)
		r.persist &^= 1 << uint(k)
		st.done = true
		*remaining--
		r.Peeled++
		obsBatchPeeled.Inc()
		if err := deliver(st.idx, oc); err != nil {
			return err
		}
	}
	return nil
}

// peelOne rebuilds one peeled lane's machine on the scalar simulator —
// ring snapshot, golden catch-up to the pre-tick cycle, lane diff — and
// hands it to finishRun with the golden transaction prefix the lane
// emitted while batched, so the classification is the one the scalar
// engine would have produced from injection onward.
func (r *BatchReplayer) peelOne(lane int, st *laneState, preTick uint64) (RunOutcome, error) {
	g, s := r.g, r.scalar
	s.SetPinout(nil)
	s.Restore(r.ringSnap)
	private0 := s.Cycles()
	defer func() {
		n := s.Cycles() - private0
		r.Private += n
		obsPrivateCycles.Add(n)
	}()
	for s.Cycles() < preTick {
		if !s.Step() {
			return RunOutcome{}, fmt.Errorf("campaign: peel catch-up stopped at %d before %d (%v)",
				s.Cycles(), preTick, s.StopReason())
		}
	}
	var flipErr error
	r.lanes.PeelDiff(lane, func(bit int) {
		if flipErr == nil {
			flipErr = s.Flip(r.cfg.Target, bit)
		}
	})
	if flipErr != nil {
		return RunOutcome{}, flipErr
	}
	// The lane's pinout while batched was golden's: replay records
	// transactions from the snapshot nearest the injection (exclusive),
	// so seed the faulty capture with that golden slice up to the
	// pre-tick cycle. Transactions are stamped strictly after the cycle
	// a tick left, so the scalar tail appends from preTick+1 with no
	// overlap.
	base := nearestSnap(g.snaps, st.spec.Cycle)
	pin := r.buf.seedGolden(g, base.cycle, preTick)
	s.SetPinout(pin)
	return finishRun(s, g, st.spec, r.cfg, base.cycle, pin)
}

// applyLaneFault is applyFault's per-lane form.
func (r *BatchReplayer) applyLaneFault(lane int, spec fault.Spec) error {
	lo, hi := spec.BitSpan()
	for b := lo; b < hi; b++ {
		var err error
		if spec.Model.Persistent() {
			err = r.lanes.Force(lane, b, spec.Stuck)
		} else {
			err = r.lanes.Flip(lane, b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
