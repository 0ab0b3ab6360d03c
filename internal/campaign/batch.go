package campaign

// Bit-parallel lockstep replay: up to MaxLanes faulty machines per
// injection target ride one golden evaluation, each represented only by
// its sparse diff against the golden machine (a LaneSet, which the model
// feeds from hooks on its golden step). While a faulty machine takes
// every control decision the golden one takes — same branches, same
// addresses, same bus traffic — one golden tick advances every lane at
// once. Both models carry them as value lanes (package lanestore, with
// each model's hooks): corrupted data travels through registers,
// latches, flags, L1D and memory, and a lane peels only when its data
// would change a control outcome — a branch, a target, an address, a
// syscall, an instruction fetch — or, for a fault outside every value
// plane (an RTL control-latch flip, a forced latch bit), on its first
// tick. A peeled lane is finished on a scalar
// simulator rebuilt at the pre-tick cycle from a ring snapshot plus the
// lane's diff, with the pinout it emitted while riding, then classified by the
// exact finishRun tail the scalar engine uses. A lane that never peels
// retires at its convergence point, observation-window limit or the
// golden program end without a single private simulation cycle, and is
// classified by the same rule as finishRun (classify): its output and
// pinout are golden's with the lane's diffs applied.
//
// The unit of replay is one forward walk of the golden run. A grab — a
// contiguous run off the head of the unit's queue, sorted by injection
// instant (ReplayPool) — is walked once: a spec takes a free lane slot
// of its target's tracker when the walker reaches its instant and gives
// the slot back when it retires or peels, so the next pending spec reuses
// it. A spec that finds no free slot (or whose campaign already has
// Config.Lanes lanes in flight) is deferred to a follow-up walk over
// the leftovers. Stretches nobody rides are skipped through the nearest
// golden snapshot or stepped plain (the fast-forward share). Campaigns
// that share a golden run share the walk: one tracker per target (a
// model's store takes two side by side), every lane carrying the
// campaign it belongs to. A lane still peels exactly when its data
// decides control and is finished by the same tail, so classifications
// are byte-identical to the scalar path at any lane width and in any
// company; sharing changes only throughput. Every member of a walk
// rides lanes: a campaign that cannot (Lanes 1, a simulator without a
// lane surface) is replayed by the scalar stream replayer.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// MaxLanes is the lane capacity of one tracker: the most replays of one
// injection target a walk carries at once.
const MaxLanes = 64

// batchRingEvery is the golden snapshot stride while lanes ride: a
// peeled lane's scalar rebuild replays at most this many golden catch-up
// cycles. A stride S costs one recycled capture per S lockstep cycles
// plus S/2 catch-up cycles per peel; on the RTL windowed L1D campaign
// (0.75 µs a capture, 0.3 µs a cycle, one peel per 272 lockstep cycles)
// the sum is minimal near S = 38 and within 0.5% of a replay's CPU from
// 16 to 64 — measured flat there, 3% worse at 128. The
// microarchitectural model's counters put its minimum at the same place
// (0.6 µs a capture, 0.2 µs a cycle, one peel per 240 lockstep cycles on
// the windowed RF+L1D campaigns: S = 38, and 64 costs 0.005 µs a
// lockstep cycle more, under 1% of a replay's CPU), so both models share
// the one stride.
const batchRingEvery = 64

// batchPull caps one grab: a campaign contributes up to
// Config.Lanes*batchPull specs to it. Slots are recycled, so the grab is
// not bound by the lane count, and its specs are one contiguous stretch
// of the unit's cycle-sorted queue, so a smaller cap costs no re-walk of
// the timeline, only one more seek (a window and a snapshot stride at
// most, per grab). The cap bounds how long a goroutine holds a grab (a
// walk is replayed whole). A sequentially stopped campaign, which has
// issued a grab whole before its stop can be decided, is pulled one
// lane width at a time instead (Work.chunk).
const batchPull = 8

// BatchCapable is implemented by simulators that can ride value lanes
// over every injection target they have bits for: both models do, for
// the register file and the L1D data array, and the RTL model for its
// pipeline latches.
type BatchCapable interface {
	// AttachLanes builds one lane set per target, in order — each on a
	// lane group of the instance's store, at most lanestore.Groups — and
	// attaches them to this instance's hooks; DetachLanes takes them off.
	AttachLanes(targets []fault.Target) []LaneSet
	DetachLanes()

	// SnapshotInto captures like Simulator.Snapshot but may overwrite
	// old, a capture this simulator returned earlier that the caller has
	// finished with (nil allocates). The replayer's ring keeps only its
	// latest capture, so each one recycles the storage of the last.
	SnapshotInto(old Snapshot) Snapshot
}

// LaneSet is one target's lockstep tracker on a golden instance: up to
// MaxLanes faulty machines, each golden plus a diff.
type LaneSet interface {
	// Flip toggles, Force sets, one target bit of a lane (Simulator.Flip's
	// index space); a forced lane peels on its first read of a diff.
	Flip(lane, bit int) error
	Force(lane, bit, v int) error

	// BeginTick opens a golden step; Peeled then names the lanes that step
	// took out of lockstep (bit k = lane k) and Reason why.
	BeginTick()
	Peeled() uint64
	Reason(lane int) lanestore.PeelReason

	// Rebuild applies a lane's machine as it stood when the current step
	// began onto sim, an instance of the same factory holding golden's
	// state at that cycle. Retire drops a lane's diff.
	Rebuild(lane int, sim Simulator) error
	Retire(lane int)

	// Clean reports whether a lane's machine is golden's: identical state
	// digest and pinout. AppendDiverged appends the write-backs whose
	// payload differed on the lane (golden's transactions with the lane's
	// digests) and OutputDiffers whether its program output differs.
	Clean(lane int) bool
	AppendDiverged(lane int, buf []trace.Transaction) []trace.Transaction
	OutputDiffers(lane int) bool
}

// laneState is one in-flight replay occupying a lane slot. A slot is
// assigned whole, so a recycled one inherits nothing.
type laneState struct {
	m    *walkMember
	idx  int // plan index
	spec fault.Spec
	horizon
}

// laneTrack is one target's tracker and the replays in its slots.
type laneTrack struct {
	lanes LaneSet
	slots [MaxLanes]laneState
	busy  uint64 // occupied slots

	// persist marks the occupied slots carrying a persistent fault: the
	// only ones the walk must visit on every cycle (re-assertion).
	persist uint64
}

// walkMember is one campaign riding the walk: what classifies and
// delivers its lanes, and its share of the engine's account.
type walkMember struct {
	w       *Work
	tr      *laneTrack
	deliver func(idx int, oc RunOutcome) error

	// inFlight lanes since golden cycle `since`; laneCycles sums lanes in
	// flight over the current walk's lockstep cycles, onWalk marks that
	// the walk has carried one.
	inFlight   int
	since      uint64
	laneCycles uint64
	onWalk     bool

	stats ReplayStats
}

// BatchReplayer drives bit-parallel lockstep replay for one goroutine: a
// golden instance carrying the lane diffs of every campaign on the walk,
// and a scalar instance that finishes peeled lanes. Both must come from
// the campaigns' factory. It is single-goroutine; run one per worker.
type BatchReplayer struct {
	g      *Golden
	gold   Simulator
	ring   BatchCapable // gold, as the lane host and the ring capture's recycler
	scalar Simulator
	buf    replayBuf

	// Deprecated: nothing reads Stop. A walk never abandons a pull: on a
	// fused walk the pull carries other campaigns too, and outcomes past
	// a decided stop are cut by the collector anyway.
	Stop func() bool

	members []*walkMember
	tracks  []*laneTrack
	wbs     []trace.Transaction

	// onGolden marks that the golden instance's state lies on this golden
	// timeline: false at construction (a pooled sim may carry any state),
	// latched true by the first seek's restore.
	onGolden bool
	ringSnap Snapshot

	// The walk in progress: pend is the cycle-sorted pull, pend[next:]
	// still ahead of the walker; deferred reuses pend's storage behind
	// the read position for the specs that found no free lane; inFlight
	// counts occupied slots over all trackers.
	pend     []pulledSpec
	next     int
	deferred []pulledSpec
	inFlight int
}

// NewBatchReplayer builds a replayer for one campaign over one worker's
// simulator pair, or returns nil when the campaign does not ride lanes:
// cfg.Lanes <= 1, or a simulator that is not BatchCapable. Callers fall
// back to the scalar path on nil.
//
// Deprecated: drive engines through ReplayPool, which picks the engine.
func NewBatchReplayer(g *Golden, cfg Config, gold, scalar Simulator) *BatchReplayer {
	w := &Work{Golden: g, Config: cfg}
	if _, ok := gold.(BatchCapable); !ok || !w.lockstep() {
		return nil
	}
	return newBatchReplayer(gold, scalar, []*Work{w})
}

// newBatchReplayer builds the walk engine of campaigns sharing one
// golden run, every one riding lanes (Work.lockstep) over at most
// lanestore.Groups targets: one tracker per target, attached to gold.
func newBatchReplayer(gold, scalar Simulator, works []*Work) *BatchReplayer {
	bc := gold.(BatchCapable)
	r := &BatchReplayer{g: works[0].Golden, gold: gold, ring: bc, scalar: scalar}
	var targets []fault.Target
	byTarget := make(map[fault.Target]*laneTrack, lanestore.Groups)
	for _, w := range works {
		m := &walkMember{w: w, deliver: w.Deliver}
		r.members = append(r.members, m)
		if m.tr = byTarget[w.Config.Target]; m.tr == nil {
			m.tr = &laneTrack{}
			byTarget[w.Config.Target] = m.tr
			r.tracks = append(r.tracks, m.tr)
			targets = append(targets, w.Config.Target)
		}
	}
	for i, lanes := range bc.AttachLanes(targets) {
		r.tracks[i].lanes = lanes
	}
	gold.SetPinout(nil) // the walker retraces golden; nothing observes its pins
	return r
}

// Close detaches the lane trackers from the golden instance.
func (r *BatchReplayer) Close() { r.ring.DetachLanes() }

// memberStats is the account per campaign, in the order they were given.
func (r *BatchReplayer) memberStats() []ReplayStats {
	sts := make([]ReplayStats, len(r.members))
	for i, m := range r.members {
		sts[i] = m.stats
	}
	return sts
}

// Replay drains one campaign's plan through the engine: it pulls one
// chunk of specs from next at a time and walks the golden run once per
// pull (plus a follow-up walk when lanes ran out), delivering every
// outcome through deliver in whatever order lanes finish — the collector
// is order-agnostic.
//
// Deprecated: drive engines through ReplayPool, which pulls for them.
func (r *BatchReplayer) Replay(next func() (idx int, spec fault.Spec, ok bool), deliver func(idx int, oc RunOutcome) error) error {
	m := r.members[0]
	m.deliver = deliver
	var pull []pulledSpec
	for {
		pull = pullSpecs(next, m.w.chunk(), 0, pull[:0])
		if len(pull) == 0 {
			return nil
		}
		sortByCycle(pull)
		if err := r.replayPulled(pull); err != nil {
			return err
		}
	}
}

// replayPulled replays one grab, cycle-sorted, each item tagged with the
// campaign it belongs to: walked once, and walked again over whatever a
// walk had to defer until nothing is left. items is overwritten within
// its own length.
func (r *BatchReplayer) replayPulled(items []pulledSpec) error {
	for len(items) > 0 {
		var err error
		if items, err = r.walk(items); err != nil {
			return err
		}
	}
	return nil
}

// walk is one forward pass of the golden run over pend: it reaches each
// stretch lanes ride by the shortest way (seek), hands lane slots to the
// specs whose instant has come, re-asserts persistent faults, retires
// lanes at their convergence point / window limit / golden end and peels
// the ones whose data decided control. It returns the specs it could not
// seat, still cycle-sorted, in pend's storage.
func (r *BatchReplayer) walk(pend []pulledSpec) (deferred []pulledSpec, err error) {
	r.pend, r.next, r.deferred = pend, 0, pend[:0]
	obsBatchWalks.Inc()
	var lockstep uint64
	defer func() { r.settle(lockstep) }()

	// nextScan is the earliest cycle at which anything but riding along
	// is due — a pending spec's instant, a lane's golden hash point or
	// limit. Cycles before it skip the scan: visiting every lane on every
	// cycle was a fifth of a windowed microarch replay's time and a tenth
	// of an RTL one's. nextRing is when the ring wants its next capture.
	var nextScan, nextRing uint64
	for {
		if r.inFlight == 0 {
			if r.next == len(r.pend) {
				return r.deferred, nil
			}
			head := r.pend[r.next]
			m := r.members[head.member]
			n, err := r.seek(head.spec.Cycle)
			m.stats.FastForward += n
			obsFFCycles.Add(n)
			if err != nil {
				return nil, m.w.wrap(err)
			}
			nextScan, nextRing = head.spec.Cycle, head.spec.Cycle
		}
		c := r.gold.Cycles()
		// Re-assert the still-active persistent faults before the edge —
		// the mirror of the scalar loop's post-Step applyFault (design
		// writes must not heal the bit).
		for _, tr := range r.tracks {
			for set := tr.persist; set != 0; set &= set - 1 {
				k := bits.TrailingZeros64(set)
				if st := &tr.slots[k]; st.spec.ActiveAt(c) {
					if err := applyLaneFault(tr.lanes, k, st.spec); err != nil {
						return nil, st.m.w.wrap(err)
					}
				}
			}
		}
		if c >= nextScan {
			if nextScan, err = r.scan(c); err != nil {
				return nil, err
			}
			if r.inFlight == 0 {
				continue
			}
		}
		if c >= nextRing {
			r.ringSnap = r.ring.SnapshotInto(r.ringSnap)
			nextRing = c + batchRingEvery
		}
		for _, tr := range r.tracks {
			tr.lanes.BeginTick()
		}
		stepped := r.gold.Step()
		lockstep += r.gold.Cycles() - c
		for _, tr := range r.tracks {
			if peeled := tr.lanes.Peeled(); peeled != 0 {
				if err := r.peelLanes(tr, peeled, c); err != nil {
					return nil, err
				}
			}
		}
		if !stepped {
			// Golden program end: every lane still riding took golden's
			// control to its stop, and ends where golden ends.
			end := r.gold.Cycles()
			for _, tr := range r.tracks {
				for set := tr.busy; set != 0; set &= set - 1 {
					if err := r.retireAt(tr, bits.TrailingZeros64(set), r.gold.StopReason(), end); err != nil {
						return nil, err
					}
				}
			}
			if r.next < len(r.pend) {
				head := r.pend[r.next]
				return nil, r.members[head.member].w.wrap(stoppedBefore(r.gold, head.spec.Cycle))
			}
		}
	}
}

// seek brings the golden instance, no lane riding, to cycle `to` and
// returns the cycles it stepped. The instance's own state always lies on
// the golden timeline (lane corruption lives in the side diffs), so it
// keeps walking forward whenever it sits at or before the target with no
// snapshot nearer; it restores only on a backward jump or when a golden
// snapshot lies between it and the target.
func (r *BatchReplayer) seek(to uint64) (stepped uint64, err error) {
	base := nearestSnap(r.g.snaps, to)
	if cur := r.gold.Cycles(); !r.onGolden || cur > to || cur < base.cycle {
		r.gold.Restore(base.snap)
		r.onGolden = true
	}
	from := r.gold.Cycles()
	err = stepTo(r.gold, to)
	return r.gold.Cycles() - from, err
}

// scan is the walk's per-lane work at golden cycle c: retire the lanes
// at a hash point they have reconverged by or at their limit, then seat
// the pending specs whose instant is c in the free slots — the ones just
// vacated included. It returns the next cycle at which it is needed.
func (r *BatchReplayer) scan(c uint64) (next uint64, err error) {
	g := r.g
	next = ^uint64(0)
	for _, tr := range r.tracks {
		for set := tr.busy; set != 0; set &= set - 1 {
			k := bits.TrailingZeros64(set)
			st := &tr.slots[k]
			// Convergence retire: at a golden hash point with the fault
			// inactive, a clean lane's state digest and pinout prefix are
			// golden's, which is the scalar convergence exit's double
			// match. Checked before the limit, as runTail reaches the hash
			// at the limit cycle before its loop condition does.
			if st.at(c) {
				if !st.spec.ActiveAt(c) && tr.lanes.Clean(k) {
					if err := r.retire(tr, k, RunOutcome{Spec: st.spec, Class: ClassMasked, EndCycle: c, Converged: true}); err != nil {
						return 0, err
					}
					continue
				}
				st.hashes = st.hashes[1:]
			}
			// Window-limit retire: an unpeeled lane reaching its limit
			// took golden's control through the whole observation window.
			if c >= st.limit {
				if err := r.retireAt(tr, k, refsim.StopLimit, st.limit); err != nil {
					return 0, err
				}
				continue
			}
			next = min(next, st.next())
		}
	}
	for ; r.next < len(r.pend) && r.pend[r.next].spec.Cycle == c; r.next++ {
		p := r.pend[r.next]
		m := r.members[p.member]
		tr := m.tr
		if m.inFlight == m.w.Config.Lanes || tr.busy == ^uint64(0) {
			r.deferred = append(r.deferred, p)
			m.stats.Deferred++
			obsBatchDeferred.Inc()
			continue
		}
		k := bits.TrailingZeros64(^tr.busy)
		st := &tr.slots[k]
		*st = laneState{m: m, idx: p.idx, spec: p.spec, horizon: g.horizon(p.spec, m.w.Config)}
		tr.busy |= 1 << uint(k)
		if p.spec.Model.Persistent() {
			tr.persist |= 1 << uint(k)
		}
		r.carry(m, c, +1)
		if !m.onWalk {
			m.onWalk = true
			m.stats.Walks++
		}
		if err := applyLaneFault(tr.lanes, k, p.spec); err != nil {
			return 0, m.w.wrap(err)
		}
		next = min(next, st.next())
	}
	if r.next < len(r.pend) {
		next = min(next, r.pend[r.next].spec.Cycle)
	}
	return next, nil
}

// carry moves a campaign's lanes in flight by d at golden cycle c,
// closing the account of the lane-cycles carried since the last change.
func (r *BatchReplayer) carry(m *walkMember, c uint64, d int) {
	m.laneCycles += uint64(m.inFlight) * (c - m.since)
	m.since = c
	m.inFlight += d
	r.inFlight += d
}

// vacate returns a finished lane's slot to the tracker and counts the
// replay executed: its diffs are dropped, so the next occupant starts
// golden.
func (r *BatchReplayer) vacate(tr *laneTrack, k int) {
	tr.lanes.Retire(k)
	tr.busy &^= 1 << uint(k)
	tr.persist &^= 1 << uint(k)
	m := tr.slots[k].m
	r.carry(m, r.gold.Cycles(), -1)
	m.stats.Executed++
}

// retireAt finishes a lane that never peeled at cycle end, where its
// machine stopped as stop: classified like a scalar tail, from the
// lane's output and the write-backs its diff made diverge.
func (r *BatchReplayer) retireAt(tr *laneTrack, k int, stop refsim.StopReason, end uint64) error {
	st := &tr.slots[k]
	base := nearestSnap(r.g.snaps, st.spec.Cycle).cycle
	r.wbs = tr.lanes.AppendDiverged(k, r.wbs[:0])
	oc := classify(r.g, st.spec, st.m.w.Config, stop, end,
		func() bool { return tr.lanes.OutputDiffers(k) },
		func(upto uint64) bool {
			for _, t := range r.wbs {
				if t.Cycle > base && t.Cycle <= upto {
					return false
				}
			}
			return true
		})
	return r.retire(tr, k, oc)
}

// retire finishes a lane that never peeled, delivering its outcome.
func (r *BatchReplayer) retire(tr *laneTrack, k int, oc RunOutcome) error {
	st := &tr.slots[k]
	r.vacate(tr, k)
	st.m.stats.Batched++
	obsBatchedRuns.Inc()
	return st.m.w.wrap(st.m.deliver(st.idx, oc))
}

// peelLanes finishes every lane of one tracker the just-stepped tick
// peeled: each is rebuilt on the scalar simulator at the pre-tick cycle
// and classified by the exact scalar tail. Two trackers peeling in one
// tick rebuild from the same ring capture, one lane after the other.
func (r *BatchReplayer) peelLanes(tr *laneTrack, peeled uint64, preTick uint64) error {
	for ; peeled != 0; peeled &= peeled - 1 {
		k := bits.TrailingZeros64(peeled)
		st := &tr.slots[k]
		oc, err := r.peelOne(tr, k, preTick)
		if err != nil {
			return st.m.w.wrap(err)
		}
		reason := tr.lanes.Reason(k)
		r.vacate(tr, k)
		st.m.stats.Peeled++
		obsBatchPeeled.Inc()
		st.m.stats.Peels[reason]++
		obsBatchPeels[reason].Inc()
		if err := st.m.deliver(st.idx, oc); err != nil {
			return st.m.w.wrap(err)
		}
	}
	return nil
}

// peelOne rebuilds one peeled lane's machine on the scalar simulator —
// ring snapshot, golden catch-up to the pre-tick cycle, lane diff — and
// hands it to finishRun with the golden transaction prefix the lane
// emitted while it rode, so the classification is the one the scalar
// engine would have produced from injection onward.
func (r *BatchReplayer) peelOne(tr *laneTrack, lane int, preTick uint64) (RunOutcome, error) {
	g, s, st := r.g, r.scalar, &tr.slots[lane]
	s.SetPinout(nil)
	s.Restore(r.ringSnap)
	private0 := s.Cycles()
	defer func() {
		n := s.Cycles() - private0
		st.m.stats.Private += n
		obsPrivateCycles.Add(n)
	}()
	if err := stepTo(s, preTick); err != nil {
		return RunOutcome{}, err
	}
	if err := tr.lanes.Rebuild(lane, s); err != nil {
		return RunOutcome{}, err
	}
	// The lane's pinout while it rode was golden's with its diverged
	// write-backs' digests: replay records transactions from the
	// snapshot nearest the injection (exclusive), so seed the faulty
	// capture with that slice up to the pre-tick cycle. Transactions are
	// stamped strictly after the cycle a tick left, so the scalar tail
	// appends from preTick+1 with no overlap.
	base := nearestSnap(g.snaps, st.spec.Cycle)
	pin := r.buf.seedGolden(g, base.cycle, preTick)
	r.wbs = tr.lanes.AppendDiverged(lane, r.wbs[:0])
	if err := substituteDigests(pin, r.wbs, preTick); err != nil {
		return RunOutcome{}, err
	}
	s.SetPinout(pin)
	return finishRun(s, g, st.spec, st.m.w.Config, base.cycle, pin)
}

// settle closes a walk's account: the lockstep cycles it stepped are
// split between the campaigns by the lane-cycles each carried (the
// remainder of the integer split goes to the one that carried most), so
// the per-campaign numbers add up to what the walk stepped.
func (r *BatchReplayer) settle(lockstep uint64) {
	var total uint64
	for _, m := range r.members {
		total += m.laneCycles
	}
	obsLockstepCycles.Add(lockstep)
	obsBatchLaneCycles.Add(total)
	rest, top := lockstep, r.members[0]
	for _, m := range r.members {
		if total > 0 {
			share := lockstep * m.laneCycles / total
			m.stats.Lockstep += share
			rest -= share
		}
		if m.laneCycles > top.laneCycles {
			top = m
		}
		m.stats.LaneCycles += m.laneCycles
		m.laneCycles, m.onWalk = 0, false
	}
	top.stats.Lockstep += rest
}

// substituteDigests gives the golden write-backs in pin the digests a
// lane's diff made them carry, for every diverged one up to cycle upto.
func substituteDigests(pin *trace.Pinout, wbs []trace.Transaction, upto uint64) error {
	for _, w := range wbs {
		if w.Cycle > upto {
			continue
		}
		txns := pin.Txns
		i := sort.Search(len(txns), func(i int) bool { return txns[i].Cycle >= w.Cycle })
		for i < len(txns) && txns[i].Cycle == w.Cycle && (txns[i].Addr != w.Addr || txns[i].Kind != w.Kind) {
			i++
		}
		if i == len(txns) || txns[i].Cycle != w.Cycle {
			return fmt.Errorf("campaign: lane write-back of %#x at %d is not in the golden pinout", w.Addr, w.Cycle)
		}
		txns[i].Digest = w.Digest
	}
	return nil
}

// applyLaneFault is applyFault's per-lane form.
func applyLaneFault(lanes LaneSet, lane int, spec fault.Spec) error {
	lo, hi := spec.BitSpan()
	for b := lo; b < hi; b++ {
		var err error
		if spec.Model.Persistent() {
			err = lanes.Force(lane, b, spec.Stuck)
		} else {
			err = lanes.Flip(lane, b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
