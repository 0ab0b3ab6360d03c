// Package lifetime records the access behavior of a simulator's storage
// structures along the fault-free (golden) run and answers the
// dead-interval query behind golden-trace fault pruning, in the spirit
// of MeRLiN (Kaliorakis, Chatzidimitriou & Gizopoulos, ISCA 2017).
//
// A Space covers one injectable structure as a grid of units (registers,
// cache lines, array words) of a fixed bit width. During the golden run
// the simulator reports every read and every full overwrite of a bit
// range as a (cycle, unit, [lo,hi)) event; events are packed into one
// uint64 each and appended per unit in execution order, so recording
// costs one bounds check and one append on the simulator's hot path.
//
// After the run, ClassifyBit resolves the fate of a transient bit flip
// injected after a given cycle: if the golden run overwrites the bit
// before ever reading it (or never reads it inside the observation
// horizon), the flip is provably dead — the faulty run retraces the
// golden run instruction for instruction, because no dataflow ever
// consumes the corrupted value — and the campaign engine classifies it
// Masked without replaying a single cycle. A live verdict carries the
// identity of the first consuming read, which MeRLiN-style equivalence
// grouping uses to collapse faults first consumed at the same point
// into one representative replay. The lockstep engine's value lanes
// (package lanestore) report the same first read live, as Consumed; a
// core test holds the two answers equal on both models.
package lifetime

import "fmt"

// Event packing: cycle<<21 | lo<<11 | hi<<1 | kind. Unit widths up to
// maxWidth bits and cycles up to 2^43 fit losslessly.
const (
	kindWrite = 0
	kindRead  = 1

	hiShift    = 1
	loShift    = 11
	cycleShift = 21

	rangeMask = (1 << 10) - 1

	// maxWidth bounds a unit's bit width so [lo,hi) packs into 10+10
	// bits (hi may equal the width itself).
	maxWidth = 1 << 10

	// maxCycle bounds recordable cycles (43 bits ≈ 8.8e12 cycles, far
	// beyond any golden run; later events saturate rather than wrap).
	maxCycle = uint64(1)<<(64-cycleShift) - 1
)

func pack(cycle uint64, lo, hi, kind int) uint64 {
	if cycle > maxCycle {
		cycle = maxCycle
	}
	return cycle<<cycleShift | uint64(lo)<<loShift | uint64(hi)<<hiShift | uint64(kind)
}

func unpack(e uint64) (cycle uint64, lo, hi, kind int) {
	return e >> cycleShift,
		int(e >> loShift & rangeMask),
		int(e >> hiShift & rangeMask),
		int(e & 1)
}

// Space is the lifetime trace of one injectable structure: units×width
// bits, with the flat fault-space bit b living at unit b/width, bit
// b%width — the canonical layout every simulator's flat bit space
// already follows (register files: 32-bit words; caches: lines or
// 32-bit array words).
//
// Recording appends to one flat event stream — the cheapest operation
// the golden run's hot path can pay (two appends, no per-unit
// indirection). Classification needs events grouped per unit, so the
// first query after new events scatters the stream into a per-unit
// index (stable counting sort, preserving execution order) and reuses
// it until more events arrive.
type Space struct {
	units int
	width int

	// Canonical recording form: execution-ordered event stream. last
	// holds each unit's most recent event index so a repeated event
	// (same unit, cycle, range, kind — e.g. several uops reading the
	// stack pointer in one cycle) coalesces instead of growing the
	// stream.
	ev   []uint64
	unit []uint16
	last []int32

	// Derived query form, rebuilt lazily when dirty.
	dirty  bool
	idx    []int32  // per-unit offsets into byUnit (len units+1)
	byUnit []uint64 // events scattered by unit, order-preserving
}

// maxUnits bounds a space's unit count so the recording stream can
// store unit ids in 16 bits (largest real structure: the full-size RTL
// L1D data array, 8192 words).
const maxUnits = 1 << 16

// NewSpace builds an empty trace for a units×width structure.
func NewSpace(units, width int) *Space {
	if units <= 0 || width <= 0 || width >= maxWidth || units >= maxUnits {
		panic(fmt.Sprintf("lifetime: bad space geometry %d x %d", units, width))
	}
	last := make([]int32, units)
	for i := range last {
		last[i] = -1
	}
	return &Space{units: units, width: width, last: last}
}

// Units returns the number of storage units.
func (s *Space) Units() int { return s.units }

// Width returns the bit width of one unit.
func (s *Space) Width() int { return s.width }

// Bits returns the flat fault-space size the trace covers.
func (s *Space) Bits() int { return s.units * s.width }

// Events returns the total number of recorded events (overhead metric).
func (s *Space) Events() int { return len(s.ev) }

// Read records that the golden run consumed bits [lo,hi) of unit at the
// given cycle. Events must arrive in execution order (non-decreasing
// cycles per unit); immediately repeated events coalesce.
func (s *Space) Read(cycle uint64, unit, lo, hi int) {
	s.record(cycle, unit, lo, hi, kindRead)
}

// Write records that the golden run fully overwrote bits [lo,hi) of
// unit at the given cycle: after this event those bits no longer hold
// any value written (or corrupted) before it.
func (s *Space) Write(cycle uint64, unit, lo, hi int) {
	s.record(cycle, unit, lo, hi, kindWrite)
}

func (s *Space) record(cycle uint64, unit, lo, hi, kind int) {
	e := pack(cycle, lo, hi, kind)
	if li := s.last[unit]; li >= 0 && s.ev[li] == e {
		return // coalesce the unit's repeats (same cycle, range, kind)
	}
	if s.ev == nil {
		// One up-front block sized for a typical golden run (~3
		// events/cycle over tens of kcycles): recording then almost
		// never pays a growth copy, which profiling shows is where the
		// overhead of a naive append stream actually lives.
		s.ev = make([]uint64, 0, 1<<16)
		s.unit = make([]uint16, 0, 1<<16)
	}
	s.last[unit] = int32(len(s.ev))
	s.ev = append(s.ev, e)
	s.unit = append(s.unit, uint16(unit))
	s.dirty = true
}

// freeze (re)builds the per-unit query index from the flat stream. It
// runs when a Recorder is sealed, or lazily from the first query after
// new events on a space recorded and queried by one goroutine.
func (s *Space) freeze() {
	idx := make([]int32, s.units+1)
	for _, u := range s.unit {
		idx[u+1]++
	}
	for u := 0; u < s.units; u++ {
		idx[u+1] += idx[u]
	}
	byUnit := make([]uint64, len(s.ev))
	pos := make([]int32, s.units)
	copy(pos, idx[:s.units])
	for i, e := range s.ev {
		u := s.unit[i]
		byUnit[pos[u]] = e
		pos[u]++
	}
	s.idx = idx
	s.byUnit = byUnit
	s.dirty = false
}

// Verdict is the injection-less fate of one transient bit flip.
type Verdict struct {
	// Live reports that the golden run reads the bit inside the horizon
	// before any overwrite: the corrupted value is consumed and the
	// fault must be replayed.
	Live bool

	// Cycle is the consuming read's cycle (Live only).
	Cycle uint64

	// ID identifies the consuming event — the (unit, event index) pair
	// — and is stable per golden run: faults whose corrupted bits are
	// first consumed by the same event share an ID, the MeRLiN
	// equivalence key.
	ID uint64
}

// ClassifyBit resolves the fate of a transient flip of flat bit `bit`
// injected after cycle `after` (exclusive), observed up to cycle
// `horizon` (inclusive): the first event covering the bit decides. A
// covering write first means the flip is dead (overwritten unread); a
// covering read at or before the horizon means it is live; no covering
// read inside the horizon means dead — the corrupted value never
// reaches any dataflow the observation window can see.
func (s *Space) ClassifyBit(bit int, after, horizon uint64) Verdict {
	if s.dirty || s.idx == nil {
		s.freeze()
	}
	unit := bit / s.width
	off := bit % s.width
	evs := s.byUnit[s.idx[unit]:s.idx[unit+1]]
	// First event strictly after the injection instant. Per-unit events
	// are cycle-sorted, so binary search lands on the scan start.
	lo, hi := 0, len(evs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evs[mid]>>cycleShift <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(evs); i++ {
		cyc, elo, ehi, kind := unpack(evs[i])
		if cyc > horizon {
			break // any later consumption is outside the window
		}
		if off < elo || off >= ehi {
			continue
		}
		if kind == kindWrite {
			return Verdict{} // overwritten before any read: dead
		}
		return Verdict{Live: true, Cycle: cyc, ID: uint64(unit)<<32 | uint64(i)}
	}
	return Verdict{}
}

// Event is one unpacked golden-run access event: the golden run read or
// fully overwrote bits [Lo,Hi) of a unit at Cycle. The exported form of
// the packed per-unit streams, consumed by ACE-interval accounting
// (internal/avf), which needs to sweep a unit's whole event history
// rather than answer one bit query.
type Event struct {
	Cycle uint64
	Lo    int // first bit covered (inclusive)
	Hi    int // last bit covered (exclusive)
	Read  bool
}

// ForEachEvent calls fn for every event of one unit in execution order —
// the same order ClassifyBit scans, so an interval sweep over these
// events reproduces its verdicts exactly.
func (s *Space) ForEachEvent(unit int, fn func(Event)) {
	if s.dirty || s.idx == nil {
		s.freeze()
	}
	for _, e := range s.byUnit[s.idx[unit]:s.idx[unit+1]] {
		cyc, lo, hi, kind := unpack(e)
		fn(Event{Cycle: cyc, Lo: lo, Hi: hi, Read: kind == kindRead})
	}
}

// Recorder bundles the per-target spaces one golden run records. Targets
// are keyed by small integers (the campaign layer uses fault.Target
// values); a simulator registers a space per target it can trace and
// untracked targets simply stay absent, which the pre-classifier treats
// as "always replay".
type Recorder struct {
	spaces map[int]*Space
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{spaces: make(map[int]*Space)}
}

// Space returns the trace registered for target id, creating it with the
// given geometry on first use. Re-registering with a different geometry
// is a programming error. A nil recorder traces nothing: its Space is
// nil, which detaches a model's hooks.
func (r *Recorder) Space(id, units, width int) *Space {
	if r == nil {
		return nil
	}
	if sp, ok := r.spaces[id]; ok {
		if sp.units != units || sp.width != width {
			panic(fmt.Sprintf("lifetime: target %d re-registered as %dx%d (was %dx%d)",
				id, units, width, sp.units, sp.width))
		}
		return sp
	}
	sp := NewSpace(units, width)
	r.spaces[id] = sp
	return sp
}

// Seal ends recording: it builds every space's query index, so from
// here on a query only reads and any number of goroutines may classify
// against the trace at once.
func (r *Recorder) Seal() {
	for _, sp := range r.spaces {
		sp.freeze()
	}
}

// Get returns the trace for target id, or nil when the simulator does
// not trace it.
func (r *Recorder) Get(id int) *Space { return r.spaces[id] }

// Events returns the total events recorded across all targets.
func (r *Recorder) Events() int {
	n := 0
	for _, sp := range r.spaces {
		n += len(sp.ev)
	}
	return n
}
