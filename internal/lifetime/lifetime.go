// Package lifetime records the access behavior of a simulator's storage
// structures along the fault-free (golden) run and answers the
// dead-interval query behind golden-trace fault pruning, in the spirit
// of MeRLiN (Kaliorakis, Chatzidimitriou & Gizopoulos, ISCA 2017).
//
// A Space covers one injectable structure as a grid of units (registers,
// cache lines, array words) of a fixed bit width. During the golden run
// the simulator reports every read and every full overwrite of a bit
// range as a (cycle, unit, [lo,hi)) event; events are packed into one
// uint32 each, the cycle a delta from the first cycle of the event's
// 64-event chunk, and written once, straight into their unit's chunked
// log in execution order, so recording costs one compare against the
// unit's last event and one store on the simulator's hot path. A delta
// too wide for its field escapes to a per-unit side table of exact
// cycles, which only idle cache lines need.
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

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Event packing: delta<<(2rb+1) | lo<<(rb+1) | hi<<1 | kind, one uint32
// per event, where rb = bits.Len(width) bits hold each end of the
// [lo,hi) range (hi may equal the width itself) and delta is the
// event's cycle minus its chunk's base, the cycle of the chunk's first
// event. A delta too wide for its field (13 bits on 256-bit cache
// lines, 19 on 32-bit words, 29 on a 1-bit timeline) is stored as the
// all-ones escape and its exact cycle goes in the unit's side table.
const (
	kindWrite = 0
	kindRead  = 1

	// maxWidth bounds a unit's bit width, leaving the delta field at
	// least 11 bits.
	maxWidth = 1 << 10
)

// Space is the lifetime trace of one injectable structure: units×width
// bits, with the flat fault-space bit b living at unit b/width, bit
// b%width — the canonical layout every simulator's flat bit space
// already follows (register files: 32-bit words; caches: lines or
// 32-bit array words).
//
// Each event is written once, straight into the per-unit form the
// queries read: a unit's events fill fixed-size chunks carved from
// slabs the space shares across its units, so recording never copies
// an event again and a query never waits for an index to be built.
// Queries only read, so once recording stops any number of goroutines
// may classify against the trace at once.
type Space struct {
	units int
	width int

	rb         uint   // bits per range end: bits.Len(width)
	deltaShift uint   // 2rb+1, where an event's cycle delta starts
	escape     uint64 // the all-ones delta: the exact cycle is in far

	logs   []unitLog
	slab   []uint32 // the current slab's uncarved tail
	events int
}

// unitLog is one unit's events in execution order: event i lives in
// chunks[i/chunkLen].ev[i%chunkLen]. The last event is also kept
// decoded, so recording coalesces a repeat without reading its chunk.
type unitLog struct {
	chunks []chunk

	// far is the unit's side table: far[c] holds the exact cycles of
	// the c-th chunk's escaped events. Cycles never fall along a unit,
	// so a chunk's escaped events are its tail.
	far [][]uint64

	// n is an int32 so that a unitLog fills one 64-byte cache line:
	// with an int n it spans two, and rtl_windowed, whose golden runs
	// record the L1D timeline, read 4% fewer faults a second.
	lastAt uint64 // the last event's cycle
	n      int32
	last   uint32 // the last event's packed range and kind
}

// chunk is one fixed-size block of a unit's events. It keeps its base
// cycle, that of its first event, beside the block, so a search over
// the chunks touches only the unit's chunk list.
type chunk struct {
	base uint64
	ev   *[chunkLen]uint32
}

const (
	// chunkLen is the number of events one chunk holds.
	chunkLen = 64

	// slabLen is the number of events one slab holds: a slab is
	// carved into slabLen/chunkLen chunks.
	slabLen = 1 << 13
)

// events returns the recorded events of the unit's c-th chunk.
func (l *unitLog) events(c int) []uint32 {
	return l.chunks[c].ev[:min(chunkLen, int(l.n)-c*chunkLen)]
}

// cycle returns the cycle of event e, the j-th of the unit's c-th chunk.
func (s *Space) cycle(l *unitLog, c, j int, e uint32) uint64 {
	if e>>s.deltaShift != uint32(s.escape) {
		return l.chunks[c].base + uint64(e>>s.deltaShift)
	}
	far := l.far[c]
	return far[len(far)-len(l.events(c))+j]
}

// first returns the position (chunk c, offset j) of the unit's first
// event strictly after cycle: a binary search over the chunks' base
// cycles, then over the one chunk that holds the answer. The offset
// may equal the chunk's length: the answer then opens chunk c+1. An
// escaped delta is at least the escape, so the stored deltas answer
// any cycle short of base+escape.
func (s *Space) first(l *unitLog, cycle uint64) (c, j int) {
	c = sort.Search(len(l.chunks), func(k int) bool { return l.chunks[k].base > cycle })
	if c == 0 {
		return 0, 0
	}
	c--
	ev, t := l.events(c), cycle-l.chunks[c].base
	if t < s.escape {
		max := s.upTo(t)
		return c, sort.Search(len(ev), func(i int) bool { return ev[i] > max })
	}
	// Past every exact delta: search the escaped tail by its cycles.
	var far []uint64
	if c < len(l.far) {
		far = l.far[c]
	}
	return c, len(ev) - len(far) + sort.Search(len(far), func(i int) bool { return far[i] > cycle })
}

// upTo returns the largest packed event whose stored delta is at most
// d: an event's delta exceeds d exactly when the event itself exceeds
// upTo(d), so the queries compare whole events and never shift one.
func (s *Space) upTo(d uint64) uint32 {
	if d >= s.escape {
		return math.MaxUint32
	}
	return uint32(d)<<s.deltaShift | (1<<s.deltaShift - 1)
}

// NewSpace builds an empty trace for a units×width structure.
func NewSpace(units, width int) *Space {
	if units <= 0 || width <= 0 || width >= maxWidth {
		panic(fmt.Sprintf("lifetime: bad space geometry %d x %d", units, width))
	}
	rb := uint(bits.Len(uint(width)))
	return &Space{
		units: units, width: width,
		rb: rb, deltaShift: 2*rb + 1, escape: 1<<(31-2*rb) - 1,
		logs: make([]unitLog, units),
	}
}

// Units returns the number of storage units.
func (s *Space) Units() int { return s.units }

// Width returns the bit width of one unit.
func (s *Space) Width() int { return s.width }

// Bits returns the flat fault-space size the trace covers.
func (s *Space) Bits() int { return s.units * s.width }

// Events returns the total number of recorded events (overhead metric).
func (s *Space) Events() int { return s.events }

// Read records that the golden run consumed bits [lo,hi) of unit at the
// given cycle. Events must arrive in execution order (non-decreasing
// cycles per unit, and an event earlier than its unit's last panics);
// immediately repeated events coalesce.
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
	r := uint32(lo)<<(s.rb+1) | uint32(hi)<<1 | uint32(kind)
	l := &s.logs[unit]
	if cycle <= l.lastAt && l.n > 0 {
		if cycle == l.lastAt && r == l.last {
			return // coalesce the unit's repeats (same cycle, range, kind)
		}
		if cycle < l.lastAt {
			panic(fmt.Sprintf("lifetime: unit %d event at cycle %d after one at %d", unit, cycle, l.lastAt))
		}
	}
	l.last, l.lastAt = r, cycle
	c, j := int(l.n)/chunkLen, int(l.n)%chunkLen
	if j == 0 {
		if len(s.slab) == 0 {
			s.slab = make([]uint32, slabLen)
		}
		l.chunks = append(l.chunks, chunk{base: cycle, ev: (*[chunkLen]uint32)(s.slab)})
		s.slab = s.slab[chunkLen:]
	}
	ch := &l.chunks[c]
	d := cycle - ch.base
	if d >= s.escape {
		d = s.escape
		for len(l.far) <= c {
			l.far = append(l.far, nil)
		}
		l.far[c] = append(l.far[c], cycle)
	}
	ch.ev[j] = uint32(d)<<s.deltaShift | r
	l.n++
	s.events++
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
	unit := bit / s.width
	// Bit off lies in [lo,hi) exactly when the event's masked lo field
	// is at most off's and its masked hi field exceeds off's.
	off := uint32(bit % s.width)
	mask := uint32(1)<<s.rb - 1
	loMask, loMax := mask<<(s.rb+1), off<<(s.rb+1)
	hiMask, hiMax := mask<<1, off<<1
	l := &s.logs[unit]
	for c, j := s.first(l, after); c < len(l.chunks); c, j = c+1, 0 {
		base := l.chunks[c].base
		if base > horizon {
			return Verdict{} // any later consumption is outside the window
		}
		// A stored delta never exceeds the true one, so an event past
		// max is past the horizon whether it escaped or not.
		max := s.upTo(horizon - base)
		for ev := l.events(c); j < len(ev); j++ {
			e := ev[j]
			if e > max {
				return Verdict{}
			}
			if e&loMask > loMax || e&hiMask <= hiMax {
				continue
			}
			if e&1 == kindWrite {
				return Verdict{} // overwritten before any read: dead
			}
			cyc := s.cycle(l, c, j, e)
			if cyc > horizon {
				return Verdict{} // an escaped read past the window
			}
			return Verdict{Live: true, Cycle: cyc, ID: uint64(unit)<<32 | uint64(c*chunkLen+j)}
		}
	}
	return Verdict{}
}

// Event is one unpacked golden-run access event: the golden run read or
// fully overwrote bits [Lo,Hi) of a unit at Cycle. The exported form of
// the packed per-unit logs, consumed by ACE-interval accounting
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
	l := &s.logs[unit]
	mask := uint32(1)<<s.rb - 1
	for c := range l.chunks {
		for j, e := range l.events(c) {
			fn(Event{
				Cycle: s.cycle(l, c, j, e),
				Lo:    int(e >> (s.rb + 1) & mask), Hi: int(e >> 1 & mask),
				Read: e&1 == kindRead,
			})
		}
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

// Get returns the trace for target id, or nil when the simulator does
// not trace it.
func (r *Recorder) Get(id int) *Space { return r.spaces[id] }

// Events returns the total events recorded across all targets.
func (r *Recorder) Events() int {
	n := 0
	for _, sp := range r.spaces {
		n += sp.events
	}
	return n
}
