package lifetime

import (
	"fmt"
	"math/bits"
)

// Lockstep lane tracking over the same event stream a Space records.
//
// A Space answers "is this flip ever consumed?" after the golden run; a
// Lanes answers it while the run happens, for up to MaxLanes faulty
// machines at once. Each machine ("lane") is the golden machine plus a
// sparse set of dirty bits — the bits of the structure in which it
// currently differs. The simulator reports the events it reports to a
// Space — at the moment they take effect, which for the RTL kernel's
// queued writes is the clock edge that applies them — and the tracker
// applies the two rules dead-interval pruning rests on:
//
//   - a write fully overwrites its range with a value computed from
//     state the lane shares with golden, so it clears the lane's dirty
//     bits there (the fault dies);
//   - a read overlapping a dirty bit is the first moment the lane's
//     behavior can depart from golden's: the lane is peeled.
//
// Until a lane peels, everything about it except its dirty bits is the
// golden machine, so one golden step advances every lane, and a peeled
// lane is rebuilt exactly as a golden snapshot with its dirty bits
// flipped. The tracker knows nothing of the structure it covers beyond
// the units×width geometry and a peek at golden's bits.

// MaxLanes is the lane capacity of a Lanes tracker: one faulty machine
// per bit of its uint64 lane masks.
const MaxLanes = 64

// Lanes tracks faulty machines riding one golden run as sparse dirty-bit
// sets over a units×width structure (the flat bit layout of Space). Not
// safe for concurrent use: it belongs to the simulator it is attached to.
type Lanes struct {
	width  int
	golden func(bit int) int

	// mask[u] bit k is set iff lane k rides in lockstep and holds a
	// dirty bit in unit u: the event hooks test one word and return when
	// no lane cares.
	mask []uint64

	// dirty[k] lists lane k's dirty flat bits. A fault spans one bit or
	// a short burst, so the lists stay a handful long and are scanned.
	dirty [MaxLanes][]int32

	peeled uint64 // lanes consumed during the current tick

	// undo journals the dirty bits cleared by writes during the current
	// tick. A simulator interleaves writes and reads inside one tick, so
	// a lane peeled by a read may already have lost bits to an earlier
	// write of the same tick; its machine must be rebuilt as it stood
	// before the tick began.
	undo []clearedBit
}

type clearedBit struct {
	lane uint8
	bit  int32
}

// NewLanes builds an empty tracker over a units×width structure. golden
// returns the golden machine's current value (0 or 1) of a flat bit; it
// is what lets Force express "stuck at v" as a difference from golden.
func NewLanes(units, width int, golden func(bit int) int) *Lanes {
	if units <= 0 || width <= 0 {
		panic(fmt.Sprintf("lifetime: bad lane geometry %d x %d", units, width))
	}
	return &Lanes{width: width, golden: golden, mask: make([]uint64, units)}
}

// Bits returns the flat bit space the tracker covers.
func (t *Lanes) Bits() int { return len(t.mask) * t.width }

// Retire drops a lane's dirty bits, returning it to golden. A lane is
// tracked from its first dirty bit, so there is no matching activation.
func (t *Lanes) Retire(lane int) {
	t.peeled &^= 1 << uint(lane)
	t.unmask(lane)
	t.dirty[lane] = t.dirty[lane][:0]
}

// unmask takes a lane out of every unit's mask: the hooks stop seeing it.
func (t *Lanes) unmask(lane int) {
	for _, b := range t.dirty[lane] {
		t.mask[int(b)/t.width] &^= 1 << uint(lane)
	}
}

// Clean reports whether a lane's machine is currently bit-identical to
// golden.
func (t *Lanes) Clean(lane int) bool { return len(t.dirty[lane]) == 0 }

// Flip toggles one bit of a lane's machine.
func (t *Lanes) Flip(lane, bit int) error {
	if err := t.check(lane, bit); err != nil {
		return err
	}
	t.set(lane, bit, !t.isDirty(lane, bit))
	return nil
}

// Force sets one bit of a lane's machine to v (0 or 1). Idempotent: the
// persistent fault models re-assert it before every tick, after golden
// writes may have cleared the bit or changed the value under it.
func (t *Lanes) Force(lane, bit, v int) error {
	if err := t.check(lane, bit); err != nil {
		return err
	}
	t.set(lane, bit, t.golden(bit) != v&1)
	return nil
}

func (t *Lanes) check(lane, bit int) error {
	if bit < 0 || bit >= t.Bits() {
		return fmt.Errorf("lifetime: lane %d bit %d out of range [0,%d)", lane, bit, t.Bits())
	}
	return nil
}

func (t *Lanes) isDirty(lane, bit int) bool {
	for _, b := range t.dirty[lane] {
		if int(b) == bit {
			return true
		}
	}
	return false
}

// set makes bit dirty (or clean) in a lane, keeping mask in step.
func (t *Lanes) set(lane, bit int, on bool) {
	if t.isDirty(lane, bit) == on {
		return
	}
	unit := bit / t.width
	if on {
		t.dirty[lane] = append(t.dirty[lane], int32(bit))
		t.mask[unit] |= 1 << uint(lane)
		return
	}
	off := bit - unit*t.width
	t.clear(lane, unit, off, off+1, false)
}

// clear removes a lane's dirty bits in [lo,hi) of unit, journalling them
// when a simulator write did it, and drops the lane from the unit's mask
// once it has none left there.
func (t *Lanes) clear(lane, unit, lo, hi int, journal bool) {
	base := unit * t.width
	d := t.dirty[lane]
	kept, inUnit := d[:0], false
	for _, b := range d {
		off := int(b) - base
		if off >= lo && off < hi {
			if journal {
				t.undo = append(t.undo, clearedBit{lane: uint8(lane), bit: b})
			}
			continue
		}
		kept = append(kept, b)
		inUnit = inUnit || (off >= 0 && off < t.width)
	}
	t.dirty[lane] = kept
	if !inUnit {
		t.mask[unit] &^= 1 << uint(lane)
	}
}

// BeginTick starts a simulator tick's peel accounting; call it right
// before every step while lanes are active.
func (t *Lanes) BeginTick() {
	t.peeled = 0
	t.undo = t.undo[:0]
}

// Peeled returns the lanes consumed since BeginTick (bit k = lane k).
func (t *Lanes) Peeled() uint64 { return t.peeled }

// Read is the read hook: the simulator consumed bits [lo,hi) of unit.
// Lanes dirty there leave lockstep: they keep their dirty bits for
// PeelDiff, but later events of the tick no longer touch them.
func (t *Lanes) Read(unit, lo, hi int) {
	if t.mask[unit] != 0 {
		t.consume(unit, lo, hi)
	}
}

func (t *Lanes) consume(unit, lo, hi int) {
	base := unit * t.width
	for m := t.mask[unit]; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		for _, b := range t.dirty[lane] {
			if off := int(b) - base; off >= lo && off < hi {
				t.peeled |= 1 << uint(lane)
				t.unmask(lane)
				break
			}
		}
	}
}

// Write is the write hook: the simulator fully overwrote bits [lo,hi)
// of unit. Dirty bits there are cleared, and journalled for PeelDiff.
func (t *Lanes) Write(unit, lo, hi int) {
	if t.mask[unit] != 0 {
		t.overwrite(unit, lo, hi)
	}
}

func (t *Lanes) overwrite(unit, lo, hi int) {
	for m := t.mask[unit]; m != 0; m &= m - 1 {
		t.clear(bits.TrailingZeros64(m), unit, lo, hi, true)
	}
}

// PeelDiff visits every bit in which a lane's machine differed from
// golden when the current tick began: the bits still dirty plus those
// this tick's writes cleared. Flipping them on a golden machine
// positioned before the tick rebuilds the lane's machine exactly. Bits
// only become dirty between ticks (Flip, Force), never inside one, so no
// bit is visited twice.
func (t *Lanes) PeelDiff(lane int, visit func(bit int)) {
	for _, b := range t.dirty[lane] {
		visit(int(b))
	}
	for _, u := range t.undo {
		if int(u.lane) == lane {
			visit(int(u.bit))
		}
	}
}
