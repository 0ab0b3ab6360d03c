package microarch

import (
	"strconv"

	"repro/internal/isa"
)

// The in-flight instruction window. Every uop lives in one small
// per-CPU slab and is named by its slot index everywhere — the reorder
// buffer, the issue and load-store queues and the flag-producer links —
// so the window holds no pointers: Step never allocates, and Clone and
// RestoreFrom are flat copies the collector has nothing to trace in.
// DESIGN.md "Window representation" has the full rationale.

// slot is a uop's index in CPU.uops; noSlot is the nil reference.
type slot = int16

const noSlot slot = -1

// slabSlots sizes the slab: at most ROBSize-1 uops are in the ROB when
// rename asks for a slot, and exactly one more can be held back (the
// retired flag producer, see retireUop).
func slabSlots(cfg Config) int { return cfg.ROBSize + 1 }

// allocUop takes a slot off the free list.
func (c *CPU) allocUop() slot {
	if len(c.uopFree) == 0 {
		panic("microarch: uop slab exhausted (a slot was leaked)")
	}
	s := c.uopFree[len(c.uopFree)-1]
	c.uopFree = c.uopFree[:len(c.uopFree)-1]
	return s
}

// freeUop recycles a slot that nothing names any more. A squashed uop
// qualifies at once: only younger uops ever named it, they are squashed
// with it, and recovery rewinds specFlagProducer past it.
// Its value-lane diffs go with it.
func (c *CPU) freeUop(s slot) {
	if c.lanes != nil && c.lanes.slots[s].Any() {
		c.lanes.free(s)
	}
	c.uopFree = append(c.uopFree, s)
}

// retireUop recycles the slot of a committed uop — unless it writes the
// flags. Leaving the ROB does not end a compare's life: it keeps feeding
// every conditional branch renamed before the next compare, however
// many instructions later, through flagProducer, and a mispredicted
// branch reinstates it as specFlagProducer through flagSnap. It is held
// back as retiredFlags until the next flag writer commits; by then every
// uop renamed between the two has committed or been squashed, and
// specFlagProducer names the newer one (or something younger still).
func (c *CPU) retireUop(s slot) {
	if !c.uops[s].writesFlags {
		c.freeUop(s)
		return
	}
	if c.retiredFlags != noSlot {
		c.freeUop(c.retiredFlags)
	}
	c.retiredFlags = s
}

// ring is a fixed-capacity FIFO, the allocation-free backing of the
// reorder buffer (slots) and the decode queue (fetched words).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) index(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) T { return r.buf[r.index(i)] }

// front points at the oldest element, in place.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) push(v T) { *r.grow() = v }

// grow appends an element and points at it, in place: the caller
// overwrites whatever an earlier lap left there.
func (r *ring[T]) grow() *T {
	p := &r.buf[r.index(r.n)]
	r.n++
	return p
}

// pop drops the oldest element.
func (r *ring[T]) pop() {
	r.head = r.index(1)
	r.n--
}

// truncate keeps the n oldest elements.
func (r *ring[T]) truncate(n int) { r.n = n }

func (r *ring[T]) copyFrom(o *ring[T]) {
	copy(r.buf, o.buf)
	r.head, r.n = o.head, o.n
}

// faultKind says why a uop faults when it reaches the ROB head. Most
// faulting uops sit on a wrong path and are squashed unread, so the
// description is only formatted on demand (appendFault).
type faultKind uint8

const (
	faultNone   faultKind = iota
	faultFetch            // fetch out of range at pc
	faultDecode           // undecodable word (uop.faultWord) at pc
	faultLoad             // load out of range or unaligned at addr
)

// appendFault appends the fault description to b: the bytes FaultDesc
// reports when the uop commits. (StateHash folds the kind and the
// operands the description is a function of, not the text.)
func (u *uop) appendFault(b []byte) []byte {
	switch u.fault {
	case faultFetch:
		b = append(b, "fetch out of range at "...)
		b = appendHex(b, u.pc)
	case faultDecode:
		b = append(b, "decode at "...)
		b = appendHex(b, u.pc)
		b = append(b, ": "...)
		b = isa.DecodeError{Word: u.faultWord}.Append(b)
	case faultLoad:
		b = append(b, "load out of range or unaligned at "...)
		b = appendHex(b, u.addr)
		b = append(b, " (pc "...)
		b = appendHex(b, u.pc)
		b = append(b, ')')
	}
	return b
}

// appendHex appends v as fmt's %#x renders it.
func appendHex(b []byte, v uint32) []byte {
	return strconv.AppendUint(append(b, "0x"...), uint64(v), 16)
}
