// Package rtl is a cycle-based register-transfer-level simulation
// kernel — the role Cadence NCSIM plays in the paper's industrial flow.
//
// A design is a set of named state elements: clocked registers and
// bit-accurate memories. The design owns its combinational logic, one
// evaluation function that reads the latched values and drives every D
// input and memory write for the next edge. The kernel owns the clock:
//
//	Tick: every register whose D input was driven latches it, every
//	      memory with queued writes applies them, and the cycle
//	      counter advances.
//
// A memory's first queued write of a cycle puts it on the simulator's
// pending list, and Tick walks that list rather than every memory (a
// cycle of the rtlcore CPU writes two or three of its ten arrays).
// RestoreState rebuilds the list from the restored queues, so a capture
// stays complete without it.
//
// A design steps by calling Tick and then its evaluation function, and
// evaluates once after elaboration (reset release) so that the first
// edge latches meaningful D inputs.
//
// Every register bit and memory bit is enumerable and flippable, which is
// what makes RTL fault injection strictly more capable than the
// microarchitectural model: pipeline latches and control state are
// injectable here and only here (§II.B of the paper).
package rtl

import (
	"fmt"
	"sort"

	"repro/internal/lifetime"
)

// Reg is a positive-edge-triggered register of up to 64 bits. Its D
// input is captured with SetD and becomes visible after the next Tick.
// When SetD is not called in a cycle the register holds its value.
type Reg struct {
	name  string
	width int
	mask  uint64
	cur   uint64
	d     uint64
	dSet  bool
}

// Name returns the register's name.
func (r *Reg) Name() string { return r.name }

// Q returns the current (latched) value.
func (r *Reg) Q() uint64 { return r.cur }

// QBool returns the current value as a boolean.
func (r *Reg) QBool() bool { return r.cur != 0 }

// SetD drives the register input for the upcoming clock edge.
func (r *Reg) SetD(v uint64) {
	r.d = v & r.mask
	r.dSet = true
}

// Width returns the register width in bits.
func (r *Reg) Width() int { return r.width }

// FlipBit injects a transient fault into bit b of the latched value,
// effective immediately (the design sees it on its next evaluation).
func (r *Reg) FlipBit(b int) {
	r.cur ^= 1 << (uint(b) % uint(r.width))
}

// ForceBit sets bit b of the latched value to v (0 or 1), effective
// immediately. Unlike FlipBit it is idempotent, so the persistent fault
// models (stuck-at, intermittent) re-assert it after every clock edge.
func (r *Reg) ForceBit(b int, v int) {
	mask := uint64(1) << (uint(b) % uint(r.width))
	if v != 0 {
		r.cur |= mask
	} else {
		r.cur &^= mask
	}
}

// Held reports that no D input was driven since the last clock edge:
// the next edge keeps the latched value.
func (r *Reg) Held() bool { return !r.dSet }

// Xor flips bits q of the latched value and bits d of the pending D
// input, effective immediately.
func (r *Reg) Xor(q, d uint64) {
	r.cur ^= q & r.mask
	r.d ^= d & r.mask
}

// memWrite is a queued synchronous memory write.
type memWrite struct {
	idx int
	v   uint64
}

// Mem is a bit-accurate storage array of words up to 64 bits wide with
// asynchronous (combinational) read ports and synchronous write ports.
// Register files and cache tag/data/state arrays are built from it.
type Mem struct {
	name  string
	width int // 1 to 64; mask derives the word mask from it
	data  []uint64
	queue []memWrite
	sim   *Simulator

	// lt, when non-nil, records the array's access lifetime during the
	// golden run (see SetLifetime); nil everywhere else, so the read and
	// write ports pay one nil check.
	lt *lifetime.Space

	// next links the simulator's pending list while the queue is
	// non-empty.
	next *Mem
}

// Name returns the array's name.
func (m *Mem) Name() string { return m.name }

// mask is the word mask: the low width bits.
func (m *Mem) mask() uint64 { return ^uint64(0) >> uint(64-m.width) }

// Words returns the number of words.
func (m *Mem) Words() int { return len(m.data) }

// Width returns the word width in bits.
func (m *Mem) Width() int { return m.width }

// SetLifetime attaches (or detaches, with nil) a golden-run lifetime
// trace covering this array, one unit per word. Reads are recorded at
// the read port (a combinational consumer really sees the stored — and
// possibly corrupted — bits); writes are recorded at queue time but
// stamped one cycle later, the clock edge at which the queued value
// actually overwrites the array. The queued value is computed before
// any later fault injection can touch the array, so the overwrite stamp
// is exact for the dead-interval classification.
func (m *Mem) SetLifetime(sp *lifetime.Space) { m.lt = sp }

// Read returns the current value of word idx (asynchronous read port).
func (m *Mem) Read(idx int) uint64 {
	if m.lt != nil {
		m.lt.Read(m.sim.CycleCount, idx, 0, m.width)
	}
	return m.data[idx]
}

// Write queues a synchronous write of v to word idx, applied at the next
// clock edge. Later writes to the same word in the same cycle win.
func (m *Mem) Write(idx int, v uint64) {
	if m.lt != nil {
		m.lt.Write(m.sim.CycleCount+1, idx, 0, m.width)
	}
	if len(m.queue) == 0 {
		m.next, m.sim.pending = m.sim.pending, m
	}
	m.queue = append(m.queue, memWrite{idx: idx, v: v & m.mask()})
}

// Init sets word idx directly, bypassing the synchronous write port. It
// is for design elaboration (reset values) only, before simulation runs.
func (m *Mem) Init(idx int, v uint64) { m.data[idx] = v & m.mask() }

// Bits returns the total number of storage bits.
func (m *Mem) Bits() int { return len(m.data) * m.width }

// Bit returns bit b of the array (flat index word*width + bit) as 0 or
// 1 — the golden peek behind a lane's forced bit.
func (m *Mem) Bit(b int) int { return int(m.data[b/m.width] >> (b % m.width) & 1) }

// FlipBit injects a transient fault into bit b of the array (flat index
// word*width + bit), effective immediately.
func (m *Mem) FlipBit(b int) error {
	if b < 0 || b >= m.Bits() {
		return fmt.Errorf("rtl: %s bit %d out of range [0,%d)", m.name, b, m.Bits())
	}
	m.data[b/m.width] ^= 1 << (b % m.width)
	return nil
}

// ForceBit sets bit b of the array (flat index word*width + bit) to v
// (0 or 1), effective immediately. Idempotent; the persistent fault
// models re-assert it after every clock edge.
func (m *Mem) ForceBit(b int, v int) error {
	if b < 0 || b >= m.Bits() {
		return fmt.Errorf("rtl: %s bit %d out of range [0,%d)", m.name, b, m.Bits())
	}
	mask := uint64(1) << (b % m.width)
	if v != 0 {
		m.data[b/m.width] |= mask
	} else {
		m.data[b/m.width] &^= mask
	}
	return nil
}

// Xor flips bits x of word idx, effective immediately.
func (m *Mem) Xor(idx int, x uint64) { m.data[idx] ^= x & m.mask() }

// Queued returns the number of writes queued for the next clock edge;
// QueuedWord names the word the i-th of them overwrites, and XorQueued
// flips bits x of the value it carries. Value lanes follow golden's
// queue with them: a queued write overwrites a lane's word at the edge,
// not when it is queued.
func (m *Mem) Queued() int               { return len(m.queue) }
func (m *Mem) QueuedWord(i int) int      { return m.queue[i].idx }
func (m *Mem) XorQueued(i int, x uint64) { m.queue[i].v ^= x & m.mask() }

// Snapshot returns a copy of the array contents.
func (m *Mem) Snapshot() []uint64 { return append([]uint64(nil), m.data...) }

// Restore overwrites the array contents from a snapshot.
func (m *Mem) Restore(data []uint64) {
	copy(m.data, data)
}

// Simulator owns a design's state elements and runs the clock.
type Simulator struct {
	regs []*Reg
	mems []*Mem

	// pending heads the list, linked through Mem.next, of the memories
	// whose queues are non-empty: the ones the next Tick has to apply.
	pending *Mem

	// CycleCount is the number of completed Tick calls.
	CycleCount uint64
}

// NewSimulator returns an empty design.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Reg declares a clocked register with a reset value.
func (s *Simulator) Reg(name string, width int, init uint64) *Reg {
	r := &Reg{name: name, width: width, mask: ^uint64(0) >> uint(64-width)}
	r.cur = init & r.mask
	s.regs = append(s.regs, r)
	return r
}

// Mem declares a storage array.
func (s *Simulator) Mem(name string, words, width int) *Mem {
	m := &Mem{
		name:  name,
		width: width,
		data:  make([]uint64, words),
		sim:   s,
	}
	s.mems = append(s.mems, m)
	return m
}

// Tick is the clock edge: every register whose D input was set latches
// it, every memory on the pending list applies its queued writes in
// queue order, and CycleCount advances.
func (s *Simulator) Tick() {
	for _, r := range s.regs {
		if r.dSet {
			r.dSet = false
			r.cur = r.d
		}
	}
	for m := s.pending; m != nil; m = m.next {
		for _, w := range m.queue {
			m.data[w.idx] = w.v
		}
		m.queue = m.queue[:0]
	}
	s.pending = nil
	s.CycleCount++
}

// StateElement describes one injectable state element of the design.
type StateElement struct {
	Name string
	Bits int
	Kind string // "reg" or "mem"
}

// StateInventory lists every state element, sorted by name. The total
// bit count is the RTL fault space.
func (s *Simulator) StateInventory() []StateElement {
	out := make([]StateElement, 0, len(s.regs)+len(s.mems))
	for _, r := range s.regs {
		out = append(out, StateElement{Name: r.Name(), Bits: r.Width(), Kind: "reg"})
	}
	for _, m := range s.mems {
		out = append(out, StateElement{Name: m.Name(), Bits: m.Bits(), Kind: "mem"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemByName finds a storage array.
func (s *Simulator) MemByName(name string) (*Mem, bool) {
	for _, m := range s.mems {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

// RegsByPrefix returns registers whose names begin with prefix, sorted by
// name. Used to target pipeline latches in the RTL-only logic-state
// injection ablation.
func (s *Simulator) RegsByPrefix(prefix string) []*Reg {
	var out []*Reg
	for _, r := range s.regs {
		if len(r.Name()) >= len(prefix) && r.Name()[:len(prefix)] == prefix {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
