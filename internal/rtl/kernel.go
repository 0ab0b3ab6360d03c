// Package rtl is an event-driven register-transfer-level simulation
// kernel — the role Cadence NCSIM plays in the paper's industrial flow.
//
// A design is a set of named state elements (clocked registers and
// bit-accurate memories), wires (signals) and combinational processes
// with sensitivity lists. Simulation advances in clock cycles; within a
// cycle the kernel runs delta cycles until the combinational network is
// stable, exactly like an HDL simulator:
//
//	Tick:
//	  1. clock edge — every register latches its D input, every memory
//	     applies its queued writes; changed outputs wake their fanout;
//	  2. delta loop — run activated processes; signal updates scheduled
//	     with Drive take effect at the end of the delta and wake further
//	     processes; repeat until quiescent (or the iteration cap trips,
//	     diagnosing a combinational loop).
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

// maxDeltas bounds the settle loop; exceeding it indicates a
// combinational loop in the design.
const maxDeltas = 64

// Signal is a wire carrying up to 64 bits.
type Signal struct {
	name    string
	width   int
	cur     uint64
	next    uint64
	hasNext bool
	mask    uint64
	fanout  []*process
	sim     *Simulator
}

// Name returns the signal's hierarchical name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal width in bits.
func (s *Signal) Width() int { return s.width }

// Get returns the current value.
func (s *Signal) Get() uint64 { return s.cur }

// GetBool returns the current value as a boolean (non-zero = true).
func (s *Signal) GetBool() bool { return s.cur != 0 }

// Drive schedules a new value for the end of the current delta cycle.
// Driving the current value is a no-op.
func (s *Signal) Drive(v uint64) {
	v &= s.mask
	if !s.hasNext && v == s.cur {
		return
	}
	s.next = v
	if !s.hasNext {
		s.hasNext = true
		s.sim.pending = append(s.sim.pending, s)
	}
}

// DriveBool drives 1 or 0.
func (s *Signal) DriveBool(v bool) {
	if v {
		s.Drive(1)
	} else {
		s.Drive(0)
	}
}

// Reg is a positive-edge-triggered register of up to 64 bits. Its output
// behaves like a signal; its D input is captured with SetD and becomes
// visible after the next Tick. When SetD is not called in a cycle the
// register holds its value.
type Reg struct {
	out  *Signal
	d    uint64
	dSet bool
}

// Name returns the register's name.
func (r *Reg) Name() string { return r.out.name }

// Q returns the current (latched) value.
func (r *Reg) Q() uint64 { return r.out.cur }

// QBool returns the current value as a boolean.
func (r *Reg) QBool() bool { return r.out.cur != 0 }

// Out returns the output signal, for use in sensitivity lists.
func (r *Reg) Out() *Signal { return r.out }

// SetD drives the register input for the upcoming clock edge.
func (r *Reg) SetD(v uint64) {
	r.d = v & r.out.mask
	r.dSet = true
}

// SetDBool drives 1 or 0.
func (r *Reg) SetDBool(v bool) {
	if v {
		r.SetD(1)
	} else {
		r.SetD(0)
	}
}

// Width returns the register width in bits.
func (r *Reg) Width() int { return r.out.width }

// FlipBit injects a transient fault into bit b of the latched value,
// effective immediately (processes see it on the next evaluation).
func (r *Reg) FlipBit(b int) {
	r.out.cur ^= 1 << (uint(b) % uint(r.out.width))
}

// ForceBit sets bit b of the latched value to v (0 or 1), effective
// immediately. Unlike FlipBit it is idempotent, so the persistent fault
// models (stuck-at, intermittent) re-assert it after every clock edge.
func (r *Reg) ForceBit(b int, v int) {
	mask := uint64(1) << (uint(b) % uint(r.out.width))
	if v != 0 {
		r.out.cur |= mask
	} else {
		r.out.cur &^= mask
	}
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
	width int
	mask  uint64
	data  []uint64
	queue []memWrite
	sim   *Simulator

	// lt, when non-nil, records the array's access lifetime during the
	// golden run (see SetLifetime); nil everywhere else, so the read and
	// write ports pay one nil check.
	lt *lifetime.Space

	// lanes, when non-nil, tracks lockstep replay lanes over this array
	// (see SetLanes); nil outside bit-parallel replay, so the read port
	// and the clock edge pay one nil check.
	lanes *lifetime.Lanes
}

// Name returns the array's name.
func (m *Mem) Name() string { return m.name }

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

// SetLanes attaches (or, with nil, detaches) a lockstep lane tracker
// over this array, one unit per word as in SetLifetime. Reads are
// reported at the read port, where the trace records them. Writes are
// reported when Simulator.Tick applies them at the clock edge, not at
// queue time where the trace stamps them a cycle ahead: the tracker acts
// on an event the moment it hears it, and until the edge the array still
// holds a lane's corrupted word, so a read later in the same settle must
// still peel the lane.
func (m *Mem) SetLanes(t *lifetime.Lanes) { m.lanes = t }

// Read returns the current value of word idx (asynchronous read port).
func (m *Mem) Read(idx int) uint64 {
	if m.lt != nil {
		m.lt.Read(m.sim.CycleCount, idx, 0, m.width)
	}
	if m.lanes != nil {
		m.lanes.Read(idx, 0, m.width)
	}
	return m.data[idx]
}

// Write queues a synchronous write of v to word idx, applied at the next
// clock edge. Later writes to the same word in the same cycle win.
func (m *Mem) Write(idx int, v uint64) {
	if m.lt != nil {
		m.lt.Write(m.sim.CycleCount+1, idx, 0, m.width)
	}
	m.queue = append(m.queue, memWrite{idx: idx, v: v & m.mask})
}

// Init sets word idx directly, bypassing the synchronous write port. It
// is for design elaboration (reset values) only, before simulation runs.
func (m *Mem) Init(idx int, v uint64) { m.data[idx] = v & m.mask }

// Bits returns the total number of storage bits.
func (m *Mem) Bits() int { return len(m.data) * m.width }

// Bit returns bit b of the array (flat index word*width + bit) as 0 or
// 1 — the golden peek of a lane tracker attached with SetLanes.
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

// Snapshot returns a copy of the array contents.
func (m *Mem) Snapshot() []uint64 { return append([]uint64(nil), m.data...) }

// Restore overwrites the array contents from a snapshot.
func (m *Mem) Restore(data []uint64) {
	copy(m.data, data)
}

type process struct {
	name   string
	fn     func()
	queued bool
}

// Simulator owns a design's state elements and runs the clock.
type Simulator struct {
	signals []*Signal
	regs    []*Reg
	mems    []*Mem
	procs   []*process

	everyCycle []*process // processes evaluated on every clock edge
	active     []*process
	pending    []*Signal

	// Spare backing arrays for the settle work lists, swapped in as the
	// lists drain so the per-tick hot loop stays allocation-free.
	activeSpare  []*process
	pendingSpare []*Signal

	// CycleCount is the number of completed Tick calls.
	CycleCount uint64
}

// NewSimulator returns an empty design.
func NewSimulator() *Simulator {
	return &Simulator{}
}

func maskFor(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// Signal declares a wire.
func (s *Simulator) Signal(name string, width int) *Signal {
	sig := &Signal{name: name, width: width, mask: maskFor(width), sim: s}
	s.signals = append(s.signals, sig)
	return sig
}

// Reg declares a clocked register with a reset value.
func (s *Simulator) Reg(name string, width int, init uint64) *Reg {
	r := &Reg{out: s.Signal(name, width)}
	r.out.cur = init & r.out.mask
	s.regs = append(s.regs, r)
	return r
}

// Mem declares a storage array.
func (s *Simulator) Mem(name string, words, width int) *Mem {
	m := &Mem{
		name:  name,
		width: width,
		mask:  maskFor(width),
		data:  make([]uint64, words),
		sim:   s,
	}
	s.mems = append(s.mems, m)
	return m
}

// Process declares a combinational process. With an empty sensitivity
// list the process runs on every clock edge (like always @(posedge clk));
// otherwise it runs whenever a listed signal changes.
func (s *Simulator) Process(name string, fn func(), sens ...*Signal) {
	p := &process{name: name, fn: fn}
	s.procs = append(s.procs, p)
	if len(sens) == 0 {
		s.everyCycle = append(s.everyCycle, p)
		return
	}
	for _, sig := range sens {
		sig.fanout = append(sig.fanout, p)
	}
}

func (s *Simulator) activate(p *process) {
	if !p.queued {
		p.queued = true
		s.active = append(s.active, p)
	}
}

// settle runs delta cycles until the combinational network is stable.
func (s *Simulator) settle() error {
	for delta := 0; ; delta++ {
		if len(s.active) == 0 {
			return nil
		}
		if delta >= maxDeltas {
			return fmt.Errorf("rtl: no convergence after %d delta cycles (combinational loop?)", maxDeltas)
		}
		run := s.active
		s.active = s.activeSpare[:0]
		for _, p := range run {
			p.queued = false
			p.fn()
		}
		s.activeSpare = run[:0]
		// Commit scheduled signal values and wake fanout.
		upd := s.pending
		s.pending = s.pendingSpare[:0]
		for _, sig := range upd {
			sig.hasNext = false
			if sig.next == sig.cur {
				continue
			}
			sig.cur = sig.next
			for _, p := range sig.fanout {
				s.activate(p)
			}
		}
		s.pendingSpare = upd[:0]
	}
}

// Tick advances the design one clock cycle: registers latch, memory
// writes apply, then combinational logic settles. Call Settle once after
// constructing the design (reset release) so the first edge latches
// meaningful D inputs.
func (s *Simulator) Tick() error {
	// Clock edge.
	for _, r := range s.regs {
		if !r.dSet {
			continue
		}
		r.dSet = false
		if r.d != r.out.cur {
			r.out.cur = r.d
			for _, p := range r.out.fanout {
				s.activate(p)
			}
		}
	}
	for _, m := range s.mems {
		for _, w := range m.queue {
			if m.lanes != nil {
				m.lanes.Write(w.idx, 0, m.width)
			}
			m.data[w.idx] = w.v
		}
		m.queue = m.queue[:0]
	}
	for _, p := range s.everyCycle {
		s.activate(p)
	}
	s.CycleCount++
	return s.settle()
}

// Settle runs the combinational network to a fixed point without a clock
// edge — used after reset and after fault injection.
func (s *Simulator) Settle() error {
	for _, p := range s.procs {
		s.activate(p)
	}
	return s.settle()
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

// TotalStateBits sums all register and memory bits.
func (s *Simulator) TotalStateBits() int {
	n := 0
	for _, e := range s.StateInventory() {
		n += e.Bits
	}
	return n
}
