package rtlcore

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/mem"
	"repro/internal/refsim"
	"repro/internal/rtl"
	"repro/internal/statehash"
)

// Fault-injection surface. The campaign targets match the
// microarchitectural model's (register file, L1D data array); the RTL
// model additionally exposes every pipeline latch — the capability gap
// §II.B of the paper describes. Each target is one flat bit space.

// geometry states target t's flat bit space: units × width bits, the
// architectural register file and the L1D data array by word (the rtl
// kernel's memory ports), the pipeline latches bit by bit (latches of
// differing widths, flattened in name order). Bits, Flip, Force,
// SetLifetime and the lane groups all read it; units is 0 for any other
// target. (The RTL core is in-order and has no renaming, so its register
// file is the 16 architectural registers; see EXPERIMENTS.md for this
// substitution.)
func (c *Core) geometry(t fault.Target) (units, width int) {
	switch t {
	case fault.TargetRF:
		return c.regfile.Words(), c.regfile.Width()
	case fault.TargetL1D:
		return c.l1d.data.Words(), c.l1d.data.Width()
	case fault.TargetLatches:
		return c.latchBits, 1
	}
	return 0, 0
}

// Bits returns the size of target t's bit space (0 for no target of
// the design).
func (c *Core) Bits(t fault.Target) int {
	units, width := c.geometry(t)
	return units * width
}

// Flip injects a single transient bit flip into bit i of target t.
func (c *Core) Flip(t fault.Target, i int) error { return c.inject(t, i, -1) }

// Force sets bit i of target t to v (0 or 1). It is the idempotent
// primitive behind the permanent and intermittent fault models,
// re-asserted after every clock edge while the fault is active.
func (c *Core) Force(t fault.Target, i, v int) error { return c.inject(t, i, v) }

// checkBit reports an index outside target t's bit space.
func (c *Core) checkBit(t fault.Target, i int) error {
	if n := c.Bits(t); i < 0 || i >= n {
		return fmt.Errorf("rtlcore: %v bit %d out of range [0,%d)", t, i, n)
	}
	return nil
}

// inject sets bit i of target t to v, or toggles it when v is negative.
func (c *Core) inject(t fault.Target, i, v int) error {
	if err := c.checkBit(t, i); err != nil {
		return err
	}
	if v < 0 {
		v = c.bit(t, i) ^ 1
	}
	switch t {
	case fault.TargetRF:
		return c.regfile.ForceBit(i, v)
	case fault.TargetL1D:
		return c.l1d.data.ForceBit(i, v)
	}
	r, b := c.latchAt(i)
	r.ForceBit(b, v)
	return nil
}

// bit returns bit i of target t (0 or 1): the golden peek of a lane
// group.
func (c *Core) bit(t fault.Target, i int) int {
	switch t {
	case fault.TargetRF:
		return c.regfile.Bit(i)
	case fault.TargetL1D:
		return c.l1d.data.Bit(i)
	}
	r, b := c.latchAt(i)
	return int(r.Q() >> b & 1)
}

// latchAt resolves in-range latch-space bit i to its register and local
// bit, so Flip, Force and the lanes never disagree on targeting.
func (c *Core) latchAt(i int) (*rtl.Reg, int) {
	for _, r := range c.latches {
		if i < r.Width() {
			return r, i
		}
		i -= r.Width()
	}
	panic(fmt.Sprintf("rtlcore: latch bit %d beyond the latch space", i))
}

// L1DLineOfBit returns the (set, way) whose line holds L1D data bit i,
// used by injection-time advancement.
func (c *Core) L1DLineOfBit(i int) (set, way int) {
	word := (i / 32) / c.l1d.lineWords
	return word / c.l1d.ways, word % c.l1d.ways
}

// StateInventory lists every injectable state element of the design.
func (c *Core) StateInventory() []rtl.StateElement { return c.sim.StateInventory() }

// SetLifetime attaches (or detaches, with nil) rec's golden-run traces
// of the register file and the L1D data array, each a space in its
// target's fault geometry. Every design-side read and clock-edge write
// of those arrays funnels through the rtl kernel's memory ports, where
// the events are recorded; pipeline latches stay untracked, so latch
// campaigns always fall back to full replay. They ride value lanes all
// the same (lanes.go): a data-latch flip as a diff, any other latch
// fault to a peel on the lane's first tick.
func (c *Core) SetLifetime(rec *lifetime.Recorder) {
	units, width := c.geometry(fault.TargetRF)
	c.regfile.SetLifetime(rec.Space(int(fault.TargetRF), units, width))
	units, width = c.geometry(fault.TargetL1D)
	c.l1d.data.SetLifetime(rec.Space(int(fault.TargetL1D), units, width))
}

// SetL1DAccessHook installs a testbench callback observing every D-cache
// access (set, way), used to record the golden access timeline for
// injection-time advancement. Pass nil to remove.
//
// Implementation note: the hook lives on the cache struct and is invoked
// from access; it is testbench instrumentation, not design state.
func (c *Core) SetL1DAccessHook(fn func(set, way int)) {
	c.l1d.accessHook = fn
}

// Snapshot captures the complete simulation state: kernel state (all
// registers and arrays), a copy-on-write snapshot of backing memory, and
// the testbench bookkeeping.
type Snapshot struct {
	kernel    *rtl.State
	backing   *mem.Memory
	output    []byte
	stop      refsim.StopReason
	exitCode  uint32
	faultDesc string
	insts     uint64
	l1iStats  [3]uint64
	l1dStats  [3]uint64
}

// Snapshot captures the current state; call it between Step calls.
func (c *Core) Snapshot() *Snapshot { return c.SnapshotInto(nil) }

// SnapshotInto captures like Snapshot but overwrites s, a snapshot of
// this design the caller no longer needs, reusing its storage — the
// lane engine's ring capture, of which only the latest is ever restored.
// A nil s allocates a fresh snapshot.
func (c *Core) SnapshotInto(s *Snapshot) *Snapshot {
	if s == nil {
		s = &Snapshot{backing: c.backing.Snapshot()}
	} else {
		s.backing.RestoreFrom(c.backing)
	}
	s.kernel = c.sim.CaptureState(s.kernel)
	s.output = append(s.output[:0], c.Output...)
	s.stop = c.Stop
	s.exitCode = c.ExitCode
	s.faultDesc = c.FaultDesc
	s.insts = c.Insts
	s.l1iStats = [3]uint64{c.l1i.accesses, c.l1i.misses, c.l1i.evictions}
	s.l1dStats = [3]uint64{c.l1d.accesses, c.l1d.misses, c.l1d.evictions}
	return s
}

// Restore rewinds the core to a snapshot. The snapshot remains valid and
// can be restored again (each restore gets a fresh copy-on-write view of
// the memory image).
func (c *Core) Restore(s *Snapshot) {
	c.sim.RestoreState(s.kernel)
	c.l1i.fbLine = -1 // the L1I arrays may have changed under it
	// Rewind the existing backing memory in place (copy-on-write share
	// with the snapshot) instead of allocating a fresh Memory: the
	// cache bindings stay valid and the replay restore stays
	// allocation-free.
	c.backing.RestoreFrom(s.backing)
	c.Output = append(c.Output[:0], s.output...)
	c.Stop = s.stop
	c.ExitCode = s.exitCode
	c.FaultDesc = s.faultDesc
	c.Insts = s.insts
	c.l1i.accesses, c.l1i.misses, c.l1i.evictions = s.l1iStats[0], s.l1iStats[1], s.l1iStats[2]
	c.l1d.accesses, c.l1d.misses, c.l1d.evictions = s.l1dStats[0], s.l1dStats[1], s.l1dStats[2]
}

// StateHash digests the core's complete behavior-bearing state for the
// campaign engine's convergence exit: the kernel's sequential state
// (every register and array, including both caches' tag/data/state
// arrays), backing memory, and the program output. Testbench statistics
// and the retired-instruction counter are excluded — they never
// influence future design behavior, and including them would prevent a
// reconverged replay from ever matching golden.
func (c *Core) StateHash() uint64 {
	h := statehash.New()
	c.sim.HashState(h)
	h.U64(c.backing.Hash())
	h.Bytes(c.Output)
	return h.Sum()
}

// l1dStats reports the L1D's (accesses, misses, evictions) for tests.
func (c *Core) l1dStats() (accesses, misses, evictions uint64) {
	return c.l1d.accesses, c.l1d.misses, c.l1d.evictions
}
