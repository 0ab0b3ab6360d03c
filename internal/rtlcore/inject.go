package rtlcore

import (
	"fmt"

	"repro/internal/lifetime"
	"repro/internal/mem"
	"repro/internal/refsim"
	"repro/internal/rtl"
	"repro/internal/statehash"
)

// Fault-injection surfaces. The campaign targets match the
// microarchitectural model's (register file, L1D data array); the RTL
// model additionally exposes every pipeline latch and cache state bit —
// the capability gap §II.B of the paper describes.

// RFBits returns the architectural register file size in bits. (The RTL
// core is in-order and has no renaming, so its register file is the 16
// architectural registers; see EXPERIMENTS.md for this substitution.)
func (c *Core) RFBits() int { return c.regfile.Bits() }

// FlipRFBit injects a single transient bit flip into the register file.
func (c *Core) FlipRFBit(i int) error { return c.regfile.FlipBit(i) }

// ForceRFBit sets register file bit i to v (0 or 1). It is the
// idempotent primitive behind the permanent and intermittent fault
// models, re-asserted after every clock edge while the fault is active.
func (c *Core) ForceRFBit(i int, v int) error { return c.regfile.ForceBit(i, v) }

// RFBit returns register file bit i (0 or 1), in FlipRFBit's flat
// indexing: the golden peek of a lane tracker.
func (c *Core) RFBit(i int) int { return c.regfile.Bit(i) }

// L1DBits returns the L1 data cache data-array size in bits.
func (c *Core) L1DBits() int { return c.l1d.data.Bits() }

// FlipL1DBit injects a single transient bit flip into the L1D data array.
func (c *Core) FlipL1DBit(i int) error { return c.l1d.data.FlipBit(i) }

// ForceL1DBit sets L1D data-array bit i to v (0 or 1); see ForceRFBit
// for the re-assertion contract.
func (c *Core) ForceL1DBit(i int, v int) error { return c.l1d.data.ForceBit(i, v) }

// L1DBit returns L1D data-array bit i (0 or 1), in FlipL1DBit's flat
// indexing.
func (c *Core) L1DBit(i int) int { return c.l1d.data.Bit(i) }

// L1DLineOfBit returns the (set, way) whose line holds L1D data bit i,
// used by injection-time advancement.
func (c *Core) L1DLineOfBit(i int) (set, way int) {
	word := (i / 32) / c.l1d.lineWords
	return word / c.l1d.ways, word % c.l1d.ways
}

// StateInventory lists every injectable state element of the design.
func (c *Core) StateInventory() []rtl.StateElement { return c.sim.StateInventory() }

// LatchBits returns the total size of the pipeline and control latches —
// the state that exists only at RTL (no microarchitectural counterpart).
func (c *Core) LatchBits() int {
	n := 0
	for _, r := range c.latches {
		n += r.Width()
	}
	return n
}

// latchAt resolves flat latch-space bit i to its register and local
// bit, so Flip and Force can never disagree on targeting.
func (c *Core) latchAt(i int) (*rtl.Reg, int, error) {
	if i < 0 {
		return nil, 0, fmt.Errorf("rtlcore: latch bit %d out of range", i)
	}
	for _, r := range c.latches {
		if i < r.Width() {
			return r, i, nil
		}
		i -= r.Width()
	}
	return nil, 0, fmt.Errorf("rtlcore: latch bit beyond %d", c.LatchBits())
}

// FlipLatchBit injects into the flattened pipeline/control latch space.
func (c *Core) FlipLatchBit(i int) error {
	r, b, err := c.latchAt(i)
	if err == nil {
		r.FlipBit(b)
	}
	return err
}

// ForceLatchBit sets bit i of the flattened pipeline/control latch
// space to v (0 or 1); see ForceRFBit for the re-assertion contract.
func (c *Core) ForceLatchBit(i int, v int) error {
	r, b, err := c.latchAt(i)
	if err == nil {
		r.ForceBit(b, v)
	}
	return err
}

// SetLifetime attaches (or detaches, with nils) the golden-run lifetime
// traces of the campaign fault targets: rf covers the architectural
// register file (16 units of 32 bits), l1d the L1D data array (one unit
// per 32-bit array word) — both matching the flat fault bit spaces of
// FlipRFBit and FlipL1DBit. Every design-side read and clock-edge write
// of those arrays funnels through the rtl kernel's memory ports, where
// the events are recorded; pipeline latches stay untracked, so latch
// campaigns always fall back to full replay. They ride value lanes all
// the same (lanes.go): a data-latch flip as a diff, any other latch
// fault to a peel on the lane's first tick.
func (c *Core) SetLifetime(rf, l1d *lifetime.Space) {
	c.regfile.SetLifetime(rf)
	c.l1d.data.SetLifetime(l1d)
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
