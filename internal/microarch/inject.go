package microarch

import (
	"fmt"

	"repro/internal/fault"
)

// Fault-injection surface of the microarchitectural model. The paper's
// campaigns target the physical register file and the L1 data cache
// array; each is one flat bit space so statistical sampling is uniform
// over bits. The pipeline latches are not modelled at this level.

// geometry states target t's flat bit space: units × width bits, the
// physical register file by register and the L1D data array by line.
// Bits, Flip, Force, SetLifetime and the lane groups all read it; units
// is 0 for a target this level does not model.
func (c *CPU) geometry(t fault.Target) (units, width int) {
	switch t {
	case fault.TargetRF:
		return len(c.prf), 32
	case fault.TargetL1D:
		lb := c.cfg.L1D.LineBytes * 8
		return c.L1D.DataBits() / lb, lb
	}
	return 0, 0
}

// Bits returns the size of target t's bit space (0 if not modelled).
func (c *CPU) Bits(t fault.Target) int {
	units, width := c.geometry(t)
	return units * width
}

// Flip injects a single transient bit flip into bit i of target t:
// register i/32, bit i%32, of the register file, or data-array bit i of
// the L1D.
func (c *CPU) Flip(t fault.Target, i int) error { return c.inject(t, i, -1) }

// Force sets bit i of target t to v (0 or 1). It is the idempotent
// primitive behind the permanent and intermittent fault models, which
// re-assert it every active cycle so design writes cannot heal the
// fault.
func (c *CPU) Force(t fault.Target, i, v int) error { return c.inject(t, i, v) }

// inject sets bit i of target t to v, or toggles it when v is negative.
func (c *CPU) inject(t fault.Target, i, v int) error {
	if n := c.Bits(t); i < 0 || i >= n {
		return fmt.Errorf("microarch: %v bit %d out of range [0,%d)", t, i, n)
	}
	if v < 0 {
		v = c.bit(t, i) ^ 1
	}
	if t == fault.TargetL1D {
		return c.L1D.ForceDataBit(i, v)
	}
	if mask := uint32(1) << (i % 32); v != 0 {
		c.prf[i/32] |= mask
	} else {
		c.prf[i/32] &^= mask
	}
	return nil
}

// bit returns bit i of target t (0 or 1): the golden peek of a lane
// group.
func (c *CPU) bit(t fault.Target, i int) int {
	if t == fault.TargetL1D {
		return c.L1D.DataBit(i)
	}
	return int(c.prf[i/32] >> (i % 32) & 1)
}

// ReadArchReg returns the committed architectural value of register r,
// used by tests and the software observation point.
func (c *CPU) ReadArchReg(r int) uint32 {
	return c.prf[c.arat[r&15]]
}
