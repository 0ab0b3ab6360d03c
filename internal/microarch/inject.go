package microarch

import "fmt"

// Fault-injection surfaces of the microarchitectural model. The paper's
// campaigns target the physical register file and the L1 data cache
// array; both are exposed here as flat bit spaces so statistical sampling
// is uniform over bits.

// RFBits returns the size of the physical register file in bits.
func (c *CPU) RFBits() int { return c.cfg.NumPhysRegs * 32 }

// FlipRFBit injects a single transient bit flip into the physical
// register file: bit index i selects register i/32, bit i%32.
func (c *CPU) FlipRFBit(i int) error {
	if i < 0 || i >= c.RFBits() {
		return fmt.Errorf("microarch: RF bit %d out of range [0,%d)", i, c.RFBits())
	}
	c.prf[i/32] ^= 1 << (i % 32)
	return nil
}

// ForceRFBit sets physical register file bit i to v (0 or 1). It is the
// idempotent primitive behind the permanent and intermittent fault
// models, which re-assert it every active cycle so design writes cannot
// heal the fault.
func (c *CPU) ForceRFBit(i int, v int) error {
	if i < 0 || i >= c.RFBits() {
		return fmt.Errorf("microarch: RF bit %d out of range [0,%d)", i, c.RFBits())
	}
	mask := uint32(1) << (i % 32)
	if v != 0 {
		c.prf[i/32] |= mask
	} else {
		c.prf[i/32] &^= mask
	}
	return nil
}

// RFBit returns physical register file bit i (0 or 1), in FlipRFBit's
// index space.
func (c *CPU) RFBit(i int) int { return int(c.prf[i/32] >> (i % 32) & 1) }

// L1DBits returns the size of the L1 data cache data array in bits.
func (c *CPU) L1DBits() int { return c.L1D.DataBits() }

// FlipL1DBit injects a single transient bit flip into the L1 data cache
// data array.
func (c *CPU) FlipL1DBit(i int) error { return c.L1D.FlipDataBit(i) }

// ForceL1DBit sets L1 data cache data-array bit i to v (0 or 1); see
// ForceRFBit for the re-assertion contract.
func (c *CPU) ForceL1DBit(i int, v int) error { return c.L1D.ForceDataBit(i, v) }

// ReadArchReg returns the committed architectural value of register r,
// used by tests and the software observation point.
func (c *CPU) ReadArchReg(r int) uint32 {
	return c.prf[c.arat[r&15]]
}
