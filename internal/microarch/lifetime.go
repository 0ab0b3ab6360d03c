package microarch

import "repro/internal/lifetime"

// Golden-run lifetime tracing. The campaign engine attaches lifetime
// spaces to the golden simulator only, and a lane tracker (SetLanes) to
// a lockstep replay's golden instance only; every other CPU runs with
// the hooks nil, so they cost a nil check each on the hot paths.
//
// The physical register file records at register granularity: every
// operand read at issue, every architectural read at commit (syscalls)
// and every full-word writeback. The L1 data cache records at line/byte
// granularity inside the cache model itself (loads, stores, fills,
// write-backs and syscall peeks — see cache.SetLifetime).

// SetLifetime attaches (or detaches, with nils) the golden-run lifetime
// traces: rf covers the physical register file (NumPhysRegs units of 32
// bits, matching the flat RF fault space), l1d the L1 data cache data
// array (lines of LineBytes*8 bits, matching the flat L1D fault space).
func (c *CPU) SetLifetime(rf, l1d *lifetime.Space) {
	c.ltRF = rf
	c.L1D.SetLifetime(l1d, &c.Cycles)
}

// SetLanes attaches (or detaches, with nils) a lockstep lane tracker
// over the physical register file or the L1D data array, with the
// geometry SetLifetime documents. The tracker hears the same events a
// lifetime trace would: that the two hooks share every call site is what
// makes lane replay exactly as complete as dead-interval pruning.
func (c *CPU) SetLanes(rf, l1d *lifetime.Lanes) {
	c.lanesRF = rf
	c.L1D.SetLanes(l1d)
}

// readPRF returns physical register p's value, reporting the consuming
// read to the lifetime trace (golden run) or the lane tracker (lockstep
// replay). Every dataflow read of the register file funnels through it
// — including wrong-path reads, which really do consume the value (they
// can steer cache and predictor state before the squash).
func (c *CPU) readPRF(p int16) uint32 {
	if c.ltRF != nil {
		c.ltRF.Read(c.Cycles, int(p), 0, 32)
	}
	if c.lanesRF != nil {
		c.lanesRF.Read(int(p), 0, 32)
	}
	return c.prf[p]
}
