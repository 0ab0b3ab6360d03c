package microarch

import "repro/internal/lifetime"

// Golden-run lifetime tracing. The campaign engine attaches lifetime
// spaces to the golden simulator only (and value lanes, AttachLanes, to a
// lockstep replay's golden instance only); every other CPU runs with the
// hooks nil, so they cost a nil check each on the hot paths.
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

// readPRF returns physical register p's value, reporting the consuming
// read to the lifetime trace (golden run). Every dataflow read of the
// register file funnels through it — including wrong-path reads, which
// really do consume the value (they can steer cache and predictor state
// before the squash). Value lanes hook the consumers instead, which know
// what the value is for.
func (c *CPU) readPRF(p int16) uint32 {
	if c.ltRF != nil {
		c.ltRF.Read(c.Cycles, int(p), 0, 32)
	}
	return c.prf[p]
}
