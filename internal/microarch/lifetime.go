package microarch

import (
	"repro/internal/fault"
	"repro/internal/lifetime"
)

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

// SetLifetime attaches (or detaches, with nil) rec's golden-run traces
// of the physical register file and the L1 data cache data array, each a
// space in its target's fault geometry (registers of 32 bits, lines of
// LineBytes*8 bits).
func (c *CPU) SetLifetime(rec *lifetime.Recorder) {
	units, width := c.geometry(fault.TargetRF)
	c.ltRF = rec.Space(int(fault.TargetRF), units, width)
	units, width = c.geometry(fault.TargetL1D)
	c.L1D.SetLifetime(rec.Space(int(fault.TargetL1D), units, width), &c.Cycles)
}

// readPRF returns physical register p's value, reporting the consuming
// read to the lifetime trace (golden run). Every dataflow read of the
// register file funnels through it — including wrong-path reads, which
// really do consume the value (they can steer cache and predictor state
// before the squash). Value lanes hook the consumers instead, which know
// what the value is for.
func (c *CPU) readPRF(p int16) uint32 {
	if c.ltRF != nil {
		c.traceRead(p)
	}
	return c.prf[p]
}

// traceRead reports the golden run's read of physical register p. It
// stays out of line so readPRF inlines at its call sites.
//
//go:noinline
func (c *CPU) traceRead(p int16) { c.ltRF.Read(c.Cycles, int(p), 0, 32) }
