package microarch

// Clone returns a deep copy of the CPU, including every in-flight
// instruction, the rename state, predictors, caches and a copy-on-write
// snapshot of memory. The clone's Pinout is nil (the campaign engine
// attaches its own capture); cache access hooks are not copied.
//
// Clone is the foundation of differential fault injection: the campaign
// snapshots the golden run periodically, then replays each faulty run
// from the snapshot closest to its injection cycle. The in-flight window
// is index-addressed (window.go), so it copies flat and the snapshot
// holds no pointer graph for the collector to trace.
func (c *CPU) Clone() *CPU {
	m := c.Mem.Snapshot()
	n := newShell(c.cfg, m, c.L1I.Clone(m), c.L1D.Clone(m))
	n.restoreCore(c)
	return n
}

// RestoreFrom overwrites this CPU's state with a deep copy of base,
// reusing the receiver's storage — slices, cache arrays, the page table
// and the uop slab — instead of allocating a fresh CPU per replay the
// way Clone does. It is the campaign engine's per-worker restore fast
// path; base (typically a shared golden snapshot) is only read and may
// be restored concurrently by other workers. Both CPUs must come from
// the same factory.
func (c *CPU) RestoreFrom(base *CPU) {
	c.Mem.RestoreFrom(base.Mem)
	c.L1I.RestoreFrom(base.L1I, c.Mem)
	c.L1D.RestoreFrom(base.L1D, c.Mem)
	c.restoreCore(base)
}

// restoreCore copies everything outside memory and the caches from
// base — the one field list behind Clone and RestoreFrom (StateHash
// keeps the other).
func (c *CPU) restoreCore(base *CPU) {
	copy(c.prf, base.prf)
	c.prfReady = base.prfReady
	c.rat = base.rat
	c.arat = base.arat
	c.freeList = append(c.freeList[:0], base.freeList...)
	c.archFlags = base.archFlags

	copy(c.uops, base.uops)
	c.uopFree = append(c.uopFree[:0], base.uopFree...)
	c.retiredFlags = base.retiredFlags
	c.specFlagProducer = base.specFlagProducer

	c.fetchPC = base.fetchPC
	c.fetchStallUntil = base.fetchStallUntil
	c.decq.copyFrom(&base.decq)
	c.fbLine = -1 // the L1I was just rewritten
	c.text, c.textBase = base.text, base.textBase

	c.rob.copyFrom(&base.rob)
	c.iq = append(c.iq[:0], base.iq...)
	c.lsq = append(c.lsq[:0], base.lsq...)
	c.inflight = append(c.inflight[:0], base.inflight...)
	copy(c.deps, base.deps)
	c.cmpBusy = base.cmpBusy

	copy(c.bimodal, base.bimodal)
	copy(c.ras, base.ras)
	c.rasLen = base.rasLen

	c.lsuBusyUntil = base.lsuBusyUntil
	c.mulBusyUntil = base.mulBusyUntil

	c.Cycles = base.Cycles
	c.Insts = base.Insts
	c.seq = base.seq
	c.Output = append(c.Output[:0], base.Output...)
	c.Stop = base.Stop
	c.ExitCode = base.ExitCode
	c.FaultDesc = base.FaultDesc
	c.Pinout = nil // as after Clone: the engine attaches its own capture
}
