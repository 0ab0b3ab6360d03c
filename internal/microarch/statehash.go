package microarch

import "repro/internal/statehash"

// StateHash digests the CPU's complete behavior-bearing state for the
// campaign engine's convergence exit: if a faulty replay's digest equals
// the golden digest at the same cycle, every observable future of the
// two runs is identical (modulo 64-bit collisions).
//
// Coverage follows Clone: register state, rename tables, free list,
// frontend and backend queues (with every in-flight uop's fields),
// predictors, functional-unit occupancy, program output, both caches and
// backing memory. Pure bookkeeping that cannot influence the future is
// deliberately excluded — cache statistics, the committed-instruction
// counter, and absolute sequence numbers (uops are digested relative to
// the current sequence counter, since only their ordering is ever
// compared) — so a replay that briefly diverged and reconverged still
// matches golden.
func (c *CPU) StateHash() uint64 {
	h := statehash.New()

	for _, v := range c.prf {
		h.U32(v)
	}
	for _, r := range c.prfReady {
		h.Bool(r)
	}
	for _, p := range c.rat {
		h.Int(int(p))
	}
	for _, p := range c.arat {
		h.Int(int(p))
	}
	h.Int(len(c.freeList))
	for _, p := range c.freeList {
		h.Int(int(p))
	}
	h.U64(uint64(c.archFlags.Pack()))
	c.hashUopRef(h, c.specFlagProducer)

	h.U32(c.fetchPC)
	h.U64(c.fetchStallUntil)
	h.Int(c.decq.n)
	for i := 0; i < c.decq.n; i++ {
		f := c.decq.at(i)
		h.U32(f.pc)
		h.U32(f.word)
		h.Bool(f.bad)
		h.Bool(f.predTaken)
		h.U32(f.predTarget)
	}

	h.Int(c.rob.n)
	for i := 0; i < c.rob.n; i++ {
		c.hashUop(h, &c.uops[c.rob.at(i)])
	}
	// iq and lsq hold subsets of the rob's uops; their membership and
	// order still matter, so digest them as references.
	h.Int(len(c.iq))
	for _, s := range c.iq {
		c.hashUopRef(h, s)
	}
	h.Int(len(c.lsq))
	for _, s := range c.lsq {
		c.hashUopRef(h, s)
	}

	h.Bytes(c.bimodal)
	h.Int(c.rasLen)
	for _, v := range c.ras[:c.rasLen] {
		h.U32(v)
	}
	h.U64(c.lsuBusyUntil)
	h.U64(c.mulBusyUntil)

	h.U64(c.Cycles)
	h.Bytes(c.Output)

	c.L1I.HashState(h)
	c.L1D.HashState(h)
	h.U64(c.Mem.Hash())
	return h.Sum()
}

// hashUopRef digests a uop reference as its age relative to the current
// sequence counter (or a sentinel for noSlot), so two runs whose in-flight
// windows are field-identical but whose absolute counters drifted apart
// still produce equal digests. A referenced uop may already have left
// the ROB (a committed flag producer) yet still feed younger branches
// through flagsReady/readFlags, so the fields those paths consult are
// folded here rather than assumed to be covered by the ROB walk.
func (c *CPU) hashUopRef(h *statehash.Hash, s slot) {
	if s == noSlot {
		h.U64(^uint64(0))
		return
	}
	u := &c.uops[s]
	h.U64(c.seq - u.seq)
	h.Bool(u.executed)
	h.Bool(u.squashed)
	h.U64(uint64(u.flags.Pack()))
}

// hashUop digests every field of one in-flight instruction.
func (c *CPU) hashUop(h *statehash.Hash, u *uop) {
	h.U64(c.seq - u.seq)
	h.U32(u.pc)
	h.U64(uint64(u.inst.Op))
	h.U64(uint64(u.inst.Rd))
	h.U64(uint64(u.inst.Rn))
	h.U64(uint64(u.inst.Rm))
	h.U64(uint64(uint32(u.inst.Imm)))

	h.Int(int(u.dst))
	h.Int(int(u.oldDst))
	h.Int(int(u.dstAr))
	h.Int(int(u.src1))
	h.Int(int(u.src2))
	h.Int(int(u.src3))

	h.Bool(u.writesFlags)
	c.hashUopRef(h, u.flagProducer)
	h.U64(uint64(u.flagsIn.Pack()))

	h.Bool(u.inIQ)
	h.Bool(u.issued)
	h.Bool(u.executed)
	h.Bool(u.squashed)
	h.U64(u.execDone)

	h.U32(u.result)
	h.U64(uint64(u.flags.Pack()))
	h.Bool(u.taken)
	h.U32(u.target)

	h.Bool(u.predTaken)
	h.U32(u.predTarget)
	for _, p := range u.ratSnap {
		h.Int(int(p))
	}
	c.hashUopRef(h, u.flagSnap)
	h.U64(uint64(u.flagsInSnap.Pack()))
	h.Bool(u.mispredicted)
	h.Bool(u.recovered)

	h.Bool(u.isLoad)
	h.Bool(u.isStore)
	h.U64(uint64(u.size))
	h.U32(u.addr)
	h.Bool(u.addrReady)
	h.U32(u.storeVal)
	if u.fault != faultNone {
		var buf [96]byte // longer than any fault description
		h.Bytes(u.appendFault(buf[:0]))
	}
}
