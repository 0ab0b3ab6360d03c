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
// counter, a fetched word's decoded form (a pure function of the word),
// and absolute sequence numbers (uops are digested relative to the
// current sequence counter, since only their ordering is ever compared)
// — so a replay that briefly diverged and reconverged still matches
// golden.
//
// The digest folds 64-bit words, so fields are packed before folding:
// booleans into masks, register names four to a word, 32-bit values in
// pairs. Every packing is lossless and positional (DESIGN.md "State
// digest" has the layout); variable-length queues fold their length
// first.
func (c *CPU) StateHash() uint64 {
	h := statehash.New()

	foldU32s(h, c.prf)
	h.U64(c.prfReady) // bit p for register p: at most 64 (Config.Validate)
	foldI16s(h, c.rat[:])
	foldI16s(h, c.arat[:])
	h.U64(uint64(c.archFlags.Pack()) | uint64(len(c.freeList))<<32)
	foldI16s(h, c.freeList)
	h.U64(c.uopRef(c.specFlagProducer))

	h.U64(uint64(c.fetchPC) | uint64(c.decq.n)<<32)
	h.U64(c.fetchStallUntil)
	for i := 0; i < c.decq.n; i++ {
		f := c.decq.at(i)
		h.U64(uint64(f.pc) | uint64(f.word)<<32)
		h.U64(uint64(f.predTarget) | b2u(f.bad)<<32 | b2u(f.predTaken)<<33)
	}

	// iq and lsq hold subsets of the rob's uops; their membership and
	// order still matter, so digest them as references. All three
	// lengths are at most ROBSize, which the slot type bounds.
	h.U64(uint64(c.rob.n) | uint64(len(c.iq))<<16 | uint64(len(c.lsq))<<32)
	for i := 0; i < c.rob.n; i++ {
		c.hashUop(h, c.rob.at(i))
	}
	for _, s := range c.iq {
		h.U64(c.uopRef(s))
	}
	for _, s := range c.lsq {
		h.U64(c.uopRef(s))
	}

	h.Bytes(c.bimodal)
	h.Int(c.rasLen)
	foldU32s(h, c.ras[:c.rasLen])
	h.U64(c.lsuBusyUntil)
	h.U64(c.mulBusyUntil)

	h.U64(c.Cycles)
	h.Bytes(c.Output)

	c.L1I.HashState(h)
	c.L1D.HashState(h)
	h.U64(c.Mem.Hash())
	return h.Sum()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// foldU32s folds p two values to a word. Callers fold the length of a
// variable-length p themselves; the odd tail is zero-extended.
func foldU32s(h *statehash.Hash, p []uint32) {
	for ; len(p) >= 2; p = p[2:] {
		h.U64(uint64(p[0]) | uint64(p[1])<<32)
	}
	if len(p) == 1 {
		h.U64(uint64(p[0]))
	}
}

// foldI16s folds p four values to a word, each as its 16-bit pattern.
func foldI16s(h *statehash.Hash, p []int16) {
	for ; len(p) >= 4; p = p[4:] {
		h.U64(pack16(p[0], p[1], p[2], p[3]))
	}
	if len(p) > 0 {
		var tail [4]int16
		copy(tail[:], p)
		h.U64(pack16(tail[0], tail[1], tail[2], tail[3]))
	}
}

func pack16(a, b, c, d int16) uint64 {
	return uint64(uint16(a)) | uint64(uint16(b))<<16 | uint64(uint16(c))<<32 | uint64(uint16(d))<<48
}

// uopRef packs a uop reference into one word: its age relative to the
// current sequence counter (so two runs whose in-flight windows are
// field-identical but whose absolute counters drifted apart still
// produce equal digests), shifted over the status a consumer reads
// through the reference — executed, squashed and the flags result. A
// referenced uop may already have left the ROB (a committed flag
// producer) yet still feed younger branches through
// flagsReady/readFlags, so those fields are folded with the reference
// rather than assumed to be covered by the ROB walk. noSlot is all ones,
// which no age below 2^56 produces.
func (c *CPU) uopRef(s slot) uint64 {
	if s == noSlot {
		return ^uint64(0)
	}
	u := &c.uops[s]
	return (c.seq-u.seq)<<8 | b2u(u.executed)<<5 | b2u(u.squashed)<<4 | uint64(u.flags.Pack())
}

// hashUop digests every field of one in-flight instruction in 15
// words; TestUopDigestCoversEveryField holds the packing to the struct.
func (c *CPU) hashUop(h *statehash.Hash, s slot) {
	u := &c.uops[s]
	h.U64(c.uopRef(s)) // age, executed, squashed, flags
	h.U64(uint64(u.pc) | uint64(uint32(u.inst.Imm))<<32)
	h.U64(uint64(u.inst.Op) | uint64(u.inst.Rd)<<8 | uint64(u.inst.Rn)<<16 | uint64(u.inst.Rm)<<24 |
		uint64(u.size)<<32 | uint64(u.fault)<<40 | uint64(uint8(u.dstAr))<<48 |
		uint64(u.flagsIn.Pack())<<56 | uint64(u.flagsInSnap.Pack())<<60)
	h.U64(pack16(u.dst, u.oldDst, u.src1, u.src2))
	h.U64(uint64(uint16(u.src3)) |
		b2u(u.writesFlags)<<16 | b2u(u.inIQ)<<17 | b2u(u.issued)<<18 | b2u(u.taken)<<19 |
		b2u(u.predTaken)<<20 | b2u(u.mispredicted)<<21 | b2u(u.recovered)<<22 |
		b2u(u.isLoad)<<23 | b2u(u.isStore)<<24 | b2u(u.addrReady)<<25 |
		uint64(u.faultWord)<<32)
	h.U64(u.execDone)
	h.U64(uint64(u.result) | uint64(u.target)<<32)
	h.U64(uint64(u.predTarget) | uint64(u.addr)<<32)
	h.U64(uint64(u.storeVal))
	foldI16s(h, u.ratSnap[:])
	h.U64(c.uopRef(u.flagProducer))
	h.U64(c.uopRef(u.flagSnap))
}
