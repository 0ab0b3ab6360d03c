package microarch

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lanestore"
)

// Value lanes: faulty machines riding a golden CPU as data diffs.
//
// A lane is the golden machine with some data values exclusive-ored by a
// diff. Data is what the model computes with but never branches on:
// physical register values, the in-flight uops' result, storeVal and
// flags with the flag captures rename takes (flagsIn, flagsInSnap),
// archFlags, L1D data bytes, memory bytes and output bytes. Everything
// else — rename and queue state, addresses, branch outcomes, timing,
// tags, valid and dirty bits, predictors — is control, and a riding lane
// shares golden's control exactly (TestFieldsAreControlOrData holds
// every uop and CPU field to one side).
//
// The golden step re-evaluates an operation for a lane only when one of
// its inputs carries that lane's diff, with the pure isa functions the
// kernel itself calls, and records the lane's result at the destination.
// A lane peels — leaves lockstep for a scalar tail — at the first
// control outcome its diff would change: a branch direction or RET
// target, a load or store address, a syscall's number or arguments, an
// instruction fetch from diffed memory. A dirty line written back with a
// diff does not peel: its digest is compared with golden's (a differing
// one marks the lane's pinout diverged at that transaction) and the diff
// moves to a memory plane, which a later refill brings back into L1D.
//
// Persistent faults keep peel-on-read: a lane forced by Force peels at
// the first read of any location its diff sits in, because its bit is
// re-asserted every cycle rather than carried as data.
//
// One store serves two groups of up to 64 lanes each (a register-file
// tracker and an L1D tracker riding the same golden CPU, in the slots
// AttachLanes hands out). A machine is named by group and lane, m =
// group<<6 | lane, so lane k of one group and lane k of the other never
// share a diff. The planes live in package lanestore, as the RTL model's
// do: this file declares its dense ones (the physical registers, one per
// uop data field, archFlags) and keeps the hooks. The store reads,
// writes, journals, rewinds and retires every plane, dense and byte, and
// keeps the write-back list and the peel accounting.

type machines = lanestore.Machines

// Diff kinds: the data locations a lane can differ in. The dense ones are
// the store's planes, in this order.
const (
	kPRF         uint8 = iota // at = physical register
	kResult                   // at = uop slot, from here to kFlagsInSnap
	kStoreVal                 //
	kFlags                    //
	kFlagsIn                  //
	kFlagsInSnap              //
	kArchFlags                // at = 0
	kL1D         = lanestore.KL1D
	kMem         = lanestore.KMem
	kOut         = lanestore.KOut
)

// laneStore is the value-lane store riding one CPU, with a handle on each
// dense plane for the hooks. Not safe for concurrent use.
type laneStore struct {
	lanestore.Store
	c *CPU

	prf                              *lanestore.Plane
	result, storeVal, flags, flagsIn *lanestore.Plane
	flagsInSnap, archFlags           *lanestore.Plane

	// The five field planes' Union and Joint: uops holds every machine
	// with a uop-field diff, slots[s] every machine with one in slot s,
	// so freeing a slot is one load when nobody differs there.
	uops  machines
	slots []machines
}

// stores recycles value-lane stores between the engines of a process.
var stores lanestore.FreeList[*laneStore]

// AttachLanes gives the CPU a value-lane store and returns one group per
// target, in order: the register file or the L1D data array (a group
// over any other target has no bits). The store's lane groups are slots
// handed out in attach order, at most lanestore.Groups of them. Every
// lane starts golden.
func (c *CPU) AttachLanes(targets ...fault.Target) []*LaneGroup {
	c.DetachLanes()
	lines, lb := c.L1D.DataBits()/8/c.cfg.L1D.LineBytes, c.cfg.L1D.LineBytes
	n := len(c.uops)
	planes := []int{kPRF: len(c.prf), kResult: n, kStoreVal: n, kFlags: n, kFlagsIn: n, kFlagsInSnap: n, kArchFlags: 1}
	l := stores.Take(func(s *laneStore) bool { return s.Fits(lines, lb, planes...) })
	if l == nil {
		l = &laneStore{}
		l.Init(lines, lb, planes...)
		l.prf, l.result, l.storeVal, l.flags = l.Plane(kPRF), l.Plane(kResult), l.Plane(kStoreVal), l.Plane(kFlags)
		l.flagsIn, l.flagsInSnap, l.archFlags = l.Plane(kFlagsIn), l.Plane(kFlagsInSnap), l.Plane(kArchFlags)
		l.slots = make([]machines, n)
		for k := kResult; k <= kFlagsInSnap; k++ {
			l.Plane(k).Union, l.Plane(k).Joint = &l.uops, l.slots
		}
	}
	l.c = c
	c.lanes = l
	groups := make([]*LaneGroup, len(targets))
	for g, t := range targets {
		grp := lanestore.Group{S: &l.Store, G: g, Bits: c.Bits(t),
			Golden: func(i int) int { return c.bit(t, i) }}
		switch t {
		case fault.TargetRF:
			grp.Kind, grp.Width = kPRF, 32
		case fault.TargetL1D:
			grp.Kind, grp.Width = kL1D, 8
		}
		groups[g] = &LaneGroup{grp, l}
	}
	return groups
}

// DetachLanes takes the store off the CPU's hooks, every lane retired,
// and recycles it.
func (c *CPU) DetachLanes() {
	l := c.lanes
	if l == nil {
		return
	}
	c.lanes = nil
	l.Reset()
	l.c = nil
	stores.Put(l)
}

// reg reports whether any machine differs in physical register p (-1:
// no operand).
func (l *laneStore) reg(p int16) bool { return p >= 0 && l.prf.At[p].Any() }

// ------------------------------------------------------- golden-step hooks

// alu re-evaluates an ALU, compare or RET uop in slot s for the machines
// whose operands differ; a and b are golden's operand values.
func (l *laneStore) alu(s slot, u *uop, a, b uint32) {
	var set machines
	if u.src1 >= 0 {
		set = set.Or(l.prf.At[u.src1])
	}
	if u.src2 >= 0 {
		set = set.Or(l.prf.At[u.src2])
	}
	set = l.Live(set)
	in, op, at := u.inst, u.inst.Op, uint32(s)
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if !l.Read(m) {
			continue
		}
		a2, b2 := a, b
		if u.src1 >= 0 {
			a2 ^= l.prf.Diff(m, int(u.src1))
		}
		if u.src2 >= 0 {
			b2 ^= l.prf.Diff(m, int(u.src2))
		}
		// The cases of execALU, in its order.
		switch {
		case op == isa.OpCMP:
			l.Set(m, kFlags, at, uint32(isa.SubFlags(a2, b2).Pack()^u.flags.Pack()))
		case op == isa.OpCMPI:
			l.Set(m, kFlags, at, uint32(isa.SubFlags(a2, uint32(in.Imm)).Pack()^u.flags.Pack()))
		case op == isa.OpMOVT:
			l.Set(m, kResult, at, isa.EvalALU(op, a2, uint32(in.Imm))^u.result)
		case op == isa.OpMUL || op == isa.OpUDIV || op == isa.OpSDIV || op.IsALUReg():
			l.Set(m, kResult, at, isa.EvalALU(op, a2, b2)^u.result)
		case op.IsALUImm():
			l.Set(m, kResult, at, isa.EvalALU(op, a2, uint32(in.Imm))^u.result)
		case op == isa.OpRET:
			if a2 != u.target {
				l.Peel(m, lanestore.PeelTarget)
			}
		}
	}
}

// flagsRead returns the plane and slot of the flags a conditional branch
// in slot s reads: its flag producer's, or the ones rename captured.
func (l *laneStore) flagsRead(s slot, u *uop) (*lanestore.Plane, slot) {
	if u.flagProducer != noSlot {
		return l.flags, u.flagProducer
	}
	return l.flagsIn, s
}

// branch resolves a conditional branch in slot s for the machines whose
// flags differ; f is golden's flags input.
func (l *laneStore) branch(s slot, u *uop, f isa.Flags) {
	p, src := l.flagsRead(s, u)
	set := l.Live(p.At[src])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) && isa.CondHolds(u.inst.Op, xorFlags(f, uint8(p.Diff(m, int(src))))) != u.taken {
			l.Peel(m, lanestore.PeelBranch)
		}
	}
}

// flagsDiffer reports whether any machine differs in the flags a
// conditional branch in slot s reads.
func (l *laneStore) flagsDiffer(s slot, u *uop) bool {
	p, src := l.flagsRead(s, u)
	return p.At[src].Any()
}

// address peels the machines whose address operands differ.
func (l *laneStore) address(u *uop, regForm bool) {
	set := l.prf.At[u.src1]
	if regForm {
		set = set.Or(l.prf.At[u.src2])
	}
	set = l.Live(set)
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) {
			l.Peel(m, lanestore.PeelAddress)
		}
	}
}

// storeValue records the store data of slot s for the machines whose
// data register differs.
func (l *laneStore) storeValue(s slot, u *uop) {
	set := l.Live(l.prf.At[u.src3])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if !l.Read(m) {
			continue
		}
		x := l.prf.Diff(m, int(u.src3))
		if u.size == 1 {
			x &= 0xFF
		}
		l.Set(m, kStoreVal, uint32(s), x)
	}
}

// forward gives load slot s the data of the store in slot from.
func (l *laneStore) forward(s, from slot, size uint8) {
	set := l.Live(l.storeVal.At[from])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if !l.Read(m) {
			continue
		}
		x := l.storeVal.Diff(m, int(from))
		if size == 1 {
			x &= 0xFF
		}
		l.Set(m, kResult, uint32(s), x)
	}
}

// access follows an L1D access's line traffic: a dirty victim written
// back moves each machine's line diff to memory (and compares its
// digest), a refill replaces the line's diffs with memory's.
func (l *laneStore) access(res *cache.Result) {
	if res.Filled && (l.Line[res.Line].Any() || l.Mem.Any()) {
		l.refill(res)
	}
}

func (l *laneStore) refill(res *cache.Result) {
	base := uint32(res.Line * l.LineBytes)
	if res.Evicted {
		l.WriteBack(res.Line, base, res.EvictData, res.EvictAddr, l.c.Cycles)
	}
	set := l.Live(l.Line[res.Line].Or(l.Mem))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		l.CopyBytes(m, kL1D, base, kMem, res.FillAddr, uint32(l.LineBytes))
	}
}

// load gives load slot s the bytes it read at data-array byte idx.
func (l *laneStore) load(s slot, idx int, size uint8) {
	set := l.Live(l.Line[idx/l.LineBytes])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		var x uint32
		for i := uint32(0); i < uint32(size); i++ {
			x |= l.Get(m, kL1D, uint32(idx)+i) << (8 * i)
		}
		if x == 0 || !l.Read(m) {
			continue
		}
		l.Set(m, kResult, uint32(s), x)
	}
}

// store writes store slot s's data at data-array byte idx.
func (l *laneStore) store(s slot, idx int, size uint8) {
	set := l.Live(l.Line[idx/l.LineBytes].Or(l.storeVal.At[s]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		x := l.storeVal.Diff(m, int(s))
		for i := uint32(0); i < uint32(size); i++ {
			l.Set(m, kL1D, uint32(idx)+i, x>>(8*i)&0xFF)
		}
	}
}

// writeback writes slot s's result to physical register p.
func (l *laneStore) writeback(s slot, p int16) {
	set := l.Live(l.prf.At[p].Or(l.result.At[s]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		l.Set(m, kPRF, uint32(p), l.result.Diff(m, int(s)))
	}
}

// commitFlags commits slot s's flags to archFlags.
func (l *laneStore) commitFlags(s slot) {
	set := l.Live(l.archFlags.At[0].Or(l.flags.At[s]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		l.Set(m, kArchFlags, 0, l.flags.Diff(m, int(s)))
	}
}

// rename captures archFlags into a renamed branch in slot s.
func (l *laneStore) rename(s slot, cond bool) {
	set := l.Live(l.archFlags.At[0])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if !l.Read(m) {
			continue
		}
		x := l.archFlags.Diff(m, 0)
		if cond {
			l.Set(m, kFlagsIn, uint32(s), x)
		}
		l.Set(m, kFlagsInSnap, uint32(s), x)
	}
}

// free drops every diff of a uop slot that goes back to the free list:
// nothing reads a free slot, and the next occupant starts golden.
func (l *laneStore) free(s slot) {
	live := l.Live(l.slots[s])
	for k, p := range [...]*lanestore.Plane{l.result, l.storeVal, l.flags, l.flagsIn, l.flagsInSnap} {
		for set := l.Live(p.At[s]); set.Any(); {
			l.Set(set.Pop(), kResult+uint8(k), uint32(s), 0)
		}
	}
	l.slots[s] = l.slots[s].Without(live)
}

// syscall peels the machines whose syscall number or argument registers
// (physical registers p7, p0, p1) differ.
func (l *laneStore) syscall(p7, p0, p1 int16) {
	set := l.Live(l.prf.At[p7].Or(l.prf.At[p0]).Or(l.prf.At[p1]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) {
			l.Peel(m, lanestore.PeelSyscall)
		}
	}
}

// output records the output bytes a write syscall copied from memory
// [addr, addr+n) through the L1D view, appended at output byte at.
func (l *laneStore) output(addr, n uint32, at int) {
	set := l.Live(l.L1D.Or(l.Mem))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		for i := uint32(0); i < n; i++ {
			var x uint32
			if idx, ok := l.c.L1D.Resident(addr + i); ok {
				x = l.Get(m, kL1D, uint32(idx))
			} else {
				x = l.Get(m, kMem, addr+i)
			}
			if x == 0 {
				continue
			}
			if !l.Read(m) {
				break
			}
			l.Set(m, kOut, uint32(at)+i, x)
		}
	}
}

// ------------------------------------------------------------ lane groups

// LaneGroup is one tracker's view of the store: lanes 0..63 of one
// group, injected into one target.
type LaneGroup struct {
	lanestore.Group
	l *laneStore
}

// Retire returns a lane to golden.
func (t *LaneGroup) Retire(lane int) { t.l.Retire(t.Machine(lane)) }

// Clean reports whether a lane's machine is state-identical to golden
// with an identical pinout: no diverged write-back and no diff that
// StateHash would see. The one slot it cannot see is the retired flag
// producer's (outside the ROB): only its flags count, and only while
// something still names them.
func (t *LaneGroup) Clean(lane int) bool {
	c := t.l.c
	return t.l.Clean(t.Machine(lane), func(kind uint8, at int) bool {
		return slot(at) == c.retiredFlags && kind >= kResult && kind <= kFlagsInSnap &&
			(kind != kFlags || !c.flagsNamed(slot(at)))
	})
}

// flagsNamed reports whether a uop's flags are still referenced: by the
// speculative flag producer or by an in-flight uop's flag producer or
// recovery snapshot.
func (c *CPU) flagsNamed(s slot) bool {
	if c.specFlagProducer == s {
		return true
	}
	for i := 0; i < c.rob.n; i++ {
		u := &c.uops[c.rob.at(i)]
		if u.flagProducer == s || u.flagSnap == s {
			return true
		}
	}
	return false
}

// Rebuild applies a lane's machine, as it stood when the current tick
// began, onto dst: a CPU of the same configuration holding golden's
// state at that cycle. The lane's diffs are consumed; retire it next.
func (t *LaneGroup) Rebuild(lane int, dst *CPU) {
	l, m := t.l, t.Machine(lane)
	l.Undo(m)
	for p := range dst.prf {
		dst.prf[p] ^= l.prf.Diff(m, p)
	}
	for s := range dst.uops {
		u := &dst.uops[s]
		u.result ^= l.result.Diff(m, s)
		u.storeVal ^= l.storeVal.Diff(m, s)
		u.flags = xorFlags(u.flags, uint8(l.flags.Diff(m, s)))
		u.flagsIn = xorFlags(u.flagsIn, uint8(l.flagsIn.Diff(m, s)))
		u.flagsInSnap = xorFlags(u.flagsInSnap, uint8(l.flagsInSnap.Diff(m, s)))
	}
	dst.archFlags = xorFlags(dst.archFlags, uint8(l.archFlags.Diff(m, 0)))
	for _, e := range l.Bytes(m) {
		for x := e.X; x != 0; x &= x - 1 {
			b := bits.TrailingZeros8(x)
			switch e.Kind {
			case kL1D:
				_ = dst.L1D.FlipDataBit(int(e.At)*8 + b)
			case kMem:
				dst.Mem.FlipBit(e.At, uint(b))
			case kOut:
				dst.Output[e.At] ^= 1 << b
			}
		}
	}
}

func xorFlags(f isa.Flags, x uint8) isa.Flags { return isa.UnpackFlags(f.Pack() ^ x) }

// index is the data-array byte an L1D access to addr touched.
func (l *laneStore) index(res *cache.Result, addr uint32) int {
	return res.Line*l.LineBytes + int(addr)&(l.LineBytes-1)
}
