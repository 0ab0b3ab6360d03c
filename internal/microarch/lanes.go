package microarch

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
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
// tracker and an L1D tracker riding the same golden CPU). A machine is
// named by group and lane, m = group<<6 | lane, so lane k of one group
// and lane k of the other never share a diff.

// PeelReason names the control outcome whose change peeled a lane.
type PeelReason uint8

// Peel reasons.
const (
	PeelBranch     PeelReason = iota // a conditional branch direction
	PeelTarget                       // a RET target
	PeelAddress                      // a load or store effective address
	PeelSyscall                      // a syscall's number or argument registers
	PeelIFetch                       // an L1I fill from diffed memory
	PeelPersistent                   // a persistent fault's bit was read
)

// Lane groups: the targets a store can track side by side.
const (
	groupRF  = 0 // physical register file, 32 bits per register
	groupL1D = 1 // L1D data array, 8 bits per byte
	groups   = 2
)

// machines is a set of machines, one bit each.
type machines [groups]uint64

func (s *machines) has(m int) bool { return s[m>>6]>>(m&63)&1 != 0 }
func (s *machines) add(m int)      { s[m>>6] |= 1 << (m & 63) }
func (s *machines) del(m int)      { s[m>>6] &^= 1 << (m & 63) }
func (s machines) any() bool       { return s[0]|s[1] != 0 }

func (s machines) or(o machines) machines { return machines{s[0] | o[0], s[1] | o[1]} }

func (s machines) without(o machines) machines { return machines{s[0] &^ o[0], s[1] &^ o[1]} }

// pop removes and returns the lowest machine of s, -1 when s is empty.
func (s *machines) pop() int {
	for g := range s {
		if s[g] != 0 {
			k := bits.TrailingZeros64(s[g])
			s[g] &= s[g] - 1
			return g<<6 | k
		}
	}
	return -1
}

// Diff kinds: the data locations a lane can differ in.
const (
	kPRF         uint8 = iota // at = physical register
	kResult                   // at = uop slot, from here to kFlagsInSnap
	kStoreVal                 //
	kFlags                    //
	kFlagsIn                  //
	kFlagsInSnap              //
	kArchFlags                // at = 0
	kL1D                      // at = L1D data-array byte
	kMem                      // at = memory address
	kOut                      // at = output byte
)

func uopKind(k uint8) bool { return k >= kResult && k <= kFlagsInSnap }

// nm is the machine capacity of a store: two groups of 64.
const nm = groups * 64

// uopDiff is one machine's diff over a uop slot's data fields: result
// and storeVal, then flags, flagsIn and flagsInSnap packed.
type uopDiff struct {
	v [2]uint32
	f [3]uint8
}

func (d *uopDiff) field(kind uint8) uint32 {
	if kind <= kStoreVal {
		return d.v[kind-kResult]
	}
	return uint32(d.f[kind-kFlags])
}

func (d *uopDiff) setField(kind uint8, x uint32) {
	if kind <= kStoreVal {
		d.v[kind-kResult] = x
	} else {
		d.f[kind-kFlags] = uint8(x)
	}
}

// byteDiff is a differing byte of L1D, memory or output: x is the
// exclusive-or of golden's and the machine's byte, never 0.
type byteDiff struct {
	at   uint32
	x    uint8
	kind uint8
}

// undoRec restores one location's diff as it stood before a write of the
// current tick.
type undoRec struct {
	m    uint8
	kind uint8
	at   uint32
	old  uint32
}

// laneWB is a write-back whose digest on machine m differs from golden's.
type laneWB struct {
	m   uint8
	txn trace.Transaction
}

// laneStore is the value-lane store riding one CPU. Not safe for concurrent
// use.
type laneStore struct {
	c *CPU

	// Register and uop diffs are dense, one entry per location and
	// machine: they are what a corrupted value moves through every cycle.
	prfX  []uint32  // [p*nm + m]
	uopX  []uopDiff // [slot*nm + m]
	flagX [nm]uint8 // archFlags

	// Byte diffs — L1D, memory, output — are sparse, a short list per
	// machine.
	bytes [nm][]byteDiff

	// Per-location membership: the machines with a diff there. The hooks
	// on the golden step test one of these and go on when it is empty.
	prf  []machines // per physical register
	uop  []machines // per uop slot, any field
	line []machines // per L1D line, any byte
	flag machines   // archFlags
	l1d  machines   // any L1D byte
	mem  machines   // any memory byte
	out  machines   // any output byte

	wb  machines // machines with a diverged write-back
	wbs []laneWB

	persist  machines // forced by Force: peel on read
	peeled   machines // left lockstep this tick
	consumed machines // read a diff this tick
	reason   [nm]PeelReason

	// undo journals every diff overwritten during the current tick, per
	// group: a lane peeled mid-tick is rebuilt as it stood when the tick
	// began.
	undo [groups][]undoRec

	lineBytes int
	buf       []byte     // a lane's copy of a written-back line
	tmp       []byteDiff // copyBytes' scratch
}

// stores recycles value-lane stores between the engines of a process: a
// store is a few hundred KB of planes, and every lockstep engine builds
// fresh simulators. A store goes back fully retired, so whoever takes it
// next sees no trace of its last use. Not a sync.Pool: a collection
// empties one, and a run-to-end campaign, which allocates enough to
// collect every few walks, then pays for a store per engine (measured:
// +7% allocation per fault on the benchmark's ma_runtoend workload).
var stores struct {
	sync.Mutex
	free []*laneStore
}

// maxFreeStores bounds the stores kept for reuse: a pool goroutine holds
// one at a time.
const maxFreeStores = 8

// AttachLanes gives the CPU a value-lane store and returns its groups
// over the register file and the L1D data array (nil for a target not
// asked for). Every lane starts golden.
func (c *CPU) AttachLanes(rf, l1d bool) (rfLanes, l1dLanes *LaneGroup) {
	c.DetachLanes()
	lines := c.L1D.DataBits() / 8 / c.cfg.L1D.LineBytes
	var l *laneStore
	stores.Lock()
	for i, s := range stores.free {
		if len(s.prf) == len(c.prf) && len(s.uop) == len(c.uops) && len(s.line) == lines && s.lineBytes == c.cfg.L1D.LineBytes {
			l = s
			stores.free = append(stores.free[:i], stores.free[i+1:]...)
			break
		}
	}
	stores.Unlock()
	if l == nil {
		l = &laneStore{
			prfX:      make([]uint32, len(c.prf)*nm),
			uopX:      make([]uopDiff, len(c.uops)*nm),
			prf:       make([]machines, len(c.prf)),
			uop:       make([]machines, len(c.uops)),
			line:      make([]machines, lines),
			lineBytes: c.cfg.L1D.LineBytes,
			buf:       make([]byte, c.cfg.L1D.LineBytes),
		}
	}
	l.c = c
	c.lanes = l
	if rf {
		rfLanes = &LaneGroup{l: l, g: groupRF}
	}
	if l1d {
		l1dLanes = &LaneGroup{l: l, g: groupL1D}
	}
	return rfLanes, l1dLanes
}

// DetachLanes takes the store off the CPU's hooks, every lane retired,
// and recycles it.
func (c *CPU) DetachLanes() {
	l := c.lanes
	if l == nil {
		return
	}
	c.lanes = nil
	for m := 0; m < nm; m++ {
		l.retire(m)
	}
	for g := range l.undo {
		l.undo[g] = l.undo[g][:0]
	}
	l.c = nil
	stores.Lock()
	if len(stores.free) < maxFreeStores {
		stores.free = append(stores.free, l)
	}
	stores.Unlock()
}

// find returns the index of machine m's byte diff at (kind, at), or -1.
func (l *laneStore) find(m int, kind uint8, at uint32) int {
	for i, e := range l.bytes[m] {
		if e.at == at && e.kind == kind {
			return i
		}
	}
	return -1
}

// get returns machine m's diff at (kind, at), 0 when it has none.
func (l *laneStore) get(m int, kind uint8, at uint32) uint32 {
	switch {
	case kind == kPRF:
		return l.prfX[int(at)*nm+m]
	case uopKind(kind):
		return l.uopX[int(at)*nm+m].field(kind)
	case kind == kArchFlags:
		return uint32(l.flagX[m])
	}
	if i := l.find(m, kind, at); i >= 0 {
		return uint32(l.bytes[m][i].x)
	}
	return 0
}

// set makes machine m's diff at (kind, at) x, journalling the old one.
func (l *laneStore) set(m int, kind uint8, at, x uint32) {
	old := l.get(m, kind, at)
	if old == x {
		return
	}
	l.journal(m, kind, at, old)
	l.put(m, kind, at, x)
}

// journal records machine m's diff at (kind, at) before a write of the
// current tick overwrites it.
func (l *laneStore) journal(m int, kind uint8, at, old uint32) {
	l.undo[m>>6] = append(l.undo[m>>6], undoRec{m: uint8(m), kind: kind, at: at, old: old})
}

// put stores x as machine m's diff at (kind, at), keeping the membership
// sets in step.
func (l *laneStore) put(m int, kind uint8, at, x uint32) {
	switch {
	case kind == kPRF:
		l.prfX[int(at)*nm+m] = x
		mark(&l.prf[at], m, x != 0)
	case uopKind(kind):
		d := &l.uopX[int(at)*nm+m]
		d.setField(kind, x)
		mark(&l.uop[at], m, *d != uopDiff{})
	case kind == kArchFlags:
		l.flagX[m] = uint8(x)
		mark(&l.flag, m, x != 0)
	default:
		l.putByte(m, kind, at, uint8(x))
	}
}

func mark(s *machines, m int, on bool) {
	if on {
		s.add(m)
	} else {
		s.del(m)
	}
}

// putByte is put for the sparse byte diffs.
func (l *laneStore) putByte(m int, kind uint8, at uint32, x uint8) {
	d, i := l.bytes[m], l.find(m, kind, at)
	switch {
	case x != 0 && i >= 0:
		d[i].x = x
		return
	case x != 0:
		l.bytes[m] = append(d, byteDiff{at: at, x: x, kind: kind})
		l.byteSet(kind, at).add(m)
		if kind == kL1D {
			l.l1d.add(m)
		}
		return
	case i < 0:
		return
	}
	d[i] = d[len(d)-1]
	d = d[:len(d)-1]
	l.bytes[m] = d
	// Leave the location's set only when no other diff keeps m in it.
	set := l.byteSet(kind, at)
	keep, keepL1D := false, false
	for _, e := range d {
		keep = keep || l.byteSet(e.kind, e.at) == set
		keepL1D = keepL1D || e.kind == kL1D
	}
	if !keep {
		set.del(m)
	}
	if !keepL1D {
		l.l1d.del(m)
	}
}

// byteSet returns the membership set a byte diff counts in.
func (l *laneStore) byteSet(kind uint8, at uint32) *machines {
	switch kind {
	case kL1D:
		return &l.line[int(at)/l.lineBytes]
	case kMem:
		return &l.mem
	}
	return &l.out
}

// retire returns machine m to golden.
func (l *laneStore) retire(m int) {
	for p := range l.prf {
		if l.prf[p].has(m) {
			l.put(m, kPRF, uint32(p), 0)
		}
	}
	for s := range l.uop {
		if l.uop[s].has(m) {
			l.uopX[s*nm+m] = uopDiff{}
			l.uop[s].del(m)
		}
	}
	l.put(m, kArchFlags, 0, 0)
	for _, e := range l.bytes[m] {
		l.byteSet(e.kind, e.at).del(m)
	}
	l.bytes[m] = l.bytes[m][:0]
	for _, s := range []*machines{&l.l1d, &l.wb, &l.persist, &l.peeled, &l.consumed} {
		s.del(m)
	}
	kept := l.wbs[:0]
	for _, w := range l.wbs {
		if int(w.m) != m {
			kept = append(kept, w)
		}
	}
	l.wbs = kept
}

// peel takes machine m out of lockstep for reason r (the first reason of
// a tick stands).
func (l *laneStore) peel(m int, r PeelReason) {
	if !l.peeled.has(m) {
		l.peeled.add(m)
		l.reason[m] = r
	}
}

// read notes that machine m consumed a diff; a persistent one peels. It
// reports whether the machine still rides.
func (l *laneStore) read(m int) bool {
	l.consumed.add(m)
	if l.persist.has(m) {
		l.peel(m, PeelPersistent)
		return false
	}
	return true
}

// live is the subset of s still in lockstep this tick.
func (l *laneStore) live(s machines) machines { return s.without(l.peeled) }

// reg reports whether any machine differs in physical register p (-1:
// no operand).
func (l *laneStore) reg(p int16) bool { return p >= 0 && l.prf[p].any() }

// ------------------------------------------------------- golden-step hooks

// alu re-evaluates an ALU, compare or RET uop in slot s for the machines
// whose operands differ; a and b are golden's operand values.
func (l *laneStore) alu(s slot, u *uop, a, b uint32) {
	var set machines
	if u.src1 >= 0 {
		set = set.or(l.prf[u.src1])
	}
	if u.src2 >= 0 {
		set = set.or(l.prf[u.src2])
	}
	set = l.live(set)
	in, op, at := u.inst, u.inst.Op, uint32(s)
	for m := set.pop(); m >= 0; m = set.pop() {
		if !l.read(m) {
			continue
		}
		a2, b2 := a, b
		if u.src1 >= 0 {
			a2 ^= l.get(m, kPRF, uint32(u.src1))
		}
		if u.src2 >= 0 {
			b2 ^= l.get(m, kPRF, uint32(u.src2))
		}
		// The cases of execALU, in its order.
		switch {
		case op == isa.OpCMP:
			l.set(m, kFlags, at, uint32(isa.SubFlags(a2, b2).Pack()^u.flags.Pack()))
		case op == isa.OpCMPI:
			l.set(m, kFlags, at, uint32(isa.SubFlags(a2, uint32(in.Imm)).Pack()^u.flags.Pack()))
		case op == isa.OpMOVT:
			l.set(m, kResult, at, isa.EvalALU(op, a2, uint32(in.Imm))^u.result)
		case op == isa.OpMUL || op == isa.OpUDIV || op == isa.OpSDIV || op.IsALUReg():
			l.set(m, kResult, at, isa.EvalALU(op, a2, b2)^u.result)
		case op.IsALUImm():
			l.set(m, kResult, at, isa.EvalALU(op, a2, uint32(in.Imm))^u.result)
		case op == isa.OpRET:
			if a2 != u.target {
				l.peel(m, PeelTarget)
			}
		}
	}
}

// branch resolves a conditional branch in slot s for the machines whose
// flags differ; f is golden's flags input.
func (l *laneStore) branch(s slot, u *uop, f isa.Flags) {
	src, kind := s, kFlagsIn
	if u.flagProducer != noSlot {
		src, kind = u.flagProducer, kFlags
	}
	set := l.live(l.uop[src])
	for m := set.pop(); m >= 0; m = set.pop() {
		x := l.get(m, kind, uint32(src))
		if x == 0 || !l.read(m) {
			continue
		}
		if isa.CondHolds(u.inst.Op, xorFlags(f, uint8(x))) != u.taken {
			l.peel(m, PeelBranch)
		}
	}
}

// address peels the machines whose address operands differ.
func (l *laneStore) address(u *uop, regForm bool) {
	set := l.prf[u.src1]
	if regForm {
		set = set.or(l.prf[u.src2])
	}
	set = l.live(set)
	for m := set.pop(); m >= 0; m = set.pop() {
		if l.read(m) {
			l.peel(m, PeelAddress)
		}
	}
}

// storeValue records the store data of slot s for the machines whose
// data register differs.
func (l *laneStore) storeValue(s slot, u *uop) {
	set := l.live(l.prf[u.src3])
	for m := set.pop(); m >= 0; m = set.pop() {
		if !l.read(m) {
			continue
		}
		x := l.get(m, kPRF, uint32(u.src3))
		if u.size == 1 {
			x &= 0xFF
		}
		l.set(m, kStoreVal, uint32(s), x)
	}
}

// forward gives load slot s the data of the store in slot from.
func (l *laneStore) forward(s, from slot, size uint8) {
	set := l.live(l.uop[from])
	for m := set.pop(); m >= 0; m = set.pop() {
		x := l.get(m, kStoreVal, uint32(from))
		if x == 0 || !l.read(m) {
			continue
		}
		if size == 1 {
			x &= 0xFF
		}
		l.set(m, kResult, uint32(s), x)
	}
}

// access follows an L1D access's line traffic: a dirty victim written
// back moves each machine's line diff to memory (and compares its
// digest), a refill replaces the line's diffs with memory's.
func (l *laneStore) access(res *cache.Result) {
	if res.Filled && (l.line[res.Line].any() || l.mem.any()) {
		l.refill(res)
	}
}

func (l *laneStore) refill(res *cache.Result) {
	lb := uint32(l.lineBytes)
	base := uint32(res.Line) * lb
	if res.Evicted {
		golden := trace.DigestBytes(res.EvictData)
		set := l.live(l.line[res.Line].or(l.mem))
		for m := set.pop(); m >= 0; m = set.pop() {
			if l.line[res.Line].has(m) {
				if !l.read(m) {
					continue
				}
				copy(l.buf, res.EvictData)
				for _, e := range l.bytes[m] {
					if e.kind == kL1D && e.at-base < lb {
						l.buf[e.at-base] ^= e.x
					}
				}
				if d := trace.DigestBytes(l.buf); d != golden {
					l.wb.add(m)
					l.wbs = append(l.wbs, laneWB{m: uint8(m), txn: trace.Transaction{
						Cycle: l.c.Cycles, Addr: res.EvictAddr, Kind: trace.KindWriteback, Digest: d}})
				}
			}
			l.copyBytes(m, kMem, res.EvictAddr, kL1D, base, lb)
		}
	}
	set := l.live(l.line[res.Line].or(l.mem))
	for m := set.pop(); m >= 0; m = set.pop() {
		l.copyBytes(m, kL1D, base, kMem, res.FillAddr, lb)
	}
}

// copyBytes overwrites machine m's byte diffs of kind dst over
// [dstAt, dstAt+n) with its diffs of kind src over [srcAt, srcAt+n): a
// line written back to memory, or refilled from it.
func (l *laneStore) copyBytes(m int, dst uint8, dstAt uint32, src uint8, srcAt, n uint32) {
	const stale, moved = 0, 1
	l.tmp = l.tmp[:0]
	for _, e := range l.bytes[m] {
		switch {
		case e.kind == dst && e.at-dstAt < n:
			l.tmp = append(l.tmp, byteDiff{at: e.at - dstAt, kind: stale})
		case e.kind == src && e.at-srcAt < n:
			l.tmp = append(l.tmp, byteDiff{at: e.at - srcAt, x: e.x, kind: moved})
		}
	}
	for _, e := range l.tmp {
		if e.kind == stale {
			l.set(m, dst, dstAt+e.at, 0)
		}
	}
	for _, e := range l.tmp {
		if e.kind == moved {
			l.set(m, dst, dstAt+e.at, uint32(e.x))
		}
	}
}

// load gives load slot s the bytes it read at data-array byte idx.
func (l *laneStore) load(s slot, idx int, size uint8) {
	set := l.live(l.line[idx/l.lineBytes])
	for m := set.pop(); m >= 0; m = set.pop() {
		var x uint32
		for i := uint32(0); i < uint32(size); i++ {
			x |= l.get(m, kL1D, uint32(idx)+i) << (8 * i)
		}
		if x == 0 || !l.read(m) {
			continue
		}
		l.set(m, kResult, uint32(s), x)
	}
}

// store writes store slot s's data at data-array byte idx.
func (l *laneStore) store(s slot, idx int, size uint8) {
	set := l.live(l.line[idx/l.lineBytes].or(l.uop[s]))
	for m := set.pop(); m >= 0; m = set.pop() {
		x := l.get(m, kStoreVal, uint32(s))
		for i := uint32(0); i < uint32(size); i++ {
			l.set(m, kL1D, uint32(idx)+i, x>>(8*i)&0xFF)
		}
	}
}

// writeback writes slot s's result to physical register p.
func (l *laneStore) writeback(s slot, p int16) {
	set := l.live(l.prf[p].or(l.uop[s]))
	for m := set.pop(); m >= 0; m = set.pop() {
		l.set(m, kPRF, uint32(p), l.get(m, kResult, uint32(s)))
	}
}

// commitFlags commits slot s's flags to archFlags.
func (l *laneStore) commitFlags(s slot) {
	set := l.live(l.flag.or(l.uop[s]))
	for m := set.pop(); m >= 0; m = set.pop() {
		l.set(m, kArchFlags, 0, l.get(m, kFlags, uint32(s)))
	}
}

// rename captures archFlags into a renamed branch in slot s.
func (l *laneStore) rename(s slot, cond bool) {
	set := l.live(l.flag)
	for m := set.pop(); m >= 0; m = set.pop() {
		if !l.read(m) {
			continue
		}
		x := l.get(m, kArchFlags, 0)
		if cond {
			l.set(m, kFlagsIn, uint32(s), x)
		}
		l.set(m, kFlagsInSnap, uint32(s), x)
	}
}

// free drops every diff of a uop slot that goes back to the free list:
// nothing reads a free slot, and the next occupant starts golden.
func (l *laneStore) free(s slot) {
	set := l.live(l.uop[s])
	for m := set.pop(); m >= 0; m = set.pop() {
		d := &l.uopX[int(s)*nm+m]
		for k := kResult; k <= kFlagsInSnap; k++ {
			if x := d.field(k); x != 0 {
				l.journal(m, k, uint32(s), x)
			}
		}
		*d = uopDiff{}
		l.uop[s].del(m)
	}
}

// syscall peels the machines whose syscall number or argument registers
// (physical registers p7, p0, p1) differ.
func (l *laneStore) syscall(p7, p0, p1 int16) {
	set := l.live(l.prf[p7].or(l.prf[p0]).or(l.prf[p1]))
	for m := set.pop(); m >= 0; m = set.pop() {
		if l.read(m) {
			l.peel(m, PeelSyscall)
		}
	}
}

// output records the output bytes a write syscall copied from memory
// [addr, addr+n) through the L1D view, appended at output byte at.
func (l *laneStore) output(addr, n uint32, at int) {
	set := l.live(l.l1d.or(l.mem))
	for m := set.pop(); m >= 0; m = set.pop() {
		for i := uint32(0); i < n; i++ {
			var x uint32
			if idx, ok := l.c.L1D.Resident(addr + i); ok {
				x = l.get(m, kL1D, uint32(idx))
			} else {
				x = l.get(m, kMem, addr+i)
			}
			if x == 0 {
				continue
			}
			if !l.read(m) {
				break
			}
			l.set(m, kOut, uint32(at)+i, x)
		}
	}
}

// ifetch peels the machines with a memory diff in an L1I line filled
// from [addr, addr+n).
func (l *laneStore) ifetch(addr, n uint32) {
	set := l.live(l.mem)
	for m := set.pop(); m >= 0; m = set.pop() {
		for _, e := range l.bytes[m] {
			if e.kind == kMem && e.at-addr < n {
				l.peel(m, PeelIFetch)
				break
			}
		}
	}
}

// ------------------------------------------------------------ lane groups

// LaneGroup is one tracker's view of the store: lanes 0..63 of one
// group, injected into one target.
type LaneGroup struct {
	l *laneStore
	g int
}

func (t *LaneGroup) machine(lane int) int { return t.g<<6 | lane }

// Flip toggles bit of the group's target in a lane (FlipRFBit's or
// FlipL1DBit's index space).
func (t *LaneGroup) Flip(lane, bit int) error {
	kind, at, mask, err := t.locate(bit)
	if err != nil {
		return err
	}
	m := t.machine(lane)
	t.l.set(m, kind, at, t.l.get(m, kind, at)^mask)
	return nil
}

// Force sets bit of the group's target to v in a lane, as a difference
// from golden's current bit, and makes the lane peel on read.
func (t *LaneGroup) Force(lane, bit, v int) error {
	kind, at, mask, err := t.locate(bit)
	if err != nil {
		return err
	}
	gb := t.l.c.RFBit
	if t.g == groupL1D {
		gb = t.l.c.L1D.DataBit
	}
	m := t.machine(lane)
	x := t.l.get(m, kind, at) &^ mask
	if gb(bit) != v&1 {
		x |= mask
	}
	t.l.set(m, kind, at, x)
	t.l.persist.add(m)
	return nil
}

// locate maps a target bit to its diff location and bit mask.
func (t *LaneGroup) locate(bit int) (kind uint8, at, mask uint32, err error) {
	c := t.l.c
	if t.g == groupRF {
		if bit < 0 || bit >= c.RFBits() {
			return 0, 0, 0, fmt.Errorf("microarch: RF bit %d out of range [0,%d)", bit, c.RFBits())
		}
		return kPRF, uint32(bit / 32), 1 << (bit % 32), nil
	}
	if bit < 0 || bit >= c.L1DBits() {
		return 0, 0, 0, fmt.Errorf("microarch: L1D bit %d out of range [0,%d)", bit, c.L1DBits())
	}
	return kL1D, uint32(bit / 8), 1 << (bit % 8), nil
}

// BeginTick starts a golden step's peel accounting and undo journal;
// call it right before every step while lanes ride.
func (t *LaneGroup) BeginTick() {
	t.l.peeled[t.g], t.l.consumed[t.g] = 0, 0
	t.l.undo[t.g] = t.l.undo[t.g][:0]
}

// Peeled returns the lanes peeled since BeginTick (bit k = lane k).
func (t *LaneGroup) Peeled() uint64 { return t.l.peeled[t.g] }

// Consumed returns the lanes that read a diff since BeginTick.
func (t *LaneGroup) Consumed() uint64 { return t.l.consumed[t.g] }

// Reason says why a peeled lane left lockstep.
func (t *LaneGroup) Reason(lane int) PeelReason { return t.l.reason[t.machine(lane)] }

// Retire returns a lane to golden.
func (t *LaneGroup) Retire(lane int) { t.l.retire(t.machine(lane)) }

// OutputDiffers reports whether a lane's program output differs from
// golden's.
func (t *LaneGroup) OutputDiffers(lane int) bool { return t.l.out.has(t.machine(lane)) }

// AppendDiverged appends a lane's diverged write-backs — golden's
// transactions as the lane's pinout carries them — to buf.
func (t *LaneGroup) AppendDiverged(lane int, buf []trace.Transaction) []trace.Transaction {
	m := t.machine(lane)
	if !t.l.wb.has(m) {
		return buf
	}
	for _, w := range t.l.wbs {
		if int(w.m) == m {
			buf = append(buf, w.txn)
		}
	}
	return buf
}

// Clean reports whether a lane's machine is state-identical to golden
// with an identical pinout: no diverged write-back and no diff that
// StateHash would see. The one diff it cannot see is the flags of the
// retired flag producer (a slot outside the ROB) when nothing names it
// any more.
func (t *LaneGroup) Clean(lane int) bool {
	l, m := t.l, t.machine(lane)
	if l.wb.has(m) {
		return false
	}
	if l.flag.has(m) || len(l.bytes[m]) > 0 {
		return false
	}
	for p := range l.prf {
		if l.prf[p].has(m) {
			return false
		}
	}
	c := l.c
	for s := range l.uop {
		if !l.uop[s].has(m) {
			continue
		}
		if slot(s) != c.retiredFlags || l.uopX[s*nm+m].f[0] != 0 && c.flagsNamed(slot(s)) {
			return false
		}
	}
	return true
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
	l, m := t.l, t.machine(lane)
	u := l.undo[t.g]
	for j := len(u) - 1; j >= 0; j-- {
		if r := u[j]; int(r.m) == m {
			l.put(m, r.kind, r.at, r.old)
		}
	}
	for p := range l.prf {
		if l.prf[p].has(m) {
			dst.prf[p] ^= l.prfX[p*nm+m]
		}
	}
	for s := range l.uop {
		if l.uop[s].has(m) {
			d, u := &l.uopX[s*nm+m], &dst.uops[s]
			u.result ^= d.v[0]
			u.storeVal ^= d.v[1]
			u.flags = xorFlags(u.flags, d.f[0])
			u.flagsIn = xorFlags(u.flagsIn, d.f[1])
			u.flagsInSnap = xorFlags(u.flagsInSnap, d.f[2])
		}
	}
	dst.archFlags = xorFlags(dst.archFlags, l.flagX[m])
	for _, e := range l.bytes[m] {
		for x := e.x; x != 0; x &= x - 1 {
			b := bits.TrailingZeros8(x)
			switch e.kind {
			case kL1D:
				_ = dst.L1D.FlipDataBit(int(e.at)*8 + b)
			case kMem:
				dst.Mem.FlipBit(e.at, uint(b))
			case kOut:
				dst.Output[e.at] ^= 1 << b
			}
		}
	}
}

func xorFlags(f isa.Flags, x uint8) isa.Flags { return isa.UnpackFlags(f.Pack() ^ x) }

// index is the data-array byte an L1D access to addr touched.
func (l *laneStore) index(res *cache.Result, addr uint32) int {
	return res.Line*l.lineBytes + int(addr)&(l.lineBytes-1)
}

// flagsDiffer reports whether any machine differs in the flags a
// conditional branch in slot s reads.
func (l *laneStore) flagsDiffer(s slot, u *uop) bool {
	if u.flagProducer != noSlot {
		s = u.flagProducer
	}
	return l.uop[s].any()
}
