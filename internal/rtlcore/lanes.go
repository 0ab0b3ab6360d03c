package rtlcore

import (
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/lanestore"
	"repro/internal/rtl"
)

// Value lanes: faulty machines riding the golden core as data diffs.
//
// A lane is the golden design with some data values exclusive-ored by a
// diff. Data is what the design computes with but never decides control
// on: the register file, the operand and result latches (idex_a, idex_b,
// idex_st, exmem_r, exmem_st, memwb_v), flags, the L1D data array,
// memory and output. Everything else — pc, stall, halted, every stage's
// ir/pc/valid/exc, the L1I arrays and the L1D tag, valid, dirty and LRU
// arrays — is control, and a riding lane shares golden's control exactly
// (TestStateIsControlOrData holds every state element to one side).
//
// Diffs move as golden's values move, at the clock edge: a latch's D-side
// diff becomes its Q-side diff when golden drives the latch (a held latch
// keeps its Q-side diff), and a queued register-file or L1D write
// overwrites the lane's word with the diff the write carried. Inside
// eval a lane's value follows golden's through the same selects: a
// register read (or its write-back bypass) into an operand latch,
// forwarding — which source it takes is control, the diff comes from the
// chosen source — into the execute datapath, which the lane re-evaluates
// with evalDatapath on its own operands, and on through exmem_r and
// memwb_v to the register file; L1D data moves between the array and the
// memory plane with the line traffic. A lane peels — leaves lockstep for
// a scalar tail — at the first control outcome its diff would change: a
// branch direction (its flags change CondHolds), a RET target, a load or
// store address (exmem_r used as one), a syscall's number or arguments,
// an instruction fill from diffed memory. A dirty line written back with
// a diff does not peel (lanestore.Store.WriteBack).
//
// Persistent faults peel on read, as on the microarchitectural
// model: a lane forced by Force peels at the first read of a diff.
//
// A latch fault rides too. A flip in a data latch is a diff on its Q
// side. A flip in a control latch, and any forced latch bit, is kept for
// Rebuild, and the lane peels on its first tick (lanestore.PeelFault):
// its scalar tail starts from exactly the state the fault gives a scalar
// core at that cycle.
//
// The planes live in package lanestore, as the microarchitectural
// model's do: this file declares its dense ones (the register file, the
// queued register write, each data latch's Q and D side, the L1D write
// queue) and keeps the hooks, and the two unions eval and the edge gate
// on.
//
// The exec-stage data latches, in a lane's plane order.
const (
	latA     = iota // idex_a
	latB            // idex_b
	latSt           // idex_st
	latR            // exmem_r: data as an ALU result, control as an address
	latMSt          // exmem_st
	latV            // memwb_v
	latFlags        // flags
	nLat
)

// dataLatches are the core's data latches in plane order.
func (c *Core) dataLatches() [nLat]*rtl.Reg {
	return [nLat]*rtl.Reg{c.idexA, c.idexB, c.idexSt, c.exmemR, c.exmemSt, c.memwbV, c.flags}
}

// Diff kinds: the store's dense planes, in this order, then the byte
// planes.
const (
	kRF  uint8 = iota // at = register-file word
	kRFQ              // the queued register-file write (at most one a cycle)
	kQ                // at = data latch, Q side
	kD                // at = data latch, D side
	kP                // at = position in the L1D write queue
	kL1D = lanestore.KL1D
	kMem = lanestore.KMem
	kOut = lanestore.KOut
)

const nm = lanestore.NM

type machines = lanestore.Machines

// src names where a value the pipeline moves comes from: a register-file
// word (0..15), a data latch's Q side (srcLat+latch), or a value no lane
// can differ in (srcNone: an immediate, a pc, a constant).
type src int8

const (
	srcNone   src = -1
	srcLat    src = 16
	srcLoaded src = -2 // a load's data, which the load hook latches itself
)

// laneStore is the value-lane store riding one core, with a handle on
// each dense plane for the hooks. Not safe for concurrent use.
type laneStore struct {
	lanestore.Store
	c *Core

	rf, rfq, q, d, p *lanestore.Plane

	// dense holds every machine with a register-file or latch diff, so
	// eval skips its register and latch hooks when it is empty: exact at
	// the edge, grown by writes and shrunk by retires in between (the
	// union of those planes). pend holds every machine with a queued L1D
	// write diff.
	dense, pend machines

	// held keeps each machine's latch faults outside the value planes
	// for Rebuild; faulted holds the machines with any.
	held    [nm][]latchFault
	faulted machines
}

// latchFault is one bit of the flat latch space (Flip's indexing for
// fault.TargetLatches) and the value a fault forces it to, or -1 for a
// flip.
type latchFault struct{ bit, v int }

var stores lanestore.FreeList[*laneStore]

// AttachLanes gives the core a value-lane store and returns one group per
// target, in order: the register file, the L1D data array or the
// pipeline latches (a group over any other target has no bits). The
// store's lane groups are slots handed out in attach order, at most
// lanestore.Groups of them. Every lane starts golden.
func (c *Core) AttachLanes(targets ...fault.Target) []*LaneGroup {
	c.DetachLanes()
	lines, lb := c.l1d.sets*c.l1d.ways, c.l1d.cfg.LineBytes
	// A cycle queues at most a line fill and a store.
	planes := []int{kRF: 16, kRFQ: 1, kQ: nLat, kD: nLat, kP: c.l1d.lineWords + 1}
	l := stores.Take(func(s *laneStore) bool { return s.Fits(lines, lb, planes...) })
	if l == nil {
		l = &laneStore{}
		l.Init(lines, lb, planes...)
		l.rf, l.rfq, l.q, l.d, l.p = l.Plane(kRF), l.Plane(kRFQ), l.Plane(kQ), l.Plane(kD), l.Plane(kP)
		l.rf.Union, l.rfq.Union, l.q.Union, l.d.Union, l.p.Union = &l.dense, &l.dense, &l.dense, &l.dense, &l.pend
	}
	l.c = c
	c.lanes, c.l1d.lanes = l, l
	groups := make([]*LaneGroup, len(targets))
	for g, t := range targets {
		grp := lanestore.Group{S: &l.Store, G: g, Bits: c.Bits(t),
			Golden: func(i int) int { return c.bit(t, i) }}
		switch t {
		case fault.TargetRF:
			grp.Kind, grp.Width = kRF, 32
		case fault.TargetL1D:
			grp.Kind, grp.Width = kL1D, 8
		}
		groups[g] = &LaneGroup{grp, l, t == fault.TargetLatches}
	}
	return groups
}

// DetachLanes takes the store off the core's hooks, every lane retired,
// and recycles it.
func (c *Core) DetachLanes() {
	l := c.lanes
	if l == nil {
		return
	}
	c.lanes, c.l1d.lanes = nil, nil
	for m := range l.held {
		l.held[m] = l.held[m][:0]
	}
	l.faulted = machines{}
	l.Reset()
	l.c = nil
	stores.Put(l)
}

// word returns machine m's diff over the four bytes of a byte plane from
// at, little-endian as the arrays and memory hold words.
func (l *laneStore) word(m int, kind uint8, at uint32) uint32 {
	var x uint32
	for i := uint32(0); i < 4; i++ {
		x |= l.Get(m, kind, at+i) << (8 * i)
	}
	return x
}

// setWord is word's setter.
func (l *laneStore) setWord(m int, kind uint8, at, x uint32) {
	for i := uint32(0); i < 4; i++ {
		l.Set(m, kind, at+i, x>>(8*i)&0xFF)
	}
}

// members returns the machines that differ in a source.
func (l *laneStore) members(s src) machines {
	switch {
	case s == srcNone:
		return machines{}
	case s >= srcLat:
		return l.q.At[s-srcLat]
	}
	return l.rf.At[s]
}

// diff returns machine m's diff in a source.
func (l *laneStore) diff(m int, s src) uint32 {
	switch {
	case s == srcNone:
		return 0
	case s >= srcLat:
		return l.q.Diff(m, int(s-srcLat))
	}
	return l.rf.Diff(m, int(s))
}

// ------------------------------------------------------- golden-step hooks

// edge moves every lane's pending diffs as Simulator.Tick is about to
// move golden's values: each driven latch's D side over its Q side (a
// latch golden holds keeps its Q side, a latch fault's flip included),
// each queued write over its word, in queue order.
func (l *laneStore) edge() {
	if l.dense.Any() {
		for i, r := range l.c.dataLatches() {
			if r.Held() {
				continue
			}
			for set := l.q.At[i].Or(l.d.At[i]); set.Any(); {
				if m := set.Pop(); l.q.Diff(m, i) != l.d.Diff(m, i) {
					l.Set(m, kQ, uint32(i), l.d.Diff(m, i))
				}
			}
		}
		// WB queues at most one register write a cycle.
		if rf := l.c.regfile; rf.Queued() > 0 {
			w := rf.QueuedWord(0)
			for set := l.rf.At[w].Or(l.rfq.At[0]); set.Any(); {
				m := set.Pop()
				l.Set(m, kRF, uint32(w), l.rfq.Diff(m, 0))
			}
			for set := l.rfq.At[0]; set.Any(); {
				l.Set(set.Pop(), kRFQ, 0, 0)
			}
		}
		l.dense = l.rfq.All().Or(l.rf.All()).Or(l.q.All()).Or(l.d.All())
	}
	if data := l.c.l1d.data; data.Queued() > 0 && l.L1D.Or(l.pend).Any() {
		for i := 0; i < data.Queued(); i++ {
			w := data.QueuedWord(i)
			for set := l.Line[w/l.c.l1d.lineWords].Or(l.p.At[i]); set.Any(); {
				m := set.Pop()
				l.setWord(m, kL1D, uint32(4*w), l.p.Diff(m, i))
			}
		}
		for i := 0; l.pend.Any() && i < len(l.p.At); i++ {
			for set := l.p.At[i]; set.Any(); {
				l.Set(set.Pop(), kP, uint32(i), 0)
			}
		}
		l.pend = machines{}
	}
}

// move gives data latch dst's D side the diff of the value golden latches
// there, which came from s.
func (l *laneStore) move(dst int, s src) {
	if set := l.members(s).Or(l.d.At[dst]); set.Any() {
		l.moveSet(dst, s, l.Live(set))
	}
}

func (l *laneStore) moveSet(dst int, s src, set machines) {
	for m := set.Pop(); m >= 0; m = set.Pop() {
		x := l.diff(m, s)
		if x != 0 && !l.Read(m) {
			continue
		}
		l.Set(m, kD, uint32(dst), x)
	}
}

// exec re-evaluates the execute datapath for the machines whose operands
// differ and latches the result (dst latR) or the flags (dst latFlags):
// golden evaluated op on a from sa and b from sb into out.
func (l *laneStore) exec(op isa.Opcode, dst int, sa, sb src, a, b uint32, out aluOut) {
	set := l.Live(l.members(sa).Or(l.members(sb)).Or(l.d.At[dst]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		xa, xb := l.diff(m, sa), l.diff(m, sb)
		var x uint32
		if xa|xb != 0 {
			if !l.Read(m) {
				continue
			}
			r := evalDatapath(op, a^xa, b^xb)
			if x = r.result ^ out.result; dst == latFlags {
				x = uint32(r.flags.Pack() ^ out.flags.Pack())
			}
		}
		l.Set(m, kD, uint32(dst), x)
	}
}

// peelOn peels the riding machines that differ in s for reason r.
func (l *laneStore) peelOn(s src, r lanestore.PeelReason) {
	set := l.Live(l.members(s))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) {
			l.Peel(m, r)
		}
	}
}

// branch resolves a conditional branch for the machines whose flags
// differ: golden read flags f and took the branch or not.
func (l *laneStore) branch(op isa.Opcode, f uint8, taken bool) {
	set := l.Live(l.q.At[latFlags])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) && isa.CondHolds(op, isa.UnpackFlags(f^uint8(l.q.Diff(m, latFlags)))) != taken {
			l.Peel(m, lanestore.PeelBranch)
		}
	}
}

// writeReg gives the register-file write WB queued this cycle the diff of
// memwb_v, the value it writes.
func (l *laneStore) writeReg() {
	set := l.Live(l.q.At[latV])
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Read(m) {
			l.Set(m, kRFQ, 0, l.q.Diff(m, latV))
		}
	}
}

// load gives memwb_v the diff of the size bytes a load read at addr: from
// the L1D array on a hit (data-array byte idx), from memory on a miss (the
// fill buffer holds memory's line).
func (l *laneStore) load(addr uint32, idx int, miss bool, size uint32) {
	set := l.Line[idx/l.LineBytes]
	if miss {
		set = l.Mem
	}
	set = l.Live(set.Or(l.d.At[latV]))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		// The array's read port delivers a whole word.
		w, sh := l.word(m, kL1D, uint32(idx)&^3), 8*(idx&3)
		if miss {
			w, sh = l.word(m, kMem, addr), 0
		}
		if w != 0 && !l.Read(m) {
			continue
		}
		x := w >> sh
		if size == 1 {
			x &= 0xFF
		}
		l.Set(m, kD, latV, x)
	}
}

// store gives the L1D write a store queued at position pos the diff of
// its data: exmem_st's word, or its low byte merged into the word's old
// bytes (the array's on a hit, memory's on a miss) for a byte store to
// data-array byte idx at addr.
func (l *laneStore) store(pos int, addr uint32, idx int, miss, byteOp bool) {
	set := l.q.At[latMSt]
	if byteOp {
		set = set.Or(l.Line[idx/l.LineBytes])
		if miss {
			set = set.Or(l.Mem)
		}
	}
	set = l.Live(set)
	for m := set.Pop(); m >= 0; m = set.Pop() {
		x := l.q.Diff(m, latMSt)
		if byteOp {
			var old uint32
			if miss {
				old = l.word(m, kMem, addr&^3)
			} else {
				old = l.word(m, kL1D, uint32(idx)&^3)
			}
			if old != 0 && !l.Read(m) {
				continue
			}
			sh := 8 * (addr & 3)
			x = old&^(0xFF<<sh) | (x&0xFF)<<sh
		}
		if x != 0 && !l.Read(m) {
			continue
		}
		l.Set(m, kP, uint32(pos), x)
	}
}

// fill gives the L1D writes of a line fill from memory at addr, queued
// from position pos, the diffs of memory's words there.
func (l *laneStore) fill(pos int, addr uint32) {
	set := l.Live(l.Mem)
	for m := set.Pop(); m >= 0; m = set.Pop() {
		for w := 0; w < l.LineBytes/4; w++ {
			l.Set(m, kP, uint32(pos+w), l.word(m, kMem, addr+uint32(4*w)))
		}
	}
}

// output records the output bytes a write syscall copied from memory
// [addr, addr+n) through the L1D view, appended at output byte at.
func (l *laneStore) output(addr, n uint32, at int) {
	d := l.c.l1d
	set := l.Live(l.L1D.Or(l.Mem))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		for i := uint32(0); i < n; i++ {
			// A resident byte comes through the read port, which
			// delivers its whole word.
			var w, x uint32
			if idx, ok := d.resident(addr + i); ok {
				w = l.word(m, kL1D, uint32(idx)&^3)
				x = w >> (8 * (idx & 3)) & 0xFF
			} else {
				w = l.Get(m, kMem, addr+i)
				x = w
			}
			if w != 0 && !l.Read(m) {
				break
			}
			if x != 0 {
				l.Set(m, kOut, uint32(at)+i, x)
			}
		}
	}
}

// ------------------------------------------------------------ lane groups

// LaneGroup is one tracker's view of the store: lanes 0..63 of one
// group, injected into one target.
type LaneGroup struct {
	lanestore.Group
	l *laneStore

	// latches: the target is the flat latch space, where Flip and Force
	// go through latchFault.
	latches bool
}

// Flip toggles bit of the group's target in a lane.
func (t *LaneGroup) Flip(lane, bit int) error {
	if t.latches {
		return t.l.latchFault(t.Machine(lane), latchFault{bit, -1})
	}
	return t.Group.Flip(lane, bit)
}

// Force sets bit of the group's target to v in a lane.
func (t *LaneGroup) Force(lane, bit, v int) error {
	if t.latches {
		return t.l.latchFault(t.Machine(lane), latchFault{bit, v & 1})
	}
	return t.Group.Force(lane, bit, v)
}

// latchFault applies f to machine m: a flip in a data latch becomes a
// diff on its Q side; any other is kept for Rebuild and peels the
// machine on its next tick.
func (l *laneStore) latchFault(m int, f latchFault) error {
	if err := l.c.checkBit(fault.TargetLatches, f.bit); err != nil {
		return err
	}
	r, b := l.c.latchAt(f.bit)
	lat := l.c.dataLatches()
	if i := slices.Index(lat[:], r); i >= 0 && f.v < 0 {
		l.Set(m, kQ, uint32(i), l.q.Diff(m, i)^1<<b)
		return nil
	}
	l.held[m] = append(l.held[m], f)
	l.faulted.Add(m)
	return nil
}

// BeginTick starts a golden step's peel accounting and undo journal; a
// lane holding a latch fault outside the value planes peels on it.
func (t *LaneGroup) BeginTick() {
	t.Group.BeginTick()
	for set := t.l.faulted[t.G]; set != 0; set &= set - 1 {
		t.l.Peel(t.Machine(bits.TrailingZeros64(set)), lanestore.PeelFault)
	}
}

// Retire returns a lane to golden, its kept latch faults dropped.
func (t *LaneGroup) Retire(lane int) {
	l, m := t.l, t.Machine(lane)
	l.held[m] = l.held[m][:0]
	l.faulted.Del(m)
	l.Retire(m)
}

// Clean reports whether a lane's machine is state-identical to golden
// with an identical pinout: no diverged write-back, no kept latch fault
// and no diff anywhere (StateHash covers every plane).
func (t *LaneGroup) Clean(lane int) bool {
	m := t.Machine(lane)
	return !t.l.faulted.Has(m) && t.l.Clean(m, nil)
}

// Rebuild applies a lane's machine, as it stood when the current tick
// began, onto dst: a core of the same design holding golden's state at
// that cycle, its kept latch faults last. The lane's diffs are consumed;
// retire it next.
func (t *LaneGroup) Rebuild(lane int, dst *Core) {
	l, m := t.l, t.Machine(lane)
	l.Undo(m)
	for w := range l.rf.At {
		dst.regfile.Xor(w, uint64(l.rf.Diff(m, w)))
	}
	if l.rfq.At[0].Has(m) {
		dst.regfile.XorQueued(0, uint64(l.rfq.Diff(m, 0)))
	}
	for i, r := range dst.dataLatches() {
		r.Xor(uint64(l.q.Diff(m, i)), uint64(l.d.Diff(m, i)))
	}
	for i := range l.p.At {
		if l.p.At[i].Has(m) {
			dst.l1d.data.XorQueued(i, uint64(l.p.Diff(m, i)))
		}
	}
	for _, e := range l.Bytes(m) {
		switch e.Kind {
		case kL1D:
			dst.l1d.data.Xor(int(e.At/4), uint64(e.X)<<(8*(e.At%4)))
		case kMem:
			for x := e.X; x != 0; x &= x - 1 {
				dst.backing.FlipBit(e.At, uint(bits.TrailingZeros8(x)))
			}
		case kOut:
			dst.Output[e.At] ^= e.X
		}
	}
	for _, f := range l.held[m] {
		_ = dst.inject(fault.TargetLatches, f.bit, f.v) // latchFault checked the range
	}
}
