// Package lanestore is the model-independent half of value lanes: the
// machinery both timing models use to carry faulty machines riding a
// golden simulator as data diffs.
//
// A lane is the golden machine with some data values exclusive-ored by a
// diff. What is data and what is control is the model's business; where
// a diff lives, and how it is read, written, rewound and dropped, is this
// package's. It holds:
//
//   - Machines, the bitset naming lanes: two groups of 64 (the trackers
//     of two injection targets riding one golden simulator, in the slots
//     a model's AttachLanes hands out), machine m = group<<6 | lane;
//   - the dense planes a model declares at Init, one per kind below KL1D:
//     a word per (location, machine) for the register and pipeline values
//     a corrupted value moves through every cycle, with a membership set
//     per location;
//   - the sparse byte planes of L1D data, memory and output, with their
//     membership sets;
//   - one Get, journalled Set, Undo, Retire and Clean over both kinds of
//     plane;
//   - the tick journal, which rebuilds a lane peeled mid-step as it stood
//     when the step began;
//   - the diverged write-back list: a dirty line written back with a diff
//     does not peel, its digest is compared with golden's and the diff
//     moves to the memory plane, which a later refill brings back;
//   - peel accounting (peeled, consumed, persistent, reason) and the free
//     list that recycles stores between engines.
package lanestore

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/trace"
)

// PeelReason names the control outcome whose change peeled a lane. The
// set is fixed: it labels campaign_batch_peels_total.
type PeelReason uint8

// Peel reasons.
const (
	PeelBranch     PeelReason = iota // a conditional branch direction
	PeelTarget                       // a RET target
	PeelAddress                      // a load or store effective address
	PeelSyscall                      // a syscall's number or argument registers
	PeelIFetch                       // an instruction fetch or fill from diffed memory
	PeelPersistent                   // a persistent fault's bit was read
	// PeelFault: the fault sits outside every value plane — an RTL
	// control-latch flip, any forced latch bit — and the lane peels on
	// its first tick.
	PeelFault
	NumPeelReasons
)

var peelReasonNames = [NumPeelReasons]string{"branch", "target", "address", "syscall", "ifetch", "persistent", "fault"}

func (r PeelReason) String() string { return peelReasonNames[r] }

// Groups is how many targets a store can track side by side: its lane
// groups are slots, handed out in attach order. Every lane operation
// pays for the width of Machines, so it stays two words.
const Groups = 2

// NM is the machine capacity of a store: two groups of 64.
const NM = Groups * 64

// Machines is a set of machines, one bit each.
type Machines [Groups]uint64

func (s *Machines) Has(m int) bool { return s[m>>6]>>(m&63)&1 != 0 }
func (s *Machines) Add(m int)      { s[m>>6] |= 1 << (m & 63) }
func (s *Machines) Del(m int)      { s[m>>6] &^= 1 << (m & 63) }
func (s Machines) Any() bool       { return s[0]|s[1] != 0 }

// Mark adds m to s when on, removes it otherwise.
func (s *Machines) Mark(m int, on bool) {
	if on {
		s.Add(m)
	} else {
		s.Del(m)
	}
}

func (s Machines) Or(o Machines) Machines { return Machines{s[0] | o[0], s[1] | o[1]} }

func (s Machines) Without(o Machines) Machines { return Machines{s[0] &^ o[0], s[1] &^ o[1]} }

// Pop removes and returns the lowest machine of s, -1 when s is empty.
func (s *Machines) Pop() int {
	for g := range s {
		if s[g] != 0 {
			k := bits.TrailingZeros64(s[g])
			s[g] &= s[g] - 1
			return g<<6 | k
		}
	}
	return -1
}

// Byte kinds: the sparse planes. A model numbers its dense kinds from 0,
// below KL1D, in the order it declares them to Init.
const (
	KL1D uint8 = 0x80 + iota // at = L1D data-array byte
	KMem                     // at = memory address
	KOut                     // at = output byte
)

// ByteDiff is a differing byte of L1D, memory or output: X is the
// exclusive-or of golden's and the machine's byte, never 0.
type ByteDiff struct {
	At   uint32
	X    uint8
	Kind uint8
}

// Plane is a dense diff plane: machine m's diff at location at is one
// word, and At[at] holds the machines whose diff there is nonzero. The
// hooks on a golden step test a location's set and go on when it is
// empty. Write a plane through Store.Set only.
type Plane struct {
	x  []uint32 // [at*NM + m]
	At []Machines

	// Union, when non-nil, holds every machine with a diff in the plane:
	// it gains every machine given a nonzero diff and loses a machine
	// retired, and a model may drop a machine sooner only once it has no
	// diff left there. Planes may share one.
	Union *Machines

	// Joint, when non-nil, is a membership set per location that planes
	// of one size share: Joint[at] holds every machine with a diff at
	// at in any of them, under the rules of Union.
	Joint []Machines
}

// mayHold reports whether machine m can have a diff in the plane.
func (p *Plane) mayHold(m int) bool { return p.Union == nil || p.Union.Has(m) }

// Diff returns machine m's diff at location at.
func (p *Plane) Diff(m, at int) uint32 { return p.x[at*NM+m] }

// All returns the machines with a diff anywhere in the plane.
func (p *Plane) All() Machines {
	var s Machines
	for i := range p.At {
		s[0] |= p.At[i][0]
		s[1] |= p.At[i][1]
	}
	return s
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

// Store holds every plane and all the bookkeeping of one value-lane
// store; a model embeds it beside its hooks. Not safe for concurrent
// use.
type Store struct {
	planes []Plane // by dense kind
	bytes  [NM][]ByteDiff

	// Per-location membership: the machines with a byte diff there.
	Line []Machines // per L1D line, any byte
	L1D  Machines   // any L1D byte
	Mem  Machines   // any memory byte
	Out  Machines   // any output byte

	WB  Machines // machines with a diverged write-back
	wbs []laneWB

	Persist  Machines // forced: peel on read
	Peeled   Machines // left lockstep this tick
	Consumed Machines // read a diff this tick
	reason   [NM]PeelReason

	// undo journals every diff overwritten during the current tick, per
	// group: a lane peeled mid-tick is rebuilt as it stood when the tick
	// began.
	undo [Groups][]undoRec

	LineBytes int
	buf       []byte     // a lane's copy of a written-back line
	tmp       []ByteDiff // CopyBytes' scratch
}

// Init sizes a fresh store for an L1D of lines lines of lineBytes bytes
// and one dense plane per entry of planes, kind k with planes[k]
// locations.
func (l *Store) Init(lines, lineBytes int, planes ...int) {
	l.Line = make([]Machines, lines)
	l.LineBytes = lineBytes
	l.buf = make([]byte, lineBytes)
	l.planes = make([]Plane, len(planes))
	for k, n := range planes {
		l.planes[k] = Plane{x: make([]uint32, n*NM), At: make([]Machines, n)}
	}
}

// Fits reports whether Init sized the store for this L1D geometry and
// these dense planes.
func (l *Store) Fits(lines, lineBytes int, planes ...int) bool {
	if len(l.Line) != lines || l.LineBytes != lineBytes || len(l.planes) != len(planes) {
		return false
	}
	for k, n := range planes {
		if len(l.planes[k].At) != n {
			return false
		}
	}
	return true
}

// Plane returns the dense plane of kind; the pointer is the store's for
// life.
func (l *Store) Plane(kind uint8) *Plane { return &l.planes[kind] }

// FreeList recycles stores between the engines of a process: a store is
// tens to hundreds of KB of planes, and every lockstep engine builds
// fresh simulators. A store goes back fully retired, so whoever takes it
// next sees no trace of its last use. Not a sync.Pool: a collection
// empties one, and a run-to-end campaign, which allocates enough to
// collect every few walks, then pays for a store per engine (measured:
// +7% allocation per fault on the benchmark's ma_runtoend workload).
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// maxFree bounds the stores kept for reuse: a pool goroutine holds one
// at a time.
const maxFree = 8

// Take removes and returns a free store fits accepts, or the zero T.
func (f *FreeList[T]) Take(fits func(T) bool) (t T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.free {
		if fits(s) {
			f.free = append(f.free[:i], f.free[i+1:]...)
			return s
		}
	}
	return t
}

// Put keeps a retired store for reuse.
func (f *FreeList[T]) Put(s T) {
	f.mu.Lock()
	if len(f.free) < maxFree {
		f.free = append(f.free, s)
	}
	f.mu.Unlock()
}

// Bytes returns machine m's byte diffs; the caller must not keep it
// across a write.
func (l *Store) Bytes(m int) []ByteDiff { return l.bytes[m] }

// find returns the index of machine m's byte diff at (kind, at), or -1.
func (l *Store) find(m int, kind uint8, at uint32) int {
	for i, e := range l.bytes[m] {
		if e.At == at && e.Kind == kind {
			return i
		}
	}
	return -1
}

// Get returns machine m's diff at (kind, at), 0 when it has none.
func (l *Store) Get(m int, kind uint8, at uint32) uint32 {
	if kind < KL1D {
		return l.planes[kind].Diff(m, int(at))
	}
	if i := l.find(m, kind, at); i >= 0 {
		return uint32(l.bytes[m][i].X)
	}
	return 0
}

// Set makes machine m's diff at (kind, at) x, journalling the old one.
func (l *Store) Set(m int, kind uint8, at, x uint32) {
	if old := l.Get(m, kind, at); old != x {
		l.undo[m>>6] = append(l.undo[m>>6], undoRec{m: uint8(m), kind: kind, at: at, old: old})
		l.put(m, kind, at, x)
	}
}

// Undo puts back every diff of machine m the current tick overwrote, in
// reverse order: the machine is restored as the tick found it.
func (l *Store) Undo(m int) {
	u := l.undo[m>>6]
	for j := len(u) - 1; j >= 0; j-- {
		if r := u[j]; int(r.m) == m {
			l.put(m, r.kind, r.at, r.old)
		}
	}
}

// put stores x as machine m's diff at (kind, at), keeping the membership
// sets in step.
func (l *Store) put(m int, kind uint8, at, x uint32) {
	if kind < KL1D {
		p := &l.planes[kind]
		p.x[int(at)*NM+m] = x
		p.At[at].Mark(m, x != 0)
		if x != 0 && p.Union != nil {
			p.Union.Add(m)
		}
		if x != 0 && p.Joint != nil {
			p.Joint[at].Add(m)
		}
		return
	}
	l.putByte(m, kind, at, uint8(x))
}

// putByte is put's byte-plane half.
func (l *Store) putByte(m int, kind uint8, at uint32, x uint8) {
	d, i := l.bytes[m], l.find(m, kind, at)
	switch {
	case x != 0 && i >= 0:
		d[i].X = x
		return
	case x != 0:
		l.bytes[m] = append(d, ByteDiff{At: at, X: x, Kind: kind})
		l.byteSet(kind, at).Add(m)
		if kind == KL1D {
			l.L1D.Add(m)
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
		keep = keep || l.byteSet(e.Kind, e.At) == set
		keepL1D = keepL1D || e.Kind == KL1D
	}
	if !keep {
		set.Del(m)
	}
	if !keepL1D {
		l.L1D.Del(m)
	}
}

// byteSet returns the membership set a byte diff counts in.
func (l *Store) byteSet(kind uint8, at uint32) *Machines {
	switch kind {
	case KL1D:
		return &l.Line[int(at)/l.LineBytes]
	case KMem:
		return &l.Mem
	}
	return &l.Out
}

// Retire returns machine m to golden: it drops the machine's dense and
// byte diffs, diverged write-backs and peel state.
func (l *Store) Retire(m int) {
	for k := range l.planes {
		p := &l.planes[k]
		if !p.mayHold(m) {
			continue
		}
		for at := range p.At {
			if p.At[at].Has(m) {
				p.x[at*NM+m] = 0
				p.At[at].Del(m)
			}
			if p.Joint != nil {
				p.Joint[at].Del(m)
			}
		}
	}
	for k := range l.planes { // after the walk: planes may share a union
		if u := l.planes[k].Union; u != nil {
			u.Del(m)
		}
	}
	for _, e := range l.bytes[m] {
		l.byteSet(e.Kind, e.At).Del(m)
	}
	l.bytes[m] = l.bytes[m][:0]
	for _, s := range []*Machines{&l.L1D, &l.WB, &l.Persist, &l.Peeled, &l.Consumed} {
		s.Del(m)
	}
	kept := l.wbs[:0]
	for _, w := range l.wbs {
		if int(w.m) != m {
			kept = append(kept, w)
		}
	}
	l.wbs = kept
}

// Clean reports whether machine m has no diverged write-back, no byte
// diff and no dense diff but those skip accepts (nil: none).
func (l *Store) Clean(m int, skip func(kind uint8, at int) bool) bool {
	if l.WB.Has(m) || len(l.bytes[m]) > 0 {
		return false
	}
	for k := range l.planes {
		p := &l.planes[k]
		if !p.mayHold(m) {
			continue
		}
		for at, set := range p.At {
			if set.Has(m) && (skip == nil || !skip(uint8(k), at)) {
				return false
			}
		}
	}
	return true
}

// Reset retires every machine and empties both groups' journals, as a
// store goes back to a free list.
func (l *Store) Reset() {
	for m := range NM {
		l.Retire(m)
	}
	for g := range l.undo {
		l.undo[g] = l.undo[g][:0]
	}
}

// BeginTick starts group g's peel accounting and journal for a golden
// step.
func (l *Store) BeginTick(g int) {
	l.Peeled[g], l.Consumed[g] = 0, 0
	l.undo[g] = l.undo[g][:0]
}

// Peel takes machine m out of lockstep for reason r (the first reason of
// a tick stands).
func (l *Store) Peel(m int, r PeelReason) {
	if !l.Peeled.Has(m) {
		l.Peeled.Add(m)
		l.reason[m] = r
	}
}

// Read notes that machine m consumed a diff; a persistent one peels. It
// reports whether the machine still rides.
func (l *Store) Read(m int) bool {
	l.Consumed.Add(m)
	if l.Persist.Has(m) {
		l.Peel(m, PeelPersistent)
		return false
	}
	return true
}

// Live is the subset of s still in lockstep this tick.
func (l *Store) Live(s Machines) Machines { return s.Without(l.Peeled) }

// WriteBack follows a dirty L1D line of data-array bytes [base,
// base+LineBytes) written back to memory at addr at cycle: golden wrote
// evict. A riding machine with a diff in the line reads it (persistent
// ones peel), records a diverged write-back when its line digests
// differently, and has its line diff moved over its memory bytes there.
func (l *Store) WriteBack(line int, base uint32, evict []byte, addr uint32, cycle uint64) {
	lb := uint32(l.LineBytes)
	golden := trace.DigestBytes(evict)
	set := l.Live(l.Line[line].Or(l.Mem))
	for m := set.Pop(); m >= 0; m = set.Pop() {
		if l.Line[line].Has(m) {
			if !l.Read(m) {
				continue
			}
			copy(l.buf, evict)
			for _, e := range l.bytes[m] {
				if e.Kind == KL1D && e.At-base < lb {
					l.buf[e.At-base] ^= e.X
				}
			}
			if d := trace.DigestBytes(l.buf); d != golden {
				l.WB.Add(m)
				l.wbs = append(l.wbs, laneWB{m: uint8(m), txn: trace.Transaction{
					Cycle: cycle, Addr: addr, Kind: trace.KindWriteback, Digest: d}})
			}
		}
		l.CopyBytes(m, KMem, addr, KL1D, base, lb)
	}
}

// CopyBytes overwrites machine m's byte diffs of kind dst over
// [dstAt, dstAt+n) with its diffs of kind src over [srcAt, srcAt+n): a
// line written back to memory, or refilled from it.
func (l *Store) CopyBytes(m int, dst uint8, dstAt uint32, src uint8, srcAt, n uint32) {
	const stale, moved = 0, 1
	l.tmp = l.tmp[:0]
	for _, e := range l.bytes[m] {
		switch {
		case e.Kind == dst && e.At-dstAt < n:
			l.tmp = append(l.tmp, ByteDiff{At: e.At - dstAt, Kind: stale})
		case e.Kind == src && e.At-srcAt < n:
			l.tmp = append(l.tmp, ByteDiff{At: e.At - srcAt, X: e.X, Kind: moved})
		}
	}
	for _, e := range l.tmp {
		if e.Kind == stale {
			l.Set(m, dst, dstAt+e.At, 0)
		}
	}
	for _, e := range l.tmp {
		if e.Kind == moved {
			l.Set(m, dst, dstAt+e.At, uint32(e.X))
		}
	}
}

// IFetch peels the riding machines with a memory diff in an instruction
// fill from [addr, addr+n).
func (l *Store) IFetch(addr, n uint32) {
	set := l.Live(l.Mem)
	for m := set.Pop(); m >= 0; m = set.Pop() {
		for _, e := range l.bytes[m] {
			if e.Kind == KMem && e.At-addr < n {
				l.Peel(m, PeelIFetch)
				break
			}
		}
	}
}

// Group is one tracker's view of a store: lanes 0..63 of group G,
// injected into a target of Bits bits laid out as Width-bit units of
// plane Kind; Golden peeks golden's current bit.
type Group struct {
	S      *Store
	G      int
	Kind   uint8
	Width  int
	Bits   int
	Golden func(bit int) int
}

// locate maps a target bit to its diff location and bit mask.
func (t Group) locate(bit int) (at, mask uint32, err error) {
	if bit < 0 || bit >= t.Bits {
		return 0, 0, fmt.Errorf("lanes: bit %d out of range [0,%d)", bit, t.Bits)
	}
	return uint32(bit / t.Width), 1 << (bit % t.Width), nil
}

// Flip toggles bit of the group's target in a lane.
func (t Group) Flip(lane, bit int) error {
	at, mask, err := t.locate(bit)
	if err == nil {
		m := t.Machine(lane)
		t.S.Set(m, t.Kind, at, t.S.Get(m, t.Kind, at)^mask)
	}
	return err
}

// Force sets bit of the group's target to v in a lane, as a difference
// from golden's current bit, and makes the lane peel on read.
func (t Group) Force(lane, bit, v int) error {
	at, mask, err := t.locate(bit)
	if err != nil {
		return err
	}
	m := t.Machine(lane)
	x := t.S.Get(m, t.Kind, at) &^ mask
	if t.Golden(bit) != v&1 {
		x |= mask
	}
	t.S.Set(m, t.Kind, at, x)
	t.S.Persist.Add(m)
	return nil
}

// Machine names a lane of the group in the store.
func (t Group) Machine(lane int) int { return t.G<<6 | lane }

// BeginTick starts a golden step's peel accounting and undo journal;
// call it right before every step while lanes ride.
func (t Group) BeginTick() { t.S.BeginTick(t.G) }

// Peeled returns the lanes peeled since BeginTick (bit k = lane k).
func (t Group) Peeled() uint64 { return t.S.Peeled[t.G] }

// Consumed returns the lanes that read a diff since BeginTick.
func (t Group) Consumed() uint64 { return t.S.Consumed[t.G] }

// Reason says why a peeled lane left lockstep.
func (t Group) Reason(lane int) PeelReason { return t.S.reason[t.Machine(lane)] }

// OutputDiffers reports whether a lane's program output differs from
// golden's.
func (t Group) OutputDiffers(lane int) bool { return t.S.Out.Has(t.Machine(lane)) }

// AppendDiverged appends a lane's diverged write-backs — golden's
// transactions as the lane's pinout carries them — to buf.
func (t Group) AppendDiverged(lane int, buf []trace.Transaction) []trace.Transaction {
	m := t.Machine(lane)
	if !t.S.WB.Has(m) {
		return buf
	}
	for _, w := range t.S.wbs {
		if int(w.m) == m {
			buf = append(buf, w.txn)
		}
	}
	return buf
}
