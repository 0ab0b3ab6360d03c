package rtl

import (
	"fmt"
	"testing"

	"repro/internal/lifetime"
	"repro/internal/statehash"
)

// TestCounter builds a 4-bit counter: reg <- reg + 1 every cycle.
func TestCounter(t *testing.T) {
	sim := NewSimulator()
	cnt := sim.Reg("cnt", 4, 0)
	eval := func() { cnt.SetD(cnt.Q() + 1) }
	eval() // reset release
	for i := 1; i <= 20; i++ {
		sim.Tick()
		eval()
		if got, want := cnt.Q(), uint64(i%16); got != want {
			t.Fatalf("cycle %d: cnt = %d, want %d (4-bit wrap)", i, got, want)
		}
	}
	if sim.CycleCount != 20 {
		t.Errorf("CycleCount = %d", sim.CycleCount)
	}
}

func TestRegisterHoldsWithoutSetD(t *testing.T) {
	sim := NewSimulator()
	r := sim.Reg("r", 32, 42)
	sim.Tick()
	if r.Q() != 42 {
		t.Errorf("register did not hold: %d", r.Q())
	}
}

func TestMemSynchronousWrite(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 16, 32)
	m.Write(3, 99)
	if m.Read(3) != 0 {
		t.Error("write visible before clock edge")
	}
	sim.Tick()
	if m.Read(3) != 99 {
		t.Errorf("after tick: %d", m.Read(3))
	}
	// Later write in the same cycle wins.
	m.Write(3, 1)
	m.Write(3, 2)
	sim.Tick()
	if m.Read(3) != 2 {
		t.Errorf("write ordering: %d", m.Read(3))
	}
}

func TestMemWidthMasking(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("narrow", 4, 5)
	m.Write(0, 0xFF)
	sim.Tick()
	if m.Read(0) != 0x1F {
		t.Errorf("5-bit word holds %#x", m.Read(0))
	}
}

// TestRegMaskEveryWidth: a register and a memory word of the same width
// keep the same low bits, for every width from 1 to 64.
func TestRegMaskEveryWidth(t *testing.T) {
	for w := 1; w <= 64; w++ {
		sim := NewSimulator()
		r, m := sim.Reg("r", w, ^uint64(0)), sim.Mem("m", 1, w)
		if m.Init(0, ^uint64(0)); r.Q() != m.Read(0) || r.Q()>>(w-1) != 1 {
			t.Errorf("width %d: reg holds %#x, mem word %#x", w, r.Q(), m.Read(0))
		}
	}
}

func TestFlipBits(t *testing.T) {
	sim := NewSimulator()
	r := sim.Reg("r", 8, 0)
	m := sim.Mem("m", 4, 16)
	r.FlipBit(3)
	if r.Q() != 8 {
		t.Errorf("reg after flip: %d", r.Q())
	}
	if err := m.FlipBit(16 + 5); err != nil { // word 1, bit 5
		t.Fatal(err)
	}
	if m.Read(1) != 32 {
		t.Errorf("mem after flip: %d", m.Read(1))
	}
	if err := m.FlipBit(m.Bits()); err == nil {
		t.Error("out-of-range flip accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("m", 8, 32)
	m.Write(2, 7)
	sim.Tick()
	snap := sim.CaptureState(nil)
	m.Write(2, 9)
	sim.Tick()
	if m.Read(2) != 9 {
		t.Fatal("write lost")
	}
	sim.RestoreState(snap)
	if m.Read(2) != 7 {
		t.Errorf("restore: %d", m.Read(2))
	}
	// The capture is a copy, not a view: flipping the live array after
	// it was taken, or after it was restored, leaves it as it was.
	m.Xor(2, 1)
	sim.RestoreState(snap)
	if m.Read(2) != 7 {
		t.Error("capture aliases live data")
	}
}

// TestCaptureRestoresRegisters: a capture packs the registers' D-valid
// flags in masks of 64, so a design of more than 64 registers, some with
// a D input pending, must restore to the digest it was captured at.
func TestCaptureRestoresRegisters(t *testing.T) {
	sim := NewSimulator()
	var regs []*Reg
	for i := 0; i < 70; i++ {
		regs = append(regs, sim.Reg(fmt.Sprintf("r%d", i), 64, uint64(i)))
	}
	for i := 0; i < len(regs); i += 3 {
		regs[i].SetD(uint64(100 + i))
	}
	snap := sim.CaptureState(nil)
	want := stateDigest(sim)
	sim.Tick()
	for i := 1; i < len(regs); i += 3 {
		regs[i].SetD(uint64(200 + i))
	}
	sim.RestoreState(snap)
	if got := stateDigest(sim); got != want {
		t.Errorf("restore reached digest %#x, captured at %#x", got, want)
	}
}

// TestCaptureSharesOnlyImmutableArrays: a fresh capture shares every
// array the previous fresh capture holds with equal contents and copies
// the rest, and a recycled capture replaces the arrays it shares by its
// own before writing. Captures A and B are taken with no edge between
// them, C after an edge that wrote one memory, D after B was recycled;
// recycling B once more must leave A, C and D restoring to the digests
// they were taken with.
func TestCaptureSharesOnlyImmutableArrays(t *testing.T) {
	sim := NewSimulator()
	mems := []*Mem{sim.Mem("a", 4, 32), sim.Mem("b", 4, 32), sim.Mem("c", 4, 32)}
	for i, m := range mems {
		m.Init(i, uint64(10+i))
	}
	shares := func(x, y *State, i int) bool { return &x.mems[i].data[0] == &y.mems[i].data[0] }
	digests := map[*State]uint64{}
	capture := func(st *State) *State {
		st = sim.CaptureState(st)
		digests[st] = stateDigest(sim)
		return st
	}

	a := capture(nil)
	b := capture(nil)
	for i := range mems {
		if !shares(a, b, i) {
			t.Errorf("B copied array %d, unchanged since A", i)
		}
	}
	mems[0].Write(1, 77)
	sim.Tick()
	c := capture(nil)
	if shares(a, c, 0) || !shares(a, c, 1) || !shares(a, c, 2) {
		t.Errorf("C shares arrays %v with A, want only the two the edge left alone",
			[]bool{shares(a, c, 0), shares(a, c, 1), shares(a, c, 2)})
	}

	for i, m := range mems {
		m.Write(2, uint64(90+i))
	}
	sim.Tick()
	b = capture(b)
	d := capture(nil)
	for i := range mems {
		if shares(b, a, i) || shares(b, c, i) || shares(b, d, i) {
			t.Errorf("recycled B still shares array %d", i)
		}
	}
	for i, m := range mems {
		m.Write(3, uint64(50+i))
	}
	sim.Tick()
	capture(b)

	for _, st := range []struct {
		name string
		st   *State
	}{{"A", a}, {"C", c}, {"D", d}} {
		sim.RestoreState(st.st)
		if got := stateDigest(sim); got != digests[st.st] {
			t.Errorf("capture %s restores to %#x, taken at %#x", st.name, got, digests[st.st])
		}
	}
}

func TestStateInventory(t *testing.T) {
	sim := NewSimulator()
	sim.Reg("pc", 32, 0)
	sim.Reg("ifid_ir", 32, 0)
	sim.Reg("ifid_valid", 1, 0)
	sim.Mem("regfile", 16, 32)
	inv := sim.StateInventory()
	if len(inv) != 4 {
		t.Fatalf("inventory: %v", inv)
	}
	total := 0
	for _, e := range inv {
		total += e.Bits
	}
	if total != 32+32+1+512 {
		t.Errorf("total bits = %d", total)
	}
	if got := sim.RegsByPrefix("ifid_"); len(got) != 2 {
		t.Errorf("RegsByPrefix: %d", len(got))
	}
	if _, ok := sim.MemByName("regfile"); !ok {
		t.Error("MemByName failed")
	}
	if _, ok := sim.MemByName("nope"); ok {
		t.Error("MemByName found ghost")
	}
}

// TestShiftRegisterPipeline checks multi-register clocking semantics:
// values move one stage per tick, all stages updating simultaneously.
func TestShiftRegisterPipeline(t *testing.T) {
	sim := NewSimulator()
	s1 := sim.Reg("s1", 8, 1)
	s2 := sim.Reg("s2", 8, 2)
	s3 := sim.Reg("s3", 8, 3)
	eval := func() {
		s3.SetD(s2.Q())
		s2.SetD(s1.Q())
		s1.SetD(s1.Q() + 10)
	}
	eval()
	sim.Tick()
	eval()
	if s1.Q() != 11 || s2.Q() != 1 || s3.Q() != 2 {
		t.Fatalf("after 1 tick: %d %d %d", s1.Q(), s2.Q(), s3.Q())
	}
	sim.Tick()
	eval()
	if s1.Q() != 21 || s2.Q() != 11 || s3.Q() != 1 {
		t.Fatalf("after 2 ticks: %d %d %d", s1.Q(), s2.Q(), s3.Q())
	}
}

// TestMemLifetime checks the kernel-side lifetime recording semantics:
// reads stamp the current cycle, queued writes stamp the edge at which
// they actually overwrite the array (CycleCount+1).
func TestMemLifetime(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	sp := lifetime.NewSpace(4, 32)
	m.SetLifetime(sp)

	step := sim.Reg("step", 8, 0)
	eval := func() {
		step.SetD(step.Q() + 1)
		switch step.Q() {
		case 2:
			m.Write(1, 0xDEAD) // queued during eval 2, lands at edge 3
		case 5:
			_ = m.Read(1) // consumed during eval 5
		}
	}
	eval()
	for i := 0; i < 8; i++ {
		sim.Tick()
		eval()
	}

	bit := 1*32 + 3
	// A fault injected after Tick 2 — while the write is still queued —
	// is dead: the queued value (computed before the injection) lands
	// at edge 3 and overwrites the flip before the read at 5.
	if v := sp.ClassifyBit(bit, 2, 1<<40); v.Live {
		t.Fatalf("pre-write fault: %+v, want dead", v)
	}
	// A fault injected after the write landed is consumed by the read.
	if v := sp.ClassifyBit(bit, 3, 1<<40); !v.Live || v.Cycle != 5 {
		t.Fatalf("post-write fault: %+v, want live @5", v)
	}
	// Untouched words stay dead.
	if v := sp.ClassifyBit(2*32, 0, 1<<40); v.Live {
		t.Fatalf("untouched word: %+v, want dead", v)
	}
}

// TestHashStateCoversSequentialState: every register's latched value,
// pending D input and D-valid flag — the flags ride in masks of 64, so
// the design has more than 64 registers — and every memory word and
// queued write must move the digest.
func TestHashStateCoversSequentialState(t *testing.T) {
	sim := NewSimulator()
	var regs []*Reg
	for i := 0; i < 70; i++ {
		regs = append(regs, sim.Reg(fmt.Sprintf("r%d", i), 64, uint64(i)))
	}
	m := sim.Mem("m", 4, 64)
	m.Write(1, 5)
	base := stateDigest(sim)
	check := func(what string, i int) {
		t.Helper()
		if stateDigest(sim) == base {
			t.Errorf("mutating %s %d left the digest unchanged", what, i)
		}
	}
	for i, r := range regs {
		r.cur ^= 1 << 63
		check("cur of reg", i)
		r.cur ^= 1 << 63
		r.d ^= 1
		check("d of reg", i)
		r.d ^= 1
		r.dSet = !r.dSet
		check("dSet of reg", i)
		r.dSet = !r.dSet
	}
	for i := range m.data {
		m.data[i] ^= 1 << 63
		check("mem word", i)
		m.data[i] ^= 1 << 63
	}
	m.queue[0].idx ^= 2
	check("queued write index", 0)
	m.queue[0].idx ^= 2
	m.queue[0].v ^= 1
	check("queued write value", 0)
	m.queue[0].v ^= 1
	m.queue = m.queue[:0]
	check("write queue length", 0)
	m.queue = m.queue[:1]
	if stateDigest(sim) != base {
		t.Error("undoing every mutation did not restore the digest")
	}
}

func stateDigest(s *Simulator) uint64 {
	h := statehash.New()
	s.HashState(h)
	return h.Sum()
}

// TestQueuedWritesAndXor covers the surface value lanes rebuild a
// machine through: the queue of writes pending the next edge, named in
// order, and flips of a word, a queued value and a register's Q and D
// sides that take effect exactly where golden's own values would.
func TestQueuedWritesAndXor(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 8)
	r := sim.Reg("r", 8, 0)
	m.Write(2, 0x11)
	m.Write(1, 0x22)
	r.SetD(0x33)
	if m.Queued() != 2 || m.QueuedWord(0) != 2 || m.QueuedWord(1) != 1 {
		t.Fatalf("queue: %d writes, words %d, %d", m.Queued(), m.QueuedWord(0), m.QueuedWord(1))
	}
	m.XorQueued(1, 0x1FF) // the mask keeps the word's width
	m.Xor(3, 0x4)
	r.Xor(0x1, 0x30)
	if r.Q() != 0x1 {
		t.Fatalf("Xor on Q: %#x", r.Q())
	}
	sim.Tick()
	if m.Queued() != 0 || m.data[2] != 0x11 || m.data[1] != 0xDD || m.data[3] != 0x4 || r.Q() != 0x03 {
		t.Fatalf("after the edge: queue %d, words %#x %#x %#x, r %#x", m.Queued(), m.data[1], m.data[2], m.data[3], r.Q())
	}
}

// TestRestoreRebuildsPendingList: Tick applies only the memories on the
// pending list, so RestoreState must rebuild it from the capture. A
// capture with writes queued on two memories, restored right after an
// edge emptied the list, has both applied at the next edge; a capture
// with none, restored over a queued write, has nothing applied.
func TestRestoreRebuildsPendingList(t *testing.T) {
	sim := NewSimulator()
	a := sim.Mem("a", 4, 32)
	b := sim.Mem("b", 4, 32)
	c := sim.Mem("c", 4, 32)
	idle := sim.CaptureState(nil)
	a.Write(1, 11)
	c.Write(2, 22)
	c.Write(3, 33)
	queued := sim.CaptureState(nil)
	sim.Tick()
	a.Xor(1, 0xFF) // restored below

	sim.RestoreState(queued)
	if pendingLen(sim) != 2 {
		t.Fatalf("pending list after restore: %d memories, want 2", pendingLen(sim))
	}
	sim.Tick()
	if a.Read(1) != 11 || c.Read(2) != 22 || c.Read(3) != 33 || b.Read(0) != 0 {
		t.Fatalf("after the edge: a[1]=%d c[2]=%d c[3]=%d b[0]=%d, want 11 22 33 0", a.Read(1), c.Read(2), c.Read(3), b.Read(0))
	}

	b.Write(0, 44)
	sim.RestoreState(idle)
	if pendingLen(sim) != 0 || b.Queued() != 0 {
		t.Fatalf("pending list %d, b's queue %d after restoring a capture with none", pendingLen(sim), b.Queued())
	}
	sim.Tick()
	for _, m := range []*Mem{a, b, c} {
		for i := 0; i < m.Words(); i++ {
			if v := m.Read(i); v != 0 {
				t.Errorf("%s[%d] = %d after restoring the empty capture, want 0", m.Name(), i, v)
			}
		}
	}
}

func pendingLen(s *Simulator) int {
	n := 0
	for m := s.pending; m != nil; m = m.next {
		n++
	}
	return n
}
