package rtl

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/lifetime"
	"repro/internal/statehash"
)

// These tests drive a lifetime.Lanes through Mem's ports: the tracker's
// own rules are held in internal/lifetime, what is held here is the
// wiring — reads reported at the read port, writes as the clock edge
// applies them, Force peeking the array's post-edge bits.

// attachLanes puts a fresh tracker over m, one unit per word, the way
// the campaign adapters do.
func attachLanes(tb testing.TB, m *Mem) *lifetime.Lanes {
	tr := lifetime.NewLanes(m.Words(), m.Width(), m.Bit)
	m.SetLanes(tr)
	tb.Cleanup(func() { m.SetLanes(nil) })
	return tr
}

// peelDiff collects a lane's pre-tick dirty bits in ascending order.
func peelDiff(tr *lifetime.Lanes, lane int) []int {
	var bits []int
	tr.PeelDiff(lane, func(bit int) { bits = append(bits, bit) })
	sort.Ints(bits)
	return bits
}

func stateDigest(s *Simulator) uint64 {
	h := statehash.New()
	s.HashState(h)
	return h.Sum()
}

// TestMemLanesLifecycle covers a lane's life through the ports: a fault
// lives as a dirty bit, a full-word golden write erases it at the clock
// edge (the reconvergence exit), and reads of clean words never peel.
func TestMemLanesLifecycle(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	m.Init(1, 0xF0)
	tr := attachLanes(t, m)

	if err := tr.Flip(3, 32+1); err != nil { // word 1, bit 1
		t.Fatal(err)
	}
	if tr.Clean(3) {
		t.Fatal("flip left lane clean")
	}
	if err := tr.Flip(3, m.Bits()); err == nil {
		t.Error("out-of-range lane flip accepted")
	}
	// A second flip of the same bit cancels the first.
	if err := tr.Flip(4, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flip(4, 7); err != nil {
		t.Fatal(err)
	}
	if !tr.Clean(4) {
		t.Fatal("double flip left lane dirty")
	}

	// A golden write overwrites the full word at the clock edge: the
	// lane's diff there dies, exactly like the scalar fault would be
	// overwritten.
	m.Write(1, 0xAA)
	tr.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	if tr.Peeled() != 0 {
		t.Fatalf("peeled = %#x on a write-only tick", tr.Peeled())
	}
	if !tr.Clean(3) {
		t.Fatal("overwritten diff did not clear")
	}
	// Reading the now-clean word must not peel the lane.
	if m.Read(1) != 0xAA {
		t.Fatal("golden contents wrong")
	}
	if tr.Peeled() != 0 {
		t.Fatalf("read of clean word peeled %#x", tr.Peeled())
	}
}

// TestMemLanesPeelOnRead: the design reading a word a lane has
// corrupted is the first consumption of the fault; the lane peels and
// its diff is reported for scalar reconstruction.
func TestMemLanesPeelOnRead(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	tr := attachLanes(t, m)

	if err := tr.Flip(5, 2); err != nil { // word 0, bit 2
		t.Fatal(err)
	}
	if err := tr.Flip(9, 32); err != nil { // word 1, bit 0
		t.Fatal(err)
	}
	tr.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	_ = m.Read(0)
	if tr.Peeled() != 1<<5 {
		t.Fatalf("peeled = %#x, want lane 5 only", tr.Peeled())
	}
	if got := peelDiff(tr, 5); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("lane 5 diff = %v", got)
	}
	tr.Retire(5)
	if !tr.Clean(5) {
		t.Fatal("retire left diffs behind")
	}
	if tr.Peeled() != 0 {
		t.Fatalf("retire left peel bit: %#x", tr.Peeled())
	}
	// Lane 9 is untouched and still in flight.
	if tr.Clean(9) {
		t.Fatal("lane 9 diff lost")
	}
}

// TestMemLanesUndoReconstruction: within one Tick the clock edge
// applies writes before combinational reads settle, so a lane can lose
// a diff to an overwrite and peel on another word in the same tick. Its
// pre-tick diff must include both words.
func TestMemLanesUndoReconstruction(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	tr := attachLanes(t, m)

	tr.Flip(2, 3)    // word 0, bit 3
	tr.Flip(2, 32+4) // word 1, bit 4
	m.Write(0, 123)  // golden overwrite of word 0, applies at the edge
	tr.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	_ = m.Read(1) // consumes the lane's word-1 corruption: peel
	if tr.Peeled() != 1<<2 {
		t.Fatalf("peeled = %#x, want lane 2", tr.Peeled())
	}
	if got := peelDiff(tr, 2); !reflect.DeepEqual(got, []int{3, 32 + 4}) {
		t.Fatalf("pre-tick diff = %v, want words 0 and 1", got)
	}
}

// TestMemLanesQueuedWriteStillPeels holds the write hook to the clock
// edge. A write queued during a settle has not reached the array: a read
// of the same word later in that settle still sees a lane's corruption
// and must peel it, and a lane dirty in a queued word stays dirty — and
// out of the journal — until the edge that applies the write.
func TestMemLanesQueuedWriteStillPeels(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	phase := sim.Reg("phase", 2, 0)
	sim.Process("ctl", func() {
		if phase.Q() == 1 {
			m.Write(0, 7)
			_ = m.Read(0)
			m.Write(1, 9)
		}
		phase.SetD(phase.Q() + 1)
	})
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	tr := attachLanes(t, m)
	tr.Flip(1, 5)    // word 0, bit 5: queued for write, then read
	tr.Flip(2, 32+6) // word 1, bit 6: queued for write only

	tr.BeginTick()
	if err := sim.Tick(); err != nil { // phase 1: the settle queues both writes
		t.Fatal(err)
	}
	if tr.Peeled() != 1<<1 {
		t.Fatalf("peeled = %#x, want lane 1: the read followed only a queued write", tr.Peeled())
	}
	if got := peelDiff(tr, 1); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("lane 1 pre-tick diff = %v", got)
	}
	if tr.Clean(2) {
		t.Fatal("a queued write cleared lane 2 before its clock edge")
	}
	if got := peelDiff(tr, 2); !reflect.DeepEqual(got, []int{32 + 6}) {
		t.Fatalf("lane 2 diff = %v before the edge, want its bit once", got)
	}
	tr.Retire(1)

	tr.BeginTick()
	if err := sim.Tick(); err != nil { // the edge applies the queued writes
		t.Fatal(err)
	}
	if tr.Peeled() != 0 {
		t.Fatalf("peeled = %#x on the applying edge", tr.Peeled())
	}
	if !tr.Clean(2) {
		t.Fatal("applied write did not clear lane 2")
	}
	if got := peelDiff(tr, 2); !reflect.DeepEqual(got, []int{32 + 6}) {
		t.Fatalf("lane 2 pre-tick diff = %v, want the journalled bit", got)
	}
}

// TestMemLanesForceBit: Force is relative to the golden word's current
// bits and idempotent — the re-assertion contract of the persistent
// fault models.
func TestMemLanesForceBit(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 2, 32)
	m.Init(0, 0b10000)
	tr := attachLanes(t, m)

	// Forcing to the golden value is a no-op: lane stays clean.
	tr.Force(0, 4, 1)
	if !tr.Clean(0) {
		t.Fatal("force-to-same dirtied the lane")
	}
	// Forcing against the golden value sets the diff; repeats hold it.
	tr.Force(0, 4, 0)
	tr.Force(0, 4, 0)
	if got := peelDiff(tr, 0); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("diff after force = %v", got)
	}
	// The golden write erases the stuck bit at the edge; re-asserting
	// afterwards re-establishes the diff against the NEW golden value.
	m.Write(0, 0)
	tr.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	if !tr.Clean(0) {
		t.Fatal("write did not clear forced diff")
	}
	tr.Force(0, 4, 0) // golden bit is now already 0
	if !tr.Clean(0) {
		t.Fatal("re-assert of satisfied stuck-at dirtied the lane")
	}
	tr.Force(0, 4, 1)
	if tr.Clean(0) {
		t.Fatal("re-assert against new golden value lost")
	}
}

// peelTestDesign is a tiny datapath whose control flow consumes the
// tracked array: each cycle it reads rf[idx], folds the value into an
// accumulator, writes a derived value back to another word and advances
// idx. A corrupted word therefore diverges the machine the first time
// idx sweeps over it.
func peelTestDesign() (*Simulator, *Mem) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	for i := 0; i < 4; i++ {
		m.Init(i, uint64(i*3+1))
	}
	idx := sim.Reg("idx", 2, 0)
	acc := sim.Reg("acc", 32, 0)
	sim.Process("loop", func() {
		v := m.Read(int(idx.Q()))
		acc.SetD(acc.Q() + v)
		m.Write(int((idx.Q()+2)%4), acc.Q()^v)
		idx.SetD(idx.Q() + 1)
	})
	if err := sim.Settle(); err != nil {
		panic(err)
	}
	return sim, m
}

// TestBatchLanePeelMatchesScalar drives the full peel protocol against
// a from-scratch faulty scalar run: ride the golden machine until the
// lane's corruption is consumed, then rebuild the faulty machine from
// the pre-tick golden snapshot plus the lane diff and check the two
// futures are bit-identical.
func TestBatchLanePeelMatchesScalar(t *testing.T) {
	const (
		injectAt = 2 // cycles completed before the flip
		faultBit = 3*32 + 7
		total    = 12 // cycles to simulate overall
	)

	// Reference: a plain scalar faulty run.
	ref, refMem := peelTestDesign()
	for ref.CycleCount < injectAt {
		if err := ref.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := refMem.FlipBit(faultBit); err != nil {
		t.Fatal(err)
	}
	for ref.CycleCount < total {
		if err := ref.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	// Batched: the golden machine carries the fault as a lane diff.
	gold, goldMem := peelTestDesign()
	for gold.CycleCount < injectAt {
		if err := gold.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	tr := attachLanes(t, goldMem)
	if err := tr.Flip(0, faultBit); err != nil {
		t.Fatal(err)
	}

	var peeledAt uint64
	var pre *State
	for gold.CycleCount < total {
		snap := gold.CaptureState(nil)
		tr.BeginTick()
		if err := gold.Tick(); err != nil {
			t.Fatal(err)
		}
		if tr.Peeled()&1 != 0 {
			peeledAt = snap.cycle
			pre = snap
			break
		}
	}
	if pre == nil {
		t.Fatal("fault was never consumed; peel did not fire")
	}
	// idx latches 3 on the tick leaving cycle 2 and its settle reads
	// rf[3], consuming the corruption.
	if peeledAt != 2 {
		t.Fatalf("peeled leaving cycle %d, want 2", peeledAt)
	}

	// Reconstruct the faulty machine: golden pre-tick state + diff.
	faulty, faultyMem := peelTestDesign()
	faulty.RestoreState(pre)
	for _, bit := range peelDiff(tr, 0) {
		if err := faultyMem.FlipBit(bit); err != nil {
			t.Fatal(err)
		}
	}
	for faulty.CycleCount < total {
		if err := faulty.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := stateDigest(faulty), stateDigest(ref); got != want {
		t.Fatalf("peeled machine diverged from scalar run: %#x != %#x", got, want)
	}
	// Sanity: the fault really did something (otherwise the test is vacuous).
	cleanRef, _ := peelTestDesign()
	for cleanRef.CycleCount < total {
		cleanRef.Tick()
	}
	if stateDigest(cleanRef) == stateDigest(ref) {
		t.Fatal("fault had no effect; pick a different bit")
	}
}

// BenchmarkBatchLaneStep pins the per-tick lane-tracking overhead of
// the hot loop — BeginTick, the clock edge with both hooks live, and
// the peel check — at zero allocations per operation.
func BenchmarkBatchLaneStep(b *testing.B) {
	sim, m := peelTestDesign()
	tr := attachLanes(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BeginTick()
		if err := sim.Tick(); err != nil {
			b.Fatal(err)
		}
		if p := tr.Peeled(); p != 0 {
			// Lanes carry no diffs, so nothing ever peels; keep the
			// check so the compiler cannot elide it.
			b.Fatalf("unexpected peel %#x", p)
		}
	}
}

func TestBatchLaneStepDoesNotAllocate(t *testing.T) {
	sim, m := peelTestDesign()
	tr := attachLanes(t, m)
	// Each step re-corrupts the word the design is about to overwrite
	// (the write queued last settle targets (cycle+2)%4), so every tick
	// exercises the undo journal the way persistent-fault re-assertion
	// does, without ever peeling a lane.
	step := func() {
		for lane := 0; lane < 8; lane++ {
			if err := tr.Flip(lane, int((sim.CycleCount+2)%4)*32+lane); err != nil {
				t.Fatal(err)
			}
		}
		tr.BeginTick()
		if err := sim.Tick(); err != nil {
			t.Fatal(err)
		}
		if p := tr.Peeled(); p != 0 {
			t.Fatalf("unexpected peel %#x", p)
		}
		for lane := 0; lane < 8; lane++ {
			if !tr.Clean(lane) {
				t.Fatalf("lane %d survived the overwrite: the journal went unexercised", lane)
			}
		}
	}
	// Warm the journal and dirty lists, then require a steady state of 0
	// allocs/op.
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("lane step allocates %.1f allocs/op, want 0", avg)
	}
}
