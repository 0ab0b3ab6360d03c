package rtl

import (
	"testing"

	"repro/internal/statehash"
)

func stateDigest(s *Simulator) uint64 {
	h := statehash.New()
	s.HashState(h)
	return h.Sum()
}

// TestBatchMemLaneLifecycle covers the diff algebra: a lane's fault
// lives as a sparse XOR diff, a full-word golden write erases it (the
// reconvergence exit), and reads of clean words never peel.
func TestBatchMemLaneLifecycle(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	m.Init(1, 0xF0)
	b := m.AttachBatch()
	defer b.Detach()

	b.Activate(3)
	if err := b.FlipBit(3, 32+1); err != nil { // word 1, bit 1
		t.Fatal(err)
	}
	if b.Clean(3) {
		t.Fatal("flip left lane clean")
	}
	if err := b.FlipBit(3, b.Bits()); err == nil {
		t.Error("out-of-range lane flip accepted")
	}

	// A golden write overwrites the full word at the clock edge: the
	// lane's diff there dies, exactly like the scalar fault would be
	// overwritten.
	m.Write(1, 0xAA)
	b.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	if b.Peeled() != 0 {
		t.Fatalf("peeled = %#x on a write-only tick", b.Peeled())
	}
	if !b.Clean(3) {
		t.Fatal("overwritten diff did not clear")
	}
	// Reading the now-clean word must not peel the lane.
	if m.Read(1) != 0xAA {
		t.Fatal("golden contents wrong")
	}
	if b.Peeled() != 0 {
		t.Fatalf("read of clean word peeled %#x", b.Peeled())
	}
}

// TestBatchMemPeelOnRead: the design reading a word a lane has
// corrupted is the first consumption of the fault; the lane peels and
// its diff is reported for scalar reconstruction.
func TestBatchMemPeelOnRead(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	b := m.AttachBatch()
	defer b.Detach()

	b.Activate(5)
	b.Activate(9)
	if err := b.FlipBit(5, 2); err != nil { // word 0, bit 2
		t.Fatal(err)
	}
	if err := b.FlipBit(9, 32); err != nil { // word 1, bit 0
		t.Fatal(err)
	}
	b.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	_ = m.Read(0)
	if b.Peeled() != 1<<5 {
		t.Fatalf("peeled = %#x, want lane 5 only", b.Peeled())
	}
	var got [][2]uint64
	b.LaneDiff(5, func(w int, d uint64) { got = append(got, [2]uint64{uint64(w), d}) })
	if len(got) != 1 || got[0] != [2]uint64{0, 4} {
		t.Fatalf("lane 5 diff = %v", got)
	}
	b.Retire(5)
	if !b.Clean(5) {
		t.Fatal("retire left diffs behind")
	}
	if b.Peeled() != 0 {
		t.Fatalf("retire left peel bit: %#x", b.Peeled())
	}
	// Lane 9 is untouched and still in flight.
	if b.Clean(9) {
		t.Fatal("lane 9 diff lost")
	}
}

// TestBatchMemUndoReconstruction: within one Tick the clock edge
// applies writes before combinational reads settle, so a lane can lose
// a diff to an overwrite and peel on another word in the same tick. Its
// pre-tick diff must include both words.
func TestBatchMemUndoReconstruction(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 4, 32)
	b := m.AttachBatch()
	defer b.Detach()

	b.Activate(2)
	b.FlipBit(2, 3)    // word 0, bit 3
	b.FlipBit(2, 32+4) // word 1, bit 4
	m.Write(0, 123)    // golden overwrite of word 0, applies at the edge
	b.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	_ = m.Read(1) // consumes the lane's word-1 corruption: peel
	if b.Peeled() != 1<<2 {
		t.Fatalf("peeled = %#x, want lane 2", b.Peeled())
	}
	diffs := map[int]uint64{}
	b.LaneDiff(2, func(w int, d uint64) { diffs[w] = d })
	if len(diffs) != 2 || diffs[0] != 1<<3 || diffs[1] != 1<<4 {
		t.Fatalf("pre-tick diff = %v, want words 0 and 1", diffs)
	}
}

// TestBatchMemForceBit: Force is relative to the golden word's current
// bits and idempotent — the re-assertion contract of the persistent
// fault models.
func TestBatchMemForceBit(t *testing.T) {
	sim := NewSimulator()
	m := sim.Mem("rf", 2, 32)
	m.Init(0, 0b10000)
	b := m.AttachBatch()
	defer b.Detach()

	b.Activate(0)
	// Forcing to the golden value is a no-op: lane stays clean.
	b.ForceBit(0, 4, 1)
	if !b.Clean(0) {
		t.Fatal("force-to-same dirtied the lane")
	}
	// Forcing against the golden value sets the diff; repeats hold it.
	b.ForceBit(0, 4, 0)
	b.ForceBit(0, 4, 0)
	var diffs []uint64
	b.LaneDiff(0, func(w int, d uint64) { diffs = append(diffs, uint64(w), d) })
	if len(diffs) != 2 || diffs[0] != 0 || diffs[1] != 1<<4 {
		t.Fatalf("diff after force = %v", diffs)
	}
	// The golden write erases the stuck bit at the edge; re-asserting
	// afterwards re-establishes the diff against the NEW golden value.
	m.Write(0, 0)
	b.BeginTick()
	if err := sim.Tick(); err != nil {
		t.Fatal(err)
	}
	if !b.Clean(0) {
		t.Fatal("write did not clear forced diff")
	}
	b.ForceBit(0, 4, 0) // golden bit is now already 0
	if !b.Clean(0) {
		t.Fatal("re-assert of satisfied stuck-at dirtied the lane")
	}
	b.ForceBit(0, 4, 1)
	if b.Clean(0) {
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
	b := goldMem.AttachBatch()
	defer b.Detach()
	b.Activate(0)
	if err := b.FlipBit(0, faultBit); err != nil {
		t.Fatal(err)
	}

	var peeledAt uint64
	var pre *State
	for gold.CycleCount < total {
		snap := gold.CaptureState(nil)
		b.BeginTick()
		if err := gold.Tick(); err != nil {
			t.Fatal(err)
		}
		if b.Peeled()&1 != 0 {
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
	var derr error
	b.LaneDiff(0, func(w int, d uint64) {
		for bit := 0; bit < 32; bit++ {
			if d&(1<<uint(bit)) != 0 {
				if err := faultyMem.FlipBit(w*32 + bit); err != nil {
					derr = err
				}
			}
		}
	})
	if derr != nil {
		t.Fatal(derr)
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
	bm := m.AttachBatch()
	defer bm.Detach()
	for lane := 0; lane < MaxLanes; lane++ {
		bm.Activate(lane)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.BeginTick()
		if err := sim.Tick(); err != nil {
			b.Fatal(err)
		}
		if p := bm.Peeled(); p != 0 {
			// Lanes carry no diffs, so nothing ever peels; keep the
			// check so the compiler cannot elide it.
			b.Fatalf("unexpected peel %#x", p)
		}
	}
}

func TestBatchLaneStepDoesNotAllocate(t *testing.T) {
	sim, m := peelTestDesign()
	bm := m.AttachBatch()
	defer bm.Detach()
	for lane := 0; lane < MaxLanes; lane++ {
		bm.Activate(lane)
	}
	// Each step re-corrupts the word the design is about to overwrite
	// (the write queued last settle targets (cycle+2)%4), so every tick
	// exercises the undo arena the way persistent-fault re-assertion
	// does, without ever peeling a lane.
	step := func() {
		for lane := 0; lane < 8; lane++ {
			if err := bm.FlipBit(lane, int((sim.CycleCount+2)%4)*32+lane); err != nil {
				t.Fatal(err)
			}
		}
		bm.BeginTick()
		if err := sim.Tick(); err != nil {
			t.Fatal(err)
		}
		if p := bm.Peeled(); p != 0 {
			t.Fatalf("unexpected peel %#x", p)
		}
	}
	// Warm the undo arenas, then require a steady state of 0 allocs/op.
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("lane step allocates %.1f allocs/op, want 0", avg)
	}
}
