package lifetime

import (
	"reflect"
	"sort"
	"testing"
)

// peelDiff collects a lane's pre-tick diff, sorted.
func peelDiff(t *Lanes, lane int) []int {
	var out []int
	t.PeelDiff(lane, func(bit int) { out = append(out, bit) })
	sort.Ints(out)
	return out
}

// zeros is a golden machine whose every bit reads 0.
func zeros(int) int { return 0 }

func TestLanesReadPeelsOnlyOverlappingLanes(t *testing.T) {
	tr := NewLanes(4, 32, zeros)
	tr.Flip(0, 1*32+7) // lane 0: unit 1, bit 7
	tr.Flip(1, 1*32+9) // lane 1: unit 1, bit 9
	tr.Flip(2, 2*32+7) // lane 2: another unit
	tr.BeginTick()
	tr.Read(1, 0, 8) // byte 0 of unit 1
	if got := tr.Peeled(); got != 1<<0 {
		t.Fatalf("peeled %b, want lane 0 only", got)
	}
	tr.Read(1, 0, 8) // a peeled lane is out of the hooks' sight
	tr.Read(3, 0, 32)
	if got := tr.Peeled(); got != 1<<0 {
		t.Fatalf("peeled %b after unrelated reads, want lane 0 only", got)
	}
	if got := peelDiff(tr, 0); !reflect.DeepEqual(got, []int{39}) {
		t.Fatalf("lane 0 diff %v, want [39]", got)
	}
	tr.BeginTick()
	if tr.Peeled() != 0 {
		t.Fatal("BeginTick kept the previous tick's peels")
	}
	tr.Read(1, 8, 16)
	tr.Read(2, 0, 32)
	if got := tr.Peeled(); got != 1<<1|1<<2 {
		t.Fatalf("peeled %b, want lanes 1 and 2", got)
	}
}

// A burst straddling two units is dirty in both: a write to one unit
// leaves the other half live, and the lane is clean only once both are
// overwritten.
func TestLanesBurstStraddlesUnits(t *testing.T) {
	tr := NewLanes(4, 32, zeros)
	for b := 62; b < 66; b++ { // bits 30,31 of unit 1 and 0,1 of unit 2
		if err := tr.Flip(5, b); err != nil {
			t.Fatal(err)
		}
	}
	tr.BeginTick()
	tr.Write(1, 0, 32)
	if tr.Clean(5) {
		t.Fatal("lane clean with half its burst still in unit 2")
	}
	tr.Read(1, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("read of the overwritten unit peeled the lane")
	}
	if got := peelDiff(tr, 5); !reflect.DeepEqual(got, []int{62, 63, 64, 65}) {
		t.Fatalf("pre-tick diff %v, want the whole burst", got)
	}
	tr.BeginTick()
	tr.Write(2, 0, 32)
	if !tr.Clean(5) {
		t.Fatal("lane dirty after both units were overwritten")
	}
	tr.BeginTick()
	tr.Read(2, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("a clean lane peeled")
	}
}

// A byte store clears just its eight bits of a line: a flip beside it
// survives and still peels.
func TestLanesPartialWrite(t *testing.T) {
	tr := NewLanes(2, 256, zeros)
	tr.Flip(0, 256+70) // line 1, byte 8
	tr.Flip(1, 256+81) // line 1, byte 10
	tr.BeginTick()
	tr.Write(1, 64, 72) // store to byte 8
	if !tr.Clean(0) || tr.Clean(1) {
		t.Fatalf("clean = %v, %v; want the stored byte's lane clean, its neighbour dirty", tr.Clean(0), tr.Clean(1))
	}
	tr.Read(1, 64, 96) // word load over bytes 8..11
	if got := tr.Peeled(); got != 1<<1 {
		t.Fatalf("peeled %b, want lane 1 only", got)
	}
}

// A simulator interleaves writes and reads inside one tick. A lane that
// loses one bit to a write and is then peeled through another must be
// rebuilt as it stood before the tick: with both bits.
func TestLanesPeelRebuildsPreTickDiff(t *testing.T) {
	tr := NewLanes(8, 32, zeros)
	tr.Flip(3, 2*32+4)
	tr.Flip(3, 2*32+20)
	tr.Flip(3, 5*32+1)
	tr.BeginTick()
	tr.Write(2, 0, 8)   // clears bit 4 of unit 2
	tr.Write(5, 0, 32)  // clears unit 5
	tr.Read(2, 0, 8)    // the rewritten byte: golden's value now
	tr.Read(2, 16, 24)  // the surviving flip: consumed
	tr.Write(2, 16, 24) // after the peel: must not reach the lane
	if got := tr.Peeled(); got != 1<<3 {
		t.Fatalf("peeled %b, want lane 3", got)
	}
	if got, want := peelDiff(tr, 3), []int{2*32 + 4, 2*32 + 20, 5*32 + 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-tick diff %v, want %v", got, want)
	}
	tr.Retire(3)
	if !tr.Clean(3) {
		t.Fatal("retired lane still dirty")
	}
	// The journal is per tick: the next one starts empty.
	tr.Flip(3, 7)
	tr.BeginTick()
	tr.Read(0, 0, 32)
	if got := peelDiff(tr, 3); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("diff %v after a new tick, want [7]", got)
	}
}

// A stuck-at fault is a difference from golden only while golden holds
// the other value: re-asserting it after a golden overwrite makes the
// bit dirty or clean according to what golden wrote.
func TestLanesForceFollowsGolden(t *testing.T) {
	golden := map[int]int{}
	tr := NewLanes(2, 32, func(bit int) int { return golden[bit] })
	const bit = 32 + 3
	force := func() {
		t.Helper()
		if err := tr.Force(0, bit, 1); err != nil {
			t.Fatal(err)
		}
	}
	force() // golden 0, stuck at 1
	if tr.Clean(0) {
		t.Fatal("stuck-at-1 over a golden 0 left the lane clean")
	}
	force()
	if got := peelDiff(tr, 0); !reflect.DeepEqual(got, []int{bit}) {
		t.Fatalf("re-asserting is not idempotent: diff %v", got)
	}
	tr.BeginTick()
	golden[bit] = 1 // golden overwrites the register with a 1 there
	tr.Write(1, 0, 32)
	force()
	if !tr.Clean(0) {
		t.Fatal("stuck-at-1 over a golden 1 is no difference")
	}
	tr.BeginTick()
	golden[bit] = 0
	tr.Write(1, 0, 32)
	if !tr.Clean(0) {
		t.Fatal("a write dirtied a lane")
	}
	force() // the fault is still there: the overwrite must not heal it
	tr.BeginTick()
	tr.Read(1, 0, 32)
	if tr.Peeled() != 1 {
		t.Fatal("the re-asserted fault was not consumed")
	}
}

func TestLanesFlipAndBounds(t *testing.T) {
	tr := NewLanes(2, 32, zeros)
	tr.Flip(9, 5)
	tr.Flip(9, 5)
	if !tr.Clean(9) {
		t.Fatal("two flips of one bit did not cancel")
	}
	tr.BeginTick()
	tr.Read(0, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("a cancelled flip peeled")
	}
	if tr.Flip(0, -1) == nil || tr.Flip(0, tr.Bits()) == nil || tr.Force(0, 64, 1) == nil {
		t.Fatal("out-of-range bit accepted")
	}
}

// The lockstep walk hands a finished lane's slot to the next pending
// fault. A slot retired at its limit and reused before the next tick
// carries nothing over: the old occupant's bits neither peel nor show up
// in the new one's diff.
func TestLanesSlotReuseAfterRetire(t *testing.T) {
	tr := NewLanes(4, 32, zeros)
	tr.Flip(4, 1*32+7)
	tr.Flip(4, 1*32+9)
	tr.BeginTick()
	tr.Write(1, 0, 8) // journalled: the old occupant lost bit 7 this tick
	tr.Retire(4)      // window limit reached, never consumed
	tr.Flip(4, 2*32+3)
	tr.BeginTick()
	tr.Read(1, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("the previous occupant's bits peeled the reused slot")
	}
	tr.Read(2, 0, 32)
	if got := tr.Peeled(); got != 1<<4 {
		t.Fatalf("peeled %b, want the reused lane 4", got)
	}
	if got := peelDiff(tr, 4); !reflect.DeepEqual(got, []int{2*32 + 3}) {
		t.Fatalf("reused slot's diff %v, want its own flip only", got)
	}
}

// A lane peeled by a tick is retired right after it and its slot may be
// taken at the very next cycle, before another tick begins: the peel
// mark, the dirty bits and the tick's write journal of the old occupant
// must all be gone.
func TestLanesSlotReuseAfterPeelInSameTick(t *testing.T) {
	tr := NewLanes(4, 32, zeros)
	tr.Flip(3, 0*32+1)
	tr.Flip(3, 1*32+2)
	tr.Flip(5, 1*32+2) // a neighbour peeled by the same read
	tr.BeginTick()
	tr.Write(0, 0, 8) // clears lane 3's first bit, journalled
	tr.Read(1, 0, 8)  // consumes the second: lanes 3 and 5 peel
	if got := tr.Peeled(); got != 1<<3|1<<5 {
		t.Fatalf("peeled %b, want lanes 3 and 5", got)
	}
	if got := peelDiff(tr, 3); !reflect.DeepEqual(got, []int{1, 32 + 2}) {
		t.Fatalf("pre-tick diff %v, want both bits", got)
	}
	tr.Retire(3)
	if got := tr.Peeled(); got != 1<<5 {
		t.Fatalf("peeled %b after retiring lane 3, want lane 5 still marked", got)
	}
	tr.Flip(3, 3*32+30) // the next pending fault takes the slot
	if got := peelDiff(tr, 5); !reflect.DeepEqual(got, []int{32 + 2}) {
		t.Fatalf("neighbour's diff %v disturbed by the reuse", got)
	}
	tr.Retire(5)
	tr.BeginTick()
	tr.Read(0, 0, 32)
	tr.Read(1, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("the peeled occupant's bits are still live in the reused slot")
	}
	tr.Read(3, 24, 32)
	if got := tr.Peeled(); got != 1<<3 {
		t.Fatalf("peeled %b, want the new occupant of lane 3", got)
	}
	if got := peelDiff(tr, 3); !reflect.DeepEqual(got, []int{3*32 + 30}) {
		t.Fatalf("new occupant's diff %v carries the old journal", got)
	}
}

// A persistent fault's lane is only a difference from golden while the
// walk re-asserts it. Once its slot goes to a transient fault, golden
// writes under the old stuck bit are nobody's business.
func TestLanesPersistentSlotReusedByTransient(t *testing.T) {
	golden := map[int]int{}
	tr := NewLanes(2, 32, func(bit int) int { return golden[bit] })
	const stuck, flip = 5, 32 + 11
	tr.Force(0, stuck, 1)
	tr.BeginTick()
	tr.Retire(0)
	tr.Flip(0, flip)
	tr.BeginTick()
	golden[stuck] = 1
	tr.Write(0, 0, 32)
	golden[stuck] = 0
	tr.Write(0, 0, 32)
	tr.Read(0, 0, 32)
	if tr.Peeled() != 0 {
		t.Fatal("the retired stuck-at bit came back under the transient occupant")
	}
	tr.Read(1, 8, 16)
	if got := peelDiff(tr, 0); tr.Peeled() != 1 || !reflect.DeepEqual(got, []int{flip}) {
		t.Fatalf("peeled %b diff %v, want lane 0 with its flip only", tr.Peeled(), got)
	}
}
