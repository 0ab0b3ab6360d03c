package lanestore

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// Three dense kinds in the test store: planes of three, one and three
// locations.
const (
	kA uint8 = iota
	kB
	kC
)

var testPlanes = []int{kA: 3, kB: 1, kC: 3}

func newStore() *Store {
	s := &Store{}
	s.Init(4, 8, testPlanes...) // four 8-byte lines
	return s
}

// TestMachinesAreTwoGroups: lane k of one group and lane k of the other
// are different machines, and Pop drains a set lowest first.
func TestMachinesAreTwoGroups(t *testing.T) {
	var s Machines
	s.Add(Group{G: 0}.Machine(3))
	s.Add(Group{G: 1}.Machine(3))
	if !s.Has(3) || !s.Has(64+3) || s.Has(4) {
		t.Fatalf("membership: %v", s)
	}
	if got := []int{s.Pop(), s.Pop(), s.Pop()}; got[0] != 3 || got[1] != 67 || got[2] != -1 || s.Any() {
		t.Fatalf("pop order %v, left %v", got, s)
	}
}

// TestByteMembership: a machine stays in a location's set while any of
// its byte diffs keeps it there, and in L1D while it has any L1D byte.
func TestByteMembership(t *testing.T) {
	s := newStore()
	s.Set(5, KL1D, 8, 1) // line 1
	s.Set(5, KL1D, 9, 2) // line 1
	s.Set(5, KMem, 100, 3)
	s.Set(5, KL1D, 8, 0)
	if !s.Line[1].Has(5) || !s.L1D.Has(5) || !s.Mem.Has(5) || s.Get(5, KL1D, 9) != 2 {
		t.Fatalf("after clearing one of two line bytes: line %v, l1d %v, mem %v", s.Line[1], s.L1D, s.Mem)
	}
	s.Set(5, KL1D, 9, 0)
	if s.Line[1].Has(5) || s.L1D.Has(5) || !s.Mem.Has(5) {
		t.Fatalf("after clearing the line: line %v, l1d %v, mem %v", s.Line[1], s.L1D, s.Mem)
	}
	s.Retire(5)
	if s.Mem.Any() || len(s.Bytes(5)) != 0 {
		t.Fatal("retire left a diff")
	}
}

// TestDensePlaneMembership: a dense plane's set at a location holds
// exactly the machines whose diff there is nonzero, the union and the
// joint sets planes share gain every machine given one, Clean sees them
// unless skipped, and Retire leaves no membership behind, in a plane, a
// union or a joint set.
func TestDensePlaneMembership(t *testing.T) {
	s := newStore()
	var union Machines
	joint := make([]Machines, 3)
	a, c := s.Plane(kA), s.Plane(kC)
	a.Union, s.Plane(kB).Union = &union, &union
	a.Joint, c.Joint = joint, joint
	s.Set(70, kA, 2, 0x30)
	s.Set(70, kC, 2, 5)
	s.Set(70, kC, 2, 0)
	s.Set(3, kA, 2, 1)
	s.Set(3, kA, 2, 0)
	s.Set(3, kB, 0, 4)
	s.Set(3, kC, 1, 6)
	if !joint[2].Has(70) || !joint[1].Has(3) || joint[0].Any() || c.At[2].Has(70) {
		t.Fatalf("joint sets %v, plane C at 2 %v", joint, c.At[2])
	}
	if !a.At[2].Has(70) || a.At[2].Has(3) || a.Diff(70, 2) != 0x30 || s.Get(70, kA, 2) != 0x30 {
		t.Fatalf("plane A at 2: %v, diff %#x", a.At[2], a.Diff(70, 2))
	}
	if !union.Has(70) || !union.Has(3) || union.Has(4) {
		t.Fatalf("union %v: want every machine given a nonzero diff", union)
	}
	if all := a.All().Or(s.Plane(kB).All()).Or(c.All()); all != (Machines{1 << 3, 1 << 6}) {
		t.Fatalf("planes hold %v", all)
	}
	if s.Clean(70, nil) || !s.Clean(70, func(kind uint8, at int) bool { return kind == kA && at == 2 }) || !s.Clean(5, nil) {
		t.Fatal("Clean does not follow the dense planes")
	}
	s.Retire(70)
	s.Retire(3)
	if a.All().Or(s.Plane(kB).All()).Or(c.All()).Or(union).Or(joint[1]).Or(joint[2]).Any() ||
		s.Get(70, kA, 2) != 0 || s.Get(3, kB, 0) != 0 || s.Get(3, kC, 1) != 0 || !s.Clean(3, nil) {
		t.Fatal("retire left a dense diff")
	}
}

// TestUndoRestoresTickStart: the journal puts back every dense and byte
// diff the tick overwrote, in reverse order, for the machine asked about
// only.
func TestUndoRestoresTickStart(t *testing.T) {
	s := newStore()
	for _, k := range []struct {
		kind uint8
		at   uint32
	}{{KOut, 0}, {kA, 1}} {
		s.Set(1, k.kind, k.at, 7)
		s.Set(2, k.kind, k.at, 9)
		s.BeginTick(0)
		s.Set(1, k.kind, k.at, 8)
		s.Set(1, k.kind, k.at, 0)
		s.Set(2, k.kind, k.at, 1)
		s.Undo(1)
		if s.Get(1, k.kind, k.at) != 7 || s.Get(2, k.kind, k.at) != 1 {
			t.Fatalf("kind %#x: undo gave machine 1 %d, machine 2 %d", k.kind, s.Get(1, k.kind, k.at), s.Get(2, k.kind, k.at))
		}
	}
	if !s.Plane(kA).At[1].Has(1) {
		t.Fatal("undo did not restore the dense membership")
	}
}

// TestWriteBackDivergesAndRefills: a dirty line with a diff written back
// records the lane's digest and moves the diff to memory (overwriting
// what memory held there), and a refill brings it back.
func TestWriteBackDivergesAndRefills(t *testing.T) {
	s := newStore()
	s.Set(0, KL1D, 17, 0x40)   // line 2, byte 1
	s.Set(0, KMem, 0x200, 0x5) // stale: overwritten by the write-back
	s.Set(1, KMem, 0x300, 0x1) // another machine, elsewhere
	evict := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.WriteBack(2, 16, evict, 0x200, 99)
	if s.Get(0, KMem, 0x201) != 0x40 || s.Get(0, KMem, 0x200) != 0 || s.Get(1, KMem, 0x300) != 1 {
		t.Fatalf("memory plane after the write-back: %v", s.Bytes(0))
	}
	wbs := Group{S: s, G: 0}.AppendDiverged(0, nil)
	want := append([]byte(nil), evict...)
	want[1] ^= 0x40
	if len(wbs) != 1 || wbs[0] != (trace.Transaction{Cycle: 99, Addr: 0x200, Kind: trace.KindWriteback, Digest: trace.DigestBytes(want)}) {
		t.Fatalf("diverged write-backs %+v", wbs)
	}
	s.CopyBytes(0, KL1D, 16, KMem, 0x200, 8) // refill of the same line
	if s.Get(0, KL1D, 17) != 0x40 {
		t.Fatal("the refill lost the diff")
	}
	s.Persist.Add(1)
	s.Peeled = Machines{}
	s.IFetch(0x300, 4)
	if !s.Peeled.Has(1) || s.reason[1] != PeelIFetch || s.Peeled.Has(0) {
		t.Fatalf("ifetch peels %v", s.Peeled)
	}
}

// TestFreeListRecyclesByGeometry: Take hands back only a store that fits,
// in L1D geometry and in dense plane sizes, and the list is safe across
// goroutines.
func TestFreeListRecyclesByGeometry(t *testing.T) {
	var f FreeList[*Store]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := f.Take(func(s *Store) bool { return s.Fits(4, 8, testPlanes...) })
				if s == nil {
					s = newStore()
				}
				f.Put(s)
			}
		}()
	}
	wg.Wait()
	for _, planes := range [][]int{{3, 1, 2}, {3, 1}, {3, 1, 3, 1}} {
		if s := f.Take(func(s *Store) bool { return s.Fits(4, 8, planes...) }); s != nil {
			t.Fatalf("a store was handed out for dense planes %v", planes)
		}
	}
	if s := f.Take(func(s *Store) bool { return s.Fits(8, 8, testPlanes...) }); s != nil {
		t.Fatal("a store of another geometry was handed out")
	}
}
