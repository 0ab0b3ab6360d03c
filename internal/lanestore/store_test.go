package lanestore

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

func newStore() *Store {
	s := &Store{}
	s.Init(4, 8) // four 8-byte lines
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
	s.SetByte(5, KL1D, 8, 1) // line 1
	s.SetByte(5, KL1D, 9, 2) // line 1
	s.SetByte(5, KMem, 100, 3)
	s.SetByte(5, KL1D, 8, 0)
	if !s.Line[1].Has(5) || !s.L1D.Has(5) || !s.Mem.Has(5) || s.Byte(5, KL1D, 9) != 2 {
		t.Fatalf("after clearing one of two line bytes: line %v, l1d %v, mem %v", s.Line[1], s.L1D, s.Mem)
	}
	s.SetByte(5, KL1D, 9, 0)
	if s.Line[1].Has(5) || s.L1D.Has(5) || !s.Mem.Has(5) {
		t.Fatalf("after clearing the line: line %v, l1d %v, mem %v", s.Line[1], s.L1D, s.Mem)
	}
	s.Retire(5)
	if s.Mem.Any() || len(s.Bytes(5)) != 0 {
		t.Fatal("retire left a diff")
	}
}

// TestUndoRestoresTickStart: the journal puts back every diff the tick
// overwrote, in reverse order, for the machine asked about only.
func TestUndoRestoresTickStart(t *testing.T) {
	s := newStore()
	s.SetByte(1, KOut, 0, 7)
	s.SetByte(2, KOut, 0, 9)
	s.BeginTick(0)
	s.SetByte(1, KOut, 0, 8)
	s.SetByte(1, KOut, 0, 0)
	s.SetByte(2, KOut, 0, 1)
	s.Undo(1, func(kind uint8, at, old uint32) { s.PutByte(1, kind, at, uint8(old)) })
	if s.Byte(1, KOut, 0) != 7 || s.Byte(2, KOut, 0) != 1 {
		t.Fatalf("undo: machine 1 %d, machine 2 %d", s.Byte(1, KOut, 0), s.Byte(2, KOut, 0))
	}
}

// TestWriteBackDivergesAndRefills: a dirty line with a diff written back
// records the lane's digest and moves the diff to memory (overwriting
// what memory held there), and a refill brings it back.
func TestWriteBackDivergesAndRefills(t *testing.T) {
	s := newStore()
	s.SetByte(0, KL1D, 17, 0x40)   // line 2, byte 1
	s.SetByte(0, KMem, 0x200, 0x5) // stale: overwritten by the write-back
	s.SetByte(1, KMem, 0x300, 0x1) // another machine, elsewhere
	evict := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	s.WriteBack(2, 16, evict, 0x200, 99)
	if s.Byte(0, KMem, 0x201) != 0x40 || s.Byte(0, KMem, 0x200) != 0 || s.Byte(1, KMem, 0x300) != 1 {
		t.Fatalf("memory plane after the write-back: %v", s.Bytes(0))
	}
	wbs := Group{S: s, G: 0}.AppendDiverged(0, nil)
	want := append([]byte(nil), evict...)
	want[1] ^= 0x40
	if len(wbs) != 1 || wbs[0] != (trace.Transaction{Cycle: 99, Addr: 0x200, Kind: trace.KindWriteback, Digest: trace.DigestBytes(want)}) {
		t.Fatalf("diverged write-backs %+v", wbs)
	}
	s.CopyBytes(0, KL1D, 16, KMem, 0x200, 8) // refill of the same line
	if s.Byte(0, KL1D, 17) != 0x40 {
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
// and the list is safe across goroutines.
func TestFreeListRecyclesByGeometry(t *testing.T) {
	var f FreeList[*Store]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := f.Take(func(s *Store) bool { return s.Fits(4, 8) })
				if s == nil {
					s = newStore()
				}
				f.Put(s)
			}
		}()
	}
	wg.Wait()
	if s := f.Take(func(s *Store) bool { return s.Fits(8, 8) }); s != nil {
		t.Fatal("a store of another geometry was handed out")
	}
}
