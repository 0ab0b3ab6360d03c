package mem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadStoreByte(t *testing.T) {
	m := New(8192)
	if got, ok := m.LoadByte(0); !ok || got != 0 {
		t.Fatalf("fresh memory LoadByte(0) = %d, %v", got, ok)
	}
	if !m.StoreByte(4097, 0xAB) {
		t.Fatal("StoreByte in range failed")
	}
	if got, ok := m.LoadByte(4097); !ok || got != 0xAB {
		t.Fatalf("LoadByte(4097) = %#x, %v", got, ok)
	}
	if m.StoreByte(8192, 1) {
		t.Error("StoreByte out of range succeeded")
	}
	if _, ok := m.LoadByte(8192); ok {
		t.Error("LoadByte out of range succeeded")
	}
}

func TestWordRoundTrip(t *testing.T) {
	m := New(8192)
	if !m.StoreWord(100, 0xDEADBEEF) {
		t.Fatal("StoreWord failed")
	}
	if got, ok := m.LoadWord(100); !ok || got != 0xDEADBEEF {
		t.Fatalf("LoadWord = %#x, %v", got, ok)
	}
	// Little-endian byte order.
	if b, _ := m.LoadByte(100); b != 0xEF {
		t.Errorf("byte 0 = %#x, want 0xEF", b)
	}
	if b, _ := m.LoadByte(103); b != 0xDE {
		t.Errorf("byte 3 = %#x, want 0xDE", b)
	}
}

func TestWordAcrossPageBoundary(t *testing.T) {
	m := New(8192)
	addr := uint32(PageSize - 2)
	if !m.StoreWord(addr, 0x11223344) {
		t.Fatal("StoreWord across boundary failed")
	}
	if got, ok := m.LoadWord(addr); !ok || got != 0x11223344 {
		t.Fatalf("LoadWord across boundary = %#x, %v", got, ok)
	}
}

func TestWordOutOfRange(t *testing.T) {
	m := New(4096)
	if m.StoreWord(4094, 1) {
		t.Error("StoreWord straddling end succeeded")
	}
	if _, ok := m.LoadWord(4093); ok {
		t.Error("LoadWord straddling end succeeded")
	}
	// Near-overflow addresses must not wrap.
	if m.StoreWord(0xFFFFFFFE, 1) {
		t.Error("StoreWord at 0xFFFFFFFE succeeded")
	}
}

func TestReadStoreBytes(t *testing.T) {
	m := New(8192)
	data := []byte("hello, fault injection")
	if !m.StoreBytes(4090, data) { // crosses a page boundary
		t.Fatal("StoreBytes failed")
	}
	got, ok := m.LoadBytes(4090, uint32(len(data)))
	if !ok || string(got) != string(data) {
		t.Fatalf("LoadBytes = %q, %v", got, ok)
	}
	if m.StoreBytes(8190, data) {
		t.Error("StoreBytes out of range succeeded")
	}
}

func TestFlipBit(t *testing.T) {
	m := New(4096)
	m.StoreByte(10, 0b1010)
	if !m.FlipBit(10, 0) {
		t.Fatal("FlipBit failed")
	}
	if b, _ := m.LoadByte(10); b != 0b1011 {
		t.Errorf("after flip bit0: %#b", b)
	}
	m.FlipBit(10, 3)
	if b, _ := m.LoadByte(10); b != 0b0011 {
		t.Errorf("after flip bit3: %#b", b)
	}
	if m.FlipBit(5000, 0) {
		t.Error("FlipBit out of range succeeded")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New(8192)
	m.StoreWord(0, 111)
	m.StoreWord(4096, 222)

	s := m.Snapshot()

	// Write to the original: the snapshot must not observe it.
	m.StoreWord(0, 999)
	if got, _ := s.LoadWord(0); got != 111 {
		t.Errorf("snapshot saw original's write: %d", got)
	}
	// Write to the snapshot: the original must not observe it.
	s.StoreWord(4096, 777)
	if got, _ := m.LoadWord(4096); got != 222 {
		t.Errorf("original saw snapshot's write: %d", got)
	}
	if got, _ := s.LoadWord(4096); got != 777 {
		t.Errorf("snapshot lost its own write: %d", got)
	}
}

func TestSnapshotChain(t *testing.T) {
	m := New(4096)
	m.StoreByte(1, 1)
	s1 := m.Snapshot()
	s2 := s1.Snapshot()
	m.StoreByte(1, 2)
	s1.StoreByte(1, 3)
	if b, _ := m.LoadByte(1); b != 2 {
		t.Errorf("m = %d", b)
	}
	if b, _ := s1.LoadByte(1); b != 3 {
		t.Errorf("s1 = %d", b)
	}
	if b, _ := s2.LoadByte(1); b != 1 {
		t.Errorf("s2 = %d", b)
	}
}

func TestEqual(t *testing.T) {
	a := New(8192)
	b := New(8192)
	if !a.Equal(b) {
		t.Error("fresh memories unequal")
	}
	a.StoreByte(5000, 9)
	if a.Equal(b) {
		t.Error("differing memories equal")
	}
	b.StoreByte(5000, 9)
	if !a.Equal(b) {
		t.Error("same-content memories unequal")
	}
	// A snapshot equals its source until one diverges.
	s := a.Snapshot()
	if !a.Equal(s) {
		t.Error("snapshot unequal to source")
	}
	s.StoreByte(0, 1)
	if a.Equal(s) {
		t.Error("diverged snapshot equal to source")
	}
	if New(4096).Equal(New(8192)) {
		t.Error("different sizes equal")
	}
	// Zero page vs explicitly written zero page.
	c := New(8192)
	d := New(8192)
	c.StoreByte(0, 0) // allocates the page with zero content
	if !c.Equal(d) {
		t.Error("zero page != nil page")
	}
}

// TestSnapshotQuick: random interleavings of writes to original and
// snapshot never leak between the two.
func TestSnapshotQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(16 * PageSize)
		ref := make([]byte, m.Size())
		for i := 0; i < 200; i++ {
			a := uint32(rng.Intn(int(m.Size())))
			v := byte(rng.Intn(256))
			m.StoreByte(a, v)
			ref[a] = v
		}
		s := m.Snapshot()
		refS := make([]byte, len(ref))
		copy(refS, ref)
		for i := 0; i < 400; i++ {
			a := uint32(rng.Intn(int(m.Size())))
			v := byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				m.StoreByte(a, v)
				ref[a] = v
			} else {
				s.StoreByte(a, v)
				refS[a] = v
			}
		}
		for i := 0; i < 500; i++ {
			a := uint32(rng.Intn(int(m.Size())))
			bm, _ := m.LoadByte(a)
			bs, _ := s.LoadByte(a)
			if bm != ref[a] || bs != refS[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSizeRounding(t *testing.T) {
	m := New(100)
	if m.Size() != PageSize {
		t.Errorf("Size() = %d, want %d", m.Size(), PageSize)
	}
	if !m.InRange(PageSize-4, 4) {
		t.Error("InRange end-of-memory word failed")
	}
	if m.InRange(PageSize-3, 4) {
		t.Error("InRange straddling end succeeded")
	}
}

func TestRestoreFrom(t *testing.T) {
	src := New(1 << 14)
	src.StoreWord(0x20, 0x11223344)
	dst := New(1 << 14)
	dst.StoreWord(0x20, 0xFFFFFFFF)
	dst.StoreWord(0x1000, 7)

	dst.RestoreFrom(src)
	if v, _ := dst.LoadWord(0x20); v != 0x11223344 {
		t.Fatalf("restored word = %#x", v)
	}
	if v, _ := dst.LoadWord(0x1000); v != 0 {
		t.Fatalf("stale page survived: %#x", v)
	}
	// Copy-on-write isolation survives the in-place restore.
	dst.StoreWord(0x20, 0xDEAD)
	if v, _ := src.LoadWord(0x20); v != 0x11223344 {
		t.Fatalf("write-through to src: %#x", v)
	}
	if !src.Equal(src.Snapshot()) {
		t.Fatal("src no longer equals its own snapshot")
	}
}

// TestRestoreReusesPages pins the clone pool: a worker that restores a
// shared snapshot, dirties some of its pages and restores again gets its
// clones from the pages the previous restore released, so the loop
// allocates nothing once warm — and a recycled page carries neither the
// data nor the memoised digest of its previous life.
func TestRestoreReusesPages(t *testing.T) {
	snap := New(8 * PageSize)
	for p := uint32(0); p < 4; p++ {
		snap.StoreWord(p*PageSize+8, 0xA0+p)
	}
	snapHash := snap.Hash()
	w := New(8 * PageSize)
	replay := func() {
		w.RestoreFrom(snap)
		for p := uint32(0); p < 4; p++ {
			w.StoreWord(p*PageSize+16, 0xBEEF) // shared page: clones
		}
	}
	replay()
	if w.Hash() == snapHash { // memoises the digests of w's private clones
		t.Fatal("dirtied memory hashes like the snapshot")
	}
	if allocs := testing.AllocsPerRun(200, replay); allocs != 0 && !raceEnabled {
		t.Errorf("restore/write/restore allocates %.1f objects per round, want 0", allocs)
	}
	for p := uint32(0); p < 4; p++ {
		if v, _ := snap.LoadWord(p*PageSize + 16); v != 0 {
			t.Fatalf("write reached the shared snapshot: page %d holds %#x", p, v)
		}
		if v, _ := w.LoadWord(p*PageSize + 8); v != 0xA0+p {
			t.Fatalf("recycled page lost the snapshot's data: page %d holds %#x", p, v)
		}
	}
	w.RestoreFrom(snap)
	if w.Hash() != snapHash || !w.Equal(snap) {
		t.Error("restored memory differs from the snapshot")
	}
	w.StoreByte(3, 1) // a recycled page must not keep the digest it memoised before
	if w.Hash() == snapHash {
		t.Error("stale page digest survived recycling")
	}
}

// TestConcurrentRestoreFromSharedSnapshot is the replay pool's access
// pattern, for the race job: several workers restoring from one
// read-only snapshot, writing their private copies and trading recycled
// pages through the pool.
func TestConcurrentRestoreFromSharedSnapshot(t *testing.T) {
	snap := New(8 * PageSize)
	for p := uint32(0); p < 8; p++ {
		snap.StoreWord(p*PageSize, p+1)
	}
	want := snap.Hash()
	var wg sync.WaitGroup
	for g := uint32(0); g < 2; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			w := New(8 * PageSize)
			for round := uint32(0); round < 500; round++ {
				w.RestoreFrom(snap)
				for p := uint32(0); p < 8; p++ {
					if v, _ := w.LoadWord(p * PageSize); v != p+1 {
						t.Errorf("worker %d round %d: page %d reads %#x", g, round, p, v)
						return
					}
					w.StoreWord(p*PageSize, 0xDEAD0000|g<<8|round&0xFF)
				}
			}
		}(g)
	}
	wg.Wait()
	if snap.Hash() != want {
		t.Error("shared snapshot changed under concurrent restores")
	}
}
