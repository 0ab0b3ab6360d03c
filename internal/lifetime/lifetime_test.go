package lifetime

import "testing"

func TestClassifyBitOrdering(t *testing.T) {
	sp := NewSpace(4, 32)
	// Unit 1: read at 10, full overwrite at 20, read at 30.
	sp.Read(10, 1, 0, 32)
	sp.Write(20, 1, 0, 32)
	sp.Read(30, 1, 0, 32)

	bit := 1*32 + 7
	cases := []struct {
		after, horizon uint64
		live           bool
		cycle          uint64
	}{
		{0, 1 << 40, true, 10},  // read at 10 consumes first
		{10, 1 << 40, false, 0}, // overwrite at 20 kills it
		{20, 1 << 40, true, 30}, // read at 30 consumes
		{30, 1 << 40, false, 0}, // no later event: dead
		{0, 5, false, 0},        // read at 10 beyond horizon 5: dead
		{20, 29, false, 0},      // read at 30 beyond horizon 29: dead
		{20, 30, true, 30},      // horizon is inclusive
	}
	for i, c := range cases {
		v := sp.ClassifyBit(bit, c.after, c.horizon)
		if v.Live != c.live || (v.Live && v.Cycle != c.cycle) {
			t.Errorf("case %d: got %+v, want live=%v cycle=%d", i, v, c.live, c.cycle)
		}
	}
}

func TestClassifyBitRanges(t *testing.T) {
	sp := NewSpace(2, 256)
	// Unit 0: word write over bits [64,96), then byte read of [64,72).
	sp.Write(5, 0, 64, 96)
	sp.Read(9, 0, 64, 72)

	if v := sp.ClassifyBit(70, 0, 1<<40); v.Live {
		t.Fatalf("bit 70: overwritten at 5 before the read, got %+v", v)
	}
	if v := sp.ClassifyBit(70, 5, 1<<40); !v.Live || v.Cycle != 9 {
		t.Fatalf("bit 70 after the write: consumed at 9, got %+v", v)
	}
	if v := sp.ClassifyBit(80, 5, 1<<40); v.Live {
		t.Fatalf("bit 80: outside the read range, got %+v", v)
	}
	if v := sp.ClassifyBit(100, 0, 1<<40); v.Live {
		t.Fatalf("bit 100: never touched, got %+v", v)
	}
}

func TestConsumptionIDGroupsFaults(t *testing.T) {
	sp := NewSpace(1, 32)
	sp.Read(50, 0, 0, 32)
	a := sp.ClassifyBit(3, 0, 1<<40)
	b := sp.ClassifyBit(17, 10, 1<<40)
	if !a.Live || !b.Live {
		t.Fatalf("both bits are consumed by the read: %+v %+v", a, b)
	}
	if a.ID != b.ID {
		t.Fatalf("same consuming event must share an ID: %d vs %d", a.ID, b.ID)
	}
}

func TestCoalesceAndEventCount(t *testing.T) {
	sp := NewSpace(1, 32)
	sp.Read(7, 0, 0, 32)
	sp.Read(7, 0, 0, 32) // identical: coalesced
	sp.Read(8, 0, 0, 32)
	if sp.Events() != 2 {
		t.Fatalf("events = %d, want 2", sp.Events())
	}
}

func TestRecorderRegistry(t *testing.T) {
	r := NewRecorder()
	a := r.Space(1, 16, 32)
	if r.Space(1, 16, 32) != a {
		t.Fatal("re-registering the same geometry must return the same space")
	}
	if r.Get(2) != nil {
		t.Fatal("unregistered target must be nil")
	}
	a.Read(1, 0, 0, 32)
	if r.Events() != 1 {
		t.Fatalf("events = %d", r.Events())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("geometry mismatch must panic")
		}
	}()
	r.Space(1, 8, 32)
}

// TestRecordWritesEachEventOnce bounds recording's allocation by the
// events themselves: N events into a fresh Space allocate at most 8·N
// bytes plus one slab (the partly carved last slab, whose slack also
// covers the per-unit headers and chunk lists), first query included.
// A growth copy of the events, or a scatter copy into a query index,
// would cost about 8·N more and fail here.
func TestRecordWritesEachEventOnce(t *testing.T) {
	const units, n = 4, 30720
	res := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			sp := NewSpace(units, 32)
			for i := range n {
				sp.Read(uint64(i), i%units, 0, 32)
			}
			sp.ClassifyBit(0, 0, n)
		}
	})
	if got, limit := res.AllocedBytesPerOp(), int64(8*n+8*slabLen); got > limit {
		t.Fatalf("recording %d events allocated %d bytes, want at most %d (8 per event plus one slab)", n, got, limit)
	}
}
