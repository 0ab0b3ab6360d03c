package lifetime

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

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

func TestRecordRejectsEarlierEvent(t *testing.T) {
	sp := NewSpace(2, 32)
	sp.Read(9, 0, 0, 32)
	sp.Read(5, 1, 0, 32) // another unit's clock is its own
	defer func() {
		if recover() == nil {
			t.Fatal("an event earlier than its unit's last must panic")
		}
	}()
	sp.Write(8, 0, 0, 32)
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

// TestIdleUnitEscapesDeltaField records a 256-bit unit, whose events
// keep their cycle as a 13-bit delta from their chunk's base, across
// idle stretches longer than that field: inside one chunk, across a
// chunk boundary and out to cycles past 2^43. Every verdict, every live
// ID and the ForEachEvent stream must match the reference scan exactly.
func TestIdleUnitEscapesDeltaField(t *testing.T) {
	const width = 256
	sp := NewSpace(2, width)
	var ref []refEvent
	cycle := uint64(100)
	for i := range 3 * chunkLen {
		switch {
		case i == chunkLen/2, i == chunkLen+chunkLen/4:
			cycle += 3 << 13 // idle inside a chunk
		case i == 2*chunkLen:
			cycle += 1 << 20 // idle across a chunk boundary
		case i == 2*chunkLen+10:
			cycle = 1 << 50 // wider than any fixed 43-bit cycle field
		default:
			cycle += uint64(i % 3)
		}
		lo := i * 8 % width
		e := refEvent{cycle: cycle, unit: i % 2, lo: lo, hi: lo + 8 + i%5, read: i%4 != 0}
		if e.read {
			sp.Read(e.cycle, e.unit, e.lo, e.hi)
		} else {
			sp.Write(e.cycle, e.unit, e.lo, e.hi)
		}
		ref = append(ref, e)
	}
	if len(sp.logs[0].far) == 0 || len(sp.logs[1].far) == 0 {
		t.Fatal("no event escaped its delta field")
	}
	var instants []uint64
	for _, e := range ref {
		instants = append(instants, e.cycle-1, e.cycle)
	}
	live := 0
	for bit := 0; bit < 2*width; bit++ {
		for _, after := range append(instants, 0) {
			for _, h := range []uint64{^uint64(0), 1 << 20, ref[2*chunkLen+5].cycle} {
				got := sp.ClassifyBit(bit, after, h)
				want := refClassify(ref, width, bit, after, h)
				if got.Live != want.Live || got.Cycle != want.Cycle {
					t.Fatalf("bit %d after %d horizon %d: got %+v, reference %+v", bit, after, h, got, want)
				}
				if !got.Live {
					continue
				}
				live++
				e, ok := eventAt(sp, int(got.ID>>32), int(uint32(got.ID)))
				if !ok || int(got.ID>>32) != bit/width || !e.Read || e.Cycle != got.Cycle {
					t.Fatalf("bit %d after %d: ID %#x names no read @%d", bit, after, got.ID, got.Cycle)
				}
			}
		}
	}
	if live == 0 {
		t.Fatal("no live verdict checked")
	}
	for u := range 2 {
		var got []refEvent
		sp.ForEachEvent(u, func(e Event) {
			got = append(got, refEvent{cycle: e.Cycle, unit: u, lo: e.Lo, hi: e.Hi, read: e.Read})
		})
		var want []refEvent
		for _, e := range ref {
			if e.unit == u {
				want = append(want, e)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("unit %d: ForEachEvent\n%v\nwant\n%v", u, got, want)
		}
	}
}

// TestDeltaFieldWidths pins each width's delta field: a delta one short
// of the all-ones escape is stored in the event, and the escape itself
// and every longer delta go to the side table with their exact cycles.
func TestDeltaFieldWidths(t *testing.T) {
	for width, field := range map[int]int{1: 29, 32: 19, 256: 13, 300: 13} {
		sp := NewSpace(1, width)
		esc := uint64(1)<<field - 1
		cycles := []uint64{10, 10 + esc - 1, 10 + esc, 10 + esc + 5}
		for _, c := range cycles {
			sp.Read(c, 0, 0, 1)
		}
		if got := len(sp.logs[0].far[0]); got != 2 {
			t.Errorf("width %d: %d events escaped, want 2", width, got)
		}
		for i, c := range cycles {
			if v := sp.ClassifyBit(0, c-1, c); !v.Live || v.Cycle != c || v.ID != uint64(i) {
				t.Errorf("width %d: read %d at %d classified %+v", width, i, c, v)
			}
		}
	}
}

// TestRecordWritesEachEventOnce bounds recording's allocation by the
// events themselves: N events into a fresh Space allocate at most 4·N
// bytes plus one slab (the partly carved last slab, whose slack also
// covers the per-unit headers and chunk lists), first query included.
// A growth copy of the events, a scatter copy into a query index, or
// an event wider than its 4 bytes would cost about 4·N more and fail
// here.
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
	if got, limit := res.AllocedBytesPerOp(), int64(4*n+4*slabLen); got > limit {
		t.Fatalf("recording %d events allocated %d bytes, want at most %d (4 per event plus one slab)", n, got, limit)
	}
}

// BenchmarkClassifyBit times the pruning query over traces shaped like
// a golden run's: one event a cycle for 200 000 cycles over 256 units,
// word and byte accesses that favour a hot eighth of the units. On
// 32-bit words every delta fits its 19-bit field. On 256-bit lines the
// field is 13 bits, so a cold line's chunk outgrows it and 18% of the
// events escape, twice the share of the busiest microarch L1D trace.
func BenchmarkClassifyBit(b *testing.B) {
	for _, width := range []int{32, 256} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			const units, cycles = 256, 200_000
			sp := NewSpace(units, width)
			rng := rand.New(rand.NewPCG(1, 2))
			for c := uint64(1); c < cycles; c++ {
				u := rng.IntN(units)
				if rng.IntN(4) != 0 {
					u %= units / 8
				}
				lo := rng.IntN(width/8) * 8
				hi := lo + 8
				if rng.IntN(2) == 0 {
					lo &^= 31
					hi = lo + 32
				}
				if rng.IntN(3) == 0 {
					sp.Write(c, u, lo, hi)
				} else {
					sp.Read(c, u, lo, hi)
				}
			}
			type query struct {
				bit   int
				after uint64
			}
			qs := make([]query, 1<<12)
			for i := range qs {
				qs[i] = query{rng.IntN(units * width), rng.Uint64N(cycles)}
			}
			b.ResetTimer()
			for i := range b.N {
				q := qs[i%len(qs)]
				verdictSink = sp.ClassifyBit(q.bit, q.after, cycles)
			}
		})
	}
}

var verdictSink Verdict
