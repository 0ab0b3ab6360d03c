package lifetime

import "testing"

// refEvent is the uncoalesced reference copy of one recorded event.
type refEvent struct {
	cycle  uint64
	unit   int
	lo, hi int
	read   bool
}

// refClassify is the obviously-correct linear scan ClassifyBit promises
// to reproduce: first event covering the bit strictly after the
// injection instant decides, clipped to the horizon.
func refClassify(evs []refEvent, width, bit int, after, horizon uint64) Verdict {
	unit, off := bit/width, bit%width
	for _, e := range evs {
		if e.unit != unit || e.cycle <= after {
			continue
		}
		if e.cycle > horizon {
			break
		}
		if off < e.lo || off >= e.hi {
			continue
		}
		if !e.read {
			return Verdict{}
		}
		return Verdict{Live: true, Cycle: e.cycle}
	}
	return Verdict{}
}

// FuzzLifetimeCoalesce drives random execution-ordered event streams —
// with every event deliberately recorded twice, so the repeat-coalescing
// path is always exercised — through a Space and differentially checks
// every bit's ClassifyBit verdict at several injection instants against
// the naive linear scan over the uncoalesced stream, and that a live
// verdict's ID names its consuming event as (unit, index within unit).
// It also replays every unit's chunked log through ForEachEvent and
// asserts it kept execution order and every event's exact cycle. The
// first byte picks the mode: an even byte records 16-bit units one to
// seven cycles apart; an odd one records 300-bit units, whose cycle
// deltas have 13 bits, and a cycle byte of 0x80 or more then idles
// the trace for 2^14 cycles or longer, so events escape their delta
// field and their cycles come from the side table. Coalescing, the
// chunking, the delta encoding and the two-level binary search are
// pure plumbing; this pins that none of them can change a verdict.
func FuzzLifetimeCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 4, 2, 1, 3, 0x41, 0, 2, 0, 9})
	f.Add([]byte{0, 5, 3, 15, 0xff, 0, 3, 15, 0xff, 9, 0, 0, 0x40})
	// One unit crossing several chunk boundaries: 300 distinct events
	// on unit 0, reads and writes of shifting ranges, some sharing a
	// cycle.
	long := []byte{0}
	for i := 0; i < 300; i++ {
		long = append(long, byte(i%3), 0, byte(i%16), byte(i%7)|byte(i&1)<<6)
	}
	f.Add(long)
	// 300 events in gap mode, mostly on unit 0, idle for 2^14 cycles
	// or longer every tenth event: whole chunk tails escape.
	gaps := []byte{1}
	for i := 0; i < 300; i++ {
		c := byte(i % 3)
		if i%10 == 9 {
			c = 0x80 | byte(i)
		}
		gaps = append(gaps, c, byte(i%5/4), byte(i*37), byte(i%7)|byte(i&1)<<6)
	}
	f.Add(gaps)
	f.Fuzz(func(t *testing.T, data []byte) {
		const units = 4
		width, gapMode := 16, false
		if len(data) > 0 {
			gapMode = data[0]&1 != 0
			if gapMode {
				width = 300
			}
			data = data[1:]
		}
		sp := NewSpace(units, width)
		var ref []refEvent
		cycle := uint64(1)
		for i := 0; i+4 <= len(data) && len(ref) < 512; i += 4 {
			cycle += uint64(data[i] % 7) // non-decreasing: execution order
			if gapMode && data[i] >= 0x80 {
				cycle += 1<<14 + uint64(data[i])<<6
			}
			unit := int(data[i+1]) % units
			lo := int(data[i+2]) % width
			hi := lo + 1 + int(data[i+3]&0x3f)%(width-lo)
			read := data[i+3]&0x40 != 0
			for rep := 0; rep < 2; rep++ { // exact repeats must coalesce
				if read {
					sp.Read(cycle, unit, lo, hi)
				} else {
					sp.Write(cycle, unit, lo, hi)
				}
			}
			ref = append(ref, refEvent{cycle: cycle, unit: unit, lo: lo, hi: hi, read: read})
		}
		if sp.Events() > len(ref) {
			t.Fatalf("recorded %d events from %d distinct records: repeats did not coalesce",
				sp.Events(), len(ref))
		}
		horizon := cycle + 2
		afters := []uint64{0, cycle / 3, cycle / 2, 2 * cycle / 3, cycle}
		horizons := []uint64{horizon, cycle / 2}
		if len(ref) > 0 {
			// An instant on an event, and one just before it, reach the
			// boundaries of the within-chunk search.
			mid := ref[len(ref)/2].cycle
			afters = append(afters, mid-1, mid)
			horizons = append(horizons, mid)
		}
		for bit := 0; bit < units*width; bit++ {
			for _, after := range afters {
				for _, h := range horizons {
					got := sp.ClassifyBit(bit, after, h)
					want := refClassify(ref, width, bit, after, h)
					if got.Live != want.Live || got.Cycle != want.Cycle {
						t.Fatalf("bit %d after %d horizon %d: ClassifyBit = {live %v @%d}, reference scan = {live %v @%d}",
							bit, after, h, got.Live, got.Cycle, want.Live, want.Cycle)
					}
					if got.Live {
						if e, ok := eventAt(sp, int(got.ID>>32), int(uint32(got.ID))); int(got.ID>>32) != bit/width ||
							!ok || !e.Read || e.Cycle != got.Cycle || bit%width < e.Lo || bit%width >= e.Hi {
							t.Fatalf("bit %d after %d: ID %#x names no covering read @%d", bit, after, got.ID, got.Cycle)
						}
					}
				}
			}
		}
		// The unit logs must hold every coalesced event in execution
		// order, each with its exact cycle and range — the invariant
		// both the binary search above and the ACE-interval sweep
		// (internal/avf) rely on.
		total := 0
		for u := 0; u < units; u++ {
			var want []refEvent
			for _, e := range ref {
				if e.unit == u && (len(want) == 0 || e != want[len(want)-1]) {
					want = append(want, e)
				}
			}
			n := 0
			sp.ForEachEvent(u, func(e Event) {
				if n >= len(want) {
					t.Fatalf("unit %d: more events than recorded", u)
				}
				w := want[n]
				if e != (Event{Cycle: w.cycle, Lo: w.lo, Hi: w.hi, Read: w.read}) {
					t.Fatalf("unit %d event %d: got %+v, recorded %+v", u, n, e, w)
				}
				n++
			})
			total += n
		}
		if total != sp.Events() {
			t.Fatalf("unit logs hold %d events, Events counts %d", total, sp.Events())
		}
	})
}

// eventAt returns the i-th event of unit in execution order.
func eventAt(sp *Space, unit, i int) (Event, bool) {
	var got Event
	n := 0
	sp.ForEachEvent(unit, func(e Event) {
		if n == i {
			got = e
		}
		n++
	})
	return got, i < n
}
