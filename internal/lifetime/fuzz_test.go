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
// asserts it kept execution order. Coalescing, the chunking and the
// two-level binary search are pure plumbing; this pins that none of
// them can change a verdict.
func FuzzLifetimeCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 4, 2, 1, 3, 0x41, 0, 2, 0, 9})
	f.Add([]byte{5, 3, 15, 0xff, 0, 3, 15, 0xff, 9, 0, 0, 0x40})
	// One unit crossing several chunk boundaries: 300 distinct events
	// on unit 0, reads and writes of shifting ranges, some sharing a
	// cycle.
	var long []byte
	for i := 0; i < 300; i++ {
		long = append(long, byte(i%3), 0, byte(i%16), byte(i%7)|byte(i&1)<<6)
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		const units, width = 4, 16
		sp := NewSpace(units, width)
		var ref []refEvent
		cycle := uint64(1)
		for i := 0; i+4 <= len(data) && len(ref) < 512; i += 4 {
			cycle += uint64(data[i] % 7) // non-decreasing: execution order
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
		for bit := 0; bit < units*width; bit++ {
			for _, after := range []uint64{0, cycle / 3, cycle / 2, 2 * cycle / 3, cycle} {
				for _, h := range []uint64{horizon, cycle / 2} {
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
		// order — the invariant both the binary search above and the
		// ACE-interval sweep (internal/avf) rely on.
		total := 0
		for u := 0; u < units; u++ {
			last := uint64(0)
			sp.ForEachEvent(u, func(e Event) {
				total++
				if e.Cycle < last {
					t.Fatalf("unit %d: event cycles out of order (%d after %d)", u, e.Cycle, last)
				}
				last = e.Cycle
				if e.Lo < 0 || e.Hi > width || e.Lo >= e.Hi {
					t.Fatalf("unit %d: malformed range [%d,%d)", u, e.Lo, e.Hi)
				}
			})
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
