package lifetime

import (
	"slices"
	"sort"
	"testing"
)

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
// the naive linear scan over the uncoalesced stream. It also replays the
// frozen per-unit index through ForEachEvent and asserts it kept
// execution order. Coalescing, the counting-sort freeze and the binary
// search are pure plumbing; this pins that none of them can change a
// verdict.
func FuzzLifetimeCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 4, 2, 1, 3, 0x41, 0, 2, 0, 9})
	f.Add([]byte{5, 3, 15, 0xff, 0, 3, 15, 0xff, 9, 0, 0, 0x40})
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
			for _, after := range []uint64{0, cycle / 2, cycle} {
				for _, h := range []uint64{horizon, cycle / 2} {
					got := sp.ClassifyBit(bit, after, h)
					want := refClassify(ref, width, bit, after, h)
					if got.Live != want.Live || got.Cycle != want.Cycle {
						t.Fatalf("bit %d after %d horizon %d: ClassifyBit = {live %v @%d}, reference scan = {live %v @%d}",
							bit, after, h, got.Live, got.Cycle, want.Live, want.Cycle)
					}
				}
			}
		}
		// The frozen index must hold every coalesced event in execution
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
			t.Fatalf("per-unit index holds %d events, stream recorded %d", total, sp.Events())
		}
	})
}

// FuzzLaneReuse drives random flip / force / retire / read / write
// sequences, shaped like the lockstep walk's use of a tracker — faults
// and retirements between ticks, reads and writes inside them, a peeled
// lane retired when its tick ends and its slot free for the next flip —
// against the model the sparse tracker abbreviates: one full copy of the
// structure per lane. After every step each riding lane's dirty set must
// be exactly where its copy differs from golden, and after every tick
// the peeled lanes and their rebuild diffs (the difference when the tick
// began) must match. Slot reuse is whatever the sequence makes of it: a
// flip into a lane that was retired, peeled or persistent a moment ago.
func FuzzLaneReuse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 9, 5, 1, 0x11, 4, 1, 0x11, 0, 0, 20, 4, 2, 0x74})        // flip, write, read, reuse after the peel
	f.Add([]byte{1, 3, 3, 3, 0, 0, 2, 3, 0, 0, 3, 17, 13, 0, 0x70, 4, 2, 0x70}) // force, tick, retire, transient in the slot
	f.Add([]byte{0, 1, 7, 0, 1, 8, 5, 0, 0x70, 2, 1, 0, 0, 1, 23, 4, 2, 0x77})  // burst over two units, retire mid-life, reuse
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			units = 3
			width = 8
			nbits = units * width
		)
		lanes := [...]int{0, 1, 2, MaxLanes - 1}
		var golden [nbits]int
		tr := NewLanes(units, width, func(bit int) int { return golden[bit] })

		// The naive model: copies[i] is lane i's whole structure; start and
		// goldenStart are the copies when the current tick began.
		var copies, start [len(lanes)][nbits]int
		var goldenStart [nbits]int
		var peeled [len(lanes)]bool
		inTick := false

		check := func(when string) {
			t.Helper()
			for i, lane := range lanes {
				if peeled[i] {
					continue
				}
				var want []int
				for b := range golden {
					if copies[i][b] != golden[b] {
						want = append(want, b)
					}
				}
				got := make([]int, 0, len(tr.dirty[lane]))
				for _, b := range tr.dirty[lane] {
					got = append(got, int(b))
				}
				sort.Ints(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: lane %d dirty %v, its copy differs from golden at %v", when, lane, got, want)
				}
				if tr.Clean(lane) != (len(want) == 0) {
					t.Fatalf("%s: lane %d Clean = %v with diff %v", when, lane, tr.Clean(lane), want)
				}
				for u := 0; u < units; u++ {
					inUnit := slices.ContainsFunc(want, func(b int) bool { return b/width == u })
					if masked := tr.mask[u]&(1<<uint(lane)) != 0; masked != inUnit {
						t.Fatalf("%s: lane %d unit %d masked = %v, dirty there = %v", when, lane, u, masked, inUnit)
					}
				}
			}
		}
		endTick := func() {
			t.Helper()
			if !inTick {
				return
			}
			inTick = false
			var want uint64
			for i, lane := range lanes {
				if peeled[i] {
					want |= 1 << uint(lane)
				}
			}
			if got := tr.Peeled(); got != want {
				t.Fatalf("peeled %b, the copies say %b", got, want)
			}
			for i, lane := range lanes {
				if !peeled[i] {
					continue
				}
				var diff []int
				for b := range goldenStart {
					if start[i][b] != goldenStart[b] {
						diff = append(diff, b)
					}
				}
				if got := peelDiff(tr, lane); !slices.Equal(got, diff) {
					t.Fatalf("lane %d rebuild diff %v, it entered the tick differing at %v", lane, got, diff)
				}
			}
			// The walk retires what a tick peeled before anything else.
			for i, lane := range lanes {
				if peeled[i] {
					tr.Retire(lane)
					copies[i], peeled[i] = golden, false
				}
			}
			check("after the tick")
		}
		beginTick := func() {
			endTick()
			tr.BeginTick()
			start, goldenStart, inTick = copies, golden, true
		}

		for p := 0; p+3 <= len(data) && p < 3*256; p += 3 {
			op, a, b := data[p], int(data[p+1]), int(data[p+2])
			i := a % len(lanes)
			bit := b % nbits
			unit, lo := a%units, b%width
			hi := lo + 1 + (b>>4)%(width-lo)
			switch op % 6 {
			case 0: // a transient fault (or one bit of a burst) lands
				endTick()
				tr.Flip(lanes[i], bit)
				copies[i][bit] ^= 1
			case 1: // a persistent fault is asserted
				endTick()
				v := int(op>>3) & 1
				tr.Force(lanes[i], bit, v)
				copies[i][bit] = v
			case 2: // a lane reaches its limit
				endTick()
				tr.Retire(lanes[i])
				copies[i] = golden
			case 3:
				beginTick()
			case 4, 5:
				if !inTick {
					beginTick()
				}
				if op%6 == 4 {
					tr.Read(unit, lo, hi)
					for i := range lanes {
						if !peeled[i] && !slices.Equal(copies[i][unit*width+lo:unit*width+hi], golden[unit*width+lo:unit*width+hi]) {
							peeled[i] = true
						}
					}
					break
				}
				// A write's value comes from state every riding lane
				// shares with golden: all of them store the same bits.
				for o := lo; o < hi; o++ {
					golden[unit*width+o] = int(op>>3>>(uint(o)%5)) & 1
					for i := range lanes {
						if !peeled[i] {
							copies[i][unit*width+o] = golden[unit*width+o]
						}
					}
				}
				tr.Write(unit, lo, hi)
			}
			check("mid-sequence")
		}
		endTick()
	})
}
