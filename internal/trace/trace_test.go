package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pinoutOf(txns ...Transaction) *Pinout {
	p := &Pinout{}
	p.Txns = txns
	return p
}

func tx(cycle uint64, addr uint32, d uint64) Transaction {
	return Transaction{Cycle: cycle, Addr: addr, Kind: KindWriteback, Digest: d}
}

func TestDigestBytes(t *testing.T) {
	a := DigestBytes([]byte("hello"))
	b := DigestBytes([]byte("hellp"))
	if a == b {
		t.Error("digest collision on near strings")
	}
	if DigestBytes(nil) != DigestBytes([]byte{}) {
		t.Error("nil and empty digests differ")
	}
	f := func(x []byte) bool { return DigestBytes(x) == DigestBytes(append([]byte(nil), x...)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecord(t *testing.T) {
	p := &Pinout{}
	p.Record(1, 0x100, KindWriteback, []byte{1})
	if p.Len() != 1 {
		t.Errorf("write-back not recorded: %d", p.Len())
	}
	var nilPin *Pinout
	nilPin.Record(1, 0, KindWriteback, nil) // must not panic
	if nilPin.Len() != 0 {
		t.Error("nil pinout length")
	}
}

func TestCompareIdentical(t *testing.T) {
	g := pinoutOf(tx(10, 0x100, 7), tx(20, 0x200, 8))
	f := pinoutOf(tx(10, 0x100, 7), tx(20, 0x200, 8))
	if d := Compare(g, f, 100, CompareContent); !d.Match {
		t.Errorf("identical traces mismatch: %+v", d)
	}
	if d := Compare(g, f, 100, CompareStrictCycle); !d.Match {
		t.Errorf("identical traces mismatch strictly: %+v", d)
	}
}

func TestCompareContentIgnoresTiming(t *testing.T) {
	g := pinoutOf(tx(10, 0x100, 7))
	f := pinoutOf(tx(15, 0x100, 7))
	if d := Compare(g, f, 100, CompareContent); !d.Match {
		t.Errorf("content mode flagged timing drift: %+v", d)
	}
	if d := Compare(g, f, 100, CompareStrictCycle); d.Match {
		t.Error("strict mode missed timing drift")
	}
}

func TestCompareDetectsValueChange(t *testing.T) {
	g := pinoutOf(tx(10, 0x100, 7))
	f := pinoutOf(tx(10, 0x100, 9))
	d := Compare(g, f, 100, CompareContent)
	if d.Match || d.Index != 0 {
		t.Errorf("value change missed: %+v", d)
	}
}

func TestCompareDetectsMissingAndExtra(t *testing.T) {
	g := pinoutOf(tx(10, 0x100, 7), tx(20, 0x200, 8))
	f := pinoutOf(tx(10, 0x100, 7))
	if d := Compare(g, f, 100, CompareContent); d.Match {
		t.Error("missing transaction not detected")
	}
	if d := Compare(f, g, 100, CompareContent); d.Match {
		t.Error("extra transaction not detected")
	}
}

func TestCompareWindowTruncatesGolden(t *testing.T) {
	// Golden transaction beyond the window must be ignored.
	g := pinoutOf(tx(10, 0x100, 7), tx(5000, 0x200, 8))
	f := pinoutOf(tx(10, 0x100, 7))
	if d := Compare(g, f, 100, CompareContent); !d.Match {
		t.Errorf("window did not truncate golden: %+v", d)
	}
}

func TestCompareWindowFromCycle(t *testing.T) {
	g := pinoutOf(tx(10, 0x100, 1), tx(20, 0x200, 2), tx(30, 0x300, 3))
	// Faulty capture starts after a snapshot at cycle 20.
	f := pinoutOf(tx(30, 0x300, 3))
	if d := CompareWindow(g, f, 20, 100, CompareContent); !d.Match {
		t.Errorf("fromCycle filter failed: %+v", d)
	}
	if d := CompareWindow(g, f, 10, 100, CompareContent); d.Match {
		t.Error("missing mid-window transaction not detected")
	}
}

func TestKindString(t *testing.T) {
	if KindWriteback.String() != "writeback" || Kind(9).String() != "unknown" {
		t.Error("Kind.String")
	}
}

// linearWindow is the reference window: a walk back from the end for the
// upper bound and a walk forward from the start for the lower one.
func linearWindow(p *Pinout, fromCycle, uptoCycle uint64) []Transaction {
	if p == nil {
		return nil
	}
	hi := len(p.Txns)
	for hi > 0 && p.Txns[hi-1].Cycle > uptoCycle {
		hi--
	}
	lo := 0
	for lo < hi && p.Txns[lo].Cycle <= fromCycle {
		lo++
	}
	return p.Txns[lo:hi]
}

// randomCapture draws a capture of up to maxLen transactions in
// nondecreasing cycle order, with repeated cycles, from small address
// and digest alphabets so that equal transactions are common.
func randomCapture(r *rand.Rand, maxLen int) *Pinout {
	p := &Pinout{}
	c := uint64(r.Intn(4))
	for n := r.Intn(maxLen + 1); n > 0; n-- {
		c += uint64(r.Intn(3)) // 0: a repeated cycle
		p.Txns = append(p.Txns, tx(c, uint32(r.Intn(3)), uint64(r.Intn(3))))
	}
	return p
}

func TestCompareWindowMatchesLinear(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	captures := []*Pinout{nil, {}, pinoutOf(tx(5, 0, 0), tx(5, 0, 0), tx(5, 1, 1))}
	for range 200 {
		captures = append(captures, randomCapture(r, 12))
	}
	for i, p := range captures {
		for from := uint64(0); from <= 30; from++ {
			for upto := uint64(0); upto <= 30; upto++ { // from >= upto included
				got, want := p.Window(from, upto), linearWindow(p, from, upto)
				if len(got) != len(want) || (len(got) > 0 && &got[0] != &want[0]) {
					t.Fatalf("capture %d window (%d, %d]: %v, linear %v", i, from, upto, got, want)
				}
			}
		}
	}
}

// faultyOf derives a faulty capture from golden: each transaction is kept,
// delayed, corrupted or dropped, and extra ones are inserted, with cycles
// kept nondecreasing.
func faultyOf(r *rand.Rand, golden *Pinout) *Pinout {
	f := &Pinout{}
	var delay, last uint64
	for _, g := range golden.Txns {
		switch r.Intn(8) {
		case 0:
			delay += uint64(1 + r.Intn(3))
		case 1:
			g.Digest ^= 1 << 8
		case 2:
			continue
		case 3:
			f.Txns = append(f.Txns, tx(max(last, g.Cycle+delay), 9, 9))
		}
		g.Cycle = max(last, g.Cycle+delay)
		last = g.Cycle
		f.Txns = append(f.Txns, g)
	}
	return f
}

// TestFinalDiffStaysFinal extends faulty captures one cycle at a time, as
// a replay appends to its capture, and checks Diff.Final against every
// later observation point: a final mismatch comes back unchanged at every
// later uptoCycle (so never as a Match), and a count mismatch is never
// final. Delayed transactions make count mismatches that heal, so a Final
// set on them is caught.
func TestFinalDiffStaysFinal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	healed := 0
	for i := range 3000 {
		golden := randomCapture(r, 10)
		full := faultyOf(r, golden)
		from := uint64(r.Intn(6))
		mode := CompareMode(1 + r.Intn(2))
		faulty := &Pinout{}
		next := 0
		var final *Diff
		countSeen := false
		for upto := uint64(0); upto <= 40; upto++ {
			for next < len(full.Txns) && full.Txns[next].Cycle <= upto {
				faulty.Txns = append(faulty.Txns, full.Txns[next])
				next++
			}
			d := CompareWindow(golden, faulty, from, upto, mode)
			count := !d.Match && d.Why == "transaction count mismatch"
			switch {
			case final != nil && d != *final:
				t.Fatalf("case %d: final %+v at an earlier cycle, %+v at %d", i, *final, d, upto)
			case count && d.Final:
				t.Fatalf("case %d: count mismatch marked final: %+v", i, d)
			case count:
				countSeen = true
			case !d.Match && !d.Final:
				t.Fatalf("case %d: %+v at %d is not final", i, d, upto)
			case d.Final:
				final = &d
			case countSeen:
				healed++
				countSeen = false
			}
		}
	}
	if healed == 0 {
		t.Fatal("no count mismatch healed: the generator does not exercise non-final mismatches")
	}
}
