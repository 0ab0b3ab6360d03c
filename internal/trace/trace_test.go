package trace

import (
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
