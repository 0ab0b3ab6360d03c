package rtl

import (
	"strings"
	"testing"
)

func TestVCDDump(t *testing.T) {
	sim := NewSimulator()
	cnt := sim.Reg("cnt", 4, 0)
	odd := sim.Signal("odd", 1)
	sim.Process("inc", func() {
		cnt.SetD(cnt.Q() + 1)
		odd.Drive(cnt.Q() & 1)
	})
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	d, err := NewVCDDumper(&sb, sim, cnt.Out(), odd)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sim.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := d.Sample(); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 4 ! cnt $end",
		`$var wire 1 " odd $end`,
		"$enddefinitions $end",
		"#1", "#5",
		"b101 !", // cnt = 5 at cycle 5
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD lacks %q:\n%s", want, out)
		}
	}
	// Unchanged values must not be re-emitted: odd toggles every cycle,
	// so each timestamp section exists, but cnt=3 appears exactly once.
	if strings.Count(out, "b11 !") != 1 {
		t.Errorf("cnt=3 emitted %d times", strings.Count(out, "b11 !"))
	}
}

func TestVCDDefaultsToAllSignals(t *testing.T) {
	sim := NewSimulator()
	sim.Reg("a", 8, 0)
	sim.Signal("b", 2)
	var sb strings.Builder
	if _, err := NewVCDDumper(&sb, sim); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), " a $end") || !strings.Contains(sb.String(), " b $end") {
		t.Errorf("default signal set incomplete:\n%s", sb.String())
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}
