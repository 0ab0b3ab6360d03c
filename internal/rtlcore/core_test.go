package rtlcore

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/isa"
	"repro/internal/refsim"
	"repro/internal/trace"
)

func assemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newCore(t *testing.T, p *asm.Program) *Core {
	t.Helper()
	c, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimpleProgram(t *testing.T) {
	c := newCore(t, assemble(t, `
		movi r0, #0
		movi r1, #1
	loop:	add r0, r0, r1
		addi r1, r1, #1
		cmp r1, #11
		blt loop
		hlt
	`))
	if got := c.Run(100_000); got != refsim.StopHalt {
		t.Fatalf("stop = %v (%s)", got, c.FaultDesc)
	}
	if v := c.ReadArchReg(0); v != 55 {
		t.Errorf("r0 = %d, want 55", v)
	}
}

// TestCrossValidationAgainstReference runs every benchmark on the RTL
// core; output, stop reason and retired instruction count must equal the
// architectural reference exactly.
func TestCrossValidationAgainstReference(t *testing.T) {
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refsim.New(p)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(100_000_000)

			c := newCore(t, p)
			c.Pinout = &trace.Pinout{}
			stop := c.Run(100_000_000)
			if stop != ref.Stop {
				t.Fatalf("stop = %v (%s), ref %v", stop, c.FaultDesc, ref.Stop)
			}
			if string(c.Output) != string(ref.Output) {
				t.Errorf("output mismatch:\n got %q\nwant %q", c.Output, ref.Output)
			}
			if c.Insts != ref.InstCount {
				t.Errorf("retired %d instructions, ref %d", c.Insts, ref.InstCount)
			}
			cpi := float64(c.Cycles()) / float64(c.Insts)
			t.Logf("%s: %d insts, %d cycles, CPI %.2f", w.Name, c.Insts, c.Cycles(), cpi)
			if cpi < 1.0 {
				t.Errorf("scalar in-order core with CPI %.2f < 1", cpi)
			}
		})
	}
}

// TestCampaignConfigProducesPinoutTraffic mirrors the microarch test: the
// scaled caches must generate write-back traffic on every benchmark.
func TestCampaignConfigProducesPinoutTraffic(t *testing.T) {
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program()
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(p, CampaignConfig())
			if err != nil {
				t.Fatal(err)
			}
			pin := &trace.Pinout{}
			c.Pinout = pin
			if got := c.Run(100_000_000); got != refsim.StopExit && got != refsim.StopHalt {
				t.Fatalf("stop = %v (%s)", got, c.FaultDesc)
			}
			if string(c.Output) != string(w.Expected()) {
				t.Error("output mismatch under campaign config")
			}
			_, misses, evictions := c.l1dStats()
			t.Logf("%s: %d L1D misses, %d evictions, %d pinout txns", w.Name, misses, evictions, pin.Len())
			if pin.Len() == 0 {
				t.Error("no pinout traffic under campaign config")
			}
		})
	}
}

func TestSnapshotReplayIdentical(t *testing.T) {
	w, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(t, p)
	for i := 0; i < 5000; i++ {
		c.Step()
	}
	snap := c.Snapshot()
	c.Run(100_000_000)
	finalCycles, finalInsts, finalOut := c.Cycles(), c.Insts, string(c.Output)

	// Restore twice; both replays must match the straight-line run.
	for i := 0; i < 2; i++ {
		c.Restore(snap)
		if c.Cycles() != 5000 {
			t.Fatalf("restore cycles = %d", c.Cycles())
		}
		c.Run(100_000_000)
		if c.Cycles() != finalCycles || c.Insts != finalInsts || string(c.Output) != finalOut {
			t.Fatalf("replay %d diverged: %d/%d vs %d/%d", i, c.Cycles(), c.Insts, finalCycles, finalInsts)
		}
	}
}

func TestSnapshotReplayWithInjectionIsolated(t *testing.T) {
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(t, p)
	for i := 0; i < 3000; i++ {
		c.Step()
	}
	snap := c.Snapshot()

	// Faulty replay with heavy corruption.
	c.Restore(snap)
	for i := 0; i < c.RFBits(); i += 5 {
		c.FlipRFBit(i)
	}
	c.Run(500_000)

	// Clean replay afterwards must still be golden.
	c.Restore(snap)
	if got := c.Run(100_000_000); got != refsim.StopExit {
		t.Fatalf("clean replay stopped with %v (%s)", got, c.FaultDesc)
	}
	if string(c.Output) != string(w.Expected()) {
		t.Error("clean replay output corrupted by earlier faulty replay")
	}
}

func TestLatchInjectionSurface(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	if c.LatchBits() == 0 {
		t.Fatal("no latch bits")
	}
	if err := c.FlipLatchBit(c.LatchBits() - 1); err != nil {
		t.Errorf("last latch bit: %v", err)
	}
	if err := c.FlipLatchBit(c.LatchBits()); err == nil {
		t.Error("latch overflow accepted")
	}
	if err := c.FlipLatchBit(-1); err == nil {
		t.Error("negative latch bit accepted")
	}
}

// TestForceLatchBitDoesNotAllocate pins the latch space's lookup to the
// list New builds: a persistent latch fault is re-forced after every
// cycle, so a per-call enumeration of the design's registers dominated
// run-to-end latch campaigns.
func TestForceLatchBitDoesNotAllocate(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	last := c.LatchBits() - 1
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ForceLatchBit(last, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ForceLatchBit: %v allocs/op, want 0", n)
	}
}

func TestStateInventoryContainsTargets(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	names := map[string]bool{}
	total := 0
	for _, e := range c.StateInventory() {
		names[e.Name] = true
		total += e.Bits
	}
	for _, want := range []string{"regfile", "l1d_data", "l1d_tag", "l1d_dirty", "l1i_data", "pc", "flags", "ifid_ir", "idex_a", "exmem_r", "memwb_v"} {
		if !names[want] {
			t.Errorf("state inventory lacks %q", want)
		}
	}
	if c.RFBits() != 16*32 {
		t.Errorf("RFBits = %d", c.RFBits())
	}
	if total < c.RFBits()+c.L1DBits() {
		t.Errorf("total state bits %d too small", total)
	}
}

func TestFaultOnWildStore(t *testing.T) {
	c := newCore(t, assemble(t, `
		li r1, 0x700000
		str r1, [r1]
		hlt
	`))
	if got := c.Run(100_000); got != refsim.StopFault {
		t.Errorf("stop = %v, want fault", got)
	}
}

func TestFetchFault(t *testing.T) {
	// RET to an out-of-range address.
	c := newCore(t, assemble(t, `
		li lr, 0x7C0000
		ret
	`))
	if got := c.Run(100_000); got != refsim.StopFault {
		t.Errorf("stop = %v, want fault", got)
	}
}

func TestRunLimit(t *testing.T) {
	c := newCore(t, assemble(t, "loop: b loop\n"))
	if got := c.Run(1000); got != refsim.StopLimit {
		t.Errorf("stop = %v, want limit", got)
	}
}

func TestLoadUseInterlock(t *testing.T) {
	c := newCore(t, assemble(t, `
		li r1, v
		ldr r2, [r1]
		add r3, r2, r2
		hlt
	.data
	v:	.word 21
	`))
	if got := c.Run(100_000); got != refsim.StopHalt {
		t.Fatalf("stop = %v (%s)", got, c.FaultDesc)
	}
	if v := c.ReadArchReg(3); v != 42 {
		t.Errorf("r3 = %d, want 42", v)
	}
}

func TestInjectedLatchGarbageHalts(t *testing.T) {
	// Injecting garbage into a pipeline latch must not wedge the
	// simulator: it either masks or stops with a fault.
	w, err := bench.ByName("stringsearch")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(p, CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Step()
	}
	// Flip the top bit of every latch in turn across separate replays.
	snap := c.Snapshot()
	for bit := 0; bit < c.LatchBits(); bit += 97 {
		c.Restore(snap)
		if err := c.FlipLatchBit(bit); err != nil {
			t.Fatal(err)
		}
		c.Run(2_000_000)
		if c.Stop == refsim.StopNone {
			t.Fatalf("bit %d: simulator wedged", bit)
		}
	}
}

func TestRegfileInitialSP(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	if got := c.ReadArchReg(int(isa.SP)); got != isa.StackTop {
		t.Errorf("initial sp = %#x", got)
	}
}
