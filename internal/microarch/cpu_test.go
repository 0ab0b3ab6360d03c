package microarch

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/fault"
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

func newCPU(t *testing.T, p *asm.Program) *CPU {
	t.Helper()
	c, err := New(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimpleProgram(t *testing.T) {
	c := newCPU(t, assemble(t, `
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
	if c.Cycles == 0 || c.Insts == 0 {
		t.Error("no progress counted")
	}
}

// TestCrossValidationAgainstReference runs every benchmark on the
// microarchitectural model and the architectural reference interpreter;
// outputs, stop reasons and committed instruction counts must agree
// exactly.
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

			c := newCPU(t, p)
			c.Pinout = &trace.Pinout{}
			stop := c.Run(100_000_000)

			if stop != ref.Stop {
				t.Fatalf("stop = %v (%s), ref %v (%s)", stop, c.FaultDesc, ref.Stop, ref.FaultDesc)
			}
			if string(c.Output) != string(ref.Output) {
				t.Errorf("output mismatch:\n got %q\nwant %q", c.Output, ref.Output)
			}
			if c.Insts != ref.InstCount {
				t.Errorf("committed %d instructions, ref %d", c.Insts, ref.InstCount)
			}
			ipc := float64(c.Insts) / float64(c.Cycles)
			t.Logf("%s: %d insts, %d cycles, IPC %.2f, L1D misses %d, pinout %d txns",
				w.Name, c.Insts, c.Cycles, ipc, c.L1D.Misses, c.Pinout.Len())
			if ipc < 0.1 || ipc > float64(c.cfg.CommitWidth) {
				t.Errorf("implausible IPC %.2f", ipc)
			}
		})
	}
}

// TestCampaignConfigCrossValidation repeats cross-validation with the
// scaled-cache campaign configuration (more misses and evictions).
func TestCampaignConfigCrossValidation(t *testing.T) {
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
				t.Errorf("output mismatch")
			}
			t.Logf("%s: %d evictions, %d pinout txns", w.Name, c.L1D.Evictions, pin.Len())
			if pin.Len() == 0 {
				t.Errorf("campaign config produced no pinout traffic; L1D scaling is broken")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, uint64) {
		c := newCPU(t, p)
		c.Run(100_000_000)
		return c.Cycles, c.Insts
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", c1, i1, c2, i2)
	}
}

func TestCloneContinuesIdentically(t *testing.T) {
	w, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := newCPU(t, p)
	for i := 0; i < 5000; i++ {
		c.Step()
	}
	snap := c.Clone()
	c.Run(100_000_000)
	snap.Run(100_000_000)
	if c.Stop != snap.Stop || c.Cycles != snap.Cycles || c.Insts != snap.Insts {
		t.Errorf("clone diverged: (%v,%d,%d) vs (%v,%d,%d)",
			c.Stop, c.Cycles, c.Insts, snap.Stop, snap.Cycles, snap.Insts)
	}
	if string(c.Output) != string(snap.Output) {
		t.Error("clone output diverged")
	}
}

func TestCloneIsolated(t *testing.T) {
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := newCPU(t, p)
	for i := 0; i < 2000; i++ {
		c.Step()
	}
	snap := c.Clone()
	// Corrupt the clone heavily; the original must still complete.
	for i := 0; i < snap.Bits(fault.TargetRF); i += 7 {
		snap.Flip(fault.TargetRF, i)
	}
	snap.Run(1_000_000)
	if got := c.Run(100_000_000); got != refsim.StopExit {
		t.Fatalf("original affected by clone: %v (%s)", got, c.FaultDesc)
	}
	if string(c.Output) != string(w.Expected()) {
		t.Error("original output corrupted by clone")
	}
}

func TestRFInjectionChangesOutcome(t *testing.T) {
	// A fault in the stack pointer's physical register right at start
	// must corrupt execution in some observable way.
	w, err := bench.ByName("qsort")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := newCPU(t, p)
	if err := c.Flip(fault.TargetRF, int(isa.SP)*32+19); err != nil {
		t.Fatal(err)
	}
	c.Run(100_000_000)
	if c.Stop == refsim.StopExit && string(c.Output) == string(w.Expected()) {
		t.Error("large SP corruption was silently masked")
	}
}

func TestInjectionBounds(t *testing.T) {
	c := newCPU(t, assemble(t, "hlt\n"))
	if err := c.Flip(fault.TargetRF, -1); err == nil {
		t.Error("negative RF bit accepted")
	}
	if err := c.Flip(fault.TargetRF, c.Bits(fault.TargetRF)); err == nil {
		t.Error("RF bit overflow accepted")
	}
	if err := c.Flip(fault.TargetL1D, c.Bits(fault.TargetL1D)); err == nil {
		t.Error("L1D bit overflow accepted")
	}
}

func TestFaultOnWildAccess(t *testing.T) {
	c := newCPU(t, assemble(t, `
		li r1, 0x700000
		ldr r2, [r1]
		hlt
	`))
	if got := c.Run(100_000); got != refsim.StopFault {
		t.Errorf("stop = %v, want fault", got)
	}
}

func TestUnalignedFault(t *testing.T) {
	c := newCPU(t, assemble(t, `
		movi r1, #2
		ldr r2, [r1]
		hlt
	`))
	if got := c.Run(100_000); got != refsim.StopFault {
		t.Errorf("stop = %v, want fault", got)
	}
}

func TestRunLimit(t *testing.T) {
	c := newCPU(t, assemble(t, "loop: b loop\n"))
	if got := c.Run(1000); got != refsim.StopLimit {
		t.Errorf("stop = %v, want limit", got)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A store immediately followed by a dependent load of the same word.
	c := newCPU(t, assemble(t, `
		li r1, buf
		movi r2, #77
		str r2, [r1]
		ldr r3, [r1]
		add r4, r3, r3
		hlt
	.data
	buf:	.word 0
	`))
	if got := c.Run(100_000); got != refsim.StopHalt {
		t.Fatalf("stop = %v (%s)", got, c.FaultDesc)
	}
	if v := c.ReadArchReg(4); v != 154 {
		t.Errorf("r4 = %d, want 154", v)
	}
}

func TestPartialOverlapStoreLoad(t *testing.T) {
	// Byte store overlapping a word load: load must see the merged data.
	c := newCPU(t, assemble(t, `
		li r1, buf
		li r2, 0x11223344
		str r2, [r1]
		movi r3, #0xAB
		strb r3, [r1, #1]
		ldr r4, [r1]
		hlt
	.data
	buf:	.word 0
	`))
	if got := c.Run(100_000); got != refsim.StopHalt {
		t.Fatalf("stop = %v (%s)", got, c.FaultDesc)
	}
	if v := c.ReadArchReg(4); v != 0x1122AB44 {
		t.Errorf("r4 = %#x, want 0x1122AB44", v)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumPhysRegs = 10
	if _, err := New(assemble(t, "hlt\n"), bad); err == nil {
		t.Error("config with 10 phys regs accepted")
	}
	bad = DefaultConfig()
	bad.FetchWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero fetch width accepted")
	}
	bad = DefaultConfig()
	bad.MemLatency = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero miss latency accepted")
	}
	// The readiness masks are one word: 64 registers and 64 uop slots
	// (ROBSize+1) fit, one more does not.
	for _, tc := range []struct {
		regs, rob int
		ok        bool
	}{{64, 63, true}, {65, 40, false}, {56, 64, false}} {
		cfg := DefaultConfig()
		cfg.NumPhysRegs, cfg.ROBSize = tc.regs, tc.rob
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d registers, %d-entry ROB: Validate() = %v", tc.regs, tc.rob, err)
		}
	}
}
