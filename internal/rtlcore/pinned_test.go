package rtlcore

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/statehash"
	"repro/internal/trace"
)

// The pins below hold the RTL model bit-identical across changes to how
// the host evaluates it (datapath representation, decode sharing, the
// kernel's clock edge): every value was recorded at commit d1edb0b, with
// the cell-by-cell datapath and the scan-everything Tick. A change that
// moves one changed the design, not just its cost.

func benchProgram(t testing.TB, name string) *asm.Program {
	t.Helper()
	w, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func campaignCore(t testing.TB, p *asm.Program) *Core {
	t.Helper()
	c, err := New(p, CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runDigest steps c to its stop (a pinout capture must be attached) and
// folds StateHash at every cycle divisible by every — 17, so the sample
// points drift through every pipeline phase and stall length — then the
// final state, the testbench outcome, the program output and the full
// pinout into one digest. inject, when non-nil, runs once between steps
// at cycle at.
func runDigest(t *testing.T, c *Core, every, at uint64, inject func()) uint64 {
	t.Helper()
	h := statehash.New()
	for {
		if inject != nil && c.Cycles() == at {
			inject()
		}
		if !c.Step() {
			break
		}
		if c.Cycles()%every == 0 {
			h.U64(c.StateHash())
		}
		if c.Cycles() > 10_000_000 {
			t.Fatal("runaway program")
		}
	}
	h.U64(c.StateHash())
	h.U64(c.Cycles())
	h.U64(c.Insts)
	h.U64(uint64(c.Stop))
	h.U32(c.ExitCode)
	h.Bytes([]byte(c.FaultDesc))
	h.Bytes(c.Output)
	for _, x := range c.Pinout.Txns {
		h.U64(x.Cycle)
		h.U32(x.Addr)
		h.U64(uint64(x.Kind))
		h.U64(x.Digest)
	}
	return h.Sum()
}

type pinnedRun struct {
	cycles uint64
	digest uint64
}

var pinnedGolden = map[string]pinnedRun{
	"fft":          {24492, 0x7508aa5d3fd48b89},
	"qsort":        {54993, 0xbbe0bbf2a67ea6c5},
	"caes":         {80258, 0x9f8a1cc7f0d97c31},
	"sha":          {28312, 0xd89c3792bc6a6f54},
	"stringsearch": {108796, 0x85a3bcc0dc6e5d67},
	"susan_c":      {524775, 0xc4f65c7e4bf2ab0b},
	"susan_e":      {250103, 0x11fe06d855f0c5f},
	"susan_s":      {236421, 0x6a5c83d931d07b46},
}

// pinnedFaulted is one faulted qsort run per injectable surface, each
// chosen so the design consumes the fault: a register file flip and an
// L1D data flip that both change the program's output, and a flip of an
// opcode bit of the MEM/WB instruction latch during a miss stall (the
// only cycles a latch holds instead of reloading), which write-back
// reports as "latched garbage".
var pinnedFaulted = []struct {
	name   string
	at     uint64
	inject func(c *Core) error
	desc   string // FaultDesc at the stop
	want   pinnedRun
}{
	{"rf", 9000, func(c *Core) error { return c.FlipRFBit(8) }, "", pinnedRun{46939, 0xdb7178037741a059}},
	{"l1d", 9000, func(c *Core) error { return c.FlipL1DBit(3) }, "", pinnedRun{54993, 0xb1deb15cb81ea519}},
	{"latch", 9055, func(c *Core) error { return c.FlipLatchBit(398) }, "latched garbage at WB (pc 0x100)", pinnedRun{9073, 0x5b58871db0ae760e}},
}

func TestPinnedRTLStateHashSequence(t *testing.T) {
	check := func(t *testing.T, c *Core, got uint64, want pinnedRun) {
		t.Helper()
		if c.Cycles() != want.cycles || got != want.digest {
			t.Errorf("got {%d, %#x} (stop %v %q), pinned {%d, %#x}", c.Cycles(), got, c.Stop, c.FaultDesc, want.cycles, want.digest)
		}
	}
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			c := campaignCore(t, benchProgram(t, w.Name))
			c.Pinout = &trace.Pinout{}
			check(t, c, runDigest(t, c, 17, 0, nil), pinnedGolden[w.Name])
		})
	}
	for _, f := range pinnedFaulted {
		t.Run("qsort-"+f.name, func(t *testing.T) {
			c := campaignCore(t, benchProgram(t, "qsort"))
			c.Pinout = &trace.Pinout{}
			got := runDigest(t, c, 17, f.at, func() {
				if err := f.inject(c); err != nil {
					t.Fatal(err)
				}
			})
			if c.FaultDesc != f.desc {
				t.Errorf("FaultDesc %q, want %q", c.FaultDesc, f.desc)
			}
			check(t, c, got, f.want)
		})
	}
}

// TestRTLStepDoesNotAllocate is the zero-allocation contract of the
// stepping path, mirroring microarch.TestStepDoesNotAllocate: once the
// program's pages are touched, Step never reaches the heap — not for the
// interlock's source-register list, a dirty eviction's line or a fill —
// with the pinout capture attached (its backing array pre-grown, as the
// campaign engine's reused captures are). AllocsPerRun(1, …) runs the
// window twice, so each bench is measured over its second 10k cycles;
// neither window holds a syscall (output is the one thing Step
// legitimately allocates for).
func TestRTLStepDoesNotAllocate(t *testing.T) {
	for _, name := range []string{
		"qsort",   // pinout-heavy: write-backs every few hundred cycles
		"susan_c", // quiet
	} {
		c := campaignCore(t, benchProgram(t, name))
		c.Pinout = &trace.Pinout{Txns: make([]trace.Transaction, 0, 4096)}
		n := testing.AllocsPerRun(1, func() {
			for i := 0; i < 10_000; i++ {
				if !c.Step() {
					t.Fatalf("program ended at cycle %d, inside the measured window", c.Cycles())
				}
			}
		})
		if n != 0 {
			t.Errorf("%s: %v allocations in 10k steady-state cycles", name, n)
		}
		t.Logf("%s: %d cycles, %d pinout transactions", name, c.Cycles(), c.Pinout.Len())
	}
}
