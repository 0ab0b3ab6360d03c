package rtlcore

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/statehash"
	"repro/internal/trace"
)

// The pins below hold the RTL model bit-identical across changes to how
// the host evaluates it (datapath representation, decode sharing, the
// kernel's clock edge). Cycles go back to commit d1edb0b, with the
// cell-by-cell datapath and the scan-everything Tick; the behaviour
// digests were recorded at cbc0545, the last commit with the byte-serial
// FNV state digest, and the hashes column was re-recorded when the
// digest became word-parallel and packed — by a change that touched no
// stepping code and left the other two columns as they were. A change
// that moves cycles or behaviour changed the design, not just its cost.

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
	c, err := New(p, cache.Campaign())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runDigest steps c to its stop (a pinout capture must be attached) and
// returns two digests. hashes folds StateHash at every cycle divisible
// by every — 17, so the sample points drift through every pipeline phase
// and stall length — and at the stop: it moves whenever the digest
// format does. behaviour is the standard library's FNV-1a over
// everything observable that never passes through internal/statehash:
// the testbench outcome, the program output, the architectural
// registers, the full pinout, the L1D data array and backing memory.
// inject, when non-nil, runs once between steps at cycle at.
func runDigest(t *testing.T, c *Core, every, at uint64, inject func()) (behaviour, hashes uint64) {
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

	f := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			f.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	put(c.Cycles(), c.Insts, uint64(c.Stop), uint64(c.ExitCode))
	f.Write([]byte(c.FaultDesc))
	put(uint64(len(c.Output)))
	f.Write(c.Output)
	for r := 0; r < 16; r++ {
		put(uint64(c.ReadArchReg(r)))
	}
	for _, x := range c.Pinout.Txns {
		put(x.Cycle, uint64(x.Addr), uint64(x.Kind), x.Digest)
	}
	for i := 0; i < c.l1d.data.Words(); i++ {
		put(c.l1d.data.Read(i))
	}
	image, _ := c.backing.LoadBytes(0, c.backing.Size())
	f.Write(image)
	return f.Sum64(), h.Sum()
}

type pinnedRun struct {
	cycles    uint64
	behaviour uint64
	hashes    uint64
}

var pinnedGolden = map[string]pinnedRun{
	"fft":          {24492, 0xde8fc7729c3da68c, 0x9bad2fc245bf25c0},
	"qsort":        {54993, 0x69472919e9e7501a, 0x29655f87ed809e33},
	"caes":         {80258, 0x99aa94ed81dde9fa, 0xeb1677387058c24},
	"sha":          {28312, 0x81c42ae6651f4d60, 0xd57c9b2471be000a},
	"stringsearch": {108796, 0x5f98b12029a59079, 0xce8f3ca1a7510964},
	"susan_c":      {524775, 0x38e2f1f902719905, 0x3cfe58b17695fe82},
	"susan_e":      {250103, 0x551a1802148c0a28, 0xba1307cbd27a1f0a},
	"susan_s":      {236421, 0x5bff7524debb23a5, 0xfb85983b5f653ab},
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
	{"rf", 9000, func(c *Core) error { return c.Flip(fault.TargetRF, 8) }, "", pinnedRun{46939, 0xcb54f8d0448d50a3, 0x83d7f916b3d804b}},
	{"l1d", 9000, func(c *Core) error { return c.Flip(fault.TargetL1D, 3) }, "", pinnedRun{54993, 0x452265d9dfb324ce, 0xaca831c82a9a0370}},
	{"latch", 9055, func(c *Core) error { return c.Flip(fault.TargetLatches, 398) }, "latched garbage at WB (pc 0x100)", pinnedRun{9073, 0x6819773d6525cf0a, 0x133a0502f70db6cb}},
}

func TestPinnedRTLStateHashSequence(t *testing.T) {
	check := func(t *testing.T, c *Core, behaviour, hashes uint64, want pinnedRun) {
		t.Helper()
		if got := (pinnedRun{c.Cycles(), behaviour, hashes}); got != want {
			t.Errorf("got {%d, %#x, %#x} (stop %v %q), pinned {%d, %#x, %#x}",
				got.cycles, got.behaviour, got.hashes, c.Stop, c.FaultDesc, want.cycles, want.behaviour, want.hashes)
		}
	}
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			c := campaignCore(t, benchProgram(t, w.Name))
			c.Pinout = &trace.Pinout{}
			behaviour, hashes := runDigest(t, c, 17, 0, nil)
			check(t, c, behaviour, hashes, pinnedGolden[w.Name])
		})
	}
	for _, f := range pinnedFaulted {
		t.Run("qsort-"+f.name, func(t *testing.T) {
			c := campaignCore(t, benchProgram(t, "qsort"))
			c.Pinout = &trace.Pinout{}
			behaviour, hashes := runDigest(t, c, 17, f.at, func() {
				if err := f.inject(c); err != nil {
					t.Fatal(err)
				}
			})
			if c.FaultDesc != f.desc {
				t.Errorf("FaultDesc %q, want %q", c.FaultDesc, f.desc)
			}
			check(t, c, behaviour, hashes, f.want)
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
// legitimately allocates for). The last case is therefore one whole
// golden run, bounded at one allocation per hundred cycles: qsort makes
// 18 in 54 993, thirty times below the bound, while the cheapest
// regression on record (the interlock's source list) added 0.1 per cycle.
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
	c := campaignCore(t, benchProgram(t, "qsort"))
	c.Pinout = &trace.Pinout{Txns: make([]trace.Transaction, 0, 4096)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run(1 << 40)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; float64(n) > 0.01*float64(c.Cycles()) {
		t.Errorf("whole golden run of qsort: %d allocations in %d cycles, bound 0.01 per cycle", n, c.Cycles())
	}
}

// TestStateHashDoesNotAllocate: the digest is taken every 64 cycles of
// every early-stop replay, next to a Step that allocates nothing.
func TestStateHashDoesNotAllocate(t *testing.T) {
	c := campaignCore(t, benchProgram(t, "qsort"))
	for i := 0; i < 2_000; i++ {
		c.Step()
	}
	if n := testing.AllocsPerRun(100, func() { c.StateHash() }); n != 0 {
		t.Errorf("StateHash allocates %v times", n)
	}
}
