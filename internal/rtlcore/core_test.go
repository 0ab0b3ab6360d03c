package rtlcore

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/refsim"
	"repro/internal/statehash"
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
	c, err := New(p, cache.TableI())
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
			c, err := New(p, cache.Campaign())
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
	for i := 0; i < c.Bits(fault.TargetRF); i += 5 {
		c.Flip(fault.TargetRF, i)
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

// TestIdleSnapshotSharesArrays: a golden snapshot copies only the
// arrays that changed since the previous one. Two snapshots with no step
// between them differ in nothing, so the second copies none of the
// design's array words and must cost under a quarter of the first's
// bytes: what is left is the registers and the backing memory's page
// table.
func TestIdleSnapshotSharesArrays(t *testing.T) {
	c := campaignCore(t, benchProgram(t, "qsort"))
	for i := 0; i < 5_000; i++ {
		c.Step()
	}
	bytesOf := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Snapshot()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := bytesOf(), bytesOf()
	t.Logf("first snapshot %d B, idle second %d B", first, second)
	if 4*second >= first {
		t.Errorf("an idle snapshot allocated %d B, the one before it %d B: want under a quarter", second, first)
	}
}

// TestConcurrentRestoreFromSharedSnapshot is the replay pool's access
// pattern on the RTL model: several workers restore from one chain of
// golden snapshots, which share the arrays no step changed between
// them, and run on, taking ring captures over storage they recycle.
// Restores must only read the golden arrays — CI runs this package
// under the race detector — every worker must land on the digests a
// lone replay reaches, and every golden snapshot must still restore to
// the digest it was taken at.
func TestConcurrentRestoreFromSharedSnapshot(t *testing.T) {
	p := benchProgram(t, "qsort")
	golden := campaignCore(t, p)
	var snaps []*Snapshot
	var taken []uint64
	for len(snaps) < 4 {
		for i := 0; i < 500; i++ {
			golden.Step()
		}
		snaps = append(snaps, golden.Snapshot())
		taken = append(taken, golden.StateHash())
	}
	replay := func(c *Core, ring *Snapshot) (uint64, *Snapshot) {
		h := statehash.New()
		for _, snap := range snaps {
			c.Restore(snap)
			for i := 0; i < 300; i++ {
				c.Step()
				if i%100 == 0 {
					ring = c.SnapshotInto(ring)
				}
			}
			c.Restore(ring)
			h.U64(c.StateHash())
		}
		return h.Sum(), ring
	}
	want, _ := replay(campaignCore(t, p), nil)

	const workers, rounds = 4, 2
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := campaignCore(t, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ring *Snapshot
			for r := 0; r < rounds; r++ {
				got[w], ring = replay(c, ring)
			}
		}()
	}
	wg.Wait()
	for w, h := range got {
		if h != want {
			t.Errorf("worker %d reached digest %#x, a lone replay %#x", w, h, want)
		}
	}
	for i, snap := range snaps {
		golden.Restore(snap)
		if golden.StateHash() != taken[i] {
			t.Errorf("golden snapshot %d changed under its restores", i)
		}
	}
}

func TestLatchInjectionSurface(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	if c.Bits(fault.TargetLatches) == 0 {
		t.Fatal("no latch bits")
	}
	if err := c.Flip(fault.TargetLatches, c.Bits(fault.TargetLatches)-1); err != nil {
		t.Errorf("last latch bit: %v", err)
	}
	if err := c.Flip(fault.TargetLatches, c.Bits(fault.TargetLatches)); err == nil {
		t.Error("latch overflow accepted")
	}
	if err := c.Flip(fault.TargetLatches, -1); err == nil {
		t.Error("negative latch bit accepted")
	}
}

// TestForceLatchDoesNotAllocate pins the latch space's lookup to the
// list New builds: a persistent latch fault is re-forced after every
// cycle, so a per-call enumeration of the design's registers dominated
// run-to-end latch campaigns.
func TestForceLatchDoesNotAllocate(t *testing.T) {
	c := newCore(t, assemble(t, "hlt\n"))
	last := c.Bits(fault.TargetLatches) - 1
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Force(fault.TargetLatches, last, 1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Force(TargetLatches): %v allocs/op, want 0", n)
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
	if c.Bits(fault.TargetRF) != 16*32 {
		t.Errorf("Bits(TargetRF) = %d", c.Bits(fault.TargetRF))
	}
	if total < c.Bits(fault.TargetRF)+c.Bits(fault.TargetL1D) {
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
	c, err := New(p, cache.Campaign())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Step()
	}
	// Flip the top bit of every latch in turn across separate replays.
	snap := c.Snapshot()
	for bit := 0; bit < c.Bits(fault.TargetLatches); bit += 97 {
		c.Restore(snap)
		if err := c.Flip(fault.TargetLatches, bit); err != nil {
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
