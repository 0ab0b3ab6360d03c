package microarch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/refsim"
	"repro/internal/statehash"
	"repro/internal/trace"
)

// Tests of the in-flight window representation (DESIGN.md "Window
// representation"): the pinned StateHash sequences that hold the model
// bit-identical across representation changes, the retired-flag-producer
// lifetime rule, the zero-allocation contract of Step and RestoreFrom,
// and the snapshot property.

// runDigest steps c to completion and returns two digests. hashes folds
// StateHash at every cycle divisible by every and at the stop: it moves
// whenever the digest format does. behaviour is the standard library's
// FNV-1a over everything observable that never passes through
// internal/statehash — cycle and instruction counts, the outcome, the
// program output, the architectural registers, the captured pinout and
// the written-back memory image — so a format change leaves it alone
// and only a change to the model moves it.
func runDigest(t *testing.T, c *CPU, every uint64) (behaviour, hashes uint64) {
	t.Helper()
	pin := &trace.Pinout{}
	c.Pinout = pin
	h := statehash.New()
	for c.Step() {
		if c.Cycles%every == 0 {
			h.U64(c.StateHash())
		}
		if c.Cycles > 10_000_000 {
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
	put(c.Cycles, c.Insts, uint64(c.Stop), uint64(c.ExitCode), uint64(c.archFlags.Pack()))
	f.Write([]byte(c.FaultDesc))
	put(uint64(len(c.Output)))
	f.Write(c.Output)
	for r := 0; r < 16; r++ {
		put(uint64(c.ReadArchReg(r)))
	}
	for _, x := range pin.Txns {
		put(x.Cycle, uint64(x.Addr), uint64(x.Kind), x.Digest)
	}
	c.L1D.WriteBackAll(nil)
	image, _ := c.Mem.LoadBytes(0, c.Mem.Size())
	f.Write(image)
	return f.Sum64(), h.Sum()
}

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

func campaignCPU(t testing.TB, p *asm.Program) *CPU {
	t.Helper()
	c, err := New(p, CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pinnedRun is one run's golden cycle count and its two runDigest
// values.
type pinnedRun struct {
	cycles    uint64
	behaviour uint64
	hashes    uint64
}

func (want pinnedRun) check(t *testing.T, c *CPU, behaviour, hashes uint64) {
	t.Helper()
	if got := (pinnedRun{c.Cycles, behaviour, hashes}); got != want {
		t.Errorf("got {%d, %#x, %#x}, pinned {%d, %#x, %#x}",
			got.cycles, got.behaviour, got.hashes, want.cycles, want.behaviour, want.hashes)
	}
}

// pinnedRuns holds every bench program under CampaignConfig, hashed
// every 17 cycles so the sample points drift through every pipeline
// phase. Cycles go back to the pointer-graph window that preceded the
// slab (commit 07a79f5); the behaviour digests were recorded at cbc0545,
// the last commit with the byte-serial FNV state digest, and the hashes
// column was re-recorded when the digest became word-parallel and packed
// — by a change that touched no stepping code and left the other two
// columns as they were.
var pinnedRuns = map[string]pinnedRun{
	"fft":          {17502, 0x73fc8555f5d61897, 0x8e01b2b7b66933ac},
	"qsort":        {28759, 0xffd18f2f1650a715, 0xedec92a400986e18},
	"caes":         {41634, 0x164075b1571ebc85, 0x6caf8357ba9b532e},
	"sha":          {13332, 0x4e75186894e3abbe, 0xc32d496a7646c9e5},
	"stringsearch": {65069, 0x8bb4c3c1b90f6a2c, 0x111d5bd8b1b86b8b},
	"susan_c":      {263154, 0xc902d4dcf7a483d4, 0x97c42aa632fae87f},
	"susan_e":      {141502, 0x32d5c918103d4d15, 0x8272fb5814e2eda7},
	"susan_s":      {137909, 0xb3a7ab296e5ef9b8, 0x2a51ea866295ae09},
}

func TestPinnedStateHashSequence(t *testing.T) {
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			c := campaignCPU(t, benchProgram(t, w.Name))
			behaviour, hashes := runDigest(t, c, 17)
			pinnedRuns[w.Name].check(t, c, behaviour, hashes)
		})
	}
}

// staleFlagsProgram is the lifetime-rule regression: each of three
// iterations executes ONE compare, then a compare-free stretch several
// times longer than the uop slab, then two conditional branches that
// read the long-retired compare's flags. The first `blt` and the final
// `beq` are mispredicted (the bimodal starts weakly not-taken), so
// their recovery reinstates that committed compare as the speculative
// flag producer; the `ret` with an empty return stack mispredicts with
// the same committed compare as its flag snapshot.
func staleFlagsProgram() string {
	stretch := strings.Repeat("\taddi r0, r0, #1\n", 3*slabSlotsForTest)
	return `
	movi r0, #0
	movi r4, #0
outer:
	addi r4, r4, #1
	cmp r4, #3
` + stretch + `
	beq done
	blt outer
	hlt
done:
` + stretch + `
	bne bad
	bl sub
	addi r0, r0, #7
	hlt
sub:
	addi r0, r0, #1
	ret
bad:
	movi r0, #0
	hlt
`
}

// slabSlotsForTest over-approximates the slab size of DefaultConfig so
// the stretches above recycle every slot several times.
const slabSlotsForTest = 128

// pinnedStaleFlags is runDigest(every cycle) of staleFlagsProgram on
// DefaultConfig, recorded like pinnedRuns (cycles at commit 07a79f5).
var pinnedStaleFlags = pinnedRun{3097, 0xc2bf4c10446d7eb3, 0x123094eff6f7cccc}

func TestStaleFlagProducer(t *testing.T) {
	p := assemble(t, staleFlagsProgram())
	ref, err := refsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(1_000_000)
	if ref.Stop != refsim.StopHalt {
		t.Fatalf("reference stop = %v (%s)", ref.Stop, ref.FaultDesc)
	}

	c := newCPU(t, p)
	behaviour, hashes := runDigest(t, c, 1)
	if c.Stop != ref.Stop || c.Insts != ref.InstCount {
		t.Fatalf("stop %v after %d insts, reference %v after %d", c.Stop, c.Insts, ref.Stop, ref.InstCount)
	}
	want := uint32(4*3*slabSlotsForTest + 8)
	if v := c.ReadArchReg(0); v != want || ref.Regs[0] != want {
		t.Errorf("r0 = %d (reference %d), want %d", v, ref.Regs[0], want)
	}
	pinnedStaleFlags.check(t, c, behaviour, hashes)
}

// TestFaultDescriptions holds the on-demand fault formatter to the fmt
// renderings it replaced (FaultDesc and StateHash both carry the bytes)
// and the committed descriptions to the reference interpreter's.
func TestFaultDescriptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		u := uop{pc: rng.Uint32() >> (rng.Intn(4) * 8), addr: rng.Uint32() >> (rng.Intn(4) * 8), faultWord: rng.Uint32()}
		want := map[faultKind]string{
			faultNone:   "",
			faultFetch:  fmt.Sprintf("fetch out of range at %#x", u.pc),
			faultDecode: fmt.Sprintf("decode at %#x: %v", u.pc, isa.DecodeError{Word: u.faultWord}),
			faultLoad:   fmt.Sprintf("load out of range or unaligned at %#x (pc %#x)", u.addr, u.pc),
		}
		for kind, w := range want {
			u.fault = kind
			if got := string(u.appendFault(nil)); got != w {
				t.Fatalf("kind %d: %q, want %q", kind, got, w)
			}
		}
	}

	for name, src := range map[string]string{
		"decode": "b data\n.data\ndata: .word 0xFF001234\n",
		"fetch":  "li r1, 0x7FFFF0\nmov lr, r1\nret\n",
	} {
		p := assemble(t, src)
		ref, err := refsim.New(p)
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(10_000)
		c := newCPU(t, p)
		c.Run(10_000)
		if c.Stop != refsim.StopFault || ref.Stop != refsim.StopFault || c.FaultDesc != ref.FaultDesc {
			t.Errorf("%s: stop %v %q, reference %v %q", name, c.Stop, c.FaultDesc, ref.Stop, ref.FaultDesc)
		}
	}
	c := newCPU(t, assemble(t, "movi r1, #2\nldr r2, [r1]\nhlt\n"))
	c.Run(10_000)
	if want := "load out of range or unaligned at 0x2 (pc 0x4)"; c.FaultDesc != want {
		t.Errorf("load fault %q, want %q", c.FaultDesc, want)
	}
}

// stepAllocs returns the heap allocations of n Step calls, which must
// all find the program still running.
func stepAllocs(t *testing.T, c *CPU, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if !c.Step() {
				t.Fatalf("program ended at cycle %d, inside the measured window", c.Cycles)
			}
		}
	})
}

// TestStepDoesNotAllocate is the zero-allocation contract of the
// stepping path: once the program's pages are touched, Step never
// reaches the heap — not for uops, queues, wrong-path fault strings,
// decode errors or cache fills — with the pinout capture attached (its
// backing array pre-grown, as the campaign engine's reused captures
// are). AllocsPerRun(1, …) runs the window twice, so each bench is
// measured over its second 10k cycles; neither window holds a syscall
// (output is the one thing Step legitimately allocates for). The last
// case is therefore one whole golden run — the first 10k cycles, every
// syscall and the program's end — bounded at one allocation per hundred
// cycles: qsort makes 7 in 28 759, thirty times below the bound.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, name := range []string{
		"qsort",   // pinout-heavy: ~8 write-backs per kilocycle
		"susan_c", // quiet: about one per kilocycle
	} {
		c := campaignCPU(t, benchProgram(t, name))
		pin := &trace.Pinout{Txns: make([]trace.Transaction, 0, 4096)}
		c.Pinout = pin
		if n := stepAllocs(t, c, 10_000); n != 0 {
			t.Errorf("%s: %v allocations in 10k steady-state cycles", name, n)
		}
		t.Logf("%s: %d cycles, %d pinout transactions", name, c.Cycles, pin.Len())
	}
	c := campaignCPU(t, benchProgram(t, "qsort"))
	c.Pinout = &trace.Pinout{Txns: make([]trace.Transaction, 0, 4096)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Run(1 << 40)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; float64(n) > 0.01*float64(c.Cycles) {
		t.Errorf("whole golden run of qsort: %d allocations in %d cycles, bound 0.01 per cycle", n, c.Cycles)
	}
}

// TestRestoreDoesNotAllocate: a replay worker's RestoreFrom plus a
// 500-cycle window costs no allocation once its storage exists. It runs
// under DefaultConfig, whose 32 KiB L1D never writes a line back, so
// the copy-on-write page clone that a store reaching shared memory pays
// (mem.Memory's contract, not the window's) stays out of the count.
func TestRestoreDoesNotAllocate(t *testing.T) {
	p := benchProgram(t, "qsort")
	golden := newCPU(t, p)
	for i := 0; i < 12_000; i++ {
		golden.Step()
	}
	snap := golden.Clone()
	worker := newCPU(t, p)
	pin := &trace.Pinout{Txns: make([]trace.Transaction, 0, 64)}
	replay := func() {
		worker.RestoreFrom(snap)
		pin.Reset()
		worker.Pinout = pin
		for i := 0; i < 500; i++ {
			worker.Step()
		}
	}
	replay() // the first iteration may size the worker's buffers
	if n := testing.AllocsPerRun(10, replay); n != 0 {
		t.Errorf("RestoreFrom + 500 cycles allocates %v times", n)
	}
	if worker.Cycles != snap.Cycles+500 {
		t.Errorf("worker at cycle %d, want %d", worker.Cycles, snap.Cycles+500)
	}
}

// TestSnapshotProperty: at random cycles of every bench program, a
// Clone, and a RestoreFrom into a CPU dirtied by a different history,
// both track the original StateHash-for-StateHash over the following
// cycles, and stepping them leaves the snapshot they came from intact.
func TestSnapshotProperty(t *testing.T) {
	const points, horizon = 4, 150
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(w.Name))))
			p := benchProgram(t, w.Name)
			c := campaignCPU(t, p)
			dirty := campaignCPU(t, p)
			for i := 0; i < 777; i++ {
				dirty.Step()
			}
			for k := 0; k < points; k++ {
				for n := 500 + rng.Intn(3000); n > 0 && c.Step(); n-- {
				}
				snap := c.Clone()
				base := snap.StateHash()
				if base != c.StateHash() {
					t.Fatalf("cycle %d: clone digest differs from its source", c.Cycles)
				}
				clone := snap.Clone()
				for i := 0; i < dirty.Bits(fault.TargetRF); i += 5 {
					dirty.Flip(fault.TargetRF, i)
				}
				dirty.RestoreFrom(snap)
				for i := 0; i < horizon; i++ {
					alive := c.Step()
					if clone.Step() != alive || dirty.Step() != alive {
						t.Fatalf("cycle %d: copies disagree on termination", c.Cycles)
					}
					want := c.StateHash()
					if got := clone.StateHash(); got != want {
						t.Fatalf("cycle %d (snapshot +%d): clone digest %#x, original %#x", c.Cycles, i+1, got, want)
					}
					if got := dirty.StateHash(); got != want {
						t.Fatalf("cycle %d (snapshot +%d): restored digest %#x, original %#x", c.Cycles, i+1, got, want)
					}
				}
				if snap.StateHash() != base {
					t.Fatalf("snapshot of cycle %d changed while its copies ran", snap.Cycles)
				}
			}
		})
	}
}

// TestConcurrentRestoreFromSharedSnapshot is the replay pool's access
// pattern: several workers restore from one shared golden snapshot at
// once and run on. RestoreFrom must only read its base — CI runs this
// package under the race detector — and every worker must land on the
// digest a lone restore reaches.
func TestConcurrentRestoreFromSharedSnapshot(t *testing.T) {
	p := benchProgram(t, "qsort")
	golden := campaignCPU(t, p)
	for i := 0; i < 9_000; i++ {
		golden.Step()
	}
	snap := golden.Clone()
	replay := func(c *CPU) uint64 {
		c.RestoreFrom(snap)
		for i := 0; i < 400; i++ {
			c.Step()
		}
		return c.StateHash()
	}
	want := replay(campaignCPU(t, p))

	const workers, rounds = 4, 8
	got := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := campaignCPU(t, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[w] = replay(c)
			}
		}()
	}
	wg.Wait()
	for w, h := range got {
		if h != want {
			t.Errorf("worker %d reached digest %#x, a lone restore %#x", w, h, want)
		}
	}
	if snap.Cycles != 9_000 || snap.StateHash() != golden.StateHash() {
		t.Error("the shared snapshot changed under its restores")
	}
}

// checkWindow verifies the slot lifetime rule from first principles:
// everything the model can still reach — the ROB's uops, the flag
// producers and flag snapshots they name, the queues' entries and the
// speculative flag producer — sits in a slot that is not on the free
// list, and the free list holds no slot twice. It also recomputes the
// derived state (inflight and the readiness masks) from the uops.
func checkWindow(t *testing.T, c *CPU) {
	t.Helper()
	free := make([]bool, len(c.uops))
	for _, s := range c.uopFree {
		if free[s] {
			t.Fatalf("cycle %d: slot %d is on the free list twice", c.Cycles, s)
		}
		free[s] = true
	}
	reach := func(what string, s slot) {
		if s != noSlot && free[s] {
			t.Fatalf("cycle %d: %s names slot %d, which is on the free list", c.Cycles, what, s)
		}
	}
	reach("specFlagProducer", c.specFlagProducer)
	for i := 0; i < c.rob.n; i++ {
		s := c.rob.at(i)
		reach("the ROB", s)
		reach("a flagProducer", c.uops[s].flagProducer)
		reach("a flagSnap", c.uops[s].flagSnap)
	}
	for _, s := range c.iq {
		reach("the IQ", s)
	}
	for _, s := range c.lsq {
		reach("the LSQ", s)
	}
	// inflight is exactly the ROB's issued-but-unfinished uops, in ROB
	// order.
	var flying []slot
	for i := 0; i < c.rob.n; i++ {
		if u := &c.uops[c.rob.at(i)]; u.issued && !u.executed {
			flying = append(flying, c.rob.at(i))
		}
	}
	if !slices.Equal(flying, c.inflight) {
		t.Fatalf("cycle %d: inflight %v, the ROB's issued-but-unfinished uops %v", c.Cycles, c.inflight, flying)
	}
	// The readiness masks are derived too: cmpBusy is exactly the ROB's
	// flag writers that have not executed, and each waiting uop's deps
	// name its source registers and its flag producer.
	var cmpBusy uint64
	for i := 0; i < c.rob.n; i++ {
		if u := &c.uops[c.rob.at(i)]; u.writesFlags && !u.executed {
			cmpBusy |= 1 << c.rob.at(i)
		}
	}
	if cmpBusy != c.cmpBusy {
		t.Fatalf("cycle %d: cmpBusy %#x, the ROB's unexecuted flag writers %#x", c.Cycles, c.cmpBusy, cmpBusy)
	}
	for _, s := range c.iq {
		u := &c.uops[s]
		var want deps
		for _, p := range []int16{u.src1, u.src2, u.src3} {
			if p >= 0 {
				want.regs |= 1 << p
			}
		}
		if u.flagProducer != noSlot {
			want.cmp = 1 << u.flagProducer
		}
		if c.deps[s] != want {
			t.Fatalf("cycle %d: slot %d waits on %+v, its operands name %+v", c.Cycles, s, c.deps[s], want)
		}
	}
	if c.prfReady>>c.cfg.NumPhysRegs != 0 {
		t.Fatalf("cycle %d: prfReady %#x marks registers past the %d there are", c.Cycles, c.prfReady, c.cfg.NumPhysRegs)
	}
}

// TestSlotLifetimeInvariant checks the rule at every cycle of the
// stale-flags program and of every bench program — fault-free, and with
// register-file bits flipped every few hundred cycles so the runs wander
// through wrong paths, wild branches and faults no golden run visits.
func TestSlotLifetimeInvariant(t *testing.T) {
	run := func(t *testing.T, c *CPU, flipEvery uint64) {
		rng := rand.New(rand.NewSource(11))
		for c.Step() && c.Cycles < 60_000 {
			checkWindow(t, c)
			if flipEvery != 0 && c.Cycles%flipEvery == 0 {
				c.Flip(fault.TargetRF, rng.Intn(c.Bits(fault.TargetRF)))
			}
		}
		checkWindow(t, c)
	}
	t.Run("staleflags", func(t *testing.T) { run(t, newCPU(t, assemble(t, staleFlagsProgram())), 0) })
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := benchProgram(t, w.Name)
			run(t, campaignCPU(t, p), 0)
			run(t, campaignCPU(t, p), 257)
		})
	}
}

// TestUopIsPacked holds uop to the 128 bytes its fields fill (see its
// comment): a reordering that opens padding holes grows every snapshot.
func TestUopIsPacked(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n != 128 {
		t.Errorf("uop is %d bytes, want 128", n)
	}
}
