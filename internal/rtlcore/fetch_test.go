package rtlcore

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/refsim"
)

// Tests of the two shortcuts on the core's decode and fetch path, the
// shared decode table (Core.decode) and the L1I fetch buffer
// (rtlCache.fetch): each must leave every run exactly as the full path
// — an isa.Decode per stage, a tag lookup and LRU touch per fetch —
// would.

// fullPath turns the decode table off for c from now on: a program
// built by hand has none. stepBoth drops its fetch buffer before every
// step.
func fullPath(c *Core) *Core {
	c.prog = &asm.Program{}
	return c
}

// stepBoth steps fast as built and slow on the full path, dropping
// slow's fetch buffer first, and requires the same digest of both.
func stepBoth(t *testing.T, fast, slow *Core) bool {
	t.Helper()
	slow.l1i.fbLine = -1
	alive := fast.Step()
	if slow.Step() != alive {
		t.Fatalf("cycle %d: the runs disagree on termination", fast.Cycles())
	}
	if got, want := fast.StateHash(), slow.StateHash(); got != want {
		t.Fatalf("cycle %d: digest %#x, the full path's %#x", fast.Cycles(), got, want)
	}
	return alive
}

// lockstep runs stepBoth steps times. Every 500 steps it snapshots both
// cores; 100 and 200 steps later it flips the same register-file bit in
// both, and 300 steps later it restores both to the snapshot — at once
// if the faulted run stops first. So every snapshot is of a fault-free
// state, the run advances 200 cycles a period, and each restore meets a
// fetch buffer filled on a faulted path.
func lockstep(t *testing.T, fast, slow *Core, steps int) {
	t.Helper()
	const period, rewindAt = 500, 300
	rng := rand.New(rand.NewSource(5))
	var fastSnap, slowSnap *Snapshot
	for n := 0; n < steps; n++ {
		switch n % period {
		case 0:
			fastSnap, slowSnap = fast.SnapshotInto(fastSnap), slow.SnapshotInto(slowSnap)
		case 100, 200:
			i := rng.Intn(fast.Bits(fault.TargetRF))
			fast.Flip(fault.TargetRF, i)
			slow.Flip(fault.TargetRF, i)
		case rewindAt:
			fast.Restore(fastSnap)
			slow.Restore(slowSnap)
		}
		if stepBoth(t, fast, slow) {
			continue
		}
		if n%period >= rewindAt {
			return // the fault-free run's own end
		}
		fast.Restore(fastSnap)
		slow.Restore(slowSnap)
		n += rewindAt - n%period
	}
}

// coldLineProgram jumps from its entry line to a loop in a line no fetch
// has touched yet.
const coldLineProgram = `
	movi r1, #0
	b loop
	.align 64
loop:	addi r1, r1, #1
	cmp r1, #400
	blt loop
	hlt
`

// TestRTLFetchShortcutsAreExact runs every bench program with register
// file bits flipped every few hundred cycles — wrong paths, wild
// branches, fetches outside the text and faults no golden run visits —
// and rewound to earlier snapshots, with and without the shortcuts.
// coldline restores both cores to the step before the loop line's first
// fetch while the fetch buffer names that line: the restored core must
// miss on it again.
func TestRTLFetchShortcutsAreExact(t *testing.T) {
	t.Run("coldline", func(t *testing.T) {
		p := assemble(t, coldLineProgram)
		fast, slow := campaignCore(t, p), fullPath(campaignCore(t, p))
		var fastSnap, slowSnap *Snapshot
		for slow.l1i.misses < 2 {
			fastSnap, slowSnap = fast.SnapshotInto(fastSnap), slow.SnapshotInto(slowSnap)
			if !stepBoth(t, fast, slow) {
				t.Fatal("the program stopped before fetching its loop")
			}
		}
		for i := 0; i < 300; i++ {
			stepBoth(t, fast, slow)
		}
		if fast.l1i.fbLine < 0 || fast.l1i.fbBase != p.Symbols["loop"] {
			t.Fatalf("the fetch buffer does not name the loop's line: the test exercises nothing")
		}
		fast.Restore(fastSnap)
		slow.Restore(slowSnap)
		for stepBoth(t, fast, slow) {
		}
		if fast.Stop != refsim.StopHalt || fast.ReadArchReg(1) != 400 {
			t.Fatalf("stop %v (%s), r1 = %d, want a halt with 400", fast.Stop, fast.FaultDesc, fast.ReadArchReg(1))
		}
	})
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := benchProgram(t, w.Name)
			lockstep(t, campaignCore(t, p), fullPath(campaignCore(t, p)), 60_000)
		})
	}
}
