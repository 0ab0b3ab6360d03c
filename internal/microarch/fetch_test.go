package microarch

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/refsim"
)

// Tests of fetch's two shortcuts, the fetch buffer and the shared decode
// table (see fetch): each must leave every run exactly as the full path
// — a cache lookup and an isa.Decode per fetched word — would.

// fullFetch turns both shortcuts off for c from now on: no decode table,
// and (per step) no fetch buffer.
func fullFetch(c *CPU) *CPU {
	c.text = nil
	return c
}

// lockstep steps fast as built and slow on the full fetch path side by
// side, flipping the same register-file bit in both every flipEvery
// cycles (never when 0), and requires equal digests on every cycle until the program
// stops or maxCycles pass.
func lockstep(t *testing.T, fast, slow *CPU, flipEvery, maxCycles uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for {
		slow.fbLine = -1 // drop the buffer before every fetch
		alive := fast.Step()
		if slow.Step() != alive {
			t.Fatalf("cycle %d: the runs disagree on termination", fast.Cycles)
		}
		if got, want := fast.StateHash(), slow.StateHash(); got != want {
			t.Fatalf("cycle %d: digest %#x, the full fetch path's %#x", fast.Cycles, got, want)
		}
		if !alive || fast.Cycles >= maxCycles {
			return
		}
		if flipEvery != 0 && fast.Cycles%flipEvery == 0 {
			i := rng.Intn(fast.Bits(fault.TargetRF))
			fast.Flip(fault.TargetRF, i)
			slow.Flip(fault.TargetRF, i)
		}
	}
}

// TestFetchShortcutsAreExact runs the stale-flags program and every
// bench program with register-file bits flipped every few hundred
// cycles — wrong paths, wild branches, fetches outside the text and
// faults no golden run visits — with and without the shortcuts.
func TestFetchShortcutsAreExact(t *testing.T) {
	t.Run("staleflags", func(t *testing.T) {
		p := assemble(t, staleFlagsProgram())
		lockstep(t, newCPU(t, p), fullFetch(newCPU(t, p)), 173, 60_000)
	})
	for _, w := range bench.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := benchProgram(t, w.Name)
			lockstep(t, campaignCPU(t, p), fullFetch(campaignCPU(t, p)), 257, 60_000)
		})
	}
}

// selfModifyingProgram stores newWord over the first instruction of
// patch after patch has run once, forces the store out of the L1D
// (four more lines in patch's L1D set) and patch's line out of the L1I
// (six more lines in its L1I set), then calls patch again: the refill
// brings the new word, which the decode table does not hold. Sized for
// CampaignConfig: 4 L1D sets and 16 L1I sets of 32-byte lines, 4 ways.
func selfModifyingProgram(newWord uint32) string {
	evict := ""
	for i := 1; i <= 6; i++ {
		evict += fmt.Sprintf("\t.align 512\ne%d:\tret\n", i)
	}
	return fmt.Sprintf(`
	bl patch
	mov r5, r0
	li r1, patch
	li r2, %#x
	str r2, [r1]
	movi r7, #3
	movi r0, #46
	svc #0          ; serializing: the store has committed
	ldr r3, [r1, #128]
	ldr r3, [r1, #256]
	ldr r3, [r1, #384]
	ldr r3, [r1, #512]
	bl e1
	bl e2
	bl e3
	bl e4
	bl e5
	bl e6
	bl patch
	hlt
	.align 512
patch:	movi r0, #1
	ret
`, newWord) + evict
}

// TestFetchDecodesRewrittenText: after a store rewrites a text word and
// its line is refilled into the L1I, fetch decodes the new word, not
// the decode table's entry for the old one.
func TestFetchDecodesRewrittenText(t *testing.T) {
	newWord := assemble(t, "movi r0, #42\n").Text[0]
	p := assemble(t, selfModifyingProgram(newWord))
	i := (p.Symbols["patch"] - p.TextBase) / isa.InstBytes
	if d := p.Decoded()[i]; d.Word == newWord || d.Inst.Op != isa.OpMOVI || d.Inst.Imm != 1 {
		t.Fatalf("the table's entry for patch is %+v: the test would not tell the words apart", d)
	}
	ref, err := refsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(100_000)

	c, err := New(p, CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := New(p, CampaignConfig())
	lockstep(t, c, fullFetch(slow), 0, 100_000)
	if c.Stop != refsim.StopHalt || ref.Stop != refsim.StopHalt {
		t.Fatalf("stop %v (%s), reference %v (%s)", c.Stop, c.FaultDesc, ref.Stop, ref.FaultDesc)
	}
	if r0, r5 := c.ReadArchReg(0), c.ReadArchReg(5); r0 != 42 || r5 != 1 || ref.Regs[0] != 42 {
		t.Errorf("r0 = %d and r5 = %d (reference r0 = %d), want 42 from the rewritten patch and 1 from the first call", r0, r5, ref.Regs[0])
	}
}

// wrongPathFillProgram has a RET in line A whose return-stack
// prediction (the address after a BL placed at the end of a line) is a
// cold line B in A's L1I set, while its real target, in r4, is back in
// A: the wrong path fills B, and once the RET resolves fetch returns to
// A. A fetch buffer still naming A there would skip A's LRU touch, so B
// would stay the set's most recent line. Sized for CampaignConfig: 16
// L1I sets of 32-byte lines, so A = 512 and B = 1536 share set 0.
func wrongPathFillProgram() string {
	return `
	li r4, back
	b caller
	.align 512
sub:	mov lr, r4      ; line A
	ret             ; predicted to 1536 (B), resolved to back
back:	movi r0, #7
	hlt
	.align 512
` + strings.Repeat("\tnop\n", 127) + `caller:	bl sub          ; at 1532: the return stack now holds 1536
`
}

// TestFetchBufferDroppedOnFill: a fill drops the fetch buffer, so a
// fetch from the buffered line after a wrong-path fill takes the cache
// lookup and touches the line again.
func TestFetchBufferDroppedOnFill(t *testing.T) {
	p := assemble(t, wrongPathFillProgram())
	if got := p.Symbols["caller"]; got != 1532 {
		t.Fatalf("caller at %d, want 1532", got)
	}
	c, err := New(p, CampaignConfig())
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := New(p, CampaignConfig())
	lockstep(t, c, fullFetch(slow), 0, 10_000)
	if c.Stop != refsim.StopHalt || c.ReadArchReg(0) != 7 {
		t.Fatalf("stop %v (%s), r0 = %d, want a halt with 7", c.Stop, c.FaultDesc, c.ReadArchReg(0))
	}
	if _, ok := c.L1I.Resident(1536); !ok {
		t.Error("the wrong path never filled line B: the test exercises nothing")
	}
}
