package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/microarch"
	"repro/internal/refsim"
	"repro/internal/rtlcore"
)

// TestDifferentialRandomPrograms generates random (guaranteed-
// terminating) AL32 programs and executes each on the architectural
// reference, the out-of-order model and the RTL core. All three must
// agree on every architectural register, the program output, the retired
// instruction count and the stop reason. This is the strongest
// cross-level equivalence check in the repository: any divergence in
// forwarding, renaming, flag handling, memory ordering or cache
// coherency shows up as a register or output mismatch.
func TestDifferentialRandomPrograms(t *testing.T) {
	const programs = 60
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := randomProgram(rand.New(rand.NewSource(seed)))
			prog, err := asm.Assemble("fuzz.s", src)
			if err != nil {
				t.Fatalf("assemble:\n%s\n%v", src, err)
			}

			ref, err := refsim.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(2_000_000)

			ma, err := microarch.New(prog, microarch.CampaignConfig())
			if err != nil {
				t.Fatal(err)
			}
			ma.Run(20_000_000)

			rc, err := rtlcore.New(prog, cache.Campaign())
			if err != nil {
				t.Fatal(err)
			}
			rc.Run(20_000_000)

			if ma.Stop != ref.Stop || rc.Stop != ref.Stop {
				t.Fatalf("stop reasons: ref=%v ma=%v rtl=%v\nfault: ref=%q ma=%q rtl=%q\n%s",
					ref.Stop, ma.Stop, rc.Stop, ref.FaultDesc, ma.FaultDesc, rc.FaultDesc, src)
			}
			if ma.Insts != ref.InstCount || rc.Insts != ref.InstCount {
				t.Errorf("instret: ref=%d ma=%d rtl=%d", ref.InstCount, ma.Insts, rc.Insts)
			}
			if string(ma.Output) != string(ref.Output) || string(rc.Output) != string(ref.Output) {
				t.Errorf("outputs differ: ref=%q ma=%q rtl=%q", ref.Output, ma.Output, rc.Output)
			}
			for r := 0; r < 13; r++ { // r13..r15 = sp/lr stay conventional
				want := ref.Regs[r]
				if got := ma.ReadArchReg(r); got != want {
					t.Errorf("microarch r%d = %#x, ref %#x\n%s", r, got, want, src)
				}
				if got := rc.ReadArchReg(r); got != want {
					t.Errorf("rtl r%d = %#x, ref %#x\n%s", r, got, want, src)
				}
			}
		})
	}
}

// randomProgram emits a random but always-terminating program: straight-
// line ALU/memory/flag code with only forward branches and bounded
// counted loops, reading and writing a private scratch buffer.
func randomProgram(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("\tli\tr10, buf\n")
	// Seed the registers with arbitrary values.
	for r := 0; r <= 9; r++ {
		fmt.Fprintf(&sb, "\tli\tr%d, %d\n", r, int32(rng.Uint32()))
	}

	aluRegOps := []string{"add", "sub", "rsb", "and", "orr", "eor", "mul", "udiv", "sdiv"}
	aluImmOps := []string{"addi", "subi", "andi", "orri", "eori"}
	shiftOps := []string{"lsl", "lsr", "asr"}
	divOps := []string{"udiv", "sdiv"}
	divEdges := []int32{0, -1 << 31, -1}
	conds := []string{"beq", "bne", "blt", "bge", "bgt", "ble", "bhs", "blo", "bhi", "bls"}
	label := 0

	reg := func() int { return rng.Intn(10) } // r0..r9 only

	emitBlock := func() {
		switch rng.Intn(12) {
		case 0, 1, 2:
			op := aluRegOps[rng.Intn(len(aluRegOps))]
			fmt.Fprintf(&sb, "\t%s\tr%d, r%d, r%d\n", op, reg(), reg(), reg())
		case 3, 4:
			op := aluImmOps[rng.Intn(len(aluImmOps))]
			fmt.Fprintf(&sb, "\t%s\tr%d, r%d, #%d\n", op, reg(), reg(), rng.Intn(2048))
		case 5:
			op := shiftOps[rng.Intn(len(shiftOps))]
			fmt.Fprintf(&sb, "\t%s\tr%d, r%d, #%d\n", op, reg(), reg(), rng.Intn(31))
		case 6:
			// Aligned word store then load within the scratch buffer.
			off := rng.Intn(256) * 4
			fmt.Fprintf(&sb, "\tstr\tr%d, [r10, #%d]\n", reg(), off)
			fmt.Fprintf(&sb, "\tldr\tr%d, [r10, #%d]\n", reg(), off)
		case 7:
			off := rng.Intn(1024)
			fmt.Fprintf(&sb, "\tstrb\tr%d, [r10, #%d]\n", reg(), off)
			fmt.Fprintf(&sb, "\tldrb\tr%d, [r10, #%d]\n", reg(), off)
		case 8:
			// Forward conditional branch over a couple of instructions.
			label++
			fmt.Fprintf(&sb, "\tcmp\tr%d, r%d\n", reg(), reg())
			fmt.Fprintf(&sb, "\t%s\tL%d\n", conds[rng.Intn(len(conds))], label)
			fmt.Fprintf(&sb, "\taddi\tr%d, r%d, #1\n", reg(), reg())
			fmt.Fprintf(&sb, "\teor\tr%d, r%d, r%d\n", reg(), reg(), reg())
			fmt.Fprintf(&sb, "L%d:\n", label)
		case 9:
			// Divide edges: dividend and divisor each 0, INT_MIN or -1,
			// so division by zero and INT_MIN / -1 occur.
			n, m := reg(), reg()
			fmt.Fprintf(&sb, "\tli\tr%d, %d\n", n, divEdges[rng.Intn(len(divEdges))])
			fmt.Fprintf(&sb, "\tli\tr%d, %d\n", m, divEdges[rng.Intn(len(divEdges))])
			fmt.Fprintf(&sb, "\t%s\tr%d, r%d, r%d\n", divOps[rng.Intn(len(divOps))], reg(), n, m)
		case 10:
			// Register-amount shift by 31, 32 or 33: the five-bit wrap.
			amt := reg()
			fmt.Fprintf(&sb, "\tmovi\tr%d, #%d\n", amt, 31+rng.Intn(3))
			fmt.Fprintf(&sb, "\t%s\tr%d, r%d, r%d\n", shiftOps[rng.Intn(len(shiftOps))], reg(), reg(), amt)
		default:
			// Counted loop with a fixed trip count (always terminates).
			label++
			trips := 1 + rng.Intn(6)
			fmt.Fprintf(&sb, "\tmovi\tr11, #%d\n", trips)
			fmt.Fprintf(&sb, "L%d:\n", label)
			fmt.Fprintf(&sb, "\tadd\tr%d, r%d, r%d\n", reg(), reg(), reg())
			fmt.Fprintf(&sb, "\tsubi\tr11, r11, #1\n")
			fmt.Fprintf(&sb, "\tcmp\tr11, #0\n")
			fmt.Fprintf(&sb, "\tbgt\tL%d\n", label)
		}
	}
	n := 20 + rng.Intn(60)
	for i := 0; i < n; i++ {
		emitBlock()
	}
	// Emit a couple of values so the SOP is exercised too.
	fmt.Fprintf(&sb, "\tmov\tr0, r%d\n", reg())
	sb.WriteString("\tmovi\tr7, #4\n\tsvc\t#0\n")
	fmt.Fprintf(&sb, "\tmov\tr0, r%d\n", reg())
	sb.WriteString("\tsvc\t#0\n")
	sb.WriteString("\tmovi\tr7, #1\n\tsvc\t#0\n")
	sb.WriteString(".data\n.align 4\nbuf:\t.space 1024\n")
	return sb.String()
}

// TestDifferentialWithFlagsStress focuses the same differential harness
// on dense compare/branch sequences, the most timing-sensitive area of
// both pipelines (flag renaming on the OoO side, flag latching on the
// RTL side).
func TestDifferentialWithFlagsStress(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	conds := []string{"beq", "bne", "blt", "bge", "bgt", "ble", "bhs", "blo", "bhi", "bls"}
	var sb strings.Builder
	for r := 0; r <= 9; r++ {
		fmt.Fprintf(&sb, "\tli\tr%d, %d\n", r, int32(rng.Uint32()))
	}
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&sb, "\tcmp\tr%d, r%d\n", rng.Intn(10), rng.Intn(10))
		fmt.Fprintf(&sb, "\t%s\tF%d\n", conds[rng.Intn(len(conds))], i)
		fmt.Fprintf(&sb, "\taddi\tr%d, r%d, #%d\n", rng.Intn(10), rng.Intn(10), rng.Intn(100))
		fmt.Fprintf(&sb, "F%d:\n", i)
		// Back-to-back compare chains (flag overwrites).
		fmt.Fprintf(&sb, "\tcmp\tr%d, #%d\n", rng.Intn(10), rng.Intn(100))
		fmt.Fprintf(&sb, "\tcmp\tr%d, r%d\n", rng.Intn(10), rng.Intn(10))
		fmt.Fprintf(&sb, "\t%s\tG%d\n", conds[rng.Intn(len(conds))], i)
		fmt.Fprintf(&sb, "\teor\tr%d, r%d, r%d\n", rng.Intn(10), rng.Intn(10), rng.Intn(10))
		fmt.Fprintf(&sb, "G%d:\n", i)
	}
	sb.WriteString("\thlt\n")

	prog, err := asm.Assemble("flags.s", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refsim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(1_000_000)
	ma, err := microarch.New(prog, microarch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ma.Run(10_000_000)
	rc, err := rtlcore.New(prog, cache.TableI())
	if err != nil {
		t.Fatal(err)
	}
	rc.Run(10_000_000)
	if ref.Stop != refsim.StopHalt || ma.Stop != refsim.StopHalt || rc.Stop != refsim.StopHalt {
		t.Fatalf("stops: %v %v %v", ref.Stop, ma.Stop, rc.Stop)
	}
	for r := 0; r < 13; r++ {
		if ma.ReadArchReg(r) != ref.Regs[r] || rc.ReadArchReg(r) != ref.Regs[r] {
			t.Errorf("r%d: ref=%#x ma=%#x rtl=%#x", r, ref.Regs[r], ma.ReadArchReg(r), rc.ReadArchReg(r))
		}
	}
}
