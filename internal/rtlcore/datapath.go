package rtlcore

import "repro/internal/isa"

// This file is the structural description of the core's execute datapath.
// Where the microarchitectural model computes results with host
// arithmetic on the instruction's semantics, the RTL core evaluates its
// functional units as register-transfer equations over buses: a bus is
// one packed word (bit i of the word is net i), and a unit is the gate
// equations of one row of cells written once for the whole word — the
// adder is its carry vector, the shifter five shift-and-mux stages, the
// multiplier 32 partial-product rows through the adder, the divider 32
// restoring subtract-and-mux rows. This is the bit-parallel evaluation of
// the fault-simulation canon (PROOFS packs machines into a word; here the
// word holds the nets of a bus): no fault is ever injected into a
// combinational net — only Reg and Mem bits are enumerable — so walking
// the cells one at a time could not change any outcome, only its cost.
//
// The opcode gates the units: each EX cycle the subtractor (whose NZCV is
// the flags bus) and the one unit the opcode selects evaluate, the rest
// stay idle. That is exact for the same reason: an unselected unit's
// output reaches no register or memory bit, so evaluating it could only
// cost time. Nothing here calls the architectural definitions in package
// isa; the two levels remain independent implementations, which is what
// TestDatapathMatchesISA and the cross-level comparison rest on.

// fan drives all 32 nets of a bus from one net (0 or 1): the select of a
// bus-wide multiplexer.
func fan(net uint32) uint32 { return -net }

// mux selects b where sel is set, a elsewhere, net by net.
func mux(sel, a, b uint32) uint32 { return a&^sel | b&sel }

// adder is the 32-cell adder every arithmetic unit is built from; cin
// and the returned carries are single nets (0 or 1). The sum is formed
// 33 bits wide, so its bit 32 is the carry out of the top cell; bit i of
// the carry vector sum^a^b is the carry into cell i, and signed overflow
// is the disagreement between the carries into and out of the top cell.
func adder(a, b, cin uint32) (sum, cout, ovf uint32) {
	wide := uint64(a) + uint64(b) + uint64(cin)
	sum, cout = uint32(wide), uint32(wide>>32)
	return sum, cout, cout ^ (sum^a^b)>>31
}

// subtract computes a-b as a + ^b + 1 with ARM carry semantics (C = no
// borrow) and the NZCV flags of the subtraction.
func subtract(a, b uint32) (uint32, isa.Flags) {
	s, cout, ovf := adder(a, ^b, 1)
	return s, isa.Flags{N: s>>31 != 0, Z: s == 0, C: cout != 0, V: ovf != 0}
}

// negate is the two's-complement unit of the signed divider.
func negate(a uint32) uint32 {
	s, _, _ := adder(^a, 0, 1)
	return s
}

// barrelShift is a five-stage logarithmic shifter: stage k shifts by 2^k
// where bit k of the amount is set and passes through elsewhere. The
// amount is the low five bits of b (the AL32 shift rule); an arithmetic
// right shift fills with the sign net.
func barrelShift(a, amt uint32, left, arith bool) uint32 {
	var fill uint32
	if arith {
		fill = fan(a >> 31)
	}
	cur := a
	for stage := uint(0); stage < 5; stage++ {
		sh := uint(1) << stage
		shifted := cur << sh
		if !left {
			shifted = cur>>sh | fill<<(32-sh)
		}
		cur = mux(fan(amt>>stage&1), cur, shifted)
	}
	return cur
}

// arrayMultiply is a 32x32 array multiplier: one shifted partial product
// per multiplier bit, gated by that bit and summed through adder rows
// (low 32 bits).
func arrayMultiply(a, b uint32) uint32 {
	var acc uint32
	for i := uint(0); i < 32; i++ {
		acc, _, _ = adder(acc, a<<i&fan(b>>i&1), 0)
	}
	return acc
}

// restoringDivide is a combinational 32-row restoring divider for
// unsigned operands: each row shifts the next dividend bit into the
// partial remainder, subtracts the divisor, and keeps the difference
// where the subtraction did not borrow. The partial remainder stays
// below the divisor, so the shift never loses its top net. Division by
// zero yields quotient 0 (AL32 rule).
func restoringDivide(a, b uint32) (q uint32) {
	if b == 0 {
		return 0
	}
	var rem uint32
	for i := 31; i >= 0; i-- {
		rem = rem<<1 | a>>uint(i)&1
		diff, noBorrow, _ := adder(rem, ^b, 1)
		rem = mux(fan(noBorrow), rem, diff)
		q |= noBorrow << uint(i)
	}
	return q
}

// aluOut is every value the EX datapath produces in a cycle.
type aluOut struct {
	result uint32
	flags  isa.Flags
}

// evalDatapath evaluates the execute datapath on operand buses a and b:
// the subtractor always, for the flags, and of the other units only the
// one the opcode selects. MOVT passes the old destination value through a.
func evalDatapath(op isa.Opcode, a, b uint32) aluOut {
	diff, flags := subtract(a, b)
	var r uint32
	switch op {
	case isa.OpSUB, isa.OpSUBI:
		r = diff
	case isa.OpRSB, isa.OpRSBI:
		r, _ = subtract(b, a)
	case isa.OpAND, isa.OpANDI:
		r = a & b
	case isa.OpORR, isa.OpORRI:
		r = a | b
	case isa.OpEOR, isa.OpEORI:
		r = a ^ b
	case isa.OpLSL, isa.OpLSLI:
		r = barrelShift(a, b&31, true, false)
	case isa.OpLSR, isa.OpLSRI:
		r = barrelShift(a, b&31, false, false)
	case isa.OpASR, isa.OpASRI:
		r = barrelShift(a, b&31, false, true)
	case isa.OpMUL:
		r = arrayMultiply(a, b)
	case isa.OpUDIV:
		r = restoringDivide(a, b)
	case isa.OpSDIV:
		switch {
		case b == 0:
			r = 0
		case a == 0x80000000 && b == 0xFFFFFFFF:
			r = a // overflow case: quotient wraps to the dividend
		default:
			// The signed divider operates on magnitudes; sign correction is a mux.
			aNeg, bNeg := fan(a>>31), fan(b>>31)
			q := restoringDivide(mux(aNeg, a, negate(a)), mux(bNeg, b, negate(b)))
			r = mux(aNeg^bNeg, q, negate(q))
		}
	case isa.OpMOV, isa.OpMOVI:
		r = b
	case isa.OpMVN:
		r = ^b
	case isa.OpMOVT:
		r = a&0xFFFF | b<<16
	default: // ADD, ADDI and the address adder path
		r, _, _ = adder(a, b, 0)
	}
	return aluOut{result: r, flags: flags}
}

// netAdd is the 32-bit incrementer/adder used outside the main ALU (PC
// increment, link value): another instance of the adder unit.
func netAdd(a, b uint32) uint32 {
	s, _, _ := adder(a, b, 0)
	return s
}

// branchAdder computes a branch target through the adder unit.
func branchAdder(pc uint32, in isa.Inst) uint32 {
	return netAdd(pc, uint32(in.Imm)*isa.InstBytes+isa.InstBytes)
}
