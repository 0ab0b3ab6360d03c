package rtlcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// operand draws a 32-bit operand with the shapes that break carry,
// shift and divide networks over-represented: small magnitudes of either
// sign, single bits, runs of ones, and uniform words.
func operand(rng *rand.Rand) uint32 {
	switch rng.Intn(6) {
	case 0:
		return uint32(rng.Intn(64))
	case 1:
		return -uint32(rng.Intn(64))
	case 2:
		return 1 << uint(rng.Intn(32))
	case 3:
		return ^uint32(0) >> uint(rng.Intn(32)) << uint(rng.Intn(32))
	default:
		return rng.Uint32()
	}
}

var datapathOps = []isa.Opcode{
	isa.OpADD, isa.OpSUB, isa.OpRSB, isa.OpAND, isa.OpORR, isa.OpEOR,
	isa.OpLSL, isa.OpLSR, isa.OpASR, isa.OpMUL, isa.OpUDIV, isa.OpSDIV,
	isa.OpMOV, isa.OpMVN, isa.OpMOVT,
}

// TestDatapathMatchesISA checks every functional unit of the structural
// datapath, and the subtractor's NZCV, against the architectural
// definitions over 20 000 drawn operand pairs per opcode.
func TestDatapathMatchesISA(t *testing.T) {
	const draws = 20_000
	for _, op := range datapathOps {
		rng := rand.New(rand.NewSource(int64(op)))
		for i := 0; i < draws; i++ {
			a, b := operand(rng), operand(rng)
			out := evalDatapath(op, a, b)
			if want := isa.EvalALU(op, a, b); out.result != want {
				t.Fatalf("%s(%#x, %#x) = %#x, want %#x", op, a, b, out.result, want)
			}
			if want := isa.SubFlags(a, b); out.flags != want {
				t.Fatalf("flags of %#x - %#x = %+v, want %+v", a, b, out.flags, want)
			}
		}
	}
}

// TestAdderUnit holds the adder's sum, carry-out and signed overflow to
// 33-bit host arithmetic on the boundary operands and on drawn ones.
func TestAdderUnit(t *testing.T) {
	check := func(a, b, cin uint32) {
		t.Helper()
		wide := uint64(a) + uint64(b) + uint64(cin)
		signed := int64(int32(a)) + int64(int32(b)) + int64(cin)
		sum, cout, ovf := adder(a, b, cin)
		wantOvf := signed != int64(int32(wide))
		if sum != uint32(wide) || cout != uint32(wide>>32) || (ovf != 0) != wantOvf || ovf > 1 {
			t.Errorf("adder(%#x, %#x, %d) = %#x c=%d v=%d, want %#x c=%d v=%v",
				a, b, cin, sum, cout, ovf, uint32(wide), wide>>32, wantOvf)
		}
	}
	for _, tt := range [][3]uint32{
		{0x7fffffff, 1, 0},          // signed overflow, no carry
		{0xffffffff, 1, 0},          // carry out of every cell
		{0xffffffff, 0xffffffff, 1}, // all-ones with carry-in
		{0xffffffff, 0, 1},
		{0x80000000, ^uint32(1), 1}, // 0x80000000 - 1
		{0x80000000, 0x80000000, 0},
		{0, 0, 1},
	} {
		check(tt[0], tt[1], tt[2])
	}
	rng := rand.New(rand.NewSource(1))
	for i := uint32(0); i < 20_000; i++ {
		a := operand(rng)
		check(a, operand(rng), i&1)
		check(a, ^a, 1) // a - a
	}
}

// TestDatapathEdgeCases are the directed cases of each unit: the shifter
// at and around the five-bit amount wrap, the multiplier with the top
// bit of both operands set, and the dividers by zero, by one, at the
// signed overflow and across every sign combination.
func TestDatapathEdgeCases(t *testing.T) {
	type tc struct {
		op   isa.Opcode
		a, b uint32
	}
	var tests []tc
	for _, op := range []isa.Opcode{isa.OpLSL, isa.OpLSR, isa.OpASR} {
		for _, a := range []uint32{1, 0x80000000, 0x80000001, 0x7fffffff, 0xdeadbeef} {
			for _, amt := range []uint32{0, 1, 31, 32, 33} {
				tests = append(tests, tc{op, a, amt})
			}
		}
	}
	const intMin = 0x80000000
	for _, op := range []isa.Opcode{isa.OpUDIV, isa.OpSDIV} {
		for _, a := range []uint32{0, 1, 100, 0xFFFFFFF9, intMin, 0x7fffffff, 0xffffffff} {
			for _, b := range []uint32{0, 1, 2, 7, 0xFFFFFFF9, 0xffffffff, intMin, 0x7fffffff} {
				tests = append(tests, tc{op, a, b})
			}
		}
	}
	tests = append(tests,
		tc{isa.OpMUL, 0xFFFFFFFF, 0xFFFFFFFF},
		tc{isa.OpMUL, 0x80000000, 0x80000000},
		tc{isa.OpMUL, 0x80000001, 0xC0000003},
		tc{isa.OpMOVT, 0x1234, 0xABCD},
		tc{isa.OpMOVT, 0xFFFF1234, 0xABCD},
	)
	for _, tt := range tests {
		got := evalDatapath(tt.op, tt.a, tt.b).result
		want := isa.EvalALU(tt.op, tt.a, tt.b)
		if got != want {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", tt.op, tt.a, tt.b, got, want)
		}
	}
}

func TestNetAddAndBranchAdder(t *testing.T) {
	f := func(a, b uint32) bool { return netAdd(a, b) == a+b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	in := isa.Inst{Op: isa.OpB, Imm: -3}
	if got, want := branchAdder(100, in), in.BranchTarget(100); got != want {
		t.Errorf("branchAdder = %d, want %d", got, want)
	}
}

// evalAllUnits is the ungated execute datapath, verbatim: every unit
// evaluates on the operand buses, then the opcode selects the result. It
// is the reference evalDatapath's gating is held to.
func evalAllUnits(op isa.Opcode, a, b uint32) aluOut {
	sum, _, _ := adder(a, b, 0)
	diff, subFl := subtract(a, b)
	rdiff, _ := subtract(b, a)
	shl := barrelShift(a, b&31, true, false)
	shr := barrelShift(a, b&31, false, false)
	sar := barrelShift(a, b&31, false, true)
	prod := arrayMultiply(a, b)

	// The signed divider operates on magnitudes; sign correction is a mux.
	aNeg, bNeg := fan(a>>31), fan(b>>31)
	udivQ := restoringDivide(a, b)
	sdivQ := restoringDivide(mux(aNeg, a, negate(a)), mux(bNeg, b, negate(b)))
	sdivQ = mux(aNeg^bNeg, sdivQ, negate(sdivQ))

	var r uint32
	switch op {
	case isa.OpADD, isa.OpADDI:
		r = sum
	case isa.OpSUB, isa.OpSUBI:
		r = diff
	case isa.OpRSB, isa.OpRSBI:
		r = rdiff
	case isa.OpAND, isa.OpANDI:
		r = a & b
	case isa.OpORR, isa.OpORRI:
		r = a | b
	case isa.OpEOR, isa.OpEORI:
		r = a ^ b
	case isa.OpLSL, isa.OpLSLI:
		r = shl
	case isa.OpLSR, isa.OpLSRI:
		r = shr
	case isa.OpASR, isa.OpASRI:
		r = sar
	case isa.OpMUL:
		r = prod
	case isa.OpUDIV:
		r = udivQ
	case isa.OpSDIV:
		switch {
		case b == 0:
			r = 0
		case a == 0x80000000 && b == 0xFFFFFFFF:
			r = a // overflow case: quotient wraps to the dividend
		default:
			r = sdivQ
		}
	case isa.OpMOV, isa.OpMOVI:
		r = b
	case isa.OpMVN:
		r = ^b
	case isa.OpMOVT:
		r = a&0xFFFF | b<<16
	default:
		r = sum // address adder path
	}
	return aluOut{result: r, flags: subFl}
}

// checkGating holds the gated datapath to the all-units reference on one
// opcode and operand pair, and the ALU opcodes also to isa.EvalALU.
func checkGating(t *testing.T, op isa.Opcode, a, b uint32) {
	t.Helper()
	got, want := evalDatapath(op, a, b), evalAllUnits(op, a, b)
	if got != want {
		t.Fatalf("opcode %d (%s) on %#x, %#x: gated %+v, all units %+v", op, op, a, b, got, want)
	}
	if (op.IsALUReg() || op.IsALUImm()) && got.result != isa.EvalALU(op, a, b) {
		t.Fatalf("%s(%#x, %#x) = %#x, want %#x", op, a, b, got.result, isa.EvalALU(op, a, b))
	}
}

// gatingGrid is TestDatapathEdgeCases' operand grid: the boundary words
// of the adder and dividers, and the shift amounts around the wrap.
var gatingGrid = []uint32{0, 1, 0x80000000, 0x7fffffff, 0xffffffff, 0xfffffff9, 31, 32, 33}

// TestDatapathGatingIsExact checks that gating the units on the opcode
// changes no result and no flag: for every opcode value (the ALU ops,
// CMP/CMPI, the memory-address default and invalid encodings) the gated
// datapath equals the ungated one on the edge grid and on drawn operands.
func TestDatapathGatingIsExact(t *testing.T) {
	draws := 400
	if testing.Short() {
		draws = 50
	}
	for op := 0; op < 256; op++ {
		for _, a := range gatingGrid {
			for _, b := range gatingGrid {
				checkGating(t, isa.Opcode(op), a, b)
			}
		}
		rng := rand.New(rand.NewSource(int64(op)))
		for i := 0; i < draws; i++ {
			checkGating(t, isa.Opcode(op), operand(rng), operand(rng))
		}
	}
}

// FuzzDatapath is TestDatapathGatingIsExact's check on fuzzed opcodes
// and operands.
func FuzzDatapath(f *testing.F) {
	for _, c := range []struct {
		op   isa.Opcode
		a, b uint32
	}{
		{isa.OpSDIV, 0x80000000, 0xffffffff},
		{isa.OpSDIV, 0xfffffff9, 0},
		{isa.OpUDIV, 7, 0},
		{isa.OpASR, 0x80000000, 33},
		{isa.OpRSBI, 1, 0x7fffffff},
		{isa.OpCMP, 0, 1},
		{isa.OpLDR, 0x1000, 4},
	} {
		f.Add(uint8(c.op), c.a, c.b)
	}
	f.Fuzz(func(t *testing.T, op uint8, a, b uint32) {
		checkGating(t, isa.Opcode(op), a, b)
	})
}
