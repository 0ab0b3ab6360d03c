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
