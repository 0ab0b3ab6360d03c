package isa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpADD, Rd: R1, Rn: R2, Rm: R3},
		{Op: OpSUB, Rd: R15, Rn: SP, Rm: LR},
		{Op: OpADDI, Rd: R4, Rn: R4, Imm: 2047},
		{Op: OpSUBI, Rd: SP, Rn: SP, Imm: -2048},
		{Op: OpMOVI, Rd: R0, Imm: -32768},
		{Op: OpMOVT, Rd: R0, Imm: 0xFFFF},
		{Op: OpCMP, Rn: R1, Rm: R2},
		{Op: OpCMPI, Rn: R1, Imm: -1},
		{Op: OpLDR, Rd: R3, Rn: SP, Imm: 16},
		{Op: OpSTRB, Rd: R3, Rn: R9, Imm: -4},
		{Op: OpLDRR, Rd: R3, Rn: R4, Rm: R5},
		{Op: OpB, Imm: -1},
		{Op: OpBL, Imm: Off24Max},
		{Op: OpBEQ, Imm: Off24Min},
		{Op: OpRET},
		{Op: OpSVC, Imm: 0},
		{Op: OpNOP},
		{Op: OpHLT},
	}
	for _, in := range cases {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#x): %v", w, err)
		}
		if got != in {
			t.Errorf("round trip %v: got %v (word %#08x)", in, got, w)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Inst{
		{Op: OpADDI, Rd: R0, Rn: R0, Imm: 2048},
		{Op: OpADDI, Rd: R0, Rn: R0, Imm: -2049},
		{Op: OpMOVI, Rd: R0, Imm: 65536},
		{Op: OpMOVT, Rd: R0, Imm: -1},
		{Op: OpB, Imm: Off24Max + 1},
		{Op: opInvalid},
		{Op: numOpcodes},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v): expected error", in)
		}
	}
}

func TestDecodeRejectsInvalidOpcode(t *testing.T) {
	for _, w := range []uint32{0x00000000, 0xFF000000, uint32(numOpcodes) << 24} {
		if _, err := Decode(w); err != ErrInvalidWord {
			t.Errorf("Decode(%#08x) = %v, want ErrInvalidWord", w, err)
		}
	}
}

// TestDecodeErrorPath pins the hand-formatted DecodeError message to the
// fmt rendering it replaced (fault descriptions and state digests carry
// it) and the sentinel error path to zero allocations.
func TestDecodeErrorPath(t *testing.T) {
	for _, w := range []uint32{0, 1, 0x1234, 0x00ABCDEF, 0xFF000000, 0xFFFFFFFF} {
		e := DecodeError{Word: w}
		if want := fmt.Sprintf("decode: invalid instruction word %#08x", w); e.Error() != want {
			t.Errorf("DecodeError{%#x} = %q, want %q", w, e.Error(), want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(0xFF000000); err == nil {
			t.Fatal("decoded an invalid word")
		}
	}); n != 0 {
		t.Errorf("Decode error path allocates %v times per call", n)
	}
}

// TestEncodeDecodeQuick drives random (but encodable) instructions through
// the encoder and decoder and checks the round trip is the identity.
func TestEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		op := Opcode(rng.Intn(int(numOpcodes)-1) + 1)
		in := Inst{Op: op}
		switch immKindOf(op) {
		case immNone:
			in.Rd = Reg(rng.Intn(NumRegs))
			in.Rn = Reg(rng.Intn(NumRegs))
			in.Rm = Reg(rng.Intn(NumRegs))
		case imm12:
			in.Rd = Reg(rng.Intn(NumRegs))
			in.Rn = Reg(rng.Intn(NumRegs))
			in.Imm = int32(rng.Intn(Imm12Max-Imm12Min+1) + Imm12Min)
		case imm16s:
			in.Rd = Reg(rng.Intn(NumRegs))
			in.Rn = Reg(rng.Intn(NumRegs))
			in.Imm = int32(rng.Intn(Imm16Max-Imm16Min+1) + Imm16Min)
		case imm16u:
			in.Rd = Reg(rng.Intn(NumRegs))
			in.Rn = Reg(rng.Intn(NumRegs))
			in.Imm = int32(rng.Intn(0x10000))
		case off24:
			in.Imm = int32(rng.Intn(Off24Max-Off24Min+1) + Off24Min)
		}
		w, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		got, err := Decode(w)
		if err != nil {
			t.Logf("Decode(%#08x): %v", w, err)
			return false
		}
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSubFlags(t *testing.T) {
	tests := []struct {
		a, b uint32
		want Flags
	}{
		{0, 0, Flags{Z: true, C: true}},
		{1, 2, Flags{N: true}},
		{2, 1, Flags{C: true}},
		{0x80000000, 1, Flags{C: true, V: true}},          // INT_MIN - 1 overflows
		{0x7FFFFFFF, 0xFFFFFFFF, Flags{N: true, V: true}}, // INT_MAX - (-1) overflows
		{5, 5, Flags{Z: true, C: true}},
		{0, 1, Flags{N: true}},
	}
	for _, tt := range tests {
		if got := SubFlags(tt.a, tt.b); got != tt.want {
			t.Errorf("SubFlags(%#x, %#x) = %+v, want %+v", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestSubFlagsQuick checks the flag definitions against 64-bit arithmetic.
func TestSubFlagsQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		got := SubFlags(a, b)
		wide := int64(int32(a)) - int64(int32(b))
		r := a - b
		return got.N == (int32(r) < 0) &&
			got.Z == (r == 0) &&
			got.C == (a >= b) &&
			got.V == (wide < -1<<31 || wide > 1<<31-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondHolds(t *testing.T) {
	lt := SubFlags(1, 2)           // 1 < 2
	eq := SubFlags(3, 3)           // equal
	gt := SubFlags(7, 2)           // 7 > 2
	ulo := SubFlags(1, 0xFFFFFFFF) // 1 <u max

	tests := []struct {
		op   Opcode
		f    Flags
		want bool
	}{
		{OpB, Flags{}, true},
		{OpBL, Flags{}, true},
		{OpRET, Flags{}, true},
		{OpBEQ, eq, true},
		{OpBEQ, lt, false},
		{OpBNE, lt, true},
		{OpBLT, lt, true},
		{OpBLT, eq, false},
		{OpBGE, eq, true},
		{OpBGE, lt, false},
		{OpBGT, gt, true},
		{OpBGT, eq, false},
		{OpBLE, eq, true},
		{OpBLE, gt, false},
		{OpBHS, gt, true},
		{OpBHS, ulo, false},
		{OpBLO, ulo, true},
		{OpBHI, gt, true},
		{OpBHI, eq, false},
		{OpBLS, eq, true},
		{OpBLS, gt, false},
		{OpADD, Flags{}, false}, // non-branch
	}
	for _, tt := range tests {
		if got := CondHolds(tt.op, tt.f); got != tt.want {
			t.Errorf("CondHolds(%s, %+v) = %v, want %v", tt.op, tt.f, got, tt.want)
		}
	}
}

// TestCondHoldsMatchesComparison checks every signed/unsigned relation
// against the flag-based conditions for random operand pairs.
func TestCondHoldsMatchesComparison(t *testing.T) {
	f := func(a, b uint32) bool {
		fl := SubFlags(a, b)
		sa, sb := int32(a), int32(b)
		return CondHolds(OpBEQ, fl) == (a == b) &&
			CondHolds(OpBNE, fl) == (a != b) &&
			CondHolds(OpBLT, fl) == (sa < sb) &&
			CondHolds(OpBGE, fl) == (sa >= sb) &&
			CondHolds(OpBGT, fl) == (sa > sb) &&
			CondHolds(OpBLE, fl) == (sa <= sb) &&
			CondHolds(OpBHS, fl) == (a >= b) &&
			CondHolds(OpBLO, fl) == (a < b) &&
			CondHolds(OpBHI, fl) == (a > b) &&
			CondHolds(OpBLS, fl) == (a <= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlagsPackUnpack(t *testing.T) {
	for v := uint8(0); v < 16; v++ {
		if got := UnpackFlags(v).Pack(); got != v {
			t.Errorf("Pack(Unpack(%d)) = %d", v, got)
		}
	}
}

func TestEvalALU(t *testing.T) {
	tests := []struct {
		op   Opcode
		a, b uint32
		want uint32
	}{
		{OpADD, 2, 3, 5},
		{OpSUB, 2, 3, 0xFFFFFFFF},
		{OpRSB, 2, 3, 1},
		{OpAND, 0xF0, 0x3C, 0x30},
		{OpORR, 0xF0, 0x0F, 0xFF},
		{OpEOR, 0xFF, 0x0F, 0xF0},
		{OpLSL, 1, 4, 16},
		{OpLSL, 1, 33, 2}, // shift amounts mod 32
		{OpLSR, 0x80000000, 31, 1},
		{OpASR, 0x80000000, 31, 0xFFFFFFFF},
		{OpMUL, 7, 6, 42},
		{OpUDIV, 7, 2, 3},
		{OpUDIV, 7, 0, 0},
		{OpSDIV, 0xFFFFFFF9, 2, 0xFFFFFFFD}, // -7/2 = -3
		{OpSDIV, 5, 0, 0},
		{OpSDIV, 0x80000000, 0xFFFFFFFF, 0x80000000}, // INT_MIN / -1
		{OpMOV, 99, 7, 7},
		{OpMVN, 99, 0, 0xFFFFFFFF},
		{OpMOVI, 0, 42, 42},
		{OpMOVT, 0x1234, 0xABCD, 0xABCD1234},
	}
	for _, tt := range tests {
		if got := EvalALU(tt.op, tt.a, tt.b); got != tt.want {
			t.Errorf("EvalALU(%s, %#x, %#x) = %#x, want %#x", tt.op, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestBranchTargetOffsetInverse(t *testing.T) {
	f := func(pcWord uint16, offRaw int32) bool {
		pc := uint32(pcWord) * InstBytes
		off := offRaw % 1000
		in := Inst{Op: OpB, Imm: off}
		target := in.BranchTarget(pc)
		return OffsetFor(pc, target) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisassembly(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: R1, Rn: R2, Rm: R3}, "add r1, r2, r3"},
		{Inst{Op: OpADDI, Rd: SP, Rn: SP, Imm: -8}, "addi sp, sp, #-8"},
		{Inst{Op: OpMOVI, Rd: R0, Imm: 5}, "movi r0, #5"},
		{Inst{Op: OpLDR, Rd: R1, Rn: SP, Imm: 4}, "ldr r1, [sp, #4]"},
		{Inst{Op: OpLDRR, Rd: R1, Rn: R2, Rm: R3}, "ldrr r1, [r2, r3]"},
		{Inst{Op: OpCMP, Rn: R1, Rm: R2}, "cmp r1, r2"},
		{Inst{Op: OpB, Imm: -4}, "b -4"},
		{Inst{Op: OpRET}, "ret"},
		{Inst{Op: OpSVC, Imm: 0}, "svc #0"},
		{Inst{Op: OpMOV, Rd: R1, Rm: R2}, "mov r1, r2"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String(%+v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestOpcodePredicates(t *testing.T) {
	if !OpLDR.IsLoad() || !OpLDRR.IsLoad() || OpSTR.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !OpSTR.IsStore() || !OpSTRB.IsStore() || OpLDR.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !OpB.IsBranch() || !OpRET.IsBranch() || OpADD.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !OpBEQ.IsCondBranch() || OpB.IsCondBranch() || OpRET.IsCondBranch() {
		t.Error("IsCondBranch misclassifies")
	}
	if !OpADD.WritesRd() || OpSTR.WritesRd() || OpCMP.WritesRd() || OpB.WritesRd() {
		t.Error("WritesRd misclassifies")
	}
	if OpMOVI.ReadsRn() || !OpADD.ReadsRn() || !OpSTR.ReadsRn() || OpBEQ.ReadsRn() {
		t.Error("ReadsRn misclassifies")
	}
	if !OpMOV.ReadsRm() || !OpSTRR.ReadsRm() || OpADDI.ReadsRm() {
		t.Error("ReadsRm misclassifies")
	}
}
