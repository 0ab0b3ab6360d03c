package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func decodeAll(t *testing.T, p *Program) []isa.Inst {
	t.Helper()
	out := make([]isa.Inst, len(p.Text))
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if err != nil {
			t.Fatalf("word %d: %v", i, err)
		}
		out[i] = in
	}
	return out
}

func TestBasicInstructions(t *testing.T) {
	p := mustAssemble(t, `
		add r1, r2, r3
		addi r4, r4, #-8
		add r5, r5, #12      ; sugar for addi
		movi r0, #42
		mov r6, r7
		mov r6, #-1          ; sugar for movi
		mvn r1, r2
		cmp r1, r2
		cmp r1, #7           ; sugar for cmpi
		ldr r1, [sp, #4]
		ldr r1, [sp]
		str r2, [r3, #-4]
		ldrb r4, [r5, r6]
		strb r4, [r5, r6]
		svc #0
		nop
		hlt
	`)
	want := []isa.Inst{
		{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3},
		{Op: isa.OpADDI, Rd: isa.R4, Rn: isa.R4, Imm: -8},
		{Op: isa.OpADDI, Rd: isa.R5, Rn: isa.R5, Imm: 12},
		{Op: isa.OpMOVI, Rd: isa.R0, Imm: 42},
		{Op: isa.OpMOV, Rd: isa.R6, Rm: isa.R7},
		{Op: isa.OpMOVI, Rd: isa.R6, Imm: -1},
		{Op: isa.OpMVN, Rd: isa.R1, Rm: isa.R2},
		{Op: isa.OpCMP, Rn: isa.R1, Rm: isa.R2},
		{Op: isa.OpCMPI, Rn: isa.R1, Imm: 7},
		{Op: isa.OpLDR, Rd: isa.R1, Rn: isa.SP, Imm: 4},
		{Op: isa.OpLDR, Rd: isa.R1, Rn: isa.SP},
		{Op: isa.OpSTR, Rd: isa.R2, Rn: isa.R3, Imm: -4},
		{Op: isa.OpLDRBR, Rd: isa.R4, Rn: isa.R5, Rm: isa.R6},
		{Op: isa.OpSTRBR, Rd: isa.R4, Rn: isa.R5, Rm: isa.R6},
		{Op: isa.OpSVC},
		{Op: isa.OpNOP},
		{Op: isa.OpHLT},
	}
	got := decodeAll(t, p)
	if len(got) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("inst %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := mustAssemble(t, `
	start:
		movi r0, #0
	loop:
		addi r0, r0, #1
		cmp r0, #10
		blt loop
		b done
		nop
	done:
		hlt
	`)
	in := decodeAll(t, p)
	// blt loop: at pc=12 targeting 4 -> off = (4-12-4)/4 = -3
	if in[3].Op != isa.OpBLT || in[3].Imm != -3 {
		t.Errorf("blt = %v, want off -3", in[3])
	}
	// b done: at pc=16 targeting 24 -> off = (24-16-4)/4 = 1
	if in[4].Op != isa.OpB || in[4].Imm != 1 {
		t.Errorf("b = %v, want off 1", in[4])
	}
	if p.Symbols["start"] != 0 || p.Symbols["loop"] != 4 || p.Symbols["done"] != 24 {
		t.Errorf("symbols: %v", p.Symbols)
	}
}

func TestLIExpansion(t *testing.T) {
	p := mustAssemble(t, `
		li r1, 0xDEADBEEF
		li r2, 5
	`)
	in := decodeAll(t, p)
	if len(in) != 4 {
		t.Fatalf("li should expand to 2 insts each, got %d total", len(in))
	}
	if in[0].Op != isa.OpMOVI || uint16(in[0].Imm) != 0xBEEF {
		t.Errorf("li lo: %v", in[0])
	}
	if in[1].Op != isa.OpMOVT || in[1].Imm != 0xDEAD || in[1].Rn != isa.R1 {
		t.Errorf("li hi: %v", in[1])
	}
	// Simulate the pair.
	v := uint32(isa.EvalALU(isa.OpMOVI, 0, uint32(in[0].Imm)))
	v = isa.EvalALU(isa.OpMOVT, v, uint32(in[1].Imm))
	if v != 0xDEADBEEF {
		t.Errorf("li value = %#x", v)
	}
}

func TestPushPop(t *testing.T) {
	p := mustAssemble(t, `
		push {r4, r5, lr}
		pop {r4, r5, lr}
	`)
	in := decodeAll(t, p)
	want := []isa.Inst{
		{Op: isa.OpSUBI, Rd: isa.SP, Rn: isa.SP, Imm: 12},
		{Op: isa.OpSTR, Rd: isa.R4, Rn: isa.SP, Imm: 0},
		{Op: isa.OpSTR, Rd: isa.R5, Rn: isa.SP, Imm: 4},
		{Op: isa.OpSTR, Rd: isa.LR, Rn: isa.SP, Imm: 8},
		{Op: isa.OpLDR, Rd: isa.R4, Rn: isa.SP, Imm: 0},
		{Op: isa.OpLDR, Rd: isa.R5, Rn: isa.SP, Imm: 4},
		{Op: isa.OpLDR, Rd: isa.LR, Rn: isa.SP, Imm: 8},
		{Op: isa.OpADDI, Rd: isa.SP, Rn: isa.SP, Imm: 12},
	}
	if len(in) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(in), len(want))
	}
	for i := range want {
		if in[i] != want[i] {
			t.Errorf("inst %d: got %v, want %v", i, in[i], want[i])
		}
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.data
	tbl:	.word 1, 2, 0x30
	bytes:	.byte 'A', 'B', 10
	msg:	.asciz "hi\n"
	buf:	.space 8
	end:
	`)
	if p.Symbols["tbl"] != isa.DataBase {
		t.Errorf("tbl = %#x", p.Symbols["tbl"])
	}
	if p.Symbols["bytes"] != isa.DataBase+12 {
		t.Errorf("bytes = %#x", p.Symbols["bytes"])
	}
	if p.Symbols["msg"] != isa.DataBase+15 {
		t.Errorf("msg = %#x", p.Symbols["msg"])
	}
	if p.Symbols["buf"] != isa.DataBase+19 {
		t.Errorf("buf = %#x", p.Symbols["buf"])
	}
	if p.Symbols["end"] != isa.DataBase+27 {
		t.Errorf("end = %#x", p.Symbols["end"])
	}
	wantData := []byte{1, 0, 0, 0, 2, 0, 0, 0, 0x30, 0, 0, 0, 'A', 'B', 10, 'h', 'i', '\n', 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if string(p.Data) != string(wantData) {
		t.Errorf("data = %v, want %v", p.Data, wantData)
	}
}

func TestAlign(t *testing.T) {
	p := mustAssemble(t, `
	.data
		.byte 1
	aligned: .align 4
		.word 7
	`)
	if p.Symbols["aligned"] != isa.DataBase+4 {
		t.Errorf("aligned = %#x, want %#x", p.Symbols["aligned"], isa.DataBase+4)
	}
	if len(p.Data) != 8 {
		t.Errorf("data len = %d, want 8", len(p.Data))
	}
	if p.Data[4] != 7 {
		t.Errorf("word not at aligned offset: %v", p.Data)
	}
}

func TestEquAndExpressions(t *testing.T) {
	p := mustAssemble(t, `
	.equ N, 16
	.equ N2, N*4
	.equ SUM, N + N2 - 1
		movi r0, #N
		movi r1, #N2
		movi r2, #SUM
		movi r3, #'a'
		li r4, arr + 4
	.data
	arr: .space N2
	after:
	`)
	in := decodeAll(t, p)
	if in[0].Imm != 16 || in[1].Imm != 64 || in[2].Imm != 79 || in[3].Imm != 'a' {
		t.Errorf("exprs: %v %v %v %v", in[0], in[1], in[2], in[3])
	}
	if p.Symbols["after"] != isa.DataBase+64 {
		t.Errorf("after = %#x", p.Symbols["after"])
	}
}

func TestWordInText(t *testing.T) {
	p := mustAssemble(t, `
		b skip
	tbl:	.word 0x12345678
	skip:	hlt
	`)
	if p.Text[1] != 0x12345678 {
		t.Errorf("text word = %#x", p.Text[1])
	}
	in, _ := isa.Decode(p.Text[0])
	if in.BranchTarget(0) != 8 {
		t.Errorf("branch target = %d", in.BranchTarget(0))
	}
}

func TestComments(t *testing.T) {
	p := mustAssemble(t, `
		nop ; semicolon
		nop @ at
		nop // slashes
	.data
	s: .ascii "a;b@c//d"  ; comment after string
	`)
	if len(p.Text) != 3 {
		t.Errorf("text len = %d", len(p.Text))
	}
	if string(p.Data) != "a;b@c//d" {
		t.Errorf("data = %q", p.Data)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frobnicate r1", "unknown mnemonic"},
		{"bad register", "add rq, r1, r2", "bad register"},
		{"undefined symbol", "b nowhere", "undefined symbol"},
		{"duplicate label", "x: nop\nx: nop", "duplicate symbol"},
		{"operand count", "add r1, r2", "needs 3 operands"},
		{"imm range", "addi r1, r1, #4096", "imm12 out of range"},
		{"data instruction", ".data\nadd r1, r2, r3", "instruction in .data"},
		{"bad directive", ".frob 1", "unknown directive"},
		{"byte in text", ".byte 1", ".byte not allowed in .text"},
		{"mvn immediate", "mvn r1, #2", "mvn needs a register source"},
		{"bad string", `.data` + "\n" + `.ascii hello`, "expected string literal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble("t.s", tc.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("t.s", "nop\nnop\nbogus r1\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "t.s:3:") {
		t.Errorf("error %q lacks position t.s:3:", err)
	}
}

func TestLoadInto(t *testing.T) {
	p := mustAssemble(t, `
		movi r0, #1
		hlt
	.data
		.word 0xCAFEBABE
	`)
	m, err := p.NewImage()
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := m.LoadWord(isa.TextBase); w != p.Text[0] {
		t.Errorf("text[0] = %#x", w)
	}
	if w, _ := m.LoadWord(isa.DataBase); w != 0xCAFEBABE {
		t.Errorf("data[0] = %#x", w)
	}
}

func TestDisassembleListing(t *testing.T) {
	p := mustAssemble(t, "add r1, r2, r3\nhlt\n")
	lst := p.Disassemble()
	if len(lst) != 2 || !strings.Contains(lst[0], "add r1, r2, r3") {
		t.Errorf("listing: %v", lst)
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p := mustAssemble(t, "a: b: c: nop\n")
	if p.Symbols["a"] != 0 || p.Symbols["b"] != 0 || p.Symbols["c"] != 0 {
		t.Errorf("symbols: %v", p.Symbols)
	}
}

// TestDecodedMatchesDecode: the shared decode table holds, for every
// text word — instructions and .word data alike — exactly what
// isa.Decode returns for it.
func TestDecodedMatchesDecode(t *testing.T) {
	p := mustAssemble(t, "add r1, r2, r3\nbeq 0\n.word 0xFF001234\nmovi r4, #-7\nhlt\n")
	d := p.Decoded()
	if len(d) != len(p.Text) {
		t.Fatalf("%d entries for %d text words", len(d), len(p.Text))
	}
	for i, w := range p.Text {
		in, err := isa.Decode(w)
		if want := (Decoded{Word: w, Inst: in, Bad: err != nil}); d[i] != want {
			t.Errorf("entry %d = %+v, isa.Decode says %+v", i, d[i], want)
		}
	}
	if !d[2].Bad {
		t.Error("the .word entry decoded")
	}
}
