// Package isa defines AL32, an ARM-inspired 32-bit RISC instruction set
// shared by every simulation model in this repository (the RTL core, the
// out-of-order microarchitectural model, and the functional reference
// interpreter).
//
// AL32 has sixteen 32-bit general-purpose registers (r13 doubles as the
// stack pointer and r14 as the link register), a separate program counter,
// four condition flags (N, Z, C, V) written by compare instructions, and a
// fixed 32-bit instruction encoding:
//
//	[31:24] opcode
//	[23:20] rd      [19:16] rn      [15:12] rm
//	[11:0]  imm12 (signed; memory offsets and 12-bit ALU immediates)
//	[15:0]  imm16 (MOVI/MOVT/CMPI)
//	[23:0]  off24 (signed word offset; branches)
package isa

import "fmt"

// Reg identifies one of the sixteen general-purpose registers.
type Reg uint8

// Register aliases used by the ABI.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	SP // r13: stack pointer
	LR // r14: link register
	R15

	// NumRegs is the architectural register count.
	NumRegs = 16
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// Opcode enumerates every AL32 instruction.
type Opcode uint8

// Instruction opcodes. The numeric values are the encoding's [31:24] field
// and are part of the binary format; do not reorder.
const (
	opInvalid Opcode = iota

	// Register-register ALU: rd = rn OP rm.
	OpADD
	OpSUB
	OpRSB
	OpAND
	OpORR
	OpEOR
	OpLSL
	OpLSR
	OpASR
	OpMUL
	OpUDIV
	OpSDIV
	OpMOV // rd = rm
	OpMVN // rd = ^rm

	// Immediate ALU: rd = rn OP imm12 (sign-extended).
	OpADDI
	OpSUBI
	OpRSBI
	OpANDI
	OpORRI
	OpEORI
	OpLSLI
	OpLSRI
	OpASRI

	// Wide moves.
	OpMOVI // rd = signext(imm16)
	OpMOVT // rd = (rd & 0xFFFF) | imm16<<16

	// Compares (set NZCV).
	OpCMP  // flags(rn - rm)
	OpCMPI // flags(rn - signext(imm16))

	// Memory. Effective address rn + imm12 (signed).
	OpLDR
	OpSTR
	OpLDRB
	OpSTRB
	// Register-offset forms: address rn + rm.
	OpLDRR
	OpSTRR
	OpLDRBR
	OpSTRBR

	// Branches (off24 is a signed word offset relative to the
	// instruction after the branch).
	OpB
	OpBL
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBGT
	OpBLE
	OpBHS
	OpBLO
	OpBHI
	OpBLS
	OpRET // pc = lr

	// System.
	OpSVC // supervisor call, imm12 = syscall-class hint (number in r7)
	OpNOP
	OpHLT

	numOpcodes
)

var opNames = [numOpcodes]string{
	OpADD: "add", OpSUB: "sub", OpRSB: "rsb", OpAND: "and", OpORR: "orr",
	OpEOR: "eor", OpLSL: "lsl", OpLSR: "lsr", OpASR: "asr", OpMUL: "mul",
	OpUDIV: "udiv", OpSDIV: "sdiv", OpMOV: "mov", OpMVN: "mvn",
	OpADDI: "addi", OpSUBI: "subi", OpRSBI: "rsbi", OpANDI: "andi",
	OpORRI: "orri", OpEORI: "eori", OpLSLI: "lsli", OpLSRI: "lsri",
	OpASRI: "asri", OpMOVI: "movi", OpMOVT: "movt", OpCMP: "cmp",
	OpCMPI: "cmpi", OpLDR: "ldr", OpSTR: "str", OpLDRB: "ldrb",
	OpSTRB: "strb", OpLDRR: "ldrr", OpSTRR: "strr", OpLDRBR: "ldrbr",
	OpSTRBR: "strbr", OpB: "b", OpBL: "bl",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge", OpBGT: "bgt",
	OpBLE: "ble", OpBHS: "bhs", OpBLO: "blo", OpBHI: "bhi", OpBLS: "bls",
	OpRET: "ret", OpSVC: "svc", OpNOP: "nop", OpHLT: "hlt",
}

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool {
	return o > opInvalid && o < numOpcodes && opNames[o] != ""
}

// Instruction class predicates, used by decoders and pipeline models.

// IsALUReg reports whether o is a register-register ALU operation.
func (o Opcode) IsALUReg() bool { return o >= OpADD && o <= OpMVN }

// IsALUImm reports whether o is an immediate ALU operation (including the
// wide moves).
func (o Opcode) IsALUImm() bool { return o >= OpADDI && o <= OpMOVT }

// IsCompare reports whether o writes the condition flags.
func (o Opcode) IsCompare() bool { return o == OpCMP || o == OpCMPI }

// IsLoad reports whether o reads memory.
func (o Opcode) IsLoad() bool {
	return o == OpLDR || o == OpLDRB || o == OpLDRR || o == OpLDRBR
}

// IsStore reports whether o writes memory.
func (o Opcode) IsStore() bool {
	return o == OpSTR || o == OpSTRB || o == OpSTRR || o == OpSTRBR
}

// IsMem reports whether o accesses memory.
func (o Opcode) IsMem() bool { return o.IsLoad() || o.IsStore() }

// IsBranch reports whether o may redirect the program counter.
func (o Opcode) IsBranch() bool { return o >= OpB && o <= OpRET }

// IsCondBranch reports whether o is a conditional branch.
func (o Opcode) IsCondBranch() bool { return o >= OpBEQ && o <= OpBLS }

// WritesRd reports whether o writes its rd destination register.
func (o Opcode) WritesRd() bool {
	switch {
	case o.IsALUReg() && !o.IsCompare():
		return true
	case o.IsALUImm():
		return true
	case o.IsLoad():
		return true
	}
	return false
}

// ReadsRn reports whether o reads its rn source register.
func (o Opcode) ReadsRn() bool {
	switch o {
	case OpMOV, OpMVN, OpMOVI, OpB, OpBL, OpRET, OpSVC, OpNOP, OpHLT:
		return false
	}
	if o.IsCondBranch() {
		return false
	}
	return true
}

// ReadsRm reports whether o reads its rm source register.
func (o Opcode) ReadsRm() bool {
	switch {
	case o >= OpADD && o <= OpMVN: // includes MOV/MVN
		return true
	case o == OpCMP, o == OpLDRR, o == OpSTRR, o == OpLDRBR, o == OpSTRBR:
		return true
	}
	return false
}

// Flags holds the NZCV condition flags.
type Flags struct {
	N, Z, C, V bool
}

// Pack returns the flags as a 4-bit value (N=bit3, Z=bit2, C=bit1, V=bit0).
func (f Flags) Pack() uint8 {
	var v uint8
	if f.N {
		v |= 8
	}
	if f.Z {
		v |= 4
	}
	if f.C {
		v |= 2
	}
	if f.V {
		v |= 1
	}
	return v
}

// UnpackFlags is the inverse of Flags.Pack.
func UnpackFlags(v uint8) Flags {
	return Flags{N: v&8 != 0, Z: v&4 != 0, C: v&2 != 0, V: v&1 != 0}
}

// SubFlags computes the NZCV flags of the subtraction a-b, with ARM carry
// semantics (C set when no borrow occurs).
func SubFlags(a, b uint32) Flags {
	r := a - b
	return Flags{
		N: int32(r) < 0,
		Z: r == 0,
		C: a >= b,
		V: (int32(a) < 0) != (int32(b) < 0) && (int32(r) < 0) != (int32(a) < 0),
	}
}

// CondHolds evaluates the branch condition of opcode o against flags f.
// It returns true for the unconditional branches B, BL and RET.
func CondHolds(o Opcode, f Flags) bool {
	switch o {
	case OpB, OpBL, OpRET:
		return true
	case OpBEQ:
		return f.Z
	case OpBNE:
		return !f.Z
	case OpBLT:
		return f.N != f.V
	case OpBGE:
		return f.N == f.V
	case OpBGT:
		return !f.Z && f.N == f.V
	case OpBLE:
		return f.Z || f.N != f.V
	case OpBHS:
		return f.C
	case OpBLO:
		return !f.C
	case OpBHI:
		return f.C && !f.Z
	case OpBLS:
		return !f.C || f.Z
	}
	return false
}

// Syscall numbers (passed in r7; arguments in r0..r2).
const (
	SysExit   = 1 // exit(status r0)
	SysWrite  = 2 // write(ptr r0, len r1) to the program output stream
	SysPutc   = 3 // putc(byte r0)
	SysPutint = 4 // decimal ASCII of int32 r0, plus trailing '\n'
)

// Memory-map constants shared by every model.
const (
	TextBase  = 0x00000 // program text load address and reset vector
	DataBase  = 0x10000 // default .data section base
	StackTop  = 0x7FFF0 // initial stack pointer (grows down)
	MemSize   = 0x80000 // 512 KiB simulated physical memory
	InstBytes = 4       // bytes per instruction
)
