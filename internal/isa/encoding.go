package isa

import (
	"errors"
	"fmt"
)

// Inst is a decoded AL32 instruction.
type Inst struct {
	Op  Opcode
	Rd  Reg
	Rn  Reg
	Rm  Reg
	Imm int32 // imm12/imm16 (sign-extended as appropriate) or off24 word offset
}

// Immediate range limits for the three encoding field widths.
const (
	Imm12Min = -2048
	Imm12Max = 2047
	Imm16Min = -32768
	Imm16Max = 32767
	Off24Min = -(1 << 23)
	Off24Max = (1 << 23) - 1
)

// EncodeError describes an instruction that cannot be encoded.
type EncodeError struct {
	Inst   Inst
	Reason string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("encode %s: %s", e.Inst.Op, e.Reason)
}

// immKind classifies how an opcode uses the immediate field.
type immKind int

const (
	immNone immKind = iota
	imm12
	imm16u // MOVT: raw 16-bit field, not sign-extended
	imm16s
	off24
)

func immKindOf(o Opcode) immKind {
	switch {
	case o == OpMOVT:
		return imm16u
	case o == OpMOVI || o == OpCMPI:
		return imm16s
	case o >= OpADDI && o <= OpASRI:
		return imm12
	case o == OpLDR || o == OpSTR || o == OpLDRB || o == OpSTRB:
		return imm12
	case o == OpSVC:
		return imm12
	case o >= OpB && o <= OpBLS:
		return off24
	}
	return immNone
}

// Encode converts a decoded instruction to its 32-bit machine form.
func Encode(in Inst) (uint32, error) {
	if !in.Op.Valid() {
		return 0, &EncodeError{Inst: in, Reason: "invalid opcode"}
	}
	if in.Rd >= NumRegs || in.Rn >= NumRegs || in.Rm >= NumRegs {
		return 0, &EncodeError{Inst: in, Reason: "register out of range"}
	}
	w := uint32(in.Op) << 24
	w |= uint32(in.Rd&0xF) << 20
	w |= uint32(in.Rn&0xF) << 16
	w |= uint32(in.Rm&0xF) << 12
	switch immKindOf(in.Op) {
	case imm12:
		if in.Imm < Imm12Min || in.Imm > Imm12Max {
			return 0, &EncodeError{Inst: in, Reason: fmt.Sprintf("imm12 out of range: %d", in.Imm)}
		}
		w |= uint32(in.Imm) & 0xFFF
	case imm16s:
		if in.Imm < Imm16Min || in.Imm > Imm16Max {
			return 0, &EncodeError{Inst: in, Reason: fmt.Sprintf("imm16 out of range: %d", in.Imm)}
		}
		// imm16 overlaps the rm field; rm must be zero for these ops.
		w &^= 0xF << 12
		w |= uint32(in.Imm) & 0xFFFF
	case imm16u:
		if in.Imm < 0 || in.Imm > 0xFFFF {
			return 0, &EncodeError{Inst: in, Reason: fmt.Sprintf("imm16u out of range: %d", in.Imm)}
		}
		w &^= 0xF << 12
		w |= uint32(in.Imm) & 0xFFFF
	case off24:
		if in.Imm < Off24Min || in.Imm > Off24Max {
			return 0, &EncodeError{Inst: in, Reason: fmt.Sprintf("off24 out of range: %d", in.Imm)}
		}
		// off24 overlaps rd/rn/rm.
		w = uint32(in.Op)<<24 | uint32(in.Imm)&0xFFFFFF
	}
	return w, nil
}

// ErrInvalidWord is what Decode returns for an undecodable word. It is a
// sentinel so that decoding wrong-path fetches — data words, mostly —
// costs no allocation; a caller that reports the failure names the word
// with DecodeError.
var ErrInvalidWord = errors.New("decode: invalid instruction word")

// DecodeError describes an undecodable instruction word.
type DecodeError struct {
	Word uint32
}

func (e DecodeError) Error() string { return string(e.Append(nil)) }

// Append appends the error message to b, allocating only if b lacks room.
func (e DecodeError) Append(b []byte) []byte {
	const digits = "0123456789abcdef"
	b = append(b, "decode: invalid instruction word 0x"...)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, digits[e.Word>>shift&0xF])
	}
	return b
}

func signExt(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode converts a 32-bit machine word to a decoded instruction.
func Decode(w uint32) (Inst, error) {
	op := Opcode(w >> 24)
	if !op.Valid() {
		return Inst{}, ErrInvalidWord
	}
	in := Inst{
		Op: op,
		Rd: Reg(w >> 20 & 0xF),
		Rn: Reg(w >> 16 & 0xF),
		Rm: Reg(w >> 12 & 0xF),
	}
	switch immKindOf(op) {
	case imm12:
		in.Imm = signExt(w&0xFFF, 12)
	case imm16s:
		in.Imm = signExt(w&0xFFFF, 16)
		in.Rm = 0
	case imm16u:
		in.Imm = int32(w & 0xFFFF)
		in.Rm = 0
	case off24:
		in.Imm = signExt(w&0xFFFFFF, 24)
		in.Rd, in.Rn, in.Rm = 0, 0, 0
	}
	return in, nil
}

// String disassembles the instruction.
func (in Inst) String() string {
	o := in.Op
	switch {
	case o == OpNOP || o == OpHLT || o == OpRET:
		return o.String()
	case o == OpSVC:
		return fmt.Sprintf("svc #%d", in.Imm)
	case o == OpMOV || o == OpMVN:
		return fmt.Sprintf("%s %s, %s", o, in.Rd, in.Rm)
	case o == OpMOVI || o == OpMOVT:
		return fmt.Sprintf("%s %s, #%d", o, in.Rd, in.Imm)
	case o == OpCMP:
		return fmt.Sprintf("cmp %s, %s", in.Rn, in.Rm)
	case o == OpCMPI:
		return fmt.Sprintf("cmpi %s, #%d", in.Rn, in.Imm)
	case o.IsALUReg():
		return fmt.Sprintf("%s %s, %s, %s", o, in.Rd, in.Rn, in.Rm)
	case o.IsALUImm():
		return fmt.Sprintf("%s %s, %s, #%d", o, in.Rd, in.Rn, in.Imm)
	case o == OpLDRR || o == OpSTRR || o == OpLDRBR || o == OpSTRBR:
		return fmt.Sprintf("%s %s, [%s, %s]", o, in.Rd, in.Rn, in.Rm)
	case o.IsMem():
		return fmt.Sprintf("%s %s, [%s, #%d]", o, in.Rd, in.Rn, in.Imm)
	case o.IsBranch():
		return fmt.Sprintf("%s %+d", o, in.Imm)
	}
	return fmt.Sprintf("%s ?", o)
}

// BranchTarget returns the byte address targeted by a PC-relative branch at
// byte address pc.
func (in Inst) BranchTarget(pc uint32) uint32 {
	return pc + InstBytes + uint32(in.Imm)*InstBytes
}

// OffsetFor returns the off24 word offset that makes a branch at byte
// address pc jump to target.
func OffsetFor(pc, target uint32) int32 {
	return (int32(target) - int32(pc) - InstBytes) / InstBytes
}
