// Package asm implements a two-pass assembler for the AL32 instruction
// set, producing loadable program images.
//
// Source syntax (one statement per line):
//
//	; comment        @ comment        // comment
//	label:           label: add r1, r2, r3
//	.text            .data
//	.word e[, e...]  .byte e[, e...]  .space n   .align n
//	.ascii "s"       .asciz "s"       .equ name, e
//	add rd, rn, rm   addi rd, rn, #imm
//	ldr rd, [rn]     ldr rd, [rn, #off]    ldr rd, [rn, rm]
//	b label          beq label             bl label
//	li rd, e         push {r4, r5, lr}     pop {r4, r5, lr}
//
// Expressions are additive combinations of integer literals (decimal,
// 0x hex, 0b binary, character 'c') and symbols.
package asm

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Program is an assembled, loadable AL32 program image.
type Program struct {
	Name     string
	Text     []uint32          // encoded instructions, loaded at TextBase
	Data     []byte            // initialised data, loaded at DataBase
	TextBase uint32            // load address of Text (the entry point)
	DataBase uint32            // load address of Data
	Symbols  map[string]uint32 // label and .equ values

	decoded []Decoded // Text decoded word by word, built by Assemble
}

// Decoded is one text word and what isa.Decode makes of it.
type Decoded struct {
	Word uint32
	Inst isa.Inst // zero when Bad
	Bad  bool     // Word is not an instruction
}

// Decoded returns the text section decoded word by word, entry i for
// Text[i]. It is built once, by Assemble, and shared read-only by every
// simulator loaded from the program (nil for a Program built by hand).
// An entry speaks for its own Word only: a simulator whose memory holds
// another word at that address — a store into the text, a fault —
// decodes that word itself.
func (p *Program) Decoded() []Decoded { return p.decoded }

func decodeText(text []uint32) []Decoded {
	out := make([]Decoded, len(text))
	for i, w := range text {
		in, err := isa.Decode(w)
		out[i] = Decoded{Word: w, Inst: in, Bad: err != nil}
	}
	return out
}

// TextBytes returns the text section encoded as little-endian bytes.
func (p *Program) TextBytes() []byte {
	out := make([]byte, 4*len(p.Text))
	for i, w := range p.Text {
		out[4*i] = byte(w)
		out[4*i+1] = byte(w >> 8)
		out[4*i+2] = byte(w >> 16)
		out[4*i+3] = byte(w >> 24)
	}
	return out
}

// LoadInto writes the program image into memory m.
func (p *Program) LoadInto(m *mem.Memory) error {
	if !m.StoreBytes(p.TextBase, p.TextBytes()) {
		return fmt.Errorf("program %q: text does not fit at %#x", p.Name, p.TextBase)
	}
	if !m.StoreBytes(p.DataBase, p.Data) {
		return fmt.Errorf("program %q: data does not fit at %#x", p.Name, p.DataBase)
	}
	return nil
}

// NewImage allocates a memory image of the standard size with the program
// loaded at its bases.
func (p *Program) NewImage() (*mem.Memory, error) {
	m := mem.New(isa.MemSize)
	if err := p.LoadInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Disassemble returns a listing of the text section.
func (p *Program) Disassemble() []string {
	out := make([]string, 0, len(p.Text))
	for i, w := range p.Text {
		pc := p.TextBase + uint32(4*i)
		in, err := isa.Decode(w)
		var s string
		if err != nil {
			s = fmt.Sprintf("%08x: %08x  <invalid>", pc, w)
		} else {
			s = fmt.Sprintf("%08x: %08x  %s", pc, w, in)
		}
		out = append(out, s)
	}
	return out
}
