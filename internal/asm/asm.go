package asm

import (
	"errors"
	"fmt"

	"strings"

	"repro/internal/isa"
)

// SyntaxError reports an assembly error with source position.
type SyntaxError struct {
	File string
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Assemble translates AL32 assembly source into a loadable program. The
// name is used in error messages and as Program.Name. On failure it
// returns an error joining every *SyntaxError found.
func Assemble(name, src string) (*Program, error) {
	a := &assembler{
		file: name,
		prog: &Program{
			Name:     name,
			TextBase: isa.TextBase,
			DataBase: isa.DataBase,
			Symbols:  make(map[string]uint32),
		},
	}
	a.run(src)
	if len(a.errs) > 0 {
		return nil, errors.Join(a.errs...)
	}
	a.prog.decoded = decodeText(a.prog.Text)
	return a.prog, nil
}

type section int

const (
	secText section = iota
	secData
)

type stmt struct {
	line   int
	labels []string
	mnem   string // lower-cased mnemonic or directive (with leading '.')
	rest   string // operand text
	sec    section
	addr   uint32 // assigned in pass 1
}

type assembler struct {
	file  string
	prog  *Program
	stmts []stmt
	errs  []error
}

func (a *assembler) errorf(line int, format string, args ...any) {
	a.errs = append(a.errs, &SyntaxError{File: a.file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (a *assembler) run(src string) {
	a.parse(src)
	a.layout()
	if len(a.errs) > 0 {
		return
	}
	a.emit()
}

// parse splits the source into statements, stripping comments and pulling
// labels off the front of each line.
func (a *assembler) parse(src string) {
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		s := stripComment(raw)
		var labels []string
		for {
			s = strings.TrimSpace(s)
			j := strings.IndexByte(s, ':')
			if j < 0 || !isIdent(strings.TrimSpace(s[:j])) {
				break
			}
			labels = append(labels, strings.TrimSpace(s[:j]))
			s = s[j+1:]
		}
		s = strings.TrimSpace(s)
		if s == "" && len(labels) == 0 {
			continue
		}
		st := stmt{line: line, labels: labels}
		if s != "" {
			sp := strings.IndexAny(s, " \t")
			if sp < 0 {
				st.mnem = strings.ToLower(s)
			} else {
				st.mnem = strings.ToLower(s[:sp])
				st.rest = strings.TrimSpace(s[sp+1:])
			}
		}
		a.stmts = append(a.stmts, st)
	}
}

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inStr = !inStr
		case inStr && c == '\\':
			i++
		case !inStr && (c == ';' || c == '@'):
			return s[:i]
		case !inStr && c == '/' && i+1 < len(s) && s[i+1] == '/':
			return s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// layout is pass 1: assign addresses to every statement and bind labels.
func (a *assembler) layout() {
	sec := secText
	text := uint32(a.prog.TextBase)
	data := uint32(a.prog.DataBase)
	cursor := func() *uint32 {
		if sec == secText {
			return &text
		}
		return &data
	}
	for i := range a.stmts {
		st := &a.stmts[i]
		st.sec = sec
		st.addr = *cursor()
		for _, l := range st.labels {
			if _, dup := a.prog.Symbols[l]; dup {
				a.errorf(st.line, "duplicate symbol %q", l)
				continue
			}
			a.prog.Symbols[l] = st.addr
		}
		if st.mnem == "" {
			continue
		}
		switch st.mnem {
		case ".text":
			sec = secText
		case ".data":
			sec = secData
		case ".equ":
			parts := splitOperands(st.rest)
			if len(parts) != 2 {
				a.errorf(st.line, ".equ needs name, value")
				continue
			}
			if !isIdent(parts[0]) {
				a.errorf(st.line, ".equ: bad name %q", parts[0])
				continue
			}
			v, err := a.eval(parts[1], st.line)
			if err != nil {
				continue
			}
			if _, dup := a.prog.Symbols[parts[0]]; dup {
				a.errorf(st.line, "duplicate symbol %q", parts[0])
				continue
			}
			a.prog.Symbols[parts[0]] = uint32(v)
		case ".align":
			n, err := a.eval(st.rest, st.line)
			if err != nil {
				continue
			}
			if n <= 0 || (sec == secText && n%4 != 0) {
				a.errorf(st.line, ".align %d invalid in this section", n)
				continue
			}
			c := cursor()
			rem := *c % uint32(n)
			if rem != 0 {
				*c += uint32(n) - rem
			}
			// Re-bind labels on this line to the aligned address.
			for _, l := range st.labels {
				a.prog.Symbols[l] = *c
			}
			st.addr = *c
		case ".word":
			*cursor() += 4 * uint32(len(splitOperands(st.rest)))
		case ".byte":
			if sec == secText {
				a.errorf(st.line, ".byte not allowed in .text")
				continue
			}
			*cursor() += uint32(len(splitOperands(st.rest)))
		case ".space":
			n, err := a.eval(st.rest, st.line)
			if err != nil {
				continue
			}
			if n < 0 {
				a.errorf(st.line, ".space %d invalid", n)
				continue
			}
			if sec == secText {
				a.errorf(st.line, ".space not allowed in .text")
				continue
			}
			*cursor() += uint32(n)
		case ".ascii", ".asciz":
			if sec == secText {
				a.errorf(st.line, "%s not allowed in .text", st.mnem)
				continue
			}
			b, err := a.parseString(st.rest, st.line)
			if err != nil {
				continue
			}
			n := uint32(len(b))
			if st.mnem == ".asciz" {
				n++
			}
			*cursor() += n
		default:
			if strings.HasPrefix(st.mnem, ".") {
				a.errorf(st.line, "unknown directive %s", st.mnem)
				continue
			}
			if sec != secText {
				a.errorf(st.line, "instruction in .data section")
				continue
			}
			text += 4 * a.instWords(st)
		}
	}
	if text > a.prog.DataBase {
		a.errorf(0, "text section overflows into data (%#x > %#x)", text, a.prog.DataBase)
	}
}

// instWords returns the number of 32-bit words a (possibly pseudo)
// instruction expands to.
func (a *assembler) instWords(st *stmt) uint32 {
	switch st.mnem {
	case "li", "adr":
		return 2
	case "push", "pop":
		n := len(splitOperands(strings.Trim(st.rest, "{} \t")))
		return uint32(n + 1)
	default:
		return 1
	}
}

// emit is pass 2: encode instructions and data now that symbols are known.
func (a *assembler) emit() {
	for i := range a.stmts {
		st := &a.stmts[i]
		if st.mnem == "" || st.mnem == ".text" || st.mnem == ".data" || st.mnem == ".equ" {
			continue
		}
		switch st.mnem {
		case ".align":
			a.emitAlign(st)
		case ".word":
			for _, op := range splitOperands(st.rest) {
				v, err := a.eval(op, st.line)
				if err != nil {
					continue
				}
				a.emitWord(st, uint32(v))
			}
		case ".byte":
			for _, op := range splitOperands(st.rest) {
				v, err := a.eval(op, st.line)
				if err != nil {
					continue
				}
				a.prog.Data = append(a.prog.Data, byte(v))
			}
		case ".space":
			n, _ := a.eval(st.rest, st.line)
			a.prog.Data = append(a.prog.Data, make([]byte, n)...)
		case ".ascii", ".asciz":
			b, err := a.parseString(st.rest, st.line)
			if err != nil {
				continue
			}
			a.prog.Data = append(a.prog.Data, b...)
			if st.mnem == ".asciz" {
				a.prog.Data = append(a.prog.Data, 0)
			}
		default:
			a.emitInst(st)
		}
	}
}

func (a *assembler) emitAlign(st *stmt) {
	if st.sec == secText {
		for a.textAddr() < st.addr {
			a.appendInst(st.line, isa.Inst{Op: isa.OpNOP})
		}
		return
	}
	for a.dataAddr() < st.addr {
		a.prog.Data = append(a.prog.Data, 0)
	}
}

func (a *assembler) textAddr() uint32 {
	return a.prog.TextBase + 4*uint32(len(a.prog.Text))
}

func (a *assembler) dataAddr() uint32 {
	return a.prog.DataBase + uint32(len(a.prog.Data))
}

func (a *assembler) emitWord(st *stmt, w uint32) {
	if st.sec == secText {
		a.prog.Text = append(a.prog.Text, w)
		return
	}
	a.prog.Data = append(a.prog.Data, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
}

func (a *assembler) appendInst(line int, in isa.Inst) {
	w, err := isa.Encode(in)
	if err != nil {
		a.errorf(line, "%v", err)
		w = 0
	}
	a.prog.Text = append(a.prog.Text, w)
}
