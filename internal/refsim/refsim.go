// Package refsim implements the functional (architectural) reference
// interpreter for AL32. It models architectural state only — registers,
// PC, flags, memory — with no timing, and is the third abstraction level
// the paper's taxonomy calls an "architectural emulator".
//
// The reference interpreter serves three roles:
//
//  1. executable specification: the microarchitectural and RTL models are
//     cross-validated against it instruction by instruction;
//  2. golden-output oracle for benchmark validation;
//  3. host for the syscall ABI (Syscall), which the other models call so
//     that program-visible behaviour is identical everywhere.
package refsim

import (
	"fmt"
	"strconv"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// StopReason reports why execution stopped.
type StopReason int

// Stop reasons.
const (
	StopNone  StopReason = iota // still running
	StopExit                    // SysExit performed
	StopHalt                    // HLT retired
	StopFault                   // bad fetch, decode or data access
	StopLimit                   // instruction budget exhausted
)

var stopNames = map[StopReason]string{
	StopNone: "running", StopExit: "exit", StopHalt: "halt",
	StopFault: "fault", StopLimit: "limit",
}

func (r StopReason) String() string {
	if s, ok := stopNames[r]; ok {
		return s
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// CPU is the architectural state of the reference interpreter.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	PC    uint32
	Flags isa.Flags
	Mem   *mem.Memory

	Output    []byte
	Exited    bool
	ExitCode  uint32
	Stop      StopReason
	FaultDesc string
	InstCount uint64
}

// New builds a CPU with the program loaded and the ABI initial state
// (SP at the stack top, PC at the text base).
func New(p *asm.Program) (*CPU, error) {
	m, err := p.NewImage()
	if err != nil {
		return nil, err
	}
	c := &CPU{Mem: m, PC: p.TextBase}
	c.Regs[isa.SP] = isa.StackTop
	return c, nil
}

// Step executes one instruction. It returns false when execution has
// stopped (c.Stop holds the reason).
func (c *CPU) Step() bool {
	if c.Stop != StopNone {
		return false
	}
	w, ok := c.Mem.LoadWord(c.PC)
	if !ok {
		c.fault("fetch out of range at %#x", c.PC)
		return false
	}
	in, err := isa.Decode(w)
	if err != nil {
		c.fault("decode at %#x: %v", c.PC, isa.DecodeError{Word: w})
		return false
	}
	c.InstCount++
	next := c.PC + isa.InstBytes
	op := in.Op
	switch {
	case op == isa.OpNOP:
	case op == isa.OpHLT:
		c.Stop = StopHalt
		c.Exited = true
		return false
	case op == isa.OpSVC:
		frag, exited, ok := Syscall(c.Regs[isa.R7], c.Regs[isa.R0], c.Regs[isa.R1], c.Mem)
		if !ok {
			c.fault("syscall %d failed at %#x", c.Regs[isa.R7], c.PC)
			return false
		}
		c.Output = append(c.Output, frag...)
		if exited {
			c.Stop = StopExit
			c.Exited = true
			c.ExitCode = c.Regs[isa.R0]
			return false
		}
	case op == isa.OpCMP:
		c.Flags = isa.SubFlags(c.Regs[in.Rn], c.Regs[in.Rm])
	case op == isa.OpCMPI:
		c.Flags = isa.SubFlags(c.Regs[in.Rn], uint32(in.Imm))
	case op.IsALUReg():
		c.Regs[in.Rd] = isa.EvalALU(op, c.Regs[in.Rn], c.Regs[in.Rm])
	case op == isa.OpMOVI:
		c.Regs[in.Rd] = uint32(in.Imm)
	case op == isa.OpMOVT:
		c.Regs[in.Rd] = isa.EvalALU(op, c.Regs[in.Rd], uint32(in.Imm))
	case op.IsALUImm():
		c.Regs[in.Rd] = isa.EvalALU(op, c.Regs[in.Rn], uint32(in.Imm))
	case op.IsMem():
		if !c.execMem(in) {
			return false
		}
	case op == isa.OpRET:
		next = c.Regs[isa.LR]
	case op == isa.OpBL:
		c.Regs[isa.LR] = next
		next = in.BranchTarget(c.PC)
	case op.IsBranch():
		if isa.CondHolds(op, c.Flags) {
			next = in.BranchTarget(c.PC)
		}
	default:
		c.fault("unimplemented opcode %s at %#x", op, c.PC)
		return false
	}
	c.PC = next
	return true
}

func (c *CPU) execMem(in isa.Inst) bool {
	addr := c.Regs[in.Rn]
	switch in.Op {
	case isa.OpLDR, isa.OpSTR, isa.OpLDRB, isa.OpSTRB:
		addr += uint32(in.Imm)
	case isa.OpLDRR, isa.OpSTRR, isa.OpLDRBR, isa.OpSTRBR:
		addr += c.Regs[in.Rm]
	}
	if (in.Op == isa.OpLDR || in.Op == isa.OpLDRR ||
		in.Op == isa.OpSTR || in.Op == isa.OpSTRR) && addr&3 != 0 {
		c.fault("unaligned word access at %#x (pc %#x)", addr, c.PC)
		return false
	}
	switch in.Op {
	case isa.OpLDR, isa.OpLDRR:
		v, ok := c.Mem.LoadWord(addr)
		if !ok {
			c.fault("load word out of range at %#x (pc %#x)", addr, c.PC)
			return false
		}
		c.Regs[in.Rd] = v
	case isa.OpLDRB, isa.OpLDRBR:
		v, ok := c.Mem.LoadByte(addr)
		if !ok {
			c.fault("load byte out of range at %#x (pc %#x)", addr, c.PC)
			return false
		}
		c.Regs[in.Rd] = uint32(v)
	case isa.OpSTR, isa.OpSTRR:
		if !c.Mem.StoreWord(addr, c.Regs[in.Rd]) {
			c.fault("store word out of range at %#x (pc %#x)", addr, c.PC)
			return false
		}
	case isa.OpSTRB, isa.OpSTRBR:
		if !c.Mem.StoreByte(addr, byte(c.Regs[in.Rd])) {
			c.fault("store byte out of range at %#x (pc %#x)", addr, c.PC)
			return false
		}
	}
	return true
}

func (c *CPU) fault(format string, args ...any) {
	c.Stop = StopFault
	c.FaultDesc = fmt.Sprintf(format, args...)
}

// Run executes until the program stops or maxInst instructions have
// retired, whichever comes first, and returns the stop reason.
func (c *CPU) Run(maxInst uint64) StopReason {
	for c.Stop == StopNone {
		if c.InstCount >= maxInst {
			c.Stop = StopLimit
			break
		}
		c.Step()
	}
	return c.Stop
}

// ByteLoader is the memory view a syscall reads through. Cached models
// pass a view that observes dirty cache lines; the reference interpreter
// passes memory directly.
type ByteLoader interface {
	LoadBytes(addr, n uint32) ([]byte, bool)
}

var _ ByteLoader = (*mem.Memory)(nil)

// Syscall implements the AL32 syscall ABI shared by every model:
// the syscall number is in r7, arguments in r0 and r1. It returns the
// bytes the call appends to the program output, whether the program
// exited, and whether the call was valid.
func Syscall(num, a0, a1 uint32, m ByteLoader) (out []byte, exited, ok bool) {
	switch num {
	case isa.SysExit:
		return nil, true, true
	case isa.SysWrite:
		buf, ok := m.LoadBytes(a0, a1)
		if !ok {
			return nil, false, false
		}
		return buf, false, true
	case isa.SysPutc:
		return []byte{byte(a0)}, false, true
	case isa.SysPutint:
		b := strconv.AppendInt(nil, int64(int32(a0)), 10)
		return append(b, '\n'), false, true
	default:
		return nil, false, false
	}
}
