package rtlcore

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/lanestore"
	"repro/internal/mem"
	"repro/internal/refsim"
	"repro/internal/rtl"
	"repro/internal/trace"
)

// Exception codes carried through the pipeline's exc latches.
const (
	excNone   = 0
	excFetch  = 1
	excDecode = 2
	excMem    = 3
)

// stage is one set of pipeline latches.
type stage struct {
	ir    *rtl.Reg
	pc    *rtl.Reg
	valid *rtl.Reg
	exc   *rtl.Reg
}

func newStage(sim *rtl.Simulator, name string) stage {
	return stage{
		ir:    sim.Reg(name+"_ir", 32, 0),
		pc:    sim.Reg(name+"_pc", 32, 0),
		valid: sim.Reg(name+"_valid", 1, 0),
		exc:   sim.Reg(name+"_exc", 2, 0),
	}
}

// bubble drives an empty slot into the stage latches.
func (s stage) bubble() {
	s.ir.SetD(0)
	s.pc.SetD(0)
	s.valid.SetD(0)
	s.exc.SetD(0)
}

// pass copies another stage's instruction identity.
func (s stage) pass(from stage) {
	s.ir.SetD(from.ir.Q())
	s.pc.SetD(from.pc.Q())
	s.valid.SetD(from.valid.Q())
	s.exc.SetD(from.exc.Q())
}

// Core is the RTL CPU: design state lives in the rtl kernel; the Go-side
// fields are the testbench (program output, stop bookkeeping, counters).
type Core struct {
	cfg     cache.Hierarchy
	sim     *rtl.Simulator
	backing *mem.Memory

	// Pinout is the core-boundary observation point; nil disables it.
	Pinout *trace.Pinout

	pc      *rtl.Reg
	regfile *rtl.Mem
	flags   *rtl.Reg
	halted  *rtl.Reg
	stall   *rtl.Reg

	ifid  stage
	idex  stage
	exmem stage
	memwb stage

	// Operand and result latches.
	idexA   *rtl.Reg // rn (or LR) value read in ID
	idexB   *rtl.Reg // rm value read in ID
	idexSt  *rtl.Reg // store data read in ID
	exmemR  *rtl.Reg // ALU result or memory address
	exmemSt *rtl.Reg // forwarded store data
	memwbV  *rtl.Reg // value to write back

	l1i *rtlCache
	l1d *rtlCache

	// prog is the loaded program, whose shared decode table
	// (asm.Program.Decoded) decode reads for the very word a stage
	// latches. It is the program's, not the design's: no state rides on
	// it.
	prog *asm.Program

	// latches is every non-array state element in name order: the flat
	// latch fault space of fault.TargetLatches, latchBits bits, built
	// once (persistent latch faults are re-forced after every cycle).
	latches   []*rtl.Reg
	latchBits int

	// lanes, when non-nil, is the value-lane store of the lockstep replay
	// lanes riding this instance (lanes.go, AttachLanes).
	lanes *laneStore

	// Testbench state.
	Output    []byte
	Stop      refsim.StopReason
	ExitCode  uint32
	FaultDesc string
	Insts     uint64
}

// New elaborates the design with the program image loaded, over the
// memory hierarchy h. The pipeline itself is fixed: scalar, 5 stages,
// full forwarding.
func New(p *asm.Program, h cache.Hierarchy) (*Core, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	backing, err := p.NewImage()
	if err != nil {
		return nil, err
	}
	sim := rtl.NewSimulator()
	c := &Core{
		cfg:     h,
		sim:     sim,
		backing: backing,
		pc:      sim.Reg("pc", 32, uint64(p.TextBase)),
		regfile: sim.Mem("regfile", 16, 32),
		flags:   sim.Reg("flags", 4, 0),
		halted:  sim.Reg("halted", 1, 0),
		stall:   sim.Reg("stall", 8, 0),
		ifid:    newStage(sim, "ifid"),
		idex:    newStage(sim, "idex"),
		exmem:   newStage(sim, "exmem"),
		memwb:   newStage(sim, "memwb"),
		idexA:   sim.Reg("idex_a", 32, 0),
		idexB:   sim.Reg("idex_b", 32, 0),
		idexSt:  sim.Reg("idex_st", 32, 0),
		exmemR:  sim.Reg("exmem_r", 32, 0),
		exmemSt: sim.Reg("exmem_st", 32, 0),
		memwbV:  sim.Reg("memwb_v", 32, 0),
	}
	c.l1i = newRTLCache(sim, "l1i", h.L1I, backing, false)
	c.l1d = newRTLCache(sim, "l1d", h.L1D, backing, true)
	c.regfile.Init(int(isa.SP), uint64(isa.StackTop))
	c.latches = sim.RegsByPrefix("")
	for _, r := range c.latches {
		c.latchBits += r.Width()
	}
	c.prog = p
	c.l1i.fbLine = -1
	c.eval() // reset release
	return c, nil
}

// Cycles returns the number of completed clock cycles.
func (c *Core) Cycles() uint64 { return c.sim.CycleCount }

// Step advances one clock cycle; it returns false once halted.
func (c *Core) Step() bool {
	if c.Stop != refsim.StopNone {
		return false
	}
	if c.lanes != nil {
		c.lanes.edge()
	}
	c.sim.Tick()
	c.eval()
	return c.Stop == refsim.StopNone
}

// Run advances until the program stops or maxCycles elapse.
func (c *Core) Run(maxCycles uint64) refsim.StopReason {
	for c.Stop == refsim.StopNone {
		if c.sim.CycleCount >= maxCycles {
			c.Stop = refsim.StopLimit
			break
		}
		c.Step()
	}
	return c.Stop
}

func (c *Core) halt(stop refsim.StopReason, desc string) {
	c.halted.SetD(1)
	c.Stop = stop
	c.FaultDesc = desc
}

// dstReg returns the architectural register an opcode writes at WB, or
// -1 (BL writes the link register).
func dstReg(in isa.Inst) int {
	switch {
	case in.Op == isa.OpBL:
		return int(isa.LR)
	case in.Op.WritesRd():
		return int(in.Rd)
	}
	return -1
}

// srcRegs returns the architectural registers an instruction reads: the
// first n entries of regs.
func srcRegs(in isa.Inst) (regs [3]isa.Reg, n int) {
	if in.Op == isa.OpRET {
		regs[0] = isa.LR
		return regs, 1
	}
	if in.Op.ReadsRn() {
		regs[n] = in.Rn
		n++
	}
	if in.Op.ReadsRm() {
		regs[n] = in.Rm
		n++
	}
	if in.Op.IsStore() {
		regs[n] = in.Rd
		n++
	}
	return regs, n
}

// decode returns the instruction a stage's latches hold and whether its
// word decodes at all. The decode table's entry for the latched pc
// serves when it holds the latched word — the word check makes it exact
// for any pc and any word, a store into the text or a flipped latch
// included; otherwise the word is decoded here.
func (c *Core) decode(s stage) (isa.Inst, bool) {
	w, text := uint32(s.ir.Q()), c.prog.Decoded()
	if i := (uint32(s.pc.Q()) - c.prog.TextBase) / isa.InstBytes; i < uint32(len(text)) && text[i].Word == w {
		return text[i].Inst, !text[i].Bad
	}
	in, err := isa.Decode(w)
	return in, err == nil
}

// eval is the whole-core combinational logic, evaluated once after every
// clock edge (and once at reset release, in New). Stages are computed
// WB-first so same-cycle dataflow (forwarding, branch squash) reads
// consistent values, exactly as a synthesis-style RTL description would
// resolve within one cycle.
func (c *Core) eval() {
	if c.halted.QBool() || c.Stop != refsim.StopNone {
		return
	}
	if c.stall.Q() > 0 {
		c.stall.SetD(c.stall.Q() - 1)
		return
	}
	var stallCycles uint64
	// Lanes with a register or latch diff: the hooks on those planes run
	// only then (lanes.go).
	dense := c.lanes != nil && c.lanes.dense.Any()

	// Each valid stage latch is decoded once; the stages below share the
	// result (MEM and the EX forwarding network both look at exmem.ir,
	// EX and the ID load-use check both at idex.ir). Every use is gated
	// by the stage's valid latch, so an empty slot is not decoded.
	var wbIn, memIn, exIn isa.Inst
	var wbOK, memOK, exOK bool
	if c.memwb.valid.QBool() {
		wbIn, wbOK = c.decode(c.memwb)
	}
	if c.exmem.valid.QBool() {
		memIn, memOK = c.decode(c.exmem)
	}
	if c.idex.valid.QBool() {
		exIn, exOK = c.decode(c.idex)
	}

	// ------------------------------------------------------------- WB
	wbValid := c.memwb.valid.QBool()
	wbVal := uint32(c.memwbV.Q())
	wbDst := -1
	if wbValid {
		switch c.memwb.exc.Q() {
		case excFetch:
			c.halt(refsim.StopFault, fmt.Sprintf("fetch out of range at %#x", uint32(c.memwb.pc.Q())))
			return
		case excDecode:
			c.halt(refsim.StopFault, fmt.Sprintf("decode at %#x", uint32(c.memwb.pc.Q())))
			return
		case excMem:
			c.Insts++
			c.halt(refsim.StopFault, fmt.Sprintf("memory fault at %#x", uint32(c.memwb.pc.Q())))
			return
		}
		in := wbIn
		if !wbOK {
			// Possible only under fault injection into the latches.
			c.halt(refsim.StopFault, fmt.Sprintf("latched garbage at WB (pc %#x)", uint32(c.memwb.pc.Q())))
			return
		}
		switch {
		case in.Op == isa.OpHLT:
			c.Insts++
			c.halt(refsim.StopHalt, "")
			return
		case in.Op == isa.OpSVC:
			c.Insts++
			if dense {
				for _, r := range [...]src{src(isa.R7), src(isa.R0), src(isa.R1)} {
					c.lanes.peelOn(r, lanestore.PeelSyscall)
				}
			}
			num := uint32(c.regfile.Read(int(isa.R7)))
			a0 := uint32(c.regfile.Read(int(isa.R0)))
			a1 := uint32(c.regfile.Read(int(isa.R1)))
			frag, exited, ok := refsim.Syscall(num, a0, a1, cacheView{c.l1d})
			if !ok {
				c.halt(refsim.StopFault, fmt.Sprintf("syscall %d failed at %#x", num, uint32(c.memwb.pc.Q())))
				return
			}
			if l := c.lanes; l != nil && num == isa.SysWrite && (l.L1D.Any() || l.Mem.Any()) {
				l.output(a0, a1, len(c.Output))
			}
			c.Output = append(c.Output, frag...)
			if exited {
				c.ExitCode = a0
				c.halt(refsim.StopExit, "")
				return
			}
		default:
			c.Insts++
			if d := dstReg(in); d >= 0 {
				wbDst = d
				c.regfile.Write(d, uint64(wbVal))
				if dense && c.lanes.q.At[latV].Any() {
					c.lanes.writeReg()
				}
			}
		}
	}

	// ------------------------------------------------------------ MEM
	c.memwb.pass(c.exmem)
	memResult := uint32(c.exmemR.Q())
	memSrc := srcLat + latR // where memResult comes from, if not a load
	if c.exmem.valid.QBool() && c.exmem.exc.Q() == excNone {
		in := memIn
		if !memOK {
			c.memwb.exc.SetD(excDecode)
		} else if in.Op.IsMem() {
			addr := uint32(c.exmemR.Q())
			if dense && c.lanes.q.At[latR].Any() {
				c.lanes.peelOn(srcLat+latR, lanestore.PeelAddress)
			}
			cyc := c.sim.CycleCount
			byteOp := in.Op == isa.OpLDRB || in.Op == isa.OpLDRBR ||
				in.Op == isa.OpSTRB || in.Op == isa.OpSTRBR
			var res accessResult
			var ok bool
			switch {
			case in.Op.IsLoad() && byteOp:
				var b byte
				b, res, ok = c.l1d.loadByte(addr, cyc, c.Pinout)
				memResult = uint32(b)
			case in.Op.IsLoad():
				memResult, res, ok = c.l1d.loadWord(addr, cyc, c.Pinout)
			case byteOp:
				res, ok = c.l1d.storeByte(addr, byte(c.exmemSt.Q()), cyc, c.Pinout)
			default:
				res, ok = c.l1d.storeWord(addr, uint32(c.exmemSt.Q()), cyc, c.Pinout)
			}
			if !ok {
				c.memwb.exc.SetD(excMem)
			} else if res.miss {
				stallCycles = uint64(c.cfg.MemLatency)
			}
			if in.Op.IsLoad() {
				memSrc = srcNone
				if l := c.lanes; ok && l != nil && (l.L1D.Any() || l.Mem.Any() || l.d.At[latV].Any()) {
					size := uint32(4)
					if byteOp {
						size = 1
					}
					l.load(addr, res.byteIdx(c.l1d), res.miss, size)
					memSrc = srcLoaded
				}
			} else if l := c.lanes; ok && l != nil && (l.q.At[latMSt].Any() || byteOp && (l.L1D.Any() || l.Mem.Any())) {
				l.store(c.l1d.data.Queued()-1, addr, res.byteIdx(c.l1d), res.miss, byteOp)
			}
		}
	}
	c.memwbV.SetD(uint64(memResult))
	if dense && memSrc != srcLoaded {
		c.lanes.move(latV, memSrc)
	}

	// ------------------------------------------------------------- EX
	// Forwarding: ALU results from the instruction now in MEM, any
	// result (including loads) from the instruction now in WB. The
	// source is returned with the value: value lanes take their diff
	// from the source golden selected.
	fwd := func(r isa.Reg, latched *rtl.Reg, lat src) (uint32, src) {
		if c.exmem.valid.QBool() && c.exmem.exc.Q() == excNone && memOK &&
			!memIn.Op.IsLoad() && dstReg(memIn) == int(r) {
			return uint32(c.exmemR.Q()), srcLat + latR
		}
		if wbDst == int(r) {
			return wbVal, srcLat + latV
		}
		return uint32(latched.Q()), lat
	}
	redirect := false
	var redirTarget uint32
	c.exmem.pass(c.idex)
	exResult := uint64(0)
	exSt, stSrc := c.idexSt.Q(), srcLat+latSt
	exDst := -1 // the data latch the execute datapath drives
	if c.idex.valid.QBool() && c.idex.exc.Q() == excNone {
		in := exIn
		if !exOK {
			c.exmem.exc.SetD(excDecode)
		} else {
			pc := uint32(c.idex.pc.Q())
			op := in.Op
			imm := uint32(in.Imm)
			var a, b uint32
			sa, sb := srcNone, srcNone
			if op == isa.OpRET {
				a, sa = fwd(isa.LR, c.idexA, srcLat+latA)
			} else if op.ReadsRn() {
				a, sa = fwd(in.Rn, c.idexA, srcLat+latA)
			}
			if op.ReadsRm() {
				b, sb = fwd(in.Rm, c.idexB, srcLat+latB)
			}
			if op.IsStore() {
				var st uint32
				st, stSrc = fwd(in.Rd, c.idexSt, srcLat+latSt)
				exSt = uint64(st)
			}
			// The opcode gates the execute datapath: beside the flags
			// subtractor only its unit evaluates, exact because no
			// fault site lies inside a unit (datapath.go).
			switch {
			case op == isa.OpCMP:
				exDst = latFlags
			case op == isa.OpCMPI:
				b, sb, exDst = imm, srcNone, latFlags
			case op == isa.OpMOVI:
				a, sa, b, sb, exDst = 0, srcNone, imm, srcNone, latR
			case op == isa.OpMOVT:
				a, sa = fwd(in.Rd, c.idexA, srcLat+latA)
				b, sb, exDst = imm, srcNone, latR
			case op.IsALUReg():
				exDst = latR
			case op.IsALUImm():
				b, sb, exDst = imm, srcNone, latR
			case op.IsMem():
				if op == isa.OpLDR || op == isa.OpSTR || op == isa.OpLDRB || op == isa.OpSTRB {
					b, sb = imm, srcNone
				}
				exDst = latR
			case op == isa.OpRET:
				redirect = true
				redirTarget = a
				if dense && c.lanes.members(sa).Any() {
					c.lanes.peelOn(sa, lanestore.PeelTarget)
				}
			case op == isa.OpBL:
				redirect = true
				redirTarget = branchAdder(pc, in)
				exResult = uint64(netAdd(pc, isa.InstBytes))
			case op == isa.OpB:
				redirect = true
				redirTarget = branchAdder(pc, in)
			case op.IsCondBranch():
				f := uint8(c.flags.Q())
				taken := isa.CondHolds(op, isa.UnpackFlags(f))
				if taken {
					redirect = true
					redirTarget = branchAdder(pc, in)
				}
				if dense && c.lanes.q.At[latFlags].Any() {
					c.lanes.branch(op, f, taken)
				}
			}
			if exDst >= 0 {
				out := evalDatapath(op, a, b)
				if exDst == latFlags {
					c.flags.SetD(uint64(out.flags.Pack()))
				} else {
					exResult = uint64(out.result)
				}
				if dense {
					c.lanes.exec(op, exDst, sa, sb, a, b, out)
				}
			}
		}
	}
	c.exmemR.SetD(exResult)
	c.exmemSt.SetD(exSt)
	if dense {
		if exDst != latR {
			c.lanes.move(latR, srcNone)
		}
		c.lanes.move(latMSt, stSrc)
	}

	// ------------------------------------------------------------- ID
	loadUse := false
	srcA, srcB, srcSt := srcNone, srcNone, srcNone // what the operand latches read
	idValid := c.ifid.valid.QBool()
	if idValid && c.ifid.exc.Q() == excNone && !redirect {
		in, ok := c.decode(c.ifid)
		if !ok {
			c.idex.pass(c.ifid)
			c.idex.exc.SetD(excDecode)
			c.idexA.SetD(0)
			c.idexB.SetD(0)
			c.idexSt.SetD(0)
		} else {
			// Load-use interlock: producer load in EX this cycle.
			if c.idex.valid.QBool() && c.idex.exc.Q() == excNone {
				if exOK && exIn.Op.IsLoad() {
					regs, n := srcRegs(in)
					for _, s := range regs[:n] {
						if int(s) == dstReg(exIn) {
							loadUse = true
						}
					}
					// MOVT reads its own destination through rd.
					if in.Op == isa.OpMOVT && dstReg(exIn) == int(in.Rd) {
						loadUse = true
					}
				}
			}
			if loadUse {
				c.idex.bubble()
				c.idexA.SetD(0)
				c.idexB.SetD(0)
				c.idexSt.SetD(0)
			} else {
				// Register read with WB bypass (write-first regfile).
				read := func(r isa.Reg) (uint64, src) {
					if wbDst == int(r) {
						return uint64(wbVal), srcLat + latV
					}
					return c.regfile.Read(int(r)), src(r)
				}
				c.idex.pass(c.ifid)
				var v uint64
				switch {
				case in.Op == isa.OpRET:
					v, srcA = read(isa.LR)
				case in.Op == isa.OpMOVT:
					v, srcA = read(in.Rd)
				case in.Op.ReadsRn():
					v, srcA = read(in.Rn)
				}
				c.idexA.SetD(v)
				v = 0
				if in.Op.ReadsRm() {
					v, srcB = read(in.Rm)
				}
				c.idexB.SetD(v)
				v = 0
				if in.Op.IsStore() {
					v, srcSt = read(in.Rd)
				}
				c.idexSt.SetD(v)
			}
		}
	} else if idValid && c.ifid.exc.Q() != excNone && !redirect {
		c.idex.pass(c.ifid)
		c.idexA.SetD(0)
		c.idexB.SetD(0)
		c.idexSt.SetD(0)
	} else {
		c.idex.bubble()
		c.idexA.SetD(0)
		c.idexB.SetD(0)
		c.idexSt.SetD(0)
	}
	if dense {
		c.lanes.move(latA, srcA)
		c.lanes.move(latB, srcB)
		c.lanes.move(latSt, srcSt)
	}

	// ------------------------------------------------------------- IF
	switch {
	case redirect:
		c.pc.SetD(uint64(redirTarget))
		c.ifid.bubble()
	case loadUse:
		// Hold pc and ifid (no SetD = hold).
	default:
		pc := uint32(c.pc.Q())
		w, miss, ok := c.l1i.fetch(pc, c.sim.CycleCount, c.Pinout)
		switch {
		case !ok:
			c.ifid.ir.SetD(0)
			c.ifid.pc.SetD(uint64(pc))
			c.ifid.valid.SetD(1)
			c.ifid.exc.SetD(excFetch)
			c.pc.SetD(uint64(netAdd(pc, isa.InstBytes)))
		case miss:
			if l := c.lanes; l != nil && l.Mem.Any() {
				lb := uint32(c.cfg.L1I.LineBytes)
				l.IFetch(pc&^(lb-1), lb)
			}
			if uint64(c.cfg.MemLatency) > stallCycles {
				stallCycles = uint64(c.cfg.MemLatency)
			}
			c.ifid.bubble()
			// pc holds; the refetch hits after the stall.
		default:
			c.ifid.ir.SetD(uint64(w))
			c.ifid.pc.SetD(uint64(pc))
			c.ifid.valid.SetD(1)
			c.ifid.exc.SetD(excNone)
			c.pc.SetD(uint64(netAdd(pc, isa.InstBytes)))
		}
	}

	if stallCycles > 0 {
		c.stall.SetD(stallCycles)
	}
}

// ReadArchReg returns the architectural value of register r (testbench
// helper; valid between cycles).
func (c *Core) ReadArchReg(r int) uint32 {
	return uint32(c.regfile.Read(r & 15))
}
