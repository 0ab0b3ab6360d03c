package microarch

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/lifetime"
	"repro/internal/mem"
	"repro/internal/refsim"
	"repro/internal/trace"
)

// uop is one instruction in flight. It lives in a slot of CPU.uops and
// holds no pointers: other uops are named by slot (see window.go). Its
// fields are ordered to pack into 128 bytes without padding holes:
// Clone, RestoreFrom and the lanes copy the slab flat.
type uop struct {
	seq  uint64
	pc   uint32
	inst isa.Inst

	// Renamed operands: physical register indices, -1 when unused.
	dst    int16 // destination physical register
	oldDst int16 // previous mapping of the destination arch register
	src1   int16 // rn (or LR for RET)
	src2   int16 // rm
	src3   int16 // store data (rd)
	dstAr  int8  // destination architectural register (-1 none)

	writesFlags  bool
	flagProducer slot      // older flag writer, noSlot = use flagsIn
	flagsIn      isa.Flags // committed flags captured at rename

	// Pipeline and branch status.
	inIQ         bool
	issued       bool
	executed     bool
	squashed     bool
	taken        bool
	predTaken    bool
	mispredicted bool
	recovered    bool
	execDone     uint64

	// Results.
	result uint32
	flags  isa.Flags
	target uint32

	// Branch prediction and recovery snapshot.
	predTarget  uint32
	ratSnap     [16]int16
	flagSnap    slot
	flagsInSnap isa.Flags

	// Memory, and the fault raised when the uop reaches the ROB head.
	isLoad    bool
	isStore   bool
	addrReady bool
	size      uint8 // 1 or 4
	fault     faultKind
	addr      uint32
	storeVal  uint32
	faultWord uint32 // the undecodable word of a faultDecode
}

// fetched is a predecoded instruction waiting in the decode queue. The
// word is decoded once, at fetch (decoding is a pure function of the
// word); rename consumes inst.
type fetched struct {
	pc          uint32
	word        uint32
	inst        isa.Inst
	bad         bool // fetch failed (out-of-range PC)
	undecodable bool // word is not an instruction; inst is zero
	predTaken   bool
	predTarget  uint32
}

// CPU is the out-of-order microarchitectural model.
type CPU struct {
	cfg Config

	Mem *mem.Memory
	L1I *cache.Cache
	L1D *cache.Cache

	// Pinout is the core-boundary observation point; nil disables
	// capture.
	Pinout *trace.Pinout

	// Register state. prf is the physical register file (the RF fault
	// injection target); bit p of prfReady is set once register p holds
	// its value; rat/arat are the speculative and architectural rename
	// tables.
	prf       []uint32
	prfReady  uint64
	rat       [16]int16
	arat      [16]int16
	freeList  []int16
	archFlags isa.Flags

	// The in-flight window (window.go): the uop slab, its free list, the
	// committed flag writer that younger branches may still name, and
	// the youngest renamed one.
	uops             []uop
	uopFree          []slot
	retiredFlags     slot
	specFlagProducer slot

	// Frontend. fbLine is the fetch buffer: the flat index of the L1I
	// line the last fetch hit, whose address is fbBase, or -1 after a
	// fill or a restore (fetch has why reading it directly is exact).
	// text is the program's shared decode table (asm.Program.Decoded),
	// entry i for the word at textBase+4i. All four are derived state,
	// so StateHash leaves them out.
	fetchPC         uint32
	fetchStallUntil uint64
	decq            ring[fetched]
	fbLine          int
	fbBase          uint32
	text            []asm.Decoded
	textBase        uint32

	// Backend queues of slab slots, all in program order and all of
	// fixed capacity (ROBSize, IQSize, LSQSize). inflight names the
	// issued-but-unfinished uops, the only ones writeback has to look
	// at; it is derived state (the ROB's uops with issued && !executed),
	// so StateHash leaves it out.
	rob      ring[slot]
	iq       []slot
	lsq      []slot
	inflight []slot

	// Operand readiness, derived state like inflight: deps[s] is what
	// the uop in slot s waits on, and cmpBusy has bit s set while slot s
	// holds a flag writer that has not executed (see issue).
	deps    []deps
	cmpBusy uint64

	// Predictors.
	bimodal []uint8
	ras     []uint32
	rasLen  int

	// ltRF, when non-nil, records the physical register file's access
	// lifetime during the golden run (see SetLifetime); nil on replay
	// workers, so the hot path pays one nil check.
	ltRF *lifetime.Space

	// lanes, when non-nil, is the value-lane store of the lockstep replay
	// lanes riding this instance (lanes.go, AttachLanes).
	lanes *laneStore

	// Functional unit occupancy.
	lsuBusyUntil uint64
	mulBusyUntil uint64

	// Progress and outcome.
	Cycles    uint64
	Insts     uint64 // committed instructions
	seq       uint64
	Output    []byte
	Stop      refsim.StopReason
	ExitCode  uint32
	FaultDesc string
}

// newShell allocates a CPU of cfg's shape over the given memory and
// caches, every state field zero and every slice at its fixed size or
// capacity: New writes the reset state into it, Clone restores a copy
// of a running CPU over it. The allocation shape lives here only.
func newShell(cfg Config, m *mem.Memory, l1i, l1d *cache.Cache) *CPU {
	return &CPU{
		cfg:      cfg,
		Mem:      m,
		L1I:      l1i,
		L1D:      l1d,
		prf:      make([]uint32, cfg.NumPhysRegs),
		freeList: make([]int16, 0, cfg.NumPhysRegs),
		bimodal:  make([]uint8, 1<<cfg.BimodalBits),
		ras:      make([]uint32, cfg.RASDepth),

		uops:     make([]uop, slabSlots(cfg)),
		uopFree:  make([]slot, 0, slabSlots(cfg)),
		decq:     newRing[fetched](cfg.DecodeQueue),
		fbLine:   -1,
		rob:      newRing[slot](cfg.ROBSize),
		iq:       make([]slot, 0, cfg.IQSize),
		lsq:      make([]slot, 0, cfg.LSQSize),
		inflight: make([]slot, 0, cfg.ROBSize),
		deps:     make([]deps, slabSlots(cfg)),
	}
}

// New builds a CPU with the program loaded and the ABI initial state.
func New(p *asm.Program, cfg Config) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := p.NewImage()
	if err != nil {
		return nil, err
	}
	l1i, err := cache.New(cfg.L1I, m)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D, m)
	if err != nil {
		return nil, err
	}
	c := newShell(cfg, m, l1i, l1d)
	c.fetchPC = p.TextBase
	c.text, c.textBase = p.Decoded(), p.TextBase
	c.retiredFlags, c.specFlagProducer = noSlot, noSlot
	for i := 0; i < 16; i++ {
		c.rat[i] = int16(i)
		c.arat[i] = int16(i)
	}
	c.prfReady = 1<<16 - 1
	for i := 16; i < cfg.NumPhysRegs; i++ {
		c.freeList = append(c.freeList, int16(i))
	}
	for s := range c.uops {
		c.uopFree = append(c.uopFree, slot(s))
	}
	c.prf[isa.SP] = isa.StackTop
	// Weakly-taken initial bimodal state.
	for i := range c.bimodal {
		c.bimodal[i] = 1
	}
	return c, nil
}

// Config returns the configuration.
func (c *CPU) Config() Config { return c.cfg }

// Step advances the model one clock cycle. It returns false once the
// program has stopped.
func (c *CPU) Step() bool {
	if c.Stop != refsim.StopNone {
		return false
	}
	c.Cycles++
	c.commit()
	if c.Stop != refsim.StopNone {
		return false
	}
	c.writeback()
	c.issue()
	c.rename()
	c.fetch()
	return true
}

// Run advances until the program stops or maxCycles elapse.
func (c *CPU) Run(maxCycles uint64) refsim.StopReason {
	for c.Stop == refsim.StopNone {
		if c.Cycles >= maxCycles {
			c.Stop = refsim.StopLimit
			break
		}
		c.Step()
	}
	return c.Stop
}

// ---------------------------------------------------------------- fetch

func (c *CPU) bimodalIdx(pc uint32) int {
	return int(pc>>2) & (len(c.bimodal) - 1)
}

func (c *CPU) rasPush(v uint32) {
	if c.rasLen < len(c.ras) {
		c.ras[c.rasLen] = v
		c.rasLen++
		return
	}
	copy(c.ras, c.ras[1:])
	c.ras[len(c.ras)-1] = v
}

func (c *CPU) rasPop() (uint32, bool) {
	if c.rasLen == 0 {
		return 0, false
	}
	c.rasLen--
	return c.ras[c.rasLen], true
}

// fetch reads up to FetchWidth words through the L1I and predicts the
// next PC. Two shortcuts keep it cheap, both exact:
//
//   - The fetch buffer: a word from the line the last fetch hit is read
//     straight out of the data array (cache.WordAt), skipping the lookup
//     and the LRU touch. Only fetch accesses the L1I, so that line is
//     still resident and still the most recently used of its set, and
//     touching it again would change nothing. A fill drops the buffer
//     (the new line is MRU now), and so does a restore.
//   - The decode table: the program's text is decoded once, shared by
//     every CPU built from it, and an entry is used only when the word
//     fetched equals the word it was decoded from. Decoding is a pure
//     function of the word, so a text word rewritten by a store or a
//     fault is decoded afresh and nothing else changes.
func (c *CPU) fetch() {
	if c.Cycles < c.fetchStallUntil {
		return
	}
	lineMask := uint32(c.cfg.L1I.LineBytes - 1)
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.decq.n >= c.cfg.DecodeQueue {
			return
		}
		pc := c.fetchPC
		var w uint32
		if pc&^lineMask|pc&3 == c.fbBase && c.fbLine >= 0 {
			w = c.L1I.WordAt(c.fbLine, int(pc&lineMask))
		} else {
			var res cache.Result
			var ok bool
			w, ok = c.L1I.LoadWord(pc, &res)
			if !ok {
				c.decq.push(fetched{pc: pc, bad: true})
				c.fetchPC += isa.InstBytes
				return
			}
			if res.Filled {
				c.fbLine = -1
				if c.lanes != nil && c.lanes.Mem.Any() {
					c.lanes.IFetch(res.FillAddr, lineMask+1)
				}
				// I-miss: the line is resident now, but expose the fill
				// latency before any instruction from it enters decode.
				c.fetchStallUntil = c.Cycles + uint64(c.cfg.MemLatency)
				return
			}
			c.fbLine, c.fbBase = res.Line, pc&^lineMask
		}
		f := c.decq.grow()
		*f = fetched{pc: pc, word: w}
		if i := (pc - c.textBase) / isa.InstBytes; i < uint32(len(c.text)) && c.text[i].Word == w {
			f.inst, f.undecodable = c.text[i].Inst, c.text[i].Bad
		} else {
			in, err := isa.Decode(w)
			f.inst, f.undecodable = in, err != nil
		}
		if in := f.inst; opClasses[in.Op]&clBranch != 0 {
			switch {
			case in.Op == isa.OpB:
				f.predTaken = true
				f.predTarget = in.BranchTarget(pc)
			case in.Op == isa.OpBL:
				f.predTaken = true
				f.predTarget = in.BranchTarget(pc)
				c.rasPush(pc + isa.InstBytes)
			case in.Op == isa.OpRET:
				if t, ok := c.rasPop(); ok {
					f.predTaken = true
					f.predTarget = t
				} else {
					f.predTaken = false
					f.predTarget = pc + isa.InstBytes
				}
			default: // conditional: bimodal direction, direct target
				if c.bimodal[c.bimodalIdx(pc)] >= 2 {
					f.predTaken = true
					f.predTarget = in.BranchTarget(pc)
				}
			}
		}
		if f.predTaken {
			c.fetchPC = f.predTarget
		} else {
			c.fetchPC = pc + isa.InstBytes
		}
	}
}

// --------------------------------------------------------------- rename

// opClass is what rename and issue ask of an opcode: one table load
// instead of a chain of isa.Opcode predicates.
type opClass uint16

const (
	clCommitOnly opClass = 1 << iota // NOP, HLT, SVC: handled entirely at commit
	clLoad
	clStore
	clByte    // byte-sized memory access
	clRegAddr // register-offset memory access (address rn + rm)
	clBranch
	clCond // conditional branch
	clCompare
	clWritesRd
	clReadsRn
	clReadsRm
	clMul // MUL, UDIV, SDIV: the multiply/divide unit

	clMem = clLoad | clStore
)

var opClasses = func() (t [256]opClass) {
	for i := range t {
		o := isa.Opcode(i)
		if !o.Valid() {
			continue
		}
		for cl, is := range map[opClass]bool{
			clCommitOnly: o == isa.OpNOP || o == isa.OpHLT || o == isa.OpSVC,
			clLoad:       o.IsLoad(),
			clStore:      o.IsStore(),
			clByte:       o == isa.OpLDRB || o == isa.OpSTRB || o == isa.OpLDRBR || o == isa.OpSTRBR,
			clRegAddr:    o == isa.OpLDRR || o == isa.OpSTRR || o == isa.OpLDRBR || o == isa.OpSTRBR,
			clBranch:     o.IsBranch(),
			clCond:       o.IsCondBranch(),
			clCompare:    o.IsCompare(),
			clWritesRd:   o.WritesRd(),
			clReadsRn:    o.ReadsRn(),
			clReadsRm:    o.ReadsRm(),
			clMul:        o == isa.OpMUL || o == isa.OpUDIV || o == isa.OpSDIV,
		} {
			if is {
				t[i] |= cl
			}
		}
	}
	return t
}()

func (c *CPU) rename() {
	for n := 0; n < c.cfg.FetchWidth && c.decq.n > 0; n++ {
		if c.rob.n >= c.cfg.ROBSize {
			return
		}
		f := c.decq.front()
		c.seq++
		in := f.inst
		op := in.Op
		cl := opClasses[op]

		// Fetch and decode faults surface at commit; NOP, HLT and SVC are
		// handled entirely there. None of them needs a backend resource.
		done := f.bad || f.undecodable || cl&clCommitOnly != 0
		dstAr := int8(-1)
		if !done {
			if cl&clMem != 0 && len(c.lsq) >= c.cfg.LSQSize {
				return
			}
			if len(c.iq) >= c.cfg.IQSize {
				return
			}
			// Destination register (BL writes the link register).
			switch {
			case op == isa.OpBL:
				dstAr = int8(isa.LR)
			case cl&clWritesRd != 0:
				dstAr = int8(in.Rd)
			}
			if dstAr >= 0 && len(c.freeList) == 0 {
				return
			}
		}

		// Past the last stall: build the uop in a slab slot at the ROB
		// tail and consume its decode-queue entry (f still reads it:
		// only fetch, later in the cycle, overwrites it).
		s := c.allocUop()
		c.rob.push(s)
		c.decq.pop()
		u := &c.uops[s]
		*u = uop{} // cleared in place, then filled: no stack temporary to copy
		u.seq, u.pc, u.inst = c.seq, f.pc, in
		u.dst, u.oldDst, u.dstAr = -1, -1, -1
		u.src1, u.src2, u.src3 = -1, -1, -1
		u.flagProducer, u.flagSnap = noSlot, noSlot
		u.predTaken, u.predTarget = f.predTaken, f.predTarget
		if done {
			u.executed = true
			switch {
			case f.bad:
				u.fault = faultFetch
			case f.undecodable:
				u.fault = faultDecode
				u.faultWord = f.word
			}
			continue
		}
		u.isLoad = cl&clLoad != 0
		u.isStore = cl&clStore != 0

		// Sources, and the masks issue tests them by.
		if op == isa.OpRET {
			u.src1 = c.rat[isa.LR]
		} else if cl&clReadsRn != 0 {
			u.src1 = c.rat[in.Rn]
		}
		if cl&clReadsRm != 0 {
			u.src2 = c.rat[in.Rm]
		}
		if u.isStore {
			u.src3 = c.rat[in.Rd]
		}
		d := &c.deps[s]
		d.regs = bit(u.src1) | bit(u.src2) | bit(u.src3)
		d.cmp = 0
		if cl&clCond != 0 {
			u.flagProducer = c.specFlagProducer
			u.flagsIn = c.archFlags
			d.cmp = bit(u.flagProducer)
		}
		if cl&clCompare != 0 {
			u.writesFlags = true
			c.specFlagProducer = s
			c.cmpBusy |= bit(s)
		}

		// Rename the destination.
		if dstAr >= 0 {
			p := c.freeList[len(c.freeList)-1]
			c.freeList = c.freeList[:len(c.freeList)-1]
			u.dst = p
			u.dstAr = dstAr
			u.oldDst = c.rat[dstAr]
			c.rat[dstAr] = p
			c.prfReady &^= bit(p)
		}

		// Branches snapshot the rename state for recovery.
		if cl&clBranch != 0 {
			u.ratSnap = c.rat
			u.flagSnap = c.specFlagProducer
			u.flagsInSnap = c.archFlags
			if c.lanes != nil && c.lanes.archFlags.At[0].Any() {
				c.lanes.rename(s, cl&clCond != 0)
			}
		}

		u.size = 4
		if cl&clByte != 0 {
			u.size = 1
		}

		u.inIQ = true
		c.iq = append(c.iq, s)
		if cl&clMem != 0 {
			c.lsq = append(c.lsq, s)
		}
	}
}

// ---------------------------------------------------------------- issue

// deps is what a waiting uop needs before it may issue: regs has bit p
// set for each physical register it reads, cmp bit s for the flag
// writer in slot s it reads the flags of. It is ready once none of
// those registers is still being produced (prfReady) and that writer
// has executed (cmpBusy) — one AND each instead of a lookup per
// operand.
type deps struct{ regs, cmp uint64 }

// bit is the mask of a register or slot index, zero for none (-1).
func bit(i int16) uint64 {
	if i < 0 {
		return 0
	}
	return 1 << i
}

func (c *CPU) readFlags(u *uop) isa.Flags {
	if u.flagProducer != noSlot {
		return c.uops[u.flagProducer].flags
	}
	return u.flagsIn
}

// loadMayIssue enforces LSQ ordering: every older store must have a known
// address; an exact-match store (slot from) forwards, any partial
// overlap blocks.
func (c *CPU) loadMayIssue(u *uop) (forward bool, from slot, blocked bool) {
	from = noSlot
	for _, sl := range c.lsq {
		s := &c.uops[sl]
		if s.seq >= u.seq || !s.isStore {
			continue
		}
		if !s.addrReady {
			return false, noSlot, true
		}
		aLo, aHi := s.addr, s.addr+uint32(s.size)
		bLo, bHi := u.addr, u.addr+uint32(u.size)
		if aLo < bHi && bLo < aHi {
			if s.addr == u.addr && s.size == u.size {
				from = sl // youngest exact match wins
			} else {
				return false, noSlot, true // partial overlap: wait for commit
			}
		}
	}
	return from != noSlot, from, false
}

func (c *CPU) issue() {
	issued := 0
	aluUsed := 0
	// Oldest-first selection: the IQ holds exactly the waiting uops, in
	// program order. The walk compacts it in place: every uop visited is
	// written at kept, and kept steps back over one that issues.
	// Issuing changes neither readiness word (writeback sets them), so
	// both are read once.
	kept := 0
	deps, ready, cmpBusy := c.deps, c.prfReady, c.cmpBusy
	for i, s := range c.iq {
		if issued >= c.cfg.IssueWidth {
			kept += copy(c.iq[kept:], c.iq[i:])
			break
		}
		c.iq[kept] = s
		kept++
		if d := &deps[s]; d.regs&^ready|d.cmp&cmpBusy != 0 {
			continue
		}
		u := &c.uops[s]
		op := u.inst.Op
		cl := opClasses[op]
		switch {
		case cl&clMul != 0:
			if c.mulBusyUntil > c.Cycles {
				continue
			}
		case cl&clMem != 0:
			if c.lsuBusyUntil > c.Cycles {
				continue
			}
		default:
			if aluUsed >= 2 {
				continue
			}
		}
		if cl&clMem != 0 {
			// Compute the effective address first.
			regForm := cl&clRegAddr != 0
			addr := c.readPRF(u.src1)
			if regForm {
				addr += c.readPRF(u.src2)
			} else {
				addr += uint32(u.inst.Imm)
			}
			u.addr = addr
			if c.lanes != nil && (c.lanes.reg(u.src1) || regForm && c.lanes.reg(u.src2)) {
				c.lanes.address(u, regForm)
			}
			if u.isLoad {
				if fwd, from, blocked := c.loadMayIssue(u); blocked {
					continue // stay in the IQ
				} else if fwd {
					u.result = c.uops[from].storeVal
					if u.size == 1 {
						u.result &= 0xFF
					}
					if c.lanes != nil && c.lanes.storeVal.At[from].Any() {
						c.lanes.forward(s, from, u.size)
					}
					u.execDone = c.Cycles + 1
				} else if !c.execLoad(s, u) {
					u.execDone = c.Cycles + 1 // fault recorded
				}
			} else {
				u.storeVal = c.readPRF(u.src3)
				if u.size == 1 {
					u.storeVal &= 0xFF
				}
				if c.lanes != nil && c.lanes.reg(u.src3) {
					c.lanes.storeValue(s, u)
				}
				u.addrReady = true
				u.execDone = c.Cycles + 1
			}
		} else {
			c.execALU(s, u)
		}
		u.issued = true
		u.inIQ = false
		kept--
		c.noteIssued(s)
		issued++
		switch {
		case op == isa.OpMUL:
			c.mulBusyUntil = c.Cycles + 1 // pipelined multiplier
		case cl&clMul != 0: // UDIV, SDIV
			c.mulBusyUntil = c.Cycles + uint64(c.cfg.DivLat)
		case cl&clMem != 0:
			c.lsuBusyUntil = u.execDone
		default:
			aluUsed++
		}
	}
	c.iq = c.iq[:kept]
}

// noteIssued files a uop that just issued under inflight, keeping the
// list in program order: issue is out of order across cycles, so the
// newcomer may be older than uops still executing.
func (c *CPU) noteIssued(s slot) {
	seq := c.uops[s].seq
	i := len(c.inflight)
	c.inflight = append(c.inflight, s)
	for ; i > 0 && c.uops[c.inflight[i-1]].seq > seq; i-- {
		c.inflight[i] = c.inflight[i-1]
	}
	c.inflight[i] = s
}

// execLoad performs the functional D-cache access for a load in slot s at
// issue time. It returns false when the access faults.
func (c *CPU) execLoad(s slot, u *uop) bool {
	var res cache.Result
	var ok bool
	if u.size == 4 {
		u.result, ok = c.L1D.LoadWord(u.addr, &res)
	} else {
		var b byte
		b, ok = c.L1D.LoadByte(u.addr, &res)
		u.result = uint32(b)
	}
	if !ok {
		u.fault = faultLoad
		return false
	}
	if c.lanes != nil {
		c.lanes.access(&res)
		if c.lanes.Line[res.Line].Any() {
			c.lanes.load(s, c.lanes.index(&res, u.addr), u.size)
		}
	}
	if res.Evicted {
		c.Pinout.Record(c.Cycles, res.EvictAddr, trace.KindWriteback, res.EvictData)
	}
	if res.Filled {
		u.execDone = c.Cycles + uint64(c.cfg.LoadHitLat+c.cfg.MemLatency)
	} else {
		u.execDone = c.Cycles + uint64(c.cfg.LoadHitLat)
	}
	return true
}

// execALU computes ALU, compare and branch results at issue time for the
// uop in slot s; the result becomes architecturally visible at writeback.
func (c *CPU) execALU(s slot, u *uop) {
	in := u.inst
	op := in.Op
	a, b := uint32(0), uint32(0)
	if u.src1 >= 0 {
		a = c.readPRF(u.src1)
	}
	if u.src2 >= 0 {
		b = c.readPRF(u.src2)
	}
	lat := uint64(1)
	switch {
	case op == isa.OpCMP:
		u.flags = isa.SubFlags(a, b)
	case op == isa.OpCMPI:
		u.flags = isa.SubFlags(a, uint32(in.Imm))
	case op == isa.OpMOVI:
		u.result = uint32(in.Imm)
	case op == isa.OpMOVT:
		u.result = isa.EvalALU(op, a, uint32(in.Imm))
	case op == isa.OpMUL:
		u.result = isa.EvalALU(op, a, b)
		lat = uint64(c.cfg.MulLat)
	case op == isa.OpUDIV || op == isa.OpSDIV:
		u.result = isa.EvalALU(op, a, b)
		lat = uint64(c.cfg.DivLat)
	case op.IsALUReg():
		u.result = isa.EvalALU(op, a, b)
	case op.IsALUImm():
		u.result = isa.EvalALU(op, a, uint32(in.Imm))
	case op == isa.OpRET:
		u.taken = true
		u.target = a // LR value via src1
	case op == isa.OpBL:
		u.taken = true
		u.target = in.BranchTarget(u.pc)
		u.result = u.pc + isa.InstBytes // link value
	case op == isa.OpB:
		u.taken = true
		u.target = in.BranchTarget(u.pc)
	case op.IsCondBranch():
		u.taken = isa.CondHolds(op, c.readFlags(u))
		u.target = in.BranchTarget(u.pc)
		// Update the bimodal predictor at resolution.
		i := c.bimodalIdx(u.pc)
		if u.taken && c.bimodal[i] < 3 {
			c.bimodal[i]++
		} else if !u.taken && c.bimodal[i] > 0 {
			c.bimodal[i]--
		}
	}
	if c.lanes != nil {
		if c.lanes.reg(u.src1) || c.lanes.reg(u.src2) {
			c.lanes.alu(s, u, a, b)
		}
		if op.IsCondBranch() && c.lanes.flagsDiffer(s, u) {
			c.lanes.branch(s, u, c.readFlags(u))
		}
	}
	u.execDone = c.Cycles + lat
	if op.IsBranch() {
		actual := u.pc + isa.InstBytes
		if u.taken {
			actual = u.target
		}
		pred := u.pc + isa.InstBytes
		if u.predTaken {
			pred = u.predTarget
		}
		u.mispredicted = actual != pred
	}
}

// ------------------------------------------------------------ writeback

func (c *CPU) writeback() {
	written := 0
	recover := noSlot
	// Oldest first over the uops in flight; the ones that stay — still
	// executing, or finished beyond this cycle's width — are kept in
	// place.
	keep := c.inflight[:0]
	for i, s := range c.inflight {
		if written >= c.cfg.WritebackWidth {
			keep = append(keep, c.inflight[i:]...)
			break
		}
		u := &c.uops[s]
		if u.execDone > c.Cycles {
			keep = append(keep, s)
			continue
		}
		u.executed = true
		c.cmpBusy &^= bit(s)
		written++
		if u.dst >= 0 {
			if c.ltRF != nil {
				c.ltRF.Write(c.Cycles, int(u.dst), 0, 32)
			}
			if c.lanes != nil && (c.lanes.prf.At[u.dst].Any() || c.lanes.result.At[s].Any()) {
				c.lanes.writeback(s, u.dst)
			}
			c.prf[u.dst] = u.result
			c.prfReady |= bit(u.dst)
		}
		if u.mispredicted && !u.recovered && recover == noSlot {
			recover = s
		}
	}
	c.inflight = keep
	if recover != noSlot {
		c.recoverFrom(&c.uops[recover])
	}
}

// recoverFrom squashes everything younger than the mispredicted branch
// and restores the rename state from its snapshot.
func (c *CPU) recoverFrom(b *uop) {
	b.recovered = true
	keep := 0 // the ROB is in program order: everything through b stays
	for i := 0; i < c.rob.n; i++ {
		s := c.rob.at(i)
		if c.uops[s].seq <= b.seq {
			keep = i + 1
			continue
		}
		c.squash(s)
	}
	c.rob.truncate(keep)
	c.compactIQ() // the freed slots still hold their squashed flags
	c.compactLSQ()
	n := len(c.inflight) // in program order: the squashed are a suffix
	for n > 0 && c.uops[c.inflight[n-1]].seq > b.seq {
		n--
	}
	c.inflight = c.inflight[:n]
	c.rat = b.ratSnap
	c.specFlagProducer = b.flagSnap
	c.decq.truncate(0)
	if b.taken {
		c.fetchPC = b.target
	} else {
		c.fetchPC = b.pc + isa.InstBytes
	}
	if c.fetchStallUntil < c.Cycles+1 {
		c.fetchStallUntil = c.Cycles + 1
	}
}

// squash cancels a wrong-path uop, returning its destination register
// and its slot.
func (c *CPU) squash(s slot) {
	u := &c.uops[s]
	u.squashed = true
	u.inIQ = false
	c.cmpBusy &^= bit(s)
	if u.dst >= 0 {
		c.freeList = append(c.freeList, u.dst)
	}
	c.freeUop(s)
}

// compactIQ drops issued and squashed uops from the instruction queue.
func (c *CPU) compactIQ() {
	out := c.iq[:0]
	for _, s := range c.iq {
		if u := &c.uops[s]; u.inIQ && !u.squashed {
			out = append(out, s)
		}
	}
	c.iq = out
}

// compactLSQ drops squashed uops from the load-store queue.
func (c *CPU) compactLSQ() {
	out := c.lsq[:0]
	for _, s := range c.lsq {
		if !c.uops[s].squashed {
			out = append(out, s)
		}
	}
	c.lsq = out
}

// --------------------------------------------------------------- commit

func (c *CPU) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.rob.n > 0; n++ {
		s := c.rob.at(0)
		u := &c.uops[s]
		if !u.executed {
			return
		}
		if u.fault != faultNone {
			c.Stop = refsim.StopFault
			c.FaultDesc = string(u.appendFault(nil))
			return
		}
		op := u.inst.Op
		switch {
		case op == isa.OpHLT:
			c.Insts++
			c.Stop = refsim.StopHalt
			return
		case op == isa.OpSVC:
			c.commitSyscall(s)
			return // serializing: flushed and redirected (or stopped)
		case u.isStore:
			if !c.commitStore(s, u) {
				return
			}
		}
		if u.isLoad || u.isStore {
			c.lsqRemove(s)
		}
		if u.dst >= 0 {
			c.freeList = append(c.freeList, c.arat[u.dstAr])
			c.arat[u.dstAr] = u.dst
		}
		if u.writesFlags {
			c.archFlags = u.flags
			if c.lanes != nil && (c.lanes.archFlags.At[0].Any() || c.lanes.flags.At[s].Any()) {
				c.lanes.commitFlags(s)
			}
		}
		c.rob.pop()
		c.retireUop(s)
		c.Insts++
	}
}

func (c *CPU) archReg(r isa.Reg) uint32 { return c.readPRF(c.arat[r]) }

// lsqRemove drops a committed memory operation from the LSQ. It is the
// oldest entry in the common case.
func (c *CPU) lsqRemove(s slot) {
	if i := slices.Index(c.lsq, s); i >= 0 {
		c.lsq = slices.Delete(c.lsq, i, i+1)
	}
}

func (c *CPU) commitSyscall(s slot) {
	u := &c.uops[s]
	num, a0, a1 := c.archReg(isa.R7), c.archReg(isa.R0), c.archReg(isa.R1)
	if c.lanes != nil && (c.lanes.reg(c.arat[isa.R7]) || c.lanes.reg(c.arat[isa.R0]) || c.lanes.reg(c.arat[isa.R1])) {
		c.lanes.syscall(c.arat[isa.R7], c.arat[isa.R0], c.arat[isa.R1])
	}
	frag, exited, ok := refsim.Syscall(num, a0, a1, c.L1D.View())
	if !ok {
		c.Stop = refsim.StopFault
		c.FaultDesc = fmt.Sprintf("syscall %d failed at %#x", c.archReg(isa.R7), u.pc)
		return
	}
	if c.lanes != nil && num == isa.SysWrite && (c.lanes.L1D.Any() || c.lanes.Mem.Any()) {
		c.lanes.output(a0, a1, len(c.Output))
	}
	c.Output = append(c.Output, frag...)
	c.rob.pop()
	c.retireUop(s)
	c.Insts++
	if exited {
		c.Stop = refsim.StopExit
		c.ExitCode = c.archReg(isa.R0)
		return
	}
	// Serialize: squash every younger instruction and refetch.
	for i := 0; i < c.rob.n; i++ {
		c.squash(c.rob.at(i))
	}
	c.rob.truncate(0)
	c.iq = c.iq[:0]
	c.lsq = c.lsq[:0]
	c.inflight = c.inflight[:0]
	c.decq.truncate(0)
	c.rat = c.arat
	c.specFlagProducer = noSlot
	c.fetchPC = u.pc + isa.InstBytes
	if c.fetchStallUntil < c.Cycles+1 {
		c.fetchStallUntil = c.Cycles + 1
	}
}

func (c *CPU) commitStore(s slot, u *uop) bool {
	var res cache.Result
	var ok bool
	if u.size == 4 {
		ok = c.L1D.StoreWord(u.addr, u.storeVal, &res)
	} else {
		ok = c.L1D.StoreByte(u.addr, byte(u.storeVal), &res)
	}
	if !ok {
		c.Stop = refsim.StopFault
		c.FaultDesc = fmt.Sprintf("store out of range or unaligned at %#x (pc %#x)", u.addr, u.pc)
		return false
	}
	if c.lanes != nil {
		c.lanes.access(&res)
		if c.lanes.Line[res.Line].Any() || c.lanes.storeVal.At[s].Any() {
			c.lanes.store(s, c.lanes.index(&res, u.addr), u.size)
		}
	}
	if res.Evicted {
		c.Pinout.Record(c.Cycles, res.EvictAddr, trace.KindWriteback, res.EvictData)
	}
	return true
}
