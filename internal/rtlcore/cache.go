// Package rtlcore is the "hardware design" of this study: a complete
// scalar in-order 5-stage AL32 CPU core (IF/ID/EX/MEM/WB with full
// forwarding, load-use interlock and branch resolution in EX) described
// structurally on the rtl simulation kernel, together with bit-accurate
// L1 instruction and data caches (tag, data, valid, dirty and LRU arrays
// are all kernel memories).
//
// It plays the role of the commercial Cortex-A9 RTL model in the paper:
// every storage bit — architectural register file, cache arrays, and
// every pipeline latch — is enumerable and injectable, and every cycle
// evaluates the whole core except the execute units the opcode does not
// select, whose outputs reach no storage bit. The substitution
// (in-order scalar instead of the proprietary out-of-order A9 netlist,
// whose host cost is reported by TABLE II rather than emulated) is
// documented in EXPERIMENTS.md.
package rtlcore

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/trace"
)

// rtlCache is a set-associative write-back cache whose tag, data, valid,
// dirty and LRU state live in RTL memories. Reads are combinational;
// state updates are queued and latch at the clock edge. On a miss the
// line movement is performed functionally against backing memory while
// the core's stall counter models the latency.
type rtlCache struct {
	cfg       cache.Config
	sets      int
	ways      int
	lineWords int
	offBits   uint
	setBits   uint

	tag   *rtl.Mem
	data  *rtl.Mem
	valid *rtl.Mem
	dirty *rtl.Mem // nil for the (read-only) I-cache
	lru   *rtl.Mem

	backing *mem.Memory

	// Line buffers of the miss path: the dirty victim on its way out and
	// the fill on its way in. A miss's accessResult.fill aliases fillBuf
	// and is consumed before the next access.
	victimBuf []byte
	fillBuf   []byte

	// fbLine is the fetch buffer: the flat index of the line the last
	// fetch hit, whose address is fbBase, or -1 after a miss or a
	// restore (fetch has why reading it directly is exact). It is
	// derived state, so the design's captures and digests leave it out.
	fbLine int32
	fbBase uint32

	// accessHook, when set, observes every access (testbench
	// instrumentation for injection-time advancement).
	accessHook func(set, way int)

	// lanes, when non-nil, is the value-lane store riding the L1D: the
	// line traffic moves its diffs (Core.AttachLanes).
	lanes *laneStore

	// Statistics (testbench-side, not design state).
	accesses  uint64
	misses    uint64
	evictions uint64
}

// newRTLCache elaborates one cache of a validated geometry (New checks
// the hierarchy first).
func newRTLCache(sim *rtl.Simulator, name string, cfg cache.Config, backing *mem.Memory, writable bool) *rtlCache {
	sets := cfg.Sets()
	lines := sets * cfg.Ways
	c := &rtlCache{
		cfg:       cfg,
		sets:      sets,
		ways:      cfg.Ways,
		lineWords: cfg.LineBytes / 4,
		backing:   backing,
		victimBuf: make([]byte, cfg.LineBytes),
		fillBuf:   make([]byte, cfg.LineBytes),
	}
	for cfg.LineBytes>>c.offBits > 1 {
		c.offBits++
	}
	for sets>>c.setBits > 1 {
		c.setBits++
	}
	tagWidth := 32 - int(c.offBits) - int(c.setBits)
	c.tag = sim.Mem(name+"_tag", lines, tagWidth)
	c.data = sim.Mem(name+"_data", lines*c.lineWords, 32)
	c.valid = sim.Mem(name+"_valid", lines, 1)
	c.lru = sim.Mem(name+"_lru", lines, 2)
	if writable {
		c.dirty = sim.Mem(name+"_dirty", lines, 1)
	}
	// LRU ages start as a permutation within each set.
	for i := 0; i < lines; i++ {
		c.lru.Init(i, uint64(i%cfg.Ways))
	}
	return c
}

func (c *rtlCache) index(addr uint32) (set int, tag uint64, off int) {
	off = int(addr & uint32(c.cfg.LineBytes-1))
	set = int(addr >> c.offBits & uint32(c.sets-1))
	tag = uint64(addr >> (c.offBits + c.setBits))
	return set, tag, off
}

func (c *rtlCache) lineIdx(set, way int) int { return set*c.ways + way }

// lookup returns the hit way or -1, reading the tag/valid arrays.
func (c *rtlCache) lookup(set int, tag uint64) int {
	for w := 0; w < c.ways; w++ {
		i := c.lineIdx(set, w)
		if c.valid.Read(i) != 0 && c.tag.Read(i) == tag {
			return w
		}
	}
	return -1
}

// touch queues the LRU age updates for an access to (set, way).
func (c *rtlCache) touch(set, way int) {
	old := c.lru.Read(c.lineIdx(set, way))
	for w := 0; w < c.ways; w++ {
		i := c.lineIdx(set, w)
		if age := c.lru.Read(i); age < old {
			c.lru.Write(i, age+1)
		}
	}
	c.lru.Write(c.lineIdx(set, way), 0)
}

func (c *rtlCache) victim(set int) int {
	for w := 0; w < c.ways; w++ {
		if c.valid.Read(c.lineIdx(set, w)) == 0 {
			return w
		}
	}
	oldest, age := 0, c.lru.Read(c.lineIdx(set, 0))
	for w := 1; w < c.ways; w++ {
		if a := c.lru.Read(c.lineIdx(set, w)); a > age {
			oldest, age = w, a
		}
	}
	return oldest
}

// accessResult describes one cache access at the RTL core boundary.
type accessResult struct {
	miss bool
	fill []byte // line content after fill (miss only)
	way  int
	set  int
	off  int
}

// access makes the line holding addr resident. On a miss it performs the
// line movement (dirty-victim write-back to backing memory, line fill)
// and reports the traffic to the pinout capture. ok=false means the
// address has no backing memory.
func (c *rtlCache) access(addr uint32, cycle uint64, pin *trace.Pinout) (accessResult, bool) {
	c.accesses++
	set, tag, off := c.index(addr)
	if way := c.lookup(set, tag); way >= 0 {
		c.touch(set, way)
		if c.accessHook != nil {
			c.accessHook(set, way)
		}
		return accessResult{set: set, way: way, off: off}, true
	}
	c.misses++
	lineMask := ^uint32(c.cfg.LineBytes - 1)
	fillAddr := addr & lineMask
	if !c.backing.InRange(fillAddr, uint32(c.cfg.LineBytes)) {
		return accessResult{}, false
	}
	way := c.victim(set)
	i := c.lineIdx(set, way)
	if c.dirty != nil && c.valid.Read(i) != 0 && c.dirty.Read(i) != 0 {
		c.evictions++
		evAddr := uint32(c.tag.Read(i))<<(c.offBits+c.setBits) | uint32(set)<<c.offBits
		line := c.victimBuf
		for w := 0; w < c.lineWords; w++ {
			v := uint32(c.data.Read(i*c.lineWords + w))
			line[4*w] = byte(v)
			line[4*w+1] = byte(v >> 8)
			line[4*w+2] = byte(v >> 16)
			line[4*w+3] = byte(v >> 24)
		}
		c.backing.StoreBytes(evAddr, line)
		pin.Record(cycle, evAddr, trace.KindWriteback, line)
		if l := c.lanes; l != nil && (l.Line[i].Any() || l.Mem.Any()) {
			l.WriteBack(i, uint32(i*c.cfg.LineBytes), line, evAddr, cycle)
		}
	}
	fill := c.fillBuf
	pos := c.data.Queued()
	c.backing.ReadBytes(fillAddr, fill) // in range: checked above
	for w := 0; w < c.lineWords; w++ {
		v := uint32(fill[4*w]) | uint32(fill[4*w+1])<<8 |
			uint32(fill[4*w+2])<<16 | uint32(fill[4*w+3])<<24
		c.data.Write(i*c.lineWords+w, uint64(v))
	}
	if c.lanes != nil && c.lanes.Mem.Any() {
		c.lanes.fill(pos, fillAddr)
	}
	c.tag.Write(i, tag)
	c.valid.Write(i, 1)
	if c.dirty != nil {
		c.dirty.Write(i, 0)
	}
	c.touch(set, way)
	if c.accessHook != nil {
		c.accessHook(set, way)
	}
	return accessResult{miss: true, fill: fill, set: set, way: way, off: off}, true
}

// loadWord reads an aligned word; on a miss the value comes from the fill
// buffer because the array writes latch only at the next edge.
func (c *rtlCache) loadWord(addr uint32, cycle uint64, pin *trace.Pinout) (uint32, accessResult, bool) {
	if addr&3 != 0 {
		return 0, accessResult{}, false
	}
	r, ok := c.access(addr, cycle, pin)
	if !ok {
		return 0, r, false
	}
	if r.miss {
		v := uint32(r.fill[r.off]) | uint32(r.fill[r.off+1])<<8 |
			uint32(r.fill[r.off+2])<<16 | uint32(r.fill[r.off+3])<<24
		return v, r, true
	}
	w := c.data.Read(c.lineIdx(r.set, r.way)*c.lineWords + r.off/4)
	return uint32(w), r, true
}

// fetch is loadWord for the instruction fetch, the L1I's only port,
// returning whether the access missed. A fetch from the line the last
// fetch hit reads the word straight from the data array and queues the
// one LRU write touch would: that line's age is already 0, so touch
// ages no other way of the set. This is exact because nothing else
// changes the L1I arrays between two fetches — no fault target,
// lifetime space, access hook or value lane covers them, and
// Core.Restore, the only writer outside the ports, drops the buffer —
// and a miss, a fill included, drops it too.
func (c *rtlCache) fetch(addr uint32, cycle uint64, pin *trace.Pinout) (w uint32, miss, ok bool) {
	lineMask := uint32(c.cfg.LineBytes - 1)
	if c.fbLine >= 0 && addr&^lineMask|addr&3 == c.fbBase {
		c.accesses++
		line := int(c.fbLine)
		c.lru.Write(line, 0)
		return uint32(c.data.Read(line*c.lineWords + int(addr&lineMask)/4)), false, true
	}
	w, r, ok := c.loadWord(addr, cycle, pin)
	c.fbLine = -1
	if ok && !r.miss {
		c.fbLine, c.fbBase = int32(c.lineIdx(r.set, r.way)), addr&^lineMask
	}
	return w, r.miss, ok
}

// loadByte reads one byte.
func (c *rtlCache) loadByte(addr uint32, cycle uint64, pin *trace.Pinout) (byte, accessResult, bool) {
	r, ok := c.access(addr, cycle, pin)
	if !ok {
		return 0, r, false
	}
	if r.miss {
		return r.fill[r.off], r, true
	}
	w := c.data.Read(c.lineIdx(r.set, r.way)*c.lineWords + r.off/4)
	return byte(w >> (8 * uint(r.off&3))), r, true
}

// storeWord writes an aligned word (write-allocate, marks dirty).
func (c *rtlCache) storeWord(addr, v uint32, cycle uint64, pin *trace.Pinout) (accessResult, bool) {
	if addr&3 != 0 {
		return accessResult{}, false
	}
	r, ok := c.access(addr, cycle, pin)
	if !ok {
		return r, false
	}
	i := c.lineIdx(r.set, r.way)
	c.data.Write(i*c.lineWords+r.off/4, uint64(v))
	c.dirty.Write(i, 1)
	return r, true
}

// storeByte writes one byte (read-modify-write of the 32-bit word).
func (c *rtlCache) storeByte(addr uint32, v byte, cycle uint64, pin *trace.Pinout) (accessResult, bool) {
	r, ok := c.access(addr, cycle, pin)
	if !ok {
		return r, false
	}
	i := c.lineIdx(r.set, r.way)
	wi := i*c.lineWords + r.off/4
	var old uint32
	if r.miss {
		o := r.off &^ 3
		old = uint32(r.fill[o]) | uint32(r.fill[o+1])<<8 |
			uint32(r.fill[o+2])<<16 | uint32(r.fill[o+3])<<24
	} else {
		old = uint32(c.data.Read(wi))
	}
	sh := 8 * uint(r.off&3)
	nw := old&^(0xFF<<sh) | uint32(v)<<sh
	c.data.Write(wi, uint64(nw))
	c.dirty.Write(i, 1)
	return r, true
}

// byteIdx is the data-array byte an access touched.
func (r accessResult) byteIdx(c *rtlCache) int {
	return c.lineIdx(r.set, r.way)*c.cfg.LineBytes + r.off
}

// resident returns the data-array byte holding addr when its line is
// resident.
func (c *rtlCache) resident(addr uint32) (int, bool) {
	set, tag, off := c.index(addr)
	if way := c.lookup(set, tag); way >= 0 {
		return c.lineIdx(set, way)*c.cfg.LineBytes + off, true
	}
	return 0, false
}

// peekByte returns the byte at addr as the core observes it (cache line
// if resident, else backing memory), with no state changes. Used by the
// syscall unit's software observation point.
func (c *rtlCache) peekByte(addr uint32) (byte, bool) {
	if idx, ok := c.resident(addr); ok {
		w := c.data.Read(idx / 4)
		return byte(w >> (8 * uint(idx&3))), true
	}
	return c.backing.LoadByte(addr)
}

// view adapts peekByte to refsim.ByteLoader.
type cacheView struct{ c *rtlCache }

func (v cacheView) LoadBytes(addr, n uint32) ([]byte, bool) {
	if !v.c.backing.InRange(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		b, ok := v.c.peekByte(addr + i)
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}
