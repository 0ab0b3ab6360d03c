// Package cache implements the behavioural set-associative cache model
// used by the microarchitectural simulator (the gem5-class substrate).
//
// The cache stores line data, tags and state bits in explicit arrays so
// that transient faults can be injected into any bit of the structure —
// this is the "storage arrays are accurately modelled" property that the
// paper relies on when comparing microarchitecture-level and RTL fault
// injection (§II.B).
//
// Policy: write-back, write-allocate, true LRU. All word accesses must be
// 4-byte aligned (the AL32 architectural rule).
package cache

import (
	"fmt"

	"repro/internal/lifetime"
	"repro/internal/mem"
	"repro/internal/statehash"
)

// Config describes a cache geometry.
type Config struct {
	Name      string // for error messages and reports
	SizeBytes int
	Ways      int
	LineBytes int
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Bits returns the total number of data-array bits, the quantity used to
// size statistical fault-injection campaigns.
func (c Config) Bits() int { return c.SizeBytes * 8 }

// Result describes the consequences of one access.
type Result struct {
	Hit       bool
	Evicted   bool   // a dirty line was written back
	EvictAddr uint32 // base address of the written-back line
	EvictData []byte // line content written back (aliases internal buffer)
	Filled    bool   // a line was fetched from backing memory
	FillAddr  uint32

	// Line is the flat index (set*ways+way) of the line the access used:
	// the resident line on a hit, the refilled victim way on a miss. Its
	// data starts at byte Line*LineBytes of the data array.
	Line int
}

// Cache is a set-associative write-back cache bound to a backing memory.
type Cache struct {
	cfg      Config
	sets     int
	offBits  uint
	setBits  uint
	tags     []uint32
	valid    []bool
	dirty    []bool
	age      []uint8 // LRU age per way: 0 == most recent
	data     []byte  // sets*ways*line bytes
	backing  *mem.Memory
	evictBuf []byte

	// AccessHook, when non-nil, is invoked with the (set, way) of every
	// access after the line is resident. The fault-injection campaign
	// uses it to build the access timeline that drives injection-time
	// advancement (the RTL flow's optimisation in §IV.B).
	AccessHook func(set, way int)

	// lt, when non-nil, records the data array's access lifetime (reads,
	// full overwrites) at line granularity during the golden run;
	// ltCycle supplies the owning simulator's current cycle. Set via
	// SetLifetime; pure observation, never perturbs the simulation.
	lt      *lifetime.Space
	ltCycle *uint64

	// Statistics.
	Accesses  uint64
	Misses    uint64
	Evictions uint64
}

// New builds a cache. It panics only on programmer error (invalid config);
// use Config.Validate for user-supplied geometries.
func New(cfg Config, backing *mem.Memory) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := newShell(cfg, backing)
	// Ages within a set must form a permutation of 0..ways-1 for the
	// aging scheme in touch to maintain a total LRU order.
	for i := range c.age {
		c.age[i] = uint8(i % cfg.Ways)
	}
	return c, nil
}

// newShell allocates a cache of cfg's (validated) geometry with zeroed
// arrays: New writes the reset state into it, Clone restores a copy over
// it.
func newShell(cfg Config, backing *mem.Memory) *Cache {
	sets := cfg.Sets()
	n := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		tags:     make([]uint32, n),
		valid:    make([]bool, n),
		dirty:    make([]bool, n),
		age:      make([]uint8, n),
		data:     make([]byte, n*cfg.LineBytes),
		backing:  backing,
		evictBuf: make([]byte, cfg.LineBytes),
	}
	for c.cfg.LineBytes>>c.offBits > 1 {
		c.offBits++
	}
	for sets>>c.setBits > 1 {
		c.setBits++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(addr uint32) (set int, tag uint32, off int) {
	off = int(addr & uint32(c.cfg.LineBytes-1))
	set = int(addr >> c.offBits & uint32(c.sets-1))
	tag = addr >> (c.offBits + c.setBits)
	return set, tag, off
}

func (c *Cache) lineBase(set, way int) int {
	return (set*c.cfg.Ways + way) * c.cfg.LineBytes
}

// lookup returns the hit way or -1.
func (c *Cache) lookup(set int, tag uint32) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

func (c *Cache) touch(set, way int) {
	base := set * c.cfg.Ways
	old := c.age[base+way]
	for w := 0; w < c.cfg.Ways; w++ {
		if c.age[base+w] < old {
			c.age[base+w]++
		}
	}
	c.age[base+way] = 0
}

func (c *Cache) victim(set int) int {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[base+w] {
			return w
		}
	}
	oldest, age := 0, c.age[base]
	for w := 1; w < c.cfg.Ways; w++ {
		if c.age[base+w] > age {
			oldest, age = w, c.age[base+w]
		}
	}
	return oldest
}

// SetLifetime attaches (or, with a nil space, detaches) a lifetime trace
// of the data array. Units are lines (set*ways+way, matching the flat
// data-bit layout), cycle reads through the supplied pointer. The cache
// records line-granular events itself (evictions read the whole line,
// fills overwrite it); callers record the per-access byte ranges via the
// Load/Store methods below.
func (c *Cache) SetLifetime(sp *lifetime.Space, cycle *uint64) {
	c.lt = sp
	c.ltCycle = cycle
}

// ltRead reports a read of bits [lo,hi) of line (set,way) to the
// lifetime trace.
func (c *Cache) ltRead(set, way, lo, hi int) {
	if c.lt != nil {
		c.lt.Read(*c.ltCycle, set*c.cfg.Ways+way, lo, hi)
	}
}

// ltWrite reports an overwrite of bits [lo,hi) of line (set,way) to the
// lifetime trace.
func (c *Cache) ltWrite(set, way, lo, hi int) {
	if c.lt != nil {
		c.lt.Write(*c.ltCycle, set*c.cfg.Ways+way, lo, hi)
	}
}

// Resident returns the data-array byte index holding addr when its line
// is resident, with no side effect on LRU state, statistics or hooks: the
// lookup a caller tracking per-byte data beside the array needs to find
// what PeekByte would read.
func (c *Cache) Resident(addr uint32) (int, bool) {
	set, tag, off := c.index(addr)
	if way := c.lookup(set, tag); way >= 0 {
		return c.lineBase(set, way) + off, true
	}
	return 0, false
}

// access ensures the line containing addr is resident and returns its way.
func (c *Cache) access(addr uint32, res *Result) (set, way, off int, ok bool) {
	c.Accesses++
	set, tag, off := c.index(addr)
	way = c.lookup(set, tag)
	if way >= 0 {
		res.Hit = true
		res.Line = set*c.cfg.Ways + way
		c.touch(set, way)
		if c.AccessHook != nil {
			c.AccessHook(set, way)
		}
		return set, way, off, true
	}
	// Miss: fill (and write back the victim if dirty).
	c.Misses++
	lineMask := ^uint32(c.cfg.LineBytes - 1)
	fillAddr := addr & lineMask
	if !c.backing.InRange(fillAddr, uint32(c.cfg.LineBytes)) {
		return 0, 0, 0, false
	}
	way = c.victim(set)
	i := set*c.cfg.Ways + way
	base := c.lineBase(set, way)
	if c.valid[i] && c.dirty[i] {
		c.Evictions++
		evAddr := c.tags[i]<<(c.offBits+c.setBits) | uint32(set)<<c.offBits
		// The write-back reads the whole victim line: a corrupted bit
		// leaves the core here (pin exposure), so it counts as consumed.
		c.ltRead(set, way, 0, c.cfg.LineBytes*8)
		copy(c.evictBuf, c.data[base:base+c.cfg.LineBytes])
		c.backing.StoreBytes(evAddr, c.evictBuf)
		res.Evicted = true
		res.EvictAddr = evAddr
		res.EvictData = c.evictBuf
	}
	c.backing.ReadBytes(fillAddr, c.data[base:base+c.cfg.LineBytes]) // in range: checked above
	c.ltWrite(set, way, 0, c.cfg.LineBytes*8)
	c.tags[i] = tag
	c.valid[i] = true
	c.dirty[i] = false
	c.touch(set, way)
	res.Filled = true
	res.FillAddr = fillAddr
	res.Line = i
	if c.AccessHook != nil {
		c.AccessHook(set, way)
	}
	return set, way, off, true
}

// LoadWord reads an aligned 32-bit word through the cache.
func (c *Cache) LoadWord(addr uint32, res *Result) (uint32, bool) {
	if addr&3 != 0 {
		return 0, false
	}
	set, way, off, ok := c.access(addr, res)
	if !ok {
		return 0, false
	}
	c.ltRead(set, way, off*8, off*8+32)
	b := c.lineBase(set, way) + off
	d := c.data
	return uint32(d[b]) | uint32(d[b+1])<<8 | uint32(d[b+2])<<16 | uint32(d[b+3])<<24, true
}

// LoadByte reads one byte through the cache.
func (c *Cache) LoadByte(addr uint32, res *Result) (byte, bool) {
	set, way, off, ok := c.access(addr, res)
	if !ok {
		return 0, false
	}
	c.ltRead(set, way, off*8, off*8+8)
	return c.data[c.lineBase(set, way)+off], true
}

// StoreWord writes an aligned 32-bit word through the cache
// (write-allocate, the line is marked dirty).
func (c *Cache) StoreWord(addr, v uint32, res *Result) bool {
	if addr&3 != 0 {
		return false
	}
	set, way, off, ok := c.access(addr, res)
	if !ok {
		return false
	}
	c.ltWrite(set, way, off*8, off*8+32)
	b := c.lineBase(set, way) + off
	c.data[b] = byte(v)
	c.data[b+1] = byte(v >> 8)
	c.data[b+2] = byte(v >> 16)
	c.data[b+3] = byte(v >> 24)
	c.dirty[set*c.cfg.Ways+way] = true
	return true
}

// StoreByte writes one byte through the cache.
func (c *Cache) StoreByte(addr uint32, v byte, res *Result) bool {
	set, way, off, ok := c.access(addr, res)
	if !ok {
		return false
	}
	c.ltWrite(set, way, off*8, off*8+8)
	c.data[c.lineBase(set, way)+off] = v
	c.dirty[set*c.cfg.Ways+way] = true
	return true
}

// PeekByte returns the byte at addr as the core observes it — from the
// cache when the line is resident, otherwise from backing memory — with
// no side effects on LRU state or statistics. Syscalls use this view so
// program output reflects dirty lines without perturbing the cache.
func (c *Cache) PeekByte(addr uint32) (byte, bool) {
	set, tag, off := c.index(addr)
	if way := c.lookup(set, tag); way >= 0 {
		c.ltRead(set, way, off*8, off*8+8)
		return c.data[c.lineBase(set, way)+off], true
	}
	return c.backing.LoadByte(addr)
}

// View returns a refsim.ByteLoader-compatible memory view through the
// cache (see PeekByte).
func (c *Cache) View() *View { return &View{c: c} }

// View adapts PeekByte to the bulk LoadBytes interface.
type View struct{ c *Cache }

// LoadBytes reads n bytes starting at addr through the cache without
// side effects.
func (v *View) LoadBytes(addr, n uint32) ([]byte, bool) {
	if !v.c.backing.InRange(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		b, ok := v.c.PeekByte(addr + i)
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// DataBits returns the number of bits in the data array.
func (c *Cache) DataBits() int { return len(c.data) * 8 }

// FlipDataBit injects a transient fault into bit i of the data array
// (0 <= i < DataBits). The mapping covers every (set, way, byte, bit).
func (c *Cache) FlipDataBit(i int) error {
	if i < 0 || i >= c.DataBits() {
		return fmt.Errorf("cache %s: data bit %d out of range", c.cfg.Name, i)
	}
	c.data[i/8] ^= 1 << (i % 8)
	return nil
}

// DataBit returns bit i of the data array (0 or 1), in FlipDataBit's
// index space.
func (c *Cache) DataBit(i int) int { return int(c.data[i/8] >> (i % 8) & 1) }

// ForceDataBit sets bit i of the data array to v (0 or 1). Idempotent;
// the persistent fault models (stuck-at, intermittent) re-assert it
// every active cycle, surviving line fills that rewrite the array.
func (c *Cache) ForceDataBit(i int, v int) error {
	if i < 0 || i >= c.DataBits() {
		return fmt.Errorf("cache %s: data bit %d out of range", c.cfg.Name, i)
	}
	mask := byte(1) << (i % 8)
	if v != 0 {
		c.data[i/8] |= mask
	} else {
		c.data[i/8] &^= mask
	}
	return nil
}

// LineOfDataBit returns the set and way holding data bit i, used by
// injection-time advancement to locate the faulted line.
func (c *Cache) LineOfDataBit(i int) (set, way int) {
	line := (i / 8) / c.cfg.LineBytes
	return line / c.cfg.Ways, line % c.cfg.Ways
}

// AddrOfSet returns a representative address selector for a set: any
// address whose set index equals set. Used in reports.
func (c *Cache) AddrOfSet(set int) uint32 {
	return uint32(set) << c.offBits
}

// LineState reports residency information for tests and reports.
func (c *Cache) LineState(set, way int) (tag uint32, valid, dirty bool) {
	i := set*c.cfg.Ways + way
	return c.tags[i], c.valid[i], c.dirty[i]
}

// WriteBackAll flushes every dirty line to backing memory, invoking fn
// (if non-nil) per line in (set, way) order. Used to compare end-of-run
// memory images and by the drain-at-exit ablation.
func (c *Cache) WriteBackAll(fn func(addr uint32, data []byte)) {
	for set := 0; set < c.sets; set++ {
		for way := 0; way < c.cfg.Ways; way++ {
			i := set*c.cfg.Ways + way
			if !c.valid[i] || !c.dirty[i] {
				continue
			}
			addr := c.tags[i]<<(c.offBits+c.setBits) | uint32(set)<<c.offBits
			c.ltRead(set, way, 0, c.cfg.LineBytes*8)
			base := c.lineBase(set, way)
			line := c.data[base : base+c.cfg.LineBytes]
			c.backing.StoreBytes(addr, line)
			c.dirty[i] = false
			if fn != nil {
				fn(addr, line)
			}
		}
	}
}

// HashState folds every architecturally significant bit of the cache
// into h for the campaign engine's convergence exit: one packed word
// per line — tag, LRU age, valid, dirty — then the data array by words.
// Statistics and the access hook are excluded: they never influence
// future accesses.
func (c *Cache) HashState(h *statehash.Hash) {
	for i, tag := range c.tags {
		w := uint64(tag) | uint64(c.age[i])<<32
		if c.valid[i] {
			w |= 1 << 40
		}
		if c.dirty[i] {
			w |= 1 << 41
		}
		h.U64(w)
	}
	h.Bytes(c.data)
}

// RestoreFrom overwrites this cache's state with src's, reusing the
// existing arrays — the allocation-free analogue of Clone behind the
// campaign engine's per-worker replay restores. The receiver keeps its
// own hooks (access, lifetime) and is rebound to backing; geometries
// must match (same factory).
func (c *Cache) RestoreFrom(src *Cache, backing *mem.Memory) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache %s: RestoreFrom across geometries", c.cfg.Name))
	}
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	copy(c.age, src.age)
	copy(c.data, src.data)
	c.backing = backing
	c.Accesses, c.Misses, c.Evictions = src.Accesses, src.Misses, src.Evictions
}

// Clone deep-copies the cache, rebinding it to the given backing memory
// (typically a snapshot of the original backing). Statistics are copied.
func (c *Cache) Clone(backing *mem.Memory) *Cache {
	n := newShell(c.cfg, backing)
	n.RestoreFrom(c, backing)
	return n
}
