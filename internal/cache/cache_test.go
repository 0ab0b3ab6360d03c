package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lifetime"
	"repro/internal/mem"
	"repro/internal/statehash"
)

func testCache(t *testing.T, size, ways, line int) (*Cache, *mem.Memory) {
	t.Helper()
	m := mem.New(1 << 16)
	c, err := New(Config{Name: "t", SizeBytes: size, Ways: ways, LineBytes: line}, m)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "b", SizeBytes: 0, Ways: 1, LineBytes: 32},
		{Name: "b", SizeBytes: 1024, Ways: 3, LineBytes: 31},
		{Name: "b", SizeBytes: 1000, Ways: 4, LineBytes: 32},
		{Name: "b", SizeBytes: 4096 * 3, Ways: 4, LineBytes: 32}, // 96 sets
		{Name: "b", SizeBytes: 64, Ways: 2, LineBytes: 2},        // a word spans two lines
		{Name: "b", SizeBytes: 64, Ways: 1, LineBytes: 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded", cfg)
		}
	}
	good := Config{Name: "g", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 32}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v): %v", good, err)
	}
	if good.Sets() != 256 {
		t.Errorf("Sets() = %d, want 256", good.Sets())
	}
	if small := (Config{Name: "g", SizeBytes: 64, Ways: 2, LineBytes: 4}); small.Validate() != nil {
		t.Errorf("Validate(%+v) failed: one word per line is enough", small)
	}
}

// TestWordAt: WordAt on the line an access used reads what LoadWord
// read, and moves nothing a later access or the digest could see.
func TestWordAt(t *testing.T) {
	c, m := testCache(t, 256, 2, 16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		addr := uint32(rng.Intn(1<<12)) &^ 3
		if rng.Intn(4) == 0 {
			m.StoreWord(addr, rng.Uint32())
		}
		var r Result
		v, ok := c.LoadWord(addr, &r)
		if !ok {
			t.Fatalf("LoadWord(%#x) failed", addr)
		}
		h, acc := statehash.New(), c.Accesses
		c.HashState(h)
		before := h.Sum()
		if got := c.WordAt(r.Line, int(addr&15)); got != v {
			t.Fatalf("WordAt(%d, %d) = %#x, LoadWord(%#x) = %#x", r.Line, addr&15, got, addr, v)
		}
		h = statehash.New()
		c.HashState(h)
		if h.Sum() != before || c.Accesses != acc {
			t.Fatal("WordAt changed the cache state")
		}
	}
}

func TestHitMiss(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	m.StoreWord(0x100, 0xAABBCCDD)
	var r Result
	v, ok := c.LoadWord(0x100, &r)
	if !ok || v != 0xAABBCCDD || r.Hit || !r.Filled {
		t.Fatalf("first load: v=%#x ok=%v res=%+v", v, ok, r)
	}
	r = Result{}
	v, ok = c.LoadWord(0x104, &r) // same line
	if !ok || v != 0 || !r.Hit {
		t.Fatalf("second load: v=%#x ok=%v res=%+v", v, ok, r)
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("stats: %d accesses, %d misses", c.Accesses, c.Misses)
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, 32B lines, 128B cache -> 2 sets.
	c, m := testCache(t, 128, 2, 32)
	var r Result
	// Three different lines mapping to set 0 (stride = 64 bytes).
	if !c.StoreWord(0x000, 1, &r) {
		t.Fatal("store 0")
	}
	if !c.StoreWord(0x040, 2, &r) {
		t.Fatal("store 1")
	}
	// Backing memory must not yet see the dirty data.
	if v, _ := m.LoadWord(0x000); v != 0 {
		t.Fatalf("write-through observed: %d", v)
	}
	r = Result{}
	if !c.StoreWord(0x080, 3, &r) {
		t.Fatal("store 2")
	}
	if !r.Evicted || r.EvictAddr != 0x000 {
		t.Fatalf("expected LRU eviction of line 0: %+v", r)
	}
	if v, _ := m.LoadWord(0x000); v != 1 {
		t.Fatalf("write-back value = %d, want 1", v)
	}
}

func TestLRUOrder(t *testing.T) {
	c, _ := testCache(t, 128, 2, 32) // 2 sets, 2 ways
	var r Result
	c.LoadWord(0x000, &r) // A
	c.LoadWord(0x040, &r) // B
	c.LoadWord(0x000, &r) // touch A -> B is LRU
	c.StoreWord(0x000, 7, &r)
	r = Result{}
	c.LoadWord(0x080, &r) // C evicts B (clean, no writeback)
	if r.Evicted {
		t.Fatalf("clean line evicted with writeback: %+v", r)
	}
	r = Result{}
	c.LoadWord(0x000, &r) // A must still hit (and hold the stored value)
	if !r.Hit {
		t.Error("touched line was evicted")
	}
}

func TestUnalignedWordRejected(t *testing.T) {
	c, _ := testCache(t, 1024, 2, 32)
	var r Result
	if _, ok := c.LoadWord(2, &r); ok {
		t.Error("unaligned load succeeded")
	}
	if c.StoreWord(6, 1, &r) {
		t.Error("unaligned store succeeded")
	}
}

func TestOutOfRange(t *testing.T) {
	c, _ := testCache(t, 1024, 2, 32)
	var r Result
	if _, ok := c.LoadWord(0xFFFF0000, &r); ok {
		t.Error("out-of-range load succeeded")
	}
}

func TestFlipDataBit(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	m.StoreWord(0x20, 0)
	var r Result
	c.LoadWord(0x20, &r)
	// Find the bit for address 0x20 and flip bit 0 of its first byte.
	set, tag, _ := c.index(0x20)
	way := c.lookup(set, tag)
	bit := (c.lineBase(set, way)) * 8
	if err := c.FlipDataBit(bit); err != nil {
		t.Fatal(err)
	}
	v, _ := c.LoadWord(0x20, &r)
	if v != 1 {
		t.Errorf("after flip: %d, want 1", v)
	}
	gs, gw := c.LineOfDataBit(bit)
	if gs != set || gw != way {
		t.Errorf("LineOfDataBit = (%d,%d), want (%d,%d)", gs, gw, set, way)
	}
	if err := c.FlipDataBit(c.DataBits()); err == nil {
		t.Error("FlipDataBit out of range succeeded")
	}
}

func TestWriteBackAll(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	var r Result
	c.StoreWord(0x100, 42, &r)
	c.StoreWord(0x200, 43, &r)
	var flushed int
	c.WriteBackAll(func(addr uint32, data []byte) { flushed++ })
	if flushed != 2 {
		t.Errorf("flushed %d lines, want 2", flushed)
	}
	if v, _ := m.LoadWord(0x100); v != 42 {
		t.Errorf("backing after flush: %d", v)
	}
	// Second flush is a no-op.
	flushed = 0
	c.WriteBackAll(func(addr uint32, data []byte) { flushed++ })
	if flushed != 0 {
		t.Errorf("double flush wrote %d lines", flushed)
	}
}

func TestCloneIsolation(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	var r Result
	c.StoreWord(0x40, 7, &r)
	snap := m.Snapshot()
	cc := c.Clone(snap)
	cc.StoreWord(0x40, 9, &r)
	if v, _ := c.LoadWord(0x40, &r); v != 7 {
		t.Errorf("original sees clone write: %d", v)
	}
	if v, _ := cc.LoadWord(0x40, &r); v != 9 {
		t.Errorf("clone lost write: %d", v)
	}
}

// TestAgainstFlatMemory drives random aligned accesses through the cache
// and a flat reference memory; contents must agree, and after WriteBackAll
// the backing memory must equal the reference.
func TestAgainstFlatMemory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := mem.New(1 << 14)
		ref := mem.New(1 << 14)
		c, err := New(Config{Name: "q", SizeBytes: 512, Ways: 4, LineBytes: 32}, m)
		if err != nil {
			t.Fatal(err)
		}
		var r Result
		for i := 0; i < 3000; i++ {
			addr := uint32(rng.Intn(1<<14)) &^ 3
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint32()
				c.StoreWord(addr, v, &r)
				ref.StoreWord(addr, v)
			case 1:
				v := byte(rng.Intn(256))
				b := addr + uint32(rng.Intn(4))
				c.StoreByte(b, v, &r)
				ref.StoreByte(b, v)
			case 2:
				got, ok := c.LoadWord(addr, &r)
				want, _ := ref.LoadWord(addr)
				if !ok || got != want {
					return false
				}
			default:
				b := addr + uint32(rng.Intn(4))
				got, ok := c.LoadByte(b, &r)
				want, _ := ref.LoadByte(b)
				if !ok || got != want {
					return false
				}
			}
		}
		c.WriteBackAll(nil)
		return m.Equal(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestHashStateRoundTrip: Clone must reproduce an identical state
// digest, and every covered state class (data, tags/valid/dirty, LRU)
// must perturb it — the behavioural cache's half of the campaign
// engine's convergence-exit contract.
func TestHashStateRoundTrip(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	var res Result
	for i := uint32(0); i < 64; i++ {
		if !c.StoreWord(i*44%4096&^3, i, &res) {
			t.Fatal("store failed")
		}
	}
	digest := func(c *Cache) uint64 {
		h := statehash.New()
		c.HashState(h)
		return h.Sum()
	}
	before := digest(c)
	clone := c.Clone(m.Snapshot())
	if digest(clone) != before {
		t.Error("clone digests differently from its original")
	}
	if err := clone.FlipDataBit(17); err != nil {
		t.Fatal(err)
	}
	if digest(clone) == before {
		t.Error("data-array flip left the digest unchanged")
	}
	if err := clone.FlipDataBit(17); err != nil {
		t.Fatal(err)
	}
	if digest(clone) != before {
		t.Error("flip-flip did not restore the digest")
	}
	// An access reorders LRU state without touching data: the digest
	// must see that too, or replays could "converge" into a cache that
	// will evict a different line.
	if _, ok := clone.LoadWord(0, &res); !ok {
		t.Fatal("load failed")
	}
	if digest(clone) == before && clone.cfg.Ways > 1 {
		t.Error("LRU touch left the digest unchanged")
	}
}

// TestHashStateCoversLineState holds the one-word-per-line packing to
// the arrays: flipping any bit of any line's tag or age, or its valid or
// dirty flag, must move the digest — over the live state and over
// all-ones state, where a field packed across its neighbour's bits
// would hide the neighbour.
func TestHashStateCoversLineState(t *testing.T) {
	c, _ := testCache(t, 512, 4, 32)
	var res Result
	for i := uint32(0); i < 40; i++ {
		if !c.StoreWord(i*100&^3, i, &res) {
			t.Fatal("store failed")
		}
	}
	digest := func() uint64 {
		h := statehash.New()
		c.HashState(h)
		return h.Sum()
	}
	for _, ones := range []bool{false, true} {
		if ones {
			for i := range c.tags {
				c.tags[i], c.age[i], c.valid[i], c.dirty[i] = ^uint32(0), 0xFF, true, true
			}
		}
		base := digest()
		check := func(what string, line int) {
			t.Helper()
			if digest() == base {
				t.Errorf("ones=%v: mutating %s of line %d left the digest unchanged", ones, what, line)
			}
		}
		for i := range c.tags {
			for bit := 0; bit < 32; bit++ {
				c.tags[i] ^= 1 << bit
				check("tag", i)
				c.tags[i] ^= 1 << bit
			}
			for bit := 0; bit < 8; bit++ {
				c.age[i] ^= 1 << bit
				check("age", i)
				c.age[i] ^= 1 << bit
			}
			c.valid[i] = !c.valid[i]
			check("valid", i)
			c.valid[i] = !c.valid[i]
			c.dirty[i] = !c.dirty[i]
			check("dirty", i)
			c.dirty[i] = !c.dirty[i]
		}
		for i := range c.data {
			c.data[i] ^= 0x80
			check("data byte", i/c.cfg.LineBytes)
			c.data[i] ^= 0x80
		}
		if digest() != base {
			t.Fatal("undoing every mutation did not restore the digest")
		}
	}
}

func TestLifetimeEvents(t *testing.T) {
	c, m := testCache(t, 1024, 2, 32)
	cycle := uint64(0)
	lines := c.Config().Sets() * c.Config().Ways
	sp := lifetime.NewSpace(lines, 32*8)
	c.SetLifetime(sp, &cycle)

	m.StoreWord(0x100, 0xAABBCCDD)
	var r Result
	cycle = 10
	if _, ok := c.LoadWord(0x100, &r); !ok {
		t.Fatal("load failed")
	}
	lineIdx := func(addr uint32) int {
		s, tg, _ := c.index(addr)
		w := c.lookup(s, tg)
		if w < 0 {
			t.Fatalf("line for %#x not resident", addr)
		}
		return s*c.Config().Ways + w
	}
	li := lineIdx(0x100)
	off := int(0x100 & uint32(c.Config().LineBytes-1))
	loadedBit := li*c.Config().LineBytes*8 + off*8
	otherBit := li*c.Config().LineBytes*8 + ((off+8)%c.Config().LineBytes)*8

	// A fault planted before the miss dies: the fill overwrites the
	// whole victim line before the load reads anything from the array.
	if v := sp.ClassifyBit(loadedBit, 9, 1<<40); v.Live {
		t.Fatalf("pre-fill bit: %+v, want dead (fill overwrites the line)", v)
	}
	// A fault planted after the fill is consumed by a hit on the word.
	cycle = 12
	if _, ok := c.LoadWord(0x100, &r); !ok {
		t.Fatal("hit load failed")
	}
	if v := sp.ClassifyBit(loadedBit, 10, 1<<40); !v.Live || v.Cycle != 12 {
		t.Fatalf("resident loaded bit: %+v, want live @12", v)
	}
	if v := sp.ClassifyBit(otherBit, 10, 1<<40); v.Live {
		t.Fatalf("unread line bit: %+v, want dead so far", v)
	}

	// A store overwrites its word: a pre-store fault in that word dies.
	cycle = 20
	if !c.StoreWord(0x104, 1, &r) {
		t.Fatal("store failed")
	}
	storedBit := li*c.Config().LineBytes*8 + 4*8
	if v := sp.ClassifyBit(storedBit, 15, 1<<40); v.Live {
		t.Fatalf("stored-over bit: %+v, want dead", v)
	}

	// PeekByte (the syscall view) consumes resident bytes.
	cycle = 30
	if _, ok := c.PeekByte(0x104); !ok {
		t.Fatal("peek failed")
	}
	if v := sp.ClassifyBit(storedBit, 25, 1<<40); !v.Live || v.Cycle != 30 {
		t.Fatalf("peeked bit: %+v, want live @30", v)
	}

	// Eviction write-back reads the whole dirty line (pin exposure).
	cycle = 40
	evicted := false
	for a := uint32(0x100); !evicted; a += 1024 {
		var rr Result
		if !c.StoreWord(a+0x400, 2, &rr) {
			t.Fatal("conflict store failed")
		}
		evicted = evicted || rr.Evicted
		if rr.Evicted {
			break
		}
	}
	if v := sp.ClassifyBit(otherBit, 35, 1<<40); !v.Live || v.Cycle != 40 {
		t.Fatalf("evicted line bit: %+v, want live @40 (write-back consumed the line)", v)
	}
}
