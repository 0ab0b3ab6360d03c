// Package mem provides the sparse, paged physical-memory model shared by
// every simulator in this repository.
//
// Memory is organised as 4 KiB pages allocated on first write. Snapshots
// are copy-on-write: taking one is O(#pages) pointer copies, and pages are
// cloned lazily when either side writes. This is what makes differential
// fault injection (golden-run snapshot + replay from the injection point)
// cheap enough to run thousands of injections per campaign.
//
// All multi-byte accesses are little-endian. Accesses out of range report
// failure via an ok result rather than an error value because they sit on
// the simulators' hottest path; callers translate !ok into a memory-fault
// outcome.
package mem

import (
	"sync"
	"sync/atomic"

	"repro/internal/statehash"
)

// Page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

type page struct {
	data [PageSize]byte
	refs atomic.Int32 // number of Memory instances sharing this page

	// hash memoises the statehash digest of data (0 = not computed).
	// Invalidated on every write; shared pages are immutable (writes
	// clone first), so a digest computed once serves every snapshot
	// holding the page — this is what makes whole-memory hashing at
	// convergence checkpoints O(dirty pages), not O(memory).
	hash atomic.Uint64
}

// freePages recycles pages no Memory references any more. A replay
// worker restores a snapshot, dirties a few pages (each a 4 KiB clone of
// a shared one) and restores again; without reuse every such clone is
// garbage the moment the next restore drops it.
var freePages = sync.Pool{New: func() any { return new(page) }}

// release drops one reference to p; the last one out recycles the page.
// No Memory can reach p after that (a reference is only ever taken by
// copying a page-table entry whose owner still holds its own), so the
// page is free to be overwritten by its next user.
func (p *page) release() {
	if p.refs.Add(-1) == 0 {
		freePages.Put(p)
	}
}

// zeroPageHash is the digest of an all-zero page, used for unallocated
// pages so a written-then-zeroed page and a never-touched page agree.
var zeroPageHash = func() uint64 {
	var z [PageSize]byte
	return statehash.Bytes(z[:])
}()

// digest returns the page's memoised content hash, computing it on first
// use. The stored value is never 0 so 0 can mean "unknown".
func (p *page) digest() uint64 {
	if v := p.hash.Load(); v != 0 {
		return v
	}
	v := statehash.Bytes(p.data[:])
	if v == 0 {
		v = 1
	}
	p.hash.Store(v)
	return v
}

// Memory is a sparse byte-addressable physical memory of fixed size.
// The zero value is not usable; call New.
type Memory struct {
	pages []*page
	size  uint32
}

// New returns a zeroed memory of the given size in bytes. Size is rounded
// up to a whole number of pages.
func New(size uint32) *Memory {
	n := (int(size) + PageSize - 1) / PageSize
	return &Memory{
		pages: make([]*page, n),
		size:  uint32(n) * PageSize,
	}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// InRange reports whether the n-byte access at addr lies inside memory.
func (m *Memory) InRange(addr, n uint32) bool {
	return addr < m.size && m.size-addr >= n
}

// writablePage returns the page containing addr, cloning it first if it is
// shared with a snapshot.
func (m *Memory) writablePage(addr uint32) *page {
	idx := addr >> PageBits
	p := m.pages[idx]
	if p == nil {
		p = &page{}
		p.refs.Store(1)
		m.pages[idx] = p
		return p
	}
	if p.refs.Load() > 1 {
		clone := freePages.Get().(*page)
		clone.data = p.data
		clone.hash.Store(0)
		clone.refs.Store(1)
		p.release()
		m.pages[idx] = clone
		return clone
	}
	p.hash.Store(0) // content about to change; drop the memoised digest
	return p
}

// Hash returns an order-sensitive digest of the full memory
// contents. Unallocated pages hash as zero pages, so logically equal
// memories with different allocation histories agree. Per-page digests
// are memoised on the (copy-on-write shared) pages, so repeated hashing
// along a run only pays for pages written since the previous call.
func (m *Memory) Hash() uint64 {
	h := statehash.New()
	for _, p := range m.pages {
		if p == nil {
			h.U64(zeroPageHash)
		} else {
			h.U64(p.digest())
		}
	}
	return h.Sum()
}

// LoadByte reads one byte. ok is false when addr is out of range.
func (m *Memory) LoadByte(addr uint32) (b byte, ok bool) {
	if addr >= m.size {
		return 0, false
	}
	p := m.pages[addr>>PageBits]
	if p == nil {
		return 0, true
	}
	return p.data[addr&pageMask], true
}

// StoreByte writes one byte. ok is false when addr is out of range.
func (m *Memory) StoreByte(addr uint32, b byte) bool {
	if addr >= m.size {
		return false
	}
	m.writablePage(addr).data[addr&pageMask] = b
	return true
}

// LoadWord reads a little-endian 32-bit word. The address may be
// unaligned. ok is false when any byte is out of range.
func (m *Memory) LoadWord(addr uint32) (w uint32, ok bool) {
	if !m.InRange(addr, 4) {
		return 0, false
	}
	if addr&pageMask <= PageSize-4 {
		p := m.pages[addr>>PageBits]
		if p == nil {
			return 0, true
		}
		o := addr & pageMask
		return uint32(p.data[o]) | uint32(p.data[o+1])<<8 |
			uint32(p.data[o+2])<<16 | uint32(p.data[o+3])<<24, true
	}
	for i := uint32(0); i < 4; i++ {
		b, _ := m.LoadByte(addr + i)
		w |= uint32(b) << (8 * i)
	}
	return w, true
}

// StoreWord writes a little-endian 32-bit word. The address may be
// unaligned. It reports whether the access was in range.
func (m *Memory) StoreWord(addr, w uint32) bool {
	if !m.InRange(addr, 4) {
		return false
	}
	if addr&pageMask <= PageSize-4 {
		p := m.writablePage(addr)
		o := addr & pageMask
		p.data[o] = byte(w)
		p.data[o+1] = byte(w >> 8)
		p.data[o+2] = byte(w >> 16)
		p.data[o+3] = byte(w >> 24)
		return true
	}
	for i := uint32(0); i < 4; i++ {
		m.StoreByte(addr+i, byte(w>>(8*i)))
	}
	return true
}

// LoadBytes copies n bytes starting at addr into a fresh slice. ok is
// false when the range is out of bounds.
func (m *Memory) LoadBytes(addr, n uint32) ([]byte, bool) {
	if !m.InRange(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	return out, m.ReadBytes(addr, out)
}

// ReadBytes copies len(dst) bytes starting at addr into dst: LoadBytes
// for a caller that owns the buffer (a cache fill), so the access costs
// no allocation. It reports whether the whole range was in bounds.
func (m *Memory) ReadBytes(addr uint32, dst []byte) bool {
	n := uint32(len(dst))
	if !m.InRange(addr, n) {
		return false
	}
	for i := range dst {
		dst[i], _ = m.LoadByte(addr + uint32(i))
	}
	return true
}

// StoreBytes copies buf into memory starting at addr. It reports whether
// the whole range was in bounds.
func (m *Memory) StoreBytes(addr uint32, buf []byte) bool {
	if !m.InRange(addr, uint32(len(buf))) {
		return false
	}
	for i, b := range buf {
		m.StoreByte(addr+uint32(i), b)
	}
	return true
}

// FlipBit inverts a single bit of memory (bit 0..7 of the byte at addr).
// It reports whether addr was in range. This is the memory-array fault
// injection primitive.
func (m *Memory) FlipBit(addr uint32, bit uint) bool {
	b, ok := m.LoadByte(addr)
	if !ok {
		return false
	}
	return m.StoreByte(addr, b^(1<<(bit&7)))
}

// Snapshot returns a copy-on-write snapshot of the memory. The snapshot
// and the original may both be read and written independently afterwards;
// pages are cloned lazily on first write by either side.
func (m *Memory) Snapshot() *Memory {
	s := &Memory{pages: make([]*page, len(m.pages)), size: m.size}
	for i, p := range m.pages {
		if p != nil {
			p.refs.Add(1)
			s.pages[i] = p
		}
	}
	return s
}

// RestoreFrom rewinds this memory to src's contents as a copy-on-write
// share, reusing the existing page table instead of allocating a fresh
// Memory — the allocation-free analogue of src.Snapshot() used by the
// campaign engine's per-worker replay restores. The receiver's previous
// page references are released (pages it alone held go back to the
// clone pool); src is untouched and both sides keep cloning lazily on
// write. Sizes must match (same program image).
func (m *Memory) RestoreFrom(src *Memory) {
	if m.size != src.size {
		panic("mem: RestoreFrom across different memory sizes")
	}
	for i, p := range m.pages {
		q := src.pages[i]
		if p == q {
			continue
		}
		if q != nil {
			q.refs.Add(1)
		}
		if p != nil {
			p.release()
		}
		m.pages[i] = q
	}
}

// Equal reports whether two memories have identical contents. Sizes must
// match. Shared (or both-nil) pages are skipped without comparison, making
// golden-vs-faulty comparison after a snapshot cheap.
func (m *Memory) Equal(o *Memory) bool {
	if m.size != o.size {
		return false
	}
	for i := range m.pages {
		a, b := m.pages[i], o.pages[i]
		if a == b {
			continue
		}
		var za, zb [PageSize]byte
		pa, pb := &za, &zb
		if a != nil {
			pa = &a.data
		}
		if b != nil {
			pb = &b.data
		}
		if *pa != *pb {
			return false
		}
	}
	return true
}
