// Package trace implements the observation points of the reliability
// assessment flows:
//
//   - the core pinout (the industrial Safeness observation point): an
//     ordered capture of the bus transactions leaving the core, i.e. the
//     write-backs of dirty L1 lines into the lower memory hierarchy;
//   - the software observation point (SOP): the program output stream,
//     used for AVF-style classification.
//
// Transaction payloads are stored as FNV-1a digests so that arbitrarily
// long campaign windows stay cheap to record and compare.
package trace

import "sort"

// Kind classifies a bus transaction.
type Kind uint8

// Transaction kinds.
const (
	KindWriteback Kind = iota + 1 // dirty line leaving the L1
)

func (k Kind) String() string {
	switch k {
	case KindWriteback:
		return "writeback"
	default:
		return "unknown"
	}
}

// Transaction is one observable bus event.
type Transaction struct {
	Cycle  uint64
	Addr   uint32
	Kind   Kind
	Digest uint64
}

// DigestBytes hashes a transaction payload with FNV-1a.
func DigestBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// Pinout is an ordered capture of core-boundary transactions.
type Pinout struct {
	Txns []Transaction
}

// Record appends a transaction.
func (p *Pinout) Record(cycle uint64, addr uint32, kind Kind, data []byte) {
	if p == nil {
		return
	}
	p.Txns = append(p.Txns, Transaction{
		Cycle:  cycle,
		Addr:   addr,
		Kind:   kind,
		Digest: DigestBytes(data),
	})
}

// Reset drops all captured transactions, keeping the backing storage —
// the campaign engine reuses one Pinout per worker across replays so
// the hot loop stays allocation-free once the capture has grown to the
// longest replay's size.
func (p *Pinout) Reset() {
	p.Txns = p.Txns[:0]
}

// Len returns the number of captured transactions.
func (p *Pinout) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Txns)
}

// CompareMode selects how two pinout traces are matched.
type CompareMode int

// Compare modes.
const (
	// CompareContent matches the ordered sequence of (addr, kind,
	// digest) tuples, ignoring exact cycle stamps. This is the default:
	// it tolerates benign timing drift while catching every value or
	// ordering deviation.
	CompareContent CompareMode = iota + 1
	// CompareStrictCycle additionally requires identical cycle stamps,
	// the closest analogue of comparing raw signal dumps.
	CompareStrictCycle
)

// Diff describes the first difference found by Compare.
type Diff struct {
	Match bool
	Index int    // first differing transaction index (-1 when Match)
	Why   string // short human-readable cause
	// Final marks a mismatch that no later uptoCycle can undo: a
	// content mismatch, or a cycle mismatch under CompareStrictCycle, at
	// an index inside both windows. Captures are appended in nondecreasing
	// cycle order and a window (fromCycle, uptoCycle] grows only at its
	// end as uptoCycle grows, so both transactions at Index stay where
	// they are and the same Diff comes back for every later uptoCycle.
	// A count mismatch is never final: the shorter capture may still
	// catch up.
	Final bool
}

// Compare matches a faulty pinout capture against the golden capture over
// the observation window [0, uptoCycle]. Golden transactions after
// uptoCycle are ignored: the faulty run was only simulated that far.
func Compare(golden, faulty *Pinout, uptoCycle uint64, mode CompareMode) Diff {
	return CompareWindow(golden, faulty, 0, uptoCycle, mode)
}

// CompareWindow matches a faulty capture that begins after fromCycle (the
// replay snapshot point) against the golden capture restricted to
// transactions with fromCycle < Cycle <= uptoCycle.
func CompareWindow(golden, faulty *Pinout, fromCycle, uptoCycle uint64, mode CompareMode) Diff {
	g := golden.Window(fromCycle, uptoCycle)
	f := faulty.Window(fromCycle, uptoCycle)
	n := min(len(g), len(f))
	for i := 0; i < n; i++ {
		if g[i].Addr != f[i].Addr || g[i].Kind != f[i].Kind || g[i].Digest != f[i].Digest {
			return Diff{Index: i, Why: "transaction content mismatch", Final: true}
		}
		if mode == CompareStrictCycle && g[i].Cycle != f[i].Cycle {
			return Diff{Index: i, Why: "transaction cycle mismatch", Final: true}
		}
	}
	if len(g) != len(f) {
		return Diff{Index: n, Why: "transaction count mismatch"}
	}
	return Diff{Match: true, Index: -1}
}

// Window returns the transactions with fromCycle < Cycle <= uptoCycle,
// aliasing p's storage. Transactions are recorded in nondecreasing cycle
// order, so both bounds are binary searches.
func (p *Pinout) Window(fromCycle, uptoCycle uint64) []Transaction {
	if p == nil {
		return nil
	}
	txns := p.Txns
	hi := sort.Search(len(txns), func(i int) bool { return txns[i].Cycle > uptoCycle })
	lo := sort.Search(hi, func(i int) bool { return txns[i].Cycle > fromCycle })
	return txns[lo:hi]
}
