package rtl

import "repro/internal/statehash"

// State is an opaque capture of a design's sequential state: every
// register's latched value and pending D input, every memory's contents
// and queued writes, and the cycle counter. It is the RTL analogue of the
// microarchitectural model's Clone and enables differential fault
// injection (replay from the snapshot nearest the injection cycle).
//
// The capture is complete only for a design whose combinational logic
// keeps no state of its own: it reads registers and memories, drives
// their inputs, and runs again after the next Tick.
type State struct {
	regs  []regState
	mems  []memState
	cycle uint64
}

type regState struct {
	cur  uint64
	d    uint64
	dSet bool
}

type memState struct {
	data  []uint64
	queue []memWrite
}

// CaptureState snapshots all sequential state into st, a capture of this
// same design the caller has finished with, reusing its storage; a nil st
// allocates a fresh capture.
func (s *Simulator) CaptureState(st *State) *State {
	if st == nil {
		st = &State{regs: make([]regState, len(s.regs)), mems: make([]memState, len(s.mems))}
	}
	st.cycle = s.CycleCount
	for i, r := range s.regs {
		st.regs[i] = regState{cur: r.cur, d: r.d, dSet: r.dSet}
	}
	for i, m := range s.mems {
		ms := &st.mems[i]
		ms.data = append(ms.data[:0], m.data...)
		ms.queue = append(ms.queue[:0], m.queue...)
	}
	return st
}

// RestoreState reinstates a capture taken from this same design. The
// capture itself is not consumed and may be restored repeatedly.
func (s *Simulator) RestoreState(st *State) {
	for i, r := range s.regs {
		r.cur = st.regs[i].cur
		r.d = st.regs[i].d
		r.dSet = st.regs[i].dSet
	}
	s.pending = nil
	for i, m := range s.mems {
		copy(m.data, st.mems[i].data)
		m.queue = append(m.queue[:0], st.mems[i].queue...)
		if len(m.queue) > 0 {
			m.next, s.pending = s.pending, m
		}
	}
	s.CycleCount = st.cycle
}

// HashState folds the design's complete sequential state — every
// register's latched value and pending D input, every memory's contents
// and queued writes, and the cycle counter — into h, in declaration
// order. It covers exactly the state CaptureState snapshots, which is
// the state that determines the design's future, so equal digests at
// equal cycles imply equal futures.
func (s *Simulator) HashState(h *statehash.Hash) {
	// Two words per register; the dSet bits ride in masks of 64.
	var dSet uint64
	for i, r := range s.regs {
		h.U64(r.cur)
		h.U64(r.d)
		if r.dSet {
			dSet |= 1 << (i % 64)
		}
		if i%64 == 63 || i == len(s.regs)-1 {
			h.U64(dSet)
			dSet = 0
		}
	}
	for _, m := range s.mems {
		for _, w := range m.data {
			h.U64(w)
		}
		h.Int(len(m.queue))
		for _, w := range m.queue {
			h.Int(w.idx)
			h.U64(w.v)
		}
	}
	h.U64(s.CycleCount)
}
