package rtl

import (
	"slices"

	"repro/internal/statehash"
)

// State is an opaque capture of a design's sequential state: every
// register's latched value and pending D input, every memory's contents
// and queued writes, and the cycle counter. It is the RTL analogue of the
// microarchitectural model's Clone and enables differential fault
// injection (replay from the snapshot nearest the injection cycle).
//
// The capture is complete only for a design whose combinational logic
// keeps no state of its own: it reads registers and memories, drives
// their inputs, and runs again after the next Tick.
//
// A fresh capture copies only the arrays that changed since the
// simulator's previous fresh capture and shares the others with it, so
// an array held by a fresh capture is never written again: restores
// read it from any number of goroutines at once. A capture recycled
// through CaptureState(st) owns what it writes; see CaptureState.
type State struct {
	// regs holds each register's latched value and pending D input, two
	// words per register in declaration order, then the D-valid flags in
	// masks of 64: a third smaller than a word-aligned flag per register.
	regs  []uint64
	mems  []memState
	cycle uint64
	// own marks the arrays as this capture's private copies, which a
	// recycling CaptureState overwrites in place. A fresh capture owns
	// none of them; the first recycling gives it a copy of each.
	own bool
}

type memState struct {
	data  []uint64
	queue []memWrite
}

// CaptureState snapshots all sequential state into st, a capture of this
// same design the caller has finished with, reusing its storage; a nil st
// allocates a fresh capture.
//
// A fresh capture shares with the simulator's previous fresh capture
// every array whose contents still equal it (compared word by word here,
// so nothing is tracked on the clock edge) and copies the rest; its
// arrays then become the ones the next fresh capture compares against.
// A recycled st copies over the arrays it owns and replaces each one it
// shares by a private copy, once; the arrays it owns are never shared.
func (s *Simulator) CaptureState(st *State) *State {
	fresh := st == nil
	if fresh {
		st = &State{regs: make([]uint64, 2*len(s.regs)+(len(s.regs)+63)/64), mems: make([]memState, len(s.mems))}
	}
	st.cycle = s.CycleCount
	dSet := st.regs[2*len(s.regs):]
	clear(dSet)
	for i, r := range s.regs {
		st.regs[2*i], st.regs[2*i+1] = r.cur, r.d
		if r.dSet {
			dSet[i/64] |= 1 << (i % 64)
		}
	}
	for i, m := range s.mems {
		ms := &st.mems[i]
		switch {
		case fresh && slices.Equal(s.prev[i], m.data):
			ms.data = s.prev[i]
		case fresh:
			ms.data = slices.Clone(m.data)
			s.prev[i] = ms.data
		case st.own:
			copy(ms.data, m.data)
		default:
			ms.data = slices.Clone(m.data)
		}
		ms.queue = append(ms.queue[:0], m.queue...)
	}
	st.own = !fresh
	return st
}

// RestoreState reinstates a capture taken from this same design. The
// capture itself is not consumed and may be restored repeatedly.
func (s *Simulator) RestoreState(st *State) {
	dSet := st.regs[2*len(s.regs):]
	for i, r := range s.regs {
		r.cur, r.d = st.regs[2*i], st.regs[2*i+1]
		r.dSet = dSet[i/64]>>(i%64)&1 != 0
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
