package core

import (
	"fmt"
	"math/bits"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/microarch"
	"repro/internal/refsim"
	"repro/internal/rtl"
	"repro/internal/rtlcore"
	"repro/internal/trace"
)

// maSim adapts the microarchitectural model to the campaign interface.
// Snapshots are self-contained clones, so Restore simply swaps the live
// CPU for a fresh clone of the capture; this also makes snapshots
// shareable across worker instances.
type maSim struct {
	cpu *microarch.CPU
}

var _ campaign.Simulator = (*maSim)(nil)

func (s *maSim) Step() bool                             { return s.cpu.Step() }
func (s *maSim) Run(max uint64) refsim.StopReason       { return s.cpu.Run(max) }
func (s *maSim) Cycles() uint64                         { return s.cpu.Cycles }
func (s *maSim) StopReason() refsim.StopReason          { return s.cpu.Stop }
func (s *maSim) Output() []byte                         { return s.cpu.Output }
func (s *maSim) SetPinout(p *trace.Pinout)              { s.cpu.Pinout = p }
func (s *maSim) SetL1DAccessHook(fn func(set, way int)) { s.cpu.L1D.AccessHook = fn }
func (s *maSim) L1DLineOfBit(bit int) (int, int)        { return s.cpu.L1D.LineOfDataBit(bit) }
func (s *maSim) StateHash() uint64                      { return s.cpu.StateHash() }

// SetLifetime registers the microarchitectural lifetime traces: the
// physical register file at register granularity and the L1D data array
// at line granularity, both matching the flat fault bit spaces.
func (s *maSim) SetLifetime(rec *lifetime.Recorder) {
	if rec == nil {
		s.cpu.SetLifetime(nil, nil)
		return
	}
	lineBits := s.cpu.L1D.Config().LineBytes * 8
	s.cpu.SetLifetime(
		rec.Space(int(fault.TargetRF), s.cpu.RFBits()/32, 32),
		rec.Space(int(fault.TargetL1D), s.cpu.L1DBits()/lineBits, lineBits),
	)
}

func (s *maSim) Bits(t fault.Target) int {
	switch t {
	case fault.TargetRF:
		return s.cpu.RFBits()
	case fault.TargetL1D:
		return s.cpu.L1DBits()
	default:
		return 0 // pipeline latches are not modelled at this level
	}
}

func (s *maSim) Flip(t fault.Target, bit int) error {
	switch t {
	case fault.TargetRF:
		return s.cpu.FlipRFBit(bit)
	case fault.TargetL1D:
		return s.cpu.FlipL1DBit(bit)
	default:
		return fmt.Errorf("core: target %v does not exist at the microarchitectural level", t)
	}
}

func (s *maSim) Force(t fault.Target, bit, v int) error {
	switch t {
	case fault.TargetRF:
		return s.cpu.ForceRFBit(bit, v)
	case fault.TargetL1D:
		return s.cpu.ForceL1DBit(bit, v)
	default:
		return fmt.Errorf("core: target %v does not exist at the microarchitectural level", t)
	}
}

func (s *maSim) Snapshot() campaign.Snapshot { return s.cpu.Clone() }

// LiveSnapshot exposes the live CPU as a zero-copy restore source for
// the cursor fork: RestoreFrom only reads its base, so the replay
// worker can deep-copy straight out of the cursor's current state
// without paying a full Clone per fork. The value is invalidated by the
// next Step.
func (s *maSim) LiveSnapshot() campaign.Snapshot { return s.cpu }

var _ campaign.LiveSnapshotter = (*maSim)(nil)

func (s *maSim) Restore(snap campaign.Snapshot) {
	base, ok := snap.(*microarch.CPU)
	if !ok {
		panic("core: foreign snapshot passed to microarch simulator")
	}
	// In-place restore: the worker's CPU reuses its own storage (cache
	// arrays, page table, uop slab) instead of discarding itself for a
	// fresh clone on every replay.
	s.cpu.RestoreFrom(base)
}

// SnapshotInto recycles old, an earlier capture of this simulator, as
// the storage of a new one (campaign.BatchCapable's ring capture): an
// in-place RestoreFrom the live CPU instead of a Clone.
func (s *maSim) SnapshotInto(old campaign.Snapshot) campaign.Snapshot {
	prev, _ := old.(*microarch.CPU)
	if prev == nil {
		return s.cpu.Clone()
	}
	prev.RestoreFrom(s.cpu)
	return prev
}

// BatchLanes exposes the microarchitectural model's lockstep replay
// surface: a lane tracker over the physical register file or the L1D
// data array, fed by the hooks that record the lifetime trace.
func (s *maSim) BatchLanes(t fault.Target) (campaign.LaneSet, bool) {
	var tr *lifetime.Lanes
	switch t {
	case fault.TargetRF:
		tr = lifetime.NewLanes(s.cpu.RFBits()/32, 32, s.cpu.RFBit)
		s.cpu.SetLanes(tr, nil)
	case fault.TargetL1D:
		lineBits := s.cpu.L1D.Config().LineBytes * 8
		tr = lifetime.NewLanes(s.cpu.L1DBits()/lineBits, lineBits, s.cpu.L1D.DataBit)
		s.cpu.SetLanes(nil, tr)
	default:
		return nil, false
	}
	return &maLanes{Lanes: tr, cpu: s.cpu, target: t}, true
}

var _ campaign.BatchCapable = (*maSim)(nil)

// maLanes adapts a lifetime.Lanes attached to a microarch CPU to the
// campaign's LaneSet; the tracker's flat bit space is the target's
// Simulator.Flip space.
type maLanes struct {
	*lifetime.Lanes
	cpu    *microarch.CPU
	target fault.Target
}

// Activate is a no-op: the tracker follows a lane from its first dirty
// bit.
func (l *maLanes) Activate(int) {}

func (l *maLanes) Detach() { l.cpu.SetLanes(nil, nil) }

// ApplyPeelDiff flips the lane's pre-tick dirty bits on a scalar
// simulator through the campaign flip primitive.
func (l *maLanes) ApplyPeelDiff(lane int, sim campaign.Simulator) error {
	var applyErr error
	l.PeelDiff(lane, func(bit int) {
		if applyErr == nil {
			applyErr = sim.Flip(l.target, bit)
		}
	})
	return applyErr
}

// rtlSim adapts the RTL core. Snapshots restore in place (the kernel
// state layout is identical across instances built from the same
// program and configuration).
type rtlSim struct {
	core *rtlcore.Core
}

var _ campaign.Simulator = (*rtlSim)(nil)

func (s *rtlSim) Step() bool                             { return s.core.Step() }
func (s *rtlSim) Run(max uint64) refsim.StopReason       { return s.core.Run(max) }
func (s *rtlSim) Cycles() uint64                         { return s.core.Cycles() }
func (s *rtlSim) StopReason() refsim.StopReason          { return s.core.Stop }
func (s *rtlSim) Output() []byte                         { return s.core.Output }
func (s *rtlSim) SetPinout(p *trace.Pinout)              { s.core.Pinout = p }
func (s *rtlSim) SetL1DAccessHook(fn func(set, way int)) { s.core.SetL1DAccessHook(fn) }
func (s *rtlSim) L1DLineOfBit(bit int) (int, int)        { return s.core.L1DLineOfBit(bit) }
func (s *rtlSim) StateHash() uint64                      { return s.core.StateHash() }

// SetLifetime registers the RTL lifetime traces: the architectural
// register file and the L1D data array, both word-granular through the
// rtl kernel's memory ports. Pipeline latches stay untracked (latch
// campaigns always replay).
func (s *rtlSim) SetLifetime(rec *lifetime.Recorder) {
	if rec == nil {
		s.core.SetLifetime(nil, nil)
		return
	}
	s.core.SetLifetime(
		rec.Space(int(fault.TargetRF), s.core.RFBits()/32, 32),
		rec.Space(int(fault.TargetL1D), s.core.L1DBits()/32, 32),
	)
}

func (s *rtlSim) Bits(t fault.Target) int {
	switch t {
	case fault.TargetRF:
		return s.core.RFBits()
	case fault.TargetL1D:
		return s.core.L1DBits()
	case fault.TargetLatches:
		return s.core.LatchBits()
	default:
		return 0
	}
}

func (s *rtlSim) Flip(t fault.Target, bit int) error {
	switch t {
	case fault.TargetRF:
		return s.core.FlipRFBit(bit)
	case fault.TargetL1D:
		return s.core.FlipL1DBit(bit)
	case fault.TargetLatches:
		return s.core.FlipLatchBit(bit)
	default:
		return fmt.Errorf("core: unknown target %v", t)
	}
}

func (s *rtlSim) Force(t fault.Target, bit, v int) error {
	switch t {
	case fault.TargetRF:
		return s.core.ForceRFBit(bit, v)
	case fault.TargetL1D:
		return s.core.ForceL1DBit(bit, v)
	case fault.TargetLatches:
		return s.core.ForceLatchBit(bit, v)
	default:
		return fmt.Errorf("core: unknown target %v", t)
	}
}

func (s *rtlSim) Snapshot() campaign.Snapshot { return s.core.Snapshot() }

// SnapshotInto recycles old, an earlier capture of this simulator, as
// the storage of a new one (campaign.BatchCapable's ring capture).
func (s *rtlSim) SnapshotInto(old campaign.Snapshot) campaign.Snapshot {
	prev, _ := old.(*rtlcore.Snapshot)
	return s.core.SnapshotInto(prev)
}

func (s *rtlSim) Restore(snap campaign.Snapshot) {
	st, ok := snap.(*rtlcore.Snapshot)
	if !ok {
		panic("core: foreign snapshot passed to RTL simulator")
	}
	s.core.Restore(st)
}

// BatchLanes exposes the RTL model's bit-parallel replay surface: a
// per-lane diff tracker over the register file or L1D data array, the
// two targets whose state lives in rtl kernel memory arrays. Pipeline
// latches are read combinationally every cycle, so a latch fault would
// peel immediately and lockstep batching could never win — latch
// campaigns stay scalar.
func (s *rtlSim) BatchLanes(t fault.Target) (campaign.LaneSet, bool) {
	switch t {
	case fault.TargetRF:
		return &rtlLanes{bm: s.core.AttachRFBatch(), target: t}, true
	case fault.TargetL1D:
		return &rtlLanes{bm: s.core.AttachL1DBatch(), target: t}, true
	default:
		return nil, false
	}
}

// rtlLanes adapts an rtl.BatchMem to the campaign's LaneSet. The flat
// bit space is the target's Simulator.Flip space: bit i lives in array
// word i/width, local bit i%width — the same split rtl.Mem.FlipBit
// applies, so lane injections and peel-diff replays can never disagree
// with scalar injections on targeting.
type rtlLanes struct {
	bm     *rtl.BatchMem
	target fault.Target
}

var _ campaign.LaneSet = (*rtlLanes)(nil)

func (l *rtlLanes) Activate(lane int)   { l.bm.Activate(lane) }
func (l *rtlLanes) Retire(lane int)     { l.bm.Retire(lane) }
func (l *rtlLanes) Clean(lane int) bool { return l.bm.Clean(lane) }
func (l *rtlLanes) BeginTick()          { l.bm.BeginTick() }
func (l *rtlLanes) Peeled() uint64      { return l.bm.Peeled() }
func (l *rtlLanes) Detach()             { l.bm.Detach() }

func (l *rtlLanes) Flip(lane, bit int) error     { return l.bm.FlipBit(lane, bit) }
func (l *rtlLanes) Force(lane, bit, v int) error { return l.bm.ForceBit(lane, bit, v) }

// ApplyPeelDiff replays the lane's pre-tick diff onto a scalar
// simulator through the campaign flip primitive, so the rebuilt machine
// state equals golden XOR diff exactly.
func (l *rtlLanes) ApplyPeelDiff(lane int, sim campaign.Simulator) error {
	width := l.bm.Width()
	var applyErr error
	l.bm.LaneDiff(lane, func(word int, diff uint64) {
		for d := diff; d != 0 && applyErr == nil; {
			b := bits.TrailingZeros64(d)
			d &^= 1 << uint(b)
			applyErr = sim.Flip(l.target, word*width+b)
		}
	})
	return applyErr
}
