package core

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/microarch"
	"repro/internal/refsim"
	"repro/internal/rtlcore"
	"repro/internal/trace"
)

// geometry is one adapter's statement of a lockstep-capable target's
// flat fault bit space — units × width bits, laid out as Simulator.Flip
// indexes them; units is 0 for a target the model neither traces nor
// tracks. It is the adapter's campaign.BatchCapable LaneGeometry, which
// the lifetime spaces (here) are built from.
type geometry func(t fault.Target) (units, width int)

// setLifetime builds rec's spaces for the two traced targets and hands
// them to a model's SetLifetime; a nil rec detaches.
func setLifetime(geo geometry, rec *lifetime.Recorder, set func(rf, l1d *lifetime.Space)) {
	if rec == nil {
		set(nil, nil)
		return
	}
	space := func(t fault.Target) *lifetime.Space {
		units, width := geo(t)
		return rec.Space(int(t), units, width)
	}
	set(space(fault.TargetRF), space(fault.TargetL1D))
}

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

// LaneGeometry: the physical register file at register granularity and
// the L1D data array at line granularity.
func (s *maSim) LaneGeometry(t fault.Target) (units, width int) {
	switch t {
	case fault.TargetRF:
		return s.cpu.RFBits() / 32, 32
	case fault.TargetL1D:
		lineBits := s.cpu.L1D.Config().LineBytes * 8
		return s.cpu.L1DBits() / lineBits, lineBits
	default:
		return 0, 0
	}
}

// SetLifetime registers the microarchitectural lifetime traces of the
// register file and the L1D data array.
func (s *maSim) SetLifetime(rec *lifetime.Recorder) {
	setLifetime(s.LaneGeometry, rec, s.cpu.SetLifetime)
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

// AttachLanes exposes the microarchitectural model's lockstep replay
// surface: value lanes over the physical register file and the L1D data
// array, side by side in one store on the CPU (microarch/lanes.go).
func (s *maSim) AttachLanes(targets []fault.Target) []campaign.LaneSet {
	var sets []campaign.LaneSet
	for _, g := range s.cpu.AttachLanes(targets...) {
		sets = append(sets, maLanes{g})
	}
	return sets
}

func (s *maSim) DetachLanes() { s.cpu.DetachLanes() }

var _ campaign.BatchCapable = (*maSim)(nil)

// maLanes adapts one group of microarchitectural value lanes to the
// engine's LaneSet.
type maLanes struct{ *microarch.LaneGroup }

func (l maLanes) Rebuild(lane int, sim campaign.Simulator) error {
	s, ok := sim.(*maSim)
	if !ok {
		return fmt.Errorf("core: microarch lanes rebuilt onto a %T", sim)
	}
	l.LaneGroup.Rebuild(lane, s.cpu)
	return nil
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

// LaneGeometry: the architectural register file and the L1D data array,
// both word-granular through the rtl kernel's memory ports, and the
// pipeline latches bit by bit (latches of differing widths, which no
// lifetime trace covers: rtlcore.Core.SetLifetime).
func (s *rtlSim) LaneGeometry(t fault.Target) (units, width int) {
	switch t {
	case fault.TargetRF:
		return s.core.RFBits() / 32, 32
	case fault.TargetL1D:
		return s.core.L1DBits() / 32, 32
	case fault.TargetLatches:
		return s.core.LatchBits(), 1
	default:
		return 0, 0
	}
}

// SetLifetime registers the RTL lifetime traces of the register file and
// the L1D data array.
func (s *rtlSim) SetLifetime(rec *lifetime.Recorder) {
	setLifetime(s.LaneGeometry, rec, s.core.SetLifetime)
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

// AttachLanes exposes the RTL model's lockstep replay surface: value
// lanes over the register file, the L1D data array and the pipeline
// latches, two side by side in one store on the core
// (rtlcore/lanes.go), in the flat bit spaces of FlipRFBit, FlipL1DBit
// and FlipLatchBit.
func (s *rtlSim) AttachLanes(targets []fault.Target) []campaign.LaneSet {
	var sets []campaign.LaneSet
	for _, g := range s.core.AttachLanes(targets...) {
		sets = append(sets, rtlLanes{g})
	}
	return sets
}

func (s *rtlSim) DetachLanes() { s.core.DetachLanes() }

var _ campaign.BatchCapable = (*rtlSim)(nil)

// rtlLanes adapts one group of RTL value lanes to the engine's LaneSet.
type rtlLanes struct{ *rtlcore.LaneGroup }

func (l rtlLanes) Rebuild(lane int, sim campaign.Simulator) error {
	s, ok := sim.(*rtlSim)
	if !ok {
		return fmt.Errorf("core: RTL lanes rebuilt onto a %T", sim)
	}
	l.LaneGroup.Rebuild(lane, s.core)
	return nil
}
