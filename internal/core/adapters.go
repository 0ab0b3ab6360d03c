package core

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/microarch"
	"repro/internal/refsim"
	"repro/internal/rtlcore"
	"repro/internal/trace"
)

// The adapters embed their model, which supplies Step, Run, StateHash,
// the fault surface (Bits, Flip, Force, each over the model's one
// geometry per fault.Target), SetLifetime and DetachLanes. They keep
// only what differs in name or type from the campaign interfaces.

// maSim adapts the microarchitectural model to the campaign interface.
// Snapshots are self-contained clones, which also makes them shareable
// across worker instances.
type maSim struct {
	*microarch.CPU
}

var (
	_ campaign.Simulator    = (*maSim)(nil)
	_ campaign.BatchCapable = (*maSim)(nil)
)

func (s *maSim) Cycles() uint64                         { return s.CPU.Cycles }
func (s *maSim) StopReason() refsim.StopReason          { return s.Stop }
func (s *maSim) Output() []byte                         { return s.CPU.Output }
func (s *maSim) SetPinout(p *trace.Pinout)              { s.Pinout = p }
func (s *maSim) SetL1DAccessHook(fn func(set, way int)) { s.L1D.AccessHook = fn }
func (s *maSim) L1DLineOfBit(bit int) (int, int)        { return s.L1D.LineOfDataBit(bit) }
func (s *maSim) Snapshot() campaign.Snapshot            { return s.Clone() }

func (s *maSim) Restore(snap campaign.Snapshot) {
	base, ok := snap.(*microarch.CPU)
	if !ok {
		panic("core: foreign snapshot passed to microarch simulator")
	}
	// In-place restore: the worker's CPU reuses its own storage (cache
	// arrays, page table, uop slab) instead of discarding itself for a
	// fresh clone on every replay.
	s.RestoreFrom(base)
}

// SnapshotInto recycles old, an earlier capture of this simulator, as
// the storage of a new one (campaign.BatchCapable's ring capture): an
// in-place RestoreFrom the live CPU instead of a Clone.
func (s *maSim) SnapshotInto(old campaign.Snapshot) campaign.Snapshot {
	prev, _ := old.(*microarch.CPU)
	if prev == nil {
		return s.Clone()
	}
	prev.RestoreFrom(s.CPU)
	return prev
}

// AttachLanes exposes the microarchitectural model's lockstep replay
// surface: value lanes over the physical register file and the L1D data
// array, side by side in one store on the CPU (microarch/lanes.go).
func (s *maSim) AttachLanes(targets []fault.Target) []campaign.LaneSet {
	var sets []campaign.LaneSet
	for _, g := range s.CPU.AttachLanes(targets...) {
		sets = append(sets, maLanes{g})
	}
	return sets
}

// maLanes adapts one group of microarchitectural value lanes to the
// engine's LaneSet.
type maLanes struct{ *microarch.LaneGroup }

func (l maLanes) Rebuild(lane int, sim campaign.Simulator) error {
	s, ok := sim.(*maSim)
	if !ok {
		return fmt.Errorf("core: microarch lanes rebuilt onto a %T", sim)
	}
	l.LaneGroup.Rebuild(lane, s.CPU)
	return nil
}

// rtlSim adapts the RTL core. Snapshots restore in place (the kernel
// state layout is identical across instances built from the same
// program and configuration).
type rtlSim struct {
	*rtlcore.Core
}

var (
	_ campaign.Simulator    = (*rtlSim)(nil)
	_ campaign.BatchCapable = (*rtlSim)(nil)
)

func (s *rtlSim) StopReason() refsim.StopReason { return s.Stop }
func (s *rtlSim) Output() []byte                { return s.Core.Output }
func (s *rtlSim) SetPinout(p *trace.Pinout)     { s.Pinout = p }
func (s *rtlSim) Snapshot() campaign.Snapshot   { return s.Core.Snapshot() }

// SnapshotInto recycles old, an earlier capture of this simulator, as
// the storage of a new one (campaign.BatchCapable's ring capture).
func (s *rtlSim) SnapshotInto(old campaign.Snapshot) campaign.Snapshot {
	prev, _ := old.(*rtlcore.Snapshot)
	return s.Core.SnapshotInto(prev)
}

func (s *rtlSim) Restore(snap campaign.Snapshot) {
	st, ok := snap.(*rtlcore.Snapshot)
	if !ok {
		panic("core: foreign snapshot passed to RTL simulator")
	}
	s.Core.Restore(st)
}

// AttachLanes exposes the RTL model's lockstep replay surface: value
// lanes over the register file, the L1D data array and the pipeline
// latches, two side by side in one store on the core (rtlcore/lanes.go),
// in the model's flat bit spaces.
func (s *rtlSim) AttachLanes(targets []fault.Target) []campaign.LaneSet {
	var sets []campaign.LaneSet
	for _, g := range s.Core.AttachLanes(targets...) {
		sets = append(sets, rtlLanes{g})
	}
	return sets
}

// rtlLanes adapts one group of RTL value lanes to the engine's LaneSet.
type rtlLanes struct{ *rtlcore.LaneGroup }

func (l rtlLanes) Rebuild(lane int, sim campaign.Simulator) error {
	s, ok := sim.(*rtlSim)
	if !ok {
		return fmt.Errorf("core: RTL lanes rebuilt onto a %T", sim)
	}
	l.LaneGroup.Rebuild(lane, s.Core)
	return nil
}
