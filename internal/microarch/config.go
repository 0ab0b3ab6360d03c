// Package microarch implements GeFIN's substrate: a cycle-level,
// out-of-order AL32 CPU model in the mould of gem5's O3 CPU, configured to
// resemble the ARM Cortex-A9 (TABLE I of the paper).
//
// Storage arrays — the physical register file and the L1 caches — hold
// real bits and are the fault-injection targets; control logic (rename,
// wakeup, select, forwarding) is modelled functionally, which is exactly
// the modelling asymmetry between microarchitectural and RTL simulators
// that the paper studies.
package microarch

import (
	"fmt"

	"repro/internal/cache"
)

// Config is the microarchitectural configuration (the paper's TABLE I).
type Config struct {
	// Widths (instructions per cycle).
	FetchWidth     int
	IssueWidth     int // "execute width"
	WritebackWidth int
	CommitWidth    int

	// Structure sizes.
	NumPhysRegs int
	IQSize      int
	ROBSize     int
	LSQSize     int
	DecodeQueue int

	// Caches.
	L1I cache.Config
	L1D cache.Config

	// Latencies, in cycles.
	MemLatency  int // L1 miss penalty to the lower hierarchy
	LoadHitLat  int
	MulLat      int
	DivLat      int
	BimodalBits int // log2 of bimodal predictor entries
	BTBBits     int // log2 of BTB entries
	RASDepth    int
}

// DefaultConfig returns the Cortex-A9-like configuration of TABLE I:
// out-of-order ARMv7-class core, 32KB 4-way L1 caches, 56 physical
// registers, 32-entry instruction queue, 40-entry reorder buffer and
// 2/4/4 fetch/execute/writeback widths.
func DefaultConfig() Config {
	return Config{
		FetchWidth:     2,
		IssueWidth:     4,
		WritebackWidth: 4,
		CommitWidth:    2,
		NumPhysRegs:    56,
		IQSize:         32,
		ROBSize:        40,
		LSQSize:        16,
		DecodeQueue:    8,
		L1I:            cache.Config{Name: "L1I", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 32},
		L1D:            cache.Config{Name: "L1D", SizeBytes: 32 * 1024, Ways: 4, LineBytes: 32},
		MemLatency:     20,
		LoadHitLat:     2,
		MulLat:         3,
		DivLat:         12,
		BimodalBits:    10,
		BTBBits:        8,
		RASDepth:       8,
	}
}

// CampaignConfig returns the equivalent configuration used by the fault
// injection campaigns: identical core, with the L1 caches scaled down
// (2 KiB I, 512 B D) so that the cache capacity-to-working-set ratio of
// the paper's MiBench runs is preserved for this repository's scaled-down
// datasets (the workloads here touch 1-8 KiB; with a 32 KiB L1D nothing
// would ever be written back and the pinout observation point would be
// vacuous). Both abstraction levels use the same scaled geometry, keeping
// the comparison point-to-point (see EXPERIMENTS.md).
func CampaignConfig() Config {
	cfg := DefaultConfig()
	cfg.L1I.SizeBytes = 2 * 1024
	cfg.L1D.SizeBytes = 512
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.WritebackWidth <= 0 || c.CommitWidth <= 0:
		return fmt.Errorf("microarch: non-positive width in %+v", c)
	case c.NumPhysRegs < 20:
		return fmt.Errorf("microarch: %d physical registers cannot rename 16+1 architectural", c.NumPhysRegs)
	case c.NumPhysRegs > 64:
		return fmt.Errorf("microarch: %d physical registers, more than the 64 the readiness masks hold", c.NumPhysRegs)
	case c.IQSize <= 0 || c.ROBSize <= 0 || c.LSQSize <= 0 || c.DecodeQueue <= 0:
		return fmt.Errorf("microarch: non-positive queue size in %+v", c)
	case slabSlots(c) > 64:
		return fmt.Errorf("microarch: a %d-entry ROB needs %d uop slots, more than the 64 the readiness masks hold", c.ROBSize, slabSlots(c))
	case c.MemLatency < 1 || c.LoadHitLat < 1 || c.MulLat < 1 || c.DivLat < 1:
		return fmt.Errorf("microarch: latencies must be >= 1 in %+v", c)
	case c.RASDepth <= 0 || c.BimodalBits <= 0 || c.BTBBits <= 0:
		return fmt.Errorf("microarch: predictor sizes must be positive in %+v", c)
	}
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	return c.L1D.Validate()
}
