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

	// Caches and the L1 miss penalty, the part both levels share.
	cache.Hierarchy

	// Latencies, in cycles.
	LoadHitLat  int
	MulLat      int
	DivLat      int
	BimodalBits int // log2 of bimodal predictor entries
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
		Hierarchy:      cache.TableI(),
		LoadHitLat:     2,
		MulLat:         3,
		DivLat:         12,
		BimodalBits:    10,
		RASDepth:       8,
	}
}

// CampaignConfig returns the configuration of the fault-injection
// campaigns: TABLE I's core over the campaigns' scaled hierarchy
// (cache.Campaign).
func CampaignConfig() Config {
	cfg := DefaultConfig()
	cfg.Hierarchy = cache.Campaign()
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
	case c.LoadHitLat < 1 || c.MulLat < 1 || c.DivLat < 1:
		return fmt.Errorf("microarch: latencies must be >= 1 in %+v", c)
	case c.RASDepth <= 0 || c.BimodalBits <= 0:
		return fmt.Errorf("microarch: predictor sizes must be positive in %+v", c)
	}
	return c.Hierarchy.Validate()
}
