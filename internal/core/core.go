// Package core is the paper's primary contribution turned into a
// library: a cross-level reliability-assessment framework that runs the
// same statistical fault-injection campaign, with equivalent hardware
// configurations, identical workload binaries and identical observation
// points, on two abstraction levels of the same CPU — the
// microarchitectural model (GeFIN/gem5 analogue) and the RTL model
// (Yogitech/NCSIM analogue) — and compares the resulting vulnerability
// estimates.
package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/microarch"
	"repro/internal/rtlcore"
)

// Model selects the abstraction level.
type Model int

// Abstraction levels under comparison.
const (
	ModelMicroarch Model = iota + 1
	ModelRTL
)

var modelNames = map[Model]string{
	ModelMicroarch: "microarch",
	ModelRTL:       "rtl",
}

func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel converts a CLI name to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "microarch", "gefin", "ma":
		return ModelMicroarch, nil
	case "rtl":
		return ModelRTL, nil
	}
	return 0, fmt.Errorf("core: unknown model %q (microarch, rtl)", s)
}

// Setup names one equivalent configuration of the machine: the same
// core, cache geometries and memory latency on both abstraction levels
// (§III.C's "equivalent setup in all possible details"). It is its name,
// "campaign" or "tableI"; the machine behind each name is defined once
// (machine), and the RTL core is built from that machine's memory
// hierarchy, so the two levels cannot disagree.
type Setup struct {
	Name string
}

// DefaultSetup names TABLE I's configuration (32 KiB 4-way L1 caches).
func DefaultSetup() Setup { return Setup{Name: "tableI"} }

// CampaignSetup names the scaled-cache configuration used by the
// fault-injection campaigns (see EXPERIMENTS.md on cache scaling).
func CampaignSetup() Setup { return Setup{Name: "campaign"} }

// machine resolves the setup's name to its microarchitectural
// configuration; an unknown name is an error.
func (s Setup) machine() (microarch.Config, error) {
	switch s.Name {
	case "campaign":
		return microarch.CampaignConfig(), nil
	case "tableI":
		return microarch.DefaultConfig(), nil
	}
	return microarch.Config{}, fmt.Errorf("core: unknown setup %q (campaign, tableI)", s.Name)
}

// NewSimulator builds one simulator of the requested model for a program
// under this setup, behind the campaign engine's uniform interface.
func NewSimulator(m Model, p *asm.Program, s Setup) (campaign.Simulator, error) {
	cfg, err := s.machine()
	if err != nil {
		return nil, err
	}
	switch m {
	case ModelMicroarch:
		cpu, err := microarch.New(p, cfg)
		if err != nil {
			return nil, err
		}
		return &maSim{cpu}, nil
	case ModelRTL:
		c, err := rtlcore.New(p, cfg.Hierarchy)
		if err != nil {
			return nil, err
		}
		return &rtlSim{c}, nil
	}
	return nil, fmt.Errorf("core: unknown model %v", m)
}

// Factory returns a campaign factory for (model, program, setup).
func Factory(m Model, p *asm.Program, s Setup) campaign.Factory {
	return func() (campaign.Simulator, error) {
		return NewSimulator(m, p, s)
	}
}

// Sim identifies one simulator: a workload on one model under one
// equivalent setup, the paper's unit of comparison. It is the golden
// run's identity everywhere: a local sweep groups campaigns by its
// Group, and the fleet keys its golden cache by the value itself, so
// campaigns of one Sim replay against one golden run whose artifacts
// cover each of their needs.
type Sim struct {
	Workload string
	Model    Model
	Setup    Setup
}

// ParseSim resolves a simulator from its names, as CLIs and the wire
// spell them: every accepted spelling of one simulator ("ma" and
// "microarch", "" and "campaign") is one Sim, and an unknown setup name
// is an error here, before anything is built.
func ParseSim(workload, model, setup string) (Sim, error) {
	if _, err := bench.ByName(workload); err != nil {
		return Sim{}, err
	}
	m, err := ParseModel(model)
	if err != nil {
		return Sim{}, err
	}
	if setup == "" {
		setup = CampaignSetup().Name
	}
	s := Sim{Workload: workload, Model: m, Setup: Setup{Name: setup}}
	if _, err := s.Setup.machine(); err != nil {
		return Sim{}, err
	}
	return s, nil
}

// Group names s as a sweep's golden-sharing group.
func (s Sim) Group() string {
	return fmt.Sprintf("%v/%s/%s", s.Model, s.Setup.Name, s.Workload)
}

// Factory assembles the workload (once per process) and returns the
// campaign factory of s.
func (s Sim) Factory() (campaign.Factory, error) {
	w, err := bench.ByName(s.Workload)
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	return Factory(s.Model, prog, s.Setup), nil
}

// GoldenOptions returns the golden artifacts a campaign of cfg on s
// records: what cfg needs, and on the RTL model always the L1D access
// timeline, which costs a few percent of an RTL golden run and lets the
// run serve an advance-to-use campaign too (§IV.B).
func (s Sim) GoldenOptions(cfg campaign.Config) campaign.GoldenOptions {
	return campaign.GoldenOptionsFor(cfg).Merge(campaign.GoldenOptions{Timeline: s.Model == ModelRTL})
}

// TableIRow is one attribute of the paper's TABLE I.
type TableIRow struct {
	Attribute string
	Value     string
}

// TableI renders the TABLE I setup's microarchitectural configuration
// as the paper's TABLE I rows.
func TableI() []TableIRow {
	c := microarch.DefaultConfig()
	return []TableIRow{
		{"ISA / Core", "AL32 (ARM-inspired) / Out-of-order"},
		{"Data cache", fmt.Sprintf("%dKB %d-way", c.L1D.SizeBytes/1024, c.L1D.Ways)},
		{"Instruction cache", fmt.Sprintf("%dKB %d-way", c.L1I.SizeBytes/1024, c.L1I.Ways)},
		{"Physical Register File", fmt.Sprintf("%d registers", c.NumPhysRegs)},
		{"Instruction queue", fmt.Sprintf("%d", c.IQSize)},
		{"Reorder buffer", fmt.Sprintf("%d", c.ROBSize)},
		{"Fetch/Execute/Writeback width", fmt.Sprintf("%d/%d/%d", c.FetchWidth, c.IssueWidth, c.WritebackWidth)},
	}
}
