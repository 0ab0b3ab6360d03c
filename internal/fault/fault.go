// Package fault defines the fault models of the study and plans
// statistical injection campaigns over them.
//
// The paper's baseline model is the single transient bit flip in a
// storage structure, sampled uniformly over bits and over time with
// normally-distributed injection instants (§IV). On top of it the
// package models the scenario-diversity axis cross-level injection
// frameworks exist to compare: multi-bit bursts (one particle strike
// upsetting N adjacent bits), permanent stuck-at-0/1 faults, and
// intermittent faults that hold a bit for a bounded active window.
// Plan output is deterministic per (seed, model, bit space, window,
// distribution) — the invariant the campaign sweep scheduler relies on.
package fault

import (
	"fmt"
	"math/rand"
)

// Target identifies the structure a fault is injected into.
type Target int

// Injection targets. RF and L1D are the paper's campaign targets and
// exist on both abstraction levels; Latches (pipeline and control state)
// exists only at RTL — the capability asymmetry of §II.B.
const (
	TargetRF Target = iota + 1
	TargetL1D
	TargetLatches
)

var targetNames = map[Target]string{
	TargetRF:      "register-file",
	TargetL1D:     "l1d-cache",
	TargetLatches: "pipeline-latches",
}

func (t Target) String() string {
	if s, ok := targetNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Target(%d)", int(t))
}

// ParseTarget converts a CLI name to a Target.
func ParseTarget(s string) (Target, error) {
	switch s {
	case "rf", "register-file":
		return TargetRF, nil
	case "l1d", "l1d-cache":
		return TargetL1D, nil
	case "latches", "pipeline-latches":
		return TargetLatches, nil
	}
	return 0, fmt.Errorf("fault: unknown target %q (rf, l1d, latches)", s)
}

// TimeDist selects the distribution of injection instants over the
// run's execution window.
type TimeDist int

// Injection-time distributions. The paper injects "on a normal
// distribution"; uniform sampling is provided for ablations.
const (
	DistNormal TimeDist = iota + 1
	DistUniform
)

func (d TimeDist) String() string {
	switch d {
	case DistNormal:
		return "normal"
	case DistUniform:
		return "uniform"
	default:
		return fmt.Sprintf("TimeDist(%d)", int(d))
	}
}

// Model selects the fault model of a campaign.
type Model int

// Fault models. The zero value is treated as ModelTransient everywhere,
// so existing configs keep their meaning.
const (
	// ModelTransient is the paper's baseline: one transient bit flip.
	ModelTransient Model = iota + 1
	// ModelBurst flips a burst of N adjacent bits at the same instant
	// (a multi-bit upset from a single particle strike).
	ModelBurst
	// ModelStuckAt forces one bit to a constant value permanently from
	// the injection instant to the end of the run.
	ModelStuckAt
	// ModelIntermittent forces one bit to a constant value for a
	// bounded active-cycle window, then releases it.
	ModelIntermittent
)

var modelNames = map[Model]string{
	ModelTransient:    "transient",
	ModelBurst:        "burst",
	ModelStuckAt:      "stuck-at",
	ModelIntermittent: "intermittent",
}

func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Persistent reports whether the model must be re-asserted while active
// (the design may overwrite the forced bit on any cycle).
func (m Model) Persistent() bool {
	return m == ModelStuckAt || m == ModelIntermittent
}

// DefaultBurst is the burst width selected by Params.Burst == 0: the
// classic double-bit upset.
const DefaultBurst = 2

// Params bundles the model-level parameters of a fault plan. The zero
// value means the baseline single transient bit flip.
type Params struct {
	Model Model

	// Burst is the number of adjacent bits a ModelBurst injection
	// flips (0 selects DefaultBurst; 1 degenerates to a transient).
	Burst int

	// Stuck selects the forced value of ModelStuckAt/ModelIntermittent
	// faults: 0 or 1 force that value for every injection, StuckRandom
	// samples it uniformly per injection.
	Stuck int

	// Span is the active-cycle window of ModelIntermittent faults (0
	// derives window/16, clamped to at least 2 cycles).
	Span uint64
}

// StuckRandom makes Params.Stuck sample the forced value per injection.
const StuckRandom = -1

// normalize fills parameter defaults and validates the combination.
func (p Params) normalize(window uint64) (Params, error) {
	if p.Model == 0 {
		p.Model = ModelTransient
	}
	if _, ok := modelNames[p.Model]; !ok {
		return p, fmt.Errorf("fault: unknown model %v", p.Model)
	}
	switch p.Model {
	case ModelBurst:
		if p.Burst == 0 {
			p.Burst = DefaultBurst
		}
		if p.Burst < 1 {
			return p, fmt.Errorf("fault: burst width %d must be positive", p.Burst)
		}
	default:
		// Reject rather than silently ignore an explicit burst width:
		// the caller would believe they measured multi-bit upsets.
		if p.Burst > 1 {
			return p, fmt.Errorf("fault: burst width %d set but model %v injects single bits", p.Burst, p.Model)
		}
		p.Burst = 1
	}
	if p.Model.Persistent() {
		if p.Stuck != StuckRandom && p.Stuck != 0 && p.Stuck != 1 {
			return p, fmt.Errorf("fault: stuck-at value %d (want 0, 1 or StuckRandom)", p.Stuck)
		}
	} else {
		p.Stuck = 0
	}
	if p.Model == ModelIntermittent {
		if p.Span == 0 {
			p.Span = window / 16
			if p.Span < 2 {
				p.Span = 2
			}
		}
	} else if p.Span != 0 {
		// Same principle for the active span: only the intermittent
		// model has one.
		return p, fmt.Errorf("fault: active span %d set but model %v is not intermittent", p.Span, p.Model)
	}
	return p, nil
}

// ParseParams converts a CLI fault-model name to plan parameters.
// Recognised names: transient, burst, stuck-at (random value),
// stuck-at-0, stuck-at-1, intermittent.
func ParseParams(s string) (Params, error) {
	switch s {
	case "transient", "bitflip":
		return Params{Model: ModelTransient}, nil
	case "burst", "mbu":
		return Params{Model: ModelBurst}, nil
	case "stuck-at", "stuck":
		return Params{Model: ModelStuckAt, Stuck: StuckRandom}, nil
	case "stuck-at-0":
		return Params{Model: ModelStuckAt, Stuck: 0}, nil
	case "stuck-at-1":
		return Params{Model: ModelStuckAt, Stuck: 1}, nil
	case "intermittent":
		return Params{Model: ModelIntermittent, Stuck: StuckRandom}, nil
	}
	return Params{}, fmt.Errorf("fault: unknown model %q (transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent)", s)
}

// Spec is one planned injection. At the end of cycle Cycle the fault is
// applied to Width adjacent bits starting at Bit of the target
// structure: flipped for transient/burst models, forced to Stuck for
// the persistent models. Persistent faults stay asserted — permanently
// for ModelStuckAt, for Span cycles for ModelIntermittent — and the
// replay engine re-applies them every active cycle.
type Spec struct {
	Target Target
	Bit    int
	Cycle  uint64

	Model Model
	Width int    // adjacent bits affected (1 except for ModelBurst)
	Stuck int    // forced value for persistent models (0 or 1)
	Span  uint64 // active cycles for ModelIntermittent
}

// BitSpan returns the half-open flat bit range [lo, hi) the spec
// corrupts, normalising Width to at least one bit — the single place
// the replay engine and the golden-trace pre-classifier agree on which
// bits a fault touches.
func (s Spec) BitSpan() (lo, hi int) {
	width := s.Width
	if width < 1 {
		width = 1
	}
	return s.Bit, s.Bit + width
}

// ActiveAt reports whether a persistent fault must still be asserted at
// the given cycle.
func (s Spec) ActiveAt(cycle uint64) bool {
	switch s.Model {
	case ModelStuckAt:
		return cycle >= s.Cycle
	case ModelIntermittent:
		return cycle >= s.Cycle && cycle < s.Cycle+s.Span
	default:
		return false
	}
}

// Generator yields the injection specs of a plan one at a time. The
// stream is deterministic per (rng seed, model parameters, bit space,
// window, distribution) and consumes the RNG exactly as Plan does, so
// Generator and Plan produce identical sequences from identical seeds.
type Generator struct {
	target Target
	bits   int
	window uint64
	dist   TimeDist
	prm    Params
	rng    *rand.Rand
}

// NewGenerator validates the plan parameters (see Plan) and returns the
// spec stream.
func NewGenerator(target Target, bits int, window uint64, dist TimeDist, prm Params, rng *rand.Rand) (*Generator, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("fault: target %v has no bits", target)
	}
	if window < 3 {
		return nil, fmt.Errorf("fault: window %d too small", window)
	}
	prm, err := prm.normalize(window)
	if err != nil {
		return nil, err
	}
	if prm.Burst > bits {
		return nil, fmt.Errorf("fault: burst width %d exceeds the %d-bit target %v", prm.Burst, bits, target)
	}
	return &Generator{target: target, bits: bits, window: window, dist: dist, prm: prm, rng: rng}, nil
}

// Next samples the next injection spec of the stream.
func (g *Generator) Next() Spec {
	s := Spec{
		Target: g.target,
		Bit:    g.rng.Intn(g.bits - g.prm.Burst + 1),
		Cycle:  sampleCycle(g.window, g.dist, g.rng),
		Model:  g.prm.Model,
		Width:  g.prm.Burst,
		Span:   g.prm.Span,
	}
	if g.prm.Model.Persistent() {
		if g.prm.Stuck == StuckRandom {
			s.Stuck = g.rng.Intn(2)
		} else {
			s.Stuck = g.prm.Stuck
		}
	}
	return s
}

// Plan samples n injection specs under the given model parameters: bits
// uniform over the target's bit space (burst bases clamped so the whole
// burst fits), instants over [1, window-1] according to dist. The
// normal distribution is centred mid-window with sigma = window/6,
// truncated by resampling (matching the statistical-fault-injection
// setups the paper builds on). Output is deterministic per (rng seed,
// model parameters, bit space, window, distribution); transient plans
// consume the RNG exactly as the original single-bit-flip planner did,
// so pre-existing seeds reproduce their historical plans. Plan is the
// materialised form of Generator.
func Plan(n int, target Target, bits int, window uint64, dist TimeDist, prm Params, rng *rand.Rand) ([]Spec, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fault: sample size %d must be positive", n)
	}
	g, err := NewGenerator(target, bits, window, dist, prm, rng)
	if err != nil {
		return nil, err
	}
	out := make([]Spec, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out, nil
}

func sampleCycle(window uint64, dist TimeDist, rng *rand.Rand) uint64 {
	max := window - 1
	switch dist {
	case DistUniform:
		return 1 + uint64(rng.Int63n(int64(max)))
	default: // DistNormal
		mean := float64(window) / 2
		sigma := float64(window) / 6
		for {
			v := rng.NormFloat64()*sigma + mean
			if v >= 1 && v <= float64(max) {
				return uint64(v)
			}
		}
	}
}
