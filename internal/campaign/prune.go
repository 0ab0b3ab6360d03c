package campaign

// Golden-trace fault pruning (MeRLiN-style, after Kaliorakis,
// Chatzidimitriou & Gizopoulos, ISCA 2017). The golden run records the
// access lifetime of every injectable storage unit; from that trace
// alone a planned transient fault is pre-classified without replaying a
// single cycle:
//
//   - dead: the golden run overwrites the corrupted bits before ever
//     reading them (or never reads them inside the observation
//     horizon). The faulty run provably retraces the golden run — no
//     dataflow consumes the flip — so the fault is Masked, exactly the
//     class a full replay would report.
//   - live: some corrupted bit is consumed by a golden read. The fault
//     must replay; the identity of the first consuming event is its
//     MeRLiN equivalence key.
//
// PruneDead applies only the exact dead classification. PruneClasses
// additionally collapses live faults that share a first consuming event
// into one equivalence class, replays a single representative, and
// extrapolates its outcome over the class — a large additional saving
// that is approximate (members may differ in the consumed bit), which
// is why it is a separate opt-in and why the sequential estimator
// weights representatives by class size at the Kish effective sample
// size instead of claiming every extrapolated outcome as independent
// evidence. Persistent fault models (stuck-at, intermittent) re-assert
// the fault over time, so golden-trace reasoning does not apply: they
// always fall back to full replay, as do targets the simulator does not
// trace (RTL pipeline latches).
//
// Both modes settle every verdict at plan time: newPruner gives each
// plan index one role (replay, dead, class representative or class
// member), and the dispatcher, the collector and a checkpoint resume
// only read it.

import (
	"fmt"

	"repro/internal/fault"
)

// PruneMode selects golden-trace fault pruning.
type PruneMode int

// Pruning modes.
const (
	// PruneOff replays every planned fault (the default; bit-identical
	// to the engine without pruning).
	PruneOff PruneMode = iota
	// PruneDead classifies dead-interval transients Masked with zero
	// replay cycles. Exact: classes equal full replay by construction.
	PruneDead
	// PruneClasses additionally replays one representative per
	// first-consumer equivalence class and extrapolates, MeRLiN-style.
	// Approximate; intervals widen to the effective sample size.
	PruneClasses
)

func (m PruneMode) String() string {
	switch m {
	case PruneOff:
		return "off"
	case PruneDead:
		return "dead"
	case PruneClasses:
		return "classes"
	default:
		return fmt.Sprintf("PruneMode(%d)", int(m))
	}
}

// ParsePruneMode converts a CLI name to a PruneMode.
func ParsePruneMode(s string) (PruneMode, error) {
	switch s {
	case "", "off":
		return PruneOff, nil
	case "dead":
		return PruneDead, nil
	case "classes", "merlin":
		return PruneClasses, nil
	}
	return 0, fmt.Errorf("campaign: unknown prune mode %q (off, dead, classes)", s)
}

// preKind is the internal pre-classification verdict.
type preKind int

const (
	preReplay preKind = iota // no trace, persistent model, or untracked target
	preDead                  // Masked with zero replay cycles, exact
	preLive                  // consumed: replay (or group by classID)
)

// preVerdict is the injection-less verdict for one planned fault.
type preVerdict struct {
	kind    preKind
	classID uint64 // first consuming golden event (preLive)
	cycle   uint64 // its cycle (preLive)
}

// preclassify resolves a planned fault against the golden lifetime
// trace. The observation horizon is the fault's windowed compare limit
// (spec.Cycle+Window) or the golden end for run-to-end configs: a read
// beyond it can never be observed by the classification, so the fault
// is dead even if consumed later.
func (g *Golden) preclassify(spec fault.Spec, cfg Config) preVerdict {
	if g.life == nil || spec.Model.Persistent() {
		return preVerdict{}
	}
	sp := g.life.Get(int(spec.Target))
	if sp == nil {
		return preVerdict{}
	}
	lo, hi := spec.BitSpan()
	if hi > sp.Bits() {
		return preVerdict{} // geometry mismatch: never prune blindly
	}
	horizon := g.Cycles
	if cfg.Window > 0 {
		horizon = spec.Cycle + cfg.Window
	}
	out := preVerdict{kind: preDead}
	for b := lo; b < hi; b++ {
		v := sp.ClassifyBit(b, spec.Cycle, horizon)
		if !v.Live {
			continue
		}
		if out.kind != preLive || v.Cycle < out.cycle ||
			(v.Cycle == out.cycle && v.ID < out.classID) {
			out = preVerdict{kind: preLive, classID: v.ID, cycle: v.Cycle}
		}
	}
	return out
}

// PruneInfo is the public injection-less verdict of one planned fault,
// surfaced by probe tooling (runsim -inject).
type PruneInfo struct {
	// Tracked reports whether the golden lifetime trace covers this
	// fault (transient model on a traced target).
	Tracked bool
	// Dead reports a provably Masked fault needing zero replay cycles.
	Dead bool
	// ConsumeCycle is the first consuming golden event's cycle (live
	// faults only).
	ConsumeCycle uint64
}

// PruneVerdict pre-classifies one planned fault against this golden
// run's lifetime trace (see GoldenOptions.Lifetime). Without a trace
// every fault reports Tracked=false.
func (g *Golden) PruneVerdict(spec fault.Spec, cfg Config) PruneInfo {
	v := g.preclassify(spec, cfg)
	switch v.kind {
	case preDead:
		return PruneInfo{Tracked: true, Dead: true}
	case preLive:
		return PruneInfo{Tracked: true, ConsumeCycle: v.cycle}
	default:
		return PruneInfo{}
	}
}

// Plan returns the campaign's planned injections against this golden
// run — the specs Run replays, exposed for probe tooling and
// benchmarks.
func (g *Golden) Plan(cfg Config) ([]fault.Spec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return g.planner(cfg)
}

// pruneRole is what the dispatcher does with one plan index, fixed at
// plan time.
type pruneRole uint8

const (
	roleReplay pruneRole = iota // replay the fault
	roleDead                    // deliver the synthetic Masked outcome, no replay
	roleRep                     // replay, then fan the outcome over the class members
	roleMember                  // its representative's fanout delivers it
)

// pruner holds one campaign's pruning verdicts, materialised up front
// for both modes (class grouping needs the whole plan; this is
// MeRLiN's "prune before the campaign" shape). A nil *pruner
// (PruneOff) is valid and inert.
type pruner struct {
	role    []pruneRole
	members map[int][]int // representative -> member indices (excluding itself)
}

// newPruner derives the campaign's pruning verdicts from the golden
// artifacts; nil when pruning is off. PruneDead never groups live
// faults: they replay on their own.
func newPruner(g *Golden, plan []fault.Spec, cfg Config) (*pruner, error) {
	if cfg.Prune == PruneOff {
		return nil, nil
	}
	// Unknown modes were already rejected by Config.validate, which
	// both Run and Sweep apply before planning.
	if g.life == nil {
		return nil, fmt.Errorf("campaign: Prune=%v requires a golden run with GoldenOptions.Lifetime", cfg.Prune)
	}
	p := &pruner{role: make([]pruneRole, len(plan)), members: make(map[int][]int)}
	repByClass := make(map[uint64]int)
	for i, spec := range plan {
		switch v := g.preclassify(spec, cfg); {
		case v.kind == preDead:
			p.role[i] = roleDead
		case v.kind == preLive && cfg.Prune == PruneClasses:
			if rep, ok := repByClass[v.classID]; ok {
				p.role[i] = roleMember
				p.members[rep] = append(p.members[rep], i)
			} else {
				repByClass[v.classID] = i
				p.role[i] = roleRep
			}
		}
	}
	return p, nil
}

// syntheticDead is the zero-replay outcome of a dead-interval fault.
// EndCycle is the injection instant itself: not one cycle was
// simulated, which the aggregation accounts as saved rather than spent.
func syntheticDead(spec fault.Spec) RunOutcome {
	return RunOutcome{Spec: spec, Class: ClassMasked, EndCycle: spec.Cycle, Pruned: true}
}

// roleOf returns plan index i's role: roleReplay when pruning is off.
func (p *pruner) roleOf(i int) pruneRole {
	if p == nil {
		return roleReplay
	}
	return p.role[i]
}

// membersOf returns the plan indices whose outcomes are extrapolated
// from representative i: none outside PruneClasses.
func (p *pruner) membersOf(i int) []int {
	if p == nil {
		return nil
	}
	return p.members[i]
}
