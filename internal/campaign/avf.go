package campaign

// Injection-free ACE/AVF estimation (Config.AVF): the golden lifetime
// trace that fault pruning classifies single faults with is swept into
// a per-structure vulnerability estimate (internal/avf) and the
// campaign's exact fault plan is re-judged by it — an "estimate first,
// inject to confirm" companion computed with zero replays. The plan
// prediction deliberately goes through avf.Classify, the interval-scan
// reimplementation of lifetime.ClassifyBit, so the campaign-level
// differential tests compare two independent codepaths (the pruner's
// binary search vs the estimator's linear scan) over the very same
// planned faults.
//
// Config.AVFPrior additionally seeds the sequential-stopping estimator
// with the prediction as unit-weight pseudo-counts: stopping starts
// from the AVF estimate instead of from nothing, so a campaign whose
// measured proportions track the prediction reaches its target margin
// with fewer replays. The prior moves only the stopping index — the
// reported Unsafeness and AchievedMargin always come from real outcomes.

import (
	"fmt"

	"repro/internal/avf"
	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/stats"
)

// AVFInfo is a campaign's injection-free vulnerability estimate,
// attached to Result.AVF under Config.AVF.
type AVFInfo struct {
	// Estimate is the structure-wide ACE sweep over the golden lifetime
	// trace: per-structure AVF, the planner-weighted variant, and the
	// cycle-resolved vulnerability profile.
	Estimate avf.Estimate `json:"estimate"`

	// PlanLive of PlanN planned injections are ACE when the campaign's
	// exact fault plan is re-judged by the golden trace (transient specs
	// on the traced bit space; anything else carries no prediction).
	PlanN    int `json:"planN"`
	PlanLive int `json:"planLive"`

	// Predicted is PlanLive/PlanN — the plan-sample ACE fraction. It is
	// the injection-free prediction of the campaign's unsafeness
	// ceiling: a dead (un-ACE) fault is provably Masked, so the measured
	// unsafe fraction can never exceed it, and the gap below it is the
	// logical masking the golden trace cannot see.
	Predicted float64 `json:"predicted"`

	// PriorMass is the pseudo-observation mass seeded into sequential
	// stopping (Config.AVFPrior only, zero otherwise).
	PriorMass float64 `json:"priorMass,omitempty"`
}

// aceVerdict resolves one planned fault with the independent ACE
// interval scan: the earliest consuming read across the corrupted bit
// span decides, mirroring preclassify's span rule. ok is false when the
// trace carries no prediction for the spec (persistent model or a bit
// span outside the traced geometry).
func aceVerdict(sp *lifetime.Space, spec fault.Spec, opt avf.Options) (avf.Verdict, bool) {
	if spec.Model.Persistent() {
		return avf.Verdict{}, false
	}
	lo, hi := spec.BitSpan()
	if hi > sp.Bits() {
		return avf.Verdict{}, false
	}
	var out avf.Verdict
	for b := lo; b < hi; b++ {
		if v := avf.Classify(sp, b, spec.Cycle, opt); v.ACE && (!out.ACE || v.Cycle < out.Cycle) {
			out = v
		}
	}
	return out, true
}

// avfOptions derives the ACE sweep parameters a config implies: the
// instant domain is the golden run (the fault planner's window) and the
// observation window matches the classification's.
func (g *Golden) avfOptions(cfg Config) avf.Options {
	return avf.Options{Horizon: g.Cycles, Window: cfg.Window}
}

// AVFVerdict classifies one planned fault with the independent ACE
// interval scan — the per-fault probe `runsim -inject` prints next to
// the pruning verdict, and the differential tests compare against
// PruneVerdict. ok is false when the golden run records no lifetime
// trace for the spec's target or the spec carries no prediction.
func (g *Golden) AVFVerdict(spec fault.Spec, cfg Config) (avf.Verdict, bool) {
	if g.life == nil {
		return avf.Verdict{}, false
	}
	sp := g.life.Get(int(spec.Target))
	if sp == nil {
		return avf.Verdict{}, false
	}
	return aceVerdict(sp, spec, g.avfOptions(cfg))
}

// buildAVFInfo computes a campaign's AVF attachment: the structure-wide
// sweep plus the prediction over every planned spec. Called at plan
// time, before the plan is dispatched, like the PruneClasses grouping
// pass.
func buildAVFInfo(g *Golden, plan []fault.Spec, cfg Config) (*AVFInfo, error) {
	if g.life == nil {
		return nil, fmt.Errorf("campaign: AVF requires a golden run with GoldenOptions.Lifetime")
	}
	sp := g.life.Get(int(cfg.Target))
	if sp == nil {
		return nil, fmt.Errorf("campaign: AVF: target %v is not lifetime-traced by this model", cfg.Target)
	}
	opt := g.avfOptions(cfg)
	est, err := avf.Analyze(sp, opt)
	if err != nil {
		return nil, err
	}
	info := &AVFInfo{Estimate: est}
	for _, spec := range plan {
		v, ok := aceVerdict(sp, spec, opt)
		if !ok {
			continue
		}
		info.PlanN++
		if v.ACE {
			info.PlanLive++
		}
	}
	if info.PlanN > 0 {
		info.Predicted = float64(info.PlanLive) / float64(info.PlanN)
	}
	return info, nil
}

// failureClass is the unsafe class the AVF prior's failing mass lands
// in: a windowed or run-to-end pinout campaign fails by pinout mismatch;
// SOP and combined campaigns fail by silent data corruption.
func failureClass(cfg Config) Class {
	if cfg.Obs == ObsSOP || cfg.Obs == ObsCombined {
		return ClassSDC
	}
	return ClassMismatch
}

// seedAVFPrior seeds a campaign's sequential estimator from the plan
// prediction (Config.AVFPrior): mass unit-weight pseudo-observations
// (the stopping floor's worth), the predicted fraction in the failure
// class and the rest Masked. Stamps the seeded mass into info.
func seedAVFPrior(est *stats.Sequential, info *AVFInfo, cfg Config, mass int) {
	w := float64(mass)
	info.PriorMass = w
	est.SeedPrior(map[int]float64{
		int(ClassMasked):       (1 - info.Predicted) * w,
		int(failureClass(cfg)): info.Predicted * w,
	})
}
