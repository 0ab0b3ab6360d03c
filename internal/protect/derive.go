package protect

import (
	"fmt"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// Derive returns the result of twin's campaign with its target
// protected by s (not SchemeNone), where dataBits is the target's real
// bit space (Simulator.Bits). twin must be unprotected and not
// class-pruned.
//
// For each counted plan index i, Derive draws one fault over the
// dataBits + OverheadBits(s, dataBits) bits of the protected structure,
// from a stream seeded from the twin's seed but independent of its
// plan. A draw landing wholly in data becomes the twin's outcome i,
// whose class EvalSpan post-processes: a detection becomes ClassDUE, a
// correction ClassMasked, a miss keeps the raw class, and a raw-Masked
// run stays Masked (its corruption was overwritten or never consumed,
// so no checker saw it).
// That is exactly the verdict a replay of the twin's fault under the
// scheme would get. Any other draw is an overhead fault, judged by
// OverheadDUE on its first overhead bit. Each protected fault is thus
// uniform over data plus overhead bits — the twin's data faults are
// uniform over data, and a draw conditioned on landing there is too —
// so the arm's estimator is unchanged in law, and its comparison with
// the twin is paired on the shared faults.
//
// Under sequential stopping the derived arm covers the twin's counted
// prefix. Replay accounting (cycles, convergence exits) stays zero,
// since the derivation simulates nothing; the execution Account (wall
// times, lanes) is the twin's, whose campaign the arm cost.
func Derive(twin *campaign.Result, s Scheme, dataBits int) (*campaign.Result, error) {
	cfg := twin.Config
	if cfg.Prune == campaign.PruneClasses {
		return nil, fmt.Errorf("protect: a class-pruned campaign cannot be derived (an overhead draw would drop a representative's class weight)")
	}
	overhead := OverheadBits(s, dataBits)
	// The salt ("protect") sets the draws apart from the twin's plan,
	// which is seeded from the same Config.Seed.
	gen, err := fault.NewGenerator(cfg.Target, dataBits+overhead, twin.GoldenCycles, cfg.TimeDist, cfg.Fault,
		rand.New(rand.NewSource(cfg.Seed^0x70726f74656374)))
	if err != nil {
		return nil, err
	}
	res := &campaign.Result{
		Config:              cfg,
		GoldenCycles:        twin.GoldenCycles,
		GoldenTxns:          twin.GoldenTxns,
		Counts:              make(map[campaign.Class]int),
		Outcomes:            make([]campaign.RunOutcome, len(twin.Outcomes)),
		RunsSaved:           twin.RunsSaved,
		Protect:             TargetKey(cfg.Target) + "=" + s.String(),
		ProtectDataBits:     dataBits,
		ProtectOverheadBits: overhead,
		Account:             twin.Account,
	}
	for i, oc := range twin.Outcomes {
		draw := gen.Next()
		lo, hi := draw.BitSpan()
		if hi <= dataBits {
			oc.Class = dataClass(s, oc)
		} else {
			reg := RegionOf(s, dataBits, max(lo, dataBits))
			oc = campaign.RunOutcome{Spec: draw, Class: campaign.ClassMasked, EndCycle: draw.Cycle, Overhead: true}
			if OverheadDUE(s, reg, draw.Model, draw.Stuck) {
				oc.Class = campaign.ClassDUE
			}
			res.OverheadRuns++
		}
		res.Outcomes[i] = oc
		res.Counts[oc.Class]++
	}
	res.Unsafeness, res.AchievedMargin, err = campaign.Estimate(res.Outcomes, cfg.Confidence)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// dataClass is the verdict a data fault's raw (unprotected) class gets
// under scheme s: the per-word arity rule over the fault's bit span.
func dataClass(s Scheme, oc campaign.RunOutcome) campaign.Class {
	lo, hi := oc.Spec.BitSpan()
	switch a := EvalSpan(s, lo, hi); {
	case oc.Class == campaign.ClassMasked || a == ActionMiss:
		return oc.Class
	case a == ActionDetect:
		return campaign.ClassDUE
	}
	return campaign.ClassMasked
}
