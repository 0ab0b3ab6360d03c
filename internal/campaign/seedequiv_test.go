package campaign_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
)

// seedClassCounts are the class counts the pre-adaptive (fixed-plan)
// engine produced for this exact matrix, captured before the streaming
// dispatcher and convergence exit landed. With early stopping disabled
// the refactored engine must reproduce them byte for byte — on both
// abstraction levels and under all four fault models — or the
// default-off path no longer equals the seed.
var seedClassCounts = []struct {
	model  core.Model
	prm    fault.Params
	counts map[campaign.Class]int
}{
	{core.ModelMicroarch, fault.Params{Model: fault.ModelTransient},
		map[campaign.Class]int{campaign.ClassMasked: 14, campaign.ClassMismatch: 1, campaign.ClassCrash: 1}},
	{core.ModelMicroarch, fault.Params{Model: fault.ModelBurst, Burst: 3},
		map[campaign.Class]int{campaign.ClassMasked: 15, campaign.ClassMismatch: 1}},
	{core.ModelMicroarch, fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		map[campaign.Class]int{campaign.ClassMasked: 8, campaign.ClassMismatch: 5, campaign.ClassCrash: 3}},
	{core.ModelMicroarch, fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 400},
		map[campaign.Class]int{campaign.ClassMasked: 12, campaign.ClassMismatch: 3, campaign.ClassCrash: 1}},
	{core.ModelRTL, fault.Params{Model: fault.ModelTransient},
		map[campaign.Class]int{campaign.ClassMasked: 8, campaign.ClassMismatch: 3, campaign.ClassCrash: 5}},
	{core.ModelRTL, fault.Params{Model: fault.ModelBurst, Burst: 3},
		map[campaign.Class]int{campaign.ClassMasked: 13, campaign.ClassMismatch: 1, campaign.ClassCrash: 2}},
	{core.ModelRTL, fault.Params{Model: fault.ModelStuckAt, Stuck: fault.StuckRandom},
		map[campaign.Class]int{campaign.ClassMasked: 10, campaign.ClassMismatch: 3, campaign.ClassCrash: 3}},
	{core.ModelRTL, fault.Params{Model: fault.ModelIntermittent, Stuck: fault.StuckRandom, Span: 400},
		map[campaign.Class]int{campaign.ClassMasked: 14, campaign.ClassMismatch: 1, campaign.ClassCrash: 1}},
}

// TestSeedPathEquivalence runs the matrix above through the sweep
// scheduler (the production path of cmd/paper) with early stopping
// disabled and asserts byte-identical class counts to the recorded seed
// results.
func TestSeedPathEquivalence(t *testing.T) {
	var matrix []campaign.SweepCampaign
	for _, tc := range seedClassCounts {
		w := factoryFor(t, "qsort", tc.model)
		matrix = append(matrix, campaign.SweepCampaign{
			Key:     tc.model.String() + "/" + tc.prm.Model.String(),
			Group:   tc.model.String() + "/qsort",
			Factory: w,
			Config: campaign.Config{
				Injections: 16, Seed: 31, Target: fault.TargetRF, Fault: tc.prm,
				Obs: campaign.ObsPinout, Window: 3_000,
			},
		})
	}
	sr := mustSweep(t, matrix, campaign.SweepOptions{Workers: 4})
	for _, tc := range seedClassCounts {
		key := tc.model.String() + "/" + tc.prm.Model.String()
		res := sr.Results[key]
		if res == nil {
			t.Fatalf("%s: missing result", key)
		}
		for _, c := range []campaign.Class{
			campaign.ClassMasked, campaign.ClassMismatch, campaign.ClassSDC,
			campaign.ClassCrash, campaign.ClassHang,
		} {
			if res.Counts[c] != tc.counts[c] {
				t.Errorf("%s: class %v = %d, seed engine produced %d",
					key, c, res.Counts[c], tc.counts[c])
			}
		}
		if res.RunsSaved != 0 || res.ConvergedRuns != 0 {
			t.Errorf("%s: adaptive accounting active on the default path (%d saved, %d converged)",
				key, res.RunsSaved, res.ConvergedRuns)
		}
	}
}
