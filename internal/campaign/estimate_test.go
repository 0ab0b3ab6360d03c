package campaign_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/stats"
)

// estimateReference is Estimate's weighted arithmetic written out on
// its own, as it stood before Estimate was built on stats.Sequential:
// the masses, the Kish effective n and the per-class Wilson margin
// summed here, not read from the estimator the sequential stop runs.
func estimateReference(outcomes []campaign.RunOutcome, conf float64) (stats.Proportion, float64, error) {
	z, err := stats.ZForConfidence(conf)
	if err != nil {
		return stats.Proportion{}, 0, err
	}
	var sumW, sumSq, unsafeW float64
	wcounts := make(map[campaign.Class]float64)
	for _, oc := range outcomes {
		if oc.Extrapolated {
			continue
		}
		w := max(float64(oc.ClassSize), 1)
		sumW += w
		sumSq += w * w
		wcounts[oc.Class] += w
		if oc.Class != campaign.ClassMasked {
			unsafeW += w
		}
	}
	nEff := sumW
	if sumSq > 0 {
		nEff = sumW * sumW / sumSq
	}
	unsafe, err := stats.EstimateWeightedProportion(unsafeW, sumW, nEff, conf)
	if err != nil {
		return stats.Proportion{}, 0, err
	}
	var margin float64
	for c := campaign.ClassMasked; c <= campaign.ClassDUE; c++ {
		if w := stats.WilsonHalfWidthP(wcounts[c]/sumW, nEff, z); w > margin {
			margin = w
		}
	}
	return unsafe, margin, nil
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEstimateMatchesReference holds Estimate to the reference bit for
// bit over generated outcome lists — every class, class sizes 0–1000,
// extrapolated members — at tabulated and computed confidences, and to
// the same error on lists with no counted evidence. A change to the
// sequential estimator that moves the reported interval fails here.
func TestEstimateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	confs := []float64{0.99, 0.95, 0.9, 0.8}
	for i := 0; i < 2000; i++ {
		outcomes := make([]campaign.RunOutcome, r.Intn(80))
		weighted := r.Intn(2) == 0 // else every outcome at weight 1
		for j := range outcomes {
			oc := &outcomes[j]
			oc.Class = campaign.ClassMasked + campaign.Class(r.Intn(int(campaign.ClassDUE)))
			if r.Intn(3) == 0 {
				// A heavily masked mix, as most campaigns are.
				oc.Class = campaign.ClassMasked
			}
			if weighted {
				oc.ClassSize = r.Intn(1001)
				oc.Extrapolated = r.Intn(4) == 0
			}
		}
		conf := confs[r.Intn(len(confs))]
		got, gotMargin, gotErr := campaign.Estimate(outcomes, conf)
		want, wantMargin, wantErr := estimateReference(outcomes, conf)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("case %d: error %v, reference %v", i, gotErr, wantErr)
		}
		if got.Hits != want.Hits || got.N != want.N || !sameBits(got.Conf, want.Conf) ||
			!sameBits(got.P, want.P) || !sameBits(got.Lo, want.Lo) ||
			!sameBits(got.Hi, want.Hi) || !sameBits(got.Sigma, want.Sigma) ||
			!sameBits(gotMargin, wantMargin) {
			t.Fatalf("case %d (%d outcomes, conf %v): got %+v margin %v, reference %+v margin %v",
				i, len(outcomes), conf, got, gotMargin, want, wantMargin)
		}
	}
	for name, outcomes := range map[string][]campaign.RunOutcome{
		"empty":        nil,
		"extrapolated": {{Class: campaign.ClassSDC, Extrapolated: true}},
	} {
		_, _, gotErr := campaign.Estimate(outcomes, 0.99)
		_, _, wantErr := estimateReference(outcomes, 0.99)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
	}
	if _, _, err := campaign.Estimate(nil, 1); err == nil {
		t.Error("confidence 1 accepted")
	}
}
