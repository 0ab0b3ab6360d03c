// Package stats provides the statistical machinery of the fault-injection
// methodology: the Leveugle et al. (DATE 2009) sample-size formulation
// the paper uses to size its campaigns (§IV), and confidence intervals
// for the reported vulnerability estimates.
package stats

import (
	"fmt"
	"math"
)

// zTable maps common confidence levels to two-sided normal quantiles.
var zTable = map[float64]float64{
	0.90:  1.6449,
	0.95:  1.9600,
	0.99:  2.5758,
	0.999: 3.2905,
}

// ZForConfidence returns the two-sided normal quantile for a confidence
// level in (0, 1). Tabulated levels are exact; others are computed from a
// rational approximation of the probit function.
func ZForConfidence(conf float64) (float64, error) {
	if conf <= 0 || conf >= 1 {
		return 0, fmt.Errorf("stats: confidence %v out of (0,1)", conf)
	}
	if z, ok := zTable[conf]; ok {
		return z, nil
	}
	z := probit(0.5 + conf/2)
	if math.IsNaN(z) || math.IsInf(z, 0) {
		// conf so close to 1 that 0.5+conf/2 rounds to 1.0 and the
		// probit tail blows up.
		return 0, fmt.Errorf("stats: confidence %v too close to 1", conf)
	}
	return z, nil
}

// probit approximates the standard normal quantile function using the
// Beasley-Springer-Moro algorithm.
func probit(p float64) float64 {
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
	const pl = 0.02425
	switch {
	case p < pl:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pl:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// LeveugleSampleSize returns the statistical fault sample size for a
// population of N possible faults, error margin e, and confidence level
// conf, following Leveugle et al.:
//
//	n = N / (1 + e^2 * (N-1) / (t^2 * p * (1-p)))
//
// with the conservative p = 0.5. Pass N <= 0 for an effectively infinite
// population. The paper's parameters (e = 0.02, conf = 0.99) yield the
// "4000 injections" figure used for every campaign.
func LeveugleSampleSize(populationN int64, errMargin, conf float64) (int, error) {
	if errMargin <= 0 || errMargin >= 1 {
		return 0, fmt.Errorf("stats: error margin %v out of (0,1)", errMargin)
	}
	t, err := ZForConfidence(conf)
	if err != nil {
		return 0, err
	}
	const p = 0.5
	infinite := t * t * p * (1 - p) / (errMargin * errMargin)
	if populationN <= 0 {
		return int(math.Ceil(infinite)), nil
	}
	nf := float64(populationN)
	n := nf / (1 + errMargin*errMargin*(nf-1)/(t*t*p*(1-p)))
	return int(math.Ceil(n)), nil
}

// Proportion is an estimated proportion with a confidence interval.
type Proportion struct {
	Hits  int
	N     int
	P     float64 // point estimate Hits/N
	Lo    float64 // Wilson interval lower bound
	Hi    float64 // Wilson interval upper bound
	Conf  float64
	Sigma float64 // normal-approximation standard error
}

// EstimateProportion computes the point estimate and Wilson score
// interval for hits successes out of n trials at the given confidence:
// the weighted estimate with every weight 1, where represented mass and
// effective sample size are both n.
func EstimateProportion(hits, n int, conf float64) (Proportion, error) {
	if n <= 0 {
		return Proportion{}, fmt.Errorf("stats: n must be positive, got %d", n)
	}
	if hits < 0 || hits > n {
		return Proportion{}, fmt.Errorf("stats: hits %d out of [0,%d]", hits, n)
	}
	return EstimateWeightedProportion(float64(hits), float64(n), float64(n), conf)
}

// WilsonHalfWidthP returns the half-width of the Wilson score interval
// for a proportion p observed over n trials at normal quantile z. It is
// the stopping statistic of the sequential campaign dispatcher: unlike
// the Wald width it is well-behaved at p = 0 and p = 1, so a class that
// has not been observed yet still reports an honest upper bound. n may
// be fractional — weighted estimates pass the Kish effective sample
// size instead of a raw count — and an empty sample (n <= 0) saturates
// at 1.
func WilsonHalfWidthP(p, n, z float64) float64 {
	if n <= 0 {
		return 1
	}
	denom := 1 + z*z/n
	return z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
}

// EstimateWeightedProportion computes the point estimate and Wilson
// interval for a weighted proportion: hitW of totalW represented mass,
// judged at the Kish effective sample size nEff — the honest width for
// extrapolated (MeRLiN-pruned) campaigns, where a class representative
// carries its class's weight but contributes only one independent
// observation.
func EstimateWeightedProportion(hitW, totalW, nEff, conf float64) (Proportion, error) {
	for _, v := range [...]float64{hitW, totalW, nEff} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN slips past the range checks below (every comparison
			// is false), so reject non-finite mass explicitly.
			return Proportion{}, fmt.Errorf("stats: weighted proportion needs finite mass (hit %v, total %v, nEff %v)", hitW, totalW, nEff)
		}
	}
	if totalW <= 0 || nEff <= 0 {
		return Proportion{}, fmt.Errorf("stats: weighted proportion needs positive mass (total %v, nEff %v)", totalW, nEff)
	}
	if hitW < 0 || hitW > totalW {
		return Proportion{}, fmt.Errorf("stats: hit mass %v out of [0,%v]", hitW, totalW)
	}
	z, err := ZForConfidence(conf)
	if err != nil {
		return Proportion{}, err
	}
	p := hitW / totalW
	center := (p + z*z/(2*nEff)) / (1 + z*z/nEff)
	half := WilsonHalfWidthP(p, nEff, z)
	return Proportion{
		Hits: int(math.Round(hitW)), N: int(math.Round(totalW)), P: p,
		Lo: math.Max(0, center-half), Hi: math.Min(1, center+half),
		Conf:  conf,
		Sigma: math.Sqrt(p * (1 - p) / nEff),
	}, nil
}

// Sequential is the incremental multinomial estimator behind the
// campaign engine's sequential statistical stopping: outcomes stream in
// one at a time, and the campaign may stop sampling once every class
// proportion's interval half-width is within the target error margin.
// The class universe is fixed up front so classes never observed still
// constrain stopping (their upper bound must shrink below the margin
// too, exactly like the p = 0.5 worst case in Leveugle's formulation
// relaxes as evidence accumulates).
type Sequential struct {
	z       float64
	conf    float64
	classes []int
	counts  map[int]float64 // weighted class mass
	n       int             // independent observations (Observe* calls)
	sumW    float64         // total represented mass
	sumW2   float64         // sum of squared weights (Kish effective n)
}

// NewSequential builds an estimator at the given confidence over the
// given class universe.
func NewSequential(conf float64, classes ...int) (*Sequential, error) {
	z, err := ZForConfidence(conf)
	if err != nil {
		return nil, err
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("stats: sequential estimator needs a class universe")
	}
	return &Sequential{
		z: z, conf: conf,
		classes: append([]int(nil), classes...),
		counts:  make(map[int]float64, len(classes)),
	}, nil
}

// Observe folds one outcome into the estimator. Outcomes outside the
// declared universe are counted toward n only (they widen every class's
// complement, never silently vanish).
func (s *Sequential) Observe(class int) { s.ObserveWeighted(class, 1) }

// ObserveWeighted folds one independent observation representing weight
// w outcomes — the MeRLiN-style extrapolation path, where one replayed
// class representative stands for its whole equivalence class. The
// estimator tracks the represented mass per class and shrinks the
// margin by the Kish effective sample size (sumW²/sumW²ᵢ), so a heavily
// extrapolated campaign honestly reports less evidence than one that
// replayed every fault. Non-positive weights are ignored.
func (s *Sequential) ObserveWeighted(class int, w float64) {
	if w <= 0 {
		return
	}
	s.n++
	s.counts[class] += w
	s.sumW += w
	s.sumW2 += w * w
}

// SeedPrior folds pseudo-observations into the estimator before any
// real outcome arrives — the AVF-prior campaign mode, where the
// injection-free ACE estimate of each class's proportion stands in for
// early samples. mass[c] is class c's pseudo-observation count, and
// each pseudo-observation carries unit weight: a prior of total mass W
// behaves exactly like W real unit-weight outcomes (the classic
// Beta/Dirichlet pseudo-count prior), shifting early point estimates
// toward the prediction, counting toward the MinRuns floor, and being
// progressively dominated as real evidence accumulates. It must NOT be
// folded as one heavy ObserveWeighted call per class — two lopsided
// weights would collapse the Kish effective sample size toward 1 and
// then drag it below the real observation count forever. Non-positive
// masses are ignored; classes outside the declared universe too.
func (s *Sequential) SeedPrior(mass map[int]float64) {
	var total float64
	for _, c := range s.classes {
		w := mass[c]
		if w <= 0 {
			continue
		}
		s.counts[c] += w
		s.sumW += w
		s.sumW2 += w // w pseudo-observations of weight 1: sum of squares is w
		total += w
	}
	s.n += int(math.Round(total))
}

// N returns the number of independent observations.
func (s *Sequential) N() int { return s.n }

// Count returns the represented outcomes of one class, rounded.
func (s *Sequential) Count(class int) int { return int(math.Round(s.counts[class])) }

// Mass returns the represented outcomes of every class together.
func (s *Sequential) Mass() float64 { return s.sumW }

// EffectiveN returns the Kish effective sample size: n when every
// weight is 1, smaller under extrapolation.
func (s *Sequential) EffectiveN() float64 {
	if s.sumW2 == 0 {
		return 0
	}
	return s.sumW * s.sumW / s.sumW2
}

// WilsonMargin returns the widest Wilson half-width across the class
// universe — the quantity compared against the target error margin —
// at the effective sample size.
func (s *Sequential) WilsonMargin() float64 {
	if s.n == 0 {
		return 1
	}
	nEff := s.EffectiveN()
	worst := 0.0
	for _, c := range s.classes {
		if w := WilsonHalfWidthP(s.counts[c]/s.sumW, nEff, s.z); w > worst {
			worst = w
		}
	}
	return worst
}

// Converged reports whether every class proportion is estimated within
// margin at the estimator's confidence, with at least minRuns samples.
func (s *Sequential) Converged(margin float64, minRuns int) bool {
	return s.n >= minRuns && s.WilsonMargin() <= margin
}

// AbsDiffStats summarises the per-benchmark differences between two
// vulnerability series (the paper's "percentile units" and relative-
// difference headline numbers).
type AbsDiffStats struct {
	MeanAbsDiff float64 // mean |a-b|, in absolute (percentile-unit) terms
	MeanRelDiff float64 // mean |a-b| / max(a, b), skipping zero pairs
	MaxAbsDiff  float64
}

// CompareSeries computes the difference statistics between two
// equally-long vulnerability series.
func CompareSeries(a, b []float64) (AbsDiffStats, error) {
	if len(a) != len(b) || len(a) == 0 {
		return AbsDiffStats{}, fmt.Errorf("stats: series lengths %d, %d", len(a), len(b))
	}
	var out AbsDiffStats
	var relN int
	for i := range a {
		d := math.Abs(a[i] - b[i])
		out.MeanAbsDiff += d
		if d > out.MaxAbsDiff {
			out.MaxAbsDiff = d
		}
		if m := math.Max(a[i], b[i]); m > 0 {
			out.MeanRelDiff += d / m
			relN++
		}
	}
	out.MeanAbsDiff /= float64(len(a))
	if relN > 0 {
		out.MeanRelDiff /= float64(relN)
	}
	return out, nil
}
