package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLeveuglePaperParameters(t *testing.T) {
	// The paper: error margin 2%, confidence 99% -> "4000 injections".
	n, err := LeveugleSampleSize(0, 0.02, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// The exact infinite-population value is 2.5758^2 * 0.25 / 0.0004.
	if n < 4000 || n > 4200 {
		t.Errorf("sample size = %d, want ~4147 (paper rounds to 4000)", n)
	}
}

func TestLeveugleFinitePopulation(t *testing.T) {
	// A small population requires fewer samples than the infinite case.
	inf, _ := LeveugleSampleSize(0, 0.02, 0.99)
	fin, err := LeveugleSampleSize(10000, 0.02, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if fin >= inf {
		t.Errorf("finite %d >= infinite %d", fin, inf)
	}
	// And the sample can never exceed the population.
	tiny, _ := LeveugleSampleSize(50, 0.02, 0.99)
	if tiny > 50 {
		t.Errorf("sample %d > population 50", tiny)
	}
}

func TestLeveugleErrors(t *testing.T) {
	if _, err := LeveugleSampleSize(0, 0, 0.99); err == nil {
		t.Error("zero margin accepted")
	}
	if _, err := LeveugleSampleSize(0, 0.02, 1.5); err == nil {
		t.Error("bad confidence accepted")
	}
}

func TestZForConfidence(t *testing.T) {
	for conf, want := range map[float64]float64{0.90: 1.6449, 0.95: 1.96, 0.99: 2.5758} {
		z, err := ZForConfidence(conf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(z-want) > 1e-3 {
			t.Errorf("z(%v) = %v, want %v", conf, z, want)
		}
	}
	// Non-tabulated level via probit: z(0.98) ~ 2.3263.
	z, err := ZForConfidence(0.98)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-2.3263) > 1e-3 {
		t.Errorf("z(0.98) = %v", z)
	}
}

func TestEstimateProportion(t *testing.T) {
	p, err := EstimateProportion(40, 400, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 0.1 {
		t.Errorf("P = %v", p.P)
	}
	if p.Lo >= p.P || p.Hi <= p.P {
		t.Errorf("interval [%v,%v] does not bracket %v", p.Lo, p.Hi, p.P)
	}
	if p.Lo < 0 || p.Hi > 1 {
		t.Errorf("interval escapes [0,1]: [%v,%v]", p.Lo, p.Hi)
	}
}

func TestEstimateProportionEdges(t *testing.T) {
	if _, err := EstimateProportion(0, 0, 0.99); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := EstimateProportion(5, 4, 0.99); err == nil {
		t.Error("hits > n accepted")
	}
	p, err := EstimateProportion(0, 100, 0.99)
	if err != nil || p.Lo != 0 {
		t.Errorf("all-miss: %+v, %v", p, err)
	}
	p, err = EstimateProportion(100, 100, 0.99)
	if err != nil || p.Hi != 1 {
		t.Errorf("all-hit: %+v, %v", p, err)
	}
}

// TestWilsonIntervalQuick checks interval sanity for random inputs.
func TestWilsonIntervalQuick(t *testing.T) {
	f := func(hits16 uint16, extra uint16) bool {
		n := int(hits16) + int(extra) + 1
		hits := int(hits16)
		p, err := EstimateProportion(hits, n, 0.95)
		if err != nil {
			return false
		}
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.P+1e-12 && p.Hi >= p.P-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareSeries(t *testing.T) {
	// Paper-style: RF differs by 0.7 percentile units ~ 10%.
	a := []float64{0.07, 0.05, 0.10}
	b := []float64{0.077, 0.045, 0.11}
	d, err := CompareSeries(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.MeanAbsDiff-(0.007+0.005+0.01)/3) > 1e-12 {
		t.Errorf("MeanAbsDiff = %v", d.MeanAbsDiff)
	}
	if math.Abs(d.MaxAbsDiff-0.01) > 1e-12 {
		t.Errorf("MaxAbsDiff = %v", d.MaxAbsDiff)
	}
	if d.MeanRelDiff <= 0 || d.MeanRelDiff > 1 {
		t.Errorf("MeanRelDiff = %v", d.MeanRelDiff)
	}
	if _, err := CompareSeries(a, b[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CompareSeries(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
}

// TestHalfWidths: the Wilson half-width must agree with the
// EstimateProportion interval, stay finite at the p = 0 boundary, and
// shrink with n.
func TestHalfWidths(t *testing.T) {
	z, err := ZForConfidence(0.99)
	if err != nil {
		t.Fatal(err)
	}
	p, err := EstimateProportion(30, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	half := WilsonHalfWidthP(0.3, 100, z)
	if got := (p.Hi - p.Lo) / 2; math.Abs(got-half) > 1e-12 {
		t.Errorf("Wilson half-width %.6f != interval half-span %.6f", half, got)
	}
	if w := WilsonHalfWidthP(0, 200, z); w <= 0 || w >= 0.1 {
		t.Errorf("Wilson half-width at p=0, n=200: %v", w)
	}
	if WilsonHalfWidthP(0.03, 1000, z) >= WilsonHalfWidthP(0.3, 100, z) {
		t.Error("Wilson half-width did not shrink with n")
	}
	if WilsonHalfWidthP(1, 0, z) != 1 {
		t.Error("empty-sample half-width must saturate at 1")
	}
}

// TestSequentialStopping: the estimator converges exactly when every
// class of the declared universe is within the margin, and the implied
// stopping index matches a direct recomputation.
func TestSequential(t *testing.T) {
	if _, err := NewSequential(0.99); err == nil {
		t.Error("empty class universe accepted")
	}
	if _, err := NewSequential(1.5, 1); err == nil {
		t.Error("confidence 1.5 accepted")
	}
	s, err := NewSequential(0.95, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.WilsonMargin() != 1 {
		t.Error("empty estimator must report a saturated margin")
	}
	// Stream a deterministic 1-in-4 pattern and find the first n within
	// a 0.15 margin; verify against the closed-form width at that n.
	z, _ := ZForConfidence(0.95)
	stopped := 0
	for i := 1; i <= 500; i++ {
		class := 1
		if i%4 == 0 {
			class = 2
		}
		s.Observe(class)
		if s.Converged(0.15, 10) {
			stopped = i
			break
		}
	}
	if stopped == 0 {
		t.Fatal("estimator never converged at a 0.15 margin in 500 samples")
	}
	worst := 0.0
	for _, hits := range []int{s.Count(1), s.Count(2), s.Count(3)} {
		if w := WilsonHalfWidthP(float64(hits)/float64(stopped), float64(stopped), z); w > worst {
			worst = w
		}
	}
	if worst > 0.15 {
		t.Errorf("converged at n=%d with margin %.4f > 0.15", stopped, worst)
	}
	if s.N() != stopped {
		t.Errorf("N = %d after %d observations", s.N(), stopped)
	}
	t.Logf("converged at n=%d (margin %.4f)", stopped, worst)
}
