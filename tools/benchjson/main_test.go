package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, doc Baseline) string {
	t.Helper()
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaselineGate pins the CI perf gate's decision logic without
// running any campaign: throughput within tolerance passes, a drop
// beyond -max-regression on any replay metric fails, and the
// deterministic avf-prior runs-to-margin count is gated with zero
// tolerance.
func TestCompareBaselineGate(t *testing.T) {
	base := Baseline{
		Replay: []ReplayPoint{
			{Model: "microarch", ReplaysPerS: 100, MCyclesPerS: 50},
			{Model: "rtl", ReplaysPerS: 10, MCyclesPerS: 5},
		},
		AvfPrior: AvfPriorPoint{Injections: 150, PlainRuns: 50, PriorRuns: 12},
		Protection: ProtectionPoint{
			Workload: "qsort", Protect: "rf=parity", Injections: 120,
			Runs: 120, OverheadRuns: 7, Masked: 80, DUE: 25,
		},
	}
	path := writeBaseline(t, base)

	cases := []struct {
		name    string
		mutate  func(*Baseline)
		wantErr string
	}{
		{name: "identical", mutate: func(*Baseline) {}},
		{name: "within tolerance", mutate: func(d *Baseline) {
			d.Replay[0].ReplaysPerS = 80 // -20% < 25% gate
		}},
		{name: "improvement", mutate: func(d *Baseline) {
			d.Replay[1].MCyclesPerS = 500
			d.AvfPrior.PriorRuns = 3
		}},
		{name: "unknown model ignored", mutate: func(d *Baseline) {
			d.Replay = append(d.Replay, ReplayPoint{Model: "rtl-batch", ReplaysPerS: 1})
		}},
		{name: "throughput regression", mutate: func(d *Baseline) {
			d.Replay[0].ReplaysPerS = 60 // -40% > 25% gate
		}, wantErr: "regression"},
		{name: "mcycles regression", mutate: func(d *Baseline) {
			d.Replay[1].MCyclesPerS = 1
		}, wantErr: "regression"},
		{name: "avf prior regression", mutate: func(d *Baseline) {
			d.AvfPrior.PriorRuns = 13 // one extra run: deterministic, zero tolerance
		}, wantErr: "avf-prior runs-to-margin"},
		{name: "protection split drift", mutate: func(d *Baseline) {
			d.Protection.DUE = 24 // deterministic class split: zero tolerance
		}, wantErr: "protected-campaign split"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := base
			doc.Replay = append([]ReplayPoint(nil), base.Replay...)
			tc.mutate(&doc)
			err := compareBaseline(doc, path, 0.25)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("gate failed on %s: %v", tc.name, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed, want failure mentioning %q", tc.wantErr)
			}
		})
	}
}

// TestCompareBaselineSkipsAbsentProtection: a committed baseline that
// predates the protected-campaign arm carries a zero-valued point; the
// gate must skip it instead of flagging every current run as drift.
func TestCompareBaselineSkipsAbsentProtection(t *testing.T) {
	base := Baseline{Replay: []ReplayPoint{{Model: "microarch", ReplaysPerS: 100, MCyclesPerS: 50}}}
	path := writeBaseline(t, base)
	doc := base
	doc.Protection = ProtectionPoint{Workload: "qsort", Runs: 120, OverheadRuns: 7, DUE: 31}
	if err := compareBaseline(doc, path, 0.25); err != nil {
		t.Errorf("zero-valued baseline protection point gated the run: %v", err)
	}
}

// TestCompareBaselineBadInput: a missing or malformed baseline must fail
// the gate loudly rather than silently passing the PR.
func TestCompareBaselineBadInput(t *testing.T) {
	if err := compareBaseline(Baseline{}, filepath.Join(t.TempDir(), "nope.json"), 0.25); err == nil {
		t.Error("missing baseline file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareBaseline(Baseline{}, path, 0.25); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Errorf("malformed baseline: err = %v, want parse failure", err)
	}
}

// TestMeasureAVFPrior runs the avf-prior arm end to end (two small
// sequential-stopping campaigns) and checks the properties the committed
// baseline relies on: the prediction is a proper fraction, both arms
// stop, and seeding the prior never costs runs.
func TestMeasureAVFPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns; covered by the CI perf-baseline step")
	}
	ap, err := measureAVFPrior()
	if err != nil {
		t.Fatal(err)
	}
	if ap.PredictedAVF <= 0 || ap.PredictedAVF >= 1 {
		t.Errorf("predicted AVF %.3f degenerate", ap.PredictedAVF)
	}
	if ap.PlainRuns <= 0 || ap.PriorRuns <= 0 {
		t.Fatalf("arms ran %d/%d runs, want both positive", ap.PlainRuns, ap.PriorRuns)
	}
	if ap.PriorRuns > ap.PlainRuns {
		t.Errorf("prior arm needed %d runs, plain arm %d: the prior cost runs", ap.PriorRuns, ap.PlainRuns)
	}
	if ap.SavedFrac < 0 || ap.SavedFrac >= 1 {
		t.Errorf("saved fraction %.3f out of [0,1)", ap.SavedFrac)
	}
	t.Logf("avf-prior: predicted %.3f, %d runs plain vs %d with prior (%.0f%% saved), drift %.4f",
		ap.PredictedAVF, ap.PlainRuns, ap.PriorRuns, ap.SavedFrac*100, ap.Drift)
}

// TestPairedOverhead: the overhead arm gates on the median of per-pair
// ratios, so one pair caught by a scheduler hiccup — or one lucky plain
// run — does not move it, while a real slowdown in every pair does.
func TestPairedOverhead(t *testing.T) {
	plain := []float64{0.100, 0.102, 0.098, 0.101, 0.100, 0.099, 0.100}
	same := []float64{0.100, 0.102, 0.098, 0.101, 0.100, 0.099, 0.100}
	if got := pairedOverhead(plain, same); got != 0 {
		t.Errorf("identical arms: overhead %v, want 0", got)
	}
	hiccup := append([]float64(nil), same...)
	hiccup[2] = 0.150 // one enabled run preempted
	lucky := append([]float64(nil), plain...)
	lucky[4] = 0.080 // one plain run on a quiet core
	if got := pairedOverhead(lucky, hiccup); got > 0.001 {
		t.Errorf("two outlier pairs of seven: overhead %v, want ~0", got)
	}
	slower := make([]float64, len(plain))
	for i, p := range plain {
		slower[i] = p * 1.05
	}
	if got := pairedOverhead(plain, slower); got < 0.047 || got > 0.048 {
		t.Errorf("5%% slower in every pair: overhead %v, want 1-1/1.05", got)
	}
	if got := pairedOverhead(slower, plain); got != 0 {
		t.Errorf("enabled arm faster: overhead %v, want the floor 0", got)
	}
}
