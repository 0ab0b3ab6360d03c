package report

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{
		{"xxxx", "1"},
		{"y", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %q", lines)
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Errorf("separator: %q", lines[1])
	}
	// All rows align on the second column.
	col := strings.Index(lines[0], "long-header")
	if !strings.HasPrefix(lines[2][col:], "1") || !strings.HasPrefix(lines[3][col:], "22") {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]string{{"1", "2"}})
	if out != "a,b\n1,2\n" {
		t.Errorf("CSV = %q", out)
	}
}

// TestCSVQuoting: fields containing commas, quotes or newlines must be
// quoted per RFC 4180 instead of silently corrupting the column layout
// (the historical "no quoting" footgun).
func TestCSVQuoting(t *testing.T) {
	out := CSV([]string{"bench", "label"}, [][]string{
		{"qsort", "window-2,000"},
		{"sha", `the "fast" one`},
		{"fft", "two\nlines"},
	})
	want := "bench,label\n" +
		"qsort,\"window-2,000\"\n" +
		"sha,\"the \"\"fast\"\" one\"\n" +
		"fft,\"two\nlines\"\n"
	if out != want {
		t.Errorf("CSV quoting:\n got %q\nwant %q", out, want)
	}
	if strings.Count(strings.Split(out, "\n")[1], ",") != 2 {
		t.Error("comma-bearing field split into extra columns")
	}
}

func figFixture(t *testing.T) *core.FigureResult {
	t.Helper()
	mk := func(hits, n int) stats.Proportion {
		p, err := stats.EstimateProportion(hits, n, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return &core.FigureResult{
		Name:    "fig-test",
		Benches: []string{"sha", "qsort"},
		Series: []core.Series{
			{Label: "GeFIN", Vuln: map[string]stats.Proportion{"sha": mk(5, 100), "qsort": mk(8, 100)}},
			{Label: "RTL", Vuln: map[string]stats.Proportion{"sha": mk(6, 100), "qsort": mk(10, 100)}},
		},
		Diff: stats.AbsDiffStats{MeanAbsDiff: 0.015, MeanRelDiff: 0.15, MaxAbsDiff: 0.02},
	}
}

// render is Experiment with the error (JSON only) made fatal.
func render(t *testing.T, res *core.ExperimentResult, format Format) string {
	t.Helper()
	out, err := Experiment(res, format)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFigureRendering: an experiment with no table spec renders as its
// figure.
func TestFigureRendering(t *testing.T) {
	out := render(t, &core.ExperimentResult{Fig: figFixture(t)}, FormatTable)
	for _, want := range []string{"fig-test", "GeFIN", "RTL", "sha", "qsort", "average", "percentile units", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure lacks %q:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	out := render(t, &core.ExperimentResult{Fig: figFixture(t)}, FormatCSV)
	if !strings.HasPrefix(out, "benchmark,GeFIN,RTL\n") {
		t.Errorf("header: %q", out)
	}
	if !strings.Contains(out, "sha,0.05000,0.06000") {
		t.Errorf("rows: %q", out)
	}
}

func TestClassBreakdownRendering(t *testing.T) {
	fig := figFixture(t)
	fig.Name = "ablation-fault-models"
	mkRes := func(masked, sdc, mismatch int) *campaign.Result {
		n := masked + sdc + mismatch
		p, err := stats.EstimateProportion(n-masked, n, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		return &campaign.Result{
			Counts: map[campaign.Class]int{
				campaign.ClassMasked: masked, campaign.ClassSDC: sdc,
				campaign.ClassMismatch: mismatch,
			},
			Outcomes:   make([]campaign.RunOutcome, n),
			Unsafeness: p,
		}
	}
	fig.Series[0].Results = map[string]*campaign.Result{
		"sha": mkRes(5, 3, 2), "qsort": mkRes(8, 1, 1),
	}
	fig.Series[1].Results = map[string]*campaign.Result{
		"sha": mkRes(6, 0, 4), "qsort": mkRes(10, 0, 0),
	}
	res := &core.ExperimentResult{Fig: fig}
	out := render(t, res, FormatTable)
	for _, want := range []string{
		"class breakdown", "masked", "mismatch", "sdc", "crash", "hang", "due", "unsafe",
		"0.500", // sha/GeFIN masked 5/10
		"0.300", // sha/GeFIN sdc 3/10
	} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown lacks %q:\n%s", want, out)
		}
	}
	csvOut := render(t, res, FormatCSV)
	if !strings.HasPrefix(csvOut, "benchmark,series,masked,mismatch,sdc,crash,hang,due,unsafe\n") {
		t.Errorf("breakdown CSV header: %q", csvOut)
	}
	if !strings.Contains(csvOut, "sha,GeFIN,0.50000,0.20000,0.30000,0.00000,0.00000,0.00000,0.50000") {
		t.Errorf("breakdown CSV rows: %q", csvOut)
	}
}

func TestProtectionRendering(t *testing.T) {
	res := &core.ExperimentResult{
		Fig: &core.FigureResult{Name: "protection"},
		Rows: []core.ProtectionRow{
			{
				Bench: "qsort", Level: "rtl", Model: "transient", Target: "rf", Scheme: "parity",
				DataBits: 1792, OverheadBits: 112, Runs: 100, Overhead: 6, DUE: 31,
				DUEFrac: 0.31, LogicRuns: 3, LogicDUE: 3, LogicDUERate: 1,
				UnsafeROI: -1.234, SDCROI: 0.567,
			},
			{
				Bench: "qsort", Level: "rtl", Model: "stuck-at", Target: "rf", Scheme: "parity",
				DataBits: 1792, OverheadBits: 112, Runs: 100, Overhead: 6, DUE: 40,
				DUEFrac: 0.40, LogicRuns: 3, LogicDUE: 0, LogicDUERate: 0,
			},
		},
	}
	out := render(t, res, FormatTable)
	for _, want := range []string{
		"protection ROI", "unsafe ROI/kb", "logic due", "parity", "stuck-at",
		"parity blind spot", "checker-logic DUE rate 1.000 transient -> 0.000 stuck-at",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Protection output lacks %q:\n%s", want, out)
		}
	}
	csvOut := render(t, res, FormatCSV)
	if !strings.HasPrefix(csvOut, "benchmark,level,model,target,scheme,") {
		t.Errorf("protection CSV header: %q", csvOut)
	}
	if !strings.Contains(csvOut, "qsort,rtl,transient,rf,parity,1792,112,100,6,31,") {
		t.Errorf("protection CSV rows: %q", csvOut)
	}
}

// TestTableSpecsMatchRegistry: every table spec is keyed by a
// registered figure name (cmd/paper's goldens hold what each renders).
func TestTableSpecsMatchRegistry(t *testing.T) {
	figures := map[string]bool{}
	for _, e := range core.Experiments() {
		figures[e.Figure] = true
	}
	for name := range tables {
		if !figures[name] {
			t.Errorf("table spec %q matches no registered experiment's figure name", name)
		}
	}
}

func TestTableIRendering(t *testing.T) {
	out := TableI()
	for _, want := range []string{"TABLE I", "56 registers", "32KB 4-way", "2/4/4"} {
		if !strings.Contains(out, want) {
			t.Errorf("TABLE I lacks %q", want)
		}
	}
}

func TestTableIIRendering(t *testing.T) {
	rows := []core.ThroughputRow{
		{Bench: "sha", RTLSecPerRun: 0.2, MASecPerRun: 0.01, Ratio: 20, RTLMCycles: 0.028, MAMCycles: 0.013},
	}
	out := TableII(rows, 20)
	for _, want := range []string{"TABLE II", "sha", "20.0", "average"} {
		if !strings.Contains(out, want) {
			t.Errorf("TABLE II lacks %q:\n%s", want, out)
		}
	}
}
