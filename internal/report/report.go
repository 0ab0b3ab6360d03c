// Package report renders campaign and experiment results as paper-style
// text tables, simple ASCII bar figures, CSV and JSON. Experiment is the
// one entry point for everything `paper -fig` regenerates; the
// per-experiment tables behind it are data (experiments.go).
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

// JSON renders one campaign result as indented JSON — the machine-
// readable form faultsim -json emits and the distributed coordinator's
// report endpoint serves. The full outcome list rides along, so
// downstream tooling can re-derive any aggregate.
func JSON(res *campaign.Result) (string, error) {
	return jsonValue(res)
}

// jsonValue renders any result value as indented JSON with a trailing
// newline — the shared implementation behind the -json flags.
func jsonValue(v any) (string, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("report: marshal json: %w", err)
	}
	return string(b) + "\n", nil
}

// Table renders a fixed-width text table.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

// CSV renders rows as RFC 4180 comma-separated values. Fields
// containing commas, quotes or newlines are quoted, so arbitrary labels
// (e.g. "window-2,000" or benchmark descriptions) round-trip through
// spreadsheet tools instead of silently splitting columns.
func CSV(headers []string, rows [][]string) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	// The writer only errors on I/O failure, which strings.Builder
	// cannot produce.
	_ = w.Write(headers)
	_ = w.WriteAll(rows)
	return sb.String()
}

// Figure renders a reproduced figure: one table row per benchmark with
// all series, plus ASCII bars and the cross-series difference summary.
func Figure(fig *core.FigureResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n\n", fig.Name)

	headers := append([]string{"benchmark"}, seriesLabels(fig)...)
	var rows [][]string
	for _, b := range fig.Benches {
		row := []string{b}
		for _, s := range fig.Series {
			p := s.Vuln[b]
			row = append(row, fmt.Sprintf("%.3f [%.3f,%.3f]", p.P, p.Lo, p.Hi))
		}
		rows = append(rows, row)
	}
	avg := []string{"average"}
	for _, s := range fig.Series {
		var sum float64
		for _, b := range fig.Benches {
			sum += s.Vuln[b].P
		}
		avg = append(avg, fmt.Sprintf("%.3f", sum/float64(len(fig.Benches))))
	}
	rows = append(rows, avg)
	sb.WriteString(Table(headers, rows))

	sb.WriteByte('\n')
	labelW := 16
	for _, s := range fig.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	for _, b := range fig.Benches {
		fmt.Fprintf(&sb, "%-14s\n", b)
		for _, s := range fig.Series {
			p := s.Vuln[b].P
			bar := strings.Repeat("#", int(p*50+0.5))
			fmt.Fprintf(&sb, "  %-*s %6.1f%% |%s\n", labelW, s.Label, p*100, bar)
		}
	}
	if len(fig.Series) >= 2 {
		fmt.Fprintf(&sb, "\n%s vs %s: mean |diff| = %.1f percentile units, mean relative diff = %.0f%%, max |diff| = %.1f pp\n",
			fig.Series[0].Label, fig.Series[1].Label,
			fig.Diff.MeanAbsDiff*100, fig.Diff.MeanRelDiff*100, fig.Diff.MaxAbsDiff*100)
	}
	return sb.String()
}

// figureCSV renders a figure's point estimates as CSV.
func figureCSV(fig *core.FigureResult) string {
	headers := append([]string{"benchmark"}, seriesLabels(fig)...)
	var rows [][]string
	for _, b := range fig.Benches {
		row := []string{b}
		for _, s := range fig.Series {
			row = append(row, fmt.Sprintf("%.5f", s.Vuln[b].P))
		}
		rows = append(rows, row)
	}
	return CSV(headers, rows)
}

// breakdownClasses is the class order of class-breakdown rows and of
// Campaign's classes line. DUE is last: it only occurs in derived
// protected arms, so unprotected breakdowns render a zero column, never
// a missing class.
var breakdownClasses = []campaign.Class{
	campaign.ClassMasked, campaign.ClassMismatch, campaign.ClassSDC,
	campaign.ClassCrash, campaign.ClassHang, campaign.ClassDUE,
}

func seriesLabels(fig *core.FigureResult) []string {
	labels := make([]string, len(fig.Series))
	for i, s := range fig.Series {
		labels[i] = s.Label
	}
	return labels
}

// TableI renders the configuration table.
func TableI() string {
	rows := make([][]string, 0, 8)
	for _, r := range core.TableI() {
		rows = append(rows, []string{r.Attribute, r.Value})
	}
	return "== TABLE I: microarchitectural configuration ==\n\n" +
		Table([]string{"Microarchitectural attribute", "Value"}, rows)
}

// TableII renders the throughput comparison.
func TableII(rows []core.ThroughputRow, avgRatio float64) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Bench,
			fmt.Sprintf("%.3f s/run", r.RTLSecPerRun),
			fmt.Sprintf("%.3f s/run", r.MASecPerRun),
			fmt.Sprintf("%.1f", r.Ratio),
			fmt.Sprintf("%.2f M", r.RTLMCycles),
			fmt.Sprintf("%.2f M", r.MAMCycles),
		})
	}
	out = append(out, []string{"average", "", "", fmt.Sprintf("%.1f", avgRatio), "", ""})
	return "== TABLE II: simulation throughput per golden run ==\n\n" +
		Table([]string{"Benchmark", "RTL", "GeFIN", "Ratio", "RTL cycles", "GeFIN cycles"}, out)
}

// Campaign renders one campaign result in detail.
func Campaign(name string, res *campaign.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "campaign %s\n", name)
	fmt.Fprintf(&sb, "  target=%v model=%v obs=%v window=%d injections=%d seed=%d\n",
		res.Config.Target, res.Config.Fault.Model, res.Config.Obs, res.Config.Window,
		res.Config.Injections, res.Config.Seed)
	fmt.Fprintf(&sb, "  golden: %d cycles, %d pinout txns (%.2fs)\n",
		res.GoldenCycles, res.GoldenTxns, res.GoldenElapsed.Seconds())
	fmt.Fprintf(&sb, "  classes:")
	for _, c := range breakdownClasses {
		if n := res.Counts[c]; n > 0 {
			fmt.Fprintf(&sb, " %v=%d", c, n)
		}
	}
	sb.WriteByte('\n')
	if res.Protect != "" {
		fmt.Fprintf(&sb, "  protection (%s): %d data + %d overhead bits, %d overhead faults modelled, %d detected-unrecoverable\n",
			res.Protect, res.ProtectDataBits, res.ProtectOverheadBits,
			res.OverheadRuns, res.Counts[campaign.ClassDUE])
	}
	u := res.Unsafeness
	fmt.Fprintf(&sb, "  unsafeness: %.4f  (%d/%d, %v%% CI [%.4f, %.4f])\n",
		u.P, u.Hits, u.N, int(u.Conf*100), u.Lo, u.Hi)
	if res.Config.EarlyStop || res.Config.TargetError > 0 {
		fmt.Fprintf(&sb, "  adaptive: %d converged, %d of %d runs saved, %.2f Mcycles simulated, %.2f Mcycles saved, achieved margin %.4f\n",
			res.ConvergedRuns, res.RunsSaved, res.Config.Injections,
			float64(res.CyclesSimulated)/1e6, float64(res.CyclesSaved)/1e6,
			res.AchievedMargin)
	}
	if res.BatchedRuns+res.PeeledRuns > 0 {
		fmt.Fprintf(&sb, "  bit-parallel: %d retired in lockstep, %d peeled to scalar, %.1f mean lane occupancy\n",
			res.BatchedRuns, res.PeeledRuns, res.LaneOccupancy)
	}
	if res.Config.Prune != campaign.PruneOff {
		fmt.Fprintf(&sb, "  pruning (%v): %d dead-pruned, %d extrapolated over %d classes, %.2f Mcycles saved, %.2f Mcycles simulated\n",
			res.Config.Prune, res.PrunedRuns, res.ExtrapolatedRuns, res.PruneClassCount,
			float64(res.PruneSavedCycles)/1e6, float64(res.CyclesSimulated)/1e6)
	}
	if res.AVF != nil {
		e := res.AVF.Estimate
		fmt.Fprintf(&sb, "  avf: %.4f structure-wide (%.4f weighted), plan %d/%d ACE -> %.4f predicted",
			e.AVF, e.AVFWeighted, res.AVF.PlanLive, res.AVF.PlanN, res.AVF.Predicted)
		if res.AVF.PriorMass > 0 {
			fmt.Fprintf(&sb, ", prior mass %.0f", res.AVF.PriorMass)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  campaign wall: %.2fs (%.4f s/injection)\n",
		res.Elapsed.Seconds(), res.AvgSecPerRun)
	return sb.String()
}
