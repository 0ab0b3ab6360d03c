package report

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
)

// Format selects how Experiment renders a result.
type Format int

const (
	FormatTable Format = iota // human tables and ASCII bars
	FormatCSV                 // the experiment's table for plotting pipelines
	FormatJSON                // everything, machine-readable
)

// Experiment renders one experiment result. An experiment whose
// deliverable is a table (a spec in tables, keyed by figure name) emits
// that table — in CSV form instead of the unsafeness-only figure matrix —
// and every other experiment emits its figure. JSON carries the figure
// and, when the experiment folds any, the rows.
func Experiment(res *core.ExperimentResult, format Format) (string, error) {
	if format == FormatJSON {
		if res.Rows == nil {
			return jsonValue(res.Fig)
		}
		return jsonValue(res)
	}
	t, ok := tables[res.Fig.Name]
	switch {
	case ok:
		return t.render(res, format == FormatCSV), nil
	case format == FormatCSV:
		return figureCSV(res.Fig), nil
	default:
		return Figure(res.Fig), nil
	}
}

// verbs are one column's fmt verbs in the human table and in the CSV.
type verbs struct{ human, csv string }

var (
	plain = verbs{"%v", "%v"}       // names, counts, verdicts
	frac3 = verbs{"%.3f", "%.5f"}   // proportions
	frac4 = verbs{"%.4f", "%.4f"}   // margins and drifts
	mcyc  = verbs{"%.2f", "%.4f"}   // simulated cycles in millions
	wall  = verbs{"%.2fs", "%.4f"}  // attributed wall time in seconds
	saved = verbs{"%.1f%%", "%.4f"} // a pct
)

// pct is a fraction the human table shows as a percentage while the CSV
// keeps it raw, so plotting pipelines parse every numeric column
// directly.
type pct float64

// column is one table column: its header, verbs and cell value.
type column[R any] struct {
	header string
	verbs
	value func(R) any
}

// table is one experiment's table spec over rows of type R.
type table[R any] struct {
	// heading is the human form's title line, a format over the figure
	// name; withFigure leads the human form with the bar figure.
	heading    string
	withFigure bool
	rows       func(*core.ExperimentResult) []R
	columns    []column[R]
	footer     func([]R) string // optional human-form summary
}

// renderer is a table spec with its row type erased.
type renderer interface {
	render(res *core.ExperimentResult, csv bool) string
}

func (t table[R]) render(res *core.ExperimentResult, csv bool) string {
	headers := make([]string, len(t.columns))
	for i, c := range t.columns {
		headers[i] = c.header
	}
	rows := t.rows(res)
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = make([]string, len(t.columns))
		for j, c := range t.columns {
			v, verb := c.value(r), c.human
			if csv {
				verb = c.csv
			} else if p, ok := v.(pct); ok {
				v = float64(p) * 100
			}
			cells[i][j] = fmt.Sprintf(verb, v)
		}
	}
	if csv {
		return CSV(headers, cells)
	}
	var sb strings.Builder
	if t.withFigure {
		sb.WriteString(Figure(res.Fig))
	}
	fmt.Fprintf(&sb, t.heading, res.Fig.Name)
	sb.WriteString("\n\n" + Table(headers, cells))
	if t.footer != nil {
		sb.WriteString(t.footer(rows))
	}
	return sb.String()
}

// folded returns the rows core's fold attached to the result.
func folded[R any](res *core.ExperimentResult) []R {
	return res.Rows.([]R)
}

// tables holds the table spec of every experiment whose deliverable is
// more than its figure, keyed by core.Experiment.Figure.
var tables = map[string]renderer{
	"ablation-fault-models": classBreakdownTable(),
	"ablation-early-stop":   earlyStopTable(),
	"ablation-pruning":      pruningTable(),
	"avf":                   avfTable(),
	"protection":            protectionTable(),
}

// breakdownRow is one (benchmark, series) campaign of a figure.
type breakdownRow struct {
	bench, series string
	res           *campaign.Result
}

// classBreakdownTable is the per-class outcome fractions of every
// (benchmark, series) campaign of a figure — the view the fault-model
// ablation (E9) uses to compare how transients, bursts, stuck-ats and
// intermittents split between Masked, Mismatch and SDC. It is derived
// from the figure itself, so E9's JSON stays the bare figure.
func classBreakdownTable() renderer {
	type R = breakdownRow
	cols := []column[R]{
		{"benchmark", plain, func(r R) any { return r.bench }},
		{"series", plain, func(r R) any { return r.series }},
	}
	for _, c := range breakdownClasses {
		cols = append(cols, column[R]{c.String(), frac3, func(r R) any {
			return float64(r.res.Counts[c]) / float64(len(r.res.Outcomes))
		}})
	}
	cols = append(cols, column[R]{"unsafe", frac3, func(r R) any { return r.res.Unsafeness.P }})
	return table[R]{
		heading: "== %s: class breakdown ==", withFigure: true, columns: cols,
		rows: func(res *core.ExperimentResult) (rows []R) {
			for _, b := range res.Fig.Benches {
				for _, s := range res.Fig.Series {
					if r := s.Results[b]; r != nil {
						rows = append(rows, R{b, s.Label, r})
					}
				}
			}
			return rows
		},
	}
}

// earlyStopTable is E10's per-benchmark runs/cycles-saved and
// estimate-drift table under the fixed-vs-adaptive unsafeness figure.
func earlyStopTable() renderer {
	type R = core.EarlyStopRow
	return table[R]{
		heading: "\n== %s: savings ==", withFigure: true, rows: folded[R],
		columns: []column[R]{
			{"benchmark", plain, func(r R) any { return r.Bench }},
			{"runs fixed", plain, func(r R) any { return r.FixedRuns }},
			{"runs adaptive", plain, func(r R) any { return r.AdaptiveRuns }},
			{"converged", plain, func(r R) any { return r.Converged }},
			{"Mcycles fixed", mcyc, func(r R) any { return r.FixedMCycles }},
			{"Mcycles adaptive", mcyc, func(r R) any { return r.AdaptiveMCycles }},
			{"cycles saved", saved, func(r R) any { return pct(r.SavedFrac) }},
			{"margin", frac4, func(r R) any { return r.Margin }},
			{"drift", frac4, func(r R) any { return r.Drift }},
		},
	}
}

// pruningTable is E11's savings table under the full-vs-dead-vs-classes
// unsafeness figure: simulated cycles and wall time under the three
// engines, pruning volumes and estimate drift per (level, benchmark).
func pruningTable() renderer {
	type R = core.PruningRow
	return table[R]{
		heading: "\n== %s: savings ==", withFigure: true, rows: folded[R],
		columns: []column[R]{
			{"benchmark", plain, func(r R) any { return r.Bench }},
			{"level", plain, func(r R) any { return r.Level }},
			{"Mcycles full", mcyc, func(r R) any { return r.FullMCycles }},
			{"Mcycles dead", mcyc, func(r R) any { return r.DeadMCycles }},
			{"Mcycles classes", mcyc, func(r R) any { return r.ClassesMCycles }},
			{"wall full", wall, func(r R) any { return r.FullWall }},
			{"wall dead", wall, func(r R) any { return r.DeadWall }},
			{"wall classes", wall, func(r R) any { return r.ClassesWall }},
			{"pruned", plain, func(r R) any { return r.Pruned }},
			{"classes", plain, func(r R) any { return r.Classes }},
			{"extrapolated", plain, func(r R) any { return r.Extrapolated }},
			{"drift dead", frac4, func(r R) any { return r.DriftDead }},
			{"drift classes", frac4, func(r R) any { return r.DriftClasses }},
		},
	}
}

// avfTable is E12's AVF-vs-FI table under the FI unsafeness figure: the
// injection-free estimates (structure-wide, planner-weighted,
// plan-sample with its interval) against the measured unsafeness, the
// logical-masking gap, and the two differential verdicts.
func avfTable() renderer {
	type R = core.AVFRow
	return table[R]{
		heading: "\n== %s: injection-free estimate vs fault injection ==", withFigure: true, rows: folded[R],
		columns: []column[R]{
			{"benchmark", plain, func(r R) any { return r.Bench }},
			{"level", plain, func(r R) any { return r.Level }},
			{"target", plain, func(r R) any { return r.Target }},
			{"AVF", frac3, func(r R) any { return r.AVF }},
			{"AVF weighted", frac3, func(r R) any { return r.AVFWeighted }},
			{"predicted", frac3, func(r R) any { return r.Predicted.P }},
			{"pred lo", frac3, func(r R) any { return r.Predicted.Lo }},
			{"pred hi", frac3, func(r R) any { return r.Predicted.Hi }},
			{"FI unsafe", frac3, func(r R) any { return r.FIUnsafe.P }},
			{"FI lo", frac3, func(r R) any { return r.FIUnsafe.Lo }},
			{"FI hi", frac3, func(r R) any { return r.FIUnsafe.Hi }},
			{"gap", frac3, func(r R) any { return r.Gap }},
			{"within", plain, func(r R) any { return r.Within }},
			{"bounded", plain, func(r R) any { return r.Bounded }},
		},
	}
}

// protectionTable is E13's ROI table: per (benchmark, level, fault
// model, structure, scheme) the protected class split against the
// unprotected baseline and the two per-kilobit ROI views, plus the
// parity blind-spot summary. The raw figure (one series per matrix
// cell) is deliberately not bar-charted — at 2 levels x 4 fault models
// x 2-3 structures x 4 arms it reads better as rows.
func protectionTable() renderer {
	type R = core.ProtectionRow
	return table[R]{
		heading: "== %s: protection ROI ==", rows: folded[R], footer: protectionBlindSpot,
		columns: []column[R]{
			{"benchmark", plain, func(r R) any { return r.Bench }},
			{"level", plain, func(r R) any { return r.Level }},
			{"model", plain, func(r R) any { return r.Model }},
			{"target", plain, func(r R) any { return r.Target }},
			{"scheme", plain, func(r R) any { return r.Scheme }},
			{"data bits", plain, func(r R) any { return r.DataBits }},
			{"ovh bits", plain, func(r R) any { return r.OverheadBits }},
			{"runs", plain, func(r R) any { return r.Runs }},
			{"ovh runs", plain, func(r R) any { return r.Overhead }},
			{"due", plain, func(r R) any { return r.DUE }},
			{"base unsafe", frac3, func(r R) any { return r.BaseUnsafe.P }},
			{"unsafe", frac3, func(r R) any { return r.Unsafe.P }},
			{"base sdc", frac3, func(r R) any { return r.BaseSDCFrac }},
			{"sdc", frac3, func(r R) any { return r.SDCFrac }},
			{"due frac", frac3, func(r R) any { return r.DUEFrac }},
			{"logic due", frac3, func(r R) any { return r.LogicDUERate }},
			{"unsafe ROI/kb", frac3, func(r R) any { return r.UnsafeROI }},
			{"sdc ROI/kb", frac3, func(r R) any { return r.SDCROI }},
		},
	}
}

// protectionBlindSpot extracts E13's headline observation: parity's
// checker-logic DUE rate under transient faults next to the same cell
// under stuck-at faults, where a persistent asserted-0 checker path
// disarms detection (1.0 collapses to 0.0). The campaign-wide DUE
// fraction cannot show this — persistent data faults keep being
// detected and drown the checker path — so the summary reads the
// logic-region rate the ROI table carries per row.
func protectionBlindSpot(rows []core.ProtectionRow) string {
	type cell struct{ bench, level, target string }
	transient := make(map[cell]float64)
	stuck := make(map[cell]bool)
	stuckVal := make(map[cell]float64)
	var order []cell
	for _, r := range rows {
		if r.Scheme != "parity" || r.LogicRuns == 0 {
			continue
		}
		c := cell{r.Bench, r.Level, r.Target}
		switch r.Model {
		case "transient":
			if _, ok := transient[c]; !ok {
				order = append(order, c)
			}
			transient[c] = r.LogicDUERate
		case "stuck-at":
			stuck[c] = true
			stuckVal[c] = r.LogicDUERate
		}
	}
	var sb strings.Builder
	for _, c := range order {
		if !stuck[c] {
			continue
		}
		fmt.Fprintf(&sb, "  %s/%s/%s: checker-logic DUE rate %.3f transient -> %.3f stuck-at\n",
			c.level, c.target, c.bench, transient[c], stuckVal[c])
	}
	if sb.Len() == 0 {
		return ""
	}
	return "\nparity blind spot (persistent stuck-at-0 disarms the checker):\n" + sb.String()
}
