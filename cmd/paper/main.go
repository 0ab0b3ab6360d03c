// Command paper regenerates every table and figure of the paper's
// evaluation section:
//
//	paper -table 1                 TABLE I (configuration)
//	paper -table 2                 TABLE II (throughput + ratio)
//	paper -table sample            §IV sample-size formulation
//	paper -fig 1                   Fig. 1 (register file, pinout OP)
//	paper -fig 2                   Fig. 2 (L1D, pinout OP)
//	paper -fig 3                   Fig. 3 (L1D AVF, software OP)
//	paper -fig ablation-window     window-length sweep (E8)
//	paper -fig ablation-latches    RTL-only latch injection (E7)
//	paper -fig ablation-models     fault-model ablation (E9)
//	paper -fig early-stop          adaptive-engine ablation (E10)
//	paper -fig pruning             golden-trace pruning ablation (E11)
//	paper -fig avf                 injection-free ACE/AVF estimation (E12)
//	paper -fig protection          protection-scheme ROI (E13)
//	paper -all                     everything above but E9-E13, as ONE sweep
//
// The -fig names are the entries of core.Experiments(): paper looks the
// value up there, runs the descriptor and renders the result through
// report.Experiment, so an unknown -fig (or -table) value is an error
// naming the registered ones, and -csv with -json is rejected.
//
// -fault-model selects the fault model every figure's campaigns inject
// (transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent)
// and -burst the burst width; the E9 ablation sweeps all four models
// itself and renders the Masked/Mismatch/SDC class breakdown on both
// abstraction levels.
//
// -early-stop and -target-error switch every figure's campaigns onto
// the adaptive engine: -early-stop ends each replay at the cycle its
// corrupted state reconverges with the golden run (identical classes,
// fewer cycles), -target-error E stops issuing injections once every
// class proportion is within E at the campaign confidence. The E10
// ablation (`-fig early-stop`) runs fixed-vs-adaptive side by side and
// reports runs/cycles saved against estimate drift.
//
// -prune switches every figure's campaigns onto golden-trace fault
// pruning: `-prune dead` classifies transients whose corrupted bits
// are overwritten before any read as Masked with zero replay cycles
// (exact), `-prune classes` additionally replays one representative
// per first-consumer equivalence class and extrapolates MeRLiN-style
// (approximate; intervals widen to the effective sample size). The E11
// ablation (`-fig pruning`) runs full-vs-dead-vs-classes side by side
// on both levels and reports cycles, wall time and drift. E10, E12 and
// E13 replay the full plan whatever -prune says: each registry entry
// declares the flags it owns, and EXPERIMENTS.md's index lists them.
//
// The E12 experiment (`-fig avf`) sweeps the same golden lifetime trace
// into an injection-free ACE/AVF estimate per tracked structure and
// cross-checks it against the fault-injection campaigns it rides on, on
// both abstraction levels: the exhaustive weighted AVF must land inside
// the plan-sample Wilson interval, the measured unsafe fraction never
// exceeds the ACE prediction, and the per-level logical-masking gap is
// the reported cross-level observable — all with zero extra replays.
//
// The E13 experiment (`-fig protection`) wraps the register file, L1D
// and (RTL-only) pipeline latches in parity, SECDED and
// duplication-with-compare under all four fault models on both levels:
// it replays each unprotected twin, derives every protected arm from
// the twin's outcomes (protect.Derive, no replay), and folds the class
// splits into an ROI table: unsafeness and
// silent-corruption reduction per kilobit of overhead, with the
// checker-logic DUE rate as the blind-spot observable — it collapses
// from 1 to 0 between the transient and stuck-at rows because an
// asserted-0 checker path disarms the comparator instead of tripping
// it.
//
// -cpuprofile and -memprofile write pprof profiles of the regeneration
// so hot-path work is measurable without ad-hoc patching. -metrics ADDR
// serves live Prometheus metrics and /debug/pprof over HTTP while the
// regeneration runs; -metrics-dump prints the final values to stderr at
// exit. Metrics are inert — regenerated figures are byte-identical with
// observability on or off.
//
// -remote URL runs every campaign on a faultsimd worker fleet through
// the coordinator at URL instead of simulating locally; the shard
// merge's determinism contract makes the regenerated figures
// byte-identical either way. The coordinator keeps the checkpoints of a
// fleet's campaigns, so -remote with -checkpoint is rejected up front.
// -json emits figures as machine-readable
// JSON, and SIGINT/SIGTERM drains in-flight replays and flushes
// checkpoint shards before exiting, so `-checkpoint` resumes cleanly.
//
// -all plans every campaign up front and schedules them as a single
// sweep: at most one golden run per (model, benchmark), shared across
// figures; TABLE II reuses the measured golden elapsed times. Use
// -injections 4000 for the paper's full Leveugle sample (slow); the
// default keeps a complete regeneration laptop-scale. -checkpoint DIR
// streams per-run outcomes to JSONL shards so an interrupted
// regeneration resumes instead of restarting.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	err := run(os.Args[1:], os.Stdout, cli.StopOnSignal("paper"))
	switch {
	case errors.Is(err, campaign.ErrInterrupted):
		fmt.Fprintln(os.Stderr, "paper: interrupted; checkpoints flushed, re-run to resume")
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// run regenerates what args select onto w; stop, when closed, drains
// in-flight replays and flushes checkpoint shards (the first
// SIGINT/SIGTERM in main). It is parse, one regenerate and one render.
func run(args []string, w io.Writer, stop <-chan struct{}) error {
	sel, stopProcess, err := parse(args, stop)
	if sel == nil || err != nil {
		return err
	}
	defer stopProcess()
	res, err := sel.regenerate()
	if err != nil {
		return err
	}
	return sel.render(w, res)
}

// selection is what one invocation regenerates, and in which format.
type selection struct {
	table, figure string
	all           bool
	format        report.Format
	params        core.Params
}

// parse reads args into a selection, rejecting a bad one before anything
// is simulated or printed, and starts the profiles and metrics the flags
// ask for; the caller defers the returned stop. A nil selection with a
// nil error means -version was printed.
func parse(args []string, stop <-chan struct{}) (sel *selection, stopProcess func(), err error) {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	var (
		table      = fs.String("table", "", "regenerate a table: 1, 2 or sample")
		figure     = fs.String("fig", "", "regenerate a figure: "+strings.Join(core.ExperimentNames(), ", "))
		all        = fs.Bool("all", false, "regenerate every table and figure as one sweep")
		injections = fs.Int("injections", 0, "statistical sample size per campaign (default 400; paper: 4000)")
		seed       = fs.Int64("seed", 1, "campaign RNG seed")
		window     = fs.Int64("window", -1, "pinout observation window in cycles; 0 = run to program end (default 500, the scaled 20k)")
		faultFlags = cli.FaultFlags(fs, " injected by figures", "")
		workers    = fs.Int("workers", 0, "parallel sweep workers (default GOMAXPROCS)")
		benches    = fs.String("benches", "", "comma-separated benchmark subset")
		checkpoint = fs.String("checkpoint", "", "stream per-run outcomes to JSONL shards in this directory and resume from them")
		earlyStop  = fs.Bool("early-stop", false, "adaptive engine: end a replay the moment its state reconverges with golden (classes unchanged, cycles saved)")
		targetErr  = fs.Float64("target-error", 0, "adaptive engine: stop issuing injections once every class proportion is within this margin at the campaign confidence (0 = run the full plan)")
		prune      = fs.String("prune", "off", "golden-trace fault pruning: off, dead (exact, zero-replay Masked), classes (MeRLiN-style extrapolation)")
		lanes      = fs.Int("lanes", 64, "bit-parallel lockstep replay width, 1-64 (1 = scalar engine; byte-identical results at any width)")
		process    = cli.ProcessFlags(fs, "paper", "regeneration")
		csv        = fs.Bool("csv", false, "emit figures as CSV instead of tables")
		jsonOut    = fs.Bool("json", false, "emit figures as machine-readable JSON instead of tables")
		remote     = fs.String("remote", "", "run every campaign on a faultsimd fleet via this coordinator base URL (checkpointing then lives coordinator-side; not with -checkpoint)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *remote != "" && *checkpoint != "" {
		return nil, nil, errors.New("-checkpoint is local only: with -remote, checkpoints live on the coordinator (faultsimd -role coordinator -checkpoint DIR)")
	}
	halt, exit, err := process()
	if exit || err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			halt()
		}
	}()

	sel = &selection{table: *table, figure: *figure, all: *all, params: core.DefaultParams()}
	switch {
	case *csv && *jsonOut:
		return nil, nil, errors.New("-csv and -json are mutually exclusive")
	case *csv:
		sel.format = report.FormatCSV
	case *jsonOut:
		sel.format = report.FormatJSON
	}
	params := &sel.params
	if *injections > 0 {
		params.Injections = *injections
	}
	if *window >= 0 {
		params.Window = uint64(*window)
	}
	if params.Fault, err = faultFlags(); err != nil {
		return nil, nil, err
	}
	if params.Prune, err = campaign.ParsePruneMode(*prune); err != nil {
		return nil, nil, err
	}
	params.Seed, params.Workers, params.Checkpoint, params.Lanes = *seed, *workers, *checkpoint, *lanes
	params.EarlyStop, params.TargetError, params.Stop = *earlyStop, *targetErr, stop
	if *benches != "" {
		params.Benches = strings.Split(*benches, ",")
	}
	if *remote != "" {
		params.Runner = distrib.NewClient(*remote).SweepRunner()
	}

	if sel.all {
		return sel, halt, nil
	}
	if *table == "" && *figure == "" {
		fs.Usage()
		return nil, nil, errors.New("nothing selected: pass -table, -fig or -all")
	}
	if *figure != "" {
		if _, err = core.LookupExperiment(*figure); err != nil {
			return nil, nil, err
		}
	}
	if *table != "" && !slices.Contains(core.PaperTables, *table) {
		return nil, nil, fmt.Errorf("unknown table %q (have: %s)", *table, strings.Join(core.PaperTables, ", "))
	}
	return sel, halt, nil
}

// regenerate runs the campaigns the selection needs, once: -all as one
// sweep (goldens shared across figures and TABLE II, replays through
// one global pool), -table 2's golden runs, and -fig's experiment as
// the only entry of Figures.
func (s *selection) regenerate() (res *core.AllResults, err error) {
	if s.all {
		return s.params.RunAll()
	}
	res = &core.AllResults{}
	if s.table == "2" {
		res.Table2Rows, res.Table2AvgRatio, err = s.params.Table2()
	}
	if s.figure != "" && err == nil {
		res.Figures = make([]*core.ExperimentResult, 1)
		res.Figures[0], err = s.params.Run(s.figure)
	}
	return res, err
}

// render prints regenerated results onto w in the selection's format.
func (s *selection) render(w io.Writer, res *core.AllResults) error {
	if s.all || s.table == "1" {
		fmt.Fprintln(w, report.TableI())
	}
	if s.all || s.table == "sample" {
		n, err := stats.LeveugleSampleSize(0, 0.02, 0.99)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Statistical sample (Leveugle et al.) ==\n\n")
		fmt.Fprintf(w, "error margin 2%%, confidence 99%%  ->  n = %d (paper rounds to 4000)\n", n)
		fmt.Fprintf(w, "this run uses n = %d per campaign\n\n", s.params.Injections)
	}
	if s.all || s.table == "2" {
		fmt.Fprintln(w, report.TableII(res.Table2Rows, res.Table2AvgRatio))
	}
	for _, fig := range res.Figures {
		out, err := report.Experiment(fig, s.format)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if s.all {
		fmt.Fprintf(w, "\nsweep: %d golden runs, %d replays resumed from checkpoint, wall %.1fs\n",
			res.GoldenRuns, res.Resumed, res.Elapsed.Seconds())
	}
	return nil
}
