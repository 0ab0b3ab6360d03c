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
// on both levels and reports cycles, wall time and drift.
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
// duplication-with-compare, runs each protected campaign against its
// unprotected twin under all four fault models on both levels, and
// folds the class splits into an ROI table: unsafeness and
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
// byte-identical either way. -json emits figures as machine-readable
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
	"strings"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/stats"
)

// ablationWindows is the window-length sweep regenerated by
// -fig ablation-window and -all (0 = run-to-end).
var ablationWindows = []uint64{100, 500, 2_000, 20_000, 0}

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
// SIGINT/SIGTERM in main).
func run(args []string, w io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	var (
		table      = fs.String("table", "", "regenerate a table: 1, 2 or sample")
		figure     = fs.String("fig", "", "regenerate a figure: 1, 2, 3, ablation-window, ablation-latches, ablation-models, early-stop, pruning, avf, protection")
		all        = fs.Bool("all", false, "regenerate every table and figure as one sweep")
		injections = fs.Int("injections", 0, "statistical sample size per campaign (default 400; paper: 4000)")
		seed       = fs.Int64("seed", 1, "campaign RNG seed")
		window     = fs.Int64("window", -1, "pinout observation window in cycles; 0 = run to program end (default 500, the scaled 20k)")
		faultModel = fs.String("fault-model", "transient", "fault model injected by figures: transient, burst, stuck-at, stuck-at-0, stuck-at-1, intermittent")
		burst      = fs.Int("burst", 0, "adjacent bits per burst injection (default 2)")
		span       = fs.Uint64("span", 0, "intermittent active window in cycles (default goldenCycles/16)")
		workers    = fs.Int("workers", 0, "parallel sweep workers (default GOMAXPROCS)")
		benches    = fs.String("benches", "", "comma-separated benchmark subset")
		checkpoint = fs.String("checkpoint", "", "stream per-run outcomes to JSONL shards in this directory and resume from them")
		earlyStop  = fs.Bool("early-stop", false, "adaptive engine: end a replay the moment its state reconverges with golden (classes unchanged, cycles saved)")
		targetErr  = fs.Float64("target-error", 0, "adaptive engine: stop issuing injections once every class proportion is within this margin at the campaign confidence (0 = run the full plan)")
		prune      = fs.String("prune", "off", "golden-trace fault pruning: off, dead (exact, zero-replay Masked), classes (MeRLiN-style extrapolation)")
		lanes      = fs.Int("lanes", 64, "bit-parallel lockstep replay width, 1-64 (1 = scalar engine; byte-identical results at any width)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this file")
		metricsAt  = fs.String("metrics", "", "serve /metrics (Prometheus text) and /debug/pprof on this address while the regeneration runs")
		metricsOut = fs.Bool("metrics-dump", false, "dump the final metric values to stderr at exit (Prometheus text)")
		csv        = fs.Bool("csv", false, "emit figures as CSV instead of tables")
		jsonOut    = fs.Bool("json", false, "emit figures as machine-readable JSON instead of tables")
		remote     = fs.String("remote", "", "run every campaign on a faultsimd fleet via this coordinator base URL (checkpointing then lives coordinator-side; -checkpoint is ignored)")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cli.PrintVersion("paper")
		return nil
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "paper: profile:", perr)
		}
	}()
	stopMetrics, err := cli.MetricsFlags{Addr: *metricsAt, Dump: *metricsOut}.Start("paper")
	if err != nil {
		return err
	}
	defer stopMetrics()

	params := core.DefaultParams()
	if *injections > 0 {
		params.Injections = *injections
	}
	params.Seed = *seed
	if *window >= 0 {
		params.Window = uint64(*window)
	}
	fp, err := fault.ParseParams(*faultModel)
	if err != nil {
		return err
	}
	fp.Burst = *burst
	fp.Span = *span
	params.Fault = fp
	params.Workers = *workers
	params.Checkpoint = *checkpoint
	params.EarlyStop = *earlyStop
	params.TargetError = *targetErr
	if params.Prune, err = campaign.ParsePruneMode(*prune); err != nil {
		return err
	}
	params.Lanes = *lanes
	if *benches != "" {
		params.Benches = strings.Split(*benches, ",")
	}
	params.Stop = stop
	if *remote != "" {
		params.Runner = distrib.NewClient(*remote).SweepRunner()
	}

	emitFig := func(fig *core.FigureResult, err error) error {
		if err != nil {
			return err
		}
		switch {
		case *jsonOut:
			s, err := report.FigureJSON(fig)
			if err != nil {
				return err
			}
			fmt.Fprint(w, s)
		case *csv:
			fmt.Fprint(w, report.FigureCSV(fig))
		default:
			fmt.Fprint(w, report.Figure(fig))
		}
		return nil
	}

	emitSample := func() error {
		n, err := stats.LeveugleSampleSize(0, 0.02, 0.99)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== Statistical sample (Leveugle et al.) ==\n\n")
		fmt.Fprintf(w, "error margin 2%%, confidence 99%%  ->  n = %d (paper rounds to 4000)\n", n)
		fmt.Fprintf(w, "this run uses n = %d per campaign\n\n", params.Injections)
		return nil
	}

	if *all {
		// One sweep for everything: goldens shared across figures and
		// TABLE II, replays through one global pool.
		fmt.Fprintln(w, report.TableI(core.DefaultSetup()))
		if err := emitSample(); err != nil {
			return err
		}
		res, err := params.RunAll(ablationWindows)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.TableII(res.Table2Rows, res.Table2AvgRatio))
		for _, fig := range []*core.FigureResult{
			res.Fig1, res.Fig2, res.Fig3, res.AblationWindow, res.AblationLatches,
		} {
			if err := emitFig(fig, nil); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "\nsweep: %d golden runs, %d replays resumed from checkpoint, wall %.1fs\n",
			res.GoldenRuns, res.Resumed, res.Elapsed.Seconds())
		return nil
	}

	did := false
	wantTable := func(name string) bool { return *table == name }
	wantFig := func(name string) bool { return *figure == name }

	if wantTable("1") {
		did = true
		fmt.Fprintln(w, report.TableI(core.DefaultSetup()))
	}
	if wantTable("sample") {
		did = true
		if err := emitSample(); err != nil {
			return err
		}
	}
	if wantTable("2") {
		did = true
		rows, avg, err := params.Table2()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, report.TableII(rows, avg))
	}
	if wantFig("1") {
		did = true
		if err := emitFig(params.Figure1()); err != nil {
			return err
		}
	}
	if wantFig("2") {
		did = true
		if err := emitFig(params.Figure2()); err != nil {
			return err
		}
	}
	if wantFig("3") {
		did = true
		if err := emitFig(params.Figure3()); err != nil {
			return err
		}
	}
	if wantFig("ablation-window") {
		did = true
		if err := emitFig(params.AblationWindow(ablationWindows)); err != nil {
			return err
		}
	}
	if wantFig("ablation-latches") {
		did = true
		if err := emitFig(params.AblationLatches()); err != nil {
			return err
		}
	}
	if wantFig("ablation-models") {
		did = true
		fig, err := params.AblationModels()
		if err != nil {
			return err
		}
		// E9's deliverable is the class breakdown, so -csv emits it
		// (including the per-series unsafeness column) rather than the
		// unsafeness-only figure matrix; -json carries everything.
		switch {
		case *jsonOut:
			if err := emitFig(fig, nil); err != nil {
				return err
			}
		case *csv:
			fmt.Fprint(w, report.ClassBreakdownCSV(fig))
		default:
			if err := emitFig(fig, nil); err != nil {
				return err
			}
			fmt.Fprint(w, report.ClassBreakdown(fig))
		}
	}
	if wantFig("early-stop") {
		did = true
		res, err := params.AblationEarlyStop()
		if err != nil {
			return err
		}
		// E10's deliverable is the savings table (runs/cycles saved vs
		// estimate drift); -csv emits it for plotting pipelines.
		switch {
		case *jsonOut:
			s, err := report.JSONValue(res)
			if err != nil {
				return err
			}
			fmt.Fprint(w, s)
		case *csv:
			fmt.Fprint(w, report.EarlyStopCSV(res))
		default:
			fmt.Fprint(w, report.EarlyStop(res))
		}
	}
	if wantFig("pruning") {
		did = true
		res, err := params.AblationPruning()
		if err != nil {
			return err
		}
		// E11's deliverable is the full-vs-dead-vs-classes savings
		// table (cycles, wall time, drift on both levels).
		switch {
		case *jsonOut:
			s, err := report.JSONValue(res)
			if err != nil {
				return err
			}
			fmt.Fprint(w, s)
		case *csv:
			fmt.Fprint(w, report.PruningCSV(res))
		default:
			fmt.Fprint(w, report.Pruning(res))
		}
	}
	if wantFig("avf") {
		did = true
		res, err := params.ExperimentAVF()
		if err != nil {
			return err
		}
		// E12's deliverable is the AVF-vs-FI table (estimates, intervals,
		// masking gap and differential verdicts on both levels).
		switch {
		case *jsonOut:
			s, err := report.JSONValue(res)
			if err != nil {
				return err
			}
			fmt.Fprint(w, s)
		case *csv:
			fmt.Fprint(w, report.AvfCSV(res))
		default:
			fmt.Fprint(w, report.Avf(res))
		}
	}
	if wantFig("protection") {
		did = true
		res, err := params.ExperimentProtection()
		if err != nil {
			return err
		}
		// E13's deliverable is the protection-ROI table (class splits,
		// per-kilobit ROI, and the parity-vs-stuck-at blind spot).
		switch {
		case *jsonOut:
			s, err := report.JSONValue(res)
			if err != nil {
				return err
			}
			fmt.Fprint(w, s)
		case *csv:
			fmt.Fprint(w, report.ProtectionCSV(res))
		default:
			fmt.Fprint(w, report.Protection(res))
		}
	}
	if !did {
		fs.Usage()
		return fmt.Errorf("nothing selected: pass -table, -fig or -all")
	}
	return nil
}
