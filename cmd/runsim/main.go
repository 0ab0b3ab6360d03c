// Command runsim runs a built-in workload (or an assembled .s file) on a
// chosen simulation model and reports execution statistics:
//
//	runsim -list
//	runsim -bench sha -model rtl
//	runsim -file prog.s -model microarch -v
//
// -golden runs the campaign engine's golden-artifact phase instead of a
// bare simulation, reporting what one shared golden run of a sweep
// costs and captures (snapshots, pinout transactions, output bytes).
//
// -inject N probes the workload with a tiny N-injection campaign and
// prints each planned fault, its golden-trace lifetime verdict (dead:
// the corrupted bits are overwritten before any read, so the fault is
// provably Masked without replay; live: the cycle the corruption is
// first consumed), its independent ACE verdict from the AVF interval
// scan (printed as `ace:` — the two injection-less columns must agree,
// which the differential tests pin), its replayed classification and
// its convergence cycle — the instant the corrupted state reconverged
// with the golden run ("never" if it stayed divergent) — making masking
// behavior inspectable from the CLI. -fault-model and -burst select the
// injected fault model:
//
//	runsim -bench qsort -model rtl -inject 5 -fault-model stuck-at-1
//	runsim -bench sha -inject 3 -fault-model burst -burst 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lanestore"
	"repro/internal/refsim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "runsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("runsim", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "", "built-in workload name")
		file      = fs.String("file", "", "assemble and run this AL32 source file")
		model     = fs.String("model", "microarch", "model: microarch, rtl or ref")
		list      = fs.Bool("list", false, "list built-in workloads")
		maxCycles = fs.Uint64("max-cycles", 1<<32, "cycle budget")
		paperCfg  = fs.Bool("tableI", false, "use TABLE I caches (32KB) instead of the campaign scaling")
		golden    = fs.Bool("golden", false, "run the campaign golden-artifact phase (snapshots + pinout + timeline) and report its cost")
		inject    = fs.Int("inject", 0, "probe with an N-injection campaign and print each fault's classification")
		faultFlg  = cli.FaultFlags(fs, " with -inject", " with -inject")
		target    = fs.String("target", "rf", "injection target with -inject: rf, l1d or latches (rtl only)")
		seed      = fs.Int64("seed", 1, "campaign RNG seed with -inject")
		window    = fs.Uint64("window", 0, "cycles simulated after injection with -inject (0 = to program end)")
		lanes     = fs.Int("lanes", 1, "bit-parallel replay lanes with -inject, 1-64 (1 = scalar probe, 0 = 64)")
		verbose   = fs.Bool("v", false, "print program output")
		metricsAt = fs.String("metrics", "", "serve /metrics (Prometheus text) and /debug/pprof on this address while the run executes")
		metricsD  = fs.Bool("metrics-dump", false, "dump the final metric values to stderr at exit (Prometheus text)")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cli.PrintVersion("runsim")
		return nil
	}
	stopMetrics, err := cli.MetricsFlags{Addr: *metricsAt, Dump: *metricsD}.Start("runsim")
	if err != nil {
		return err
	}
	defer stopMetrics()
	if *list {
		for _, wl := range bench.All() {
			fmt.Fprintf(w, "%-14s %s\n", wl.Name, wl.Desc)
		}
		return nil
	}

	var prog *asm.Program
	switch {
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		prog, err = asm.Assemble(*file, string(src))
		if err != nil {
			return err
		}
	case *benchName != "":
		wl, err := bench.ByName(*benchName)
		if err != nil {
			return err
		}
		prog, err = wl.Program()
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("pass -bench or -file (or -list)")
	}

	if *model == "ref" {
		cpu, err := refsim.New(prog)
		if err != nil {
			return err
		}
		start := time.Now()
		stop := cpu.Run(*maxCycles)
		fmt.Fprintf(w, "model=ref stop=%v insts=%d wall=%v\n", stop, cpu.InstCount, time.Since(start))
		if stop == refsim.StopFault {
			fmt.Fprintf(w, "fault: %s\n", cpu.FaultDesc)
		}
		if *verbose {
			w.Write(cpu.Output)
		}
		return nil
	}

	m, err := core.ParseModel(*model)
	if err != nil {
		return err
	}
	setup := core.CampaignSetup()
	if *paperCfg {
		setup = core.DefaultSetup()
	}
	if *inject > 0 {
		tgt, err := fault.ParseTarget(*target)
		if err != nil {
			return err
		}
		fp, err := faultFlg()
		if err != nil {
			return err
		}
		// The probe replays each planned fault individually over one
		// shared golden run recorded with state hashes (convergence
		// cycles) AND the lifetime trace (pruning verdicts), so every
		// fault prints both its injection-less verdict and the ground
		// truth the replay produced. The convergence exit is exact, so
		// the classes match a fixed-plan campaign's.
		factory := core.Factory(m, prog, setup)
		cfg := campaign.Config{
			Injections: *inject, Seed: *seed, Target: tgt, Fault: fp,
			Window: *window, Obs: campaign.ObsPinout, EarlyStop: true,
		}
		g, err := campaign.PrepareGolden(factory, campaign.GoldenOptions{
			HashEvery: 64, Lifetime: true, MaxCycles: *maxCycles,
		})
		if err != nil {
			return err
		}
		specs, err := g.Plan(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "model=%v setup=%s golden=%d cycles, %d injections (%v on %v), %d lifetime events\n",
			m, setup.Name, g.Cycles, len(specs), fp.Model, tgt, g.LifetimeEvents())
		// The probe replays through the pool on one goroutine, so it gets
		// the engine a campaign with these settings would use: with
		// -lanes > 1 on a model that tracks the target that is the
		// bit-parallel lockstep walk instead of one scalar replay per
		// fault — same classifications (the walk is byte-identical),
		// printed with a packing summary when lanes rode.
		cfg.Lanes = *lanes
		outs := make([]campaign.RunOutcome, len(specs))
		var st campaign.ReplayStats
		i := 0
		work := &campaign.Work{Golden: g, Config: cfg, Factory: factory,
			Next: func() (int, fault.Spec, bool) {
				if i >= len(specs) {
					return 0, fault.Spec{}, false
				}
				i++
				return i - 1, specs[i-1], true
			},
			Deliver: func(idx int, oc campaign.RunOutcome) error {
				outs[idx] = oc
				return nil
			},
			Note: func(s campaign.ReplayStats) { st = s },
		}
		if err := campaign.ReplayPool(1, nil, work); err != nil {
			return err
		}
		fmt.Fprint(w, walkSummary(work.Config.Lanes, st))
		for i, s := range specs {
			oc := outs[i]
			extra := ""
			switch s.Model {
			case fault.ModelBurst:
				extra = fmt.Sprintf(" width=%d", s.Width)
			case fault.ModelStuckAt:
				extra = fmt.Sprintf(" stuck=%d", s.Stuck)
			case fault.ModelIntermittent:
				extra = fmt.Sprintf(" stuck=%d span=%d", s.Stuck, s.Span)
			}
			conv := "never"
			if oc.Converged {
				conv = fmt.Sprintf("@%d", oc.EndCycle)
			}
			verdict := "untracked target"
			switch info := g.PruneVerdict(s, cfg); {
			case s.Model.Persistent():
				verdict = "n/a (persistent faults always replay)"
			case info.Dead:
				verdict = "dead (prunable: Masked with zero replay)"
			case info.Tracked:
				verdict = fmt.Sprintf("live (first consumed @%d)", info.ConsumeCycle)
			}
			ace := "untracked"
			switch av, ok := g.AVFVerdict(s, cfg); {
			case s.Model.Persistent():
				ace = "n/a"
			case !ok:
				// untracked target: the model records no lifetime trace
			case av.ACE:
				ace = fmt.Sprintf("consumed@%d", av.Cycle)
			default:
				ace = "dead"
			}
			fmt.Fprintf(w, "  bit=%-6d cycle=%-8d%s -> %v (end cycle %d, converged %s, lifetime: %s, ace: %s)\n",
				s.Bit, s.Cycle, extra, oc.Class, oc.EndCycle, conv, verdict, ace)
		}
		return nil
	}
	if *golden {
		g, err := campaign.PrepareGolden(core.Factory(m, prog, setup),
			campaign.GoldenOptions{Timeline: true, MaxCycles: *maxCycles})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "model=%v setup=%s golden: %d cycles, %d pinout txns, %d snapshots, %d output bytes, wall=%v (%.2f Mcyc/s)\n",
			m, setup.Name, g.Cycles, g.Txns, g.Snapshots(), len(g.Output),
			g.Elapsed, float64(g.Cycles)/g.Elapsed.Seconds()/1e6)
		if *verbose {
			w.Write(g.Output)
		}
		return nil
	}
	sim, err := core.NewSimulator(m, prog, setup)
	if err != nil {
		return err
	}
	pin := &trace.Pinout{}
	sim.SetPinout(pin)
	start := time.Now()
	stop := sim.Run(*maxCycles)
	wall := time.Since(start)
	fmt.Fprintf(w, "model=%v setup=%s stop=%v cycles=%d pinout-txns=%d wall=%v (%.2f Mcyc/s)\n",
		m, setup.Name, stop, sim.Cycles(), pin.Len(), wall,
		float64(sim.Cycles())/wall.Seconds()/1e6)
	if *verbose {
		w.Write(sim.Output())
	}
	return nil
}

// walkSummary renders what the bit-parallel engine did for a probe: the
// lane packing and the peels by reason when any lane rode (the guard
// report.Campaign's bit-parallel line uses).
func walkSummary(lanes int, st campaign.ReplayStats) string {
	var sb strings.Builder
	if st.Batched+st.Peeled > 0 {
		occupancy := 0.0
		if st.Lockstep > 0 {
			occupancy = float64(st.LaneCycles) / float64(st.Lockstep)
		}
		fmt.Fprintf(&sb, "bit-parallel replay: %d lanes, %d retired in lockstep, %d peeled to scalar, %.1f mean lane occupancy\n",
			lanes, st.Batched, st.Peeled, occupancy)
		var parts []string
		for r, n := range st.Peels {
			if n > 0 {
				parts = append(parts, fmt.Sprintf("%v %d", lanestore.PeelReason(r), n))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&sb, "peels by reason: %s\n", strings.Join(parts, ", "))
		}
	}
	return sb.String()
}
