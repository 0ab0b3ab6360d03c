// Command faultsim runs a single statistical fault-injection campaign:
//
//	faultsim -bench qsort -model rtl -target rf -n 400 -window 500
//	faultsim -bench caes -model microarch -target l1d -obs sop
//	faultsim -bench sha -fault-model stuck-at-1 -obs combined -window 0
//	faultsim -bench fft -fault-model burst -burst 4
//	faultsim -bench caes -window 0 -early-stop -target-error 0.05
//	faultsim -bench caes -target l1d -window 0 -prune classes
//	faultsim -bench caes -avf-prior -target-error 0.05
//	faultsim -bench qsort -protect rf=secded -obs combined -window 0
//
// -fault-model selects the injected fault model (transient, burst,
// stuck-at, stuck-at-0, stuck-at-1, intermittent); -burst and -span set
// the burst width and the intermittent active window. -early-stop and
// -target-error enable the adaptive engine (convergence exits and
// sequential statistical stopping); the report then carries the
// converged/saved accounting.
//
// -prune enables golden-trace fault pruning: `dead` classifies
// transients whose corrupted bits are overwritten before any read as
// Masked with zero replay cycles (exact), `classes` additionally
// replays one representative per first-consumer equivalence class and
// extrapolates MeRLiN-style. -cpuprofile/-memprofile write pprof
// profiles of the campaign. -metrics ADDR serves live Prometheus
// metrics and /debug/pprof over HTTP while the campaign runs;
// -metrics-dump prints the final values to stderr at exit. Metrics are
// inert: a campaign's classifications and report are byte-identical
// with observability on or off.
//
// -avf attaches an injection-free ACE/AVF estimate to the result: the
// golden lifetime trace is swept into the target structure's AVF and
// the campaign's exact fault plan is re-judged by it, with zero extra
// replays (transient models only). -avf-prior additionally seeds the
// sequential stopping estimator with the prediction (requires
// -target-error), so a campaign tracking the prediction reaches its
// margin with fewer replays — the prior moves only the stopping index,
// never the reported estimate.
//
// -protect wraps injection targets in protection schemes (parity,
// secded, dup — e.g. `-protect rf=parity,l1d=secded`): the fault plan
// extends over the scheme's check bits and checker logic, detections
// that cannot be corrected classify as DUE (detected, unrecoverable —
// counted unsafe), corrections as Masked, and campaigns whose protected
// targets are elsewhere stay byte-identical to unprotected runs.
//
// -lanes picks the replay engine: 1 is the scalar stream replayer, every
// replay restoring the snapshot nearest its injection instant; any
// wider setting is the lockstep walk, on which every replay rides a
// value lane of the one golden instance (RF, L1D and, on the RTL model,
// pipeline latches), so inter-injection golden cycles simulate once per
// pull instead of once per replay. Classifications, stopping indices and
// reports are byte-identical on either engine.
//
// A local campaign is a campaign.Sweep of one, on -workers goroutines
// with or without checkpoints. -checkpoint DIR streams per-run outcomes
// to JSONL shards; an interrupted campaign (SIGINT/SIGTERM drains
// in-flight replays and flushes the shards) resumes from them on the
// next run. -remote URL submits the campaign to a faultsimd coordinator
// and waits for the fleet's (byte-identical) result instead of
// simulating locally. -json emits the result as machine-readable JSON.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	err := run(os.Args[1:])
	switch {
	case errors.Is(err, campaign.ErrInterrupted):
		fmt.Fprintln(os.Stderr, "faultsim: interrupted; checkpoints flushed, re-run to resume")
		os.Exit(130)
	case err != nil:
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	var (
		benchName  = fs.String("bench", "qsort", "workload name (see cmd/runsim -list)")
		model      = fs.String("model", "microarch", "simulation model: microarch or rtl")
		target     = fs.String("target", "rf", "injection target: rf, l1d or latches (rtl only)")
		obs        = fs.String("obs", "pinout", "observation point: pinout, sop or combined")
		faultFlags = cli.FaultFlags(fs, "", "")
		n          = fs.Int("n", 400, "number of injections")
		seed       = fs.Int64("seed", 1, "RNG seed")
		window     = fs.Uint64("window", 500, "cycles simulated after injection (0 = to program end)")
		advance    = fs.Bool("advance", false, "advance L1D injections to next line use (RTL flow optimisation)")
		uniform    = fs.Bool("uniform", false, "uniform injection instants instead of normal")
		strict     = fs.Bool("strict-cycle", false, "require cycle-exact pinout matches")
		workers    = fs.Int("workers", 0, "parallel workers (default GOMAXPROCS)")
		fullSize   = fs.Bool("paper-size", false, "use the paper's 4000-injection Leveugle sample")
		earlyStop  = fs.Bool("early-stop", false, "adaptive engine: end a replay the moment its state reconverges with golden")
		targetErr  = fs.Float64("target-error", 0, "adaptive engine: stop injecting once every class proportion is within this margin (0 = full plan)")
		prune      = fs.String("prune", "off", "golden-trace fault pruning: off, dead (exact), classes (MeRLiN-style extrapolation)")
		protectStr = fs.String("protect", "", "protection plan, e.g. rf=parity or rf=secded,l1d=dup (schemes: parity, secded, dup); detected-unrecoverable runs classify as DUE")
		avf        = fs.Bool("avf", false, "attach an injection-free ACE/AVF estimate from the golden lifetime trace (zero extra replays, transient models only)")
		avfPrior   = fs.Bool("avf-prior", false, "seed sequential stopping from the AVF prediction (implies -avf, requires -target-error)")
		lanes      = fs.Int("lanes", 64, "bit-parallel lockstep replay width, 1-64 (1 = scalar engine; byte-identical results at any width)")
		process    = cli.ProcessFlags(fs, "faultsim", "campaign")
		checkpoint = fs.String("checkpoint", "", "stream per-run outcomes to JSONL shards in this directory and resume from them")
		remote     = fs.String("remote", "", "submit the campaign to a faultsimd coordinator at this base URL instead of simulating locally")
		jsonOut    = fs.Bool("json", false, "emit the result as machine-readable JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProcess, exit, err := process()
	if exit || err != nil {
		return err
	}
	defer stopProcess()

	m, err := core.ParseModel(*model)
	if err != nil {
		return err
	}
	tgt, err := fault.ParseTarget(*target)
	if err != nil {
		return err
	}
	fp, err := faultFlags()
	if err != nil {
		return err
	}
	cfg := campaign.Config{
		Injections:   *n,
		Seed:         *seed,
		Target:       tgt,
		Fault:        fp,
		Window:       *window,
		Workers:      *workers,
		AdvanceToUse: *advance,
		EarlyStop:    *earlyStop,
		TargetError:  *targetErr,
		Lanes:        *lanes,
		AVF:          *avf,
		AVFPrior:     *avfPrior,
		Protect:      *protectStr,
	}
	if cfg.Prune, err = campaign.ParsePruneMode(*prune); err != nil {
		return err
	}
	if *fullSize {
		cfg.Injections = 4000
	}
	switch *obs {
	case "pinout":
		cfg.Obs = campaign.ObsPinout
	case "sop":
		cfg.Obs = campaign.ObsSOP
		cfg.Window = 0
	case "combined":
		cfg.Obs = campaign.ObsCombined
		cfg.Window = 0
	default:
		return fmt.Errorf("unknown observation point %q", *obs)
	}
	if *uniform {
		cfg.TimeDist = fault.DistUniform
	}
	if *strict {
		cfg.CompareMode = trace.CompareStrictCycle
	}

	var res *campaign.Result
	if *remote != "" {
		// Remote execution: the coordinator's shard merge makes the
		// fleet's result byte-identical to the local engine's.
		client := distrib.NewClient(*remote)
		id, err := client.Submit(distrib.CampaignSpec{
			Workload: *benchName, Model: m.String(), Config: cfg,
		})
		if err != nil {
			return err
		}
		if res, err = client.Wait(id, cli.StopOnSignal("faultsim")); err != nil {
			return err
		}
	} else {
		// Local execution is a sweep of one: with -checkpoint outcomes
		// stream to JSONL shards, and SIGINT/SIGTERM drains in-flight
		// replays (flushing the shards) before exit either way.
		c, err := core.Standalone(*benchName, m, core.CampaignSetup(), cfg)
		if err != nil {
			return err
		}
		sr, err := campaign.Sweep([]campaign.SweepCampaign{c}, campaign.SweepOptions{
			Workers:       cfg.Workers,
			CheckpointDir: *checkpoint,
			Stop:          cli.StopOnSignal("faultsim"),
		})
		if err != nil {
			return err
		}
		res = sr.Results[c.Key]
	}
	if *jsonOut {
		s, err := report.JSON(res)
		if err != nil {
			return err
		}
		fmt.Print(s)
		return nil
	}
	fmt.Print(report.Campaign(fmt.Sprintf("%s/%s", *benchName, m), res))
	return nil
}
