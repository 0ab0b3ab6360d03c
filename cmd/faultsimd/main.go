// Command faultsimd runs the distributed campaign service in either
// role:
//
//	faultsimd -role coordinator -listen :9090 -checkpoint ckpt/
//	faultsimd -role worker -coordinator http://host:9090
//	faultsimd -role worker -coordinator http://host:9090 -workers 4
//
// The coordinator accepts campaign submissions over its JSON HTTP API
// (POST /api/v1/campaigns), prepares the golden artifacts and fault
// plan itself, splits the plan into shards of fault indices, and hands
// shards to pull-based workers under leases that are re-issued when a
// worker stops heartbeating. Outcome batches are merged in fault-index
// order, so the final report — served at
// GET /api/v1/campaigns/{id}/report — is byte-identical to the same
// campaign run single-process with the same seed. With -checkpoint the
// coordinator streams every merged outcome to JSONL shards and a
// restarted coordinator resumes a resubmitted campaign from them.
//
// Workers are stateless pullers: each prepares (and caches) its own
// golden run per campaign, refuses shards whose golden fingerprint
// disagrees with its local run, replays its leased fault indices in
// parallel — on the engine the lease's campaign config selects; the
// lane width travels in the lease, there is no per-worker override —
// and posts the classifications back.
//
// Both roles expose fleet observability: the coordinator serves
// GET /metrics (Prometheus text) and /debug/pprof/... on its API
// listener; workers serve the same on a dedicated -metrics address.
// -journal appends a JSONL campaign event stream (submissions, golden
// readiness, shard leases/completions, stopping decisions, merges).
// Logging is structured (log/slog); -log-level debug additionally
// traces every HTTP request on both roles.
//
// Submit campaigns with `faultsim -remote URL ...` or regenerate any
// paper figure against the fleet with `paper -remote URL ...`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultsimd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultsimd", flag.ContinueOnError)
	var (
		role        = fs.String("role", "coordinator", "service role: coordinator or worker")
		listen      = fs.String("listen", ":9090", "coordinator listen address")
		coordinator = fs.String("coordinator", "", "coordinator base URL (worker role)")
		checkpoint  = fs.String("checkpoint", "", "coordinator: stream merged outcomes to JSONL shards in this directory and resume resubmitted campaigns from them")
		leaseTTL    = fs.Duration("lease-ttl", 0, "coordinator: shard lease TTL before a silent worker is presumed dead (default 15s)")
		shardSize   = fs.Int("shard-size", 0, "coordinator: replay jobs per lease (default 64)")
		workers     = fs.Int("workers", 0, "worker: parallel replays per shard (default GOMAXPROCS)")
		poll        = fs.Duration("poll", 0, "worker: longest the coordinator holds an idle lease request, which it answers as soon as work appears; also the pause after a failed one (default 500ms)")
		id          = fs.String("id", "", "worker: worker ID in leases and logs (default host-pid)")
		logLevel    = fs.String("log-level", "info", "log verbosity: debug, info, warn or error (debug traces every HTTP request)")
		metrics     = fs.String("metrics", "", "worker: serve /metrics and /debug/pprof on this address (coordinator serves them on -listen)")
		journal     = fs.String("journal", "", "coordinator: append campaign lifecycle events to this JSONL file")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		cli.PrintVersion("faultsimd")
		return nil
	}

	logger, err := newLogger(*logLevel)
	if err != nil {
		return err
	}
	// faultsimd is a service binary: metrics are always live (inertness
	// is proven separately; see internal/core's inertness test).
	obs.Enable()
	prof.EnableRuntimeMetrics()

	switch *role {
	case "coordinator":
		return runCoordinator(logger, *listen, *checkpoint, *journal, *leaseTTL, *shardSize)
	case "worker":
		if *coordinator == "" {
			return fmt.Errorf("worker role requires -coordinator URL")
		}
		return runWorker(logger, *coordinator, *id, *metrics, *workers, *poll)
	default:
		return fmt.Errorf("unknown role %q (coordinator, worker)", *role)
	}
}

// newLogger builds the process slog.Logger at the requested level,
// writing logfmt-style text to stderr.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (debug, info, warn, error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// requestLogger adapts an slog.Logger to the per-request hook shared by
// distrib.LogRequests (coordinator side) and WorkerOptions.ReqLog
// (worker side). Requests log at debug so -log-level info stays quiet
// under worker heartbeat polling.
func requestLogger(logger *slog.Logger, role string) func(method, path string, status int, d time.Duration) {
	return func(method, path string, status int, d time.Duration) {
		logger.Debug("http", "role", role, "method", method, "path", path,
			"status", status, "dur", d.Round(time.Microsecond))
	}
}

func runCoordinator(logger *slog.Logger, listen, checkpoint, journalPath string, leaseTTL time.Duration, shardSize int) error {
	var j *obs.Journal
	if journalPath != "" {
		var err error
		if j, err = obs.OpenJournal(journalPath); err != nil {
			return err
		}
		defer j.Close()
	}
	c := distrib.NewCoordinator(distrib.CoordinatorOptions{
		CheckpointDir: checkpoint,
		LeaseTTL:      leaseTTL,
		ShardSize:     shardSize,
		Journal:       j,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	handler := distrib.LogRequests(c.Handler(), requestLogger(logger, "coordinator"))
	srv := &http.Server{Addr: listen, Handler: handler}
	stop := cli.StopOnSignal("faultsimd")
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	}()
	logger.Info("coordinator listening", "addr", listen, "checkpoint", checkpoint, "journal", journalPath)
	err := srv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		c.Close()
		return err
	}
	// Flush every open campaign checkpoint before exiting so a restart
	// resumes from durable state.
	return c.Close()
}

func runWorker(logger *slog.Logger, coordinator, id, metrics string, workers int, poll time.Duration) error {
	if metrics != "" {
		stop, err := cli.MetricsFlags{Addr: metrics}.Start("faultsimd")
		if err != nil {
			return err
		}
		defer stop()
	}
	w := distrib.NewWorker(distrib.WorkerOptions{
		Coordinator: coordinator,
		ID:          id,
		Workers:     workers,
		Poll:        poll,
		ReqLog:      requestLogger(logger, "worker"),
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	stop := cli.StopOnSignal("faultsimd")
	go func() {
		<-stop
		cancel()
	}()
	logger.Info("worker pulling", "coordinator", coordinator)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
