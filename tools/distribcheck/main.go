// Command distribcheck is the CI integration check for the distributed
// campaign service: it runs a tiny E2-style campaign (L1D transients at
// the core pinout, windowed) single-process, then boots one faultsimd
// coordinator and two faultsimd worker PROCESSES, submits the same
// campaign through the HTTP API, SIGKILLs one worker while it holds a
// lease — forcing lease expiry and shard re-issue — and asserts the
// fleet's final classification counts and rendered report are
// byte-identical to the single-process run.
//
// The kill is decided on an observed state, not a timer: a shard is a
// millisecond of work, so a poll-then-kill lands after the campaign
// ended more often than inside it. The first worker runs alone and is
// frozen (SIGSTOP) in short slices; while it cannot move, the
// coordinator's lease counters say whether it holds a lease, and only
// then is it killed. The second worker starts afterwards and inherits
// the expired shard.
//
// It also exercises the observability surface end to end: the
// coordinator's /metrics endpoint is scraped mid-run (while shards are
// in flight) and after completion, the surviving worker's -metrics
// listener is scraped at the end, and the check asserts the key series
// are present and consistent — the lease-latency histogram, the
// golden-cache hit/miss counters, at least one shard retry (the killed
// worker's lease), leases issued >= shards done, and a non-zero
// worker-side shard count.
//
//	go build -o /tmp/faultsimd ./cmd/faultsimd
//	go run ./tools/distribcheck -bin /tmp/faultsimd
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flag"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distribcheck: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("distribcheck: PASS")
}

func run() error {
	var (
		bin        = flag.String("bin", "", "path to the faultsimd binary")
		benchName  = flag.String("bench", "qsort", "workload of the check campaign")
		injections = flag.Int("n", 90, "injections of the check campaign")
	)
	flag.Parse()
	if *bin == "" {
		return fmt.Errorf("-bin is required (build it with: go build -o /tmp/faultsimd ./cmd/faultsimd)")
	}

	cfg := campaign.Config{
		Injections: *injections, Seed: 21, Target: fault.TargetL1D,
		Obs: campaign.ObsPinout, Window: 2_000,
	}
	fmt.Printf("distribcheck: single-process reference (%s, n=%d)\n", *benchName, cfg.Injections)
	want, err := core.RunCampaign(*benchName, core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		return err
	}

	// ------------------------------------------------ real fleet
	port, err := freePort()
	if err != nil {
		return err
	}
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	coord := exec.Command(*bin,
		"-role", "coordinator",
		"-listen", fmt.Sprintf("127.0.0.1:%d", port),
		"-lease-ttl", "2s", "-shard-size", "8")
	coord.Stdout, coord.Stderr = os.Stderr, os.Stderr
	if err := coord.Start(); err != nil {
		return fmt.Errorf("start coordinator: %w", err)
	}
	defer func() {
		coord.Process.Kill()
		coord.Wait()
	}()
	if err := waitHealthy(url, 15*time.Second); err != nil {
		return err
	}

	// Worker 0 is the victim and runs alone until it is killed; worker 1
	// survives to the end, with a -metrics listener so the worker-side
	// series can be scraped after the campaign completes.
	wmPort, err := freePort()
	if err != nil {
		return err
	}
	workerMetricsURL := fmt.Sprintf("http://127.0.0.1:%d", wmPort)
	workers := make([]*exec.Cmd, 2)
	startWorker := func(i int) error {
		wargs := []string{
			"-role", "worker", "-coordinator", url,
			"-id", fmt.Sprintf("ci-w%d", i),
			"-workers", "2", "-poll", "100ms"}
		if i == 1 {
			wargs = append(wargs, "-metrics", fmt.Sprintf("127.0.0.1:%d", wmPort))
		}
		w := exec.Command(*bin, wargs...)
		w.Stdout, w.Stderr = os.Stderr, os.Stderr
		if err := w.Start(); err != nil {
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		workers[i] = w
		return nil
	}
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.Process.Kill()
				w.Wait()
			}
		}
	}()
	if err := startWorker(0); err != nil {
		return err
	}

	client := distrib.NewClient(url)
	client.Poll = 100 * time.Millisecond
	id, err := client.Submit(distrib.CampaignSpec{
		Workload: *benchName, Model: "microarch", Config: cfg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("distribcheck: campaign %s submitted to %s\n", id, url)

	if err := killHoldingLease(workers[0], url, client, id); err != nil {
		return err
	}
	// Mid-run scrape: the coordinator must serve valid Prometheus text
	// while a shard is still in flight (the dead worker's).
	mid, err := scrape(url + "/metrics")
	if err != nil {
		return fmt.Errorf("mid-run /metrics scrape: %w", err)
	}
	fmt.Printf("distribcheck: mid-run scrape ok (%d series, %.0f leases issued)\n",
		len(mid), mid["distrib_leases_issued_total"])
	if err := startWorker(1); err != nil {
		return err
	}

	deadline := time.Now().Add(10 * time.Minute)
	for {
		p, err := client.Progress(id)
		if err != nil {
			return err
		}
		if p.Status == distrib.StatusDone {
			break
		}
		if p.Status == distrib.StatusFailed {
			return fmt.Errorf("campaign failed: %s", p.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign did not finish in time (status %s, %d/%d delivered)",
				p.Status, p.Delivered, p.Injections)
		}
		time.Sleep(100 * time.Millisecond)
	}
	got, err := client.Report(id)
	if err != nil {
		return err
	}

	if err := checkMetrics(url, workerMetricsURL); err != nil {
		return err
	}

	// -------------------------------------------------- comparison
	for _, r := range []*campaign.Result{want, got} {
		r.Elapsed, r.AvgSecPerRun, r.GoldenElapsed = 0, 0, 0
		r.Config.Workers = 0
		// Lane accounting stays with the worker that packed the lanes.
		r.BatchedRuns, r.PeeledRuns, r.LaneOccupancy = 0, 0, 0
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		return fmt.Errorf("classification counts diverged:\n got %v\nwant %v", got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("distributed result diverged from single-process:\n got %+v\nwant %+v", got, want)
	}
	gr := report.Campaign("check", got)
	wr := report.Campaign("check", want)
	if gr != wr {
		return fmt.Errorf("report tables diverged:\n got:\n%s\nwant:\n%s", gr, wr)
	}
	fmt.Printf("distribcheck: fleet result byte-identical across %d outcomes (counts %v)\n",
		len(got.Outcomes), got.Counts)
	return nil
}

// leasesInFlight is the number of leases the coordinator has issued and
// not yet seen finish, from its own counters.
func leasesInFlight(m map[string]float64) float64 {
	return m["distrib_leases_issued_total"] - m["distrib_shards_done_total"] -
		m["distrib_leases_expired_total"] - m["distrib_shard_failures_total"]
}

// killHoldingLease SIGKILLs the fleet's only worker at a moment it
// provably holds a lease. The worker runs in millisecond slices between
// SIGSTOPs; frozen, it can neither finish a shard nor take one, so once
// the coordinator has settled (two equal readings: any request the
// worker had already sent is served) its counters describe the worker
// exactly. A lease in flight then dies with the worker; none in flight
// thaws it for another slice.
func killHoldingLease(victim *exec.Cmd, url string, client *distrib.Client, id string) error {
	const slice, settle = time.Millisecond, 25 * time.Millisecond
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if err := victim.Process.Signal(syscall.SIGSTOP); err != nil {
			return fmt.Errorf("freeze worker 0: %w", err)
		}
		var m map[string]float64
		for prev := -1.0; ; {
			time.Sleep(settle)
			var err error
			if m, err = scrape(url + "/metrics"); err != nil {
				return fmt.Errorf("coordinator /metrics: %w", err)
			}
			sum := m["distrib_leases_issued_total"] + m["distrib_shards_done_total"] + m["distrib_outcome_batches_total"]
			if sum == prev {
				break
			}
			prev = sum
		}
		if n := leasesInFlight(m); n >= 1 {
			fmt.Printf("distribcheck: SIGKILLing worker 0 holding %.0f lease(s) (%.0f issued, %.0f shards done)\n",
				n, m["distrib_leases_issued_total"], m["distrib_shards_done_total"])
			if err := victim.Process.Kill(); err != nil {
				return fmt.Errorf("kill worker 0: %w", err)
			}
			victim.Wait()
			return nil
		}
		p, err := client.Progress(id)
		if err != nil {
			return err
		}
		if p.Status == distrib.StatusDone || p.Status == distrib.StatusFailed {
			// Every slice ended between two shards: the check would
			// silently not exercise re-leasing, so fail loudly.
			return fmt.Errorf("campaign %s before worker 0 was caught holding a lease; raise -n", p.Status)
		}
		if err := victim.Process.Signal(syscall.SIGCONT); err != nil {
			return fmt.Errorf("thaw worker 0: %w", err)
		}
		time.Sleep(slice)
	}
	return fmt.Errorf("worker 0 never took a lease")
}

// checkMetrics asserts the fleet's observability series after the
// campaign: coordinator lease/cache/retry accounting and the surviving
// worker's shard counters.
func checkMetrics(coordURL, workerURL string) error {
	cm, err := scrape(coordURL + "/metrics")
	if err != nil {
		return fmt.Errorf("coordinator /metrics: %w", err)
	}
	if _, ok := cm[`distrib_lease_latency_seconds_bucket{le="+Inf"}`]; !ok {
		return fmt.Errorf("coordinator /metrics missing the lease-latency histogram")
	}
	hits, misses := cm["distrib_golden_cache_hits_total"], cm["distrib_golden_cache_misses_total"]
	if hits+misses == 0 {
		return fmt.Errorf("coordinator /metrics: golden cache saw no traffic (hits %v, misses %v)", hits, misses)
	}
	if cm["distrib_shard_retries_total"] < 1 {
		return fmt.Errorf("coordinator /metrics: no shard retry recorded despite the killed worker")
	}
	issued, done := cm["distrib_leases_issued_total"], cm["distrib_shards_done_total"]
	if issued < done || done == 0 {
		return fmt.Errorf("coordinator /metrics: leases issued %v < shards done %v (or none done)", issued, done)
	}
	wm, err := scrape(workerURL + "/metrics")
	if err != nil {
		return fmt.Errorf("worker /metrics: %w", err)
	}
	if wm["worker_shards_total"] == 0 {
		return fmt.Errorf("worker /metrics: worker_shards_total is 0")
	}
	if wm["worker_golden_prep_seconds_count"] == 0 {
		return fmt.Errorf("worker /metrics: no golden preparation recorded")
	}
	fmt.Printf("distribcheck: metrics ok (leases %v >= shards done %v, retries %v, cache %v hit / %v miss, worker shards %v)\n",
		issued, done, cm["distrib_shard_retries_total"], hits, misses, wm["worker_shards_total"])
	return nil
}

// scrape fetches a /metrics endpoint and parses the Prometheus text
// exposition into series -> value (labels kept verbatim in the key).
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func waitHealthy(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/api/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("coordinator at %s never became healthy", url)
}
