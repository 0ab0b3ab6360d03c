// Command distribcheck is the CI integration check for the distributed
// campaign service: it runs two tiny E2-style campaigns (L1D transients
// at the core pinout, windowed, two seeds and windows over one golden
// run) single-process, then boots one faultsimd coordinator and two
// faultsimd worker PROCESSES, submits the same campaigns through the
// HTTP API (one with the setup left empty, as faultsim -remote sends
// it, one spelled "campaign", as paper -remote does: still one golden
// key), SIGKILLs one worker while it holds a unit lease spanning both
// campaigns — forcing lease expiry and the re-issue of both shards —
// and asserts the fleet's final classification counts and rendered
// reports are byte-identical to the single-process runs.
//
// The kill is decided on an observed state, not a timer: a shard is a
// millisecond of work, so a poll-then-kill lands after the campaigns
// ended more often than inside them. The first worker runs alone and is
// frozen (SIGSTOP) in short slices; while it cannot move, the
// coordinator's lease counters say whether it holds a lease, and each
// campaign's progress whether that lease spans both; only then is it
// killed. The second worker starts afterwards and inherits the expired
// shards.
//
// It also exercises the observability surface end to end: the
// coordinator's /metrics endpoint is scraped mid-run (while shards are
// in flight) and after completion, the surviving worker's -metrics
// listener is scraped at the end, and the check asserts the key series
// are present and consistent — the lease-latency histogram, the
// golden-cache hit/miss counters (one miss: one golden key), at least
// one shard retry (the killed worker's lease), leases issued >= shards
// done, a non-zero worker-side shard count, and at most one golden
// preparation on the surviving worker.
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

	// Two campaigns over one golden run: the coordinator leases them as
	// one unit. The two spellings of the default setup name one simulator.
	cfgs := []campaign.Config{
		{Injections: *injections, Seed: 21, Target: fault.TargetL1D, Obs: campaign.ObsPinout, Window: 2_000},
		{Injections: *injections, Seed: 22, Target: fault.TargetL1D, Obs: campaign.ObsPinout, Window: 1_000},
	}
	setups := []string{"", "campaign"}
	const goldenKeys = 1
	want := make([]*campaign.Result, len(cfgs))
	for i, cfg := range cfgs {
		fmt.Printf("distribcheck: single-process reference %d (%s, n=%d, window %d)\n", i, *benchName, cfg.Injections, cfg.Window)
		var err error
		if want[i], err = core.RunCampaign(*benchName, core.ModelMicroarch, core.CampaignSetup(), cfg); err != nil {
			return err
		}
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
	ids := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		id, err := client.Submit(distrib.CampaignSpec{
			Workload: *benchName, Model: "microarch", Setup: setups[i], Config: cfg,
		})
		if err != nil {
			return err
		}
		ids[i] = id
		fmt.Printf("distribcheck: campaign %s submitted to %s\n", id, url)
	}

	if err := killHoldingLease(workers[0], url, client, ids); err != nil {
		return err
	}
	// Mid-run scrape: the coordinator must serve valid Prometheus text
	// while shards are still in flight (the dead worker's).
	mid, err := scrape(url + "/metrics")
	if err != nil {
		return fmt.Errorf("mid-run /metrics scrape: %w", err)
	}
	fmt.Printf("distribcheck: mid-run scrape ok (%d series, %.0f leases issued)\n",
		len(mid), mid["distrib_leases_issued_total"])
	if err := startWorker(1); err != nil {
		return err
	}

	got := make([]*campaign.Result, len(ids))
	deadline := time.Now().Add(10 * time.Minute)
	for i, id := range ids {
		for {
			p, err := client.Progress(id)
			if err != nil {
				return err
			}
			if p.Status == distrib.StatusDone {
				break
			}
			if p.Status == distrib.StatusFailed {
				return fmt.Errorf("campaign %s failed: %s", id, p.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("campaign %s did not finish in time (status %s, %d/%d delivered)",
					id, p.Status, p.Delivered, p.Injections)
			}
			time.Sleep(100 * time.Millisecond)
		}
		if got[i], err = client.Report(id); err != nil {
			return err
		}
	}

	if err := checkMetrics(url, workerMetricsURL, goldenKeys); err != nil {
		return err
	}

	// -------------------------------------------------- comparison
	for i := range ids {
		for _, r := range []*campaign.Result{want[i], got[i]} {
			r.Elapsed, r.AvgSecPerRun, r.GoldenElapsed = 0, 0, 0
			r.Config.Workers = 0
			// Lane accounting stays with the worker that packed the lanes.
			r.BatchedRuns, r.PeeledRuns, r.LaneOccupancy = 0, 0, 0
		}
		if !reflect.DeepEqual(want[i].Counts, got[i].Counts) {
			return fmt.Errorf("campaign %d: classification counts diverged:\n got %v\nwant %v", i, got[i].Counts, want[i].Counts)
		}
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Errorf("campaign %d: distributed result diverged from single-process:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if gr, wr := report.Campaign("check", got[i]), report.Campaign("check", want[i]); gr != wr {
			return fmt.Errorf("campaign %d: report tables diverged:\n got:\n%s\nwant:\n%s", i, gr, wr)
		}
		fmt.Printf("distribcheck: fleet result %d byte-identical across %d outcomes (counts %v)\n",
			i, len(got[i].Outcomes), got[i].Counts)
	}
	return nil
}

// leasesInFlight is the number of leases the coordinator has issued and
// not yet seen finish, from its own counters.
func leasesInFlight(m map[string]float64) float64 {
	return m["distrib_leases_issued_total"] - m["distrib_shards_done_total"] -
		m["distrib_leases_expired_total"] - m["distrib_shard_failures_total"]
}

// killHoldingLease SIGKILLs the fleet's only worker at a moment it
// provably holds a unit lease spanning every campaign in ids. The
// worker runs in millisecond slices between SIGSTOPs; frozen, it can
// neither finish a lease nor take one, so once the coordinator has
// settled (two equal readings: any request the worker had already sent
// is served) its counters and the campaigns' progress describe the
// worker exactly. A lease in flight with a shard of every campaign then
// dies with the worker; anything else thaws it for another slice.
func killHoldingLease(victim *exec.Cmd, url string, client *distrib.Client, ids []string) error {
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
		spanned := leasesInFlight(m) >= 1
		for _, id := range ids {
			p, err := client.Progress(id)
			if err != nil {
				return err
			}
			if p.Status == distrib.StatusDone || p.Status == distrib.StatusFailed {
				// Every slice ended between two leases: the check would
				// silently not exercise re-leasing, so fail loudly.
				return fmt.Errorf("campaign %s %s before worker 0 was caught holding a unit lease; raise -n", id, p.Status)
			}
			spanned = spanned && p.Leased >= 1
		}
		if spanned {
			fmt.Printf("distribcheck: SIGKILLing worker 0 holding a lease over %d campaigns (%.0f issued, %.0f shards done)\n",
				len(ids), m["distrib_leases_issued_total"], m["distrib_shards_done_total"])
			if err := victim.Process.Kill(); err != nil {
				return fmt.Errorf("kill worker 0: %w", err)
			}
			victim.Wait()
			return nil
		}
		if err := victim.Process.Signal(syscall.SIGCONT); err != nil {
			return fmt.Errorf("thaw worker 0: %w", err)
		}
		time.Sleep(slice)
	}
	return fmt.Errorf("worker 0 never took a unit lease")
}

// checkMetrics asserts the fleet's observability series after the
// campaigns: coordinator lease/cache/retry accounting and the surviving
// worker's shard counters. Neither role may prepare a golden run more
// than once per distinct golden key.
func checkMetrics(coordURL, workerURL string, goldenKeys float64) error {
	cm, err := scrape(coordURL + "/metrics")
	if err != nil {
		return fmt.Errorf("coordinator /metrics: %w", err)
	}
	if _, ok := cm[`distrib_lease_latency_seconds_bucket{le="+Inf"}`]; !ok {
		return fmt.Errorf("coordinator /metrics missing the lease-latency histogram")
	}
	hits, misses := cm["distrib_golden_cache_hits_total"], cm["distrib_golden_cache_misses_total"]
	if hits+misses == 0 || misses > goldenKeys {
		return fmt.Errorf("coordinator /metrics: golden cache hits %v, misses %v; want traffic and at most %v misses", hits, misses, goldenKeys)
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
	if n := wm["worker_golden_prep_seconds_count"]; n == 0 || n > goldenKeys {
		return fmt.Errorf("worker /metrics: %v golden preparations for %v golden keys", n, goldenKeys)
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
