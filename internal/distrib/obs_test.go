package distrib_test

// The coordinator's API mux doubles as the fleet observability
// endpoint: /metrics (Prometheus text) and /debug/pprof ride the same
// listener, and a journal wired through CoordinatorOptions records the
// campaign lifecycle. This file covers both plus the request-logging
// middleware.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/obs"
)

func TestHandlerServesMetricsAndJournal(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := obs.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startCoordinator(t, distrib.CoordinatorOptions{
		Logf: t.Logf, ShardSize: 16, Journal: j,
	})
	startWorker(t, srv.URL, "obs-w1")

	// The registry is process-global: other tests, and earlier runs of
	// this one under -count, move the same counters.
	counted := []string{"distrib_campaigns_submitted_total", "distrib_campaigns_done_total"}
	before := scrapeSeries(t, srv.URL, counted...)
	client := distrib.NewClient(srv.URL)
	id, err := client.Submit(distrib.CampaignSpec{
		Workload: "qsort", Model: "microarch",
		Config: campaign.Config{
			Injections: 40, Seed: 3, Target: fault.TargetRF, Window: 300,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(id, nil); err != nil {
		t.Fatal(err)
	}
	after := scrapeSeries(t, srv.URL, counted...)
	for _, series := range counted {
		if got := after[series] - before[series]; got != 1 {
			t.Errorf("%s moved by %v over one campaign, want 1", series, got)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"distrib_lease_latency_seconds_bucket",
		"distrib_golden_cache_misses_total",
		"worker_shards_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// pprof rides the same mux.
	pp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline: %d", pp.StatusCode)
	}

	// The journal saw the full lifecycle in order.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jtext := string(raw)
	last := -1
	for _, ev := range []string{
		obs.EvSubmitted, obs.EvGoldenReady, obs.EvShardLeased,
		obs.EvShardDone, obs.EvResultMerged,
	} {
		at := strings.Index(jtext, `"event":"`+ev+`"`)
		if at < 0 {
			t.Errorf("journal missing %s", ev)
			continue
		}
		if at < last {
			t.Errorf("journal event %s out of lifecycle order", ev)
		}
		last = at
	}
}

func TestLogRequests(t *testing.T) {
	type entry struct {
		method, path string
		status       int
	}
	var got []entry
	h := distrib.LogRequests(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "ok") // implicit 200 via first Write
	}), func(method, path string, status int, d time.Duration) {
		if d < 0 {
			t.Errorf("negative duration %v", d)
		}
		got = append(got, entry{method, path, status})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	http.Get(srv.URL + "/ok")
	http.Get(srv.URL + "/missing")
	want := []entry{{"GET", "/ok", 200}, {"GET", "/missing", 404}}
	if len(got) != len(want) {
		t.Fatalf("logged %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d logged as %+v, want %+v", i, got[i], want[i])
		}
	}
}
