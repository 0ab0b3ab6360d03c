package distrib_test

// A worker must survive whatever a coordinator hands it: a lease's
// fields arrive off the wire, so a broken or hostile peer can send no
// jobs at all, repeat a fault index, or carry a config no campaign
// would accept. Each must come back as a shard error, never take the
// worker process down, and never be answered with fabricated outcomes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
)

func TestWorkerSurvivesDegenerateLeases(t *testing.T) {
	cfg := campaign.Config{
		// At default lanes the latch target rides the walk's lanes.
		Injections: 8, Seed: 1, Target: fault.TargetLatches, Window: 200,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	w, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := campaign.PrepareGolden(core.Factory(core.ModelRTL, prog, core.CampaignSetup()), campaign.GoldenOptionsFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := g.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lease := func(id string, c campaign.Config, jobs ...distrib.Job) distrib.Lease {
		return distrib.Lease{
			API: distrib.APIVersion, ID: id,
			Members:  []distrib.LeaseMember{{CampaignID: "c", Spec: distrib.CampaignSpec{Workload: "sha", Model: "rtl", Config: c}}},
			GoldenFP: g.Fingerprint(), Jobs: jobs, TTLMillis: 60_000,
		}
	}
	badLanes := cfg
	badLanes.Lanes = campaign.MaxLanes + 35
	leases := []distrib.Lease{
		lease("empty", cfg),
		lease("duplicate", cfg, distrib.Job{Index: 0, Spec: specs[0]}, distrib.Job{Index: 1, Spec: specs[1]}, distrib.Job{Index: 0, Spec: specs[0]}),
		lease("invalid-config", badLanes, distrib.Job{Index: 0, Spec: specs[0]}),
		lease("no-such-member", cfg, distrib.Job{Member: 1, Index: 0, Spec: specs[0]}),
		// A sound lease last: the worker is still alive and still works.
		lease("sound", cfg, distrib.Job{Index: 0, Spec: specs[0]}, distrib.Job{Index: 1, Spec: specs[1]}),
	}

	var (
		mu      sync.Mutex
		served  int
		batches = make(map[string]distrib.OutcomeBatch)
		all     = make(chan struct{})
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/lease", func(rw http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served == len(leases) {
			rw.WriteHeader(http.StatusNoContent)
			return
		}
		_ = json.NewEncoder(rw).Encode(leases[served])
		served++
	})
	mux.HandleFunc("POST /api/v1/heartbeat", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("POST /api/v1/outcomes", func(_ http.ResponseWriter, r *http.Request) {
		var b distrib.OutcomeBatch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			t.Errorf("outcome batch: %v", err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		batches[b.Lease] = b
		if len(batches) == len(leases) {
			close(all)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cancel := startWorker(t, srv.URL, "w-degenerate")
	defer cancel()

	select {
	case <-all:
	case <-time.After(60 * time.Second):
		t.Fatal("worker did not answer every lease")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []string{"empty", "duplicate", "invalid-config", "no-such-member"} {
		if b := batches[id]; b.Error == "" || len(b.Outcomes) != 0 {
			t.Errorf("lease %q: worker posted error %q and %d outcomes; want a shard error and none", id, b.Error, len(b.Outcomes))
		}
	}
	if b := batches["sound"]; b.Error != "" || len(b.Outcomes) != 2 {
		t.Errorf("sound lease after the broken ones: error %q, %d outcomes; want 2 outcomes", b.Error, len(b.Outcomes))
	}
}

// TestWorkerRefusesOlderAPILease: a version-1 coordinator expects its
// workers to apply protection, which this build's engine no longer
// does, a version-2 one leases a single campaign per lease, without
// members, a version-3 one keys its units by artifact options and
// keeps setups as spelled, and a version-4 one answers idle pulls at
// once and knows no request field asking it to hold them. Each such
// lease must be refused before anything replays, and no outcome may
// reach its coordinator.
func TestWorkerRefusesOlderAPILease(t *testing.T) {
	for api := 1; api < distrib.APIVersion; api++ {
		t.Run(fmt.Sprintf("v%d", api), func(t *testing.T) { refuseLease(t, api) })
	}
}

func refuseLease(t *testing.T, api int) {
	var posted sync.Once
	outcomes := make(chan struct{})
	mux := http.NewServeMux()
	spec := distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Config: campaign.Config{
		Injections: 1, Target: fault.TargetRF, Window: 200,
	}}
	lease := map[string]any{
		"api": api, "id": "old",
		"jobs":      []distrib.Job{{Index: 0, Spec: fault.Spec{Target: fault.TargetRF, Cycle: 100, Model: fault.ModelTransient, Width: 1}}},
		"ttlMillis": 60_000,
	}
	if api < 3 {
		// The campaign at the top level, no members.
		lease["campaignId"], lease["spec"] = "c", spec
	} else {
		lease["members"] = []distrib.LeaseMember{{CampaignID: "c", Spec: spec}}
	}
	mux.HandleFunc("POST /api/v1/lease", func(rw http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(rw).Encode(lease)
	})
	mux.HandleFunc("POST /api/v1/outcomes", func(http.ResponseWriter, *http.Request) {
		posted.Do(func() { close(outcomes) })
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	want := fmt.Sprintf("lease API v%d", api)
	refused := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := distrib.NewWorker(distrib.WorkerOptions{
		Coordinator: srv.URL, ID: "w-new", Workers: 1, Poll: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, want) {
				select {
				case refused <- msg:
				default:
				}
			}
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	select {
	case msg := <-refused:
		t.Logf("worker: %s", msg)
	case <-outcomes:
		t.Fatalf("worker answered a version-%d lease with outcomes", api)
	case <-time.After(30 * time.Second):
		t.Fatalf("worker never refused the version-%d lease", api)
	}
	cancel()
	<-done
	select {
	case <-outcomes:
		t.Errorf("worker answered a version-%d lease with outcomes", api)
	default:
	}
}
