package distrib_test

// A worker must survive whatever a coordinator hands it: a lease's
// fields arrive off the wire, so a broken or hostile peer can send no
// jobs at all, repeat a fault index, or carry a config no campaign
// would accept. Each must come back as a shard error, never take the
// worker process down, and never be answered with fabricated outcomes.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
			API: distrib.APIVersion, ID: id, CampaignID: "c",
			Spec:     distrib.CampaignSpec{Workload: "sha", Model: "rtl", Config: c},
			GoldenFP: g.Fingerprint(), Jobs: jobs, TTLMillis: 60_000,
		}
	}
	badLanes := cfg
	badLanes.Lanes = campaign.MaxLanes + 35
	leases := []distrib.Lease{
		lease("empty", cfg),
		lease("duplicate", cfg, distrib.Job{Index: 0, Spec: specs[0]}, distrib.Job{Index: 1, Spec: specs[1]}, distrib.Job{Index: 0, Spec: specs[0]}),
		lease("invalid-config", badLanes, distrib.Job{Index: 0, Spec: specs[0]}),
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
	for _, id := range []string{"empty", "duplicate", "invalid-config"} {
		if b := batches[id]; b.Error == "" || len(b.Outcomes) != 0 {
			t.Errorf("lease %q: worker posted error %q and %d outcomes; want a shard error and none", id, b.Error, len(b.Outcomes))
		}
	}
	if b := batches["sound"]; b.Error != "" || len(b.Outcomes) != 2 {
		t.Errorf("sound lease after the broken ones: error %q, %d outcomes; want 2 outcomes", b.Error, len(b.Outcomes))
	}
}
