package distrib_test

import (
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fault"
	"repro/internal/protect"
)

// TestClientRetriesTransient5xx: a coordinator answering 503 while it
// boots must cost the client backoff, not the call.
func TestClientRetriesTransient5xx(t *testing.T) {
	var (
		mu   sync.Mutex
		hits int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		h := hits
		mu.Unlock()
		if h <= 2 {
			http.Error(w, `{"error":"booting"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"c1","status":"done"}`))
	}))
	defer srv.Close()

	client := distrib.NewClient(srv.URL)
	p, err := client.Progress("c1")
	if err != nil {
		t.Fatalf("Progress through transient 503s: %v", err)
	}
	if p.Status != distrib.StatusDone {
		t.Errorf("status %q, want done", p.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 3 {
		t.Errorf("server hit %d times, want 3 (two retried 503s + success)", hits)
	}
}

// TestClientNeverRetries4xx: 4xx responses carry protocol semantics and
// must surface on the first try.
func TestClientNeverRetries4xx(t *testing.T) {
	var (
		mu   sync.Mutex
		hits int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.Error(w, `{"error":"no such campaign"}`, http.StatusNotFound)
	}))
	defer srv.Close()

	client := distrib.NewClient(srv.URL)
	if _, err := client.Progress("nope"); err == nil {
		t.Fatal("404 did not surface as an error")
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Errorf("server hit %d times for a 404, want exactly 1", hits)
	}
}

// TestCoordinatorRestartMidWait is the retry satellite's acceptance
// test: an in-process coordinator is killed while a client Wait is
// polling and a worker is replaying, then restarted on the same address
// over the same checkpoint directory. The client's transport retry must
// carry Wait across the outage, the worker must reattach, and the
// finished campaign must equal the single-process run.
func TestCoordinatorRestartMidWait(t *testing.T) {
	dir := t.TempDir()
	cfg := campaign.Config{
		Injections: 90, Seed: 13, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 2_000, Workers: 2,
	}
	spec := distrib.CampaignSpec{Workload: "qsort", Model: "microarch", Config: cfg}
	want, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	base := "http://" + addr

	c1 := distrib.NewCoordinator(distrib.CoordinatorOptions{
		CheckpointDir: dir, LeaseTTL: 500 * time.Millisecond, ShardSize: 8, Logf: t.Logf,
	})
	srv1 := &http.Server{Handler: c1.Handler()}
	go srv1.Serve(ln)

	startWorker(t, base, "w1")

	client := distrib.NewClient(base)
	client.Poll = 20 * time.Millisecond
	id, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	type waitRes struct {
		res *campaign.Result
		err error
	}
	done := make(chan waitRes, 1)
	go func() {
		res, err := client.Wait(id, nil)
		done <- waitRes{res, err}
	}()

	// Let replays flow, then kill the coordinator — listener and engine.
	for {
		p, perr := client.Progress(id)
		if perr == nil && (p.Replayed >= 8 || p.Status == distrib.StatusDone) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv1.Close()
	if err := c1.Close(); err != nil {
		t.Fatalf("first coordinator close: %v", err)
	}

	// Restart over the same checkpoint directory. The campaign is
	// re-submitted directly on the engine before the listener comes
	// back, so the waiting client's first successful poll finds it
	// registered (the deterministic spec ID makes this a resume, not a
	// new campaign).
	c2 := distrib.NewCoordinator(distrib.CoordinatorOptions{
		CheckpointDir: dir, LeaseTTL: 500 * time.Millisecond, ShardSize: 8, Logf: t.Logf,
	})
	resp, err := c2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != id {
		t.Fatalf("restarted coordinator assigned ID %s, want %s", resp.ID, id)
	}
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2 := &http.Server{Handler: c2.Handler()}
	go srv2.Serve(ln2)
	t.Cleanup(func() {
		srv2.Close()
		if err := c2.Close(); err != nil {
			t.Errorf("second coordinator close: %v", err)
		}
	})

	r := <-done
	if r.err != nil {
		t.Fatalf("Wait across coordinator restart: %v", r.err)
	}
	normalize(want)
	normalize(r.res)
	if !reflect.DeepEqual(want, r.res) {
		t.Errorf("result after restart diverged from single-process:\n got %+v\nwant %+v", r.res, want)
	}
}

// TestDistributedProtectedMatchesLocal: `faultsim -protect -remote`
// runs the plain campaign on the fleet and derives the protected arm
// locally, so the fleet's twin must derive to the same arm — DUE
// classifications, use-time detections and overhead faults alike — as
// the local twin.
func TestDistributedProtectedMatchesLocal(t *testing.T) {
	cfg := campaign.Config{
		Injections: 80, Seed: 11, Target: fault.TargetRF,
		Obs: campaign.ObsPinout, Window: 1_000, Workers: 4,
	}
	bits, err := core.TargetBits("qsort", core.ModelMicroarch, core.CampaignSetup(), fault.TargetRF)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.RunCampaign("qsort", core.ModelMicroarch, core.CampaignSetup(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	_, srv := startCoordinator(t, distrib.CoordinatorOptions{
		LeaseTTL: time.Second, ShardSize: 8, Logf: t.Logf,
	})
	startWorker(t, srv.URL, "w1")
	startWorker(t, srv.URL, "w2")
	client := distrib.NewClient(srv.URL)
	client.Poll = 20 * time.Millisecond
	fleet, err := client.RunCampaign(distrib.CampaignSpec{
		Workload: "qsort", Model: "microarch", Config: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	normalize(local)
	normalize(fleet)
	want, err := protect.Derive(local, protect.SchemeParity, bits)
	if err != nil {
		t.Fatal(err)
	}
	got, err := protect.Derive(fleet, protect.SchemeParity, bits)
	if err != nil {
		t.Fatal(err)
	}
	if want.Counts[campaign.ClassDUE] == 0 {
		t.Fatalf("derived parity arm has no DUE outcomes: %v", want.Counts)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("protected arm derived from the fleet diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestSubmitRejectsUnknownConfigFields: an older client's submission
// carries config fields this build no longer has, and each must be a
// 400. Decoded leniently, config.Protect would run unprotected and
// report as if protected, and config.SnapshotEvery would ask for a
// snapshot stride the golden run no longer varies.
func TestSubmitRejectsUnknownConfigFields(t *testing.T) {
	_, srv := startCoordinator(t, distrib.CoordinatorOptions{Logf: t.Logf})
	submit := func(config string) int {
		t.Helper()
		body := `{"workload":"qsort","model":"microarch","config":{"Injections":4,"Target":1,"Window":200` + config + `}}`
		resp, err := http.Post(srv.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, field := range []string{`"Protect":"rf=parity"`, `"SnapshotEvery":0`} {
		if code := submit("," + field); code != http.StatusBadRequest {
			t.Errorf("submission with config %s: status %d, want %d", field, code, http.StatusBadRequest)
		}
	}
	if code := submit(""); code != http.StatusOK {
		t.Errorf("the same submission without it: status %d, want %d", code, http.StatusOK)
	}
}
