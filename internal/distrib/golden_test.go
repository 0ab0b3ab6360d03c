package distrib

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// TestGoldenCacheBoundAndRetry drives the one golden cache both fleet
// roles use past its bound: a simulator asked for twice is prepared
// once, the least recently released settled entry is evicted first,
// entries somebody pins and in-flight preparations never are, and a
// failed preparation is dropped so a resubmission retries it instead of
// inheriting the error.
func TestGoldenCacheBoundAndRetry(t *testing.T) {
	// Shape i is one of 32 distinct simulators: eight workloads, two
	// models and two setups.
	shape := func(i uint64) CampaignSpec {
		return CampaignSpec{
			Workload: []string{"caes", "fft", "qsort", "sha", "stringsearch", "susan_c", "susan_e", "susan_s"}[i/4],
			Model:    []string{"microarch", "rtl"}[i/2%2],
			Setup:    []string{"campaign", "tableI"}[i%2],
			Config:   campaign.Config{Injections: 4, Seed: 1, Target: fault.TargetRF, Window: 100},
		}
	}
	var c goldenCache
	get := func(s CampaignSpec) (*goldenEntry, bool, error) { return c.get(s, needOf(s), 1) }
	cached := func(s CampaignSpec) bool {
		_, ok := c.entries[keyOf(s)]
		return ok
	}

	first, fresh, err := get(shape(0))
	if err != nil || !fresh {
		t.Fatalf("first request: fresh=%v err=%v", fresh, err)
	}
	again, fresh, err := get(shape(0))
	if err != nil || fresh || again != first {
		t.Fatalf("repeated shape: fresh=%v err=%v same entry=%v", fresh, err, again == first)
	}
	c.release(again) // still pinned once: first is held

	// A preparation somebody is still waiting on.
	inflight := shape(31)
	c.entries[keyOf(inflight)] = &goldenEntry{key: keyOf(inflight), ready: make(chan struct{})}

	// Fill the bound with idle entries, released in order 1, 2, ...
	for i := uint64(1); i <= maxGoldenCache; i++ {
		e, fresh, err := get(shape(i))
		if err != nil || !fresh || e.g == nil || e.build == nil || e.fp != e.g.Fingerprint() {
			t.Fatalf("shape %d: fresh=%v err=%v entry=%+v", i, fresh, err, e)
		}
		c.release(e)
	}
	// Touch shape 1 again: shape 2 is now the least recently released.
	e, fresh, err := get(shape(1))
	if err != nil || fresh {
		t.Fatalf("cached shape 1: fresh=%v err=%v", fresh, err)
	}
	c.release(e)
	if n := len(c.held()); n != maxGoldenCache+1 {
		t.Fatalf("cache holds %d settled runs, want %d", n, maxGoldenCache+1)
	}

	// Two more idle entries push two out: shapes 2 and 3, never the pinned
	// first entry, never the in-flight one, never the touched shape 1.
	for i := uint64(maxGoldenCache + 1); i <= maxGoldenCache+2; i++ {
		e, _, err := get(shape(i))
		if err != nil {
			t.Fatal(err)
		}
		c.release(e)
	}
	for i, want := range map[uint64]bool{0: true, 1: true, 2: false, 3: false, 4: true, maxGoldenCache + 2: true} {
		if got := cached(shape(i)); got != want {
			t.Errorf("shape %d cached=%v, want %v", i, got, want)
		}
	}
	if !cached(inflight) {
		t.Error("the in-flight entry was evicted")
	}
	// Released, the first entry is the most recent one: the oldest idle
	// entry, shape 4, goes instead. Its run stays good for whoever still
	// holds it.
	four := c.entries[keyOf(shape(4))]
	c.release(first)
	if !cached(shape(0)) || cached(shape(4)) {
		t.Errorf("after releasing the first entry: shape 0 cached=%v, shape 4 cached=%v; want the oldest idle one, shape 4, evicted",
			cached(shape(0)), cached(shape(4)))
	}
	if four.g.Cycles == 0 {
		t.Error("an evicted entry lost its golden run")
	}

	bad := shape(0)
	bad.Workload = "no-such-workload"
	for attempt := 1; attempt <= 2; attempt++ {
		if _, fresh, err := get(bad); err == nil || !fresh {
			t.Errorf("failing shape, attempt %d: fresh=%v err=%v; want a fresh failure each time", attempt, fresh, err)
		}
	}
	if cached(bad) {
		t.Error("failed preparation stayed cached")
	}
}

// TestLeaseAffinityNamesGoldenFingerprint runs a light qsort/rtl unit
// and a heavier unit of another simulator. A worker that holds the
// qsort/rtl golden run names its fingerprint and must be handed the
// qsort/rtl unit although the other is heavier, and a request naming no
// run must get the heavier one.
func TestLeaseAffinityNamesGoldenFingerprint(t *testing.T) {
	c := NewCoordinator(CoordinatorOptions{ShardSize: 4, Logf: t.Logf})
	defer c.Close()
	light := CampaignSpec{Workload: "qsort", Model: "rtl", Config: campaign.Config{
		Injections: 8, Seed: 3, Target: fault.TargetL1D, Window: 500,
	}}
	heavy := light
	heavy.Workload, heavy.Config.Injections = "sha", 24
	var ids []string
	for _, s := range []CampaignSpec{light, heavy} {
		resp, err := c.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	waitRunning(t, c, ids...)

	// What a worker that ran the light unit's golden names in its pull.
	var worker goldenCache
	e, _, err := worker.get(light, needOf(light), 1)
	if err != nil {
		t.Fatal(err)
	}
	worker.release(e)
	lease := func(held []uint64) *Lease {
		t.Helper()
		l, err := c.Lease(LeaseRequest{API: APIVersion, Worker: "w", Golden: held})
		if err != nil || l == nil || len(l.Members) != 1 {
			t.Fatalf("lease: %+v %v", l, err)
		}
		return l
	}
	if l := lease(worker.held()); l.Members[0].CampaignID != ids[0] || l.GoldenFP != e.fp {
		t.Errorf("a request holding golden %016x got campaign %s (golden %016x), want the light unit %s",
			e.fp, l.Members[0].CampaignID, l.GoldenFP, ids[0])
	}
	if got := lease(nil).Members[0].CampaignID; got != ids[1] {
		t.Errorf("a request holding nothing got campaign %s, want the heavier unit %s", got, ids[1])
	}
}

// CampaignGolden reports the golden run a live campaign is planned
// against and the artifact options it was prepared with.
func CampaignGolden(c *Coordinator, id string) (*campaign.Golden, campaign.GoldenOptions) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.campaigns[id].golden
	return e.g, e.opts
}

// WaitRunning lends waitRunning to the package's external tests.
var WaitRunning = waitRunning

// waitRunning waits until every campaign is leasable.
func waitRunning(t *testing.T, c *Coordinator, ids ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			p, err := c.Progress(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.Status == StatusRunning {
				break
			}
			if p.Status != StatusPreparing || time.Now().After(deadline) {
				t.Fatalf("campaign never started running: %+v", p)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
