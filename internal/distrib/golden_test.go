package distrib

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// TestGoldenCacheBoundAndRetry drives the one golden cache both fleet
// roles use past its bound: a shape asked for twice is prepared once,
// the least recently released settled entry is evicted first, entries
// somebody pins and in-flight preparations (they have waiters) never
// are, and a failed preparation is dropped so a resubmission retries it
// instead of inheriting the error.
func TestGoldenCacheBoundAndRetry(t *testing.T) {
	shape := func(i uint64) CampaignSpec {
		return CampaignSpec{Workload: "sha", Model: "microarch", Config: campaign.Config{
			Injections: 4, Seed: 1, Target: fault.TargetRF, Window: 100, SnapshotEvery: 1000 + 100*i,
		}}
	}
	var c goldenCache
	cached := func(s CampaignSpec) bool {
		_, ok := c.entries[keyOf(s)]
		return ok
	}

	first, fresh, err := c.get(shape(0))
	if err != nil || !fresh {
		t.Fatalf("first request: fresh=%v err=%v", fresh, err)
	}
	again, fresh, err := c.get(shape(0))
	if err != nil || fresh || again != first {
		t.Fatalf("repeated shape: fresh=%v err=%v same entry=%v", fresh, err, again == first)
	}
	c.release(again) // still pinned once: first is held

	// A preparation somebody is still waiting on.
	inflight := shape(7777)
	c.entries[keyOf(inflight)] = &goldenEntry{key: keyOf(inflight), ready: make(chan struct{})}

	// Fill the bound with idle entries, released in order 1, 2, ...
	for i := uint64(1); i <= maxGoldenCache; i++ {
		e, fresh, err := c.get(shape(i))
		if err != nil || !fresh || e.g == nil || e.build == nil || e.fp != e.g.Fingerprint() {
			t.Fatalf("shape %d: fresh=%v err=%v entry=%+v", i, fresh, err, e)
		}
		c.release(e)
	}
	// Touch shape 1 again: shape 2 is now the least recently released.
	e, fresh, err := c.get(shape(1))
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
		e, _, err := c.get(shape(i))
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
		if _, fresh, err := c.get(bad); err == nil || !fresh {
			t.Errorf("failing shape, attempt %d: fresh=%v err=%v; want a fresh failure each time", attempt, fresh, err)
		}
	}
	if cached(bad) {
		t.Error("failed preparation stayed cached")
	}
}
