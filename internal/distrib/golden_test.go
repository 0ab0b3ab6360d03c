package distrib

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// TestGoldenCacheBoundAndRetry drives the one golden cache both fleet
// roles use past its bound: settled entries are evicted down to the
// bound, an in-flight entry (it has waiters) never is, a shape asked for
// twice is prepared once, and a failed preparation is dropped so a
// resubmission retries it instead of inheriting the error.
func TestGoldenCacheBoundAndRetry(t *testing.T) {
	shape := func(snapEvery uint64) CampaignSpec {
		return CampaignSpec{Workload: "caes", Model: "microarch", Config: campaign.Config{
			Injections: 4, Seed: 1, Target: fault.TargetRF, Window: 100, SnapshotEvery: snapEvery,
		}}
	}
	keyOf := func(s CampaignSpec) goldenKey {
		return goldenKey{workload: s.Workload, model: s.Model, setup: s.Setup, opts: campaign.GoldenOptionsFor(s.Config)}
	}
	var c goldenCache

	first, fresh, err := c.get(shape(1000))
	if err != nil || !fresh {
		t.Fatalf("first request: fresh=%v err=%v", fresh, err)
	}
	again, fresh, err := c.get(shape(1000))
	if err != nil || fresh || again != first {
		t.Fatalf("repeated shape: fresh=%v err=%v same entry=%v", fresh, err, again == first)
	}

	// A preparation somebody is still waiting on.
	inflight := shape(7777)
	c.entries[keyOf(inflight)] = &goldenEntry{ready: make(chan struct{})}

	for i := uint64(1); i <= maxGoldenCache+1; i++ {
		e, fresh, err := c.get(shape(1000 + 100*i))
		if err != nil || !fresh || e.g == nil || e.build == nil {
			t.Fatalf("shape %d: fresh=%v err=%v entry=%+v", i, fresh, err, e)
		}
		if _, ok := c.entries[keyOf(inflight)]; !ok {
			t.Fatalf("shape %d evicted the in-flight entry", i)
		}
		if n := len(c.entries); n > maxGoldenCache {
			t.Fatalf("shape %d left %d entries cached, bound %d", i, n, maxGoldenCache)
		}
	}
	// The first run is still good for whoever holds it, cached or not.
	if first.g.Cycles == 0 {
		t.Error("an evicted entry lost its golden run")
	}

	bad := shape(1000)
	bad.Workload = "no-such-workload"
	for attempt := 1; attempt <= 2; attempt++ {
		if _, fresh, err := c.get(bad); err == nil || !fresh {
			t.Errorf("failing shape, attempt %d: fresh=%v err=%v; want a fresh failure each time", attempt, fresh, err)
		}
	}
	if _, ok := c.entries[keyOf(bad)]; ok {
		t.Error("failed preparation stayed cached")
	}
}
