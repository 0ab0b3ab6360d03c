package distrib

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// maxGoldenCache bounds a golden cache: golden artifacts (snapshots,
// pinout and lifetime traces) are a fleet process's largest allocation,
// and a long-lived coordinator or worker must not accumulate one per
// distinct campaign shape forever.
const maxGoldenCache = 4

// goldenKey identifies a shareable golden run: campaigns agreeing on
// simulator identity and golden-artifact options replay against one
// golden instance, exactly like a sweep group.
type goldenKey struct {
	workload, model, setup string
	opts                   campaign.GoldenOptions
}

// goldenEntry is one golden shape's run. ready closes once preparation
// has settled g or err; build is the factory g was run on.
type goldenEntry struct {
	ready chan struct{}
	g     *campaign.Golden
	err   error
	build campaign.Factory

	// Worker side: the simulators warmed against g. They are reused
	// across leases — a 4000-injection campaign is ~60 leases, and
	// rebuilding every simulator per lease would pay the program-load
	// cost hundreds of times for nothing (every replay starts from a
	// snapshot restore).
	sims []campaign.Simulator
}

// goldenCache is the keyed, bounded golden-run cache of both fleet
// roles. Preparation is single-flight: the first caller to claim a
// shape runs PrepareGolden and everyone else waits on the entry, so
// identical campaigns always replay against one golden instance
// (fingerprint-stable) no matter how requests interleave.
type goldenCache struct {
	evictions *obs.Counter // nil: evictions go uncounted (the worker)

	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
}

// get returns the settled entry for spec's golden shape; fresh reports
// that this call prepared it (a miss) rather than joined an existing
// entry.
func (c *goldenCache) get(spec CampaignSpec) (e *goldenEntry, fresh bool, err error) {
	key := goldenKey{
		workload: spec.Workload, model: spec.Model, setup: spec.Setup,
		opts: campaign.GoldenOptionsFor(spec.Config),
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[goldenKey]*goldenEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &goldenEntry{ready: make(chan struct{})}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		<-e.ready
		return e, false, e.err
	}

	if e.build, e.err = spec.factory(); e.err == nil {
		e.g, e.err = campaign.PrepareGolden(e.build, key.opts)
	}
	close(e.ready)

	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		// Drop the failed entry so a later request retries the run instead
		// of inheriting a stale error forever.
		delete(c.entries, key)
		return e, true, e.err
	}
	// Only settled entries are evicted — an in-flight one has waiters —
	// and whoever is using an entry holds its own reference, so eviction
	// never invalidates a running campaign or lease.
	for k, old := range c.entries {
		if len(c.entries) <= maxGoldenCache {
			break
		}
		if k == key {
			continue
		}
		select {
		case <-old.ready:
			delete(c.entries, k)
			if c.evictions != nil {
				c.evictions.Inc()
			}
		default:
		}
	}
	return e, true, nil
}
