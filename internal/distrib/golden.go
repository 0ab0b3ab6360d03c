package distrib

import (
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// maxGoldenCache bounds the settled golden runs a cache keeps that
// nobody holds: golden artifacts (snapshots, pinout and lifetime
// traces) are a fleet process's largest allocation, and a long-lived
// coordinator or worker must not accumulate one per distinct campaign
// shape forever. Entries in use do not count against it. Sixteen idle
// runs cover both levels of Figures 1 and 2 over four benchmarks (12
// keys), so a matrix that revisits a golden key finds it still cached.
const maxGoldenCache = 16

// goldenKey identifies a shareable golden run: campaigns agreeing on
// simulator identity and golden-artifact options replay against one
// golden instance, exactly like a sweep group.
type goldenKey struct {
	workload, model, setup string
	opts                   campaign.GoldenOptions
}

// id names the key on the wire: a worker lists the ids of the golden
// runs it holds in its lease requests. It covers the artifact options,
// so a plain run is never taken for the advance-to-use run of the same
// simulator, although both have one behavioural fingerprint.
func (k goldenKey) id() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", k)
	return h.Sum64()
}

// keyOf is the golden key a campaign of spec replays against.
func keyOf(spec CampaignSpec) goldenKey {
	return goldenKey{
		workload: spec.Workload, model: spec.Model, setup: spec.Setup,
		opts: campaign.GoldenOptionsFor(spec.Config),
	}
}

// goldenEntry is one golden shape's run, named id on the wire. ready
// closes once preparation has settled g (and its fingerprint fp) or
// err; build is the factory g was run on.
type goldenEntry struct {
	key   goldenKey
	id    uint64
	ready chan struct{}
	g     *campaign.Golden
	fp    uint64
	err   error
	build campaign.Factory

	// Worker side: the simulators warmed against g. They are reused
	// across leases — a 4000-injection campaign is ~60 leases, and
	// rebuilding every simulator per lease would pay the program-load
	// cost hundreds of times for nothing (every replay starts from a
	// snapshot restore).
	sims []campaign.Simulator

	// Guarded by the cache's mutex: how many holders pin the entry (a
	// live campaign, a running lease, a caller waiting on ready), whether
	// preparation succeeded, and the cache clock at its last release.
	pins    int
	settled bool
	used    uint64
}

// goldenCache is the keyed, bounded golden-run cache of both fleet
// roles. Preparation is single-flight: the first caller to claim a
// shape runs PrepareGolden and everyone else waits on the entry, so
// identical campaigns always replay against one golden instance
// (fingerprint-stable) no matter how requests interleave. Every
// successful get pins its entry until the matching release; once the
// settled entries nobody pins outnumber maxGoldenCache, the least
// recently released go.
type goldenCache struct {
	evictions *obs.Counter // nil: evictions go uncounted (the worker)

	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	clock   uint64
}

// get returns the settled entry for spec's golden shape, pinned until
// the caller releases it; fresh reports that this call prepared it (a
// miss) rather than joined an existing entry. A failed preparation
// leaves nothing to release and is dropped, so a later request retries
// the run instead of inheriting a stale error forever.
func (c *goldenCache) get(spec CampaignSpec) (e *goldenEntry, fresh bool, err error) {
	key := keyOf(spec)
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[goldenKey]*goldenEntry)
	}
	e, ok := c.entries[key]
	if !ok {
		e = &goldenEntry{key: key, id: key.id(), ready: make(chan struct{})}
		c.entries[key] = e
	}
	e.pins++
	c.mu.Unlock()
	if ok {
		<-e.ready
		return e, false, e.err
	}

	if e.build, e.err = spec.factory(); e.err == nil {
		if e.g, e.err = campaign.PrepareGolden(e.build, key.opts); e.err == nil {
			e.fp = e.g.Fingerprint()
		}
	}
	close(e.ready)

	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		delete(c.entries, key)
	} else {
		e.settled = true
	}
	return e, true, e.err
}

// release drops one pin on e and, once the settled entries nobody pins
// outnumber the bound, evicts the least recently released of them (one
// release idles at most one entry, so one eviction restores the bound).
// Whoever still uses an evicted entry holds its own reference, so
// eviction never invalidates a running campaign or lease.
func (c *goldenCache) release(e *goldenEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.pins--
	c.clock++
	e.used = c.clock
	idle, oldest := 0, e
	for _, o := range c.entries {
		if o.settled && o.pins == 0 {
			idle++
			if o.used < oldest.used {
				oldest = o
			}
		}
	}
	if idle > maxGoldenCache {
		delete(c.entries, oldest.key)
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
}

// held lists the ids of the golden runs the cache has ready: what a
// worker names in its lease requests.
func (c *goldenCache) held() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []uint64
	for _, e := range c.entries {
		if e.settled {
			ids = append(ids, e.id)
		}
	}
	return ids
}
