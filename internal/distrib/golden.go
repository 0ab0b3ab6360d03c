package distrib

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
)

// maxGoldenCache bounds the settled golden runs a cache keeps that
// nobody holds: golden artifacts (snapshots, pinout and lifetime
// traces) are a fleet process's largest allocation, and a long-lived
// coordinator or worker must not accumulate one per distinct simulator
// forever. Entries in use do not count against it. Both levels of
// Figures 1 and 2 over four benchmarks are 8 keys, one per benchmark
// and level, so a matrix that revisits a simulator finds its golden run
// still cached.
const maxGoldenCache = 16

// goldenKey identifies a simulator: the workload, the model and the
// parsed setup name, the triple core names a local sweep group by.
// Campaigns of one key replay against one golden run, whose artifacts
// cover what each of them needs, so they share one behavioural
// fingerprint too.
type goldenKey struct{ workload, model, setup string }

// keyOf is the golden key a campaign of spec replays against.
func keyOf(spec CampaignSpec) goldenKey {
	return goldenKey{spec.Workload, spec.Model, spec.Setup}
}

// needOf returns the golden artifacts a campaign of spec needs. An RTL
// run always records its L1D access timeline, as core's TABLE II golden
// runs do: it costs a few percent of an RTL preparation, less than the
// separate run an advance-to-use campaign would otherwise need.
func needOf(spec CampaignSpec) campaign.GoldenOptions {
	rtl := campaign.GoldenOptions{Timeline: spec.Model == core.ModelRTL.String()}
	return campaign.GoldenOptionsFor(spec.Config).Merge(rtl)
}

// goldenEntry is one golden run of a key, prepared with opts. ready
// closes once preparation has settled g (and its fingerprint fp) or
// failed; build is the factory g was run on. g, fp and build are
// written under the cache's mutex, and an entry is settled once g is.
type goldenEntry struct {
	key   goldenKey
	opts  campaign.GoldenOptions
	ready chan struct{}
	g     *campaign.Golden
	fp    uint64
	build campaign.Factory

	// Worker side: the simulators warmed against g. They are reused
	// across leases — a 4000-injection campaign is ~60 leases, and
	// rebuilding every simulator per lease would pay the program-load
	// cost hundreds of times for nothing (every replay starts from a
	// snapshot restore).
	sims []campaign.Simulator

	// Guarded by the cache's mutex: how many holders pin the entry (a
	// live campaign, a running lease) and the cache clock at its last
	// release.
	pins int
	used uint64
}

// goldenCache is the keyed, bounded golden-run cache of both fleet
// roles, one entry per simulator. An entry serves every need its
// artifacts cover; a need it does not cover gets a replacement prepared
// with the union of both, as a local sweep prepares one run per group
// with the union of its members' needs. Whoever holds the replaced
// entry keeps its reference. Preparation is single-flight: the first
// caller to miss runs PrepareGolden and everyone else waits on the
// entry, so campaigns of one simulator replay against one golden
// instance (fingerprint-stable) no matter how requests interleave.
// Every successful get pins its entry until the matching release; once
// the settled entries nobody pins outnumber maxGoldenCache, the least
// recently released go.
type goldenCache struct {
	evictions *obs.Counter // nil: evictions go uncounted (the worker)

	mu      sync.Mutex
	entries map[goldenKey]*goldenEntry
	clock   uint64
}

// get returns a settled golden run of spec's simulator whose artifacts
// cover need, pinned pins times until the caller releases each pin;
// fresh reports that this call prepared it (a miss) rather than joined
// an existing entry. A failed preparation leaves nothing to release and
// is dropped, so whoever asks next, a caller that waited on it
// included, retries the run instead of inheriting a stale error.
func (c *goldenCache) get(spec CampaignSpec, need campaign.GoldenOptions, pins int) (e *goldenEntry, fresh bool, err error) {
	key := keyOf(spec)
	c.mu.Lock()
	// Nobody replaces an entry in flight: wait for it, then look again.
	for e = c.entries[key]; e != nil && e.g == nil; e = c.entries[key] {
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
	}
	opts := need
	if e != nil {
		if opts = e.opts.Merge(need); opts == e.opts {
			e.pins += pins
			c.mu.Unlock()
			return e, false, nil
		}
	}
	e = &goldenEntry{key: key, opts: opts, ready: make(chan struct{}), pins: pins}
	if c.entries == nil {
		c.entries = make(map[goldenKey]*goldenEntry)
	}
	c.entries[key] = e
	c.mu.Unlock()

	build, err := spec.factory()
	var g *campaign.Golden
	if err == nil {
		g, err = campaign.PrepareGolden(build, opts)
	}
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else {
		e.build, e.g, e.fp = build, g, g.Fingerprint()
	}
	c.mu.Unlock()
	close(e.ready)
	return e, true, err
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
		if o.g != nil && o.pins == 0 {
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

// held lists the fingerprints of the golden runs the cache has ready:
// what a worker names in its lease requests.
func (c *goldenCache) held() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fps []uint64
	for _, e := range c.entries {
		if e.g != nil {
			fps = append(fps, e.fp)
		}
	}
	return fps
}
