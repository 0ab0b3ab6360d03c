package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
)

// ErrInterrupted is returned by Sweep when SweepOptions.Stop fires
// before the matrix completes: in-flight replays drained, checkpoint
// shards flushed and closed, results discarded. A later sweep over the
// same matrix and checkpoint directory resumes from the flushed shards.
var ErrInterrupted = errors.New("campaign: interrupted before completion")

// SweepCampaign is one campaign of a sweep matrix.
type SweepCampaign struct {
	// Key uniquely identifies the campaign within the sweep (e.g.
	// "fig1/GeFIN/qsort"); it names the campaign in Results and in
	// checkpoint records.
	Key string

	// Group is the golden-sharing key. Campaigns with the same Group
	// MUST be built from behaviourally identical factories (same
	// model, program and setup): the sweep runs ONE golden run per
	// group and shares its snapshots, pinout trace, program output,
	// L1D timeline and cycle count across every member.
	Group string

	Factory Factory
	Config  Config
}

// GoldenInfo summarises one shared golden run — the measured cost TABLE
// II reports, exposed so callers never re-simulate a golden run the
// sweep already executed.
type GoldenInfo struct {
	Group   string
	Cycles  uint64
	Txns    int
	Elapsed time.Duration
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	// Results maps each campaign Key to its result. Per-campaign
	// Elapsed/AvgSecPerRun are attributed busy time (the sum of that
	// campaign's replay wall times across the shared pool), not the
	// sweep's wall clock; replays resumed from checkpoints contribute
	// nothing, so a fully resumed campaign reports both as zero.
	Results map[string]*Result

	// Goldens maps each golden-sharing Group to its measured run. Golden
	// runs execute concurrently on the pool, so Elapsed values include
	// whatever contention the machine exhibits under parallel load.
	Goldens map[string]GoldenInfo

	// GoldenRuns counts golden runs actually executed — the sweep's
	// whole point is that this is #groups, not #campaigns.
	GoldenRuns int

	// Resumed counts replays restored from checkpoint shards instead
	// of re-executed.
	Resumed int

	Elapsed time.Duration
}

// SweepOptions parameterises the shared replay pool.
type SweepOptions struct {
	// Workers bounds global sweep parallelism; zero uses GOMAXPROCS.
	// Per-campaign Config.Workers is ignored: all replays of all
	// campaigns go through this one pool, so stragglers of one
	// campaign never idle workers that could run another's replays.
	Workers int

	// CheckpointDir enables streaming per-run outcome checkpoints:
	// every completed replay is appended to a JSONL shard in this
	// directory, and a later sweep over the same matrix resumes by
	// loading matching records instead of re-simulating. Empty
	// disables checkpointing.
	CheckpointDir string

	// Stop, when non-nil, requests a graceful early exit: once the
	// channel is closed the producer stops issuing replays, in-flight
	// replays drain, checkpoint shards are flushed and closed, and
	// Sweep returns ErrInterrupted. The cmd entry points wire
	// SIGINT/SIGTERM to it so an interrupted local campaign resumes
	// cleanly from its checkpoints.
	Stop <-chan struct{}
}

// sweepGroup is one golden-sharing group: the merged artifact needs of
// its members and, after the golden phase, the run that serves them.
type sweepGroup struct {
	name    string
	factory Factory
	opts    GoldenOptions
	golden  *Golden
	members []*SweepCampaign
}

// Merge widens o to also serve a campaign that needs b. Every artifact
// is pure observation, so one golden run recorded with the union serves
// the group's plainer members too: a run prepared with o covers a need
// b exactly when o.Merge(b) == o.
func (o GoldenOptions) Merge(b GoldenOptions) GoldenOptions {
	o.Timeline = o.Timeline || b.Timeline
	o.Lifetime = o.Lifetime || b.Lifetime
	if o.HashEvery == 0 {
		o.HashEvery = b.HashEvery
	}
	return o
}

// Sweep plans a matrix of campaigns, executes one golden run per Group,
// shares its artifacts across every member campaign, and dispatches ALL
// replays through one global replay pool. Each campaign's result is
// bit-identical to sweeping it alone (Run) with the same seed: the fault
// plan depends only on seed + golden cycle count, which sharing
// preserves.
func Sweep(campaigns []SweepCampaign, opt SweepOptions) (*SweepResult, error) {
	if len(campaigns) == 0 {
		return nil, fmt.Errorf("campaign: empty sweep")
	}
	if opt.Workers <= 0 {
		opt.Workers = defaultWorkers()
	}
	// Work on a copy: validation fills config defaults in place, and the
	// caller's matrix must not change under it.
	campaigns = append([]SweepCampaign(nil), campaigns...)
	seen := make(map[string]bool, len(campaigns))
	for i := range campaigns {
		c := &campaigns[i]
		if c.Key == "" || c.Group == "" || c.Factory == nil {
			return nil, fmt.Errorf("campaign: sweep campaign %d needs Key, Group and Factory", i)
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("campaign: duplicate sweep key %q", c.Key)
		}
		seen[c.Key] = true
		if err := c.Config.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, err)
		}
	}

	start := time.Now()

	// ------------------------------------------- golden phase (1/group)
	groups := make(map[string]*sweepGroup)
	var order []*sweepGroup
	for i := range campaigns {
		c := &campaigns[i]
		need := GoldenOptionsFor(c.Config)
		gr, ok := groups[c.Group]
		if !ok {
			gr = &sweepGroup{name: c.Group, factory: c.Factory, opts: need}
			groups[c.Group] = gr
			order = append(order, gr)
		}
		gr.opts = gr.opts.Merge(need)
		gr.members = append(gr.members, c)
	}
	// Groups are independent, so golden runs fan out too — with the
	// default bench list the RTL goldens dominate this phase, and running
	// them sequentially would idle every other worker.
	err := fanOut(opt.Workers, len(order), func(i int) error {
		gr := order[i]
		g, err := PrepareGolden(gr.factory, gr.opts)
		if err != nil {
			return fmt.Errorf("campaign: golden run for group %q: %w", gr.name, err)
		}
		gr.golden = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	goldens := make(map[string]GoldenInfo, len(groups))
	for _, gr := range order {
		g := gr.golden
		goldens[gr.name] = GoldenInfo{Group: gr.name, Cycles: g.Cycles, Txns: g.Txns, Elapsed: g.Elapsed}
	}

	// ------------------------------------- fault plans + checkpoint resume
	// Plans are lazy generators: a sequentially stopped campaign never
	// materialises the specs it does not run. The pool's work list is
	// group-major, so each goroutine sees a non-decreasing group sequence
	// and at most a few goldens are hot at once; it moves on from a
	// campaign the moment its sequential stop triggers (or its
	// checkpointed stopping index is reached), so stopped campaigns stop
	// consuming the pool.
	planned := make(map[string]*Planned, len(campaigns))
	work := make([]*Work, 0, len(campaigns))
	for _, gr := range order {
		for _, c := range gr.members {
			p, err := gr.golden.PlanCampaign(c.Config)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Key, err)
			}
			planned[c.Key] = p
			work = append(work, p.work(c.Key, c.Factory))
		}
	}
	if opt.CheckpointDir != "" {
		if err := openCheckpoints(opt.CheckpointDir, planned); err != nil {
			return nil, err
		}
	}

	// -------------------------------------- replay phase (global pool)
	// Per-campaign Config.Workers is ignored: one pool serves every
	// campaign. Whatever happens, every completed replay — and each
	// campaign's stopping state — is made durable before returning.
	err = ReplayPool(opt.Workers, opt.Stop, work...)
	for _, p := range planned {
		if cerr := p.CloseCheckpoint(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		// Including ErrInterrupted: partial results would be misleading,
		// so none are returned.
		return nil, err
	}

	// ------------------------------------------------------ aggregation
	sr := &SweepResult{
		Results:    make(map[string]*Result, len(campaigns)),
		Goldens:    goldens,
		GoldenRuns: len(groups),
		Elapsed:    time.Since(start),
	}
	for key, p := range planned {
		st := p.replayStats()
		res, err := p.Result(st.Busy)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		// Busy time only accrues on replays executed this sweep, so the
		// per-run average must use that count, not the total: a fully
		// resumed campaign reports 0, never a bogus tiny throughput.
		res.AvgSecPerRun = 0
		if st.Executed > 0 {
			res.AvgSecPerRun = st.Busy.Seconds() / float64(st.Executed)
		}
		sr.Results[key] = res
		sr.Resumed += p.Resumed()
	}
	return sr, nil
}

// Run executes one standalone campaign — a Sweep of one on cfg.Workers
// goroutines, so its outcomes, stopping index and timing fields are by
// construction what the same campaign reports inside a larger sweep.
// The campaign is named "run" in errors.
func Run(factory Factory, cfg Config) (*Result, error) {
	const key = "run"
	sr, err := Sweep([]SweepCampaign{{Key: key, Group: key, Factory: factory, Config: cfg}},
		SweepOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return sr.Results[key], nil
}

// ---------------------------------------------------------- checkpoints

// ckptRecord is one streamed replay outcome (or, with Kind "stop", a
// campaign's sequential stopping state). The planned spec and the
// campaign's ckptPin are embedded so resume can self-validate: a record
// is only accepted when the freshly derived plan and pin agree with it,
// which makes stale shards (different seed, window, matrix, or
// simulator/workload behavior) harmless. Stop records additionally
// carry the stopPin, so a changed margin or confidence re-derives the
// index instead of trusting a stale one. Keys added after the first
// shards were written decode to their zero values in older records,
// which only ever match campaigns with that feature off.
type ckptRecord struct {
	Campaign string `json:"campaign"`
	Index    int    `json:"index"`
	Target   int    `json:"target"`
	Bit      int    `json:"bit"`
	Cycle    uint64 `json:"cycle"`
	Model    int    `json:"model"`
	Width    int    `json:"width"`
	Stuck    int    `json:"stuck"`
	Span     uint64 `json:"span"`
	ckptPin
	Class    int    `json:"class"`
	EndCycle uint64 `json:"endCycle"`

	Kind      string `json:"kind,omitempty"` // "" = outcome, ckptKindStop = stopping state
	Converged bool   `json:"conv,omitempty"`
	// CSize is a class representative's class size, so a resumed
	// campaign re-weights its estimator identically. Only replayed
	// outcomes reach shards; dead-pruned and extrapolated outcomes are
	// re-derived on resume.
	CSize int `json:"csize,omitempty"`
	stopPin
}

// ckptPin is what every checkpoint record must match besides its
// planned spec: the classification config, which the spec does not
// depend on, and the backing golden run's fingerprint.
type ckptPin struct {
	Window  uint64 `json:"window"`
	Obs     int    `json:"obs"`
	Compare int    `json:"compare"`
	Golden  uint64 `json:"golden"` // Golden.Fingerprint() of the backing run
	// EarlyStop: convergence exits change EndCycle accounting.
	EarlyStop bool `json:"estop,omitempty"`
	// Prune: pruning changes which indices replay and how outcomes weigh.
	Prune int `json:"prune,omitempty"`
	// Protect must stay empty. Shards written when the engine replayed
	// protected campaigns carry their plan here ("rf=parity") and hold
	// post-protection classes, DUE included; such a campaign shares its
	// key with the unprotected twin a derived arm now comes from, so its
	// records must never merge into that twin.
	Protect string `json:"protect,omitempty"`
}

// stopPin is the stopping rule a stop record must also match; outcome
// records leave it zero. AvfPrior belongs here: seeding the estimator
// with the AVF prediction moves the stopping index but never a class.
type stopPin struct {
	TargetErr float64 `json:"terr,omitempty"`
	MinRuns   int     `json:"minRuns,omitempty"`
	Conf      float64 `json:"conf,omitempty"`
	AvfPrior  bool    `json:"avfPrior,omitempty"`
}

// ckptKindStop marks a record carrying a campaign's sequential stopping
// index (in Index) instead of a replay outcome.
const ckptKindStop = "stop"

// spec reconstructs the planned injection the record describes. Records
// written before the fault-model fields existed decode to Model 0 and
// never equal a freshly planned spec (whose model is always set), so
// pre-model shards are discarded rather than misread as transients.
func (r ckptRecord) spec() fault.Spec {
	return fault.Spec{
		Target: fault.Target(r.Target), Bit: r.Bit, Cycle: r.Cycle,
		Model: fault.Model(r.Model), Width: r.Width, Stuck: r.Stuck, Span: r.Span,
	}
}

const shardPrefix = "shard-"

type shardWriter struct {
	f   *os.File
	buf *bufio.Writer
	enc *json.Encoder
}

func newShardWriter(dir, name string) (*shardWriter, error) {
	f, err := os.OpenFile(
		filepath.Join(dir, fmt.Sprintf("%s%s.jsonl", shardPrefix, name)),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint shard: %w", err)
	}
	buf := bufio.NewWriter(f)
	return &shardWriter{f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

func (w *shardWriter) encode(r ckptRecord) error {
	if err := w.enc.Encode(r); err != nil {
		return fmt.Errorf("campaign: checkpoint write: %w", err)
	}
	return nil
}

// record starts campaign p's checkpoint record for plan index idx,
// whose planned spec is spec.
func (p *Planned) record(idx int, spec fault.Spec) ckptRecord {
	return ckptRecord{
		Campaign: p.ckptKey, Index: idx,
		Target: int(spec.Target), Bit: spec.Bit, Cycle: spec.Cycle,
		Model: int(spec.Model), Width: spec.Width, Stuck: spec.Stuck, Span: spec.Span,
		ckptPin: p.pin,
	}
}

// outcomeRecord builds one replayed outcome's record.
func (p *Planned) outcomeRecord(idx int, oc RunOutcome) ckptRecord {
	r := p.record(idx, oc.Spec)
	r.Class, r.EndCycle, r.Converged, r.CSize = int(oc.Class), oc.EndCycle, oc.Converged, oc.ClassSize
	return r
}

// stopRecord builds the campaign's sequential-stopping record for
// stopping index idx. The spec at the last counted index pins the
// fault-plan identity (seed, target, model parameters, distribution): a
// stop record from a different plan must not cap a resumed campaign,
// exactly as outcome records self-validate.
func (p *Planned) stopRecord(idx int) ckptRecord {
	r := p.record(idx, p.pl.spec(idx-1))
	r.Kind, r.stopPin = ckptKindStop, p.stopPin
	return r
}

// shardName maps an arbitrary campaign key onto a filesystem-safe shard
// name. Distinct keys can sanitise alike ("a/b" and "a-b"), and two
// buffered writers appending to one file would tear each other's lines,
// so a hash of the raw key keeps the names distinct. The loader globs
// shard-*.jsonl and routes by the key inside each record: naming is not
// format.
func shardName(key string) string {
	h := fnv.New32a()
	h.Write([]byte(key))
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, key)
	return fmt.Sprintf("%s-%08x", safe, h.Sum32())
}

// close flushes and closes the shard; a failure here means completed
// records may not be durable, so it must reach the caller.
func (w *shardWriter) close() error {
	ferr := w.buf.Flush()
	cerr := w.f.Close()
	if ferr != nil {
		return fmt.Errorf("campaign: checkpoint flush: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("campaign: checkpoint close: %w", cerr)
	}
	return nil
}

// openCheckpoints resumes every campaign in byKey from dir's JSONL
// shards in ONE pass over the directory, routing each record to its
// campaign by key, then arms checkpoint streaming on each. Records that
// match no campaign key, planned spec or classification config are
// skipped silently. Delivery order does not matter: each collector's
// estimator consumes outcomes strictly in plan order, so a resumed
// campaign re-derives the exact stopping index the original run chose
// (a matching stop record short-circuits that by capping the producer).
func openCheckpoints(dir string, byKey map[string]*Planned) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	for _, p := range byKey {
		if p.checkpointing() {
			return fmt.Errorf("campaign: checkpoint already open")
		}
	}
	err := forEachCkptRecord(dir, func(r ckptRecord) {
		if p := byKey[r.Campaign]; p != nil {
			p.applyRecord(r)
		}
	})
	if err != nil {
		return err
	}
	for key, p := range byKey {
		p.mu.Lock()
		// Shards record class representatives only; re-derive the
		// extrapolated member outcomes of every resumed representative.
		for i, ok := range p.have {
			if ok {
				p.fanout(i)
			}
		}
		p.ckptDir, p.ckptKey = dir, key
		p.mu.Unlock()
	}
	return nil
}

// forEachCkptRecord walks dir's JSONL shards in name order, decoding
// every well-formed record (a torn final line of an interrupted run is
// skipped silently).
func forEachCkptRecord(dir string, fn func(ckptRecord)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), shardPrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("campaign: checkpoint shard: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var r ckptRecord
			if json.Unmarshal([]byte(line), &r) != nil {
				continue
			}
			fn(r)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("campaign: checkpoint shard %s: %w", name, err)
		}
	}
	return nil
}

// applyRecord validates one decoded record against the campaign's
// freshly derived plan and pins and, when everything agrees, delivers it
// (outcome records) or pins the stopping index (stop records).
// Mismatching records, and outcome records whose class is out of range,
// are skipped silently — stale or damaged shards are harmless by
// construction.
func (p *Planned) applyRecord(r ckptRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.ckptPin != p.pin {
		return // a different classification config or golden run
	}
	if r.Kind == ckptKindStop {
		// A different stopping rule re-derives the index; a stop record
		// from a different fault plan must not cap this one.
		if r.stopPin == p.stopPin && r.Index > 0 && r.Index <= p.pl.n && p.pl.spec(r.Index-1) == r.spec() {
			p.stopHint = r.Index
		}
		return
	}
	if r.Index < 0 || r.Index >= p.pl.n || !Class(r.Class).Valid() {
		return
	}
	spec := p.pl.spec(r.Index)
	if spec != r.spec() {
		return // stale shard from a different plan or fault model
	}
	if !p.have[r.Index] {
		p.resumed++
	}
	p.collect(r.Index, RunOutcome{
		Spec: spec, Class: Class(r.Class), EndCycle: r.EndCycle,
		Converged: r.Converged, ClassSize: r.CSize,
	})
}
