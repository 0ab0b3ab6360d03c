package campaign

// Shard execution: the engine state behind Sweep, exported so a
// distributed coordinator (internal/distrib) can dispatch replays to
// remote worker processes and merge their outcomes deterministically.
//
// A Planned campaign couples one golden run's artifacts with a
// validated config, the lazy fault plan, the pruning pre-classifier and
// the in-order outcome collector. NextReplay is the producer the replay
// pool pulls from — it resolves pruning verdicts producer-side and
// stops issuing once the sequential estimator converges — and Deliver
// is the consumer path every replayed outcome flows through (class
// fanout, sequential stopping, checkpoint streaming). Because the
// coordinator drives exactly this producer/consumer pair and the merge
// consumes outcomes strictly in fault-index order, a campaign sharded
// over any number of worker processes produces classification counts,
// outcome lists and report tables byte-identical to the same campaign
// run single-process.

import (
	"sync"
	"time"

	"repro/internal/fault"
)

// GoldenOptionsFor derives the golden-artifact options one campaign
// needs: the snapshot schedule, the L1D timeline under AdvanceToUse,
// state hashes under EarlyStop and the lifetime trace under Prune. Both
// Sweep and a distributed worker preparing its local golden copy use
// it, so the two golden runs capture identical artifacts.
func GoldenOptionsFor(cfg Config) GoldenOptions {
	opts := GoldenOptions{
		SnapshotEvery: cfg.SnapshotEvery,
		Timeline:      cfg.AdvanceToUse,
		Lifetime:      cfg.Prune != PruneOff || cfg.AVF,
	}
	if cfg.EarlyStop {
		opts.HashEvery = defaultHashEvery
	}
	return opts
}

// Planned is one campaign planned against a golden run: the validated
// config, lazy fault plan, pruning state and streaming outcome
// collector. It is safe for concurrent use: NextReplay and Deliver may
// be called from any goroutine (the replay pool, a coordinator's HTTP
// handlers).
type Planned struct {
	mu  sync.Mutex
	cfg Config
	g   *Golden
	fp  uint64 // g.Fingerprint(), stamped on every checkpoint record
	pl  *lazyPlan
	seq *seqStop
	pr  *pruner

	nextIdx  int
	stopHint int // checkpointed stopping index, -1 when none

	// Injection-free estimate attached to Result under Config.AVF,
	// computed at plan time (zero replays).
	avfInfo *AVFInfo

	// What the pool's replayers did for this campaign, folded in by
	// note.
	stats ReplayStats

	// Checkpointing, attached by OpenCheckpoint: the shard is opened by
	// the first record written, so a campaign that resumes complete (or
	// never gets its turn before an interrupt) holds no file handle.
	ckptDir string
	ckptKey string
	ckpt    *shardWriter
	resumed int
}

// PlanCampaign validates cfg and plans it against this golden run,
// returning the campaign's dispatchable state. The golden run must have
// been prepared with (at least) GoldenOptionsFor(cfg)'s artifacts.
func (g *Golden) PlanCampaign(cfg Config) (*Planned, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := g.planner(cfg)
	if err != nil {
		return nil, err
	}
	seq, err := newSeqStop(cfg)
	if err != nil {
		return nil, err
	}
	pr, err := newPruner(g, pl, cfg)
	if err != nil {
		return nil, err
	}
	var info *AVFInfo
	if cfg.AVF {
		if info, err = buildAVFInfo(g, pl, cfg); err != nil {
			return nil, err
		}
		if cfg.AVFPrior {
			seedAVFPrior(seq, info, cfg)
		}
	}
	return &Planned{cfg: cfg, g: g, fp: g.Fingerprint(), pl: pl, seq: seq, pr: pr, stopHint: -1, avfInfo: info}, nil
}

// Config returns the validated campaign config (defaults filled).
func (p *Planned) Config() Config { return p.cfg }

// Injections returns the planned sample size.
func (p *Planned) Injections() int { return p.pl.n }

// GoldenFingerprint returns the backing golden run's fingerprint — the
// value a shard carries so remote workers can verify golden identity.
func (p *Planned) GoldenFingerprint() uint64 { return p.fp }

// Spec returns planned injection i — the coordinator's source of truth
// when rebuilding a remote outcome for delivery.
func (p *Planned) Spec(i int) fault.Spec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pl.spec(i)
}

// NextReplay returns the next plan index that needs an actual replay,
// advancing past indices the pruning pre-classifier resolves
// injection-lessly (their synthetic outcomes are delivered internally)
// and past indices already delivered (checkpoint resume). It returns
// ok=false once the plan is exhausted, the sequential stop has
// triggered, or a checkpointed stopping index is reached — terminally:
// a false return never becomes true again.
func (p *Planned) NextReplay() (idx int, spec fault.Spec, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	limit := p.pl.n
	if p.stopHint >= 0 && p.stopHint < limit {
		limit = p.stopHint
	}
	for p.nextIdx < limit && !p.seq.stopped() {
		i := p.nextIdx
		p.nextIdx++
		if p.seq.done(i) {
			continue
		}
		s := p.pl.spec(i)
		// Protection overhead faults (check bits / checker logic) exist
		// only in the scheme model: classify producer-side, never
		// dispatch them to a simulator.
		if oc, ok := p.pl.overheadOutcome(s); ok {
			p.seq.deliver(i, oc)
			continue
		}
		switch act, oc := p.pr.decide(i, s); act {
		case pruneSynthetic:
			p.seq.deliver(i, oc)
			continue
		case pruneSkip:
			continue
		}
		return i, s, true
	}
	return 0, fault.Spec{}, false
}

// Deliver records one replayed outcome: the pruning state fans the
// representative's outcome over its equivalence class, the sequential
// collector consumes everything in plan order, and — when a checkpoint
// is attached — the replayed outcome is streamed to the campaign's shard
// (only the stamped representative reaches it; extrapolation is
// re-derived on resume). Duplicate deliveries of one index are ignored,
// so a re-issued lease whose original worker was merely slow (not dead)
// stays harmless.
func (p *Planned) Deliver(idx int, oc RunOutcome) error {
	oc = deliverReplay(p.pr, p.seq, idx, oc)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckptDir == "" {
		return nil
	}
	return p.writeRecord(outcomeRecord(p.ckptKey, idx, oc, p.cfg, p.fp))
}

// Done reports whether outcome idx has been delivered.
func (p *Planned) Done(idx int) bool { return p.seq.done(idx) }

// Delivered reports how many outcomes have been delivered so far —
// synthetic, extrapolated and replayed alike — the campaign's live
// progress numerator (Injections is the denominator; a sequential stop
// may finish the campaign below it).
func (p *Planned) Delivered() int { return p.seq.count() }

// Stopped reports whether the sequential stop has triggered: no further
// replays are needed beyond those already issued.
func (p *Planned) Stopped() bool { return p.seq.stopped() }

// Resumed reports how many replays were restored from checkpoint shards
// by OpenCheckpoint instead of re-executed.
func (p *Planned) Resumed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resumed
}

// work describes this campaign to the replay pool: replays pulled from
// NextReplay on simulators built by factory, outcomes into Deliver, each
// replayer's accounting into note. name prefixes errors.
func (p *Planned) work(name string, factory Factory) *Work {
	return &Work{
		Name: name, Golden: p.g, Config: p.cfg, Factory: factory,
		Next: p.NextReplay, Deliver: p.Deliver, Size: p.pl.n,
		stopped: p.Stopped, note: p.note,
	}
}

// note folds one replayer's accounting into the campaign.
func (p *Planned) note(st ReplayStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.add(st)
}

// replayStats returns what the pool's replayers have done for this
// campaign so far.
func (p *Planned) replayStats() ReplayStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Result aggregates the campaign once every needed outcome has been
// delivered. elapsed is the replay phase's attributed wall time.
func (p *Planned) Result(elapsed time.Duration) (*Result, error) {
	res, err := aggregate(p.cfg, p.g, p.pl, p.seq, p.pr, elapsed)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	res.BatchedRuns = p.stats.Batched
	res.PeeledRuns = p.stats.Peeled
	if p.stats.Lockstep > 0 {
		res.LaneOccupancy = float64(p.stats.LaneCycles) / float64(p.stats.Lockstep)
	}
	res.AVF = p.avfInfo
	return res, nil
}

// OpenCheckpoint loads matching records for this campaign (keyed by
// key) from dir's JSONL shards into the collector — validating each
// against the freshly derived plan, config and golden fingerprint
// exactly as Sweep's resume does, being the one-campaign call of the
// same loader — and arms streaming so every subsequently delivered
// replay is durable. Call before dispatching.
func (p *Planned) OpenCheckpoint(dir, key string) error {
	return openCheckpoints(dir, map[string]*Planned{key: p})
}

func (p *Planned) checkpointing() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ckptDir != ""
}

// writeRecord appends r to the campaign's shard, opening it on first
// use. The caller holds p.mu.
func (p *Planned) writeRecord(r ckptRecord) error {
	if p.ckpt == nil {
		w, err := newShardWriter(p.ckptDir, shardName(p.ckptKey))
		if err != nil {
			return err
		}
		p.ckpt = w
	}
	return p.ckpt.encode(r)
}

// CloseCheckpoint appends the campaign's sequential stopping record
// (when one was decided this run, so a resume neither re-derives the
// index nor re-executes the skipped tail) and flushes and closes the
// shard. Safe to call without an open checkpoint.
func (p *Planned) CloseCheckpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ckptDir == "" {
		return nil
	}
	var err error
	if s := p.seq.stopIndex(); s > 0 && s != p.stopHint {
		err = p.writeRecord(stopRecord(p.ckptKey, s, p.cfg, p.pl.spec(s-1), p.fp))
	}
	p.ckptDir = ""
	if p.ckpt != nil {
		// A failed close means completed records may not be durable, so
		// it must reach the caller.
		if cerr := p.ckpt.close(); err == nil {
			err = cerr
		}
		p.ckpt = nil
	}
	return err
}
