package campaign

// Shard execution: the engine state behind Sweep, exported so a
// distributed coordinator (internal/distrib) can dispatch replays to
// remote worker processes and merge their outcomes deterministically.
//
// A Planned campaign couples one golden run's artifacts with a
// validated config, the fault plan, each planned fault's pruning role,
// the in-order outcome collector and the checkpoint stream. Everything
// a campaign changes as it runs is under one lock; the plan and the
// roles, both fixed at plan time, never change. NextReplay is the
// producer the replay pool pulls from — it delivers the synthetic
// outcomes of dead faults, skips class members and stops issuing once
// the sequential estimator converges — and Deliver is the consumer path
// every replayed outcome flows through (class fanout, sequential
// stopping, checkpoint streaming). Because the coordinator drives
// exactly this producer/consumer pair and the collector consumes
// outcomes strictly in fault-index order, a campaign sharded over any
// number of worker processes produces classification counts, outcome
// lists and report tables byte-identical to the same campaign run
// single-process.

import (
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/stats"
)

// GoldenOptionsFor derives the golden-artifact options one campaign
// needs: the L1D timeline under AdvanceToUse, state hashes under
// EarlyStop and the lifetime trace under Prune. Both Sweep and a
// distributed worker preparing its local golden copy use it, so the two
// golden runs capture identical artifacts.
func GoldenOptionsFor(cfg Config) GoldenOptions {
	opts := GoldenOptions{
		Timeline: cfg.AdvanceToUse,
		Lifetime: cfg.Prune != PruneOff || cfg.AVF,
	}
	if cfg.EarlyStop {
		opts.HashEvery = defaultHashEvery
	}
	return opts
}

// Planned is one campaign planned against a golden run: the validated
// config, fault plan, pruning roles, in-order outcome collector and
// checkpoint stream. It is safe for concurrent use: NextReplay and
// Deliver may be called from any goroutine (the replay pool, a
// coordinator's HTTP handlers). Its one mutex guards everything a
// campaign changes as it runs; callers that hold a lock of their own
// (the pool's scheduler, the coordinator) take it before this one.
type Planned struct {
	// Fixed at plan time, so read without the lock.
	cfg     Config
	g       *Golden
	plan    []fault.Spec
	pr      *pruner
	pin     ckptPin // what every checkpoint record must match
	minRuns int     // sequential stopping floor, defaults filled
	avfInfo *AVFInfo

	mu sync.Mutex

	// The collector: outcomes arrive in any order, but the estimator
	// only ever consumes them in plan order (the frontier), so the
	// stopping index — the first prefix length at which every class
	// proportion is within the target margin — is a deterministic
	// function of the plan, immune to worker scheduling. With
	// TargetError == 0 est is nil and the campaign never stops early.
	outcomes  []RunOutcome
	have      []bool
	delivered int
	frontier  int
	stopAt    int // -1 until decided
	est       *stats.Sequential

	nextIdx int

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
	plan, err := g.planner(cfg)
	if err != nil {
		return nil, err
	}
	pr, err := newPruner(g, plan, cfg)
	if err != nil {
		return nil, err
	}
	p := &Planned{
		cfg: cfg, g: g, plan: plan, pr: pr,
		pin: ckptPin{
			Window: cfg.Window, Obs: int(cfg.Obs), Compare: int(cfg.CompareMode),
			Golden: g.Fingerprint(), EarlyStop: cfg.EarlyStop,
			Prune: int(cfg.Prune),
		},
		outcomes: make([]RunOutcome, cfg.Injections),
		have:     make([]bool, cfg.Injections),
		stopAt:   -1,
	}
	if cfg.TargetError > 0 {
		p.minRuns = cfg.MinRuns
		if p.minRuns == 0 {
			p.minRuns = defaultMinRuns
		}
		if p.est, err = stats.NewSequential(cfg.Confidence, classUniverse...); err != nil {
			return nil, err
		}
	}
	if cfg.AVF {
		if p.avfInfo, err = buildAVFInfo(g, plan, cfg); err != nil {
			return nil, err
		}
		if cfg.AVFPrior {
			seedAVFPrior(p.est, p.avfInfo, cfg, p.minRuns)
		}
	}
	return p, nil
}

// Config returns the validated campaign config (defaults filled).
func (p *Planned) Config() Config { return p.cfg }

// Spec returns planned injection i — the coordinator's source of truth
// when rebuilding a remote outcome for delivery.
func (p *Planned) Spec(i int) fault.Spec { return p.plan[i] }

// NextReplay returns the next plan index that needs an actual replay,
// advancing past dead faults (their synthetic outcomes are delivered
// here), class members (their representative's fanout delivers them)
// and indices already delivered (checkpoint resume). It returns
// ok=false once the plan is exhausted or the sequential stop has
// triggered — terminally: a false return never becomes true again.
func (p *Planned) NextReplay() (idx int, spec fault.Spec, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.nextIdx < len(p.plan) && p.stopAt < 0 {
		i := p.nextIdx
		p.nextIdx++
		if p.have[i] {
			continue
		}
		switch p.pr.roleOf(i) {
		case roleDead:
			p.collect(i, syntheticDead(p.plan[i]))
			continue
		case roleMember:
			continue
		}
		return i, p.plan[i], true
	}
	return 0, fault.Spec{}, false
}

// Deliver records one replayed outcome: the collector consumes
// everything in plan order, a class representative's outcome is fanned
// over its class members, and — when a checkpoint is attached — the
// replayed outcome is streamed to the campaign's shard (only the
// representative reaches it; class sizes and extrapolation are
// re-derived on resume). Duplicate deliveries of one index are ignored,
// so a re-issued lease whose original worker was merely slow (not dead)
// stays harmless.
func (p *Planned) Deliver(idx int, oc RunOutcome) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.collect(idx, oc)
	p.fanout(idx)
	if p.ckptDir == "" {
		return nil
	}
	return p.writeRecord(p.outcomeRecord(idx, oc))
}

// collect records outcome idx — a class representative stamped with
// its class size — and advances the in-order frontier, deciding the
// stopping index when the estimator converges. The caller holds p.mu.
func (p *Planned) collect(idx int, oc RunOutcome) {
	if p.have[idx] {
		return
	}
	if members := p.pr.membersOf(idx); len(members) > 0 {
		oc.ClassSize = 1 + len(members)
	}
	p.outcomes[idx] = oc
	p.have[idx] = true
	p.delivered++
	obsNoteOutcome(oc)
	for p.frontier < len(p.outcomes) && p.have[p.frontier] {
		if p.est != nil && p.stopAt < 0 {
			observe(p.est, p.outcomes[p.frontier])
			if p.est.Converged(p.cfg.TargetError, p.minRuns) {
				p.stopAt = p.frontier + 1
				obsStopFired.Inc()
			}
		}
		p.frontier++
	}
}

// fanout delivers the outcomes extrapolated from representative rep,
// once rep's own outcome is in, to every member of its class (none
// outside PruneClasses). The caller holds p.mu.
func (p *Planned) fanout(rep int) {
	for _, m := range p.pr.membersOf(rep) {
		spec := p.plan[m]
		p.collect(m, RunOutcome{
			Spec: spec, Class: p.outcomes[rep].Class, EndCycle: spec.Cycle, Extrapolated: true,
		})
	}
}

// Delivered reports how many outcomes have been delivered so far —
// synthetic, extrapolated and replayed alike — the campaign's live
// progress numerator (the planned size is the denominator; a sequential
// stop may finish the campaign below it).
func (p *Planned) Delivered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delivered
}

// Stopped reports whether the sequential stop has triggered: no further
// replays are needed beyond those already issued.
func (p *Planned) Stopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopAt >= 0
}

// Resumed reports how many replays were restored from checkpoint shards
// by OpenCheckpoint instead of re-executed.
func (p *Planned) Resumed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resumed
}

// work describes this campaign to the replay pool: replays pulled from
// NextReplay on simulators built by factory, outcomes into Deliver, each
// engine's account into note. name prefixes errors.
func (p *Planned) work(name string, factory Factory) *Work {
	return &Work{
		Name: name, Golden: p.g, Config: p.cfg, Factory: factory,
		Next: p.NextReplay, Deliver: p.Deliver, Size: len(p.plan), Note: p.note,
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
// delivered. elapsed is the replay phase's attributed wall time; with
// the replays this process executed (ReplayStats, a pool's Work.Note)
// and the golden run's wall, it makes the result's Account.
func (p *Planned) Result(elapsed time.Duration) (*Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.aggregate()
	if err != nil {
		return nil, err
	}
	// The pool size and the lane width say how the campaign ran, not
	// what it found: a result reads the same bytes at any setting.
	res.Config.Workers, res.Config.Lanes = 0, 0
	res.Account = Account{BatchedRuns: p.stats.Batched, PeeledRuns: p.stats.Peeled, Elapsed: elapsed, GoldenElapsed: p.g.Elapsed}
	if p.stats.Lockstep > 0 {
		res.LaneOccupancy = float64(p.stats.LaneCycles) / float64(p.stats.Lockstep)
	}
	if p.stats.Executed > 0 {
		// A fully-pruned or fully-resumed campaign executed no replay
		// here: it reports 0, never Inf or a bogus tiny figure.
		res.AvgSecPerRun = elapsed.Seconds() / float64(p.stats.Executed)
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

// CloseCheckpoint flushes and closes the campaign's shard. A failed
// close means completed records may not be durable, so it reaches the
// caller. Safe to call without an open checkpoint.
func (p *Planned) CloseCheckpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ckptDir = ""
	if p.ckpt == nil {
		return nil
	}
	err := p.ckpt.close()
	p.ckpt = nil
	return err
}
