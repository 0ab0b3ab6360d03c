// Package campaign implements the statistical fault injection engine
// used by both assessment flows: golden run, snapshotting, differential
// replay of each faulty run from the snapshot nearest its injection
// instant, parallel execution across workers, and fault-effect
// classification at either observation point (core pinout or software
// observation point).
//
// The engine is model-agnostic: any simulator satisfying Simulator can be
// assessed, which is exactly what makes the paper's RTL vs
// microarchitecture comparison point-to-point.
package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/fault"
	"repro/internal/lifetime"
	"repro/internal/refsim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Simulator is the uniform view of one simulation model instance.
type Simulator interface {
	// Step advances one cycle; Run advances until the program stops or
	// maxCycles is reached.
	Step() bool
	Run(maxCycles uint64) refsim.StopReason

	Cycles() uint64
	StopReason() refsim.StopReason
	Output() []byte

	// SetPinout attaches (or detaches, with nil) a pinout capture.
	SetPinout(p *trace.Pinout)

	// Bits returns the size of an injection target's bit space (0 if
	// the model does not expose the target); Flip injects one bit flip.
	Bits(t fault.Target) int
	Flip(t fault.Target, bit int) error

	// Force sets (rather than toggles) one bit of the target structure
	// to v (0 or 1) — the model-aware inject hook behind the permanent
	// and intermittent fault models. It must be idempotent: the replay
	// engine re-asserts it after every cycle while the fault is active,
	// so design writes cannot heal the fault.
	Force(t fault.Target, bit, v int) error

	// Snapshot captures full state; Restore rewinds to a capture taken
	// by any instance built from the same factory.
	Snapshot() Snapshot
	Restore(s Snapshot)

	// StateHash digests the complete behavior-bearing simulation state.
	// Equal digests at equal cycles must imply equal futures: the
	// adaptive engine classifies a faulty replay as Masked the moment
	// its digest matches the golden digest recorded at the same cycle
	// (with no fault still active and an identical pinout prefix).
	StateHash() uint64

	// SetL1DAccessHook observes D-cache accesses (set, way) during the
	// golden run; L1DLineOfBit maps an L1D data bit to its line. Both
	// support injection-time advancement.
	SetL1DAccessHook(fn func(set, way int))
	L1DLineOfBit(bit int) (set, way int)

	// SetLifetime attaches (or detaches, with nil) a lifetime recorder
	// capturing per-target access events — reads and full overwrites of
	// registers, cache lines and array words — during the golden run.
	// The model registers one lifetime.Space per fault.Target it can
	// trace (keyed by int(target), geometry matching the flat bit space
	// Bits/Flip use); untracked targets stay absent and the pruning
	// pre-classifier falls back to full replay for them. Recording is
	// pure observation and must never perturb the simulation.
	SetLifetime(rec *lifetime.Recorder)
}

// Snapshot is an opaque state capture.
type Snapshot interface{}

// Factory builds a fresh simulator instance at cycle zero.
type Factory func() (Simulator, error)

// ObsPoint selects the observation point for classification.
type ObsPoint int

// Observation points.
const (
	// ObsPinout compares core-boundary transactions (Safeness flow).
	ObsPinout ObsPoint = iota + 1
	// ObsSOP compares the program output at the end of the run (AVF
	// flow via the software observation point).
	ObsSOP
	// ObsCombined classifies at both points of a run-to-end replay:
	// SDC when the program output deviates, otherwise Mismatch when
	// the pinout trace deviates, otherwise Masked. The fault-model
	// ablation (E9) uses it to split the class breakdown.
	ObsCombined
)

func (o ObsPoint) String() string {
	switch o {
	case ObsPinout:
		return "pinout"
	case ObsSOP:
		return "sop"
	case ObsCombined:
		return "combined"
	default:
		return fmt.Sprintf("ObsPoint(%d)", int(o))
	}
}

// Class is a fault-effect class. The paper's headline metric groups
// everything but Masked as Unsafe; the finer classes are reported too.
type Class int

// Fault-effect classes.
const (
	ClassMasked   Class = iota + 1 // no deviation at the observation point
	ClassMismatch                  // pinout trace deviation
	ClassSDC                       // silent data corruption at the SOP
	ClassCrash                     // simulator stopped with a fault
	ClassHang                      // exceeded the hang budget
	ClassDUE                       // detected, unrecoverable error (protection schemes)
	numClasses
)

var classNames = map[Class]string{
	ClassMasked: "masked", ClassMismatch: "mismatch", ClassSDC: "sdc",
	ClassCrash: "crash", ClassHang: "hang", ClassDUE: "due",
}

// Valid reports whether c is a defined class. Outcomes decoded from
// outside the process — checkpoint records, worker batches — must pass
// it before they merge: a missing "class" field decodes to Class(0),
// which would otherwise count as unsafe.
func (c Class) Valid() bool { return c >= ClassMasked && c < numClasses }

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Config parameterises one campaign.
type Config struct {
	Injections int
	Seed       int64
	Target     fault.Target
	TimeDist   fault.TimeDist

	// Fault selects the fault model and its parameters; the zero value
	// is the paper's baseline single transient bit flip.
	Fault fault.Params

	// Window is the number of cycles simulated after the injection
	// before the run is terminated (the paper's 20k-cycle timeout).
	// Zero runs every faulty simulation to the end of the program.
	Window uint64

	Obs         ObsPoint
	CompareMode trace.CompareMode

	// AdvanceToUse enables the RTL flow's optimisation (§IV.B): L1D
	// injections are postponed to just before the faulted line's next
	// access in the golden run, raising the chance the effect is
	// observable inside the window.
	AdvanceToUse bool

	// Deprecated: SnapPolicy selects nothing; snapshots are taken every
	// 2048 cycles.
	SnapPolicy SnapPolicy

	// Deprecated: Sched selects nothing; Lanes alone picks the engine.
	Sched Sched

	// Workers bounds campaign parallelism; zero uses GOMAXPROCS.
	Workers int

	// Confidence level for the result interval (default 0.99). It is
	// also the confidence at which TargetError is enforced.
	Confidence float64

	// EarlyStop enables per-run convergence detection: golden state
	// hashes are recorded along the golden run, and a replay whose
	// state digest matches golden at the same cycle — with no fault
	// still active and an identical pinout prefix — is classified
	// Masked immediately instead of simulating to the end. The exit is
	// exact (a reconverged run retraces golden), so it changes only
	// cycles, never classes. Off by default; the default path
	// reproduces the fixed-plan engine bit for bit.
	EarlyStop bool

	// TargetError, when positive, enables sequential statistical
	// stopping: outcomes stream into an incremental estimator, and the
	// dispatcher stops issuing injections once every fault-effect
	// class proportion's Wilson interval half-width is within
	// TargetError at Confidence. The stopping index is decided over
	// outcomes in plan order, so results stay deterministic under any
	// worker schedule. Zero runs the full fixed plan.
	TargetError float64

	// MinRuns floors the sample size before sequential stopping may
	// trigger (0 selects 50). Requires TargetError.
	MinRuns int

	// Lanes picks the replay engine and bounds the width of bit-parallel
	// lockstep replay on batch-capable simulators (both models, for the
	// register file and the L1D data array, and the RTL model for its
	// pipeline latches): up to Lanes faulty machines ride one golden
	// evaluation as sparse state diffs, each peeling out to a scalar
	// replay the moment its corruption decides control. 0 selects the
	// default of 64 (the lane capacity of a uint64 mask); 1 selects the
	// scalar stream replayer, which a simulator without a lane surface
	// gets at any width. Classifications are byte-identical at any width
	// — the engine changes only throughput.
	Lanes int

	// Prune enables golden-trace fault pruning (see PruneMode): the
	// golden run records per-target access lifetimes, and planned
	// transient faults whose corrupted bits are overwritten before any
	// read are classified Masked with zero replay cycles — exact by
	// construction. PruneClasses additionally collapses surviving
	// faults by first-consuming golden event and replays one
	// representative per class (MeRLiN-style extrapolation,
	// approximate). Persistent fault models always fall back to full
	// replay. Off by default; the default path reproduces the
	// non-pruning engine bit for bit.
	Prune PruneMode

	// AVF enables injection-free ACE/AVF estimation (internal/avf): the
	// golden run records the target's lifetime trace, an ACE-interval
	// sweep over it computes the structure's vulnerability factor and
	// cycle-resolved profile, and the campaign's exact fault plan is
	// re-judged by the trace into a predicted unsafeness ceiling — all
	// with zero replays, attached to Result.AVF. The replay phase itself
	// is untouched: the estimate rides along as the "estimate first,
	// inject to confirm" companion of the measured result. Transient
	// models only (persistent faults re-assert over time, so golden-trace
	// reasoning does not apply).
	AVF bool

	// AVFPrior seeds sequential stopping from the AVF prediction
	// (implies AVF, requires TargetError): the estimator starts from
	// MinRuns-worth of unit-weight pseudo-observations split between
	// Masked and the config's failure class at the predicted unsafeness,
	// instead of from nothing. Campaigns whose measured proportions track
	// the prediction converge to the target margin with fewer replays;
	// the reported Unsafeness and AchievedMargin still come from real
	// outcomes only — the prior moves the stopping index, never the
	// estimate.
	AVFPrior bool
}

// snapshotEvery is the cycle stride of the snapshots taken along every
// golden run for differential injection: 7 to 21 snapshots on the
// 13k-42k-cycle benchmark programs.
const snapshotEvery = 2048

// defaultHashEvery is the golden state-hash stride used by the
// convergence exit: dense enough that a masked windowed replay is
// caught well inside its observation window. One digest costs 2–4 µs on
// either model against ~14 µs (microarch) or ~18 µs (RTL) for the 64
// cycles between two, so recording adds about a sixth to the golden
// run's stepping time and as much to every early-stop replay (the
// benchmark's {microarch,rtlcore}.statehash_us and
// campaign.golden_hash_overhead_frac; DESIGN.md "State digest").
const defaultHashEvery = 64

// defaultMinRuns floors sequential stopping when Config.MinRuns is 0.
const defaultMinRuns = 50

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.Confidence == 0 {
		c.Confidence = 0.99
	}
	if c.CompareMode == 0 {
		c.CompareMode = trace.CompareContent
	}
	if c.TimeDist == 0 {
		c.TimeDist = fault.DistNormal
	}
	if c.Fault.Model == 0 {
		c.Fault.Model = fault.ModelTransient
	}
	if c.Obs == 0 {
		c.Obs = ObsPinout
	}
	if c.Lanes == 0 {
		c.Lanes = MaxLanes
	}
	if c.AVFPrior {
		c.AVF = true
	}
}

// RunOutcome captures one faulty run.
type RunOutcome struct {
	Spec     fault.Spec
	Class    Class
	EndCycle uint64

	// Converged marks a replay terminated by the convergence exit at
	// EndCycle: the faulty state digest matched golden with no fault
	// still active and an identical pinout prefix, so the run is
	// Masked without simulating its remaining future.
	Converged bool

	// Pruned marks an injection-less classification: the golden
	// lifetime trace proves the corrupted bits are overwritten before
	// any read (or never read inside the observation horizon), so the
	// fault is Masked with zero replay cycles. EndCycle is the
	// injection instant.
	Pruned bool

	// Extrapolated marks a class member whose outcome was copied from
	// its equivalence-class representative (PruneClasses mode) instead
	// of replayed.
	Extrapolated bool

	// Overhead marks a fault that protect.Derive drew into the
	// protection overhead region (stored check bits / checker logic) of
	// a protected arm: the verdict comes from the scheme model with zero
	// replay cycles, and EndCycle is the injection instant. The engine
	// never sets it.
	Overhead bool

	// ClassSize is the number of faults this replay represents: 1 +
	// the extrapolated members of its equivalence class, set on class
	// representatives only (0 reads as 1).
	ClassSize int
}

// Result aggregates a campaign.
type Result struct {
	Config Config

	GoldenCycles uint64
	GoldenTxns   int

	Counts map[Class]int

	// Unsafeness is the paper's vulnerability metric: the fraction of
	// injections that were not masked, with its Wilson interval.
	Unsafeness stats.Proportion

	Outcomes []RunOutcome

	// Adaptive-engine accounting. CyclesSimulated (cycles stepped
	// across the counted replays, from each base snapshot to its end)
	// and AchievedMargin (the widest class-proportion Wilson
	// half-width at Confidence) are always populated; ConvergedRuns,
	// RunsSaved and CyclesSaved are non-zero only under EarlyStop /
	// TargetError. CyclesSaved is exact for convergence exits (a
	// masked run's fixed-plan end is known) and, for injections past
	// the stopping index, a prefix-mean estimate that never
	// materialises the skipped tail. RunsSaved and that estimate count
	// injections past the stopping index relative to the fixed plan,
	// not replays this process avoided: on lanes each goroutine's pull
	// of one lane width (Lanes) may already have replayed some before
	// the stop was decided, and Account.BatchedRuns+PeeledRuns is what
	// actually ran. Such replays are excluded from every other count,
	// keeping every field deterministic.
	ConvergedRuns   int
	RunsSaved       int
	CyclesSimulated uint64
	CyclesSaved     uint64
	AchievedMargin  float64

	// Golden-trace pruning accounting, non-zero only under
	// Config.Prune. PrunedRuns counts injection-less (dead-interval)
	// Masked classifications; ExtrapolatedRuns counts class members
	// that inherited their representative's outcome; PruneClassCount
	// counts the equivalence classes the dispatcher actually replayed
	// (PruneClasses mode); PruneSavedCycles is the replay cycles those
	// faults would have cost under the fixed plan.
	PrunedRuns       int
	ExtrapolatedRuns int
	PruneClassCount  int
	PruneSavedCycles uint64

	// FastForwardCycles is the stream-order estimate of the replay
	// phase's golden pre-injection work, whatever engine replayed the
	// campaign: the sum over counted (non-pruned, non-extrapolated)
	// replays of (injection instant − nearest snapshot cycle). The golden
	// cycles the walks actually stepped are ReplayStats.FastForward and
	// the campaign_fastforward_cycles_total series.
	FastForwardCycles uint64

	// Deprecated: FastForwardSaved is always 0.
	FastForwardSaved uint64

	// Protection accounting, set only by protect.Derive on a protected
	// arm derived from this campaign's unprotected twin. Protect is the
	// arm's canonical plan ("rf=parity"), ProtectDataBits the
	// structure's real bit space, ProtectOverheadBits the scheme's
	// modeled extension (stored check bits plus checker logic) — the
	// denominator of E13's unsafeness-reduction-per-protected-bit ROI.
	// OverheadRuns counts faults drawn into the overhead region
	// (classified by the scheme model, zero replay).
	Protect             string `json:",omitempty"`
	ProtectDataBits     int
	ProtectOverheadBits int
	OverheadRuns        int

	// AVF is the campaign's injection-free ACE/AVF estimate, computed
	// from the golden lifetime trace with zero replays; nil unless
	// Config.AVF.
	AVF *AVFInfo

	// Account says how this process executed the campaign, not what
	// the campaign found, so no JSON form of a result carries it.
	Account `json:"-"`
}

// Account is a campaign's execution record: wall times and the lanes
// its replays rode. It is the part of a Result that differs between two
// executions of one campaign — with another pool size or lane width,
// resumed from a checkpoint, or on a fleet, whose coordinator reports
// the wall times in its Progress and whose workers keep the lane
// accounting. A test that compares two executions clears it whole.
type Account struct {
	// Bit-parallel replay accounting, non-zero only when a target with
	// a batch surface ran with Config.Lanes > 1. BatchedRuns counts
	// replays finished entirely in lockstep (the fault died,
	// reconverged or stayed unconsumed to its window end); PeeledRuns
	// counts replays whose corruption was consumed by the design and
	// that finished on the scalar tail; LaneOccupancy is the mean
	// number of lanes in flight per lockstep cycle of the golden walks
	// the campaign rode — on a walk shared with other campaigns of the
	// same golden run, theirs included.
	BatchedRuns   int
	PeeledRuns    int
	LaneOccupancy float64

	Elapsed       time.Duration
	AvgSecPerRun  float64
	GoldenElapsed time.Duration
}

// Validate normalises the config in place (filling defaults) and
// rejects impossible combinations — the check a campaign service
// applies at submission time, before any golden run is paid for. Run,
// Sweep and PlanCampaign all apply the same rules internally.
func (c *Config) Validate() error {
	c.fillDefaults()
	if c.Injections <= 0 {
		return fmt.Errorf("campaign: Injections must be positive")
	}
	if (c.Obs == ObsSOP || c.Obs == ObsCombined) && c.Window > 0 {
		return fmt.Errorf("campaign: observation point %v requires run-to-end (Window=0)", c.Obs)
	}
	if c.TargetError < 0 || c.TargetError >= 1 {
		return fmt.Errorf("campaign: TargetError %v out of [0,1)", c.TargetError)
	}
	if c.MinRuns < 0 {
		return fmt.Errorf("campaign: MinRuns %d negative", c.MinRuns)
	}
	if c.MinRuns > 0 && c.TargetError == 0 {
		return fmt.Errorf("campaign: MinRuns set but sequential stopping is off (TargetError=0)")
	}
	if c.Prune < PruneOff || c.Prune > PruneClasses {
		return fmt.Errorf("campaign: unknown prune mode %d", c.Prune)
	}
	if c.Lanes < 1 || c.Lanes > MaxLanes {
		return fmt.Errorf("campaign: Lanes %d out of [1,%d]", c.Lanes, MaxLanes)
	}
	if c.Sched < SchedStream || c.Sched > SchedCursor {
		return fmt.Errorf("campaign: unknown schedule %d", c.Sched)
	}
	if c.SnapPolicy < SnapStride || c.SnapPolicy > SnapQuantile {
		return fmt.Errorf("campaign: unknown snapshot policy %d", c.SnapPolicy)
	}
	if c.AVF && c.Fault.Model.Persistent() {
		return fmt.Errorf("campaign: AVF estimation covers transient models only (got %v)", c.Fault.Model)
	}
	if c.AVFPrior && c.TargetError == 0 {
		return fmt.Errorf("campaign: AVFPrior requires sequential stopping (TargetError > 0)")
	}
	return nil
}

// GoldenOptions parameterises the golden-artifact phase.
type GoldenOptions struct {
	// Deprecated: SnapPolicy selects nothing.
	SnapPolicy SnapPolicy

	// Timeline records the L1D access timeline during the golden run,
	// required by configs with AdvanceToUse. Recording is observation
	// only and never perturbs the simulation, so a timeline-enabled
	// golden run serves configs without advancement too.
	Timeline bool

	// MaxCycles aborts the golden run with an error if the program has
	// not stopped within this many cycles (0 = unbounded); a hung
	// workload fails fast instead of accumulating snapshots forever.
	MaxCycles uint64

	// HashEvery records a golden state digest every HashEvery cycles
	// for the convergence exit (0 disables recording). Recording is
	// pure observation, so a hash-enabled golden run serves campaigns
	// without EarlyStop too.
	HashEvery uint64

	// Lifetime records per-target access lifetimes (reads and full
	// overwrites of registers, cache lines and array words) during the
	// golden run, required by configs with Prune enabled. Like the
	// timeline and the hashes it is pure observation, so a
	// lifetime-enabled golden run serves non-pruning campaigns too.
	Lifetime bool
}

// Golden holds every artifact of one golden run: the snapshots, pinout
// trace, program output, cycle count and (optionally) the L1D access
// timeline. One Golden can back any number of campaign configs built
// from the same factory — this is what the sweep scheduler shares.
type Golden struct {
	Cycles  uint64        // golden run length
	Txns    int           // pinout transactions emitted
	Output  []byte        // program output at the SOP
	Elapsed time.Duration // wall time of the golden run (TABLE II's cost)

	sim      Simulator // the stopped golden instance (bit spaces, L1D geometry)
	pin      *trace.Pinout
	snaps    []snapAt
	hashes   []hashAt           // golden state digests (convergence exit), cycle-ascending
	life     *lifetime.Recorder // per-target access lifetimes (fault pruning), nil unless recorded
	timeline map[[2]int][]uint64
}

// Snapshots reports how many differential-injection snapshots were taken.
func (g *Golden) Snapshots() int { return len(g.snaps) }

// LifetimeEvents reports how many lifetime events the golden run
// recorded (0 without GoldenOptions.Lifetime) — the overhead metric of
// the pruning trace.
func (g *Golden) LifetimeEvents() int {
	if g.life == nil {
		return 0
	}
	return g.life.Events()
}

// Fingerprint identifies the golden run's observable behavior (cycle
// count, pinout volume, program output). Checkpoint resume uses it to
// detect that a simulator or workload change altered the run even when
// the cycle count — all the fault plan depends on — happens to survive;
// a distributed worker compares it against the coordinator's before
// replaying a shard: a mismatch means the two processes did not simulate
// the same golden run (version or workload skew) and the shard must not
// execute.
func (g *Golden) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], g.Cycles)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(g.Txns))
	h.Write(buf[:])
	h.Write(g.Output)
	return h.Sum64()
}

// PrepareGolden executes the golden-artifact phase: one full fault-free
// run capturing snapshots, the pinout trace, the program output and
// (when opts.Timeline is set) the L1D access timeline. A lifetime trace
// is sealed when recording stops, so the returned run is read-only:
// campaigns may plan and replay against it from any goroutine.
func PrepareGolden(factory Factory, opts GoldenOptions) (*Golden, error) {
	sim, err := factory()
	if err != nil {
		return nil, fmt.Errorf("campaign: golden simulator: %w", err)
	}
	g := &Golden{sim: sim, pin: &trace.Pinout{}}
	sim.SetPinout(g.pin)

	if opts.Timeline {
		g.timeline = make(map[[2]int][]uint64)
		sim.SetL1DAccessHook(func(set, way int) {
			k := [2]int{set, way}
			g.timeline[k] = append(g.timeline[k], sim.Cycles())
		})
	}
	if opts.Lifetime {
		g.life = lifetime.NewRecorder()
		sim.SetLifetime(g.life)
	}

	start := time.Now()
	snaps, hashes, err := goldenRunWithSnapshots(sim, opts.MaxCycles, opts.HashEvery)
	if err != nil {
		return nil, err
	}
	g.Elapsed = time.Since(start)
	g.snaps = snaps
	g.hashes = hashes
	sim.SetL1DAccessHook(nil)
	if opts.Lifetime {
		sim.SetLifetime(nil)
		g.life.Seal()
	}
	stop := sim.StopReason()
	if stop != refsim.StopExit && stop != refsim.StopHalt {
		return nil, fmt.Errorf("campaign: golden run stopped with %v", stop)
	}
	g.Cycles = sim.Cycles()
	g.Txns = g.pin.Len()
	g.Output = append([]byte(nil), sim.Output()...)
	if g.Cycles < 16 {
		return nil, fmt.Errorf("campaign: golden run too short (%d cycles)", g.Cycles)
	}
	obsGoldenRuns.Inc()
	obsGoldenSeconds.Observe(g.Elapsed.Seconds())
	return g, nil
}

// planner derives the campaign's fault plan from the golden artifacts:
// cfg.Injections specs, injection-time advancement applied. The plan
// depends only on (seed, fault model, target bit space, golden cycle
// count, distribution), so campaigns sharing a Golden produce plans
// bit-identical to standalone runs.
func (g *Golden) planner(cfg Config) ([]fault.Spec, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	plan, err := fault.Plan(cfg.Injections, cfg.Target, g.sim.Bits(cfg.Target), g.Cycles, cfg.TimeDist, cfg.Fault, rng)
	if err != nil {
		return nil, err
	}
	if !cfg.AdvanceToUse || cfg.Target != fault.TargetL1D {
		return plan, nil
	}
	if g.timeline == nil {
		return nil, fmt.Errorf("campaign: AdvanceToUse requires a golden run with GoldenOptions.Timeline")
	}
	for i := range plan {
		plan[i].Cycle = advance(plan[i], g.timeline, g.sim)
	}
	return plan, nil
}

// horizon is how far a fault's replay looks against one golden run, the
// same for the scalar tail (runTail) and a lane riding the walk: limit
// is the last cycle it simulates, and hashes the golden hash points at
// which the convergence exit may still fire, cycle-ascending.
type horizon struct {
	limit  uint64
	hashes []hashAt
}

// horizon returns spec's replay horizon under cfg. The limit is the end
// of the observation window or, run to end, the hang budget beyond which
// the replay is classified as a hang. Under EarlyStop the hash points are
// those strictly after the injection instant — before it the replay is
// golden by construction and a match means nothing — and no later than
// the limit; without it there are none.
func (g *Golden) horizon(spec fault.Spec, cfg Config) horizon {
	h := horizon{limit: g.Cycles*2 + 50_000}
	if cfg.Window > 0 {
		h.limit = spec.Cycle + cfg.Window
	}
	if cfg.EarlyStop {
		h.hashes = g.hashes[sort.Search(len(g.hashes), func(i int) bool { return g.hashes[i].cycle > spec.Cycle }):]
		h.hashes = h.hashes[:sort.Search(len(h.hashes), func(i int) bool { return h.hashes[i].cycle > h.limit })]
	}
	return h
}

// at drops the hash points before cycle c and reports whether c is one;
// the caller drops it once it has been checked.
func (h *horizon) at(c uint64) bool {
	for len(h.hashes) > 0 && h.hashes[0].cycle < c {
		h.hashes = h.hashes[1:]
	}
	return len(h.hashes) > 0 && h.hashes[0].cycle == c
}

// next is the next cycle the horizon asks to be checked at: its next
// hash point, or its limit once none is left.
func (h *horizon) next() uint64 {
	if len(h.hashes) > 0 {
		return h.hashes[0].cycle
	}
	return h.limit
}

// stepTo steps sim to cycle c, failing if its program stops first.
func stepTo(sim Simulator, c uint64) error {
	for sim.Cycles() < c {
		if !sim.Step() {
			return stoppedBefore(sim, c)
		}
	}
	return nil
}

// stoppedBefore is the error of a simulation whose program stopped
// before reaching cycle c, where golden's did not.
func stoppedBefore(sim Simulator, c uint64) error {
	return fmt.Errorf("campaign: replay stopped at %d before cycle %d (%v)", sim.Cycles(), c, sim.StopReason())
}

// classUniverse is every fault-effect class, as the sequential
// estimator's int class IDs. The engine never delivers ClassDUE (only
// protect.Derive's arms carry it), and an unobserved class cannot widen
// the margin: its Wilson half-width is the smallest any proportion has.
var classUniverse = []int{int(ClassMasked), int(ClassMismatch), int(ClassSDC), int(ClassCrash), int(ClassHang), int(ClassDUE)}

// fullReplayEnd is the cycle at which a fixed-plan replay of spec would
// end if it deviated nowhere from golden: the observation-window limit
// for windowed configs (capped at the golden stop cycle, where the
// program exits), the golden stop cycle for run-to-end ones. Exact for
// converged (masked) replays; a fixed-plan estimate for runs that would
// have crashed or hung elsewhere.
func (g *Golden) fullReplayEnd(spec fault.Spec, cfg Config) uint64 {
	if cfg.Window > 0 {
		return max(spec.Cycle, min(spec.Cycle+cfg.Window, g.Cycles))
	}
	return g.Cycles
}

// aggregate folds the counted replay outcomes into a campaign result,
// including the adaptive engine's savings and the pruning accounting.
// The counted prefix ends at the stopping index when one was decided,
// discarding the in-flight overshoot so the result is deterministic.
// The caller holds p.mu.
func (p *Planned) aggregate() (*Result, error) {
	cfg, g, pr := p.cfg, p.g, p.pr
	outcomes := p.outcomes[:p.frontier]
	if p.stopAt >= 0 {
		outcomes = p.outcomes[:p.stopAt]
	}
	res := &Result{
		Config:       cfg,
		GoldenCycles: g.Cycles,
		GoldenTxns:   g.Txns,
		Counts:       make(map[Class]int, int(numClasses)),
		Outcomes:     outcomes,
		RunsSaved:    len(p.plan) - len(outcomes),
	}
	// prefixFull sums the counted replays' fixed-plan lengths.
	var prefixFull uint64
	for i, oc := range outcomes {
		res.Counts[oc.Class]++
		if pr.roleOf(i) == roleRep {
			res.PruneClassCount++
		}
		base := nearestSnap(g.snaps, oc.Spec.Cycle).cycle
		full := g.fullReplayEnd(oc.Spec, cfg)
		var fixed uint64
		if full > base {
			fixed = full - base
		}
		prefixFull += fixed
		switch {
		case oc.Pruned:
			// Classified from the golden trace alone: the whole
			// fixed-plan replay is saved, nothing was simulated.
			res.PrunedRuns++
			res.PruneSavedCycles += fixed
			continue
		case oc.Extrapolated:
			res.ExtrapolatedRuns++
			res.PruneSavedCycles += fixed
			continue
		}
		if oc.EndCycle > base {
			res.CyclesSimulated += oc.EndCycle - base
		}
		// Stream-order fast-forward cost of this replay.
		if oc.Spec.Cycle > base {
			res.FastForwardCycles += oc.Spec.Cycle - base
		}
		if oc.Converged {
			res.ConvergedRuns++
			if full > oc.EndCycle {
				res.CyclesSaved += full - oc.EndCycle
			}
		}
	}
	// Injections the sequential stop never issued are saved wholesale.
	// Their cost is estimated as the counted prefix's mean fixed-plan
	// replay length — injection instants are identically distributed
	// across the plan — so the saving depends on the counted outcomes
	// alone, not on the specs past the stopping index.
	if skipped := len(p.plan) - len(outcomes); skipped > 0 && len(outcomes) > 0 {
		res.CyclesSaved += prefixFull / uint64(len(outcomes)) * uint64(skipped)
	}
	var err error
	res.Unsafeness, res.AchievedMargin, err = Estimate(outcomes, cfg.Confidence)
	return res, err
}

// Estimate judges a campaign's counted outcomes: the unsafeness (every
// non-Masked class) with its Wilson interval, and the widest
// class-proportion Wilson half-width, both at confidence conf. It
// folds the outcomes into a fresh stats.Sequential, the estimator the
// sequential stop runs, so both judge the same evidence. Outside
// PruneClasses that is every outcome at weight 1, so mass and
// effective sample size are both the count. Under MeRLiN
// extrapolation each replayed representative carries its full class
// weight (members in or beyond the counted prefix alike) and members
// carry none, so the stop decision and the reported interval agree; one
// replay standing for a whole class is one piece of independent
// evidence, not class-size many, hence the Kish effective sample size
// over those weights.
func Estimate(outcomes []RunOutcome, conf float64) (stats.Proportion, float64, error) {
	est, err := stats.NewSequential(conf, classUniverse...)
	if err != nil {
		return stats.Proportion{}, 0, err
	}
	for _, oc := range outcomes {
		observe(est, oc)
	}
	// Class weights are integers, so the masses are exact sums.
	unsafeW := est.Mass() - float64(est.Count(int(ClassMasked)))
	unsafe, err := stats.EstimateWeightedProportion(unsafeW, est.Mass(), est.EffectiveN(), conf)
	if err != nil {
		return stats.Proportion{}, 0, err
	}
	return unsafe, est.WilsonMargin(), nil
}

// observe folds one counted outcome into est. Extrapolated class
// members carry no independent evidence (their mass rides their
// representative's class weight), so est sees representatives weighted
// by class size and skips the members.
func observe(est *stats.Sequential, oc RunOutcome) {
	if !oc.Extrapolated {
		est.ObserveWeighted(int(oc.Class), float64(max(oc.ClassSize, 1)))
	}
}

// goldenRunWithSnapshots runs to completion capturing a snapshot every
// snapshotEvery cycles (and one at cycle 0) and, when hashEvery is
// non-zero, golden state digests every hashEvery cycles for the
// convergence exit. A non-zero max aborts a runaway program.
func goldenRunWithSnapshots(sim Simulator, max, hashEvery uint64) ([]snapAt, []hashAt, error) {
	snaps := []snapAt{{cycle: sim.Cycles(), snap: sim.Snapshot()}}
	var hashes []hashAt
	next := sim.Cycles() + snapshotEvery
	nextHash := sim.Cycles() + hashEvery
	for sim.Step() {
		if sim.Cycles() >= next {
			snaps = append(snaps, snapAt{cycle: sim.Cycles(), snap: sim.Snapshot()})
			next = sim.Cycles() + snapshotEvery
		}
		if hashEvery > 0 && sim.Cycles() >= nextHash {
			hashes = append(hashes, hashAt{cycle: sim.Cycles(), hash: sim.StateHash()})
			nextHash = sim.Cycles() + hashEvery
		}
		if max > 0 && sim.Cycles() >= max {
			return nil, nil, fmt.Errorf("campaign: golden run exceeded the %d-cycle budget", max)
		}
	}
	return snaps, hashes, nil
}

type snapAt struct {
	cycle uint64
	snap  Snapshot
}

// hashAt is one golden state digest along the run.
type hashAt struct {
	cycle uint64
	hash  uint64
}

// nearestSnap returns the latest snapshot at or before cycle. Snapshots
// are cycle-ascending, so this is a binary search — it runs once per
// outcome in aggregate and once per replay on the hot path.
func nearestSnap(snaps []snapAt, cycle uint64) snapAt {
	i := sort.Search(len(snaps), func(i int) bool { return snaps[i].cycle > cycle })
	if i == 0 {
		return snaps[0]
	}
	return snaps[i-1]
}

// advance implements injection-time advancement: move the instant to just
// before the faulted line's next access in the golden timeline.
func advance(s fault.Spec, timeline map[[2]int][]uint64, sim Simulator) uint64 {
	set, way := sim.L1DLineOfBit(s.Bit)
	accesses := timeline[[2]int{set, way}]
	for _, c := range accesses {
		if c > s.Cycle {
			return c - 1
		}
	}
	return s.Cycle // never accessed again: inject at the sampled instant
}

// ReplayOne replays a single planned injection against this golden run
// and classifies it — the public entry to the engine's hottest path,
// used by probe tooling and benchmarks. sim must come from the same
// factory as the golden run.
func (g *Golden) ReplayOne(sim Simulator, spec fault.Spec, cfg Config) (RunOutcome, error) {
	if err := cfg.Validate(); err != nil {
		return RunOutcome{}, err
	}
	return oneRunBuf(sim, g, spec, cfg, new(replayBuf))
}

// replayBuf is per-worker scratch reused across replays: the faulty
// pinout capture grows once to the longest replay's size and is reset
// in place afterwards, keeping the hot loop allocation-free.
type replayBuf struct {
	pin trace.Pinout
}

// seedGolden resets the capture to the golden transactions in
// (base, upto] — exactly what a stream replay restored at base has
// recorded by cycle upto — and returns it.
func (b *replayBuf) seedGolden(g *Golden, base, upto uint64) *trace.Pinout {
	b.pin.Txns = append(b.pin.Txns[:0], g.pin.Window(base, upto)...)
	return &b.pin
}

// oneRunBuf replays a single faulty simulation and classifies it.
func oneRunBuf(sim Simulator, g *Golden, spec fault.Spec, cfg Config, buf *replayBuf) (RunOutcome, error) {
	base := nearestSnap(g.snaps, spec.Cycle)
	sim.Restore(base.snap)
	pin := &buf.pin
	pin.Reset()
	sim.SetPinout(pin)

	// Replay up to the injection instant (identical to golden).
	if err := stepTo(sim, spec.Cycle); err != nil {
		return RunOutcome{}, err
	}
	if err := applyFault(sim, spec); err != nil {
		return RunOutcome{}, err
	}
	return finishRun(sim, g, spec, cfg, base.cycle, pin)
}

// finishRun simulates the remaining observation window of a faulty
// replay and classifies it. The simulator must already sit at or past
// the injection instant with the fault's state applied and pin attached
// holding the transactions emitted since baseCycle — either because
// oneRunBuf just injected it, or because a lane peeled out of a
// lockstep batch was rebuilt there (golden snapshot + lane diff + the
// golden transaction prefix the unpeeled lane shared). Both callers
// run the identical tail, which is what keeps batched classifications
// byte-identical to the scalar path.
func finishRun(sim Simulator, g *Golden, spec fault.Spec, cfg Config, baseCycle uint64, pin *trace.Pinout) (RunOutcome, error) {
	// Simulate the observation window, re-asserting persistent faults.
	// With EarlyStop and a hash-recording golden run, the convergence
	// exit classifies the replay as Masked the moment its state digest
	// matches golden; otherwise the seed engine's fixed window runs.
	stop, converged, err := runTail(sim, g, spec, cfg, baseCycle, pin)
	if err != nil {
		return RunOutcome{}, err
	}

	if converged {
		// The faulty state, output and pinout prefix all match golden
		// with no fault active: every future of this replay retraces
		// the fault-free run, so it is Masked at either observation
		// point — exactly the class the full simulation would report.
		return RunOutcome{Spec: spec, EndCycle: sim.Cycles(), Class: ClassMasked, Converged: true}, nil
	}
	return classify(g, spec, cfg, stop, sim.Cycles(),
		func() bool { return string(sim.Output()) != string(g.Output) },
		func(upto uint64) bool {
			return trace.CompareWindow(g.pin, pin, baseCycle, upto, cfg.CompareMode).Match
		}), nil
}

// classify is the one classification rule of a finished faulty run:
// finishRun's scalar tail and a lockstep lane retired without peeling
// both end here. The run stopped as stop at cycle end; outputDiffers
// reports whether its program output differs from golden's, and
// pinoutMatches whether its pinout capture matches golden's over
// (base snapshot, upto].
func classify(g *Golden, spec fault.Spec, cfg Config, stop refsim.StopReason, end uint64,
	outputDiffers func() bool, pinoutMatches func(upto uint64) bool) RunOutcome {

	oc := RunOutcome{Spec: spec, EndCycle: end}
	switch {
	case stop == refsim.StopFault:
		oc.Class = ClassCrash
	case stop == refsim.StopLimit && cfg.Window == 0:
		oc.Class = ClassHang
	case cfg.Window > 0:
		// Timed run (window expiry or early program end): compare the
		// pinout over the full observation window either way — the
		// golden core keeps emitting transactions after a premature
		// exit, and their absence is a mismatch on real pins too.
		if !pinoutMatches(spec.Cycle + cfg.Window) {
			oc.Class = ClassMismatch
		} else {
			oc.Class = ClassMasked
		}
	case cfg.Obs == ObsSOP:
		if outputDiffers() {
			oc.Class = ClassSDC
		} else {
			oc.Class = ClassMasked
		}
	case cfg.Obs == ObsCombined && outputDiffers():
		// Combined observation: SDC dominates (the corruption reached
		// software); otherwise fall through to the run-to-end pinout
		// compare below.
		oc.Class = ClassSDC
	default:
		// Run-to-end pinout: compare everything both runs produced.
		if !pinoutMatches(max(end, g.Cycles)) {
			oc.Class = ClassMismatch
		} else {
			oc.Class = ClassMasked
		}
	}
	return oc
}

// applyFault applies spec's fault action at the current cycle: one flip
// per affected bit for the transient models (single or burst), a force
// to the stuck value for the persistent ones.
func applyFault(sim Simulator, spec fault.Spec) error {
	lo, hi := spec.BitSpan()
	for b := lo; b < hi; b++ {
		var err error
		if spec.Model.Persistent() {
			err = sim.Force(spec.Target, b, spec.Stuck)
		} else {
			err = sim.Flip(spec.Target, b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runTail is the one replay loop after injection: it steps the
// simulation until the program stops or its horizon's limit, re-applying
// a persistent fault after every cycle it is active (the design may
// overwrite the forced bit on any clock edge). Under EarlyStop it
// compares, at every golden hash point past the injection with no fault
// active, the faulty pinout prefix and then, only if that matches, the
// state digest against golden: a double match means the corrupted state
// has reconverged with the fault-free run, so its entire remaining
// future is golden's and it terminates at once as converged. A final
// pinout mismatch (trace.Diff.Final) holds at every later point, so it
// drops the remaining hash points. With no fault active and no hash
// point left, the rest is the model's own Run.
func runTail(sim Simulator, g *Golden, spec fault.Spec, cfg Config,
	baseCycle uint64, pin *trace.Pinout) (refsim.StopReason, bool, error) {

	h := g.horizon(spec, cfg)
	for {
		if len(h.hashes) == 0 && !spec.ActiveAt(sim.Cycles()) {
			return sim.Run(h.limit), false, nil
		}
		if sim.Cycles() >= h.limit {
			return refsim.StopLimit, false, nil
		}
		if !sim.Step() {
			return sim.StopReason(), false, nil
		}
		c := sim.Cycles()
		active := spec.ActiveAt(c)
		if active {
			if err := applyFault(sim, spec); err != nil {
				return 0, false, err
			}
		}
		if h.at(c) {
			if !active {
				d := trace.CompareWindow(g.pin, pin, baseCycle, c, cfg.CompareMode)
				if d.Match && sim.StateHash() == h.hashes[0].hash {
					return sim.StopReason(), true, nil
				}
				if d.Final {
					// No later prefix can match: the tail is done with
					// hash points for good.
					h.hashes = nil
					continue
				}
			}
			h.hashes = h.hashes[1:]
		}
	}
}
