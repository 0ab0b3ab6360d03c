package campaign

// Engine-tier observability: every series below is write-only from the
// engine's point of view — metric values are never read back into
// replay, stopping or pruning decisions, so instrumentation cannot
// perturb results (asserted by the inertness test in internal/core).
// All mutators self-gate on obs.Enabled(); with the gate off the only
// hot-path cost is one atomic load per event.

import (
	"time"

	"repro/internal/lanestore"
	"repro/internal/obs"
)

var (
	obsReplaySeconds = obs.NewHistogram("campaign_replay_seconds",
		"wall time per replayed injection (scalar engine)", obs.DurationBuckets)
	obsBusySeconds = obs.NewGauge("campaign_pool_busy_seconds",
		"cumulative worker-pool busy time spent replaying (seconds); busy fraction = rate of this over workers")
	obsReplays = obs.NewCounter("campaign_replays_total",
		"injections actually replayed (pruned/extrapolated synthetics excluded)")
	obsConverged = obs.NewCounter("campaign_converged_total",
		"replays ended early by golden-state reconvergence")
	obsPrunedOut = obs.NewCounter("campaign_pruned_total",
		"outcomes classified producer-side by golden-trace pruning (zero replays)")
	obsExtrapolated = obs.NewCounter("campaign_extrapolated_total",
		"outcomes extrapolated from an equivalence-class representative")
	obsStopFired = obs.NewCounter("campaign_seqstop_fired_total",
		"sequential-stopping decisions (a campaign's stop index was fixed)")
	obsGoldenRuns = obs.NewCounter("campaign_golden_runs_total",
		"golden reference runs prepared")
	obsGoldenSeconds = obs.NewHistogram("campaign_golden_prep_seconds",
		"golden run preparation time (simulate + snapshot + trace)", obs.DurationBuckets)
	obsBatchWalks = obs.NewCounter("campaign_batch_walks_total",
		"forward walks of a golden run by the lockstep engine")
	obsBatchDeferred = obs.NewCounter("campaign_batch_deferred_total",
		"replays a walk had no free lane for and left to a follow-up walk")
	obsBatchLaneCycles = obs.NewCounter("campaign_batch_lane_cycles_total",
		"lanes in flight summed over lockstep cycles (mean occupancy = this over lockstep cycles)")
	obsBatchedRuns = obs.NewCounter("campaign_batched_runs_total",
		"replays retired entirely in bit-parallel lockstep")
	obsBatchPeeled = obs.NewCounter("campaign_batch_peeled_total",
		"replays peeled from a batch to the scalar tail")
	obsBatchPeels = func() (cs [lanestore.NumPeelReasons]*obs.Counter) {
		for r := range cs {
			cs[r] = obs.NewCounter(`campaign_batch_peels_total{reason="`+lanestore.PeelReason(r).String()+`"}`,
				"value lanes peeled to the scalar tail, by the control outcome their data changed")
		}
		return cs
	}()
	obsLockstepCycles = obs.NewCounter("campaign_batch_lockstep_cycles_total",
		"golden cycles stepped with at least one lane in flight")
	obsPrivateCycles = obs.NewCounter("campaign_batch_private_cycles_total",
		"cycles peeled lanes simulated alone (ring catch-up plus faulty tail)")
	obsFFCycles = obs.NewCounter("campaign_fastforward_cycles_total",
		"golden cycles the walk stepped with nothing riding")

	obsClassCounters = map[Class]*obs.Counter{
		ClassMasked:   obs.NewCounter(`campaign_outcomes_total{class="masked"}`, "delivered outcomes by fault-effect class"),
		ClassMismatch: obs.NewCounter(`campaign_outcomes_total{class="mismatch"}`, "delivered outcomes by fault-effect class"),
		ClassSDC:      obs.NewCounter(`campaign_outcomes_total{class="sdc"}`, "delivered outcomes by fault-effect class"),
		ClassCrash:    obs.NewCounter(`campaign_outcomes_total{class="crash"}`, "delivered outcomes by fault-effect class"),
		ClassHang:     obs.NewCounter(`campaign_outcomes_total{class="hang"}`, "delivered outcomes by fault-effect class"),
	}
)

// obsNoteOutcome classifies one delivered outcome into the counter set.
// Called from the in-order collector, so every tier (local scalar,
// walk, sweep pool, fleet merge) funnels through it exactly once per
// outcome.
func obsNoteOutcome(oc RunOutcome) {
	if !obs.Enabled() {
		return
	}
	switch {
	case oc.Pruned:
		obsPrunedOut.Inc()
	case oc.Extrapolated:
		obsExtrapolated.Inc()
	default:
		obsReplays.Inc()
		if oc.Converged {
			obsConverged.Inc()
		}
	}
	if c, ok := obsClassCounters[oc.Class]; ok {
		c.Inc()
	}
}

// obsBusy attributes one Replay call's wall time to pool busy time
// (per-replay latency is the scalar replayer's own histogram).
func obsBusy(d time.Duration) { obsBusySeconds.Add(d.Seconds()) }
