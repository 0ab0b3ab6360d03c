package main

// metricDef is one metric of the benchmark. BENCHMARK.json repeats name,
// unit, direction and bound; the smoke test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening of the median
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 18

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Failed faults are not a metric here because a
// correct run has none: they are the "failed" of the result line and any
// of them makes the run incorrect.
//
// The bounds are three times the widest interquartile spread seen over
// ten seeds on any workload, capped at the contract's 0.25: on the shared
// two-core box the benchmark was sized on, CPU speed itself drifts by a
// tenth over minutes, so the timings spread by 7-10 % whatever a run
// does, while allocation volume spreads only with the plans (at most
// 2.9 %).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"campaign_wall_s", "s", "lower", 0.25},
	{"faults_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_kfault", "s", "lower", 0.25},
	{"alloc_mb_per_kfault", "MB", "lower", 0.10},
}

// perLayer are the metrics of single layers, taken from outside by timing
// calls into each layer's exported functions. A workload reports the
// layers it exercises; the others read 0.
var perLayer = []metricDef{
	// Bare Run to exit through core.NewSimulator, no campaign around it.
	{Name: "microarch.golden_mcyc_per_s", Unit: "Mcyc/s", Better: "higher"},
	{Name: "microarch.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "microarch.alloc_bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "microarch.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "microarch.restore_us", Unit: "us", Better: "lower"},
	{Name: "microarch.statehash_us", Unit: "us", Better: "lower"},
	{Name: "microarch.golden_cycles", Unit: "count", Better: "lower"},
	{Name: "microarch.pinout_txns", Unit: "count", Better: "lower"},
	{Name: "rtlcore.golden_mcyc_per_s", Unit: "Mcyc/s", Better: "higher"},
	{Name: "rtlcore.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "rtlcore.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "rtlcore.restore_us", Unit: "us", Better: "lower"},
	{Name: "rtlcore.statehash_us", Unit: "us", Better: "lower"},
	{Name: "rtlcore.golden_cycles", Unit: "count", Better: "lower"},
	{Name: "rtlcore.pinout_txns", Unit: "count", Better: "lower"},

	// PrepareGolden plain, then with one artifact switched on.
	{Name: "campaign.golden_prep_s", Unit: "s", Better: "lower"},
	{Name: "campaign.golden_hash_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "campaign.golden_lifetime_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "campaign.golden_quantile_overhead_frac", Unit: "frac", Better: "lower"},

	// Planner, pruner, collector and their helpers, replay excluded.
	{Name: "campaign.plan_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.prune_verdict_ns", Unit: "ns", Better: "lower"},
	{Name: "campaign.collect_us_per_outcome", Unit: "us", Better: "lower"},
	{Name: "fault.plan_ns_per_spec", Unit: "ns", Better: "lower"},
	{Name: "stats.observe_ns", Unit: "ns", Better: "lower"},

	// Golden.ReplayOne one fault at a time: the outside view of the
	// per-cycle replay tax.
	{Name: "campaign.replay_scalar_us_p50", Unit: "us", Better: "lower"},
	{Name: "campaign.replay_scalar_us_p99", Unit: "us", Better: "lower"},
	{Name: "campaign.replay_mcyc_per_s", Unit: "Mcyc/s", Better: "higher"},
	{Name: "campaign.replay_tax_x", Unit: "x", Better: "lower"},
	{Name: "campaign.restore_share_frac", Unit: "frac", Better: "lower"},

	// The replayers as the traced pass drives them, and what the engine
	// reports about its own shortcuts.
	{Name: "campaign.replay_cursor_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.ff_saved_frac", Unit: "frac", Better: "higher"},
	{Name: "campaign.converged_frac", Unit: "frac", Better: "higher"},
	{Name: "campaign.pruned_frac", Unit: "frac", Better: "higher"},
	{Name: "campaign.replay_batch_us_per_fault", Unit: "us", Better: "lower"},
	{Name: "campaign.lane_occupancy", Unit: "count", Better: "higher"},
	{Name: "campaign.peeled_frac", Unit: "frac", Better: "lower"},
	{Name: "campaign.cycles_per_fault", Unit: "count", Better: "lower"},
	{Name: "campaign.sim_mcycles_per_s", Unit: "Mcyc/s", Better: "higher"},

	{Name: "trace.compare_window_us", Unit: "us", Better: "lower"},
	{Name: "lifetime.events_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "bench.program_build_ms", Unit: "ms", Better: "lower"},

	// The coordinator's handler seen through LogRequests and a byte
	// counter, the workers' round trips through ReqLog.
	{Name: "distrib.requests", Unit: "count", Better: "lower"},
	{Name: "distrib.lease_requests", Unit: "count", Better: "lower"},
	{Name: "distrib.heartbeat_requests", Unit: "count", Better: "lower"},
	{Name: "distrib.outcome_batches", Unit: "count", Better: "lower"},
	{Name: "distrib.progress_polls", Unit: "count", Better: "lower"},
	{Name: "distrib.handler_busy_s", Unit: "s", Better: "lower"},
	{Name: "distrib.wire_mb", Unit: "MB", Better: "lower"},
	{Name: "distrib.lease_rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "distrib.lease_rtt_ms_p90", Unit: "ms", Better: "lower"},

	// Scraped from the in-process obs registry; the last three must be 0.
	{Name: "distrib.merge_s", Unit: "s", Better: "lower"},
	{Name: "distrib.worker_golden_prep_s", Unit: "s", Better: "lower"},
	{Name: "distrib.golden_cache_misses", Unit: "count", Better: "lower"},
	{Name: "distrib.leases_expired", Unit: "count", Better: "lower"},
	{Name: "distrib.shard_retries", Unit: "count", Better: "lower"},
	{Name: "distrib.worker_http_retries", Unit: "count", Better: "lower"},

	// The same matrix through the local sweep.
	{Name: "distrib.local_wall_s", Unit: "s", Better: "lower"},
	{Name: "distrib.fleet_tax_frac", Unit: "frac", Better: "lower"},

	// Exact simulated statistics, stated beside every speed number. The
	// repository holds no silicon reference, so the cross-level figures
	// are a difference between two models, not an error.
	{Name: "core.unsafeness_rf_pct", Unit: "%", Better: "lower"},
	{Name: "core.unsafeness_l1d_pct", Unit: "%", Better: "lower"},
	{Name: "core.xlevel_rf_diff_pp", Unit: "pp", Better: "lower"},
	{Name: "core.xlevel_l1d_diff_pp", Unit: "pp", Better: "lower"},
	{Name: "core.xlevel_rf_rel_diff", Unit: "frac", Better: "lower"},
	{Name: "core.xlevel_l1d_rel_diff", Unit: "frac", Better: "lower"},
	{Name: "core.xlevel_speed_ratio", Unit: "x", Better: "higher"},

	// The traced pass reconciled to phases, in worker-seconds: the six
	// phases plus the unattributed share add up to workers x wall.
	{Name: "span.golden_prep_s", Unit: "s", Better: "lower"},
	{Name: "span.plan_s", Unit: "s", Better: "lower"},
	{Name: "span.replay_s", Unit: "s", Better: "lower"},
	{Name: "span.collect_s", Unit: "s", Better: "lower"},
	{Name: "span.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "span.idle_s", Unit: "s", Better: "lower"},
	{Name: "span.unattributed_frac", Unit: "frac", Better: "lower"},
	{Name: "span.overhead_frac", Unit: "frac", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
}

// value is one emitted measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit turns measured numbers into the result line's metrics: every
// metric of defs appears once, with its declared unit; one the workload
// did not measure reads 0.
func emit(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
