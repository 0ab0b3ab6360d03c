package distrib

// Fleet-tier observability. Coordinator series live under distrib_*,
// worker series under worker_*; both are write-only instrumentation —
// nothing here feeds back into leasing, merging or retry decisions —
// and every mutator self-gates on obs.Enabled().

import "repro/internal/obs"

var (
	obsCampaignsSubmitted = obs.NewCounter("distrib_campaigns_submitted_total",
		"campaign submissions accepted (idempotent resubmissions excluded)")
	obsCampaignsDone = obs.NewCounter("distrib_campaigns_done_total",
		"campaigns finished with a merged result")
	obsCampaignsFailed = obs.NewCounter("distrib_campaigns_failed_total",
		"campaigns terminated by a preparation, checkpoint or shard failure")
	obsLeasesIssued = obs.NewCounter("distrib_leases_issued_total",
		"leases handed to pulling workers (one unit: a shard of each member campaign)")
	obsLeasesExpired = obs.NewCounter("distrib_leases_expired_total",
		"leases reclaimed after heartbeat expiry (worker presumed dead)")
	obsShardRetries = obs.NewCounter("distrib_shard_retries_total",
		"member shards re-queued after a worker failure or lease expiry (failure-budget burn)")
	obsShardFailures = obs.NewCounter("distrib_shard_failures_total",
		"shards that exhausted their retry budget and failed their campaign")
	obsShardsDone = obs.NewCounter("distrib_shards_done_total",
		"leases whose member shards all merged")
	obsOutcomeBatches = obs.NewCounter("distrib_outcome_batches_total",
		"outcome batches received, including failed and incomplete ones")
	obsLeaseLatency = obs.NewHistogram("distrib_lease_latency_seconds",
		"shard round trip from lease issue to merged outcome batch", obs.DurationBuckets)
	obsLeaseLatencyAvg = obs.NewGauge("distrib_lease_latency_avg_seconds",
		"mean lease round trip; stays 0 until a lease has completed")
	obsMergeSeconds = obs.NewHistogram("distrib_merge_seconds",
		"time one outcome batch spends in the in-order collector (merge lag)", obs.DurationBuckets)
	obsGoldenHits = obs.NewCounter("distrib_golden_cache_hits_total",
		"golden cache hits (a campaign joined a golden run whose artifacts cover it)")
	obsGoldenMisses = obs.NewCounter("distrib_golden_cache_misses_total",
		"golden cache misses (a golden run was prepared, fresh or widening a cached one)")
	obsGoldenEvictions = obs.NewCounter("distrib_golden_cache_evictions_total",
		"settled golden artifacts evicted by the cache bound")

	obsWorkerGoldenSeconds = obs.NewHistogram("worker_golden_prep_seconds",
		"worker-side golden fetch + preparation time per golden run prepared", obs.DurationBuckets)
	obsWorkerFPRefusals = obs.NewCounter("worker_fingerprint_refusals_total",
		"shards refused because the local golden fingerprint diverged from the lease")
	obsWorkerHTTPRetries = obs.NewCounter("worker_http_retries_total",
		"HTTP requests re-attempted after a transport error or 5xx (backoff spins)")
	obsWorkerShards = obs.NewCounter("worker_shards_total",
		"leases executed to completion by this worker")
	obsWorkerShardSeconds = obs.NewHistogram("worker_shard_seconds",
		"wall time per executed lease", obs.DurationBuckets)
)
