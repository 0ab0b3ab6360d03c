package distrib

// MaxShardFails is the shard retry budget, for the external tests.
const MaxShardFails = defaultMaxShardFails
