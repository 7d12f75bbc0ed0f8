//! Counter/histogram/series names the pool records into
//! [`ahl_simkit::Stats`], shared so harnesses and tests agree on spelling.

/// Counter: transactions admitted into a pool.
pub const ADMITTED: &str = "mempool.admitted";
/// Counter: transactions rejected because the pool was full.
pub const REJECTED_FULL: &str = "mempool.rejected_full";
/// Counter: duplicate submissions dropped by TxId dedup.
pub const DUPLICATE: &str = "mempool.duplicate";
/// Counter: transactions handed to the consensus layer in batches.
pub const BATCHED: &str = "mempool.batched";
/// Counter: batches formed.
pub const BATCHES: &str = "mempool.batches";
/// Counter: batches flushed by the timeout trigger (partial batches).
pub const TIMEOUT_FLUSHES: &str = "mempool.timeout_flushes";
/// Counter: pooled transactions re-relayed to the new leader after a view
/// change (the regossip round that rescues client transactions stranded
/// at a deposed or Byzantine leader — both the replicas' own push on
/// entering the view and their answers to the new leader's pool pull).
pub const VIEWCHANGE_REGOSSIP: &str = "mempool.viewchange_regossip";
/// Histogram: admission → batch-formation queueing latency.
pub const QUEUE_LATENCY: &str = "mempool.queue_latency";
/// Series: pool occupancy (transactions) sampled at each batch formation.
pub const OCCUPANCY: &str = "mempool.occupancy";
