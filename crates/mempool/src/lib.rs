//! # ahl-mempool — per-shard transaction pool and batch pipeline
//!
//! The seed reproduction had no mempool at all: batching was a pair of
//! fixed knobs inside the PBFT config and every replica kept a private
//! `VecDeque` of requests. This crate provides the standard building block
//! of production sharded chains — a first-class per-shard transaction pool
//! with:
//!
//! * **TxId-based deduplication** — a transaction is pooled at most once,
//!   no matter how many gossip/relay copies arrive.
//! * **Admission control** — bounded capacity in transactions *and* bytes,
//!   with pluggable full-pool behaviour ([`PoolPolicy`]): FIFO
//!   reject-newest, priority/fee eviction, or random eviction.
//! * **Batch formation** — [`BatchBuilder`] turns the pool into block
//!   proposals on size / byte / timeout triggers, replacing the inline
//!   `batch_size` / `batch_timeout` logic the consensus engines carried.
//! * **Backpressure signals** — [`Admission`] tells the ingest path
//!   whether to bounce a client, and every outcome is counted in
//!   [`ahl_simkit::Stats`] under the [`stat`] names (occupancy,
//!   admit/reject/evict counters, per-transaction queueing latency).
//!
//! The pool is generic over the transaction type through [`PoolTx`], so the
//! consensus crate can pool its own `Request` type without a dependency
//! cycle. All operations are deterministic: priority ties break by
//! insertion order and random eviction draws from a seeded generator.
//!
//! ```
//! use ahl_mempool::{Admission, Mempool, MempoolConfig, PoolPolicy, PoolTx};
//! use ahl_simkit::{SimTime, Stats};
//!
//! #[derive(Clone)]
//! struct Tx(u64);
//! impl PoolTx for Tx {
//!     fn tx_id(&self) -> u64 { self.0 }
//! }
//!
//! let mut stats = Stats::new();
//! let mut pool = Mempool::new(MempoolConfig::new(2), 42);
//! assert!(pool.insert(Tx(1), SimTime::ZERO, &mut stats).is_admitted());
//! assert_eq!(pool.insert(Tx(1), SimTime::ZERO, &mut stats), Admission::Duplicate);
//! assert!(pool.insert(Tx(2), SimTime::ZERO, &mut stats).is_admitted());
//! // FIFO policy rejects the newcomer once full.
//! assert_eq!(pool.insert(Tx(3), SimTime::ZERO, &mut stats), Admission::Rejected);
//! assert_eq!(stats.counter(ahl_mempool::stat::REJECTED_FULL), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod pool;
pub mod stat;

pub use batch::{BatchBuilder, BatchConfig};
pub use pool::{Admission, Mempool, MempoolConfig, PoolPolicy};

/// A poolable transaction.
///
/// Implemented by the consensus layer for its request type; the pool only
/// needs identity, an approximate wire size, and a priority (a fee proxy).
pub trait PoolTx: Clone {
    /// Globally unique transaction id (the dedup key).
    fn tx_id(&self) -> u64;

    /// Approximate serialized size in bytes (for byte-capacity limits and
    /// byte-triggered batching).
    fn wire_bytes(&self) -> usize {
        256
    }

    /// Admission/ordering priority — higher is more urgent. The
    /// [`PoolPolicy::Priority`] policy batches high-priority transactions
    /// first and evicts the lowest-priority entry when full.
    fn priority(&self) -> u64 {
        0
    }

    /// The submitting sender's identity, for per-sender admission quotas
    /// (DoS isolation: one flooding client cannot monopolize the pool).
    /// Defaults to the high half of the tx id, matching the consensus
    /// layer's `client_id << 32 | client_seq` request-id scheme.
    fn sender(&self) -> u64 {
        self.tx_id() >> 32
    }
}
