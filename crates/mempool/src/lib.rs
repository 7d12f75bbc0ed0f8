//! # ahl-mempool — per-shard transaction pool and batch pipeline
//!
//! The pool a Hyperledger v0.6 replica keeps for client requests, as a
//! first-class building block:
//!
//! * **TxId-based deduplication** — a transaction is pooled at most once,
//!   no matter how many gossip/relay copies arrive.
//! * **Bounded FIFO admission** — up to `capacity` resident transactions;
//!   a newcomer arriving at a full pool is rejected (Hyperledger drops
//!   requests beyond its buffer), and batches take the oldest first.
//! * **Batch formation** — [`BatchBuilder`] turns the pool into block
//!   proposals on size / timeout triggers.
//! * **Backpressure signals** — [`Admission`] tells the ingest path
//!   whether to bounce a client, and every outcome is counted in
//!   [`ahl_simkit::Stats`] under the [`stat`] names (occupancy,
//!   admit/duplicate/reject counters, per-transaction queueing latency).
//!
//! The pool is generic over the transaction type through [`PoolTx`], so the
//! consensus crate can pool its own `Request` type without a dependency
//! cycle. Every operation is deterministic: the pool draws no randomness.
//!
//! ```
//! use ahl_mempool::{Admission, Mempool, MempoolConfig, PoolTx};
//! use ahl_simkit::{SimTime, Stats};
//!
//! #[derive(Clone)]
//! struct Tx(u64);
//! impl PoolTx for Tx {
//!     fn tx_id(&self) -> u64 { self.0 }
//! }
//!
//! let mut stats = Stats::new();
//! let mut pool = Mempool::new(MempoolConfig::new(2), 0);
//! assert!(pool.insert(Tx(1), SimTime::ZERO, &mut stats).is_admitted());
//! assert_eq!(pool.insert(Tx(1), SimTime::ZERO, &mut stats), Admission::Duplicate);
//! assert!(pool.insert(Tx(2), SimTime::ZERO, &mut stats).is_admitted());
//! // A full pool rejects the newcomer and keeps its residents.
//! assert_eq!(pool.insert(Tx(3), SimTime::ZERO, &mut stats), Admission::Rejected);
//! assert_eq!(stats.counter(ahl_mempool::stat::REJECTED_FULL), 1);
//! // Batches come out oldest first.
//! let batch = pool.take_batch(8, SimTime::ZERO, &mut stats);
//! assert_eq!(batch.iter().map(|t| t.0).collect::<Vec<_>>(), [1, 2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod pool;
pub mod stat;

pub use batch::{BatchBuilder, BatchConfig};
pub use pool::{Admission, Mempool, MempoolConfig};

/// A poolable transaction: the pool only needs its identity.
///
/// Implemented by the consensus layer for its request type.
pub trait PoolTx: Clone {
    /// Globally unique transaction id (the dedup key).
    fn tx_id(&self) -> u64;
}
