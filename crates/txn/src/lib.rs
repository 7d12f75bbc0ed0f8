//! # ahl-txn — distributed transactions for sharded blockchains
//!
//! The paper's §6: safety (atomicity + isolation via 2PC/2PL) and liveness
//! (no malicious-coordinator blocking, via a BFT reference committee) for
//! *general* — non-UTXO — transactions.
//!
//! * [`ShardMap`] — hash-based key placement and transaction splitting.
//! * [`coordinator`] — the reference committee's 2PC state machine
//!   (Figure 6), stated once as the chaincode R executes on its ledger:
//!   the simulated system (`ahl_core::xclient`) and the in-process model
//!   below run the same ops.
//! * [`MultiShardLedger`] — the Figure 5 protocol over in-process shards
//!   and an in-process R, with a step-wise API for adversarial
//!   interleavings.
//! * [`baselines`] — executable demonstrations of the §6.1 failure modes:
//!   RapidChain's atomicity/isolation violations on the account model and
//!   OmniLedger's indefinite blocking under a malicious client coordinator.
//! * [`crossshard`] — Appendix B: the probability that a d-argument
//!   transaction is cross-shard.
//! * [`adversary`] — malicious 2PC participants (lying votes, decision
//!   equivocation, selective delivery, replay storms) and the checked
//!   protocol surface that shows the BFT reference committee masks them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod baselines;
pub mod coordinator;
pub mod crossshard;
pub mod library;
pub mod protocol;
pub mod shardmap;

pub use adversary::{recovery_sweep, MaliciousRelay, RelayAttack};
pub use coordinator::{CoordAction, CoordState};
pub use library::{smallbank_chaincode, ChaincodeError, ChaincodeFn, ShardedChaincode, TxHandle};
pub use protocol::{MultiShardLedger, TxOutcome};
pub use shardmap::ShardMap;
