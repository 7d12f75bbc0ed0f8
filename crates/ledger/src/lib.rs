//! # ahl-ledger — blockchain ledger substrate
//!
//! The Hyperledger-style ledger the consensus and transaction layers build
//! on: key-value state, guarded-mutation transactions, and the two
//! benchmark chaincodes the paper evaluates with (BLOCKBENCH's KVStore and
//! SmallBank).
//!
//! * [`StateStore`] — KV state with 2PL execution semantics: the §6.3
//!   prepare / commit / abort split, lock markers under `"L_" + key`, and
//!   pending write sets. The state lives in one place, a sparse Merkle
//!   tree over all live keys whose leaves carry the values and whose root
//!   is [`StateStore::state_digest`]: replicas certify state content, not
//!   history, any key supports inclusion/exclusion proofs via
//!   [`StateStore::prove`], and state sync verifies fetched chunks against
//!   a checkpoint certificate. The tree is the only copy, so a read costs
//!   one key hash and one O(log n) descent.
//! * [`Op`] / [`StateOp`] — the transaction model: guarded mutation sets,
//!   general enough for any non-UTXO blockchain application (the paper's
//!   target workloads).
//! * [`smallbank`] / [`kvstore`] — the benchmark chaincodes.
//! * [`access`] / [`parexec`] — deterministic conflict-aware parallel
//!   execution: read/write-set inference, the greedy wave scheduler, and
//!   the plan/apply engine ([`parexec::execute_ops`]) whose output is
//!   byte-identical to sequential execution at any worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
pub mod kvstore;
pub mod parexec;
pub mod persist;
pub mod smallbank;
mod state;
mod types;

pub use parexec::{execute_ops, ExecOutcome};
pub use state::{lock_key, ExecPlan, StateSidecar, StateSnapshot, StateStore, LOCK_PREFIX};
// Proof verification for state roots (re-exported so ledger users need not
// depend on `ahl-store` directly).
pub use ahl_store::{verify_proof as verify_state_proof, SmtProof};
pub use types::{
    AbortReason, Condition, ExecStatus, Key, Mutation, Op, Receipt, StateOp, TxId, Value,
};
