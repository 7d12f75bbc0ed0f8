//! # ahl-ledger — blockchain ledger substrate
//!
//! The Hyperledger-style ledger the consensus and transaction layers build
//! on: key-value state, guarded-mutation transactions, hash-linked blocks
//! with Merkle transaction roots, and the two benchmark chaincodes the
//! paper evaluates with (BLOCKBENCH's KVStore and SmallBank).
//!
//! * [`StateStore`] — versioned KV state with 2PL execution semantics: the
//!   §6.3 prepare / commit / abort split, lock markers under `"L_" + key`,
//!   pending write sets, and an **authenticated index**: a sparse Merkle
//!   tree over all live keys whose root is [`StateStore::state_digest`].
//!   (Earlier revisions kept a rolling mutation-history digest; the SMT
//!   root replaced it so that state content — not history — is what
//!   replicas certify, any key supports inclusion/exclusion proofs via
//!   [`StateStore::prove`], and state sync can verify fetched chunks
//!   against a checkpoint certificate. The flat map remains the read
//!   cache.)
//! * [`Op`] / [`StateOp`] — the transaction model: guarded mutation sets,
//!   general enough for any non-UTXO blockchain application (the paper's
//!   target workloads).
//! * [`Block`] / [`Chain`] — hash-linked blocks with Merkle roots.
//! * [`smallbank`] / [`kvstore`] — the benchmark chaincodes.
//! * [`access`] / [`parexec`] — deterministic conflict-aware parallel
//!   execution: read/write-set inference, the greedy wave scheduler, and
//!   the plan/apply engine ([`parexec::execute_ops`]) whose output is
//!   byte-identical to sequential execution at any worker count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod access;
mod block;
pub mod kvstore;
pub mod parexec;
pub mod persist;
pub mod smallbank;
mod state;
mod types;

pub use block::{Block, BlockHeader, Chain, ChainError};
pub use parexec::{execute_ops, ExecOutcome};
pub use state::{lock_key, ExecPlan, StateSidecar, StateSnapshot, StateStore, LOCK_PREFIX};
// Proof verification for state roots (re-exported so ledger users need not
// depend on `ahl-store` directly).
pub use ahl_store::{verify_proof as verify_state_proof, SmtProof};
pub use types::{
    AbortReason, Condition, ExecStatus, Key, Mutation, Op, Receipt, StateOp, TxId, Value,
};
