//! # ahl-consensus — consensus protocols
//!
//! Every protocol the paper implements, measures or compares against:
//!
//! * [`pbft`] — the PBFT engine with the paper's four variants: **HL**
//!   (Hyperledger v0.6 PBFT), **AHL** (attested log, N = 2f+1), **AHL+**
//!   (split queues + leader relay), **AHLR** (leader enclave aggregation).
//! * Lockstep baselines for Figure 2: Tendermint, IBFT, and Quorum-style
//!   Raft (crash-fault, no pipelining).
//! * PoET and PoET+ (Figure 21/22): Nakamoto-style consensus with TEE wait
//!   certificates, fork resolution and stale-block accounting.
//! * [`clients`] — BLOCKBENCH-style open-loop and closed-loop drivers.
//! * [`adversary`] — the scripted Byzantine attack catalogue ([`Attack`])
//!   shared by all three BFT protocols, and the global [`SafetyChecker`]
//!   that turns the paper's security claims into executable invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod clients;
pub mod common;
pub mod harness;
pub mod ibft;
pub mod pbft;
pub mod poet;
pub mod raft;
pub mod tendermint;

pub use adversary::{Attack, SafetyChecker, Violation};
pub use clients::{ClientProtocol, ClosedLoopClient, OpenLoopClient};
pub use common::{stat, CryptoMode, OpFactory, Request};
pub use harness::{run_shard_experiment, ClientMode, NetChoice, RunMetrics, ShardExperiment};
