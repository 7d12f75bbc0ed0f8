//! # ahl-consensus — consensus protocols
//!
//! Every protocol the paper implements, measures or compares against:
//!
//! * [`pbft`] — the PBFT engine with the paper's four variants: **HL**
//!   (Hyperledger v0.6 PBFT), **AHL** (attested log, N = 2f+1), **AHL+**
//!   (split queues + leader relay), **AHLR** (leader enclave aggregation).
//! * [`lockstep`] — the round engine behind the two lockstep BFT baselines
//!   of Figure 2. [`ibft`] and [`tendermint`] each hold what is that
//!   protocol's own — its documentation, its output names and Figure 2
//!   defaults, and its `XConfig::new` / `build_x_group` entry points —
//!   while the two rules on which they differ (a proposal against a lock,
//!   a round timeout) are the engine's `Protocol` arms.
//! * [`raft`] — Quorum-style Raft (crash-fault, no pipelining), the third
//!   Figure 2 baseline; a different machine with its own log.
//! * [`poet`] — PoET and PoET+ (Figure 21/22): Nakamoto-style consensus
//!   with TEE wait certificates, fork resolution and stale-block
//!   accounting.
//! * [`common`] — what all of them share, including the committed-block
//!   shell ([`common::BlockExecutor`]): the one place a decided batch
//!   becomes executed state, safety-oracle observations and reports, for
//!   PBFT (live and WAL replay) and the lockstep engine alike.
//! * [`clients`] — BLOCKBENCH-style open-loop and closed-loop drivers.
//! * [`adversary`] — the scripted Byzantine attack catalogue ([`Attack`])
//!   interpreted by both BFT engines, and the global [`SafetyChecker`]
//!   that turns the paper's security claims into executable invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod clients;
pub mod common;
pub mod harness;
pub mod ibft;
pub mod lockstep;
pub mod pbft;
pub mod poet;
pub mod raft;
pub mod tendermint;

pub use adversary::{Attack, SafetyChecker, Violation};
pub use clients::{ClientProtocol, ClosedLoopClient, OpenLoopClient};
pub use common::{stat, CryptoMode, OpFactory, Request};
pub use harness::{run_shard_experiment, ClientMode, NetChoice, RunMetrics, ShardExperiment};
