//! # ahl-shard — secure shard formation
//!
//! The paper's §5: assigning nodes to committees so that, with
//! overwhelming probability, no committee exceeds its consensus protocol's
//! fault threshold — and keeping it that way against an adaptive adversary.
//!
//! * [`hypergeom`] — Equation 1: hypergeometric faulty-committee
//!   probability, committee sizing (80 nodes @ 25% adversary with the
//!   attested rule vs 600+ with PBFT's), and Equation 2's epoch-transition
//!   exposure bound.
//! * [`beacon_proto`] — the TEE randomness beacon protocol: one enclave
//!   invocation per node per epoch, lowest certificate wins after Δ.
//! * [`randhound`] — the RandHound-pattern baseline OmniLedger uses
//!   (grouped PVSS, O(N·c²) communication) for the Figure 11 comparison.
//! * [`assign`] — seeded-permutation committee assignment.
//! * [`reconfig`] — batched epoch transitions (B = log n) with the
//!   liveness constraint B ≤ f.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assign;
pub mod beacon_proto;
pub mod hypergeom;
pub mod randhound;
pub mod reconfig;

pub use assign::Assignment;
pub use beacon_proto::{paper_l_bits, run_beacon, BeaconRunResult};
pub use hypergeom::{
    faulty_committee_prob, hypergeom_tail, min_committee_size, reconfig_failure_prob,
    reference_tail, LnFact, Resilience,
};
pub use randhound::{run_randhound, run_randhound_with, RandhoundResult, RhCosts};
pub use reconfig::{batch_preserves_liveness, paper_batch_size, plan_transition, SwapStep};
