//! # ahl-tee — trusted execution environment substrate
//!
//! A software simulation of the Intel SGX facilities the paper builds on,
//! mirroring the authors' own methodology (SGX SDK in *simulation mode*
//! plus injected operation latencies measured on real SGX hardware —
//! Table 2).
//!
//! Components:
//!
//! * [`CostModel`] / [`TeeOp`] — the Table 2 latencies charged to the
//!   simulated clock for every enclave operation.
//! * [`AttestedLog`] — attested append-only memory (Chun et al.): binds one
//!   message digest per consensus slot, removing equivocation and raising
//!   BFT tolerance from N = 3f+1 to N = 2f+1. Includes the Appendix A
//!   crash-recovery estimation that defeats rollback attacks.
//! * [`RandomnessBeacon`] — the shard-formation randomness enclave: signed
//!   `⟨e, rnd⟩` certificates released with probability 2^-l, at most once
//!   per epoch, with the Δ-window restart defense.
//! * [`Sealer`] / [`MonotonicCounter`] — data sealing with rollback-attack
//!   demonstration and counter-based defense.
//! * [`QuotingEnclave`] — remote attestation quotes over enclave
//!   measurements.
//!
//! Threat model (paper §3.3): integrity-only, "seal-glassed" enclaves —
//! execution is transparent to the adversary, but tampering with enclave
//! state transitions or forging enclave signatures is impossible. In the
//! simulation this is enforced structurally: hosts can call enclave entry
//! points with arbitrary arguments but cannot mutate enclave-private fields
//! or mint [`ahl_crypto::Signature`]s for enclave keys they do not hold.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attestation;
mod attested_log;
mod beacon;
mod cost;
mod sealing;

pub use attestation::{verify_quote, Quote, QuotingEnclave};
pub use attested_log::{
    attestation_digest, estimate_ckp_m, verify_attestation, Attestation, AttestedLog, LogError,
    LogId, Slot,
};
pub use beacon::{verify_cert, BeaconCert, BeaconOutcome, RandomnessBeacon};
pub use cost::{CostModel, TeeOp};
pub use sealing::{Measurement, MonotonicCounter, SealedBlob, Sealer, UnsealError};
