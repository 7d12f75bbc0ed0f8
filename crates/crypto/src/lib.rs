//! # ahl-crypto — cryptographic substrate
//!
//! Dependency-free implementations of the primitives the AHL protocols use:
//!
//! * [`sha256`] / [`Sha256`] — FIPS 180-4 SHA-256, validated against NIST
//!   vectors. Every consensus message, block and state tuple is hashed, so
//!   the compression function uses the CPU's SHA extensions where it has
//!   them (detected at run time; a scalar kernel otherwise).
//! * [`hmac_sha256`] — RFC 2104 HMAC, the MAC under the signature scheme.
//! * [`SigningKey`] / [`KeyRegistry`] — signatures with *structural*
//!   unforgeability and simulated ECDSA cost (see DESIGN.md §2: the
//!   simulation charges Table 2 latencies for sign/verify; elliptic-curve
//!   arithmetic itself would not change any measured shape).
//! * [`MerkleTree`] — RFC 6962-style domain-separated binary Merkle trees
//!   for transaction and state roots.

#![warn(missing_docs)]
// The SHA-NI kernel (`sha256::shani`) is the one module allowed `unsafe`.
#![deny(unsafe_code)]

mod hmac;
mod merkle;
mod sha256;
mod sig;

pub use hmac::{hmac_sha256, mac_eq};
pub use merkle::{verify_proof, MerkleProof, MerkleTree};
#[doc(hidden)]
pub use sha256::kernels;
pub use sha256::{sha256, sha256_parts, Hash, Sha256};
pub use sig::{KeyId, KeyRegistry, Signature, SigningKey};
