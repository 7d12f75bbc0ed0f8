//! # ahl-store — authenticated state, snapshots, checkpoints, and state sync
//!
//! The building block the paper's epoch reconfiguration (§5.3) leans on but
//! the seed reproduction only simulated: state a node can *verify*, not
//! just copy. Two pieces:
//!
//! * [`SparseMerkleTree`] — a **persistent** (copy-on-write,
//!   structurally-shared) path-compressed sparse Merkle tree over
//!   `sha256(key)` paths, generic over the leaf value. Every ledger
//!   mutation updates O(log n) nodes, the root commits to the entire
//!   key-value state, any key supports an inclusion or exclusion proof
//!   ([`SmtProof`], [`verify_proof`]) — and `clone()` is an **O(1)
//!   snapshot**: an immutable handle whose root, proofs, and chunk proofs
//!   stay byte-identical while the live tree diverges. A tree and its
//!   snapshots keep their nodes in one reference-counted slab; readers
//!   that lend out keys or values go through a [`SmtView`]. Retained
//!   snapshots power [`SparseMerkleTree::diff_chunks`], the changed-chunk
//!   report behind incremental sync.
//! * [`SyncSession`] — a lagging or joining replica takes a certified
//!   `(height, state_root)` (the consensus layer's checkpoint certificate
//!   vouches for it), then fetches key-range chunks (in any order, from
//!   several peers in parallel), verifying each against the certified root
//!   ([`verify_chunk`]) before accepting it. A **full** plan fetches every
//!   chunk; a **diff** plan ([`SyncSession::new_diff`]) fetches only the
//!   chunks changed since an older certified root the requester still
//!   holds, falling back to a full transfer when the server no longer
//!   retains that root.
//!
//! ## Root vs rolling digest
//!
//! The seed's `StateStore` kept a *rolling* digest — a hash chain over the
//! mutation history. That commits to how the state was reached but cannot
//! prove anything about its *content*: two replicas with identical state
//! reached by different histories disagree, and no key can be proven in or
//! out. The SMT root replaces it: order-insensitive (any op sequence
//! producing the same map produces the same root), per-key provable, and
//! chunk-transferable. `ahl-ledger` keeps its flat `HashMap` as the read
//! cache; this crate owns the authenticated index.
//!
//! ## Quickstart: snapshots, proofs, and a diff transfer
//!
//! ```
//! use ahl_store::{verify_chunk, verify_proof, SparseMerkleTree, SyncSession};
//! use ahl_store::key_path;
//! use ahl_crypto::sha256;
//!
//! let mut smt = SparseMerkleTree::new();
//! smt.insert("alice", sha256(b"100"));
//! smt.insert("bob", sha256(b"50"));
//!
//! // An O(1) snapshot: a frozen handle onto the current tree.
//! let snap = smt.clone();
//! let old_root = snap.root_hash();
//!
//! // Prove alice's balance hash is committed by the root …
//! let proof = snap.prove("alice");
//! assert!(verify_proof(&old_root, "alice", Some(&sha256(b"100")), &proof));
//! // … and that carol has no account at all (exclusion).
//! assert!(verify_proof(&old_root, "carol", None, &snap.prove("carol")));
//!
//! // The live tree moves on; the snapshot does not.
//! smt.insert("alice", sha256(b"75"));
//! smt.insert("carol", sha256(b"10"));
//! assert_eq!(snap.root_hash(), old_root);
//!
//! // Incremental sync: a node that still holds `old_root` (certified)
//! // only needs the chunks that changed since.
//! let bits = 2;
//! let changed = snap.diff_chunks(&smt, bits);
//! let mut session: SyncSession<ahl_crypto::Hash> =
//!     SyncSession::new_diff(1, smt.root_hash(), bits, &changed, 0).unwrap();
//! for &c in &changed {
//!     let entries: Vec<_> = smt
//!         .view()
//!         .chunk_entries(c, bits)
//!         .into_iter()
//!         .map(|(k, v)| (k.to_string(), *v))
//!         .collect();
//!     session.accept_chunk(c, entries, &smt.chunk_proof(c, bits)).unwrap();
//! }
//! // Overlay the verified chunks onto the old snapshot: the merged tree
//! // must land exactly on the certified root.
//! let chunks = session.into_verified();
//! let mut merged = snap.clone();
//! for (c, entries) in chunks {
//!     let stale: Vec<String> =
//!         merged.view().chunk_keys(c, bits).iter().map(|k| k.to_string()).collect();
//!     for k in stale {
//!         merged.remove(&k);
//!     }
//!     for (k, v) in entries {
//!         merged.insert(&k, v);
//!     }
//! }
//! assert_eq!(merged.root_hash(), smt.root_hash());
//! # let _ = verify_chunk; let _ = key_path;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod smt;
mod sync;

pub use smt::{
    chunk_of, combine, key_path, leaf_hash, verify_chunk, verify_proof, NodeView, SmtProof,
    SmtView, SparseMerkleTree,
};
pub use sync::{chunk_bits_for, SyncError, SyncSession, VerifiedChunk};

use ahl_crypto::Hash;

/// A value that can live under the authenticated state tree: all the tree
/// needs is a collision-resistant digest of the value's content, and to
/// share values across the threads that hash disjoint subtrees.
///
/// Implemented by `ahl_ledger::Value`; kept as a trait here so the store
/// layer stays below the ledger in the dependency order.
pub trait StateValue: Sync {
    /// Canonical content digest of the value (the SMT leaf value hash).
    fn leaf_digest(&self) -> Hash;
}

/// A bare hash is its own digest — the classic "authenticated index" shape
/// (`SparseMerkleTree<Hash>`, the default type parameter), where callers
/// keep the actual values elsewhere.
impl StateValue for Hash {
    fn leaf_digest(&self) -> Hash {
        *self
    }
}
