//! Requester-side state-sync session: certificate-anchored, chunked,
//! verified, resumable — full or incremental (diff).
//!
//! A lagging or joining replica (1) obtains a certified `(height, root)`
//! (the consensus layer verifies the certificate), (2) requests key-range
//! chunks, verifying each against the certified root *before* accepting
//! it, and (3) installs the accumulated state once every planned chunk has
//! verified. Two plans exist:
//!
//! * **full** — every chunk of the key space (`0 .. 1 << bits`); the
//!   verified entries *are* the complete state.
//! * **diff** — only the chunks the server reported as changed relative to
//!   an older certified root the requester still holds
//!   ([`SparseMerkleTree::diff_chunks`]). The requester overlays the
//!   verified chunks onto its retained snapshot; because each fetched chunk
//!   proves against the *new* root and the final merged tree must reproduce
//!   that root exactly, a server that lies about the changed set is caught.
//!
//! Chunks verify independently, so they may be requested **in any order
//! and from several peers in parallel**; the session tracks which planned
//! chunks are still missing, and a failed or unanswered chunk is simply
//! re-requested — possibly from a different peer — without restarting the
//! transfer.
//!
//! [`SparseMerkleTree::diff_chunks`]: crate::SparseMerkleTree::diff_chunks

use std::collections::BTreeMap;

use ahl_crypto::Hash;

use crate::smt::{key_path, verify_chunk};
use crate::StateValue;

/// Pick the chunk-count exponent so chunks hold about `target` leaves:
/// `ceil(log2(leaves / target))`, clamped to `[0, 16]`.
pub fn chunk_bits_for(leaves: usize, target: usize) -> u8 {
    let target = target.max(1);
    let chunks = leaves.div_ceil(target).max(1);
    (chunks.next_power_of_two().trailing_zeros() as u8).min(16)
}

/// Why a sync step was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The certified height is not newer than what the requester already
    /// has.
    StaleCert {
        /// The requester's current height.
        have: u64,
        /// The certified height.
        cert: u64,
    },
    /// A chunk outside the transfer plan arrived (wrong index, or a chunk
    /// the diff plan never asked for).
    UnknownChunk {
        /// The chunk that arrived.
        got: u32,
    },
    /// The chunk payload does not verify against the certified root.
    BadProof {
        /// The offending chunk index.
        chunk: u32,
    },
}

/// One verified chunk's payload: its index and `(key, value)` entries.
pub type VerifiedChunk<V> = (u32, Vec<(String, V)>);

/// A resumable chunked-sync session for value type `V`.
#[derive(Debug)]
pub struct SyncSession<V> {
    /// The certified height.
    seq: u64,
    /// The certified state root every chunk must prove against.
    root: Hash,
    bits: u8,
    /// Chunk indices to fetch, ascending. Full plan: `0 .. 1 << bits`;
    /// diff plan: the server-reported changed chunks.
    plan: Vec<u32>,
    diff: bool,
    /// Verified chunk payloads, keyed by chunk index.
    fetched: BTreeMap<u32, Vec<(String, V)>>,
}

impl<V: StateValue> SyncSession<V> {
    /// Start a full transfer to the certified `(seq, root)` with
    /// `1 << bits` chunks (`bits` is clamped to [`chunk_bits_for`]'s
    /// maximum of 16 — a malicious manifest cannot overflow the chunk
    /// count). Fails if `seq` is not ahead of `have_seq` (stale-cert
    /// defence: a malicious or confused server cannot roll the requester
    /// back).
    pub fn new_full(seq: u64, root: Hash, bits: u8, have_seq: u64) -> Result<Self, SyncError> {
        if seq <= have_seq {
            return Err(SyncError::StaleCert {
                have: have_seq,
                cert: seq,
            });
        }
        let bits = bits.min(16);
        Ok(SyncSession {
            seq,
            root,
            bits,
            plan: (0..1u32 << bits).collect(),
            diff: false,
            fetched: BTreeMap::new(),
        })
    }

    /// Start an incremental transfer: fetch only `chunks` (the server's
    /// changed-chunk report relative to an older root the requester still
    /// holds). Indices are deduplicated, sorted, and bounded by the chunk
    /// count; an empty plan means the retained state already matches the
    /// certified root and the session completes immediately.
    pub fn new_diff(
        seq: u64,
        root: Hash,
        bits: u8,
        chunks: &[u32],
        have_seq: u64,
    ) -> Result<Self, SyncError> {
        if seq <= have_seq {
            return Err(SyncError::StaleCert {
                have: have_seq,
                cert: seq,
            });
        }
        let bits = bits.min(16);
        let mut plan: Vec<u32> = chunks
            .iter()
            .copied()
            .filter(|c| *c < 1u32 << bits)
            .collect();
        plan.sort_unstable();
        plan.dedup();
        Ok(SyncSession {
            seq,
            root,
            bits,
            plan,
            diff: true,
            fetched: BTreeMap::new(),
        })
    }

    /// The height the session is syncing to.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The certified root the session verifies chunks against.
    pub fn root(&self) -> Hash {
        self.root
    }

    /// Whether this is an incremental (diff) transfer.
    pub fn is_diff(&self) -> bool {
        self.diff
    }

    /// Chunk-count exponent.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The planned chunks not yet verified, ascending — request these, in
    /// any order, from any peers.
    pub fn missing_chunks(&self) -> Vec<u32> {
        self.plan
            .iter()
            .copied()
            .filter(|c| !self.fetched.contains_key(c))
            .collect()
    }

    /// Whether `chunk` has already been verified and accepted.
    pub fn is_fetched(&self, chunk: u32) -> bool {
        self.fetched.contains_key(&chunk)
    }

    /// True once every planned chunk has been verified and accepted.
    pub fn is_complete(&self) -> bool {
        self.fetched.len() == self.plan.len()
    }

    /// Verify and accept a chunk (any plan order; duplicates are ignored).
    /// Returns `Ok(true)` once the plan is complete. On
    /// [`SyncError::BadProof`] the chunk stays missing, so the caller
    /// re-requests it — typically from a different peer (resumability).
    pub fn accept_chunk(
        &mut self,
        chunk: u32,
        entries: Vec<(String, V)>,
        proof: &[Hash],
    ) -> Result<bool, SyncError> {
        // `plan` is sorted ascending (both constructors guarantee it).
        if self.plan.binary_search(&chunk).is_err() {
            return Err(SyncError::UnknownChunk { got: chunk });
        }
        if self.fetched.contains_key(&chunk) {
            return Ok(self.is_complete()); // duplicate delivery (retry race)
        }
        let mut leaves: Vec<(Hash, Hash)> = entries
            .iter()
            .map(|(k, v)| (key_path(k), v.leaf_digest()))
            .collect();
        leaves.sort_by_key(|l| l.0 .0);
        if !verify_chunk(&self.root, chunk, self.bits, &leaves, proof) {
            return Err(SyncError::BadProof { chunk });
        }
        self.fetched.insert(chunk, entries);
        Ok(self.is_complete())
    }

    /// Consume the completed session, yielding the verified chunks as
    /// `(chunk index, entries)` in ascending chunk order. For a full plan,
    /// concatenating the entries is the complete state; for a diff plan,
    /// overlay them chunk-by-chunk onto the retained snapshot. Panics if
    /// the session is incomplete.
    pub fn into_verified(self) -> Vec<VerifiedChunk<V>> {
        assert!(self.is_complete(), "sync session incomplete");
        self.fetched.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smt::SparseMerkleTree;
    use ahl_crypto::sha256_parts;

    #[derive(Clone, Debug, PartialEq)]
    struct Val(u64);

    impl StateValue for Val {
        fn leaf_digest(&self) -> Hash {
            sha256_parts(&[&self.0.to_be_bytes()])
        }
    }

    fn fixture(n: u64) -> SparseMerkleTree<Val> {
        SparseMerkleTree::build((0..n).map(|i| (format!("key-{i}"), Val(i))))
    }

    fn chunk_payload(t: &SparseMerkleTree<Val>, chunk: u32, bits: u8) -> Vec<(String, Val)> {
        t.view()
            .chunk_entries(chunk, bits)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn full_session_round_trip_any_order() {
        let t = fixture(100);
        let bits = 3u8;
        let mut s: SyncSession<Val> =
            SyncSession::new_full(50, t.root_hash(), bits, 0).expect("fresh");
        assert_eq!(s.missing_chunks().len(), 8);
        // Deliver chunks in a scrambled order (multi-peer fan-out).
        for c in [5u32, 0, 7, 2, 1, 6, 3, 4] {
            let payload = chunk_payload(&t, c, bits);
            let proof = t.chunk_proof(c, bits);
            s.accept_chunk(c, payload, &proof).expect("verifies");
        }
        assert!(s.is_complete());
        assert!(s.missing_chunks().is_empty());
        let chunks = s.into_verified();
        let entries: Vec<(String, Val)> = chunks.into_iter().flat_map(|(_, e)| e).collect();
        assert_eq!(entries.len(), 100);
        // The verified set reassembles the certified root.
        let rebuilt = SparseMerkleTree::build(entries);
        assert_eq!(rebuilt.root_hash(), t.root_hash());
    }

    #[test]
    fn diff_session_fetches_only_changed_chunks() {
        let old = fixture(80);
        let mut new = old.clone();
        new.insert("key-3", Val(333));
        new.insert("added", Val(1));
        new.remove("key-9");
        let bits = 4u8;
        let changed = old.diff_chunks(&new, bits);
        assert!(!changed.is_empty() && changed.len() < 1 << bits);
        let mut s: SyncSession<Val> =
            SyncSession::new_diff(60, new.root_hash(), bits, &changed, 0).expect("fresh");
        assert!(s.is_diff());
        assert_eq!(s.missing_chunks(), changed);
        // A chunk outside the plan is refused.
        let outside = (0..1u32 << bits)
            .find(|c| !changed.contains(c))
            .expect("some unchanged");
        assert_eq!(
            s.accept_chunk(
                outside,
                chunk_payload(&new, outside, bits),
                &new.chunk_proof(outside, bits)
            ),
            Err(SyncError::UnknownChunk { got: outside })
        );
        for &c in &changed {
            s.accept_chunk(c, chunk_payload(&new, c, bits), &new.chunk_proof(c, bits))
                .expect("verifies against the new root");
        }
        // Overlaying the verified chunks onto the old snapshot reproduces
        // the new root exactly.
        let chunks = s.into_verified();
        let mut merged = old.clone();
        for (c, entries) in chunks {
            let stale: Vec<String> = merged
                .view()
                .chunk_keys(c, bits)
                .iter()
                .map(|k| k.to_string())
                .collect();
            for k in stale {
                merged.remove(&k);
            }
            for (k, v) in entries {
                merged.insert(&k, v);
            }
        }
        assert_eq!(merged.root_hash(), new.root_hash());
    }

    #[test]
    fn empty_diff_completes_immediately() {
        let t = fixture(10);
        let s: SyncSession<Val> =
            SyncSession::new_diff(5, t.root_hash(), 3, &[], 0).expect("fresh");
        assert!(s.is_complete());
        assert!(s.missing_chunks().is_empty());
    }

    #[test]
    fn tampered_chunk_rejected_and_resumable() {
        let t = fixture(60);
        let bits = 2u8;
        let mut s: SyncSession<Val> =
            SyncSession::new_full(50, t.root_hash(), bits, 0).expect("fresh");
        let mut payload = chunk_payload(&t, 0, bits);
        let proof = t.chunk_proof(0, bits);
        if payload.is_empty() {
            // Inject a foreign key instead.
            payload.push(("evil".into(), Val(666)));
        } else {
            payload[0].1 = Val(999);
        }
        assert_eq!(
            s.accept_chunk(0, payload, &proof),
            Err(SyncError::BadProof { chunk: 0 })
        );
        assert!(s.missing_chunks().contains(&0));
        // Retry with the honest payload: the session accepts it.
        let honest = chunk_payload(&t, 0, bits);
        s.accept_chunk(0, honest, &proof)
            .expect("honest retry verifies");
        assert!(!s.missing_chunks().contains(&0));
        // A duplicate delivery of the same chunk is a no-op.
        let dup = chunk_payload(&t, 0, bits);
        assert_eq!(s.accept_chunk(0, dup, &proof), Ok(false));
        assert_eq!(s.missing_chunks(), [1, 2, 3]);
    }

    #[test]
    fn stale_cert_rejected() {
        let t = fixture(10);
        let err = SyncSession::<Val>::new_full(50, t.root_hash(), 2, 50).expect_err("stale");
        assert_eq!(err, SyncError::StaleCert { have: 50, cert: 50 });
        assert!(SyncSession::<Val>::new_full(51, t.root_hash(), 2, 50).is_ok());
        assert!(SyncSession::<Val>::new_diff(50, t.root_hash(), 2, &[0], 50).is_err());
    }

    #[test]
    fn out_of_range_chunk_rejected() {
        let t = fixture(20);
        let bits = 2u8;
        let mut s: SyncSession<Val> =
            SyncSession::new_full(9, t.root_hash(), bits, 0).expect("fresh");
        let payload = chunk_payload(&t, 1, bits);
        let proof = t.chunk_proof(1, bits);
        assert_eq!(
            s.accept_chunk(9, payload, &proof),
            Err(SyncError::UnknownChunk { got: 9 })
        );
    }

    #[test]
    fn chunk_bits_for_targets() {
        assert_eq!(chunk_bits_for(0, 1024), 0);
        assert_eq!(chunk_bits_for(1000, 1024), 0);
        assert_eq!(chunk_bits_for(2048, 1024), 1);
        assert_eq!(chunk_bits_for(100_000, 1024), 7);
        assert_eq!(chunk_bits_for(1 << 30, 1), 16); // clamped
    }
}
