//! Signed checkpoints over `(height, state_root)`.
//!
//! Every `K` blocks a replica votes on the state root it computed at that
//! height. A quorum of matching votes forms a [`CheckpointCert`] — the
//! anchor that (a) gates log/state pruning (PBFT stable checkpoints) and
//! (b) lets a lagging or joining replica verify fetched state chunks
//! against a root it can trust without replaying history.

use std::collections::HashMap;

use ahl_crypto::{sha256_parts, Hash, KeyId, KeyRegistry, Signature, SigningKey};

/// Domain-separated digest a checkpoint vote signs: `H("ahl-ckpt" ‖ seq ‖ root)`.
pub fn checkpoint_digest(seq: u64, root: &Hash) -> Hash {
    sha256_parts(&[b"ahl-ckpt", &seq.to_be_bytes(), &root.0])
}

/// One replica's vote that the state root at height `seq` is `root`.
#[derive(Clone, Debug)]
pub struct CheckpointVote {
    /// Checkpointed sequence (block height).
    pub seq: u64,
    /// SMT state root at that height.
    pub root: Hash,
    /// Voting replica (group index).
    pub replica: usize,
    /// Signature over [`checkpoint_digest`] (`None` in cost-only runs).
    pub sig: Option<Signature>,
}

impl CheckpointVote {
    /// Create and sign a vote (`key = None` skips the signature, matching
    /// cost-only crypto mode).
    pub fn new(seq: u64, root: Hash, replica: usize, key: Option<&SigningKey>) -> Self {
        let sig = key.map(|k| k.sign(&checkpoint_digest(seq, &root)));
        CheckpointVote {
            seq,
            root,
            replica,
            sig,
        }
    }

    /// Verify the vote signature (`true` when unsigned — cost-only mode).
    /// The signature must come from the *claimed* replica's key (group
    /// index i holds `KeyId(i)` in the committee builders) — otherwise one
    /// Byzantine node could replay its own signature under many indices.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        match &self.sig {
            Some(sig) => {
                sig.signer == KeyId(self.replica as u64)
                    && registry.verify(&checkpoint_digest(self.seq, &self.root), sig)
            }
            None => true,
        }
    }
}

/// A quorum certificate over `(seq, root)`: proof that the committee agreed
/// on the state at that height. Pruning and state sync both anchor here.
#[derive(Clone, Debug)]
pub struct CheckpointCert {
    /// Certified sequence (block height).
    pub seq: u64,
    /// Certified state root.
    pub root: Hash,
    /// The votes backing the certificate: `(replica, signature)`.
    pub votes: Vec<(usize, Option<Signature>)>,
}

impl CheckpointCert {
    /// Verify the certificate: at least `quorum` distinct signers, and —
    /// when `registry` is given (real-crypto mode) — a valid signature from
    /// each of them over [`checkpoint_digest`].
    pub fn verify(&self, quorum: usize, registry: Option<&KeyRegistry>) -> bool {
        let mut signers: Vec<usize> = self.votes.iter().map(|(r, _)| *r).collect();
        signers.sort_unstable();
        signers.dedup();
        if signers.len() < quorum {
            return false;
        }
        match registry {
            None => true,
            Some(reg) => {
                // Every vote signs the same digest, so the whole set goes
                // through the batched verifier: the digest is computed once
                // and the signer ↔ claimed-index binding (a single
                // Byzantine signer cannot lend its one genuine signature to
                // every slot of a forged quorum) is enforced per pair.
                let mut pairs = Vec::with_capacity(self.votes.len());
                for (replica, sig) in &self.votes {
                    match sig {
                        Some(s) => pairs.push((KeyId(*replica as u64), s)),
                        None => return false,
                    }
                }
                reg.verify_batch(&checkpoint_digest(self.seq, &self.root), pairs)
            }
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        48 + 72 * self.votes.len()
    }
}

/// Collects checkpoint votes and forms certificates at quorum.
#[derive(Clone, Debug, Default)]
pub struct CheckpointTracker {
    votes: HashMap<u64, HashMap<usize, (Hash, Option<Signature>)>>,
    latest: Option<CheckpointCert>,
}

impl CheckpointTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a vote. Returns the newly formed certificate when this vote
    /// completes a quorum at a height above the latest certified one.
    /// Signature validity is the caller's concern (votes arrive through the
    /// consensus layer, which verifies and charges the cost).
    pub fn record(&mut self, vote: CheckpointVote, quorum: usize) -> Option<CheckpointCert> {
        if self.latest.as_ref().is_some_and(|c| vote.seq <= c.seq) {
            return None;
        }
        let votes = self.votes.entry(vote.seq).or_default();
        votes.insert(vote.replica, (vote.root, vote.sig));
        let matching = votes.values().filter(|(r, _)| *r == vote.root).count();
        if matching < quorum {
            return None;
        }
        // Sort by replica index: the vote map is a HashMap, and its
        // iteration order must not leak into the certificate — certs are
        // persisted in the manifest and compared across replicas, so two
        // nodes seeing the same votes in different arrival orders must
        // still emit byte-identical certificates.
        let mut backing: Vec<(usize, Option<Signature>)> = votes
            .iter()
            .filter(|(_, (r, _))| *r == vote.root)
            .map(|(replica, (_, sig))| (*replica, *sig))
            .collect();
        backing.sort_by_key(|(replica, _)| *replica);
        let cert = CheckpointCert {
            seq: vote.seq,
            root: vote.root,
            votes: backing,
        };
        self.latest = Some(cert.clone());
        self.votes.retain(|s, _| *s > cert.seq);
        Some(cert)
    }

    /// The most recent certificate formed, if any.
    pub fn latest(&self) -> Option<&CheckpointCert> {
        self.latest.as_ref()
    }

    /// Adopt an externally received certificate if newer (a synced replica
    /// learns the committee's checkpoint from the manifest).
    pub fn adopt(&mut self, cert: CheckpointCert) {
        if self.latest.as_ref().is_none_or(|c| cert.seq > c.seq) {
            self.votes.retain(|s, _| *s > cert.seq);
            self.latest = Some(cert);
        }
    }

    /// Drop pending votes at or below `seq`.
    pub fn prune_below(&mut self, seq: u64) {
        self.votes.retain(|s, _| *s > seq);
    }

    /// Number of heights with pending (uncertified) votes.
    pub fn pending_heights(&self) -> usize {
        self.votes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(x: u8) -> Hash {
        let mut h = Hash::ZERO;
        h.0[0] = x;
        h
    }

    #[test]
    fn quorum_of_matching_votes_forms_cert() {
        let mut t = CheckpointTracker::new();
        assert!(t
            .record(CheckpointVote::new(10, root(1), 0, None), 2)
            .is_none());
        // A conflicting vote does not count toward the quorum.
        assert!(t
            .record(CheckpointVote::new(10, root(9), 1, None), 2)
            .is_none());
        let cert = t
            .record(CheckpointVote::new(10, root(1), 2, None), 2)
            .expect("quorum reached");
        assert_eq!(cert.seq, 10);
        assert_eq!(cert.root, root(1));
        assert_eq!(cert.votes.len(), 2);
        assert!(cert.verify(2, None));
        assert!(!cert.verify(3, None));
    }

    #[test]
    fn older_heights_ignored_after_cert() {
        let mut t = CheckpointTracker::new();
        t.record(CheckpointVote::new(10, root(1), 0, None), 1);
        assert!(t
            .record(CheckpointVote::new(5, root(2), 1, None), 1)
            .is_none());
        assert_eq!(t.latest().expect("cert").seq, 10);
    }

    #[test]
    fn signed_votes_verify_and_tampered_certs_fail() {
        let mut reg = KeyRegistry::new();
        let keys: Vec<SigningKey> = (0..3).map(|i| reg.generate(i)).collect();
        let mut t = CheckpointTracker::new();
        let mut cert = None;
        for (i, k) in keys.iter().enumerate() {
            let vote = CheckpointVote::new(7, root(4), i, Some(k));
            assert!(vote.verify(&reg));
            cert = t.record(vote, 3).or(cert);
        }
        let cert = cert.expect("quorum of 3");
        assert!(cert.verify(3, Some(&reg)));
        // Tampering with the certified root invalidates every signature.
        let mut bad = cert.clone();
        bad.root = root(5);
        assert!(!bad.verify(3, Some(&reg)));
        // A cert missing signatures fails under real crypto.
        let mut unsigned = cert.clone();
        unsigned.votes[0].1 = None;
        assert!(!unsigned.verify(3, Some(&reg)));
        // Duplicate signers cannot fake a quorum.
        let mut dup = cert.clone();
        let first = dup.votes[0];
        dup.votes = vec![first, first, first];
        assert!(!dup.verify(3, Some(&reg)));
        // One genuine signature replayed under other replicas' indices
        // cannot fake a quorum either (signer ↔ claimed-index binding).
        let own_sig = keys[0].sign(&checkpoint_digest(7, &root(4)));
        let forged = CheckpointCert {
            seq: 7,
            root: root(4),
            votes: vec![(0, Some(own_sig)), (1, Some(own_sig)), (2, Some(own_sig))],
        };
        assert!(!forged.verify(3, Some(&reg)));
        // And a vote claiming someone else's index fails verification.
        let impostor = CheckpointVote {
            seq: 7,
            root: root(4),
            replica: 2,
            sig: Some(own_sig),
        };
        assert!(!impostor.verify(&reg));
    }

    #[test]
    fn cert_vote_order_is_arrival_order_independent() {
        // The tracker's vote buffer is a HashMap; the certificate it emits
        // is durable and compared across replicas, so its vote order must
        // be canonical (sorted by replica) regardless of arrival order.
        let mut reg = KeyRegistry::new();
        let keys: Vec<SigningKey> = (0..5).map(|i| reg.generate(i)).collect();
        let forward: Vec<usize> = (0..5).collect();
        let backward: Vec<usize> = (0..5).rev().collect();
        let shuffled: Vec<usize> = vec![2, 0, 4, 1, 3];
        let mut certs = Vec::new();
        for order in [&forward, &backward, &shuffled] {
            let mut t = CheckpointTracker::new();
            let mut cert = None;
            for &i in order {
                let v = CheckpointVote::new(12, root(6), i, Some(&keys[i]));
                cert = t.record(v, 5).or(cert);
            }
            certs.push(cert.expect("quorum of 5"));
        }
        let canonical: Vec<Vec<u8>> = certs[0]
            .votes
            .iter()
            .map(|(r, s)| {
                let mut b = r.to_be_bytes().to_vec();
                b.extend_from_slice(&s.expect("signed").to_bytes());
                b
            })
            .collect();
        for cert in &certs {
            assert_eq!(
                cert.votes.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
                vec![0, 1, 2, 3, 4]
            );
            let bytes: Vec<Vec<u8>> = cert
                .votes
                .iter()
                .map(|(r, s)| {
                    let mut b = r.to_be_bytes().to_vec();
                    b.extend_from_slice(&s.expect("signed").to_bytes());
                    b
                })
                .collect();
            assert_eq!(bytes, canonical);
            assert!(cert.verify(5, Some(&reg)));
        }
    }

    #[test]
    fn adopt_keeps_newest() {
        let mut t = CheckpointTracker::new();
        t.adopt(CheckpointCert {
            seq: 20,
            root: root(1),
            votes: vec![(0, None)],
        });
        t.adopt(CheckpointCert {
            seq: 10,
            root: root(2),
            votes: vec![(0, None)],
        });
        assert_eq!(t.latest().expect("cert").seq, 20);
    }
}
