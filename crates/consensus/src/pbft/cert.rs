//! One quorum certificate for every "a quorum agreed" claim PBFT makes:
//! that `(view, seq, digest)` was agreed, and by whom. A **checkpoint**
//! certificate (a quorum of votes over `(seq, state root)`; one vote is a
//! one-signer certificate) gates pruning, anchors state sync and is what
//! the manifest persists. A **commit** certificate (a quorum of commit
//! votes) stays with each executed block and rides with it in a sync
//! tail. An **aggregate** is the AHLR leader enclave's attestation that
//! it saw a prepare or commit quorum. One [`QuorumCert::verify`] and one
//! codec serve all three.

use std::collections::BTreeMap;

use ahl_crypto::{sha256_parts, Hash, KeyId, KeyRegistry, Signature, SigningKey};
use ahl_tee::{attestation_digest, Attestation, LogId, Slot};
use ahl_wal::codec::{Reader, Writer};

use crate::common::VotePhase;

use super::msg::MsgCert;

/// Attested logs (paper §4.1), one per message kind; the last two hold
/// the AHLR leader enclave's aggregates.
pub(crate) const PREPARE_LOG: LogId = LogId(1);
pub(crate) const COMMIT_LOG: LogId = LogId(2);
pub(crate) const PREPREPARE_LOG: LogId = LogId(3);
pub(crate) const AGG_PREPARE_LOG: LogId = LogId(4);
pub(crate) const AGG_COMMIT_LOG: LogId = LogId(5);

/// The log of `phase`'s votes, and the log of the AHLR aggregates of them.
pub(crate) fn logs(phase: VotePhase) -> (LogId, LogId) {
    match phase {
        VotePhase::Prepare => (PREPARE_LOG, AGG_PREPARE_LOG),
        VotePhase::Commit => (COMMIT_LOG, AGG_COMMIT_LOG),
    }
}

/// Most signers a decoded certificate may claim. A count above it is
/// refused before anything is allocated, on every carrier.
pub const MAX_SIGNERS: usize = 1024;

/// Domain-separated digest a checkpoint vote signs: `H("ahl-ckpt" ‖ seq ‖ root)`.
pub fn checkpoint_digest(seq: u64, root: &Hash) -> Hash {
    sha256_parts(&[b"ahl-ckpt", &seq.to_be_bytes(), &root.0])
}

/// The registry key of group member `i`'s enclave. A committee's
/// registry holds its `n` replica keys, then its `n` enclave keys
/// ([`derive_committee`](super::derive_committee)), so member `i` signs
/// natively as `KeyId(i)` and through its enclave as `KeyId(n + i)`.
pub fn enclave_key(registry: &KeyRegistry, i: usize) -> KeyId {
    KeyId((registry.len() / 2 + i) as u64)
}

/// What a [`QuorumCert`] certifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertKind {
    /// A quorum of checkpoint votes over `(seq, state root)`.
    Checkpoint,
    /// A quorum of commit votes over `(view, seq, block digest)`.
    Commit,
    /// The AHLR leader enclave's aggregate of a quorum of votes in one
    /// phase.
    Aggregate(VotePhase),
}

impl CertKind {
    /// Every kind, indexed by its tag byte where a carrier holds several.
    const ALL: [CertKind; 4] = [
        CertKind::Checkpoint,
        CertKind::Commit,
        CertKind::Aggregate(VotePhase::Prepare),
        CertKind::Aggregate(VotePhase::Commit),
    ];

    pub(crate) fn tag(self) -> u8 {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is listed") as u8
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(tag as usize).copied()
    }
}

/// Proof that a quorum agreed on `(view, seq, digest)` (see module docs).
#[derive(Clone, Debug)]
pub struct QuorumCert {
    /// What was agreed.
    pub kind: CertKind,
    /// The view (0 for a checkpoint, which no view binds).
    pub view: u64,
    /// The sequence number (block height).
    pub seq: u64,
    /// The block digest; for a checkpoint, the state root.
    pub digest: Hash,
    /// The signers, by ascending group index, each with its proof.
    pub signers: Vec<(usize, MsgCert)>,
}

impl QuorumCert {
    /// Member `me`'s checkpoint vote: a one-signer checkpoint certificate,
    /// signed over [`checkpoint_digest`] (`key = None` in cost-only runs,
    /// which carry no signatures).
    pub fn checkpoint_vote(seq: u64, root: Hash, me: usize, key: Option<&SigningKey>) -> Self {
        let sign = |k: &SigningKey| MsgCert::Sig(k.sign(&checkpoint_digest(seq, &root)));
        let signers = vec![(me, key.map_or(MsgCert::Simulated, sign))];
        QuorumCert {
            kind: CertKind::Checkpoint,
            view: 0,
            seq,
            digest: root,
            signers,
        }
    }

    /// Verify against a quorum of `quorum`: signers in strictly ascending
    /// group index, at least `quorum` of them (an aggregate has exactly
    /// one), and — given the committee's `registry` — every proof valid
    /// for its signer's key over what this kind signs: a checkpoint or an
    /// HL commit natively, an attested commit or an aggregate through the
    /// signer's enclave in its kind's log. Without a registry (cost-only
    /// runs) only the signers are counted.
    pub fn verify(&self, quorum: usize, registry: Option<&KeyRegistry>) -> bool {
        let ascending = self.signers.windows(2).all(|w| w[0].0 < w[1].0);
        let counted = match self.kind {
            CertKind::Aggregate(_) => self.signers.len() == 1,
            _ => self.signers.len() >= quorum,
        };
        if !ascending || !counted {
            return false;
        }
        let Some(registry) = registry else {
            return true;
        };
        let attested = matches!(self.signers.first(), Some((_, MsgCert::Attested(_))));
        let slot = Slot {
            view: self.view,
            seq: self.seq,
        };
        let signed = match (self.kind, attested) {
            (CertKind::Checkpoint, false) => checkpoint_digest(self.seq, &self.digest),
            (CertKind::Commit, false) => self.digest,
            (CertKind::Commit, true) => attestation_digest(COMMIT_LOG, slot, &self.digest),
            (CertKind::Aggregate(phase), true) => {
                attestation_digest(logs(phase).1, slot, &self.digest)
            }
            _ => return false,
        };
        let mut pairs: Vec<(KeyId, &Signature)> = Vec::with_capacity(self.signers.len());
        for (i, proof) in &self.signers {
            // An attestation's signature covers its log, slot and digest,
            // so one for anything else fails against `signed`.
            match proof {
                _ if *i >= registry.len() / 2 => return false,
                MsgCert::Sig(sig) if !attested => pairs.push((KeyId(*i as u64), sig)),
                MsgCert::Attested(a) if attested => pairs.push((enclave_key(registry, *i), &a.sig)),
                _ => return false,
            }
        }
        registry.verify_batch(&signed, pairs)
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        48 + 72 * self.signers.len()
    }

    /// Encode everything but the kind, which the carrier implies: `seq`,
    /// `digest`, the signers, and the view unless this is a checkpoint
    /// (whose layout manifests already on disk hold).
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.seq);
        w.hash(&self.digest);
        w.u32(self.signers.len() as u32);
        for (i, proof) in &self.signers {
            w.u64(*i as u64);
            proof.encode(w);
        }
        if self.kind != CertKind::Checkpoint {
            w.u64(self.view);
        }
    }

    /// Inverse of [`QuorumCert::encode`] for a certificate of `kind`:
    /// `None` on truncation, a bad proof, or over [`MAX_SIGNERS`] signers.
    pub fn decode(r: &mut Reader<'_>, kind: CertKind) -> Option<Self> {
        let seq = r.u64()?;
        let digest = r.hash()?;
        let n = r.u32()? as usize;
        if n > MAX_SIGNERS {
            return None;
        }
        let mut signers = Vec::with_capacity(n);
        for _ in 0..n {
            signers.push((r.u64()? as usize, MsgCert::decode(r)?));
        }
        let view = if kind == CertKind::Checkpoint {
            0
        } else {
            r.u64()?
        };
        Some(QuorumCert {
            kind,
            view,
            seq,
            digest,
            signers,
        })
    }
}

impl MsgCert {
    /// Tag `0` (no bytes), `1` and a signature, or `2` and an attestation.
    pub(crate) fn encode(&self, w: &mut Writer) {
        match self {
            MsgCert::Simulated => w.u8(0),
            MsgCert::Sig(s) => {
                w.u8(1);
                w.bytes(&s.to_bytes());
            }
            MsgCert::Attested(a) => {
                w.u8(2);
                w.u32(a.log.0);
                w.u64(a.slot.view);
                w.u64(a.slot.seq);
                w.hash(&a.digest);
                w.bytes(&a.sig.to_bytes());
            }
        }
    }

    /// Inverse of [`MsgCert::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let sig = |r: &mut Reader<'_>| Some(Signature::from_bytes(r.bytes()?.try_into().ok()?));
        Some(match r.u8()? {
            0 => MsgCert::Simulated,
            1 => MsgCert::Sig(sig(r)?),
            2 => MsgCert::Attested(Attestation {
                log: LogId(r.u32()?),
                slot: Slot {
                    view: r.u64()?,
                    seq: r.u64()?,
                },
                digest: r.hash()?,
                sig: sig(r)?,
            }),
            _ => return None,
        })
    }
}

/// Checkpoint votes merged per height until a quorum agrees on one root.
#[derive(Default)]
pub(crate) struct CheckpointVotes {
    /// Height → voter → (root, proof).
    pending: BTreeMap<u64, BTreeMap<usize, (Hash, MsgCert)>>,
    /// The highest certified height.
    certified: u64,
}

impl CheckpointVotes {
    /// Record a verified vote. Returns the certificate it completes, if
    /// it brings `quorum` voters to one root above the last certified
    /// height. Signers come out by ascending index, so every replica that
    /// saw the same votes, in any order, forms the same bytes.
    pub(crate) fn record(&mut self, vote: QuorumCert, quorum: usize) -> Option<QuorumCert> {
        let (seq, root) = (vote.seq, vote.digest);
        let (voter, proof) = vote.signers.into_iter().next()?;
        if seq <= self.certified {
            return None;
        }
        let votes = self.pending.entry(seq).or_default();
        votes.insert(voter, (root, proof));
        if votes.values().filter(|(r, _)| *r == root).count() < quorum {
            return None;
        }
        let signers = votes
            .iter()
            .filter(|(_, (r, _))| *r == root)
            .map(|(i, (_, proof))| (*i, proof.clone()))
            .collect();
        self.adopt(seq);
        Some(QuorumCert {
            kind: CertKind::Checkpoint,
            view: 0,
            seq,
            digest: root,
            signers,
        })
    }

    /// Treat `seq` as certified, if newer (a certificate formed, came by
    /// state sync or from disk): votes at or below it are dropped.
    pub(crate) fn adopt(&mut self, seq: u64) {
        if seq > self.certified {
            self.certified = seq;
            self.pending.retain(|s, _| *s > seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::derive_committee;
    use ahl_tee::AttestedLog;

    fn root(x: u8) -> Hash {
        let mut h = Hash::ZERO;
        h.0[0] = x;
        h
    }

    fn bytes(cert: &QuorumCert) -> Vec<u8> {
        let mut w = Writer::new();
        cert.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn quorum_of_matching_votes_forms_cert() {
        let mut t = CheckpointVotes::default();
        assert!(t
            .record(QuorumCert::checkpoint_vote(10, root(1), 0, None), 2)
            .is_none());
        // A conflicting vote does not count toward the quorum.
        assert!(t
            .record(QuorumCert::checkpoint_vote(10, root(9), 1, None), 2)
            .is_none());
        let cert = t
            .record(QuorumCert::checkpoint_vote(10, root(1), 2, None), 2)
            .expect("quorum reached");
        assert_eq!(
            (cert.kind, cert.seq, cert.digest),
            (CertKind::Checkpoint, 10, root(1))
        );
        assert_eq!(cert.signers.len(), 2);
        assert!(cert.verify(2, None));
        assert!(!cert.verify(3, None));
    }

    #[test]
    fn older_heights_ignored_after_cert() {
        let mut t = CheckpointVotes::default();
        t.record(QuorumCert::checkpoint_vote(10, root(1), 0, None), 1)
            .expect("quorum of 1");
        assert!(t
            .record(QuorumCert::checkpoint_vote(5, root(2), 1, None), 1)
            .is_none());
        assert!(t
            .record(QuorumCert::checkpoint_vote(10, root(1), 1, None), 1)
            .is_none());
    }

    /// The signer ↔ index binding, tampering, unsigned and duplicated
    /// signers, all under real crypto.
    #[test]
    fn signed_votes_verify_and_tampered_certs_fail() {
        let members = derive_committee(3, 5);
        let reg = members[0].registry.clone();
        let reg = Some(reg.as_ref());
        let mut t = CheckpointVotes::default();
        let mut cert = None;
        for m in &members {
            let vote = QuorumCert::checkpoint_vote(7, root(4), m.index, Some(&m.key));
            assert!(vote.verify(1, reg));
            cert = t.record(vote, 3).or(cert);
        }
        let cert = cert.expect("quorum of 3");
        assert!(cert.verify(3, reg));
        // Tampering with the certified root invalidates every signature.
        let mut bad = cert.clone();
        bad.digest = root(5);
        assert!(!bad.verify(3, reg));
        // A cert missing signatures fails under real crypto.
        let mut unsigned = cert.clone();
        unsigned.signers[0].1 = MsgCert::Simulated;
        assert!(!unsigned.verify(3, reg));
        // Duplicate signers cannot fake a quorum.
        let mut dup = cert.clone();
        dup.signers = vec![dup.signers[0].clone(); 3];
        assert!(!dup.verify(3, reg));
        // One genuine signature replayed under other replicas' indices
        // cannot fake a quorum either (signer ↔ claimed-index binding).
        let own = MsgCert::Sig(members[0].key.sign(&checkpoint_digest(7, &root(4))));
        let forged = QuorumCert {
            signers: (0..3).map(|i| (i, own.clone())).collect(),
            ..cert.clone()
        };
        assert!(!forged.verify(3, reg));
        // And a vote claiming someone else's index fails verification.
        let impostor = QuorumCert {
            signers: vec![(2, own)],
            ..cert.clone()
        };
        assert!(!impostor.verify(1, reg));
        // A member's enclave key is not one of its native keys.
        let enclave_signed = QuorumCert {
            signers: vec![(
                0,
                MsgCert::Sig(members[0].tee_key.sign(&checkpoint_digest(7, &root(4)))),
            )],
            ..cert
        };
        assert!(!enclave_signed.verify(1, reg));
    }

    #[test]
    fn cert_vote_order_is_arrival_order_independent() {
        // Certificates are durable and compared across replicas, so their
        // signer order must be canonical (ascending index) whatever order
        // the votes arrived in.
        let members = derive_committee(5, 9);
        let reg = members[0].registry.clone();
        let mut certs = Vec::new();
        for order in [
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ] {
            let mut t = CheckpointVotes::default();
            let mut cert = None;
            for i in order {
                let v = QuorumCert::checkpoint_vote(12, root(6), i, Some(&members[i].key));
                cert = t.record(v, 5).or(cert);
            }
            certs.push(cert.expect("quorum of 5"));
        }
        for cert in &certs {
            assert_eq!(
                cert.signers.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                [0, 1, 2, 3, 4]
            );
            assert_eq!(bytes(cert), bytes(&certs[0]));
            assert!(cert.verify(5, Some(&reg)));
        }
    }

    #[test]
    fn adopt_keeps_newest() {
        let mut t = CheckpointVotes::default();
        t.adopt(20);
        t.adopt(10);
        assert!(t
            .record(QuorumCert::checkpoint_vote(15, root(1), 0, None), 1)
            .is_none());
        assert!(t
            .record(QuorumCert::checkpoint_vote(25, root(1), 0, None), 1)
            .is_some());
    }

    /// The checkpoint layout manifests on disk already hold: `seq`, root,
    /// `u32` count, then each vote's `u64` index and `0` (unsigned) or
    /// `1` + length-prefixed signature; modelled as `48 + 72·signers`.
    #[test]
    fn checkpoint_layout_is_pinned() {
        let key = derive_committee(2, 3).swap_remove(1).key;
        let sig = key.sign(&checkpoint_digest(9, &root(2)));
        let cert = QuorumCert {
            kind: CertKind::Checkpoint,
            view: 0,
            seq: 9,
            digest: root(2),
            signers: vec![(0, MsgCert::Simulated), (1, MsgCert::Sig(sig))],
        };
        let mut layout = Writer::new();
        layout.u64(9);
        layout.hash(&root(2));
        layout.u32(2);
        layout.u64(0);
        layout.u8(0);
        layout.u64(1);
        layout.u8(1);
        layout.bytes(&sig.to_bytes());
        assert_eq!(bytes(&cert), layout.into_bytes());
        assert_eq!(cert.wire_size(), 48 + 72 * 2);
    }

    /// A signer count claiming `u32::MAX` (or anything past the cap) is
    /// refused for every kind, with nothing following and with honest
    /// signers following alike; a count within the cap but longer than
    /// the bytes fails on truncation.
    #[test]
    fn hostile_signer_counts_are_refused() {
        let kinds = [
            CertKind::Checkpoint,
            CertKind::Commit,
            CertKind::Aggregate(VotePhase::Prepare),
            CertKind::Aggregate(VotePhase::Commit),
        ];
        for kind in kinds {
            for (count, following) in [
                (u32::MAX, 0),
                (MAX_SIGNERS as u32 + 1, 0),
                (MAX_SIGNERS as u32 + 1, MAX_SIGNERS + 1),
                (MAX_SIGNERS as u32, MAX_SIGNERS - 1),
            ] {
                let mut w = Writer::new();
                w.u64(1);
                w.hash(&root(1));
                w.u32(count);
                for i in 0..following {
                    w.u64(i as u64);
                    MsgCert::Simulated.encode(&mut w);
                }
                w.u64(0);
                let b = w.into_bytes();
                assert!(
                    QuorumCert::decode(&mut Reader::new(&b), kind).is_none(),
                    "{kind:?} {count}"
                );
            }
        }
    }

    /// Commit certificates from an attested committee: each vote is an
    /// enclave attestation in the commit log, bound to its signer's
    /// enclave key. An attestation replayed under other indices, one in
    /// another log, or a replica signing the attestation digest with its
    /// native key (dodging the enclave) does not verify.
    #[test]
    fn attested_commit_and_aggregate_certificates() {
        let members = derive_committee(3, 11);
        let reg = members[0].registry.clone();
        let reg = Some(reg.as_ref());
        let digest = root(7);
        let slot = Slot { view: 1, seq: 4 };
        let attest = |i: usize, log: LogId| {
            let att = AttestedLog::new(members[i].tee_key.clone()).append(log, slot, digest);
            MsgCert::Attested(att.expect("fresh slot"))
        };
        let cert = |kind, signers: Vec<(usize, MsgCert)>| QuorumCert {
            kind,
            view: 1,
            seq: 4,
            digest,
            signers,
        };
        let commit = cert(
            CertKind::Commit,
            vec![(0, attest(0, COMMIT_LOG)), (2, attest(2, COMMIT_LOG))],
        );
        assert!(commit.verify(2, reg));
        assert!(
            !commit.verify(3, reg),
            "two signers are not a quorum of three"
        );
        assert!(
            !QuorumCert {
                view: 2,
                ..commit.clone()
            }
            .verify(2, reg),
            "another slot"
        );
        let replayed = cert(
            CertKind::Commit,
            vec![(0, attest(0, COMMIT_LOG)), (1, attest(0, COMMIT_LOG))],
        );
        assert!(!replayed.verify(2, reg));
        let prepares = cert(
            CertKind::Commit,
            vec![(0, attest(0, PREPARE_LOG)), (1, attest(1, PREPARE_LOG))],
        );
        assert!(
            !prepares.verify(2, reg),
            "prepare attestations are not commit votes"
        );
        let native = attestation_digest(COMMIT_LOG, slot, &digest);
        let dodged = |i: usize| {
            let att = Attestation {
                log: COMMIT_LOG,
                slot,
                digest,
                sig: members[i].key.sign(&native),
            };
            MsgCert::Attested(att)
        };
        assert!(!cert(CertKind::Commit, vec![(0, dodged(0)), (1, dodged(1))]).verify(2, reg));

        let agg = |phase, log| cert(CertKind::Aggregate(phase), vec![(1, attest(1, log))]);
        assert!(agg(VotePhase::Commit, AGG_COMMIT_LOG).verify(2, reg));
        assert!(agg(VotePhase::Prepare, AGG_PREPARE_LOG).verify(2, reg));
        assert!(
            !agg(VotePhase::Commit, AGG_PREPARE_LOG).verify(2, reg),
            "a prepare aggregate"
        );
        assert!(!cert(
            CertKind::Aggregate(VotePhase::Commit),
            vec![(1, MsgCert::Simulated)]
        )
        .verify(2, reg));
        let two = cert(
            CertKind::Aggregate(VotePhase::Commit),
            vec![
                (0, attest(0, AGG_COMMIT_LOG)),
                (1, attest(1, AGG_COMMIT_LOG)),
            ],
        );
        assert!(!two.verify(2, reg), "an aggregate has one signer");
        // Every kind survives its codec.
        for c in [commit, agg(VotePhase::Prepare, AGG_PREPARE_LOG)] {
            let b = bytes(&c);
            let back = QuorumCert::decode(&mut Reader::new(&b), c.kind).expect("decodes");
            assert_eq!(
                (back.kind, back.view, bytes(&back)),
                (c.kind, c.view, bytes(&c))
            );
            assert!(back.verify(2, reg));
        }
    }
}
