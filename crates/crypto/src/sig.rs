//! Digital signatures with simulated ECDSA cost.
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! The behavioural content of a signature in the paper's protocols is
//! (a) *unforgeability* — a Byzantine node cannot produce valid messages on
//! behalf of another node or of an enclave — and (b) *CPU cost* (Table 2:
//! signing 458.4 µs, verification 844.2 µs). This module provides (a)
//! structurally: signing requires holding the [`SigningKey`] object, and the
//! verifying side only ever holds a [`KeyRegistry`] oracle that answers
//! valid/invalid without exposing secrets. MACs are HMAC-SHA256 over the
//! message digest, so forging without the secret requires breaking the hash.
//! Cost (b) is charged by callers through the `ahl-tee` cost model.

use crate::hmac::{hmac_sha256, mac_eq};
use crate::sha256::{sha256_parts, Hash};

/// Identifies a key pair in the registry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct KeyId(pub u64);

/// The private half of a key pair. Possession of this object is the
/// capability to sign.
#[derive(Clone, Debug)]
pub struct SigningKey {
    id: KeyId,
    secret: [u8; 32],
}

impl SigningKey {
    /// The registry id of this key.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Sign a message digest.
    pub fn sign(&self, digest: &Hash) -> Signature {
        Signature {
            signer: self.id,
            mac: hmac_sha256(&self.secret, &digest.0),
        }
    }

    /// Sign raw bytes (digest computed internally with domain framing).
    pub fn sign_bytes(&self, domain: &str, msg: &[u8]) -> Signature {
        self.sign(&sha256_parts(&[domain.as_bytes(), msg]))
    }
}

/// A signature: the signer's key id plus a MAC over the digest.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    /// Claimed signer.
    pub signer: KeyId,
    mac: Hash,
}

impl Signature {
    /// Serialized length of [`Signature::to_bytes`].
    pub const BYTES: usize = 40;

    /// Serialize for durable storage (checkpoint certificates persisted in
    /// a node's manifest must survive a restart). This exposes no signing
    /// capability: a deserialized MAC still has to match the registry's
    /// HMAC to verify, so fabricated bytes fail verification exactly like
    /// any other forgery.
    pub fn to_bytes(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..8].copy_from_slice(&self.signer.0.to_be_bytes());
        out[8..].copy_from_slice(&self.mac.0);
        out
    }

    /// Deserialize a signature previously produced by
    /// [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8; Self::BYTES]) -> Self {
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[..8]);
        let mut mac = Hash::ZERO;
        mac.0.copy_from_slice(&bytes[8..]);
        Signature {
            signer: KeyId(u64::from_be_bytes(id)),
            mac,
        }
    }
}

/// Verification oracle. Holds secrets internally; exposes only yes/no
/// verification, mirroring a public-key directory.
#[derive(Default, Debug)]
pub struct KeyRegistry {
    secrets: Vec<[u8; 32]>,
}

impl KeyRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generate a new key pair from seed material. Returns the private half;
    /// the registry retains what it needs for verification.
    pub fn generate(&mut self, seed: u64) -> SigningKey {
        let id = KeyId(self.secrets.len() as u64);
        let secret = sha256_parts(&[b"ahl-keygen", &seed.to_be_bytes(), &id.0.to_be_bytes()]).0;
        self.secrets.push(secret);
        SigningKey { id, secret }
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// True when no keys have been generated.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Verify `sig` over `digest` for the claimed signer.
    pub fn verify(&self, digest: &Hash, sig: &Signature) -> bool {
        let Some(secret) = self.secrets.get(sig.signer.0 as usize) else {
            return false;
        };
        mac_eq(&hmac_sha256(secret, &digest.0), &sig.mac)
    }

    /// Verify a signature over raw bytes with domain framing (the dual of
    /// [`SigningKey::sign_bytes`]).
    pub fn verify_bytes(&self, domain: &str, msg: &[u8], sig: &Signature) -> bool {
        self.verify(&sha256_parts(&[domain.as_bytes(), msg]), sig)
    }

    /// Verify a batch of signatures over one shared `digest` — the shape
    /// of a quorum certificate, where every vote signs the same checkpoint
    /// or commit digest. Each `(expected, sig)` pair checks that the
    /// signature claims the expected signer *and* verifies; the whole
    /// batch must pass. Amortizations over the per-vote loop: the digest
    /// and its framing are computed once (callers of
    /// [`KeyRegistry::verify_bytes_batch`] would otherwise re-hash the
    /// message per vote), duplicate `(signer, mac)` pairs verify once, and
    /// the scan short-circuits on the first failure. (With real ECDSA/BLS
    /// this is where batch verification or signature aggregation slots
    /// in — the call shape is already the batched one.)
    pub fn verify_batch<'a, I>(&self, digest: &Hash, sigs: I) -> bool
    where
        I: IntoIterator<Item = (KeyId, &'a Signature)>,
    {
        // Certificates are small (≤ committee size), so the dedup memo is
        // a linear scan — no allocation-heavy set for a few dozen votes.
        let mut seen: Vec<(KeyId, Hash)> = Vec::new();
        for (expected, sig) in sigs {
            if sig.signer != expected {
                return false;
            }
            if seen
                .iter()
                .any(|(id, mac)| *id == sig.signer && *mac == sig.mac)
            {
                continue;
            }
            if !self.verify(digest, sig) {
                return false;
            }
            seen.push((sig.signer, sig.mac));
        }
        true
    }

    /// Batch form of [`KeyRegistry::verify_bytes`]: frame and hash the
    /// message once, then [`KeyRegistry::verify_batch`] the vote set
    /// against it.
    pub fn verify_bytes_batch<'a, I>(&self, domain: &str, msg: &[u8], sigs: I) -> bool
    where
        I: IntoIterator<Item = (KeyId, &'a Signature)>,
    {
        self.verify_batch(&sha256_parts(&[domain.as_bytes(), msg]), sigs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn sign_verify_roundtrip() {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(1);
        let digest = sha256(b"block 42");
        let sig = key.sign(&digest);
        assert!(reg.verify(&digest, &sig));
    }

    #[test]
    fn wrong_digest_rejected() {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(1);
        let sig = key.sign(&sha256(b"block 42"));
        assert!(!reg.verify(&sha256(b"block 43"), &sig));
    }

    #[test]
    fn cross_signer_claims_rejected() {
        let mut reg = KeyRegistry::new();
        let k0 = reg.generate(1);
        let _k1 = reg.generate(2);
        let digest = sha256(b"m");
        let mut sig = k0.sign(&digest);
        // A Byzantine node relabels its own signature as another node's.
        sig.signer = KeyId(1);
        assert!(!reg.verify(&digest, &sig));
    }

    #[test]
    fn unknown_signer_rejected() {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(1);
        let digest = sha256(b"m");
        let mut sig = key.sign(&digest);
        sig.signer = KeyId(999);
        assert!(!reg.verify(&digest, &sig));
    }

    #[test]
    fn domain_separation() {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(1);
        let sig = key.sign_bytes("prepare", b"m");
        assert!(reg.verify_bytes("prepare", b"m", &sig));
        assert!(!reg.verify_bytes("commit", b"m", &sig));
    }

    #[test]
    fn deterministic_keygen() {
        let mut r1 = KeyRegistry::new();
        let mut r2 = KeyRegistry::new();
        let k1 = r1.generate(7);
        let k2 = r2.generate(7);
        let d = sha256(b"x");
        assert_eq!(k1.sign(&d), k2.sign(&d));
    }

    #[test]
    fn registry_len() {
        let mut reg = KeyRegistry::new();
        assert!(reg.is_empty());
        reg.generate(0);
        reg.generate(1);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn batch_accepts_full_quorum() {
        let mut reg = KeyRegistry::new();
        let keys: Vec<SigningKey> = (0..7).map(|i| reg.generate(i)).collect();
        let digest = sha256(b"checkpoint 9");
        let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(&digest)).collect();
        let pairs: Vec<(KeyId, &Signature)> =
            keys.iter().zip(&sigs).map(|(k, s)| (k.id(), s)).collect();
        assert!(reg.verify_batch(&digest, pairs));
    }

    #[test]
    fn batch_rejects_single_forgery() {
        let mut reg = KeyRegistry::new();
        let keys: Vec<SigningKey> = (0..5).map(|i| reg.generate(i)).collect();
        let digest = sha256(b"checkpoint 9");
        let mut sigs: Vec<Signature> = keys.iter().map(|k| k.sign(&digest)).collect();
        // One vote signs a different digest — the whole cert must fail.
        sigs[3] = keys[3].sign(&sha256(b"checkpoint 10"));
        let pairs: Vec<(KeyId, &Signature)> =
            keys.iter().zip(&sigs).map(|(k, s)| (k.id(), s)).collect();
        assert!(!reg.verify_batch(&digest, pairs));
    }

    #[test]
    fn batch_enforces_signer_binding() {
        // A valid signature attributed to the wrong slot must fail even
        // though it would verify standalone under its true signer.
        let mut reg = KeyRegistry::new();
        let k0 = reg.generate(1);
        let k1 = reg.generate(2);
        let digest = sha256(b"m");
        let s0 = k0.sign(&digest);
        assert!(reg.verify(&digest, &s0));
        assert!(!reg.verify_batch(&digest, [(k1.id(), &s0)]));
    }

    #[test]
    fn batch_memoizes_duplicate_votes() {
        // Duplicate (signer, mac) pairs verify once and still pass; a
        // duplicate of a *bad* signature still fails on first sight.
        let mut reg = KeyRegistry::new();
        let key = reg.generate(1);
        let digest = sha256(b"m");
        let sig = key.sign(&digest);
        assert!(reg.verify_batch(&digest, [(key.id(), &sig), (key.id(), &sig)]));
        let bad = key.sign(&sha256(b"other"));
        assert!(!reg.verify_batch(&digest, [(key.id(), &bad), (key.id(), &bad)]));
    }

    #[test]
    fn batch_bytes_matches_per_vote_verify_bytes() {
        let mut reg = KeyRegistry::new();
        let keys: Vec<SigningKey> = (0..4).map(|i| reg.generate(i)).collect();
        let sigs: Vec<Signature> = keys
            .iter()
            .map(|k| k.sign_bytes("commit", b"blk"))
            .collect();
        let pairs: Vec<(KeyId, &Signature)> =
            keys.iter().zip(&sigs).map(|(k, s)| (k.id(), s)).collect();
        assert!(reg.verify_bytes_batch("commit", b"blk", pairs.clone()));
        assert!(!reg.verify_bytes_batch("prepare", b"blk", pairs));
        for (k, s) in keys.iter().zip(&sigs) {
            assert!(reg.verify_bytes("commit", b"blk", s));
            assert_eq!(k.id(), s.signer);
        }
    }

    #[test]
    fn empty_batch_is_vacuously_valid() {
        // Quorum-size enforcement lives with the certificate, not here.
        let reg = KeyRegistry::new();
        assert!(reg.verify_batch(&sha256(b"m"), std::iter::empty()));
    }

    proptest::proptest! {
        #[test]
        fn verify_only_accepts_genuine(msg: Vec<u8>, tamper in 0usize..32) {
            let mut reg = KeyRegistry::new();
            let key = reg.generate(3);
            let digest = sha256(&msg);
            let sig = key.sign(&digest);
            proptest::prop_assert!(reg.verify(&digest, &sig));
            let mut bad = digest;
            bad.0[tamper] ^= 0x01;
            proptest::prop_assert!(!reg.verify(&bad, &sig));
        }
    }
}
