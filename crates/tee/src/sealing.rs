//! Data sealing and monotonic counters (paper §2.3 + Appendix A).
//!
//! Sealing lets an enclave persist state across crashes, encrypted and
//! authenticated under a key bound to the enclave measurement. The host
//! controls persistent storage, so it can *replay stale blobs* (rollback
//! attack, Matetic et al.); the tests demonstrate the attack and the
//! monotonic-counter defense.

use ahl_crypto::{hmac_sha256, mac_eq, sha256_parts, Hash};

/// The enclave measurement a sealing key is bound to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Measurement(pub Hash);

/// A sealed blob as it sits on (host-controlled) persistent storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBlob {
    /// Version stamp chosen by the sealing enclave (e.g. a counter value).
    pub version: u64,
    /// The enclosed state (kept in clear in the simulation — the TEE threat
    /// model here is integrity-only / seal-glassed, see paper §3.3).
    pub data: Vec<u8>,
    mac: Hash,
}

/// The sealing facility of one enclave.
#[derive(Clone, Debug)]
pub struct Sealer {
    measurement: Measurement,
    sealing_key: [u8; 32],
}

/// Why unsealing failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnsealError {
    /// MAC mismatch: tampered data or a blob sealed by another enclave.
    BadMac,
    /// Blob authentic but older than the expected version (rollback).
    Stale {
        /// Version found in the blob.
        found: u64,
        /// Minimum version the caller required.
        required: u64,
    },
}

impl Sealer {
    /// Derive a sealer for the enclave with `measurement` (key derivation
    /// stands in for `sgx_get_seal_key`, deterministic per measurement and
    /// platform seed).
    pub fn new(measurement: Measurement, platform_seed: u64) -> Self {
        let key = sha256_parts(&[
            b"ahl-seal-key",
            &measurement.0 .0,
            &platform_seed.to_be_bytes(),
        ]);
        Sealer {
            measurement,
            sealing_key: key.0,
        }
    }

    /// The measurement this sealer is bound to.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Seal `data` with a `version` stamp.
    pub fn seal(&self, version: u64, data: &[u8]) -> SealedBlob {
        let mac = self.compute_mac(version, data);
        SealedBlob {
            version,
            data: data.to_vec(),
            mac,
        }
    }

    fn compute_mac(&self, version: u64, data: &[u8]) -> Hash {
        let framed = sha256_parts(&[b"ahl-seal", &version.to_be_bytes(), data]);
        hmac_sha256(&self.sealing_key, &framed.0)
    }

    /// Unseal `blob`, requiring `min_version` freshness. Callers that cannot
    /// establish freshness (no counter) pass 0 — and are then vulnerable to
    /// rollback, as the tests demonstrate.
    pub fn unseal(&self, blob: &SealedBlob, min_version: u64) -> Result<Vec<u8>, UnsealError> {
        if !mac_eq(&self.compute_mac(blob.version, &blob.data), &blob.mac) {
            return Err(UnsealError::BadMac);
        }
        if blob.version < min_version {
            return Err(UnsealError::Stale {
                found: blob.version,
                required: min_version,
            });
        }
        Ok(blob.data.clone())
    }
}

/// A hardware monotonic counter (`sgx_increment_monotonic_counter`): the
/// anti-rollback anchor. Unlike sealed blobs it survives host interference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonotonicCounter {
    value: u64,
}

impl MonotonicCounter {
    /// A fresh counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment and return the new value.
    pub fn increment(&mut self) -> u64 {
        self.value += 1;
        self.value
    }

    /// Read without incrementing.
    pub fn read(&self) -> u64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256;

    fn sealer() -> Sealer {
        Sealer::new(Measurement(sha256(b"beacon-enclave-v1")), 1)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let s = sealer();
        let blob = s.seal(3, b"log heads: 42");
        assert_eq!(s.unseal(&blob, 0).expect("authentic"), b"log heads: 42");
        assert_eq!(s.unseal(&blob, 3).expect("fresh enough"), b"log heads: 42");
    }

    #[test]
    fn tampered_blob_rejected() {
        let s = sealer();
        let mut blob = s.seal(1, b"state");
        blob.data[0] ^= 0xff;
        assert_eq!(s.unseal(&blob, 0), Err(UnsealError::BadMac));
    }

    #[test]
    fn version_tamper_rejected() {
        let s = sealer();
        let mut blob = s.seal(1, b"state");
        blob.version = 99; // host inflates the freshness stamp
        assert_eq!(s.unseal(&blob, 0), Err(UnsealError::BadMac));
    }

    #[test]
    fn cross_enclave_blob_rejected() {
        let a = Sealer::new(Measurement(sha256(b"enclave-a")), 1);
        let b = Sealer::new(Measurement(sha256(b"enclave-b")), 1);
        let blob = a.seal(1, b"secret state");
        assert_eq!(b.unseal(&blob, 0), Err(UnsealError::BadMac));
    }

    #[test]
    fn cross_platform_blob_rejected() {
        // Same enclave code, different machine: different platform seed.
        let a = Sealer::new(Measurement(sha256(b"enclave")), 1);
        let b = Sealer::new(Measurement(sha256(b"enclave")), 2);
        let blob = a.seal(1, b"state");
        assert_eq!(b.unseal(&blob, 0), Err(UnsealError::BadMac));
    }

    /// The rollback attack of Matetic et al.: a properly sealed but stale
    /// blob passes MAC verification. Without a counter the enclave accepts
    /// it; with one it does not.
    #[test]
    fn rollback_attack_and_counter_defense() {
        let s = sealer();
        let mut counter = MonotonicCounter::new();

        let v1 = counter.increment();
        let old_blob = s.seal(v1, b"heads=10");
        let v2 = counter.increment();
        let _new_blob = s.seal(v2, b"heads=20");

        // Attack: host serves the old blob on recovery.
        // (a) Enclave without freshness tracking: accepted — attack works.
        assert!(s.unseal(&old_blob, 0).is_ok());
        // (b) Enclave consults its monotonic counter: rejected.
        assert_eq!(
            s.unseal(&old_blob, counter.read()),
            Err(UnsealError::Stale {
                found: v1,
                required: v2
            })
        );
    }

    #[test]
    fn counter_is_monotone() {
        let mut c = MonotonicCounter::new();
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment(), 1);
        assert_eq!(c.increment(), 2);
        assert_eq!(c.read(), 2);
    }
}
