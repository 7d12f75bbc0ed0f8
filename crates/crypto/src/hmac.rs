//! HMAC-SHA256 (RFC 2104), the MAC underlying the simulated signature
//! scheme in [`crate::sig`].

use crate::sha256::{Hash, Sha256};

const BLOCK: usize = 64;

/// Compute HMAC-SHA256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Hash {
    // Keys longer than the block size are hashed first.
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        let kh = {
            let mut h = Sha256::new();
            h.update(key);
            h.finalize()
        };
        k[..32].copy_from_slice(&kh.0);
    } else {
        k[..key.len()].copy_from_slice(key);
    }

    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }

    let inner = {
        let mut h = Sha256::new();
        h.update(ipad);
        h.update(msg);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(opad);
    h.update(inner.0);
    h.finalize()
}

/// Constant-shape equality check for MACs. (Timing attacks are outside the
/// simulation threat model, but branch-free comparison is still the correct
/// idiom to expose.)
pub fn mac_eq(a: &Hash, b: &Hash) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.0.iter().zip(b.0.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: Hash) -> String {
        h.to_hex()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(out),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn mac_eq_detects_differences() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(mac_eq(&a, &b));
        b.0[31] ^= 1;
        assert!(!mac_eq(&a, &b));
    }

    proptest::proptest! {
        #[test]
        fn different_keys_different_macs(k1: Vec<u8>, k2: Vec<u8>, msg: Vec<u8>) {
            if k1 != k2 {
                proptest::prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
            }
        }
    }
}
