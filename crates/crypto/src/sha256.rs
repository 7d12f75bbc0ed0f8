//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The paper's protocols hash every consensus message, block, and state
//! tuple; Table 2 measures SHA-256 inside SGX at 2.5 µs, and on the commit
//! path here hashing is most of a transaction's CPU. So the compression
//! function has two kernels behind one `compress_blocks(state, blocks)`:
//!
//! * a hardware kernel (`shani`, x86-64 SHA extensions), used whenever
//!   `is_x86_feature_detected!` finds them on the running CPU;
//! * the portable scalar rounds, which stay because they are the only
//!   kernel that runs on aarch64 and on x86 without SHA, and because the
//!   tests hold the hardware kernel equal to them.
//!
//! The CPU alone selects: there is no feature, variable or field to set.
//! Both kernels read whole blocks straight from the caller's slice, padding
//! is written in one step, and [`sha256_parts`] compresses a short framed
//! message (every tree node) from a stack buffer without streaming it.
//! Validated against the NIST test vectors, through each kernel.

use std::fmt;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero hash, used as a sentinel (e.g. genesis parent).
    pub const ZERO: Hash = Hash([0; 32]);

    /// Interpret the first 8 bytes as a big-endian u64 (for randomness
    /// comparisons such as the beacon's "lowest rnd wins" rule).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Hex encoding of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Largest framed message [`sha256_parts`] hashes in one shot: with the
/// `0x80` and the 8-byte length it still fits two blocks.
const ONE_SHOT_MAX: usize = 119;

/// The portable kernel: fold every 64-byte block of `blocks` into `state`.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Fold every 64-byte block of `blocks` into `state` with the fastest
/// kernel this CPU runs.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_scalar(state, blocks)
}

/// The two compression entry points, exported for the `crypto_ops`
/// `kernel/*` bench rows alone: calling them changes nothing about which
/// kernel the hashers use.
#[doc(hidden)]
pub mod kernels {
    /// The portable kernel, whatever the CPU.
    pub fn scalar(state: &mut [u32; 8], blocks: &[u8]) {
        super::compress_scalar(state, blocks)
    }

    /// The kernel the hashers use on this CPU.
    pub fn dispatch(state: &mut [u32; 8], blocks: &[u8]) {
        super::compress_blocks(state, blocks)
    }
}

/// Pad the message tail held in `buf[..len]` (zero beyond `len`), fold the
/// one or two closing blocks into `state` and emit the digest.
/// `total_len` is the whole message's length in bytes.
fn finish(
    mut state: [u32; 8],
    buf: &mut [u8; 128],
    len: usize,
    total_len: u64,
    kernel: impl Fn(&mut [u32; 8], &[u8]),
) -> Hash {
    debug_assert!(len <= ONE_SHOT_MAX);
    buf[len] = 0x80;
    let end = if len < 56 { 64 } else { 128 };
    buf[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    kernel(&mut state, &buf[..end]);

    let mut out = [0u8; 32];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    Hash(out)
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        self.update_with(data.as_ref(), compress_blocks);
        self
    }

    /// Absorb one part framed as [`sha256_parts`] frames each of its
    /// parts (its length as 8 big-endian bytes, then the bytes), so a
    /// digest built part by part needs no `Vec` of parts.
    pub fn part(&mut self, bytes: &[u8]) -> &mut Self {
        self.update((bytes.len() as u64).to_be_bytes());
        self.update(bytes)
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Hash {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, mut data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buf);
        }
        // Whole blocks are compressed where they lie; only the tail is kept.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finalize_with(self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> Hash {
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        finish(self.state, &mut pad, self.buf_len, self.total_len, kernel)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: impl AsRef<[u8]>) -> Hash {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash the concatenation of several byte strings with length framing, so
/// that `("ab","c")` and `("a","bc")` hash differently: each part is
/// preceded by its length as 8 big-endian bytes.
pub fn sha256_parts(parts: &[&[u8]]) -> Hash {
    parts_with(parts, compress_blocks)
}

/// [`sha256_parts`] through `kernel`. A framed message of at most
/// [`ONE_SHOT_MAX`] bytes — every tree node, key path and value digest — is
/// assembled on the stack and compressed directly; longer ones stream.
fn parts_with(parts: &[&[u8]], kernel: impl Fn(&mut [u32; 8], &[u8])) -> Hash {
    let mut buf = [0u8; 128];
    let mut len = 0;
    for p in parts {
        let end = len + 8 + p.len();
        if end > ONE_SHOT_MAX {
            return parts_streaming(parts, kernel);
        }
        buf[len..len + 8].copy_from_slice(&(p.len() as u64).to_be_bytes());
        buf[len + 8..end].copy_from_slice(p);
        len = end;
    }
    finish(H0, &mut buf, len, len as u64, kernel)
}

/// The definition of [`sha256_parts`]: stream each length, then each part.
fn parts_streaming(parts: &[&[u8]], kernel: impl Fn(&mut [u32; 8], &[u8])) -> Hash {
    let mut h = Sha256::new();
    for p in parts {
        h.update_with(&(p.len() as u64).to_be_bytes(), &kernel);
        h.update_with(p, &kernel);
    }
    h.finalize_with(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    #[cfg(target_arch = "x86_64")]
    fn shani_kernel() -> Option<Kernel> {
        fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
            assert!(shani::compress_blocks(state, blocks));
        }
        // No blocks: only reports whether the CPU has the extensions.
        shani::compress_blocks(&mut [0; 8], &[]).then_some(kernel as Kernel)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn shani_kernel() -> Option<Kernel> {
        None
    }

    /// Every kernel this CPU can run, and the run-time selection itself.
    fn all_kernels() -> Vec<(&'static str, Kernel)> {
        let mut ks: Vec<(&str, Kernel)> =
            vec![("scalar", compress_scalar), ("dispatch", compress_blocks)];
        match shani_kernel() {
            Some(k) => ks.push(("sha-ni", k)),
            None => eprintln!("skipped: no SHA extensions on this CPU, SHA-NI cases not run"),
        }
        ks
    }

    fn hash_with(data: &[u8], kernel: Kernel) -> Hash {
        let mut h = Sha256::new();
        h.update_with(data, kernel);
        h.finalize_with(kernel)
    }

    #[test]
    fn nist_vectors() {
        // FIPS 180-4 / NIST CAVP reference values.
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (name, kernel) in all_kernels() {
            for (msg, want) in vectors {
                assert_eq!(hash_with(msg, kernel).to_hex(), want, "{name}");
            }
        }
        assert_eq!(sha256(b"abc").to_hex(), vectors[1].1);
    }

    #[test]
    fn million_a() {
        for (name, kernel) in all_kernels() {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update_with(&chunk, kernel);
            }
            assert_eq!(
                h.finalize_with(kernel).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog, then over a second block of text";
        for (name, kernel) in all_kernels() {
            for split in 0..data.len() {
                let mut h = Sha256::new();
                h.update_with(&data[..split], kernel);
                h.update_with(&data[split..], kernel);
                assert_eq!(
                    h.finalize_with(kernel),
                    sha256(data),
                    "{name}: split at {split}"
                );
            }
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64 byte padding boundaries.
        for (name, kernel) in all_kernels() {
            for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
                let data = vec![0xa5u8; len];
                let mut h = Sha256::new();
                for b in &data {
                    h.update_with(&[*b], kernel);
                }
                let bytewise = h.finalize_with(kernel);
                assert_eq!(bytewise, hash_with(&data, kernel), "{name}: len {len}");
                assert_eq!(
                    bytewise,
                    hash_with(&data, compress_scalar),
                    "{name}: len {len}"
                );
            }
        }
    }

    #[test]
    fn parts_framing_prevents_ambiguity() {
        let a = sha256_parts(&[b"ab", b"c"]);
        let b = sha256_parts(&[b"a", b"bc"]);
        assert_ne!(a, b);
        assert_eq!(sha256_parts(&[b"ab", b"c"]), a);
    }

    /// The one-shot path of `sha256_parts` against the definition — the
    /// scalar hash of `len ‖ part ‖ len ‖ part …` — for 0–8 parts and every
    /// framed length up to 200, across the 55/56 and 119/120 boundaries.
    #[test]
    fn parts_one_shot_matches_definition() {
        let payload: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for (name, kernel) in all_kernels() {
            for n in 0..=8usize {
                for framed in 8 * n..=200 {
                    if n == 0 && framed > 0 {
                        break;
                    }
                    // Split the payload bytes unevenly: the first part takes
                    // the remainder, so empty and long parts both occur.
                    let total = framed - 8 * n;
                    let share = total.checked_div(n).unwrap_or(0);
                    let mut parts: Vec<&[u8]> = Vec::new();
                    let mut at = 0;
                    for i in 0..n {
                        let take = if i == 0 {
                            total - share * (n - 1)
                        } else {
                            share
                        };
                        parts.push(&payload[at..at + take]);
                        at += take;
                    }
                    let mut framed_msg = Vec::new();
                    for p in &parts {
                        framed_msg.extend_from_slice(&(p.len() as u64).to_be_bytes());
                        framed_msg.extend_from_slice(p);
                    }
                    assert_eq!(framed_msg.len(), framed);
                    let want = hash_with(&framed_msg, compress_scalar);
                    assert_eq!(
                        parts_with(&parts, kernel),
                        want,
                        "{name}: {n} parts, {framed} B"
                    );
                    assert_eq!(
                        parts_streaming(&parts, kernel),
                        want,
                        "{name}: {n} parts, {framed} B (streaming)"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let h = Hash([
            0, 0, 0, 0, 0, 0, 0, 1, // prefix = 1
            9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9,
        ]);
        assert_eq!(h.prefix_u64(), 1);
    }

    #[test]
    fn display_and_debug() {
        let h = sha256(b"abc");
        assert_eq!(format!("{h}").len(), 64);
        assert!(format!("{h:?}").starts_with("ba7816bf8f01"));
    }

    proptest::proptest! {
        #[test]
        fn kernels_agree_on_random_blocks(
            state in proptest::collection::vec(0u32..u32::MAX, 8),
            words in proptest::collection::vec(0u64..u64::MAX, 32),
            n_blocks in 1usize..5,
        ) {
            let Some(shani) = shani_kernel() else {
                eprintln!("skipped: no SHA extensions on this CPU");
                return;
            };
            let state: [u32; 8] = state.try_into().expect("8 words");
            let blocks: Vec<u8> = words[..8 * n_blocks].iter().flat_map(|w| w.to_le_bytes()).collect();
            let (mut scalar, mut ni) = (state, state);
            compress_scalar(&mut scalar, &blocks);
            shani(&mut ni, &blocks);
            proptest::prop_assert_eq!(scalar, ni);
        }

        #[test]
        fn incremental_equals_oneshot_prop(data: Vec<u8>, split in 0usize..1024) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn different_inputs_different_digests(a: Vec<u8>, b: Vec<u8>) {
            if a != b {
                proptest::prop_assert_ne!(sha256(&a), sha256(&b));
            }
        }
    }
}
