//! Minimal binary codec shared by WAL records, pages, and manifests.
//!
//! Fixed-width big-endian integers, length-prefixed byte strings, and an
//! IEEE CRC-32 used to frame every on-disk record. The writer/reader pair
//! is deliberately tiny — no self-describing schema, no varints — because
//! every consumer knows exactly what it wrote; the CRC (not the codec)
//! is what detects torn or corrupted bytes.

use ahl_crypto::Hash;

/// Slice-by-8 lookup tables: `t[0]` is the classic byte table, `t[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the state with eight independent lookups.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// IEEE CRC-32 (the Ethernet/zip polynomial), table-driven, eight bytes
/// per step.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// [`crc32`] of the concatenation of `parts`, without concatenating them.
pub(crate) fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let t = crc_tables();
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Largest credible frame payload: a length prefix claiming more is
/// treated as a torn write, not an allocation request (a corrupt prefix
/// must not ask a reader to allocate gigabytes).
pub const MAX_FRAME: usize = 64 << 20;

/// Frame a payload for append-only storage: `[u32 len][u32 crc][payload]`
/// (big-endian, CRC-32 of the payload) — the single on-disk record format
/// shared by WAL segments and page segments.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Parse the frame starting at `buf[pos..]`. Returns the payload slice
/// and the full frame length, or `None` when the bytes there are torn,
/// corrupt, or shorter than `min_payload` — the caller treats that as
/// end-of-log and truncates.
pub fn parse_frame(buf: &[u8], pos: usize, min_payload: usize) -> Option<(&[u8], usize)> {
    if pos + 8 > buf.len() {
        return None;
    }
    let len = u32::from_be_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
    let crc = u32::from_be_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
    if len > MAX_FRAME || len < min_payload || pos + 8 + len > buf.len() {
        return None;
    }
    let payload = &buf[pos + 8..pos + 8 + len];
    (crc32(payload) == crc).then_some((payload, 8 + len))
}

/// `fsync` a directory, making renames and newly created files in it
/// durable (file-data fsyncs alone do not persist directory entries).
pub fn fsync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Append-only byte writer for record payloads.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes` before it reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer { buf: Vec::with_capacity(bytes) }
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a big-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Write a 32-byte hash.
    pub fn hash(&mut self, h: &Hash) {
        self.buf.extend_from_slice(&h.0);
    }

    /// Write a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Checked reader over an encoded payload; every accessor returns `None`
/// on truncation instead of panicking, so a corrupted record is rejected,
/// never trusted.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the payload has been fully consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Read a big-endian u16.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }

    /// Read a big-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a big-endian i64.
    pub fn i64(&mut self) -> Option<i64> {
        self.u64().map(|v| v as i64)
    }

    /// Read a 32-byte hash.
    pub fn hash(&mut self) -> Option<Hash> {
        let b = self.take(32)?;
        let mut h = Hash::ZERO;
        h.0.copy_from_slice(b);
        Some(h)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The one-byte-per-step loop `crc32` used to be: the reference the
    /// slice-by-8 kernel must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    proptest::proptest! {
        /// Random contents, every length 0–4 096 the generator draws, at
        /// every start alignment within a word; and any split into parts
        /// hashes like the whole.
        #[test]
        fn crc32_equals_bytewise_reference(seed: u64, len in 0usize..4097, cut in 0usize..4097) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let buf: Vec<u8> = (0..len + 8).map(|_| rng.gen()).collect();
            for align in 0..8 {
                let data = &buf[align..align + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
                let (a, b) = data.split_at(cut.min(len));
                proptest::prop_assert_eq!(crc32_parts(&[a, b]), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn round_trip_all_types() {
        let h = sha256(b"x");
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i64(-5);
        w.hash(&h);
        w.bytes(b"payload");
        w.str("key-\u{00e9}");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(300));
        assert_eq!(r.u32(), Some(70_000));
        assert_eq!(r.u64(), Some(1 << 40));
        assert_eq!(r.i64(), Some(-5));
        assert_eq!(r.hash(), Some(h));
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert_eq!(r.str(), Some("key-\u{00e9}".to_string()));
        assert!(r.is_done());
    }

    #[test]
    fn truncated_reads_fail_closed() {
        let mut w = Writer::new();
        w.u64(42);
        w.str("hello");
        let buf = w.into_bytes();
        // Every strict prefix fails to decode in full, never panics.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let ok = r.u64().is_some() && r.str().is_some();
            assert!(!ok, "prefix of {cut} bytes must not decode");
        }
        // A length prefix pointing past the buffer is refused.
        let mut w = Writer::new();
        w.u32(1_000_000);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).bytes(), None);
    }
}
