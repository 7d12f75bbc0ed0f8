//! Content-addressed page store for persistent sparse-Merkle-tree
//! snapshots.
//!
//! Every tree node serializes to one **page** keyed by its node hash
//! (leaf and branch hashes are domain-separated, so the key commits to the
//! node's kind and full content). Pages append to `pages-<id>.seg`
//! segment files with the same `[len][crc][payload]` framing as the WAL;
//! an in-memory index maps hash → file location and is rebuilt on open.
//!
//! ## Structural sharing on disk
//!
//! [`PageStore::persist_tree`] walks a snapshot **children-first** and
//! skips any subtree whose root page already exists — which is exactly
//! where consecutive checkpoints share structure in memory. Persisting
//! checkpoint *k+1* after checkpoint *k* therefore writes only the O(churn
//! × log n) pages along the mutated root paths; everything untouched is
//! referenced, not rewritten. (The `wal_ops` bench measures the ratio.)
//!
//! The children-first order doubles as the crash-safety invariant: a page
//! on disk implies its entire subtree is on disk, so a crash mid-persist
//! leaves only complete orphan subtrees (which later persists may even
//! legitimately reuse), never a parent with missing children.
//!
//! ## Garbage collection and compaction
//!
//! Append-forever would grow disk without bound under churn: superseded
//! checkpoint pages and orphaned subtrees are dead weight. [`PageStore::gc`]
//! reclaims them with a mark-and-sweep over whole segments:
//!
//! 1. **Mark** — walk down from the retained checkpoint roots. The
//!    children-first invariant makes liveness exactly root-reachability.
//! 2. **Plan** — per sealed segment, compare live frame bytes against the
//!    segment total. Fully-dead segments are unlinked outright; segments
//!    below [`crate::WalConfig::gc_live_frac`] live fraction are
//!    *compacted*: their live pages are copied into the active segment
//!    first.
//! 3. **Sweep** — sync the copies (under a durable policy), then unlink,
//!    evicting the per-segment read handle, releasing the byte
//!    accounting, and purging index entries that still point at the dead
//!    file.
//!
//! Every copy and every unlink is a [`crate::KillSwitch`] site, so the
//! kill-point recovery matrix extends over GC: a crash mid-copy leaves
//! the originals intact (duplicate pages are harmless — the store is
//! content-addressed), and a crash mid-sweep leaves some dead segments
//! for the next run. Callers gate GC on a durable manifest exactly like
//! [`crate::Wal::rotate_keep`] — only pages unreachable from every
//! retained root are ever dropped.
//!
//! ## Sidecar segment index
//!
//! Sealing a segment also writes `pages-<id>.idx`: a CRC-guarded dump of
//! the segment's `(hash, offset, len)` entries. [`PageStore::open`] loads
//! valid sidecars instead of re-scanning every frame, so reopening a big
//! store costs O(index) reads, not O(history) frame parses; the active
//! tail (and any segment whose sidecar is missing, stale, or torn) falls
//! back to the scan. Sidecars are pure cache — every page read still
//! CRC-checks its frame, so a wrong sidecar can fail a load but never
//! forge state.
//!
//! ## Executed-id segments
//!
//! The store also holds a second kind of frame: an immutable run of
//! executed request ids ([`PageStore::put_ids`]), keyed by
//! [`ids_hash`] — a SHA-256 under its own domain tag, so the key space
//! cannot meet the `0x00`/`0x01`-prefixed tree node hashes. A checkpoint
//! appends only the segments no earlier checkpoint wrote, and the
//! manifest names the rest by hash. To the GC mark walk a segment is a
//! childless page: its hash is live exactly when passed as a root.
//! [`PageStore::read_ids`] re-hashes what it reads, so a segment loads
//! with the content its key commits to or not at all.
//!
//! ## Loading
//!
//! [`PageStore::load_tree`] walks down from a root hash, collects the
//! leaves, rebuilds the tree, and **verifies the rebuilt root equals the
//! requested one** — a page store can fail to load (missing/corrupt
//! pages), but it cannot hand back wrong state. For O(working set)
//! access without materializing the tree, see [`crate::PageCache`].

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ahl_crypto::Hash;
use ahl_store::{NodeView, SparseMerkleTree, StateValue};

use crate::codec::{crc32, encode_frame, fsync_dir, parse_frame, Reader, Writer};
use crate::log::WalConfig;
use crate::segscan::list_segment_ids;
use crate::{FsyncPolicy, WalError};

/// A value storable under the page-backed tree: [`StateValue`] plus a
/// self-contained binary encoding (`ahl-ledger` implements this for
/// `Value`; a bare `Hash` is its own 32-byte encoding).
pub trait PageValue: StateValue + Clone {
    /// Append the value's encoding to `w`.
    fn encode_value(&self, w: &mut Writer);
    /// Decode a value previously written by
    /// [`PageValue::encode_value`]; `None` on truncation/corruption.
    fn decode_value(r: &mut Reader<'_>) -> Option<Self>
    where
        Self: Sized;
}

impl PageValue for Hash {
    fn encode_value(&self, w: &mut Writer) {
        w.hash(self);
    }
    fn decode_value(r: &mut Reader<'_>) -> Option<Self> {
        r.hash()
    }
}

/// Outcome of one [`PageStore::persist_tree`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct PersistStats {
    /// Pages newly written by this persist.
    pub pages_written: u64,
    /// Subtrees skipped because their root page was already on disk
    /// (each skip shares an entire subtree, not just one node).
    pub subtrees_shared: u64,
    /// Frame bytes appended.
    pub bytes_written: u64,
}

/// Outcome of one [`PageStore::gc`] run (and, summed, of all runs — see
/// [`PageStore::gc_totals`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct GcStats {
    /// GC runs folded into this value (1 for a single run's result).
    pub runs: u64,
    /// Pages reachable from the retained roots at mark time.
    pub live_pages: u64,
    /// Frame bytes of those live pages.
    pub live_bytes: u64,
    /// Live pages copied out of mostly-dead segments.
    pub copied_pages: u64,
    /// Frame bytes re-appended by those copies.
    pub copied_bytes: u64,
    /// Segment files unlinked.
    pub swept_segments: u64,
    /// Frame bytes released by unlinking (gross: copies re-appended
    /// `copied_bytes` of it to the active segment).
    pub reclaimed_bytes: u64,
}

impl GcStats {
    /// Fold `other` into this accumulator: counters sum, the live-set
    /// point-in-time figures keep the latest run's value. Used both by
    /// [`PageStore::gc_totals`] and by callers accumulating across store
    /// reopens (a reopen resets the store's own totals).
    pub fn absorb(&mut self, other: &GcStats) {
        self.runs += other.runs;
        self.live_pages = other.live_pages; // point-in-time, keep latest
        self.live_bytes = other.live_bytes;
        self.copied_pages += other.copied_pages;
        self.copied_bytes += other.copied_bytes;
        self.swept_segments += other.swept_segments;
        self.reclaimed_bytes += other.reclaimed_bytes;
    }
}

/// How [`PageStore::open`] rebuilt the index — the reopen-cost accounting
/// the soak experiment budgets (indexed segments are O(1)-ish; scanned
/// segments re-parse every frame).
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenStats {
    /// Sealed segments whose index came from a valid `pages-<id>.idx`
    /// sidecar (no frame scan).
    pub segments_indexed: u64,
    /// Segments recovered by a full frame scan: always the active tail,
    /// plus any sealed segment with a missing/stale/torn sidecar.
    pub segments_scanned: u64,
}

const TAG_LEAF: u8 = 0;
const TAG_BRANCH: u8 = 1;
const TAG_IDS: u8 = 2;
/// Domain tag of [`ids_hash`].
const IDS_DOMAIN: &[u8] = b"ahl.wal.executed-ids";
/// A page payload is at least a node hash plus a tag byte.
const MIN_PAGE: usize = 33;

const IDX_MAGIC: &[u8; 8] = b"AHLPIDX1";

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    crate::segscan::segment_path(dir, "pages", id)
}

fn index_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("pages-{id:08}.idx"))
}

#[derive(Clone, Copy)]
struct PageLoc {
    segment: u64,
    /// Offset of the frame (length prefix) within the segment.
    offset: u64,
    /// Full frame length.
    len: u32,
}

/// One sidecar-index entry: `(page hash, frame offset, frame len)`.
type IdxEntry = (Hash, u64, u32);

/// A decoded page body: the per-node view [`crate::PageCache`] faults in
/// and [`PageStore::load_tree`] walks.
pub(crate) enum PageNode<V> {
    /// A leaf page: full key plus value.
    Leaf {
        /// The state key.
        key: String,
        /// The stored value.
        value: V,
    },
    /// A branch page: crit-bit index plus both child hashes.
    Branch {
        /// First differing path bit between the two subtrees.
        bit: u16,
        /// Left (bit = 0) child node hash.
        left: Hash,
        /// Right (bit = 1) child node hash.
        right: Hash,
    },
}

/// Decode a page body (everything after the 32-byte hash prefix).
pub(crate) fn decode_page<V: PageValue>(body: &[u8]) -> Result<PageNode<V>, WalError> {
    let mut r = Reader::new(body);
    match r.u8() {
        Some(TAG_LEAF) => {
            let key = r.str().ok_or(WalError::Corrupt("leaf key"))?;
            let value = V::decode_value(&mut r).ok_or(WalError::Corrupt("leaf value"))?;
            Ok(PageNode::Leaf { key, value })
        }
        Some(TAG_BRANCH) => {
            let bit = r.u16().ok_or(WalError::Corrupt("branch bit"))?;
            let left = r.hash().ok_or(WalError::Corrupt("branch left"))?;
            let right = r.hash().ok_or(WalError::Corrupt("branch right"))?;
            Ok(PageNode::Branch { bit, left, right })
        }
        _ => Err(WalError::Corrupt("unknown page tag")),
    }
}

/// The children of a branch page body, `None` for a leaf or an id
/// segment. The GC mark walk needs only this — it never decodes values.
fn branch_children(body: &[u8]) -> Result<Option<(Hash, Hash)>, WalError> {
    let mut r = Reader::new(body);
    match r.u8() {
        Some(TAG_LEAF | TAG_IDS) => Ok(None),
        Some(TAG_BRANCH) => {
            let _bit = r.u16().ok_or(WalError::Corrupt("branch bit"))?;
            let left = r.hash().ok_or(WalError::Corrupt("branch left"))?;
            let right = r.hash().ok_or(WalError::Corrupt("branch right"))?;
            Ok(Some((left, right)))
        }
        _ => Err(WalError::Corrupt("unknown page tag")),
    }
}

/// The content-addressed page store (see module docs).
pub struct PageStore {
    dir: PathBuf,
    cfg: WalConfig,
    index: HashMap<Hash, PageLoc>,
    active: File,
    active_id: u64,
    active_bytes: u64,
    /// Index entries of the active segment, append order (the sidecar
    /// written when it seals).
    active_entries: Vec<IdxEntry>,
    segments: Vec<u64>,
    /// Intact frame bytes per live segment.
    seg_bytes: HashMap<u64, u64>,
    /// One long-lived read handle per segment: page loads are positioned
    /// reads, not open/seek/read triples per page (a 100k-key tree load
    /// would otherwise pay ~200k `open(2)` calls). GC evicts the handle
    /// when it unlinks the segment — an unlinked-but-open file would leak
    /// the fd *and* keep the disk space reserved.
    readers: HashMap<u64, File>,
    total_bytes: u64,
    open_stats: OpenStats,
    gc_totals: GcStats,
}

impl PageStore {
    /// Open (or create) the store in `dir`, rebuilding the hash index. A
    /// sealed segment with a valid `pages-<id>.idx` sidecar is loaded
    /// from it; everything else (always including the active tail) is
    /// recovered by scanning frames. A torn final frame is truncated
    /// away; segments past a tear are deleted (they can only postdate the
    /// crash).
    pub fn open(dir: &Path, cfg: WalConfig) -> std::io::Result<PageStore> {
        let ids = list_segment_ids(dir, "pages")?;
        let last = *ids.last().expect("at least one segment");
        let mut index = HashMap::new();
        let mut seg_bytes = HashMap::new();
        let mut keep: Vec<u64> = Vec::new();
        let mut torn_at: Option<(u64, u64)> = None;
        let mut stats = OpenStats::default();
        for &id in &ids {
            if torn_at.is_some() {
                std::fs::remove_file(segment_path(dir, id))?;
                let _ = std::fs::remove_file(index_path(dir, id));
                continue;
            }
            if id != last {
                if let Some((entries, bytes)) = read_index_file(dir, id)? {
                    for (h, offset, len) in entries {
                        index.insert(h, PageLoc { segment: id, offset, len });
                    }
                    seg_bytes.insert(id, bytes);
                    stats.segments_indexed += 1;
                    keep.push(id);
                    continue;
                }
            }
            let mut buf = Vec::new();
            std::io::Read::read_to_end(&mut File::open(segment_path(dir, id))?, &mut buf)?;
            let mut pos = 0usize;
            while let Some((payload, frame_len)) = parse_frame(&buf, pos, MIN_PAGE) {
                let mut h = Hash::ZERO;
                h.0.copy_from_slice(&payload[..32]);
                index.insert(
                    h,
                    PageLoc { segment: id, offset: pos as u64, len: frame_len as u32 },
                );
                pos += frame_len;
            }
            stats.segments_scanned += 1;
            seg_bytes.insert(id, pos as u64);
            keep.push(id);
            if pos < buf.len() {
                torn_at = Some((id, pos as u64));
            }
        }
        if let Some((id, offset)) = torn_at {
            // Physically drop the torn tail so later appends are framed
            // from a clean boundary.
            let f = OpenOptions::new().write(true).open(segment_path(dir, id))?;
            f.set_len(offset)?;
        }
        let active_id = *keep.last().expect("at least one segment");
        // The append target's sidecar (left behind when a crash landed
        // between seal and next-segment creation) goes stale on the first
        // append — drop it now so a later open can't trust it.
        let _ = std::fs::remove_file(index_path(dir, active_id));
        let mut active =
            OpenOptions::new().read(true).write(true).open(segment_path(dir, active_id))?;
        let active_bytes = active.seek(SeekFrom::End(0))?;
        let mut active_entries: Vec<IdxEntry> = index
            .iter()
            .filter(|(_, loc)| loc.segment == active_id)
            .map(|(h, loc)| (*h, loc.offset, loc.len))
            .collect();
        active_entries.sort_by_key(|&(_, offset, _)| offset);
        let mut readers = HashMap::new();
        for &id in &keep {
            readers.insert(id, File::open(segment_path(dir, id))?);
        }
        let total_bytes = seg_bytes.values().sum();
        Ok(PageStore {
            dir: dir.to_path_buf(),
            cfg,
            index,
            active,
            active_id,
            active_bytes,
            active_entries,
            segments: keep,
            seg_bytes,
            readers,
            total_bytes,
            open_stats: stats,
            gc_totals: GcStats::default(),
        })
    }

    /// Whether a page for `hash` is on disk.
    pub fn contains(&self, hash: &Hash) -> bool {
        self.index.contains_key(hash)
    }

    /// Number of indexed frames (tree pages and id segments).
    pub fn page_count(&self) -> usize {
        self.index.len()
    }

    /// Total intact frame bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// How the last [`PageStore::open`] rebuilt the index.
    pub fn open_stats(&self) -> OpenStats {
        self.open_stats
    }

    /// Cumulative GC accounting since open.
    pub fn gc_totals(&self) -> GcStats {
        self.gc_totals
    }

    /// Roll the active file back to the last intact frame boundary.
    /// Best-effort: if even this fails, the next reopen's scan truncates
    /// the torn tail the same way.
    fn rollback_active(&mut self) {
        let _ = self.active.set_len(self.active_bytes);
        let _ = self.active.seek(SeekFrom::End(0));
    }

    fn write_frame(&mut self, hash: Hash, payload: Vec<u8>) -> std::io::Result<u64> {
        let frame = encode_frame(&payload);
        if let Err(e) = self.cfg.kill.check() {
            // Injected fault: half the frame reaches the disk either way.
            let _ = self.active.write_all(&frame[..frame.len() / 2]);
            if self.cfg.kill.fired_transient() {
                // A transient I/O error, not a power cut: the process
                // survives, so restore the all-or-nothing invariant.
                self.rollback_active();
            }
            return Err(e);
        }
        if let Err(e) = self.active.write_all(&frame) {
            // All-or-nothing on real I/O errors too: a short write must
            // not leave file bytes ahead of `active_bytes`/the index, or
            // every later frame lands at a lying offset. Same
            // check-before-mutate discipline as the ledger's prepare: no
            // state advances unless the whole write did.
            self.rollback_active();
            return Err(e);
        }
        self.index.insert(
            hash,
            PageLoc { segment: self.active_id, offset: self.active_bytes, len: frame.len() as u32 },
        );
        self.active_entries.push((hash, self.active_bytes, frame.len() as u32));
        self.active_bytes += frame.len() as u64;
        self.total_bytes += frame.len() as u64;
        self.seg_bytes.insert(self.active_id, self.active_bytes);
        if self.active_bytes >= self.cfg.segment_bytes {
            // Seal: under a durable policy the sealed segment's pages are
            // synced NOW — the pre-manifest barrier only syncs the active
            // segment, and pages a manifest references must never be the
            // ones a power cut can lose.
            if !matches!(self.cfg.fsync, FsyncPolicy::Off) {
                self.active.sync_data()?;
            }
            // Sidecar index: the next open loads this instead of
            // re-scanning the sealed frames.
            let entries = std::mem::take(&mut self.active_entries);
            self.write_index_file(self.active_id, &entries, self.active_bytes)?;
            let next = self.segments.last().expect("non-empty") + 1;
            self.active = File::create(segment_path(&self.dir, next))?;
            self.active_id = next;
            self.active_bytes = 0;
            self.segments.push(next);
            self.seg_bytes.insert(next, 0);
            self.readers.insert(next, File::open(segment_path(&self.dir, next))?);
            // Durable policies must not lose the new directory entry to a
            // power cut either.
            if !matches!(self.cfg.fsync, FsyncPolicy::Off) {
                fsync_dir(&self.dir)?;
            }
        }
        Ok(frame.len() as u64)
    }

    /// Write the `pages-<id>.idx` sidecar for a sealed segment. A durable
    /// write site like any other — but pure cache: a torn sidecar only
    /// costs the next open a frame scan.
    fn write_index_file(&mut self, id: u64, entries: &[IdxEntry], seg_len: u64) -> std::io::Result<()> {
        let mut w = Writer::new();
        w.u64(seg_len);
        w.u32(entries.len() as u32);
        for (h, offset, len) in entries {
            w.hash(h);
            w.u64(*offset);
            w.u32(*len);
        }
        let body = w.into_bytes();
        let mut buf = Vec::with_capacity(12 + body.len());
        buf.extend_from_slice(IDX_MAGIC);
        buf.extend_from_slice(&crc32(&body).to_be_bytes());
        buf.extend_from_slice(&body);
        let path = index_path(&self.dir, id);
        if let Err(e) = self.cfg.kill.check() {
            let _ = std::fs::write(&path, &buf[..buf.len() / 2]);
            return Err(e);
        }
        let mut f = File::create(&path)?;
        f.write_all(&buf)?;
        if !matches!(self.cfg.fsync, FsyncPolicy::Off) {
            f.sync_data()?;
        }
        Ok(())
    }

    /// Persist every page of `tree` that is not already on disk
    /// (children-first; shared subtrees are skipped at their root). The
    /// fsync policy is applied once at the end — callers publishing a
    /// manifest must call [`PageStore::sync`] first regardless.
    pub fn persist_tree<V: PageValue>(
        &mut self,
        tree: &SparseMerkleTree<V>,
    ) -> std::io::Result<PersistStats> {
        struct PersistCtx<'a> {
            store: &'a mut PageStore,
            stats: PersistStats,
            failure: Option<std::io::Error>,
        }
        // Both traversal closures need the store (dedup query in `prune`,
        // the write in `visit`): a RefCell splits the borrow safely.
        let ctx = std::cell::RefCell::new(PersistCtx {
            store: self,
            stats: PersistStats::default(),
            failure: None,
        });
        tree.visit_nodes(
            &mut |hash| {
                let mut c = ctx.borrow_mut();
                if c.failure.is_some() {
                    return true; // stop writing after the first error
                }
                let shared = c.store.index.contains_key(hash);
                if shared {
                    c.stats.subtrees_shared += 1;
                }
                shared
            },
            &mut |view| {
                let mut c = ctx.borrow_mut();
                if c.failure.is_some() {
                    return;
                }
                let (hash, payload) = encode_page(&view);
                match c.store.write_frame(hash, payload) {
                    Ok(n) => {
                        c.stats.pages_written += 1;
                        c.stats.bytes_written += n;
                    }
                    Err(e) => c.failure = Some(e),
                }
            },
        );
        let ctx = ctx.into_inner();
        if let Some(e) = ctx.failure {
            return Err(e);
        }
        let stats = ctx.stats;
        let store = ctx.store;
        if !matches!(store.cfg.fsync, FsyncPolicy::Off) && stats.pages_written > 0 {
            store.active.sync_data()?;
        }
        Ok(stats)
    }

    /// Force an `fdatasync` of the active segment (the barrier before a
    /// manifest swap may reference freshly written pages).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.active.sync_data()
    }

    /// Read a page's full frame payload (hash prefix included), verifying
    /// the frame CRC and that the stored hash matches the requested one.
    fn read_frame_payload(&self, hash: &Hash) -> Result<Vec<u8>, WalError> {
        let loc = self.index.get(hash).ok_or(WalError::MissingPage(*hash))?;
        let f = self
            .readers
            .get(&loc.segment)
            .ok_or(WalError::Corrupt("segment reader missing"))?;
        let mut frame = vec![0u8; loc.len as usize];
        f.read_exact_at(&mut frame, loc.offset)?;
        let payload = &frame[8..];
        let crc = u32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
        if crc32(payload) != crc || payload[..32] != hash.0 {
            return Err(WalError::Corrupt("page frame failed CRC/hash check"));
        }
        Ok(frame.split_off(8))
    }

    /// Append the id segment `ids` under `hash` (= [`ids_hash`] of it)
    /// unless a frame with that key is already on disk. Like a tree page
    /// it is durable only after the next [`PageStore::sync`].
    pub fn put_ids(&mut self, hash: Hash, ids: &[u64]) -> std::io::Result<()> {
        if self.index.contains_key(&hash) {
            return Ok(());
        }
        debug_assert_eq!(hash, ids_hash(ids));
        let payload = [&hash.0[..], &[TAG_IDS], &encode_ids(ids)].concat();
        self.write_frame(hash, payload).map(drop)
    }

    /// Read the id segment stored under `hash`: the frame must pass its
    /// CRC, be an id segment, and hash back to `hash`.
    pub fn read_ids(&self, hash: &Hash) -> Result<Vec<u64>, WalError> {
        let payload = self.read_frame_payload(hash)?;
        let body = &payload[32..];
        if body.first() != Some(&TAG_IDS) || (body.len() - 1) % 8 != 0 {
            return Err(WalError::Corrupt("not an id segment"));
        }
        if ids_digest(&body[1..]) != *hash {
            return Err(WalError::Corrupt("id segment does not match its hash"));
        }
        Ok(body[1..]
            .chunks_exact(8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Read a page body (everything after the 32-byte hash prefix).
    pub(crate) fn read_page(&self, hash: &Hash) -> Result<Vec<u8>, WalError> {
        let mut payload = self.read_frame_payload(hash)?;
        payload.drain(..32);
        Ok(payload)
    }

    /// Load the complete tree rooted at `root` and verify the rebuilt root
    /// hash matches. `Hash::ZERO` loads the empty tree.
    pub fn load_tree<V: PageValue>(&self, root: Hash) -> Result<SparseMerkleTree<V>, WalError> {
        if root == Hash::ZERO {
            return Ok(SparseMerkleTree::new());
        }
        let mut leaves: Vec<(String, V)> = Vec::new();
        let mut stack = vec![root];
        while let Some(hash) = stack.pop() {
            let body = self.read_page(&hash)?;
            match decode_page::<V>(&body)? {
                PageNode::Leaf { key, value } => leaves.push((key, value)),
                PageNode::Branch { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
        let tree = SparseMerkleTree::build(leaves);
        if tree.root_hash() != root {
            return Err(WalError::Corrupt("rebuilt root does not match manifest root"));
        }
        Ok(tree)
    }

    /// Mark-and-sweep garbage collection (see module docs): reclaim every
    /// page unreachable from `roots`, compacting mostly-dead sealed
    /// segments and unlinking fully-dead ones. Callers pass exactly the
    /// checkpoint roots their durable manifest retains — gate on the
    /// manifest being synced, the same discipline as
    /// [`crate::Wal::rotate_keep`].
    pub fn gc(&mut self, roots: &[Hash]) -> std::io::Result<GcStats> {
        let mut stats = GcStats { runs: 1, ..GcStats::default() };
        // Mark: a root-reachability walk. Children-first persistence means
        // every referenced child exists — a missing page here is real
        // corruption, and GC must fail closed rather than sweep.
        let mut live: HashSet<Hash> = HashSet::new();
        let mut stack: Vec<Hash> =
            roots.iter().copied().filter(|h| *h != Hash::ZERO).collect();
        while let Some(hash) = stack.pop() {
            if !live.insert(hash) {
                continue;
            }
            let body = self.read_page(&hash).map_err(std::io::Error::other)?;
            if let Some((left, right)) = branch_children(&body).map_err(std::io::Error::other)? {
                stack.push(left);
                stack.push(right);
            }
        }
        stats.live_pages = live.len() as u64;

        // Plan: live bytes per sealed segment. The active segment is
        // never swept — it is still being appended to.
        let mut live_by_seg: HashMap<u64, Vec<IdxEntry>> = HashMap::new();
        for h in &live {
            let loc = self.index[h];
            stats.live_bytes += loc.len as u64;
            if loc.segment != self.active_id {
                live_by_seg.entry(loc.segment).or_default().push((*h, loc.offset, loc.len));
            }
        }
        let sealed: Vec<u64> =
            self.segments.iter().copied().filter(|&id| id != self.active_id).collect();
        let mut drop_list: Vec<u64> = Vec::new();
        for id in sealed {
            let total = self.seg_bytes.get(&id).copied().unwrap_or(0);
            let live_bytes: u64 = live_by_seg
                .get(&id)
                .map(|v| v.iter().map(|&(_, _, len)| len as u64).sum())
                .unwrap_or(0);
            if live_bytes > 0
                && (total == 0 || live_bytes as f64 / total as f64 >= self.cfg.gc_live_frac)
            {
                continue; // healthy segment: leave it alone
            }
            // Compact: copy the live pages into the active segment before
            // the original file goes away. Copies go through
            // `write_frame`, so each is a kill site and the copies land in
            // the index at their new location.
            if let Some(mut entries) = live_by_seg.remove(&id) {
                entries.sort_by_key(|&(_, offset, _)| offset);
                for (h, _, _) in entries {
                    if self.index[&h].segment != id {
                        continue; // an earlier copy already moved it
                    }
                    let payload =
                        self.read_frame_payload(&h).map_err(std::io::Error::other)?;
                    let n = self.write_frame(h, payload)?;
                    stats.copied_pages += 1;
                    stats.copied_bytes += n;
                }
            }
            drop_list.push(id);
        }
        // Durable policies: the copies must be on disk before any
        // original vanishes, or a power cut between unlink and sync loses
        // both.
        if stats.copied_pages > 0 && !matches!(self.cfg.fsync, FsyncPolicy::Off) {
            self.active.sync_data()?;
        }
        // Sweep: unlink, evict the read handle, release the byte
        // accounting, purge stale index entries. Each unlink is a kill
        // site — a crash mid-sweep leaves dead segments for the next run.
        for &id in &drop_list {
            self.cfg.kill.check()?;
            std::fs::remove_file(segment_path(&self.dir, id))?;
            let _ = std::fs::remove_file(index_path(&self.dir, id));
            self.readers.remove(&id);
            let bytes = self.seg_bytes.remove(&id).unwrap_or(0);
            self.total_bytes -= bytes;
            stats.reclaimed_bytes += bytes;
            stats.swept_segments += 1;
            self.segments.retain(|&s| s != id);
        }
        if !drop_list.is_empty() {
            self.index.retain(|_, loc| !drop_list.contains(&loc.segment));
            if !matches!(self.cfg.fsync, FsyncPolicy::Off) {
                fsync_dir(&self.dir)?;
            }
        }
        self.gc_totals.absorb(&stats);
        Ok(stats)
    }

    /// Run [`PageStore::gc`] iff total page bytes have reached
    /// [`crate::WalConfig::gc_trigger_bytes`]. `Ok(None)` = not triggered.
    pub fn maybe_gc(&mut self, roots: &[Hash]) -> std::io::Result<Option<GcStats>> {
        if self.cfg.gc_trigger_bytes == u64::MAX || self.total_bytes < self.cfg.gc_trigger_bytes {
            return Ok(None);
        }
        self.gc(roots).map(Some)
    }
}

/// Read and validate a `pages-<id>.idx` sidecar. `Ok(None)` (missing,
/// torn, stale, or failing any bound check) sends the caller down the
/// frame-scan path — the sidecar can never make recovery wrong, only
/// faster.
fn read_index_file(dir: &Path, id: u64) -> std::io::Result<Option<(Vec<IdxEntry>, u64)>> {
    let buf = match std::fs::read(index_path(dir, id)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if buf.len() < 12 || &buf[..8] != IDX_MAGIC {
        return Ok(None);
    }
    let crc = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let body = &buf[12..];
    if crc32(body) != crc {
        return Ok(None);
    }
    let mut r = Reader::new(body);
    let Some(seg_len) = r.u64() else { return Ok(None) };
    // Stale detection: the sidecar binds to an exact segment length. A
    // mismatch (torn tail, post-seal append after a crash) forces a scan.
    let actual = std::fs::metadata(segment_path(dir, id))?.len();
    if actual != seg_len {
        return Ok(None);
    }
    let Some(count) = r.u32() else { return Ok(None) };
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (Some(h), Some(offset), Some(len)) = (r.hash(), r.u64(), r.u32()) else {
            return Ok(None);
        };
        if offset + len as u64 > seg_len {
            return Ok(None);
        }
        entries.push((h, offset, len));
    }
    if !r.is_done() {
        return Ok(None);
    }
    Ok(Some((entries, seg_len)))
}

/// The content address of an executed-id segment: SHA-256 over a domain
/// tag and the ids, big-endian, in order.
pub fn ids_hash(ids: &[u64]) -> Hash {
    ids_digest(&encode_ids(ids))
}

fn encode_ids(ids: &[u64]) -> Vec<u8> {
    ids.iter().flat_map(|id| id.to_be_bytes()).collect()
}

fn ids_digest(bytes: &[u8]) -> Hash {
    ahl_crypto::sha256_parts(&[IDS_DOMAIN, bytes])
}

fn encode_page<V: PageValue>(view: &NodeView<'_, V>) -> (Hash, Vec<u8>) {
    let mut w = Writer::new();
    match view {
        NodeView::Leaf { hash, key, value } => {
            w.hash(hash);
            w.u8(TAG_LEAF);
            w.str(key);
            value.encode_value(&mut w);
            (*hash, w.into_bytes())
        }
        NodeView::Branch { hash, bit, left, right } => {
            w.hash(hash);
            w.u8(TAG_BRANCH);
            w.u16(*bit);
            w.hash(left);
            w.hash(right);
            (*hash, w.into_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use ahl_crypto::sha256_parts;

    fn vh(i: u64) -> Hash {
        sha256_parts(&[&i.to_be_bytes()])
    }

    fn tree_of(n: u64) -> SparseMerkleTree {
        SparseMerkleTree::build((0..n).map(|i| (format!("key-{i}"), vh(i))))
    }

    #[test]
    fn persist_load_round_trip() {
        let dir = TempDir::new("pages-rt");
        let t = tree_of(200);
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
        let stats = store.persist_tree(&t).expect("persist");
        assert_eq!(stats.pages_written, 2 * 200 - 1, "n leaves + n-1 branches");
        drop(store);
        let store = PageStore::open(dir.path(), WalConfig::default()).expect("reopen");
        assert_eq!(store.page_count(), 2 * 200 - 1);
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.root_hash(), t.root_hash());
        assert_eq!(loaded.len(), 200);
        assert_eq!(loaded.view().get("key-7"), Some(&vh(7)));
        // Empty root loads the empty tree.
        let empty: SparseMerkleTree = store.load_tree(Hash::ZERO).expect("empty");
        assert!(empty.is_empty());
    }

    #[test]
    fn consecutive_checkpoints_share_pages() {
        let dir = TempDir::new("pages-share");
        let mut t = tree_of(512);
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
        let first = store.persist_tree(&t).expect("persist 1");
        // 10% churn, then persist the next checkpoint.
        for i in 0..51u64 {
            t.insert(&format!("key-{}", i * 10), vh(1_000 + i));
        }
        let second = store.persist_tree(&t).expect("persist 2");
        assert!(
            second.pages_written * 2 < first.pages_written,
            "10% churn must rewrite far less than half the pages: {} vs {}",
            second.pages_written,
            first.pages_written
        );
        assert!(second.subtrees_shared > 0);
        // Both roots stay loadable — old pages are never rewritten.
        let old_root = {
            let fresh = tree_of(512);
            fresh.root_hash()
        };
        let a: SparseMerkleTree = store.load_tree(old_root).expect("old checkpoint");
        assert_eq!(a.root_hash(), old_root);
        let b: SparseMerkleTree = store.load_tree(t.root_hash()).expect("new checkpoint");
        assert_eq!(b.root_hash(), t.root_hash());
    }

    #[test]
    fn unchanged_tree_writes_nothing() {
        let dir = TempDir::new("pages-noop");
        let t = tree_of(64);
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
        store.persist_tree(&t).expect("persist");
        let again = store.persist_tree(&t).expect("re-persist");
        assert_eq!(again.pages_written, 0);
        assert_eq!(again.subtrees_shared, 1, "one skip at the root covers everything");
    }

    #[test]
    fn half_written_page_is_discarded_and_rewritten() {
        let dir = TempDir::new("pages-torn");
        let t = tree_of(40);
        let cfg = WalConfig::default();
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        cfg.kill.arm(30);
        let err = store.persist_tree(&t).expect_err("kill fires mid-persist");
        assert!(err.to_string().contains("killswitch"));
        drop(store);
        // Reopen: the torn page is truncated; the tree is not yet loadable
        // (no manifest would reference it), but re-persisting completes it
        // and reuses every intact orphan subtree.
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("reopen");
        assert!(store.load_tree::<Hash>(t.root_hash()).is_err(), "incomplete tree must not load");
        let finish = store.persist_tree(&t).expect("resume persist");
        assert!(finish.pages_written > 0);
        assert!(finish.pages_written < 2 * 40 - 1, "intact orphans were reused");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.root_hash(), t.root_hash());
    }

    #[test]
    fn transient_write_error_rolls_back_and_store_survives() {
        // Satellite regression: a failed frame write (short write + error,
        // NOT a power cut) must leave the file at the last frame boundary
        // so the store keeps working — no torn garbage under later
        // offsets, no index/file divergence.
        let dir = TempDir::new("pages-transient");
        let t = tree_of(60);
        let cfg = WalConfig::default();
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        cfg.kill.arm_transient(25);
        let err = store.persist_tree(&t).expect_err("transient error fires");
        assert!(err.to_string().contains("transient"));
        // The file was rolled back to exactly the accounted length.
        let on_disk = std::fs::metadata(segment_path(dir.path(), store.active_id))
            .expect("metadata")
            .len();
        assert_eq!(on_disk, store.active_bytes, "all-or-nothing: no torn tail left behind");
        // Same process, same store object: the retry completes cleanly.
        let finish = store.persist_tree(&t).expect("retry persists");
        assert!(finish.pages_written > 0);
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.root_hash(), t.root_hash());
        // And a reopen agrees byte-for-byte.
        drop(store);
        let store = PageStore::open(dir.path(), WalConfig::default()).expect("reopen");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("reload");
        assert_eq!(loaded.len(), 60);
    }

    #[test]
    fn corrupt_page_fails_load_closed() {
        let dir = TempDir::new("pages-corrupt");
        let t = tree_of(30);
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
        store.persist_tree(&t).expect("persist");
        drop(store);
        // Flip one byte in the middle of the segment.
        let seg = segment_path(dir.path(), 0);
        let mut bytes = std::fs::read(&seg).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, &bytes).expect("corrupt");
        let store = PageStore::open(dir.path(), WalConfig::default()).expect("reopen");
        // The scan already dropped everything at/after the corrupt frame;
        // loading the root must fail (missing or corrupt page), never
        // return a wrong tree.
        assert!(store.load_tree::<Hash>(t.root_hash()).is_err());
    }

    #[test]
    fn segments_rotate() {
        let dir = TempDir::new("pages-seg");
        let cfg = WalConfig { segment_bytes: 512, ..WalConfig::default() };
        let t = tree_of(100);
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        store.persist_tree(&t).expect("persist");
        assert!(store.segments.len() > 2, "small segments must rotate");
        drop(store);
        let store = PageStore::open(dir.path(), cfg).expect("reopen");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.len(), 100);
    }

    #[test]
    fn sealed_segments_reopen_from_sidecar_index() {
        let dir = TempDir::new("pages-idx");
        let cfg = WalConfig { segment_bytes: 512, ..WalConfig::default() };
        let t = tree_of(100);
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        store.persist_tree(&t).expect("persist");
        assert!(store.segment_count() > 2);
        drop(store);
        let store = PageStore::open(dir.path(), cfg.clone()).expect("reopen");
        let open = store.open_stats();
        assert!(open.segments_indexed > 0, "sealed segments load from .idx");
        assert_eq!(open.segments_scanned, 1, "only the active tail is scanned");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.len(), 100);
        drop(store);
        // Corrupt one sidecar: the open falls back to scanning that
        // segment and still recovers everything.
        let idx = index_path(dir.path(), 0);
        let mut bytes = std::fs::read(&idx).expect("idx");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&idx, &bytes).expect("corrupt idx");
        let store = PageStore::open(dir.path(), cfg).expect("reopen with bad idx");
        assert!(store.open_stats().segments_scanned >= 2, "bad sidecar falls back to scan");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("load");
        assert_eq!(loaded.len(), 100);
    }

    #[test]
    fn gc_reclaims_dead_segments_and_fixes_accounting() {
        let dir = TempDir::new("pages-gc");
        let cfg = WalConfig { segment_bytes: 1024, ..WalConfig::default() };
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        // Heavy churn: 30 checkpoints over the same keys leave most pages
        // dead (only the last root is retained).
        let mut t = tree_of(128);
        store.persist_tree(&t).expect("persist 0");
        for round in 1..30u64 {
            for i in 0..32u64 {
                t.insert(&format!("key-{}", (i * 4 + round) % 128), vh(round * 1_000 + i));
            }
            store.persist_tree(&t).expect("persist churn");
        }
        let before_bytes = store.total_bytes();
        let before_pages = store.page_count();
        let before_readers = store.readers.len();
        assert!(store.segment_count() > 3);

        let stats = store.gc(&[t.root_hash()]).expect("gc");
        assert!(stats.swept_segments > 0, "churn leaves sweepable segments");
        assert!(stats.reclaimed_bytes > 0);
        assert_eq!(stats.live_pages, 2 * 128 - 1);
        // Satellite regression: accounting shrinks and reader handles for
        // unlinked segments are evicted (no fd leak).
        assert!(store.total_bytes() < before_bytes, "total_bytes must decrease");
        assert!(store.page_count() < before_pages, "stale index entries purged");
        assert_eq!(store.readers.len(), store.segments.len(), "one reader per live segment");
        assert!(store.readers.len() < before_readers);
        for id in store.readers.keys() {
            assert!(store.segments.contains(id));
        }
        // The retained root still loads; the store still works.
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("live root loads");
        assert_eq!(loaded.root_hash(), t.root_hash());
        // And the sweep survives a reopen: on-disk files agree.
        drop(store);
        let store = PageStore::open(dir.path(), cfg).expect("reopen");
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("reload");
        assert_eq!(loaded.len(), 128);
    }

    #[test]
    fn gc_keeps_every_retained_root() {
        let dir = TempDir::new("pages-gc-roots");
        let cfg = WalConfig { segment_bytes: 1024, ..WalConfig::default() };
        let mut store = PageStore::open(dir.path(), cfg).expect("open");
        let mut t = tree_of(64);
        store.persist_tree(&t).expect("persist old");
        let old_root = t.root_hash();
        for i in 0..64u64 {
            t.insert(&format!("key-{i}"), vh(10_000 + i));
        }
        store.persist_tree(&t).expect("persist new");
        // Retaining both roots must keep both trees loadable even though
        // compaction may move their pages.
        for _ in 0..2 {
            store.gc(&[old_root, t.root_hash()]).expect("gc");
            let a: SparseMerkleTree = store.load_tree(old_root).expect("old root");
            assert_eq!(a.root_hash(), old_root);
            let b: SparseMerkleTree = store.load_tree(t.root_hash()).expect("new root");
            assert_eq!(b.root_hash(), t.root_hash());
        }
    }

    #[test]
    fn id_segment_round_trips_once_and_fails_closed() {
        let dir = TempDir::new("pages-ids");
        let cfg = WalConfig { segment_bytes: 1, ..WalConfig::default() };
        let mut store = PageStore::open(dir.path(), cfg.clone()).expect("open");
        let ids: Vec<u64> = (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let h = ids_hash(&ids);
        assert_ne!(h, ids_hash(&ids[1..]), "the key commits to every id");
        store.put_ids(h, &ids).expect("put");
        let bytes = store.total_bytes();
        store.put_ids(h, &ids).expect("put again");
        assert_eq!(store.total_bytes(), bytes, "a segment on disk is written once");
        assert_eq!(store.read_ids(&h).expect("read"), ids);
        // Not a tree page: loading it as a root fails closed.
        assert!(store.load_tree::<Hash>(h).is_err());
        drop(store);
        let store = PageStore::open(dir.path(), cfg.clone()).expect("reopen");
        assert_eq!(store.read_ids(&h).expect("reread"), ids);
        assert!(store.read_ids(&vh(1)).is_err(), "absent key");
        drop(store);
        // Each frame sealed its own file (segment_bytes = 1), indexed by
        // its sidecar: a flipped id byte is caught by the read's CRC.
        let seg = segment_path(dir.path(), 0);
        let mut bytes = std::fs::read(&seg).expect("read seg");
        let at = bytes.len() - 5;
        bytes[at] ^= 0x01;
        std::fs::write(&seg, &bytes).expect("corrupt");
        let store = PageStore::open(dir.path(), cfg).expect("reopen corrupt");
        assert!(store.read_ids(&h).is_err(), "a corrupt segment never reads");
    }

    #[test]
    fn id_segment_gc_keeps_named_segments_and_reclaims_the_rest() {
        let dir = TempDir::new("pages-ids-gc");
        let cfg = WalConfig { segment_bytes: 1, ..WalConfig::default() };
        let mut store = PageStore::open(dir.path(), cfg).expect("open");
        let t = tree_of(8);
        store.persist_tree(&t).expect("persist");
        let segs: Vec<Vec<u64>> = (0..4u64).map(|s| (s * 10..s * 10 + 10).collect()).collect();
        for ids in &segs {
            store.put_ids(ids_hash(ids), ids).expect("put");
        }
        let live = [t.root_hash(), ids_hash(&segs[2]), ids_hash(&segs[3])];
        let stats = store.gc(&live).expect("gc");
        assert_eq!(stats.live_pages, 2 * 8 - 1 + 2);
        for (i, ids) in segs.iter().enumerate() {
            assert_eq!(store.contains(&ids_hash(ids)), i >= 2, "segment {i}");
        }
        assert_eq!(store.read_ids(&ids_hash(&segs[3])).expect("live"), segs[3]);
        let loaded: SparseMerkleTree = store.load_tree(t.root_hash()).expect("tree");
        assert_eq!(loaded.len(), 8);
    }

    #[test]
    fn maybe_gc_honors_trigger() {
        let dir = TempDir::new("pages-gc-trigger");
        let cfg = WalConfig {
            segment_bytes: 1024,
            gc_trigger_bytes: 16 * 1024,
            ..WalConfig::default()
        };
        let mut store = PageStore::open(dir.path(), cfg).expect("open");
        let t = tree_of(16);
        store.persist_tree(&t).expect("persist");
        assert!(
            store.maybe_gc(&[t.root_hash()]).expect("below trigger").is_none(),
            "small store must not trigger"
        );
        let mut t = t;
        for round in 0..40u64 {
            for i in 0..16u64 {
                t.insert(&format!("key-{i}"), vh(round * 100 + i));
            }
            store.persist_tree(&t).expect("churn");
        }
        assert!(store.total_bytes() >= 16 * 1024);
        let ran = store.maybe_gc(&[t.root_hash()]).expect("gc runs");
        assert!(ran.is_some());
        assert!(store.gc_totals().runs >= 1);
    }
}
