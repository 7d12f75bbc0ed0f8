//! # ahl-wal — durable write-ahead log, page store, and crash recovery
//!
//! The persistence subsystem the rest of the stack runs on. Until now the
//! "durable checkpoint" a restarting replica resumed from was an
//! in-memory field *modelling* a disk; this crate makes it a real node
//! directory that survives `SIGKILL`:
//!
//! ```text
//! <node-dir>/
//!   wal/wal-00000000.seg      append-only CRC-framed record segments
//!   wal/wal-00000001.seg      (rotated; whole old segments unlinked at
//!   ...                        checkpoints and by the retention caps —
//!                              no in-place rewriting; ids may have gaps)
//!   pages/pages-00000000.seg  content-addressed SMT node pages
//!   pages/pages-00000000.idx  sidecar index of a sealed segment (pure
//!   ...                        cache: open() loads it instead of
//!                              re-scanning frames; ignored if invalid)
//!   MANIFEST                  atomically swapped checkpoint pointer
//! ```
//!
//! ## Bounded disk, bounded reopen
//!
//! Storage stays bounded under sustained churn through three knobs, all
//! on [`WalConfig`]:
//!
//! * **Page GC/compaction** ([`PageStore::gc`] /
//!   [`PageStore::maybe_gc`], triggered at `gc_trigger_bytes`):
//!   mark-and-sweep from the retained checkpoint roots; fully-dead
//!   segments are unlinked, mostly-dead ones (live fraction below
//!   `gc_live_frac`) have their live pages copied into the active segment
//!   first. Gated on a durable manifest, like WAL compaction.
//! * **WAL retention caps** (`retain_wal_segments` / `retain_wal_bytes`):
//!   enforced inside [`Wal::rotate_keep`], i.e. only at the moment a
//!   durable checkpoint has made old records redundant.
//! * **Lazy reads** ([`PageCache`]): fault-on-demand, byte-bounded,
//!   per-node Merkle-verified key lookups — O(working set) instead of
//!   [`PageStore::load_tree`]'s O(history); the `.idx` sidecars keep
//!   [`PageStore::open`] itself O(index) for sealed segments.
//!
//! Three layers:
//!
//! * [`Wal`] — an append-only, segmented log with **batched group
//!   commit**: records are CRC-32 framed, appends buffer until
//!   [`Wal::commit`], and the [`FsyncPolicy`] decides whether each commit
//!   pays a real `fdatasync` (`Always`), amortizes it (`EveryN`), or
//!   skips it for deterministic simulation (`Off`). A torn tail — crash
//!   mid-write — parses as end-of-log and is truncated on reopen.
//! * [`PageStore`] — persists a [`ahl_store::SparseMerkleTree`] snapshot
//!   as **content-addressed pages** (one per tree node, keyed by node
//!   hash). Because the in-memory tree is structurally shared between
//!   checkpoints, so is the disk: persisting checkpoint *k+1* writes only
//!   the pages along mutated root paths and *references* everything else
//!   — consecutive checkpoints share unchanged pages. Loading rebuilds
//!   the tree and hard-verifies the root, so the store can fail but never
//!   lie.
//! * [`open_node_dir`] — recovery: validate the [`Manifest`] (CRC +
//!   root-page presence; anything suspect is treated as absent), truncate
//!   torn WAL/page tails, and hand back the intact WAL records past the
//!   last durable checkpoint for replay.
//!
//! ## Crash model and fault injection
//!
//! Every durable write site consults a [`KillSwitch`]; arming it at site
//! `k` makes that write *torn* (a prefix reaches the disk) and surfaces an
//! error the owning node treats as a crash. Counting one unarmed run and
//! then re-running armed at `0..total` enumerates a complete kill-point
//! matrix — the recovery acceptance test: every injected crash must
//! recover to the last durable checkpoint plus every intact WAL record,
//! with nothing unverified served.
//!
//! ## Quickstart
//!
//! ```
//! use ahl_wal::{open_node_dir, write_manifest, Manifest, TempDir, WalConfig};
//! use ahl_store::SparseMerkleTree;
//! use ahl_crypto::sha256;
//!
//! let dir = TempDir::new("quickstart");
//! let cfg = WalConfig::default();
//!
//! // A fresh node dir: no checkpoint, no log.
//! let mut node = open_node_dir(dir.path(), &cfg).unwrap();
//! assert!(node.manifest.is_none() && node.tail.is_empty());
//!
//! // Log two batches (group commit), checkpoint the state tree.
//! node.wal.append(b"batch-1".to_vec());
//! node.wal.append(b"batch-2".to_vec());
//! node.wal.commit().unwrap();
//! let mut state = SparseMerkleTree::new();
//! state.insert("alice", sha256(b"100"));
//! node.pages.persist_tree(&state).unwrap();
//! node.pages.sync().unwrap();
//! write_manifest(
//!     dir.path(),
//!     &Manifest { seq: 2, root: state.root_hash(), meta: vec![] },
//!     &cfg.kill,
//! )
//! .unwrap();
//!
//! // "Crash" (drop handles) and recover: the checkpoint and both records
//! // come back; the tree rebuilds to exactly the persisted root.
//! drop(node);
//! let node = open_node_dir(dir.path(), &cfg).unwrap();
//! let manifest = node.manifest.unwrap();
//! assert_eq!(manifest.seq, 2);
//! let recovered: SparseMerkleTree = node.pages.load_tree(manifest.root).unwrap();
//! assert_eq!(recovered.root_hash(), state.root_hash());
//! assert_eq!(node.tail.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
pub mod codec;
mod kill;
mod log;
mod manifest;
mod pages;
mod segscan;
mod tempdir;

pub use cache::{CacheStats, PageCache};
pub use kill::KillSwitch;
pub use log::{FsyncPolicy, Wal, WalConfig, WalStats};
pub use manifest::{read_manifest, write_manifest, Manifest};
pub use pages::{ids_hash, GcStats, OpenStats, PageStore, PageValue, PersistStats};
pub use tempdir::TempDir;

use std::path::Path;

use ahl_crypto::Hash;

/// Why a load/recovery step failed.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file-system error (including injected crashes).
    Io(std::io::Error),
    /// A page referenced by the tree is not in the store.
    MissingPage(Hash),
    /// On-disk bytes failed validation (CRC, decode, or root mismatch).
    Corrupt(&'static str),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "io: {e}"),
            WalError::MissingPage(h) => write!(f, "missing page {:02x}{:02x}..", h.0[0], h.0[1]),
            WalError::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A reopened node directory: the recovery entry point.
pub struct NodeDir {
    /// The write-ahead log, truncated past any torn tail and positioned
    /// for appending.
    pub wal: Wal,
    /// The page store, index rebuilt.
    pub pages: PageStore,
    /// The validated durable checkpoint pointer, if one was ever
    /// published (and its root page survived). `None` means cold start.
    pub manifest: Option<Manifest>,
    /// Every intact WAL record, oldest first. The owner filters these by
    /// its record framing (records at or below the manifest's sequence
    /// are already folded into the checkpoint).
    pub tail: Vec<Vec<u8>>,
}

/// Open (or create) a node directory and run recovery validation: read
/// the manifest, reject it if its CRC fails or its root page is missing
/// (falling back to cold start — correctness over completeness), truncate
/// torn WAL/page tails, and return the intact WAL records for replay.
pub fn open_node_dir(dir: &Path, cfg: &WalConfig) -> std::io::Result<NodeDir> {
    std::fs::create_dir_all(dir)?;
    let pages = PageStore::open(&dir.join("pages"), cfg.clone())?;
    let (wal, tail) = Wal::open(&dir.join("wal"), cfg.clone())?;
    let manifest = read_manifest(dir).filter(|m| {
        // A manifest pointing at pages that never finished writing (crash
        // between page persist and manifest swap cannot cause this — the
        // swap happens after the page sync — but a corrupted page segment
        // can) is unusable: treat as absent.
        m.root == Hash::ZERO || pages.contains(&m.root)
    });
    Ok(NodeDir { wal, pages, manifest, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_dir_is_empty() {
        let dir = TempDir::new("nodedir-fresh");
        let node = open_node_dir(dir.path(), &WalConfig::default()).expect("open");
        assert!(node.manifest.is_none());
        assert!(node.tail.is_empty());
        assert_eq!(node.pages.page_count(), 0);
    }

    #[test]
    fn manifest_with_missing_root_page_is_rejected() {
        let dir = TempDir::new("nodedir-dangling");
        let cfg = WalConfig::default();
        {
            let _node = open_node_dir(dir.path(), &cfg).expect("create");
            // Publish a manifest whose root was never persisted.
            write_manifest(
                dir.path(),
                &Manifest { seq: 7, root: ahl_crypto::sha256(b"nope"), meta: vec![] },
                &cfg.kill,
            )
            .expect("write");
        }
        let node = open_node_dir(dir.path(), &cfg).expect("reopen");
        assert!(node.manifest.is_none(), "dangling manifest must be treated as absent");
    }
}
