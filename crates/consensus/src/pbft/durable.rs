//! The replica's on-disk persistence: WAL records, checkpoint pages, and
//! restart-from-disk recovery.
//!
//! Until this module existed, a replica's "durable checkpoint" was an
//! in-memory field annotated *modelling the on-disk checkpoint*; a
//! `Restart` recovered from state that a real crash would have destroyed.
//! [`NodeStore`] replaces the model with a real `ahl-wal` node directory:
//!
//! * every executed batch appends a [`WalRecord::Batch`] (full requests,
//!   so recovery can re-execute them) followed by one
//!   [`WalRecord::TwoPc`] per 2PC transition the batch performed (an
//!   audit journal recovery cross-checks replay against — a mismatch
//!   means corruption the CRCs missed, and replay stops rather than
//!   trusts);
//! * every certified checkpoint persists the snapshot's pages
//!   (content-addressed — consecutive checkpoints share unchanged pages)
//!   and each executed-id segment no earlier checkpoint wrote (one per
//!   interval, also content-addressed), publishes the manifest, logs a
//!   [`WalRecord::Ckpt`] marker, and compacts the WAL to the last two
//!   checkpoint generations. The manifest metadata is a format tag, the
//!   certificate, the executed-request window as `(segment hash, len)`
//!   references in execution order plus the first segment's pruned
//!   prefix, and the 2PC sidecar: a few KB, however many ids the window
//!   holds;
//! * [`NodeStore::open`] reopens the directory after a crash: validates
//!   the manifest, reads and hash-checks every segment it names, loads
//!   and root-verifies the checkpoint tree, and hands back the decoded
//!   WAL tail for replay. A missing or damaged segment makes the manifest
//!   unusable, exactly like a missing root page: the node cold-starts.
//!
//! Any I/O error — including an injected [`ahl_wal::KillSwitch`] crash —
//! is treated by the replica as its own crash: it goes dark exactly as if
//! the process had died, and the next `Restart` recovers from whatever
//! actually reached the disk.

use std::path::{Path, PathBuf};

use ahl_crypto::Hash;
use ahl_ledger::persist::{decode_op, encode_op, open_snapshot};
use ahl_ledger::{StateSidecar, StateSnapshot};
use ahl_simkit::SimTime;
use ahl_wal::codec::{Reader, Writer};
use ahl_wal::{
    open_node_dir, write_manifest, GcStats, Manifest, NodeDir, PageStore, PersistStats, WalConfig,
};

use crate::common::{ExecutedWindow, Request};
use crate::pbft::cert::{CertKind, QuorumCert};
use crate::pbft::msg::PbftBlock;

const REC_BATCH: u8 = 1;
const REC_CKPT: u8 = 2;
const REC_TWOPC: u8 = 3;

/// First field of the manifest metadata. A layout without it (the
/// whole-window layout before segment references) is refused, not
/// misread: there its place holds the certified sequence number.
const META_FORMAT: u64 = u64::from_be_bytes(*b"AHLCKSG1");
/// Encoded size of one segment reference: hash + `u32` length.
const SEG_REF_BYTES: usize = 36;

/// A 2PC transition kind journaled alongside its batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TwoPcKind {
    /// `Op::Prepare` executed (locks acquired).
    Prepare,
    /// `Op::Commit` executed (mutations applied, locks released).
    Commit,
    /// `Op::Abort` executed (pending discarded, locks released).
    Abort,
}

impl TwoPcKind {
    fn tag(self) -> u8 {
        match self {
            TwoPcKind::Prepare => 0,
            TwoPcKind::Commit => 1,
            TwoPcKind::Abort => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        match t {
            0 => Some(TwoPcKind::Prepare),
            1 => Some(TwoPcKind::Commit),
            2 => Some(TwoPcKind::Abort),
            _ => None,
        }
    }
}

/// The 2PC transition a committed execution of `op` performs, if any —
/// the single mapping shared by the journaling site (`execute_block`) and
/// recovery replay, whose cross-check depends on the two agreeing.
pub fn twopc_kind(op: &ahl_ledger::Op) -> Option<TwoPcKind> {
    match op {
        ahl_ledger::Op::Prepare { .. } => Some(TwoPcKind::Prepare),
        ahl_ledger::Op::Commit { .. } => Some(TwoPcKind::Commit),
        ahl_ledger::Op::Abort { .. } => Some(TwoPcKind::Abort),
        _ => None,
    }
}

/// A decoded WAL record.
pub enum WalRecord {
    /// An executed batch: enough to re-execute it on recovery.
    Batch {
        /// Block sequence number.
        seq: u64,
        /// The batched requests (ids, clients, ops).
        reqs: Vec<Request>,
    },
    /// A durable-checkpoint marker (the authoritative copy lives in the
    /// manifest; the marker keeps the log self-describing).
    Ckpt {
        /// Certified sequence.
        seq: u64,
        /// Certified root.
        root: Hash,
    },
    /// One 2PC sidecar transition performed by the preceding batch.
    TwoPc {
        /// Transaction id.
        txid: u64,
        /// Transition kind.
        kind: TwoPcKind,
    },
}

fn encode_batch_record(block: &PbftBlock) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(REC_BATCH);
    w.u64(block.seq);
    w.u64(block.view);
    w.u32(block.reqs.len() as u32);
    for r in block.reqs.iter() {
        w.u64(r.id);
        w.u64(r.client as u64);
        w.u64(r.submitted.as_nanos());
        encode_op(&r.op, &mut w);
    }
    w.into_bytes()
}

fn encode_twopc_record(txid: u64, kind: TwoPcKind) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(REC_TWOPC);
    w.u64(txid);
    w.u8(kind.tag());
    w.into_bytes()
}

fn encode_ckpt_record(seq: u64, root: &Hash) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(REC_CKPT);
    w.u64(seq);
    w.hash(root);
    w.into_bytes()
}

/// Decode one WAL payload; `None` rejects the record (recovery stops at
/// the first undecodable record — trust nothing past it).
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        REC_BATCH => {
            let seq = r.u64()?;
            let view = r.u64()?;
            let _ = view; // provenance only; replay is view-agnostic
            let n = r.u32()? as usize;
            let mut reqs = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let id = r.u64()?;
                let client = r.u64()? as usize;
                let submitted = SimTime(r.u64()?);
                let op = decode_op(&mut r)?;
                reqs.push(Request {
                    id,
                    client,
                    op,
                    submitted,
                });
            }
            r.is_done().then_some(WalRecord::Batch { seq, reqs })
        }
        REC_CKPT => {
            let seq = r.u64()?;
            let root = r.hash()?;
            r.is_done().then_some(WalRecord::Ckpt { seq, root })
        }
        REC_TWOPC => {
            let txid = r.u64()?;
            let kind = TwoPcKind::from_tag(r.u8()?)?;
            r.is_done().then_some(WalRecord::TwoPc { txid, kind })
        }
        _ => None,
    }
}

/// The window section of the manifest metadata: segment count, each
/// segment's `(hash, len)`, the first one's pruned prefix, the window's
/// id count. The segments themselves are page-store frames.
fn encode_window_refs(refs: &[(Hash, usize)], skip: usize, len: usize, w: &mut Writer) {
    w.u32(refs.len() as u32);
    for (hash, seg_len) in refs {
        w.hash(hash);
        w.u32(*seg_len as u32);
    }
    w.u32(skip as u32);
    w.u32(len as u32);
}

/// Inverse of [`encode_window_refs`], reading each named segment from
/// `pages`. `None` — never a panic — unless every frame is present,
/// intact and as long as its reference says, and the rebuilt window has
/// the recorded length and the shape [`ExecutedWindow::from_segments`]
/// demands (a repeated reference repeats ids, so it fails there).
fn decode_window_refs(r: &mut Reader<'_>, pages: &PageStore) -> Option<ExecutedWindow> {
    let n = r.u32()? as usize;
    if n > r.remaining() / SEG_REF_BYTES {
        return None; // more references than bytes to hold them
    }
    let mut refs = Vec::with_capacity(n);
    for _ in 0..n {
        refs.push((r.hash()?, r.u32()? as usize));
    }
    let (skip, len) = (r.u32()? as usize, r.u32()? as usize);
    let mut segs = Vec::with_capacity(n);
    for (hash, want) in refs {
        let ids = pages.read_ids(&hash).ok()?;
        if ids.len() != want {
            return None;
        }
        segs.push((hash, ids));
    }
    ExecutedWindow::from_segments(segs, skip).filter(|w| w.len() == len)
}

/// Decode a manifest's metadata against the page store: the certificate
/// (bound to the manifest's sequence and root), the executed window and
/// the 2PC sidecar, nothing after them. The tree is loaded separately.
fn decode_meta(
    m: &Manifest,
    pages: &PageStore,
) -> Option<(QuorumCert, ExecutedWindow, StateSidecar)> {
    let mut r = Reader::new(&m.meta);
    if r.u64()? != META_FORMAT {
        return None;
    }
    let cert = QuorumCert::decode(&mut r, CertKind::Checkpoint)?;
    if cert.seq != m.seq || cert.digest != m.root {
        return None; // manifest/cert mismatch: not trusted
    }
    let executed = decode_window_refs(&mut r, pages)?;
    let sidecar = StateSidecar::decode(&mut r)?;
    r.is_done().then_some((cert, executed, sidecar))
}

/// The durable checkpoint recovered from a reopened node directory.
pub struct DurableState {
    /// The persisted (and re-verified: `cert.seq == manifest.seq`,
    /// `cert.digest == rebuilt root`) checkpoint certificate.
    pub cert: QuorumCert,
    /// The page-backed snapshot, root-verified on load.
    pub snapshot: StateSnapshot,
    /// Executed-request ids at the checkpoint (replay protection), in
    /// the order the manifest lists them.
    pub executed: ExecutedWindow,
}

/// What one [`NodeStore::persist_checkpoint`] did on disk: the page
/// writes themselves plus the page-store GC pass, when the disk-pressure
/// trigger fired one.
pub struct CheckpointIo {
    /// Page-write accounting (new vs structurally shared pages).
    pub pages: PersistStats,
    /// Mark-and-sweep accounting, `None` when the store stayed under
    /// `gc_trigger_bytes` and no collection ran.
    pub gc: Option<GcStats>,
}

/// A replica's open node directory (see module docs).
pub struct NodeStore {
    dir: PathBuf,
    node: NodeDir,
    cfg: WalConfig,
}

impl NodeStore {
    /// Open (or create) `dir`, returning the store plus the recovered
    /// durable checkpoint (if a valid manifest exists) and the decoded
    /// WAL tail, oldest first. Decoding stops at the first undecodable
    /// record; an unloadable checkpoint degrades to a cold start.
    pub fn open(
        dir: &Path,
        cfg: &WalConfig,
    ) -> std::io::Result<(NodeStore, Option<DurableState>, Vec<WalRecord>)> {
        let node = open_node_dir(dir, cfg)?;
        let durable = node.manifest.as_ref().and_then(|m| {
            let (cert, executed, sidecar) = decode_meta(m, &node.pages)?;
            let snapshot = open_snapshot(&node.pages, m.root, sidecar).ok()?;
            Some(DurableState {
                cert,
                snapshot,
                executed,
            })
        });
        let mut tail = Vec::with_capacity(node.tail.len());
        for payload in &node.tail {
            match decode_record(payload) {
                Some(rec) => tail.push(rec),
                None => break,
            }
        }
        let mut store = NodeStore {
            dir: dir.to_path_buf(),
            node,
            cfg: cfg.clone(),
        };
        // `node.tail` owns the raw payloads; drop them now that they are
        // decoded (a long tail of large batches would otherwise sit in
        // memory for the node's lifetime).
        store.node.tail = Vec::new();
        Ok((store, durable, tail))
    }

    /// Journal one executed batch (buffered; committed by
    /// [`NodeStore::commit`] — group commit spans the batch plus its 2PC
    /// transition records).
    pub fn log_batch(&mut self, block: &PbftBlock) {
        self.node.wal.append(encode_batch_record(block));
    }

    /// Journal one 2PC transition of the batch being executed.
    pub fn log_twopc(&mut self, txid: u64, kind: TwoPcKind) {
        self.node.wal.append(encode_twopc_record(txid, kind));
    }

    /// Group-commit everything buffered since the last call.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.node.wal.commit()
    }

    /// Persist a certified checkpoint: pages (deduplicated against every
    /// earlier checkpoint) and the executed-id segments not yet on disk
    /// (each sealed segment is written once, by the first checkpoint that
    /// holds it), sync barrier, manifest swap, WAL marker, then compact
    /// the log to the last two checkpoint generations and collect dead
    /// page segments if disk pressure asks for it — the tree root and the
    /// window's segments are the live set. Segment frames are not counted
    /// in the returned [`PersistStats`], which price the tree alone.
    /// Until a GC runs, the page store keeps every segment it was given
    /// (8 bytes per executed id), as it keeps superseded tree pages.
    ///
    /// Ordering audit (the invariant the post-rename manifest kill point
    /// pins): every space-reclaiming step — WAL compaction in
    /// `rotate_keep`, page GC in `maybe_gc` — runs strictly *after*
    /// `write_manifest` returns, i.e. after the rename's directory fsync.
    /// Reclaiming earlier would let a lost rename resurrect the old
    /// manifest while the WAL records and pages it still needs are gone.
    pub fn persist_checkpoint(
        &mut self,
        cert: &QuorumCert,
        snapshot: &StateSnapshot,
        executed: &ExecutedWindow,
    ) -> std::io::Result<CheckpointIo> {
        let stats = snapshot.persist(&mut self.node.pages)?;
        let mut refs: Vec<(Hash, usize)> = Vec::new();
        for (hash, ids) in executed.segments() {
            self.node.pages.put_ids(hash, ids)?;
            refs.push((hash, ids.len()));
        }
        self.node.pages.sync()?;
        let mut meta = Writer::with_capacity(1024 + SEG_REF_BYTES * refs.len());
        meta.u64(META_FORMAT);
        cert.encode(&mut meta);
        encode_window_refs(&refs, executed.skip(), executed.len(), &mut meta);
        snapshot.sidecar().encode(&mut meta);
        write_manifest(
            &self.dir,
            &Manifest {
                seq: cert.seq,
                root: cert.digest,
                meta: meta.into_bytes(),
            },
            &self.cfg.kill,
        )?;
        self.node
            .wal
            .append(encode_ckpt_record(cert.seq, &cert.digest));
        self.node.wal.commit()?;
        self.node.wal.rotate_keep(2)?;
        // The manifest just published is the only checkpoint a restart
        // can anchor on, so its root and segments are the whole live set
        // — older checkpoints' unshared pages and pruned segments are
        // garbage from here on.
        let live: Vec<Hash> = std::iter::once(cert.digest)
            .chain(refs.iter().map(|(hash, _)| *hash))
            .collect();
        let gc = self.node.pages.maybe_gc(&live)?;
        Ok(CheckpointIo { pages: stats, gc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft::msg::MsgCert;
    use ahl_ledger::{Op, StateStore, TxId, Value};
    use ahl_wal::TempDir;

    fn block(seq: u64, reqs: Vec<Request>) -> PbftBlock {
        PbftBlock::new(0, seq, 0, reqs)
    }

    fn req(id: u64, op: Op) -> Request {
        Request {
            id,
            client: 9,
            op,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn wal_records_round_trip() {
        let b = block(
            4,
            vec![req(1, Op::Noop), req(2, Op::Commit { txid: TxId(8) })],
        );
        let payload = encode_batch_record(&b);
        match decode_record(&payload) {
            Some(WalRecord::Batch { seq, reqs }) => {
                assert_eq!(seq, 4);
                assert_eq!(reqs.len(), 2);
                assert_eq!(reqs[0].id, 1);
                assert_eq!(reqs[1].op, Op::Commit { txid: TxId(8) });
                assert_eq!(reqs[1].client, 9);
            }
            _ => panic!("batch record"),
        }
        let payload = encode_twopc_record(7, TwoPcKind::Abort);
        assert!(matches!(
            decode_record(&payload),
            Some(WalRecord::TwoPc {
                txid: 7,
                kind: TwoPcKind::Abort
            })
        ));
        let root = ahl_crypto::sha256(b"r");
        let payload = encode_ckpt_record(11, &root);
        assert!(matches!(
            decode_record(&payload),
            Some(WalRecord::Ckpt { seq: 11, root: r }) if r == root
        ));
        assert!(decode_record(&[0xEE]).is_none());
    }

    #[test]
    fn signed_cert_survives_manifest_round_trip() {
        let members = crate::pbft::derive_committee(3, 1);
        let reg = Some(members[0].registry.as_ref());
        let (snap, _) = one_key_checkpoint();
        let mut votes = crate::pbft::cert::CheckpointVotes::default();
        let cert = members
            .iter()
            .find_map(|m| {
                let vote = QuorumCert::checkpoint_vote(6, snap.root(), m.index, Some(&m.key));
                votes.record(vote, 3)
            })
            .expect("quorum of 3");
        assert!(cert.verify(3, reg));
        let dir = TempDir::new("nodestore-cert");
        let (mut store, _, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("open");
        store
            .persist_checkpoint(&cert, &snap, &ExecutedWindow::default())
            .expect("checkpoint");
        drop(store);
        let (_, durable, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("reopen");
        let decoded = durable.expect("durable checkpoint").cert;
        assert_eq!(
            (decoded.kind, decoded.seq, decoded.digest),
            (CertKind::Checkpoint, 6, snap.root())
        );
        // The signatures still verify after the disk round trip.
        assert!(decoded.verify(3, reg));
    }

    /// The manifest decodes its certificate with the wire's codec, so the
    /// same cap holds: a signer count of `u32::MAX` with nothing after it
    /// refuses the manifest, and the node cold-starts.
    #[test]
    fn manifest_cert_claiming_u32_max_signers_is_refused() {
        let (snap, cert) = one_key_checkpoint();
        let dir = TempDir::new("nodestore-hostile-cert");
        let (store, _, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("open");
        let mut w = Writer::new();
        w.u64(META_FORMAT);
        w.u64(cert.seq);
        w.hash(&cert.digest);
        w.u32(u32::MAX);
        let m = Manifest {
            seq: cert.seq,
            root: snap.root(),
            meta: w.into_bytes(),
        };
        assert!(decode_meta(&m, &store.node.pages).is_none());
        let honest = meta_with(&cert, &snap, |w| encode_window_refs(&[], 0, 0, w));
        assert!(decode_meta(&honest, &store.node.pages).is_some(), "control");
    }

    #[test]
    fn checkpoint_persist_and_reopen() {
        let dir = TempDir::new("nodestore");
        let cfg = WalConfig::default();
        let mut state = StateStore::new();
        state.put("a".into(), Value::Int(10));
        let snap = state.snapshot();
        let cert = unsigned_cert(5, snap.root());
        let executed: ExecutedWindow = [9, 3].into_iter().collect();
        {
            let (mut store, durable, tail) = NodeStore::open(dir.path(), &cfg).expect("open");
            assert!(durable.is_none() && tail.is_empty());
            store.log_batch(&block(6, vec![req(1, Op::Noop)]));
            store.commit().expect("commit");
            store
                .persist_checkpoint(&cert, &snap, &executed)
                .expect("checkpoint");
            // A post-checkpoint batch lands in the fresh segment.
            store.log_batch(&block(7, vec![req(2, Op::Noop)]));
            store.commit().expect("commit 2");
        }
        let (_, durable, tail) = NodeStore::open(dir.path(), &cfg).expect("reopen");
        let durable = durable.expect("durable checkpoint recovered");
        assert_eq!(durable.cert.seq, 5);
        assert_eq!(durable.snapshot.root(), snap.root());
        assert_eq!(
            durable.executed.iter().collect::<Vec<_>>(),
            [9, 3],
            "window order kept"
        );
        // The tail still holds both batches (two-generation retention)
        // plus the checkpoint marker; recovery filters by sequence.
        let seqs: Vec<u64> = tail
            .iter()
            .filter_map(|r| match r {
                WalRecord::Batch { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(
            seqs.contains(&7),
            "post-checkpoint batch retained: {seqs:?}"
        );
    }

    /// A checkpoint certificate from two cost-only votes.
    fn unsigned_cert(seq: u64, root: Hash) -> QuorumCert {
        let signers = vec![(0, MsgCert::Simulated), (1, MsgCert::Simulated)];
        QuorumCert {
            kind: CertKind::Checkpoint,
            view: 0,
            seq,
            digest: root,
            signers,
        }
    }

    fn one_key_checkpoint() -> (StateSnapshot, QuorumCert) {
        checkpoint_with(5, 1)
    }

    /// A certified checkpoint at `seq` over `keys` keys.
    fn checkpoint_with(seq: u64, keys: i64) -> (StateSnapshot, QuorumCert) {
        let mut state = StateStore::new();
        for k in 0..keys {
            state.put(format!("k{k}"), Value::Int(10 + k));
        }
        let snap = state.snapshot();
        let cert = unsigned_cert(seq, snap.root());
        (snap, cert)
    }

    /// The windows a replica captures over `checkpoints` intervals of
    /// steady load: 16 ids per block, a block every 100 ms, a checkpoint
    /// every 8 blocks that captures the window and then prunes under the
    /// default `request_ttl` (10 s). Once more than the ttl has passed,
    /// the prune cut falls inside an interval, so every later window's
    /// first segment is partly pruned.
    fn steady_windows(checkpoints: u64) -> Vec<ExecutedWindow> {
        const PER_BLOCK: u64 = 16;
        let ttl = crate::pbft::PbftConfig::new(crate::pbft::BftVariant::AhlPlus, 4).request_ttl;
        let mut cache = crate::common::ExecutedCache::new();
        let mut windows = Vec::new();
        for block in 0..8 * checkpoints {
            let now = SimTime::ZERO + ahl_simkit::SimDuration::from_millis(100 * block);
            for i in 0..PER_BLOCK {
                cache.insert(block * PER_BLOCK + i, now);
            }
            if block % 8 == 7 {
                windows.push(cache.window());
                cache.checkpoint_prune(now, ttl);
            }
        }
        windows
    }

    fn reopen_window(dir: &Path) -> Option<ExecutedWindow> {
        let (_, durable, _) = NodeStore::open(dir, &WalConfig::default()).expect("reopen");
        durable.map(|d| d.executed)
    }

    /// What a disk round trip must preserve: the segments, id for id,
    /// and the first one's pruned prefix.
    fn shape(window: &ExecutedWindow) -> (Vec<Vec<u64>>, usize) {
        (
            window.segments().map(|(_, ids)| ids.to_vec()).collect(),
            window.skip(),
        )
    }

    fn refs_of(window: &ExecutedWindow) -> Vec<(Hash, usize)> {
        window
            .segments()
            .map(|(hash, ids)| (hash, ids.len()))
            .collect()
    }

    /// Manifest metadata in the current layout with the window section
    /// as given, for feeding the decoder what no honest writer produces.
    fn meta_with(
        cert: &QuorumCert,
        snap: &StateSnapshot,
        window: impl FnOnce(&mut Writer),
    ) -> Manifest {
        let mut w = Writer::new();
        w.u64(META_FORMAT);
        cert.encode(&mut w);
        window(&mut w);
        snap.sidecar().encode(&mut w);
        Manifest {
            seq: cert.seq,
            root: cert.digest,
            meta: w.into_bytes(),
        }
    }

    /// The whole-window layout (certificate, `u32` count, every id,
    /// sidecar) is refused by the format tag, not misread: the node
    /// cold-starts, exactly as with a missing root page.
    #[test]
    fn old_meta_layout_is_refused() {
        let dir = TempDir::new("nodestore-oldmeta");
        let cfg = WalConfig::default();
        let (snap, cert) = one_key_checkpoint();
        let executed: ExecutedWindow = [9, 3, 7].into_iter().collect();
        let (mut store, _, _) = NodeStore::open(dir.path(), &cfg).expect("open");
        store
            .persist_checkpoint(&cert, &snap, &executed)
            .expect("pages + manifest");
        drop(store);
        let got = reopen_window(dir.path()).expect("the current layout loads");
        assert_eq!(shape(&got), shape(&executed));
        let mut meta = Writer::new();
        cert.encode(&mut meta);
        meta.u32(3);
        for id in [9u64, 3, 7] {
            meta.u64(id);
        }
        snap.sidecar().encode(&mut meta);
        let m = Manifest {
            seq: cert.seq,
            root: cert.digest,
            meta: meta.into_bytes(),
        };
        write_manifest(dir.path(), &m, &cfg.kill).expect("republish");
        assert!(reopen_window(dir.path()).is_none(), "old layout refused");
    }

    /// After more than `request_ttl` of steady load the window's first
    /// segment is partly pruned; a restart reads it back exactly — same
    /// segments, same ids in the same order, same pruned prefix — from a
    /// manifest that names segments instead of listing ids.
    #[test]
    fn segment_restart_past_request_ttl_reads_a_partly_pruned_first_segment() {
        let windows = steady_windows(24);
        let window = windows.last().expect("windows");
        assert!(window.skip() > 0, "the first segment is partly pruned");
        assert!(window.segments().count() > 10);
        let dir = TempDir::new("nodestore-pastttl");
        let (snap, cert) = one_key_checkpoint();
        let (mut store, _, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("open");
        for w in &windows {
            store
                .persist_checkpoint(&cert, &snap, w)
                .expect("checkpoint");
        }
        drop(store);
        let manifest = ahl_wal::read_manifest(dir.path()).expect("manifest");
        assert!(
            manifest.meta.len() < 200 + SEG_REF_BYTES * window.segments().count(),
            "{} bytes of metadata for {} ids",
            manifest.meta.len(),
            window.len()
        );
        let got = reopen_window(dir.path()).expect("durable window");
        assert_eq!(shape(&got), shape(window));
        assert_eq!((got.skip(), got.len()), (window.skip(), window.len()));
        assert!(got.iter().eq(window.iter()));
        let resumed = crate::common::ExecutedCache::from_window(&got, SimTime::ZERO);
        assert_eq!(resumed.len(), window.len());
    }

    /// The kill-point matrix over one checkpoint that appends a segment
    /// (and drops a pruned one), with GC armed: a crash at each of its
    /// durable write sites in turn recovers the window of the previous
    /// checkpoint or of this one, never anything else, and the store
    /// then completes the checkpoint.
    #[test]
    fn segment_kill_matrix_recovers_a_captured_window() {
        let windows = steady_windows(16);
        let (a, b) = (&windows[14], &windows[15]);
        let (snap_a, cert_a) = checkpoint_with(5, 2);
        let (snap_b, cert_b) = checkpoint_with(10, 3);
        let cfg = || WalConfig {
            segment_bytes: 2048,
            gc_trigger_bytes: 1,
            ..WalConfig::default()
        };
        let setup = |cfg: &WalConfig| {
            let dir = TempDir::new("nodestore-segkill");
            let (mut store, _, _) = NodeStore::open(dir.path(), cfg).expect("open");
            store
                .persist_checkpoint(&cert_a, &snap_a, a)
                .expect("checkpoint a");
            (dir, store)
        };
        let counting = cfg();
        let (_dir, mut store) = setup(&counting);
        let before = counting.kill.visited();
        store
            .persist_checkpoint(&cert_b, &snap_b, b)
            .expect("checkpoint b");
        let sites = counting.kill.visited() - before;
        let fresh = b
            .segments()
            .filter(|(h, _)| !a.segments().any(|(g, _)| g == *h))
            .count();
        assert!(
            fresh >= 1 && sites > fresh as u64 + 3,
            "{sites} sites, {fresh} new segments"
        );
        let mut recovered = [0u32; 2];
        for site in 0..sites {
            let armed = cfg();
            let (dir, mut store) = setup(&armed);
            armed.kill.arm(site);
            assert!(
                store.persist_checkpoint(&cert_b, &snap_b, b).is_err(),
                "site {site} fires"
            );
            drop(store);
            let cfg = cfg();
            let (mut store, durable, _) = NodeStore::open(dir.path(), &cfg).expect("reopen");
            let durable = durable.expect("a checkpoint was durable before the crash");
            let got = shape(&durable.executed);
            let which = if got == shape(a) { 0 } else { 1 };
            assert!(
                which == 0 || got == shape(b),
                "site {site}: a captured window"
            );
            assert_eq!(
                durable.cert.seq,
                [cert_a.seq, cert_b.seq][which],
                "site {site}"
            );
            recovered[which] += 1;
            store
                .persist_checkpoint(&cert_b, &snap_b, b)
                .expect("completes after the crash");
            drop(store);
            let done = reopen_window(dir.path()).expect("the completed checkpoint");
            assert_eq!(shape(&done), shape(b), "site {site}");
        }
        assert!(
            recovered[0] > 0 && recovered[1] > 0,
            "both outcomes reached: {recovered:?}"
        );
    }

    /// A segment frame that is torn, missing or corrupt makes the manifest
    /// that names it unusable: the node cold-starts rather than resume
    /// with a window it cannot vouch for.
    #[test]
    fn segment_frame_torn_missing_or_corrupt_refuses_the_manifest() {
        let windows = steady_windows(16);
        let window = windows.last().expect("windows");
        let (snap, cert) = one_key_checkpoint();
        // One frame per file: each damage hits exactly one segment.
        let cfg = WalConfig {
            segment_bytes: 1,
            ..WalConfig::default()
        };
        for damage in ["torn", "missing", "corrupt"] {
            let dir = TempDir::new("nodestore-segdamage");
            let (mut store, _, _) = NodeStore::open(dir.path(), &cfg).expect("open");
            store
                .persist_checkpoint(&cert, &snap, window)
                .expect("checkpoint");
            drop(store);
            assert!(
                reopen_window(dir.path()).is_some(),
                "{damage}: intact first"
            );
            let (target, _) = window.segments().nth(3).expect("segment");
            let file = std::fs::read_dir(dir.path().join("pages"))
                .expect("pages dir")
                .map(|e| e.expect("entry").path())
                .find(|p| {
                    p.extension().is_some_and(|x| x == "seg")
                        && std::fs::read(p)
                            .expect("read")
                            .windows(32)
                            .any(|w| w == target.0)
                })
                .expect("the segment's file");
            let mut bytes = std::fs::read(&file).expect("read");
            match damage {
                "torn" => bytes.truncate(bytes.len() - 9),
                "missing" => bytes.clear(),
                _ => *bytes.last_mut().expect("bytes") ^= 0x10,
            }
            std::fs::write(&file, &bytes).expect("damage");
            assert!(
                reopen_window(dir.path()).is_none(),
                "{damage} segment refused"
            );
        }
    }

    /// With the GC trigger armed, every checkpoint collects: the segments
    /// the new manifest names survive, segments pruned out of the window
    /// are reclaimed, and the survivors still load.
    #[test]
    fn segment_gc_keeps_referenced_segments_and_reclaims_the_rest() {
        let windows = steady_windows(20);
        let (snap, cert) = one_key_checkpoint();
        let cfg = WalConfig {
            segment_bytes: 1,
            gc_trigger_bytes: 1,
            ..WalConfig::default()
        };
        let dir = TempDir::new("nodestore-seggc");
        let (mut store, _, _) = NodeStore::open(dir.path(), &cfg).expect("open");
        let mut written: Vec<Hash> = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            let io = store
                .persist_checkpoint(&cert, &snap, w)
                .expect("checkpoint");
            assert!(io.gc.is_some(), "the armed trigger collects");
            // The one-key tree's page, once; segment frames never count.
            assert_eq!(io.pages.pages_written, u64::from(i == 0));
            let live = refs_of(w);
            for (h, _) in &live {
                if !written.contains(h) {
                    written.push(*h);
                }
            }
            for h in &written {
                let named = live.iter().any(|(l, _)| l == h);
                assert_eq!(store.node.pages.contains(h), named);
            }
        }
        assert!(written.len() > refs_of(windows.last().expect("windows")).len());
        drop(store);
        let got = reopen_window(dir.path()).expect("durable window");
        assert_eq!(shape(&got), shape(windows.last().expect("windows")));
    }

    /// Hostile metadata never panics the decoder and never yields a
    /// window it did not vouch for: a flipped bit in the format tag or
    /// window section, a segment count up to `u32::MAX`, a repeated
    /// reference, a pruned prefix as long as the first segment, or a
    /// length that disagrees with its frame or with the window each give
    /// `None`.
    #[test]
    fn segment_meta_decode_refuses_hostile_bytes() {
        let windows = steady_windows(16);
        let window = windows.last().expect("windows");
        let (snap, cert) = one_key_checkpoint();
        let dir = TempDir::new("nodestore-seghostile");
        let (mut store, _, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("open");
        store
            .persist_checkpoint(&cert, &snap, window)
            .expect("checkpoint");
        let pages = &store.node.pages;
        let refs = refs_of(window);
        let (skip, len) = (window.skip(), window.len());
        let with = |refs: &[(Hash, usize)], skip: usize, len: usize| {
            meta_with(&cert, &snap, |w| encode_window_refs(refs, skip, len, w))
        };
        let honest = with(&refs, skip, len);
        assert_eq!(Some(&honest), ahl_wal::read_manifest(dir.path()).as_ref());
        assert!(decode_meta(&honest, pages).is_some_and(|(_, w, _)| shape(&w) == shape(window)));

        let refused = |m: &Manifest, what: &str| assert!(decode_meta(m, pages).is_none(), "{what}");
        for count in [refs.len() as u32 + 1, 1 << 20, u32::MAX] {
            refused(
                &meta_with(&cert, &snap, |w| {
                    w.u32(count);
                    for (hash, seg_len) in &refs {
                        w.hash(hash);
                        w.u32(*seg_len as u32);
                    }
                    w.u32(skip as u32);
                    w.u32(len as u32);
                }),
                "inflated segment count",
            );
        }
        let mut dup = refs.clone();
        dup.insert(1, refs[1]);
        refused(&with(&dup, skip, len + refs[1].1), "duplicate reference");
        refused(
            &with(&refs, refs[0].1, len + skip - refs[0].1),
            "skip = first segment's length",
        );
        refused(
            &with(&refs, refs[0].1 + 3, len),
            "skip past the first segment",
        );
        for delta in [-1i64, 1] {
            let mut off = refs.clone();
            off[2].1 = (off[2].1 as i64 + delta) as usize;
            refused(
                &with(&off, skip, (len as i64 + delta) as usize),
                "len disagrees with frame",
            );
        }
        refused(&with(&refs, skip, len + 1), "window length disagrees");
        refused(
            &with(&refs, skip + 1, len),
            "pruned prefix disagrees with the length",
        );

        // Bit flips: anywhere, no panic; in the tag or the window section,
        // always refused.
        let cert_bytes = {
            let mut w = Writer::new();
            cert.encode(&mut w);
            w.len()
        };
        let section = 8 + cert_bytes..8 + cert_bytes + 4 + SEG_REF_BYTES * refs.len() + 8;
        for bit in 0..honest.meta.len() * 8 {
            let mut m = honest.clone();
            m.meta[bit / 8] ^= 1 << (bit % 8);
            let decoded = decode_meta(&m, pages);
            if bit / 8 < 8 || section.contains(&(bit / 8)) {
                assert!(decoded.is_none(), "flipped bit {bit} accepted");
            }
        }
        // Truncated at every length: refused, no panic.
        for cut in 0..honest.meta.len() {
            let m = Manifest {
                meta: honest.meta[..cut].to_vec(),
                ..honest.clone()
            };
            refused(&m, "truncated");
        }
    }

    proptest::proptest! {
        /// A live replica's window — several shared segments, the first
        /// possibly partly pruned — comes back from the node directory
        /// with the same ids in the same order.
        #[test]
        fn window_survives_the_manifest_round_trip(seed: u64) {
            let (window, want) = crate::common::testkit::random_window(seed);
            let dir = TempDir::new("nodestore-window");
            let cfg = WalConfig::default();
            let (snap, cert) = one_key_checkpoint();
            let (mut store, _, _) = NodeStore::open(dir.path(), &cfg).expect("open");
            store.persist_checkpoint(&cert, &snap, &window).expect("checkpoint");
            drop(store);
            let (_, durable, _) = NodeStore::open(dir.path(), &cfg).expect("reopen");
            let got = durable.expect("durable checkpoint recovered").executed;
            proptest::prop_assert_eq!(shape(&got), shape(&window));
            proptest::prop_assert_eq!(got.len(), want.len());
            proptest::prop_assert_eq!(got.iter().collect::<Vec<_>>(), want);
        }
    }
}
