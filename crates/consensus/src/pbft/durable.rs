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
//!   (content-addressed — consecutive checkpoints share unchanged pages),
//!   publishes the manifest (certificate + executed-request window, in
//!   execution order, + 2PC sidecar in the metadata), logs a
//!   [`WalRecord::Ckpt`] marker, and compacts the WAL to the last two
//!   checkpoint generations;
//! * [`NodeStore::open`] reopens the directory after a crash: validates
//!   the manifest, loads and root-verifies the checkpoint tree, and hands
//!   back the decoded WAL tail for replay.
//!
//! Any I/O error — including an injected [`ahl_wal::KillSwitch`] crash —
//! is treated by the replica as its own crash: it goes dark exactly as if
//! the process had died, and the next `Restart` recovers from whatever
//! actually reached the disk.

use std::path::{Path, PathBuf};

use ahl_crypto::{Hash, Signature};
use ahl_ledger::persist::{decode_op, encode_op, open_snapshot};
use ahl_ledger::{StateSidecar, StateSnapshot};
use ahl_simkit::SimTime;
use ahl_store::CheckpointCert;
use ahl_wal::codec::{Reader, Writer};
use ahl_wal::{open_node_dir, write_manifest, GcStats, Manifest, NodeDir, PersistStats, WalConfig};

use crate::common::{ExecutedWindow, Request};
use crate::pbft::msg::PbftBlock;

const REC_BATCH: u8 = 1;
const REC_CKPT: u8 = 2;
const REC_TWOPC: u8 = 3;

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
                reqs.push(Request { id, client, op, submitted });
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

fn encode_cert(cert: &CheckpointCert, w: &mut Writer) {
    w.u64(cert.seq);
    w.hash(&cert.root);
    w.u32(cert.votes.len() as u32);
    for (replica, sig) in &cert.votes {
        w.u64(*replica as u64);
        match sig {
            Some(s) => {
                w.u8(1);
                w.bytes(&s.to_bytes());
            }
            None => w.u8(0),
        }
    }
}

fn decode_cert(r: &mut Reader<'_>) -> Option<CheckpointCert> {
    let seq = r.u64()?;
    let root = r.hash()?;
    let n = r.u32()? as usize;
    let mut votes = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let replica = r.u64()? as usize;
        let sig = match r.u8()? {
            0 => None,
            1 => {
                let b = r.bytes()?;
                let arr: &[u8; Signature::BYTES] = b.try_into().ok()?;
                Some(Signature::from_bytes(arr))
            }
            _ => return None,
        };
        votes.push((replica, sig));
    }
    Some(CheckpointCert { seq, root, votes })
}

/// The durable checkpoint recovered from a reopened node directory.
pub struct DurableState {
    /// The persisted (and re-verified: `cert.seq == manifest.seq`,
    /// `cert.root == rebuilt root`) checkpoint certificate.
    pub cert: CheckpointCert,
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
            let mut r = Reader::new(&m.meta);
            let cert = decode_cert(&mut r)?;
            if cert.seq != m.seq || cert.root != m.root {
                return None; // manifest/cert mismatch: not trusted
            }
            let executed = ExecutedWindow::decode(&mut r)?;
            let sidecar = StateSidecar::decode(&mut r)?;
            let snapshot = open_snapshot(&node.pages, m.root, sidecar).ok()?;
            Some(DurableState { cert, snapshot, executed })
        });
        let mut tail = Vec::with_capacity(node.tail.len());
        for payload in &node.tail {
            match decode_record(payload) {
                Some(rec) => tail.push(rec),
                None => break,
            }
        }
        let mut store = NodeStore { dir: dir.to_path_buf(), node, cfg: cfg.clone() };
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
    /// earlier checkpoint), sync barrier, manifest swap, WAL marker, then
    /// compact the log to the last two checkpoint generations and collect
    /// dead page segments if disk pressure asks for it.
    ///
    /// Ordering audit (the invariant the post-rename manifest kill point
    /// pins): every space-reclaiming step — WAL compaction in
    /// `rotate_keep`, page GC in `maybe_gc` — runs strictly *after*
    /// `write_manifest` returns, i.e. after the rename's directory fsync.
    /// Reclaiming earlier would let a lost rename resurrect the old
    /// manifest while the WAL records and pages it still needs are gone.
    pub fn persist_checkpoint(
        &mut self,
        cert: &CheckpointCert,
        snapshot: &StateSnapshot,
        executed: &ExecutedWindow,
    ) -> std::io::Result<CheckpointIo> {
        let stats = snapshot.persist(&mut self.node.pages)?;
        self.node.pages.sync()?;
        // The id window dominates the metadata: size the buffer for it
        // once and write it as it lies (execution order — deterministic,
        // and the decoder takes any order).
        let mut meta = Writer::with_capacity(1024 + 8 * executed.len());
        encode_cert(cert, &mut meta);
        executed.encode(&mut meta);
        snapshot.sidecar().encode(&mut meta);
        write_manifest(
            &self.dir,
            &Manifest { seq: cert.seq, root: cert.root, meta: meta.into_bytes() },
            &self.cfg.kill,
        )?;
        self.node.wal.append(encode_ckpt_record(cert.seq, &cert.root));
        self.node.wal.commit()?;
        self.node.wal.rotate_keep(2)?;
        // The manifest just published is the only checkpoint a restart
        // can anchor on, so its root is the whole live set — older
        // checkpoints' unshared pages are garbage from here on.
        let gc = self.node.pages.maybe_gc(&[cert.root])?;
        Ok(CheckpointIo { pages: stats, gc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::KeyRegistry;
    use ahl_ledger::{Op, StateStore, TxId, Value};
    use ahl_wal::TempDir;

    fn block(seq: u64, reqs: Vec<Request>) -> PbftBlock {
        PbftBlock::new(0, seq, 0, reqs)
    }

    fn req(id: u64, op: Op) -> Request {
        Request { id, client: 9, op, submitted: SimTime::ZERO }
    }

    #[test]
    fn wal_records_round_trip() {
        let b = block(
            4,
            vec![
                req(1, Op::Noop),
                req(2, Op::Commit { txid: TxId(8) }),
            ],
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
            Some(WalRecord::TwoPc { txid: 7, kind: TwoPcKind::Abort })
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
        let mut reg = KeyRegistry::new();
        let keys: Vec<_> = (0..3).map(|i| reg.generate(i)).collect();
        let root = ahl_crypto::sha256(b"state");
        let votes = keys
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (i, Some(k.sign(&ahl_store::checkpoint_digest(6, &root))))
            })
            .collect();
        let cert = CheckpointCert { seq: 6, root, votes };
        assert!(cert.verify(3, Some(&reg)));

        let mut w = Writer::new();
        encode_cert(&cert, &mut w);
        let bytes = w.into_bytes();
        let decoded = decode_cert(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(decoded.seq, 6);
        assert_eq!(decoded.root, root);
        // The signatures still verify after the disk round trip.
        assert!(decoded.verify(3, Some(&reg)));
    }

    #[test]
    fn checkpoint_persist_and_reopen() {
        let dir = TempDir::new("nodestore");
        let cfg = WalConfig::default();
        let mut state = StateStore::new();
        state.put("a".into(), Value::Int(10));
        let snap = state.snapshot();
        let cert = CheckpointCert { seq: 5, root: snap.root(), votes: vec![(0, None), (1, None)] };
        let executed: ExecutedWindow = [9, 3].into_iter().collect();
        {
            let (mut store, durable, tail) = NodeStore::open(dir.path(), &cfg).expect("open");
            assert!(durable.is_none() && tail.is_empty());
            store.log_batch(&block(6, vec![req(1, Op::Noop)]));
            store.commit().expect("commit");
            store.persist_checkpoint(&cert, &snap, &executed).expect("checkpoint");
            // A post-checkpoint batch lands in the fresh segment.
            store.log_batch(&block(7, vec![req(2, Op::Noop)]));
            store.commit().expect("commit 2");
        }
        let (_, durable, tail) = NodeStore::open(dir.path(), &cfg).expect("reopen");
        let durable = durable.expect("durable checkpoint recovered");
        assert_eq!(durable.cert.seq, 5);
        assert_eq!(durable.snapshot.root(), snap.root());
        assert_eq!(durable.executed.iter().collect::<Vec<_>>(), [9, 3], "window order kept");
        // The tail still holds both batches (two-generation retention)
        // plus the checkpoint marker; recovery filters by sequence.
        let seqs: Vec<u64> = tail
            .iter()
            .filter_map(|r| match r {
                WalRecord::Batch { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert!(seqs.contains(&7), "post-checkpoint batch retained: {seqs:?}");
    }

    fn one_key_checkpoint() -> (StateSnapshot, CheckpointCert) {
        let mut state = StateStore::new();
        state.put("a".into(), Value::Int(10));
        let snap = state.snapshot();
        let cert = CheckpointCert { seq: 5, root: snap.root(), votes: vec![(0, None), (1, None)] };
        (snap, cert)
    }

    /// The manifest format is `u32` count + `u64` ids in any order: a
    /// file whose ids ascend, as the sorting encoder before this one wrote
    /// them, loads the same ids; one that repeats an id counts it once.
    #[test]
    fn manifest_with_ascending_or_repeated_ids_loads() {
        let dir = TempDir::new("nodestore-idorder");
        let cfg = WalConfig::default();
        let (snap, cert) = one_key_checkpoint();
        let (mut store, _, _) = NodeStore::open(dir.path(), &cfg).expect("open");
        let executed: ExecutedWindow = [9, 3, 7].into_iter().collect();
        store.persist_checkpoint(&cert, &snap, &executed).expect("pages + manifest");
        drop(store);
        for (on_disk, want) in [(vec![3u64, 7, 9], vec![3u64, 7, 9]), (vec![9, 3, 9, 7, 3], vec![9, 3, 7])] {
            let mut meta = Writer::new();
            encode_cert(&cert, &mut meta);
            meta.u32(on_disk.len() as u32);
            for id in &on_disk {
                meta.u64(*id);
            }
            snap.sidecar().encode(&mut meta);
            let m = Manifest { seq: cert.seq, root: cert.root, meta: meta.into_bytes() };
            write_manifest(dir.path(), &m, &cfg.kill).expect("republish");
            let (_, durable, _) = NodeStore::open(dir.path(), &cfg).expect("reopen");
            let got = durable.expect("loads").executed;
            assert_eq!(got.iter().collect::<Vec<_>>(), want);
            assert_eq!(got.len(), want.len());
            let resumed = crate::common::ExecutedCache::from_window(&got, SimTime::ZERO);
            assert_eq!(resumed.len(), 3, "same executed_len() either way");
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
            proptest::prop_assert_eq!(got.len(), want.len());
            proptest::prop_assert_eq!(got.iter().collect::<Vec<_>>(), want);
        }
    }
}
