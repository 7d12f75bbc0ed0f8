//! Checkpoints: the vote tracker and the certificate held back for
//! execution to reach, the snapshots taken at checkpoint heights, the
//! certified serving window state sync is served from, and the durable
//! checkpoint with the node directory and store that persist it.
//!
//! [`Checkpoints`] owns all of it. A crash keeps the durable checkpoint
//! and the node directory; the store handle closes with the process and
//! [`Checkpoints::reopen`] opens it again.

use std::path::PathBuf;
use std::sync::Arc;

use ahl_ledger::StateSnapshot;
use ahl_simkit::{Ctx, NodeId, Phase, SimDuration};
use ahl_wal::WalConfig;

use super::Replica;
use crate::adversary::Attack;
use crate::common::{stat, CryptoMode, ExecutedWindow, NATIVE_SIGN, NATIVE_VERIFY};
use crate::pbft::cert::{CertKind, CheckpointVotes, QuorumCert};
use crate::pbft::config::{PbftConfig, PIPELINE_WIDTH};
use crate::pbft::durable::{NodeStore, WalRecord};
use crate::pbft::msg::PbftMsg;
use ahl_crypto::Hash;

/// State + executed-request snapshot taken at a checkpoint height; once a
/// certificate forms for that height it becomes the serving source for
/// chunked state sync (chunks must verify against the *certified* root, so
/// they cannot be cut from live, still-mutating state).
///
/// Capture is O(1) in the state size: [`ahl_ledger::StateStore::snapshot`]
/// hands out a frozen copy-on-write tree handle whose leaves carry the
/// values, so the snapshot serves complete chunks without a deep clone of
/// the state. Retaining several of these is what makes diff sync serveable.
#[derive(Clone)]
pub(super) struct CkptSnapshot {
    pub(super) seq: u64,
    pub(super) snap: Arc<StateSnapshot>,
    pub(super) executed: ExecutedWindow,
}

/// The checkpoint seam's state.
pub(super) struct Checkpoints {
    /// Checkpoint votes → certificates (pruning + sync anchoring).
    votes: CheckpointVotes,
    /// A certificate that formed at most `PIPELINE_WIDTH` blocks above our
    /// execution point, held until execution reaches it: those blocks are
    /// still in flight to us, and applying it now would raise `low_mark`
    /// over them, refuse their pre-prepares and commits, and leave state
    /// sync as the only way forward.
    pending_cert: Option<QuorumCert>,
    /// Snapshots at recent own checkpoint heights, awaiting certification.
    snapshots: Vec<CkptSnapshot>,
    /// The certified snapshots this replica serves state sync from — the
    /// latest `snapshot_retention` certificates (snapshots are O(1)
    /// copy-on-write handles, so a deep window costs almost nothing). A
    /// transfer anchored at an older retained certificate survives
    /// checkpoints forming mid-transfer, and a rejoiner whose last
    /// certified root is anywhere in the window gets a diff.
    serving: Vec<(QuorumCert, CkptSnapshot)>,
    /// The last certified own snapshot. Without a `data_dir` this is an
    /// in-memory stand-in for the on-disk checkpoint; with one, it mirrors
    /// what [`NodeStore::persist_checkpoint`] actually put on disk, and
    /// `Restart` re-reads the disk copy instead of trusting this field.
    durable: Option<(QuorumCert, CkptSnapshot)>,
    /// This replica's node directory (`<data_dir>/node-<actor id>`), when
    /// real persistence is configured.
    store_dir: Option<PathBuf>,
    /// Open WAL + page store handles. Dropped on crash (a dead process
    /// holds no file handles); reopened — with full recovery validation —
    /// on restart. `None` also after an I/O error: persistence failures
    /// are treated as crashes, never silently ignored.
    durable_store: Option<NodeStore>,
}

impl Checkpoints {
    /// The checkpoint state of replica `actor` at start.
    ///
    /// Real persistence: one node directory per actor id (unique even
    /// when several committees share a simulation). The directory is
    /// expected to be fresh per run; recovery happens via `Restart`.
    /// A directory that cannot even be created/opened is a
    /// configuration error (unwritable path, typo): failing loudly
    /// beats silently running the whole simulation diskless.
    pub(super) fn new(cfg: &PbftConfig, actor: NodeId) -> Self {
        let store_dir = cfg
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("node-{actor}")));
        let durable_store = store_dir.as_ref().map(|d| {
            let (store, _, _) = NodeStore::open(d, &cfg.wal)
                .unwrap_or_else(|e| panic!("data_dir {d:?} is unusable: {e}"));
            store
        });
        Checkpoints {
            durable_store,
            ..Checkpoints::holding(None, store_dir)
        }
    }

    /// Checkpoint state that holds only `durable` and `store_dir`, with no
    /// store open: what [`Checkpoints::new`] starts from, and what a
    /// crash leaves.
    fn holding(durable: Option<(QuorumCert, CkptSnapshot)>, store_dir: Option<PathBuf>) -> Self {
        Checkpoints {
            votes: CheckpointVotes::default(),
            pending_cert: None,
            snapshots: Vec::new(),
            serving: Vec::new(),
            durable,
            store_dir,
            durable_store: None,
        }
    }

    /// Forget everything a crash erases.
    pub(super) fn restart(&mut self) {
        *self = Checkpoints::holding(self.durable.take(), self.store_dir.take());
    }

    /// The open node store, if this replica persists and it is open.
    pub(super) fn store(&mut self) -> Option<&mut NodeStore> {
        self.durable_store.as_mut()
    }

    /// Close the node store: the process died.
    pub(super) fn close_store(&mut self) {
        self.durable_store = None;
    }

    /// Treat `seq` as certified (a certificate came by state sync or from
    /// disk): votes at or below it are dropped.
    pub(super) fn adopt(&mut self, seq: u64) {
        self.votes.adopt(seq);
    }

    /// The newest certified snapshot this replica serves.
    pub(super) fn newest_served(&self) -> Option<&(QuorumCert, CkptSnapshot)> {
        self.serving.last()
    }

    /// The served snapshot certified at `seq`, if still in the window.
    pub(super) fn served_at(&self, seq: u64) -> Option<&CkptSnapshot> {
        self.serving
            .iter()
            .find(|(cert, _)| cert.seq == seq)
            .map(|(_, s)| s)
    }

    /// A retained frozen snapshot whose root is exactly `root`, if any:
    /// searched through the serving window, the not-yet-certified own
    /// snapshots, and the durable checkpoint.
    pub(super) fn retained_snapshot(&self, root: &Hash) -> Option<&Arc<StateSnapshot>> {
        self.serving
            .iter()
            .map(|(_, s)| s)
            .chain(self.snapshots.iter())
            .chain(self.durable.iter().map(|(_, s)| s))
            .find(|s| s.snap.root() == *root)
            .map(|s| &s.snap)
    }

    /// Every certified root this node retains a snapshot of, newest
    /// first: the serving window plus the durable checkpoint, bounded by
    /// the retention depth. Advertised in `SyncRequest` so a server can
    /// anchor a diff plan on *any* root the two nodes share — not just
    /// the requester's newest (a freshly restarted server's window may
    /// hold only an older one).
    pub(super) fn advertised_roots(&self, retention: usize) -> Vec<Hash> {
        let mut roots: Vec<Hash> = Vec::new();
        for (cert, _) in self.serving.iter().rev().chain(&self.durable) {
            if !roots.contains(&cert.digest) {
                roots.push(cert.digest);
            }
        }
        roots.truncate(retention.max(2));
        roots
    }

    /// Certified state this replica now holds: serve it, and make it the
    /// durable checkpoint (the caller persists it).
    pub(super) fn install(&mut self, cert: QuorumCert, snap: CkptSnapshot, retention: usize) {
        self.serving.push((cert.clone(), snap.clone()));
        self.durable = Some((cert, snap));
        self.trim_serving_window(retention);
    }

    /// Trim the serving window to the newest `retention` certificates (at
    /// least 2), evicting oldest first.
    fn trim_serving_window(&mut self, retention: usize) {
        // Priced on its own: dropping a retired snapshot releases its root
        // in the state tree's slab, walking and freeing only the nodes no
        // newer snapshot or the live tree still counts; their slots are
        // the next writes' allocations.
        let _prof = ahl_telemetry::Profiler::span("pbft.retire");
        while self.serving.len() > retention.max(2) {
            self.serving.remove(0);
        }
    }

    /// Reopen the node directory: the store, the durable checkpoint the
    /// manifest names (pages root-verified on load), and the WAL tail
    /// past it. `None` without a node directory; on an error the replica
    /// runs diskless with no durable checkpoint.
    pub(super) fn reopen(&mut self, wal: &WalConfig) -> Option<std::io::Result<Vec<WalRecord>>> {
        let dir = self.store_dir.as_ref()?;
        self.durable_store = None;
        self.durable = None;
        let (store, recovered, tail) = match NodeStore::open(dir, wal) {
            Ok(parts) => parts,
            Err(e) => return Some(Err(e)),
        };
        self.durable_store = Some(store);
        self.durable = recovered.map(|d| {
            let snap = CkptSnapshot {
                seq: d.cert.seq,
                snap: Arc::new(d.snapshot),
                executed: d.executed,
            };
            (d.cert, snap)
        });
        Some(Ok(tail))
    }

    /// Resume at the durable checkpoint: adopt its certificate and serve
    /// it as the one snapshot in the window. Returns it, or `None` when
    /// there is none.
    pub(super) fn resume(&mut self) -> Option<CkptSnapshot> {
        let (cert, snap) = self.durable.clone()?;
        self.votes.adopt(cert.seq);
        self.serving = vec![(cert, snap.clone())];
        Some(snap)
    }
}

impl Replica {
    /// At a checkpoint height: snapshot the state (so certified chunks can
    /// later be served from exactly the certified content), then broadcast
    /// a signed vote over `(height, state_root)`.
    pub(super) fn send_checkpoint(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        // Checkpoint housekeeping (here and in `apply_stable_checkpoint`)
        // runs between blocks, so this span is a sibling of `pbft.exec`.
        let prof = ahl_telemetry::Profiler::span("pbft.checkpoint");
        let seq = self.exec_seq;
        // Parallel-execution paranoia: before voting on a root the whole
        // committee may certify, re-derive every cached hash of the
        // authenticated index across the worker pool and compare. The
        // engine is proven equivalent to sequential execution, so this
        // must never fire; if it does, the vote still goes out (honest
        // divergence surfaces as a failed quorum) but the counter makes
        // the corruption impossible to miss.
        if self.cfg.exec_workers > 1 && !self.state.rehash_audit(self.cfg.exec_workers) {
            ctx.stats().inc(stat::CKPT_AUDIT_FAILURES, 1);
        }
        let mut root = self.state.state_digest();
        if self.attack() == Some(Attack::BogusCheckpoint) {
            // Vote for a root nobody holds: a validly signed lie. Honest
            // votes must still quorum on the true root, and the bogus one
            // must never certify (the tracker groups votes by root).
            root.0[0] ^= 0xff;
            ctx.stats().inc("adv.bogus_ckpt_votes", 1);
        }
        // O(1) in the state size: a frozen tree handle, not a deep clone —
        // and O(one interval) in the executed-id window: the ids since the
        // last capture are sealed, every earlier segment is shared.
        self.ckpt.snapshots.push(CkptSnapshot {
            seq,
            snap: Arc::new(self.state.snapshot()),
            executed: self.executed_reqs.window(),
        });
        if self.ckpt.snapshots.len() > 2 {
            self.ckpt.snapshots.remove(0);
        }
        self.charge(ctx, NATIVE_SIGN);
        ctx.trace(seq, Phase::Checkpoint);
        let key = (self.cfg.crypto == CryptoMode::Real).then_some(&self.key);
        let vote = QuorumCert::checkpoint_vote(seq, root, self.me, key);
        ctx.multicast(self.others(), PbftMsg::Checkpoint { vote: vote.clone() });
        drop(prof); // a certificate forming on this vote opens its own span
        self.record_checkpoint(vote, ctx);
    }

    fn record_checkpoint(&mut self, vote: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        if vote.seq <= self.low_mark {
            return;
        }
        let quorum = self.cfg.quorum();
        let Some(cert) = self.ckpt.votes.record(vote, quorum) else {
            return;
        };
        if cert.seq > self.exec_seq && cert.seq <= self.exec_seq + PIPELINE_WIDTH {
            self.ckpt.pending_cert = Some(cert);
            return;
        }
        self.release_pending_cert(cert.seq, ctx);
        self.apply_stable_checkpoint(cert, ctx);
    }

    /// Apply the held certificate if it is at or below `upto`. One that a
    /// state transfer has already overtaken is dropped.
    pub(super) fn release_pending_cert(&mut self, upto: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(cert) = self.ckpt.pending_cert.take_if(|c| c.seq <= upto) else {
            return;
        };
        if cert.seq > self.low_mark {
            self.apply_stable_checkpoint(cert, ctx);
        }
    }

    /// A certificate formed: it gates all pruning (PBFT stable checkpoint)
    /// and becomes the anchor this replica serves state sync from.
    fn apply_stable_checkpoint(&mut self, cert: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = ahl_telemetry::Profiler::span("pbft.checkpoint");
        ctx.stats().inc(stat::CKPT_CERTS, 1);
        // Prune one interval behind: executed blocks above the *previous*
        // stable checkpoint remain servable as a sync tail.
        let floor = std::mem::replace(&mut self.low_mark, cert.seq);
        self.insts.retain(|s, _| *s > floor);
        self.insts_floor = floor;
        let pruned = self.state.checkpoint_prune();
        ctx.stats().inc(stat::RESOLVED_PRUNED, pruned as u64);
        let pruned_exec = self
            .executed_reqs
            .checkpoint_prune(ctx.now(), self.cfg.request_ttl);
        ctx.stats().inc(stat::EXECUTED_PRUNED, pruned_exec as u64);
        if self.cfg.crypto == CryptoMode::Real {
            self.tee.truncate(cert.seq);
        }
        if let Some(snap) = self
            .ckpt
            .snapshots
            .iter()
            .find(|s| s.seq == cert.seq)
            .cloned()
        {
            // The certified own snapshot doubles as the durable (on-disk)
            // checkpoint a crash cannot erase.
            self.ckpt
                .install(cert.clone(), snap, self.cfg.snapshot_retention);
            // With real persistence, "durable" means the disk says so:
            // pages (deduplicated against earlier checkpoints), manifest
            // swap, WAL compaction.
            self.persist_durable_checkpoint(ctx);
        }
        self.ckpt.snapshots.retain(|s| s.seq > cert.seq);
    }

    /// Write the `durable` checkpoint through the node store, charging the
    /// (modelled) serialization cost; an I/O failure crashes the node.
    pub(super) fn persist_durable_checkpoint(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let (Some(store), Some((cert, snap))) =
            (self.ckpt.durable_store.as_mut(), &self.ckpt.durable)
        else {
            return;
        };
        let prof = ahl_telemetry::Profiler::span("wal.checkpoint");
        let result = store.persist_checkpoint(cert, &snap.snap, &snap.executed);
        drop(prof);
        match result {
            Ok(io) => {
                let stats = io.pages;
                ctx.stats().inc(stat::WAL_CHECKPOINTS, 1);
                ctx.stats()
                    .inc(stat::WAL_PAGES_WRITTEN, stats.pages_written);
                ctx.stats()
                    .inc(stat::WAL_PAGES_SHARED, stats.subtrees_shared);
                let mut gc_copied_bytes = 0;
                if let Some(gc) = io.gc {
                    ctx.stats().inc(stat::WAL_GC_RUNS, gc.runs);
                    ctx.stats().inc(stat::WAL_GC_RECLAIMED, gc.reclaimed_bytes);
                    ctx.stats().inc(stat::WAL_GC_COPIED, gc.copied_pages);
                    gc_copied_bytes = gc.copied_bytes;
                }
                // Serialization + page I/O cost (bytes actually written —
                // shared pages cost nothing, the point of the dedup; a GC
                // pass additionally pays for the live pages it copied).
                self.charge(
                    ctx,
                    SimDuration::from_micros(20)
                        + SimDuration::from_nanos((stats.bytes_written + gc_copied_bytes) / 4),
                );
            }
            Err(_) => self.io_crash(ctx),
        }
    }

    pub(super) fn on_checkpoint(&mut self, vote: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, NATIVE_VERIFY);
        // A vote is a one-signer checkpoint certificate: under real crypto
        // an unsigned one is a forgery.
        let valid = vote.kind == CertKind::Checkpoint
            && vote.signers.len() == 1
            && vote.verify(1, self.cert_registry());
        if !valid {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        self.record_checkpoint(vote, ctx);
    }
}
