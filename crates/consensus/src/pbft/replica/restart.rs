//! Crash, restart and WAL replay (paper Appendix A's setting): a crashed
//! replica goes dark; its restart resumes from the durable checkpoint —
//! reopened from its node directory, WAL tail replayed, when it has one —
//! and state-syncs the rest.
//!
//! [`Lifecycle`] owns the crashed flag and the genesis snapshot: the
//! committee's genesis tree, built once for all its members. A cold
//! restart (no durable checkpoint, or a node directory that will not
//! reopen) clones it — an O(1) root handle, not a rebuild.
//!
//! A restart rebuilds the pool, batcher, executed-request cache and
//! protocol instances, and each seam's crash-volatile state, with the
//! constructors [`Replica::from_genesis`] uses. A simulated
//! `Crash`/`Restart` does not erase the rest of the replica: the view, the
//! enclave's attested log with its bindings, the view-change marks (the
//! progress mark, the highest view voted for, the last arrival) and the
//! attack state all survive it. A restarted `node` process builds a new
//! replica and gets every one of them fresh, so the two restart paths
//! differ there.

use ahl_ledger::{StateSnapshot, StateStore};
use ahl_simkit::{Ctx, SimTime};

use super::{fresh_pool, Replica};
use crate::common::{stat, ExecutedCache, Stores};
use crate::pbft::config::EXEC_COST_PER_OP;
use crate::pbft::durable::{twopc_kind, TwoPcKind, WalRecord};
use crate::pbft::msg::PbftMsg;

/// The restart seam's state.
pub(super) struct Lifecycle {
    /// The genesis state, in the committee's lineage (cloned on a cold
    /// restart before state sync).
    genesis: StateSnapshot,
    /// Dark after a [`PbftMsg::Crash`] until the matching `Restart`: every
    /// message is dropped, timers idle.
    crashed: bool,
}

impl Lifecycle {
    pub(super) fn new(genesis: StateSnapshot) -> Self {
        Lifecycle {
            genesis,
            crashed: false,
        }
    }

    /// Whether the replica is dark (crashed, not yet restarted).
    pub(super) fn crashed(&self) -> bool {
        self.crashed
    }
}

impl Replica {
    /// A durable write failed (real I/O error or injected kill): the node
    /// treats it as its own crash — no half-persisted state is ever
    /// trusted, and the next `Restart` recovers from the disk image.
    pub(super) fn io_crash(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc(stat::WAL_IO_CRASHES, 1);
        self.go_dark();
    }

    /// Crash: the node goes dark. Every message is dropped and timers idle
    /// until a `Restart` arrives — modelling real downtime, during which
    /// the committee commits on without this member and its block tail
    /// ages out of peers' retention.
    pub(super) fn on_crash(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc("sync.crashes", 1);
        self.go_dark();
    }

    fn go_dark(&mut self) {
        self.life.crashed = true;
        self.sync.halt();
        // A dead process holds no file handles; uncommitted WAL appends
        // buffered in them are lost — exactly the crash model. `Restart`
        // reopens the directory through full recovery validation.
        self.ckpt.close_store();
    }

    /// (Re)start after a crash: all volatile state is lost; genesis and
    /// the durable checkpoint survive. Without a `data_dir` the in-memory
    /// `durable` field stands in for the disk; with one, the node
    /// directory is *reopened* — manifest validation, page-verified
    /// checkpoint load, WAL tail replay — and the replica resumes from
    /// what the disk actually says before diff-syncing the remainder
    /// (advertising its retained roots, so a peer that still holds any of
    /// them serves only the diff).
    pub(super) fn on_restart(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc("sync.restarts", 1);
        if let Some(ck) = &self.exec.checker {
            // Volatile state is gone: the replica legitimately
            // re-executes history, so its exactly-once scope resets.
            ck.record_reset(self.cfg.committee_id, self.me);
        }
        // Everything else a crash erases, rebuilt as
        // `Replica::from_genesis` builds it.
        self.life.crashed = false;
        self.insts.clear();
        self.executed_reqs = ExecutedCache::new();
        self.ingested.clear();
        (self.pool, self.batcher) = fresh_pool(&self.cfg);
        self.ckpt.restart();
        self.vc.restart();
        self.sync.halt();
        self.restart_from_disk(ctx);
        // Timer chains kept alive through the dark period resume driving
        // batching/view-change/heartbeat once sync completes.
        self.begin_sync(false, false, None, ctx);
    }

    /// Put the replica at its durable checkpoint — state, replay cache,
    /// sequence marks, checkpoint tracker, and the snapshot as the one
    /// servable (and diff-anchor) certificate — or at genesis when it has
    /// none. Every restart path lands here: in-memory restart, restart from
    /// disk, and the rollback of a WAL replay that failed its cross-checks.
    fn resume_from_durable(&mut self, now: SimTime) {
        let Some(snap) = self.ckpt.resume() else {
            self.cold_start_state();
            return;
        };
        self.state = StateStore::from_snapshot(&snap.snap);
        self.executed_reqs = ExecutedCache::from_window(&snap.executed, now);
        self.exec_seq = snap.seq;
        self.next_seq = snap.seq + 1;
        self.low_mark = snap.seq;
        self.insts_floor = snap.seq;
    }

    /// Reset the ledger to genesis (no durable checkpoint to resume from).
    fn cold_start_state(&mut self) {
        self.state = StateStore::from_snapshot(&self.life.genesis);
        self.exec_seq = 0;
        self.next_seq = 1;
        self.low_mark = 0;
        self.insts_floor = 0;
    }

    /// Real recovery: reopen the node directory, resume from the durable
    /// checkpoint the manifest names (pages root-verified on load), then
    /// replay the WAL tail past it — crash-truncated tails were already
    /// cut at the torn record, and the 2PC journal cross-checks replay.
    /// Anything this cannot restore, state sync fetches afterwards.
    /// Without a node directory the in-memory durable checkpoint stands in
    /// for the disk: O(fetched) recovery instead of re-transferring the
    /// whole state.
    fn restart_from_disk(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        match self.ckpt.reopen(&self.cfg.wal) {
            None => self.resume_from_durable(ctx.now()),
            Some(Ok(tail)) => {
                self.resume_from_durable(ctx.now());
                let replayed = self.replay_wal_tail(tail, ctx);
                ctx.stats().inc(stat::WAL_REPLAYED, replayed);
            }
            Some(Err(_)) => {
                // The directory is unusable (injected crash during the
                // reopen itself, or real I/O trouble): run diskless from
                // genesis; state sync restores the ledger.
                ctx.stats().inc(stat::WAL_REOPEN_FAILURES, 1);
                self.cold_start_state();
            }
        }
    }

    /// Re-execute the decoded WAL tail contiguously above the recovered
    /// checkpoint. Each batch's journaled 2PC transitions must match what
    /// replay actually performs — a divergence means the tail cannot be
    /// trusted (corruption the CRCs missed). The mismatch necessarily
    /// surfaces *after* the suspect batch applied, so the whole replay is
    /// rolled back to the verified checkpoint: nothing unattested stays
    /// in the recovered state, and verified state sync covers the rest.
    /// Returns the number of batches that stayed replayed.
    fn replay_wal_tail(&mut self, tail: Vec<WalRecord>, ctx: &mut Ctx<'_, PbftMsg>) -> u64 {
        let checkpoint_exec = self.exec_seq;
        let mut replayed = 0u64;
        let mut mismatch = false;
        // Journal records of a batch already folded into the checkpoint:
        // skipped, not checked (the checkpoint is the verified truth for
        // them; two-generation WAL retention makes such prefixes normal).
        let mut skipping = true;
        let mut expected: std::collections::VecDeque<(u64, TwoPcKind)> = Default::default();
        for rec in tail {
            match rec {
                WalRecord::Batch { seq, reqs } => {
                    if seq <= self.exec_seq {
                        skipping = true;
                        continue; // folded into the checkpoint already
                    }
                    if seq != self.exec_seq + 1 {
                        break; // gap: records beyond it are unreachable
                    }
                    // A truncated journal after a fully written batch is
                    // a normal crash shape — only *mismatches* are fatal,
                    // and those broke out of the loop below.
                    skipping = false;
                    expected.clear();
                    // Same shell as `execute_block`, minus what a live
                    // commit reports; the journal each 2PC transition
                    // must have left is queued for the records that follow.
                    let stores = Stores {
                        state: &mut self.state,
                        executed: &mut self.executed_reqs,
                        pool: &mut self.pool,
                    };
                    let weight = self.exec.execute(&reqs, stores, ctx.now(), |req, ok| {
                        if let (true, Some(k), Some(txid)) =
                            (ok, twopc_kind(&req.op), req.op.txid())
                        {
                            expected.push_back((txid.0, k));
                        }
                    });
                    self.charge_to(
                        ctx,
                        EXEC_COST_PER_OP.saturating_mul(weight as u64),
                        stat::EXEC_CPU_NS,
                    );
                    self.exec_seq = seq;
                    self.next_seq = seq + 1;
                    replayed += 1;
                }
                WalRecord::TwoPc { .. } if skipping => {}
                WalRecord::TwoPc { txid, kind } => match expected.pop_front() {
                    Some((t, k)) if t == txid && k == kind => {}
                    _ => {
                        mismatch = true;
                        break;
                    }
                },
                WalRecord::Ckpt { seq, root } => {
                    // Checkpoint marker: when it names the point replay
                    // just reached, the live root must match the certified
                    // one — a cheap end-to-end integrity check on replay.
                    if seq == self.exec_seq && self.state.state_digest() != root {
                        mismatch = true;
                        break;
                    }
                }
            }
        }
        if mismatch {
            ctx.stats().inc(stat::WAL_REPLAY_MISMATCHES, 1);
            // The tail lied about a batch that is already applied: fall
            // back to exactly the verified checkpoint (or genesis) and
            // let state sync re-fetch the rest with proofs.
            self.resume_from_durable(ctx.now());
            debug_assert_eq!(
                self.exec_seq, checkpoint_exec,
                "rollback lands on the checkpoint"
            );
            return 0;
        }
        replayed
    }
}
