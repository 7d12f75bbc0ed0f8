//! View change: suspecting a stalled leader, the view-change vote
//! quorum, the new leader's re-proposals, and entering a view.
//!
//! [`ViewChange`] owns the view-change votes, the timeout backoff and the
//! stall detector. A crash erases the votes, the backoff and the strikes;
//! the progress mark, the highest view voted for and the last arrival
//! survive it (the view itself is the replica's).

use std::collections::HashMap;
use std::sync::Arc;

use ahl_crypto::Hash;
use ahl_simkit::{Ctx, Phase, Scope, SimDuration, SimTime};

use super::Replica;
use crate::common::{stat, VotePhase, NATIVE_SIGN, NATIVE_VERIFY};
use crate::pbft::config::PIPELINE_WIDTH;
use crate::pbft::msg::{MsgCert, PbftBlock, PbftMsg, ViewChangeMsg};

/// The view-change seam's state.
pub(super) struct ViewChange {
    /// View-change votes with arrival times: only fresh votes count toward
    /// quorums, so votes cast by nodes that were briefly cut off long ago
    /// cannot combine into a surprise view change much later.
    votes: HashMap<u64, HashMap<usize, (SimTime, ViewChangeMsg)>>,
    /// Doublings of the view-change timeout (at most 5), reset by progress.
    backoff: u32,
    /// The execution point at the previous stall check.
    last_progress_seq: u64,
    /// The highest view this replica has voted to change to, or entered.
    highest_sent: u64,
    /// Last time any peer message arrived (isolation detection: a node
    /// receiving nothing at all is cut off — suspecting the leader is
    /// pointless and a view change could never gather a quorum).
    last_msg_at: SimTime,
    /// Consecutive no-progress checks (a view change needs two strikes, so
    /// a single transient stall — rejoining after isolation, state sync in
    /// flight — never triggers one).
    stall_strikes: u8,
}

impl ViewChange {
    pub(super) fn new() -> Self {
        ViewChange {
            votes: HashMap::new(),
            backoff: 0,
            last_progress_seq: 0,
            highest_sent: 0,
            last_msg_at: SimTime::ZERO,
            stall_strikes: 0,
        }
    }

    /// Forget everything a crash erases.
    pub(super) fn restart(&mut self) {
        *self = ViewChange {
            last_progress_seq: self.last_progress_seq,
            highest_sent: self.highest_sent,
            last_msg_at: self.last_msg_at,
            ..ViewChange::new()
        };
    }

    /// A peer message arrived at `now`.
    pub(super) fn heard(&mut self, now: SimTime) {
        self.last_msg_at = now;
    }

    /// Start counting stall strikes afresh (a sync just completed).
    pub(super) fn clear_strikes(&mut self) {
        self.stall_strikes = 0;
    }
}

impl Replica {
    pub(super) fn current_vc_timeout(&self) -> SimDuration {
        self.cfg
            .vc_timeout
            .saturating_mul(1u64 << self.vc.backoff.min(5))
    }

    pub(super) fn maybe_start_view_change(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.sync.paused() {
            return; // not voting: a view change can neither help nor pass
        }
        let pending_work = !self.pool.is_empty()
            || self
                .insts
                .iter()
                .any(|(s, i)| *s > self.exec_seq && !i.executed && i.block.is_some());
        let progressed = self.exec_seq > self.vc.last_progress_seq;
        self.vc.last_progress_seq = self.exec_seq;
        if progressed {
            self.vc.backoff = 0;
            self.vc.stall_strikes = 0;
            return;
        }
        if !pending_work || self.byz.is_some() {
            self.vc.stall_strikes = 0;
            return;
        }
        // Cut-off detection: if nothing at all arrived for half a timeout
        // we are isolated (e.g. a transitioning node fetching state) — a
        // dead *leader* still leaves peer traffic flowing, so this never
        // masks a real leader failure. A view change while cut off would be
        // futile and, worse, its stale votes churn the committee after
        // healing.
        let cutoff = SimDuration::from_nanos(self.current_vc_timeout().as_nanos() / 2);
        if ctx.now().since(self.vc.last_msg_at) >= cutoff {
            return;
        }
        // Gap detection: if a later sequence already committed while we
        // miss earlier blocks, the leader is fine — we lagged (dropped
        // messages / temporary isolation). Request a state transfer
        // instead of suspecting the leader.
        if self.has_execution_gap() {
            self.request_state_sync(ctx);
            return;
        }
        // Two strikes before suspecting the leader.
        self.vc.stall_strikes = self.vc.stall_strikes.saturating_add(1);
        if self.vc.stall_strikes < 2 {
            return;
        }
        self.vc.stall_strikes = 0;
        let target = (self.view + 1).max(self.vc.highest_sent + 1);
        self.start_view_change(target, ctx);
        self.vc.backoff = (self.vc.backoff + 1).min(5);
    }

    /// Evidence of having fallen behind the committee: a later instance
    /// committed while the next-to-execute one cannot, or proposals exist
    /// far beyond our pipeline window (the leader only proposes within
    /// `pipeline_width` of *its* execution point, so seeing proposals past
    /// ours means our execution point is stale). Either way progress needs
    /// state transfer, not a view change.
    pub(super) fn has_execution_gap(&self) -> bool {
        let next = self.exec_seq + 1;
        let next_committed = self.insts.get(&next).is_some_and(|i| i.cert.is_some());
        if next_committed {
            return false;
        }
        let horizon = next + PIPELINE_WIDTH;
        self.insts
            .iter()
            .any(|(s, i)| (*s > next && i.cert.is_some()) || (*s > horizon && i.block.is_some()))
    }

    fn start_view_change(&mut self, target: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.vc.highest_sent = target;
        // A prepared claim in a view-change message is a safety-relevant
        // assertion, so tentatively admitted (deferred-Sig) votes must be
        // settled before they can back one: settle every candidate digest
        // first, then count the surviving prepare votes.
        let candidates: Vec<(u64, Hash)> = self
            .insts
            .iter()
            .filter(|(s, i)| **s > self.low_mark && !i.executed)
            .filter_map(|(s, i)| i.block.as_ref().map(|b| (*s, b.digest)))
            .collect();
        for (seq, digest) in &candidates {
            while !self.settle_deferred(*seq, digest, ctx) {}
        }
        let prepared: Vec<(u64, Hash)> = candidates
            .into_iter()
            .filter(|(s, d)| {
                self.insts
                    .get(s)
                    .is_some_and(|i| i.votes_for(VotePhase::Prepare, d) >= self.cfg.quorum())
            })
            .collect();
        self.charge(ctx, NATIVE_SIGN);
        let msg = ViewChangeMsg {
            new_view: target,
            last_stable: self.low_mark,
            prepared,
            replica: self.me,
        };
        ctx.multicast(self.others(), PbftMsg::ViewChange(msg.clone()));
        self.record_view_change(msg, ctx);
        ctx.stats().inc("consensus.vc_initiated", 1);
    }

    fn record_view_change(&mut self, vc: ViewChangeMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        if vc.new_view <= self.view {
            return;
        }
        let target = vc.new_view;
        let now = ctx.now();
        let horizon = self.cfg.vc_timeout.saturating_mul(4);
        let votes_map = self.vc.votes.entry(target).or_default();
        votes_map.insert(vc.replica, (now, vc));
        votes_map.retain(|_, (at, _)| now.since(*at) <= horizon);
        let votes = votes_map.len();
        let quorum = self.cfg.quorum();
        let f = self.cfg.f();

        // Liveness rule: join a view change supported by f+1 others.
        if votes > f && self.vc.highest_sent < target && self.leader_of(target) != self.me {
            self.start_view_change(target, ctx);
            return;
        }

        if votes >= quorum && self.leader_of(target) == self.me && self.byz.is_none() {
            self.install_new_view(target, ctx);
        }
    }

    pub(super) fn on_view_change(&mut self, vc: ViewChangeMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, NATIVE_VERIFY);
        self.record_view_change(vc, ctx);
    }

    fn install_new_view(&mut self, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        // Gather re-proposals: any prepared sequence reported by the quorum
        // for which we hold the block.
        let mut repro: Vec<Arc<PbftBlock>> = Vec::new();
        let mut max_seq = self.exec_seq;
        if let Some(votes) = self.vc.votes.get(&view) {
            let mut wanted: HashMap<u64, Hash> = HashMap::new();
            for (_, vc) in votes.values() {
                for (seq, digest) in &vc.prepared {
                    wanted.insert(*seq, *digest);
                }
            }
            for (seq, digest) in wanted {
                let held = self.insts.get(&seq).and_then(|i| i.block.as_ref());
                if let Some(block) = held.filter(|b| seq > self.exec_seq && b.digest == digest) {
                    let reqs = block.reqs.as_ref().clone();
                    repro.push(Arc::new(PbftBlock::new(view, seq, self.me, reqs)));
                    max_seq = max_seq.max(seq);
                }
            }
        }
        self.enter_view(view, ctx);
        self.next_seq = max_seq + 1;
        // Re-proposals count as a flush: restart the batch-timeout clock
        // so the new leader does not immediately emit an undersized block.
        self.batcher.note_flush(ctx.now());
        ctx.stats().inc_scoped(
            stat::VIEW_CHANGES,
            Scope::committee(self.cfg.committee_id),
            1,
        );
        ctx.trace(view, Phase::ViewChange);
        self.charge(ctx, NATIVE_SIGN);
        ctx.multicast(
            self.others(),
            PbftMsg::NewView {
                view,
                reproposals: repro.clone(),
            },
        );
        // Gossip round: pull the peers' ingest-pool contents. Requests
        // stranded at the deposed (possibly Byzantine) leader survive in
        // the ingest replicas' pools; the pull gets them re-proposed.
        ctx.multicast(self.others(), PbftMsg::PoolPull { view });
        for block in repro {
            self.insts.remove(&block.seq);
            self.accept_block(block, MsgCert::Simulated, ctx);
        }
        self.try_propose(ctx);
    }

    pub(super) fn on_new_view(
        &mut self,
        view: u64,
        reproposals: Vec<Arc<PbftBlock>>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        if view < self.view {
            return;
        }
        self.charge(ctx, NATIVE_VERIFY);
        if self.leader_of(view) == self.me {
            return; // we install through quorum collection, not NewView
        }
        self.enter_view(view, ctx);
        for block in reproposals {
            if block.seq > self.exec_seq {
                self.insts.remove(&block.seq);
                self.accept_block(block, MsgCert::Simulated, ctx);
            }
        }
    }

    pub(super) fn enter_view(&mut self, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.view = view;
        self.vc.votes.retain(|v, _| *v > view);
        self.vc.highest_sent = self.vc.highest_sent.max(view);
        // Unexecuted instances from older views are abandoned; their
        // requests survive in pools and will be re-proposed.
        self.insts
            .retain(|_, i| i.executed || i.view >= view || i.block.is_none());
        // Optimization-2 mode: re-relay pooled requests to the new leader so
        // requests relayed to a dead leader are not lost.
        if self.cfg.variant.relay_to_leader() && !self.is_leader() {
            let leader = self.group[self.leader_of(view)];
            let mut regossiped = 0u64;
            for req in self.pool.iter_fifo().take(2 * self.cfg.batch_size) {
                ctx.send(leader, PbftMsg::Relay(req.clone()));
                regossiped += 1;
            }
            ctx.stats()
                .inc(ahl_mempool::stat::VIEWCHANGE_REGOSSIP, regossiped);
        }
    }

    /// The new leader pulls pool digests after its view change: answer by
    /// re-relaying every pooled, unexecuted request. Works in both relay
    /// and gossip modes — either way the new leader's pool is the one
    /// proposals are cut from, and transactions stranded at the deposed
    /// leader exist only in the ingest replicas' pools.
    pub(super) fn on_pool_pull(&mut self, from_idx: usize, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, SimDuration::from_micros(10));
        if view != self.view || from_idx != self.leader_of(self.view) || from_idx == self.me {
            return;
        }
        let leader = self.group[from_idx];
        let mut regossiped = 0u64;
        for req in self.pool.iter_fifo().take(4 * self.cfg.batch_size) {
            if self.executed_reqs.contains(req.id) {
                continue;
            }
            ctx.send(leader, PbftMsg::Relay(req.clone()));
            regossiped += 1;
        }
        ctx.stats()
            .inc(ahl_mempool::stat::VIEWCHANGE_REGOSSIP, regossiped);
    }
}
