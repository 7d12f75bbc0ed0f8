//! Attack behaviour: everything a Byzantine replica does differently,
//! under the configured [`Attack`] (see `crate::adversary`).
//!
//! [`Byzantine`] owns the attack state: the stale votes a replaying
//! replica resends and the colluding equivocator's double-signing
//! bookkeeping. Only a Byzantine replica carries one, and a crash keeps
//! it.

use std::sync::Arc;

use ahl_crypto::Hash;
use ahl_ledger::{Key, Value};
use ahl_simkit::{Ctx, NodeId};

use super::{vote_msg, Replica};
use crate::adversary::{equivocation_half, Attack, EquivocationTracker};
use crate::common::{CryptoMode, Request, VotePhase, NATIVE_SIGN};
use crate::pbft::cert::QuorumCert;
use crate::pbft::msg::{MsgCert, PbftBlock, PbftMsg, Vote};

/// The attack seam's state.
pub(super) struct Byzantine {
    /// Stale-replay attack state: the previous (prepare, commit) votes,
    /// replayed in place of current ones.
    stale_votes: [Option<Vote>; 2],
    /// Equivocation-collusion state (shared double-signing bookkeeping).
    equiv: EquivocationTracker,
}

impl Byzantine {
    pub(super) fn new() -> Self {
        Byzantine {
            stale_votes: [None, None],
            equiv: EquivocationTracker::new(),
        }
    }
}

impl Replica {
    /// The attack this replica runs, if it is Byzantine.
    pub(super) fn attack(&self) -> Option<Attack> {
        self.byz.as_ref().map(|_| self.cfg.attack)
    }

    /// A Byzantine leader's proposal of `batch` at `(view, seq)`.
    pub(super) fn byzantine_propose(
        &mut self,
        attack: Attack,
        batch: Vec<Request>,
        view: u64,
        seq: u64,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        match attack {
            Attack::PaperFlood if !self.cfg.variant.attested() => {
                // §7.2 equivocating leader: conflicting *sequence
                // numbers* to different halves.
                let block_a = Arc::new(PbftBlock::new(view, seq, self.me, batch.clone()));
                let mut rev = batch;
                rev.reverse();
                let block_b = Arc::new(PbftBlock::new(view, seq + 1_000_000, self.me, rev));
                self.charge(ctx, NATIVE_SIGN);
                for (i, peer) in self.others().into_iter().enumerate() {
                    let block = if i % 2 == 0 {
                        block_a.clone()
                    } else {
                        block_b.clone()
                    };
                    ctx.send(
                        peer,
                        PbftMsg::PrePrepare {
                            block,
                            cert: MsgCert::Simulated,
                        },
                    );
                }
            }
            Attack::Equivocate => self.equivocate_propose(batch, view, seq, ctx),
            Attack::PaperFlood => {
                // Attested Byzantine leader cannot equivocate; the worst it
                // can do is withhold the proposal from half the replicas.
                let block = Arc::new(PbftBlock::new(view, seq, self.me, batch));
                self.send_proposal(block, self.others().into_iter().step_by(2).collect(), ctx);
            }
            // The remaining attacks strike at votes/checkpoints; a
            // Byzantine leader proposes honestly under them.
            _ => {
                let block = Arc::new(PbftBlock::new(view, seq, self.me, batch));
                self.send_proposal(block, self.others(), ctx);
            }
        }
    }

    /// A Byzantine replica's message authentication: it deliberately
    /// avoids its enclave (the attested log would refuse to double-sign),
    /// so it signs natively in real-crypto mode — which honest replicas
    /// in attested committees reject, exactly the paper's point.
    fn byz_cert(&self, digest: &Hash) -> MsgCert {
        if self.cfg.crypto == CryptoMode::Real {
            MsgCert::Sig(self.key.sign(digest))
        } else {
            MsgCert::Simulated
        }
    }

    /// Double-sign equivocation (leader side): two conflicting blocks for
    /// the *same* (view, seq), the lower digest to committee half 0, the
    /// higher to half 1, and both to fellow Byzantine colluders. The
    /// leader also emits per-half commit votes so each half can close its
    /// own fork — which only succeeds when the colluding votes push a
    /// half past quorum, i.e. when f exceeds the protocol's bound.
    fn equivocate_propose(
        &mut self,
        batch: Vec<Request>,
        view: u64,
        seq: u64,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let alt: Vec<Request> = batch[1..].to_vec();
        let x = Arc::new(PbftBlock::new(view, seq, self.me, batch));
        let y = Arc::new(PbftBlock::new(view, seq, self.me, alt));
        let (lo, hi) = if x.digest.0 <= y.digest.0 {
            (x, y)
        } else {
            (y, x)
        };
        self.charge(ctx, NATIVE_SIGN);
        for g in 0..self.cfg.n {
            if g == self.me {
                continue;
            }
            let peer = self.group[g];
            let blocks: &[&Arc<PbftBlock>] = if self.cfg.is_byzantine(g) {
                &[&lo, &hi] // colluders see both stories
            } else if equivocation_half(g) == 0 {
                &[&lo]
            } else {
                &[&hi]
            };
            for block in blocks {
                let cert = self.byz_cert(&block.digest);
                ctx.send(
                    peer,
                    PbftMsg::PrePrepare {
                        block: (*block).clone(),
                        cert,
                    },
                );
                let vote = Vote {
                    view,
                    seq,
                    digest: block.digest,
                    replica: self.me,
                    cert: self.byz_cert(&block.digest),
                };
                ctx.send(peer, PbftMsg::Commit(vote));
            }
        }
    }

    /// Double-sign equivocation (colluding voter side): echo prepare and
    /// commit votes for *every* proposal seen at a slot, each to the
    /// committee half its digest rank assigns — the two-faced voting that
    /// makes both forks complete once the Byzantine count exceeds the
    /// quorum-intersection bound.
    pub(super) fn equivocate_echo(
        &mut self,
        view: u64,
        seq: u64,
        digest: Hash,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some((half, split)) = self
            .byz
            .as_mut()
            .and_then(|b| b.equiv.observe(seq as u128, digest))
        else {
            return;
        };
        self.charge(ctx, NATIVE_SIGN);
        let me = self.me;
        let targets: Vec<NodeId> = (0..self.cfg.n)
            .filter(|g| *g != me && (!split || equivocation_half(*g) == half))
            .map(|g| self.group[g])
            .collect();
        let prepare = Vote {
            view,
            seq,
            digest,
            replica: me,
            cert: self.byz_cert(&digest),
        };
        let commit = Vote {
            view,
            seq,
            digest,
            replica: me,
            cert: self.byz_cert(&digest),
        };
        ctx.multicast(targets.clone(), PbftMsg::Prepare(prepare));
        ctx.multicast(targets, PbftMsg::Commit(commit));
    }

    /// Byzantine vote emission, dispatched by the configured [`Attack`].
    /// The default is the paper's attack: "Byzantine nodes send
    /// conflicting messages (with different sequence numbers) to different
    /// nodes" — equivocate (HL) or withhold (attested), plus a flood of
    /// junk votes at shifted sequence numbers that loads honest queues.
    pub(super) fn byzantine_vote(
        &mut self,
        attack: Attack,
        vote: Vote,
        phase: VotePhase,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        match attack {
            Attack::PaperFlood => self.paper_flood_vote(vote, phase, ctx),
            // Equivocation votes are emitted by the proposal-echo path;
            // withholders say nothing at all.
            Attack::Equivocate | Attack::WithholdVotes => {}
            Attack::StaleReplay => {
                let stale = self
                    .byz
                    .as_mut()
                    .and_then(|b| b.stale_votes[phase as usize].replace(vote));
                if let Some(stale) = stale {
                    ctx.stats().inc("adv.stale_replays", 1);
                    // Charge the send like the lockstep engine does, so
                    // attacker CPU accounting is comparable across cells.
                    self.charge(ctx, NATIVE_SIGN);
                    ctx.multicast(self.others(), vote_msg(phase, stale));
                }
            }
            // The checkpoint and tail attacks leave normal-case votes honest.
            Attack::BogusCheckpoint | Attack::ForgeTail => {
                ctx.multicast(self.others(), vote_msg(phase, vote))
            }
        }
    }

    /// The §7.2 composite vote attack (see [`Replica::byzantine_vote`]).
    fn paper_flood_vote(&mut self, vote: Vote, phase: VotePhase, ctx: &mut Ctx<'_, PbftMsg>) {
        let others = self.others();
        for (i, peer) in others.iter().copied().enumerate() {
            if self.cfg.variant.attested() {
                // Cannot equivocate: withhold from odd half.
                if i % 2 == 0 {
                    ctx.send(peer, vote_msg(phase, vote.clone()));
                }
            } else {
                // Conflicting digests to different peers.
                let mut v = vote.clone();
                if i % 2 == 1 {
                    v.digest.0[0] ^= 0xff;
                }
                ctx.send(peer, vote_msg(phase, v));
            }
        }
        // Sequence-number flooding inside the watermark window: honest
        // nodes must fully verify each conflicting message before they can
        // discard it. (The attested log does not help here: these slots are
        // not yet bound by the attacker's enclave, so it happily signs.)
        for j in 1..=3u64 {
            let mut junk = vote.clone();
            junk.seq = vote.seq.wrapping_add(j);
            junk.digest.0[1] ^= j as u8;
            ctx.multicast(others.clone(), vote_msg(phase, junk));
        }
        // Plus a far-out-of-window burst (crowds queues; cheap to reject).
        let mut far = vote.clone();
        far.seq = vote.seq.wrapping_add(1_000_000);
        ctx.multicast(others, vote_msg(phase, far));
    }
}

/// A Byzantine server corrupts the chunk it serves; the requester's
/// per-chunk proof check must catch it and fetch the chunk from an honest
/// peer instead.
pub(super) fn corrupt_chunk(entries: &mut Vec<(Key, Value)>) {
    match entries.first_mut() {
        Some((_, Value::Int(i))) => *i ^= 1,
        Some((_, Value::Opaque { tag, .. })) => *tag ^= 1,
        Some((_, v)) => *v = Value::Bool(false),
        None => entries.push(("forged".into(), Value::Int(666))),
    }
}

/// [`Attack::ForgeTail`]: rewrite the first request of a served tail to
/// set a key no client writes. The block keeps its digest field and its
/// certificate, so only a receiver that recomputes the digest can tell.
pub(super) fn forge_tail(blocks: &mut [(Arc<PbftBlock>, QuorumCert)]) {
    let Some((first, _)) = blocks.first_mut() else {
        return;
    };
    let mut reqs = first.reqs.as_ref().clone();
    let Some(req) = reqs.first_mut() else { return };
    let forged = (
        "forged".to_string(),
        ahl_ledger::Mutation::Set(Value::Int(666)),
    );
    let op = ahl_ledger::StateOp {
        conditions: vec![],
        mutations: vec![forged],
    };
    req.op = ahl_ledger::Op::Direct {
        txid: ahl_ledger::TxId(req.id),
        op,
    };
    *first = Arc::new(PbftBlock {
        reqs: Arc::new(reqs),
        ..first.as_ref().clone()
    });
}
