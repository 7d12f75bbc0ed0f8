//! The lockstep round engine: one state machine for the two Figure 2
//! baselines the paper treats as a family (Appendix C.2) — Quorum IBFT
//! ([`crate::ibft`]) and Tendermint ([`crate::tendermint`]).
//!
//! **Lockstep** means the proposer for height h+1 is selected round-robin
//! per (height + round) and only proposes after h is decided — plus a
//! pause between blocks — which is the property the paper identifies as
//! these protocols' scalability limiter next to pipelined PBFT. A round is
//! a proposal and two vote phases ([`VotePhase`]): a 2f+1 quorum of
//! `Prepare` votes locks the block, a 2f+1 quorum of `Commit` votes at
//! *any* round of the height decides it, and a decided block goes through
//! the shared committed-block shell ([`BlockExecutor`]).
//!
//! A protocol is one [`Protocol`] value, and the engine matches on it at
//! exactly the places the two differ:
//!
//! 1. *a peer's proposal that conflicts with my lock* — IBFT refuses it,
//!    Tendermint accepts it and prevotes its lock instead
//!    (`refuses`, `send_vote`);
//! 2. *a round timeout* — IBFT multicasts a `RoundChange` vote and moves
//!    only on a 2f+1 quorum of them, Tendermint moves on its own
//!    (`on_timer`, the `RoundChange` arm of `on_message`);
//! 3. the names that reach outputs and 4. the Figure 2 parameters — stated
//!    as data, one `Profile` constant in each protocol's own file.
//!
//! Omissions relative to the full protocols (documented for reviewers):
//! nil votes are collapsed into round timeouts, evidence/slashing and
//! block catch-up are absent — none affects the throughput shape in the
//! fault-free Figure 2 setting.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ahl_crypto::{sha256_parts, Hash};
use ahl_ledger::StateStore;
use ahl_mempool::{Mempool, MempoolConfig};
use ahl_simkit::{Actor, Ctx, MsgClass, NodeId, Phase, Scope, SimDuration};

use crate::adversary::{equivocation_half, Attack, EquivocationTracker, SafetyChecker};
use crate::clients::ClientProtocol;
use crate::common::{
    stat, BlockExecutor, ExecutedCache, Request, Stores, VotePhase, NATIVE_SIGN, NATIVE_VERIFY,
};

/// RPC ingest cost per client transaction.
const INGEST_COST: SimDuration = SimDuration::from_millis(1);

/// Which lockstep protocol a committee runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Istanbul BFT as integrated in Quorum ([`crate::ibft`]).
    Ibft,
    /// Tendermint ([`crate::tendermint`]).
    Tendermint,
}

/// What a protocol's own file states as data: the names that reach
/// outputs, and the two Figure 2 parameters that differ.
pub(crate) struct Profile {
    /// Domain tag of the block digest.
    pub digest_tag: &'static [u8],
    /// Profiler span around a decided block's execution.
    pub exec_span: &'static str,
    /// Counter: rounds above 0 entered.
    pub round_changes: &'static str,
    /// Max transactions per block (IBFT: the gas-limit analogue).
    pub max_block_txns: usize,
    /// Execution cost per state access: EVM execution plus Merkle-tree
    /// updates for Quorum (the paper's other reason it trails Tendermint),
    /// tm-bench's in-memory KV app for Tendermint.
    pub exec_cost_per_op: SimDuration,
}

impl Protocol {
    fn profile(self) -> &'static Profile {
        match self {
            Protocol::Ibft => &crate::ibft::PROFILE,
            Protocol::Tendermint => &crate::tendermint::PROFILE,
        }
    }
}

/// A proposed block: the ordered requests.
type Block = Arc<Vec<Request>>;
/// A slot of the round machine: (height, round).
type RoundKey = (u64, u32);

/// Lockstep wire messages.
#[derive(Clone, Debug)]
pub enum LockstepMsg {
    /// Client → node: transaction submission (RPC).
    Request(Request),
    /// Node → all: transaction gossip.
    GossipTx(Request),
    /// Proposer → all: block proposal (IBFT: pre-prepare).
    Proposal {
        /// Height ("sequence" in IBFT terms).
        height: u64,
        /// Round within the height.
        round: u32,
        /// Batched transactions.
        block: Block,
        /// Block digest.
        digest: Hash,
        /// Proposer index.
        proposer: usize,
    },
    /// A vote for a digest in one of the two phases.
    Vote {
        /// Prepare / prevote, or commit / precommit.
        phase: VotePhase,
        /// Height.
        height: u64,
        /// Round.
        round: u32,
        /// Voted digest.
        digest: Hash,
        /// Voter index.
        replica: usize,
    },
    /// Round-change vote (IBFT only).
    RoundChange {
        /// Height.
        height: u64,
        /// Proposed round.
        round: u32,
        /// Voter index.
        replica: usize,
    },
    /// Execution acknowledgement to the client.
    Reply {
        /// Request id.
        req_id: u64,
        /// Commit status.
        committed: bool,
    },
}

impl LockstepMsg {
    /// Queue class (the consensus channel is modelled as higher-integrity,
    /// like HL's).
    pub fn class(&self) -> MsgClass {
        match self {
            LockstepMsg::Request(_) | LockstepMsg::GossipTx(_) | LockstepMsg::Reply { .. } => {
                MsgClass::REQUEST
            }
            _ => MsgClass::CONSENSUS,
        }
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        match self {
            LockstepMsg::Request(r) | LockstepMsg::GossipTx(r) => 250 + r.op.wire_size(),
            LockstepMsg::Proposal { block, .. } => {
                120 + block.iter().map(|r| 64 + r.op.wire_size()).sum::<usize>()
            }
            LockstepMsg::Vote { .. } | LockstepMsg::RoundChange { .. } => 120,
            LockstepMsg::Reply { .. } => 100,
        }
    }

    /// The group index a consensus message claims to speak for.
    fn signer(&self) -> Option<usize> {
        match self {
            LockstepMsg::Proposal { proposer: who, .. }
            | LockstepMsg::Vote { replica: who, .. }
            | LockstepMsg::RoundChange { replica: who, .. } => Some(*who),
            _ => None,
        }
    }
}

impl ClientProtocol for LockstepMsg {
    fn make_request(req: Request) -> Self {
        LockstepMsg::Request(req)
    }
    fn reply_id(&self) -> Option<u64> {
        match self {
            LockstepMsg::Reply { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }
}

/// Lockstep validator configuration. Build one with
/// [`crate::ibft::IbftConfig::new`] or [`crate::tendermint::TmConfig::new`].
#[derive(Clone, Debug)]
pub struct LockstepConfig {
    /// The protocol this committee runs.
    pub protocol: Protocol,
    /// Committee size (N = 3f + 1).
    pub n: usize,
    /// Pause after a decision before the next proposal: Quorum's block
    /// period, Tendermint's `timeout_commit` (both default 1 s) — the main
    /// throughput cap at small N.
    pub block_period: SimDuration,
    /// Round timeout before the proposer is replaced.
    pub round_timeout: SimDuration,
    /// Per-node transaction pool (capacity).
    pub mempool: MempoolConfig,
    /// Number of Byzantine validators (the highest indices).
    pub byzantine: usize,
    /// What the Byzantine validators do (see [`Attack`]; equivocation
    /// fires whenever a Byzantine validator's proposer turn comes up).
    pub attack: Attack,
    /// Global safety oracle honest validators report commits into.
    pub safety: Option<SafetyChecker>,
    /// This committee's id in the checker's records.
    pub committee_id: usize,
    /// Worker threads for block execution (`1` = the sequential loop;
    /// above that the batch goes through the deterministic conflict-aware
    /// engine with byte-identical results).
    pub exec_workers: usize,
}

impl LockstepConfig {
    /// Defaults matching the Figure 2 comparison for `protocol`.
    pub(crate) fn new(protocol: Protocol, n: usize) -> Self {
        LockstepConfig {
            protocol,
            n,
            block_period: SimDuration::from_secs(1),
            round_timeout: SimDuration::from_secs(3),
            mempool: MempoolConfig::default(),
            byzantine: 0,
            attack: Attack::default(),
            safety: None,
            committee_id: 0,
            exec_workers: 1,
        }
    }

    /// Byzantine quorum (2f + 1).
    pub fn quorum(&self) -> usize {
        2 * ((self.n.saturating_sub(1)) / 3) + 1
    }

    /// Whether validator `i` is Byzantine (highest indices).
    pub fn is_byzantine(&self, i: usize) -> bool {
        self.byzantine > 0 && i >= self.n - self.byzantine
    }
}

const TIMER_ROUND: u64 = 1;
const TIMER_PERIOD: u64 = 2;

/// A lockstep validator.
pub struct LockstepNode {
    cfg: LockstepConfig,
    group: Vec<NodeId>,
    me: usize,

    height: u64,
    round: u32,
    proposal: Option<(Hash, Block)>,
    locked: Option<(Hash, Block)>,
    /// Proposals for rounds not yet entered (validators run at slightly
    /// different heights), and earlier rounds' proposals of this height
    /// (a commit quorum for one may still complete).
    proposal_buf: HashMap<RoundKey, (Hash, Block)>,
    /// Votes per phase: slot → digest → voters.
    votes: [HashMap<RoundKey, HashMap<Hash, HashSet<usize>>>; 2],
    /// Slots this validator has voted in, per phase.
    sent: [HashSet<RoundKey>; 2],
    /// IBFT round-change votes: (height, proposed round) → voters.
    round_changes: HashMap<RoundKey, HashSet<usize>>,
    /// Timer generation: a timer armed under an older epoch is stale.
    epoch: u64,
    /// Between a decision and the block-period expiry: no proposing.
    waiting_period: bool,

    pool: Mempool<Request>,
    executed: ExecutedCache,
    state: StateStore,
    exec: BlockExecutor,

    byzantine: bool,
    /// Stale-replay attack state: the previous vote of each phase.
    stale_votes: [Option<LockstepMsg>; 2],
    /// Equivocation-collusion state (shared double-signing bookkeeping).
    byz_equiv: EquivocationTracker,
}

impl LockstepNode {
    /// Create a validator with group index `me`.
    pub fn new(cfg: LockstepConfig, group: Vec<NodeId>, me: usize, reporter: bool) -> Self {
        let byzantine = cfg.is_byzantine(me);
        LockstepNode {
            pool: Mempool::new(cfg.mempool.clone(), 0),
            exec: BlockExecutor {
                committee_id: cfg.committee_id,
                me,
                reporter,
                exec_workers: cfg.exec_workers,
                checker: if byzantine { None } else { cfg.safety.clone() },
            },
            byzantine,
            stale_votes: [None, None],
            byz_equiv: EquivocationTracker::new(),
            cfg,
            group,
            me,
            height: 1,
            round: 0,
            proposal: None,
            locked: None,
            proposal_buf: HashMap::new(),
            votes: Default::default(),
            sent: Default::default(),
            round_changes: HashMap::new(),
            epoch: 0,
            waiting_period: false,
            executed: ExecutedCache::new(),
            state: StateStore::new(),
        }
    }

    /// Current height (post-run inspection).
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Both protocols rotate the proposer every block and every round.
    fn proposer(&self, height: u64, round: u32) -> usize {
        ((height + round as u64) % self.cfg.n as u64) as usize
    }

    fn my_turn(&self) -> bool {
        self.proposer(self.height, self.round) == self.me && self.proposal.is_none()
    }

    fn others(&self) -> Vec<NodeId> {
        let mine = self.group[self.me];
        self.group.iter().copied().filter(|&g| g != mine).collect()
    }

    fn charge(&self, ctx: &mut Ctx<'_, LockstepMsg>, d: SimDuration) {
        ctx.consume_cpu(d);
        ctx.stats().inc(stat::CONSENSUS_CPU_NS, d.as_nanos());
    }

    fn digest_of(&self, block: &[Request]) -> Hash {
        let (height, round) = (self.height.to_be_bytes(), self.round.to_be_bytes());
        let ids: Vec<[u8; 8]> = block.iter().map(|r| r.id.to_be_bytes()).collect();
        let mut parts: Vec<&[u8]> = vec![self.cfg.protocol.profile().digest_tag, &height, &round];
        parts.extend(ids.iter().map(|id| id.as_slice()));
        sha256_parts(&parts)
    }

    fn vote(&self, phase: VotePhase, digest: Hash) -> LockstepMsg {
        LockstepMsg::Vote {
            phase,
            height: self.height,
            round: self.round,
            digest,
            replica: self.me,
        }
    }

    /// Rule 1: what a validator does with a peer's proposal that conflicts
    /// with its lock. IBFT refuses it; Tendermint accepts it and prevotes
    /// its lock instead (see `send_vote`).
    fn refuses(&self, digest: Hash) -> bool {
        self.cfg.protocol == Protocol::Ibft
            && matches!(&self.locked, Some((locked, _)) if *locked != digest)
    }

    fn enter_round(&mut self, ctx: &mut Ctx<'_, LockstepMsg>) {
        if self.round > 0 {
            let scope = Scope::replica(self.cfg.committee_id, self.me);
            ctx.stats()
                .inc_scoped(self.cfg.protocol.profile().round_changes, scope, 1);
        }
        // Keep the outgoing round's proposal: a commit quorum for it may
        // still complete after the round change (the decide rule is
        // round-agnostic). Callers have already advanced `self.round`, so
        // it is filed under the *new* slot — where, unless that round's
        // own proposal was buffered first, the lookup below re-adopts it
        // and this validator votes for it again. Both protocols have
        // always done this, and the pinned cells depend on it.
        if let Some(prev) = self.proposal.take() {
            self.proposal_buf
                .entry((self.height, self.round))
                .or_insert(prev);
        }
        self.waiting_period = false;
        self.epoch += 1;
        ctx.set_timer(self.cfg.round_timeout, TIMER_ROUND | (self.epoch << 8));
        // Adopt a buffered proposal for this round, if one arrived early.
        if let Some((digest, block)) = self.proposal_buf.remove(&(self.height, self.round)) {
            if !self.refuses(digest) {
                self.proposal = Some((digest, block));
                self.send_vote(VotePhase::Prepare, digest, ctx);
            }
        }
        if self.my_turn() {
            self.propose(ctx);
        }
        self.recheck_votes(ctx);
    }

    /// Re-evaluate buffered votes for the current slot: quorums may
    /// already exist from messages that arrived while we lagged.
    fn recheck_votes(&mut self, ctx: &mut Ctx<'_, LockstepMsg>) {
        let key = (self.height, self.round);
        if let Some(by_digest) = self.votes[VotePhase::Prepare as usize].get(&key) {
            let ready: Vec<Hash> = by_digest
                .iter()
                .filter(|(_, v)| v.len() >= self.cfg.quorum())
                .map(|(d, _)| *d)
                .collect();
            for d in ready {
                self.record_vote(VotePhase::Prepare, key, d, self.me, ctx);
            }
        }
        self.try_decide_any_round(ctx);
    }

    /// The block behind `digest`, if this validator holds it as its
    /// current proposal or its lock.
    fn held_block(&self, digest: Hash) -> Option<Block> {
        [&self.proposal, &self.locked]
            .into_iter()
            .flatten()
            .find(|(d, _)| *d == digest)
            .map(|(_, b)| b.clone())
    }

    /// The decide rule is round-agnostic: 2f+1 commit votes for a block
    /// at *any* round of the current height decide it (a validator that
    /// raced past the deciding round must still decide).
    fn try_decide_any_round(&mut self, ctx: &mut Ctx<'_, LockstepMsg>) {
        let h = self.height;
        let quorum = self.cfg.quorum();
        let decided = self.votes[VotePhase::Commit as usize]
            .iter()
            .filter(|((hh, _), _)| *hh == h)
            .flat_map(|(_, by_digest)| by_digest.iter())
            .find(|(_, votes)| votes.len() >= quorum)
            .map(|(d, _)| *d);
        let Some(digest) = decided else { return };
        let block = self.held_block(digest).or_else(|| {
            // Any stashed proposal at this height with the right digest.
            self.proposal_buf
                .iter()
                .find(|((hh, _), (d, _))| *hh == h && *d == digest)
                .map(|(_, (_, b))| b.clone())
        });
        if let Some(block) = block {
            self.decide(block, ctx);
        }
    }

    /// Double-sign equivocation (proposer side): two conflicting blocks
    /// for the same (height, round) — the original and the original minus
    /// its first request — the lower digest to committee half 0, the
    /// higher to half 1, both to Byzantine colleagues, plus the proposer's
    /// own per-half votes. With the colluders' echoes this forks the chain
    /// exactly when f > ⌊(n−1)/3⌋.
    fn equivocate_propose(&mut self, block: Block, ctx: &mut Ctx<'_, LockstepMsg>) {
        self.charge(ctx, NATIVE_SIGN);
        let alt: Block = Arc::new(block[1..].to_vec());
        let (da, db) = (self.digest_of(&block), self.digest_of(&alt));
        let (lo, hi) = if da.0 <= db.0 {
            ((da, block), (db, alt))
        } else {
            ((db, alt), (da, block))
        };
        for g in (0..self.cfg.n).filter(|&g| g != self.me) {
            let stories: &[&(Hash, Block)] = if self.cfg.is_byzantine(g) {
                &[&lo, &hi] // colluders see both stories
            } else if equivocation_half(g) == 0 {
                &[&lo]
            } else {
                &[&hi]
            };
            for (digest, blk) in stories {
                let peer = self.group[g];
                ctx.send(
                    peer,
                    LockstepMsg::Proposal {
                        height: self.height,
                        round: self.round,
                        block: blk.clone(),
                        digest: *digest,
                        proposer: self.me,
                    },
                );
                ctx.send(peer, self.vote(VotePhase::Prepare, *digest));
                ctx.send(peer, self.vote(VotePhase::Commit, *digest));
            }
        }
    }

    /// Double-sign equivocation (colluding voter side): echo both votes
    /// for every proposal seen at a slot. While only one proposal is known
    /// there the votes go to everyone (covert mode); once a conflict
    /// appears, each digest's votes go to the half its rank assigns.
    fn equivocate_echo(
        &mut self,
        height: u64,
        round: u32,
        digest: Hash,
        ctx: &mut Ctx<'_, LockstepMsg>,
    ) {
        let slot = ((height as u128) << 32) | round as u128;
        let Some((half, split)) = self.byz_equiv.observe(slot, digest) else {
            return; // already echoed
        };
        self.charge(ctx, NATIVE_SIGN);
        let me = self.me;
        let targets: Vec<NodeId> = (0..self.cfg.n)
            .filter(|&g| g != me && (!split || equivocation_half(g) == half))
            .map(|g| self.group[g])
            .collect();
        for phase in [VotePhase::Prepare, VotePhase::Commit] {
            ctx.multicast(
                targets.clone(),
                LockstepMsg::Vote {
                    phase,
                    height,
                    round,
                    digest,
                    replica: me,
                },
            );
        }
    }

    /// Byzantine vote emission, dispatched by the configured [`Attack`].
    fn byzantine_vote(&mut self, phase: VotePhase, digest: Hash, ctx: &mut Ctx<'_, LockstepMsg>) {
        match self.cfg.attack {
            // Equivocation votes ride the proposal-echo path instead;
            // withholders say nothing at all.
            Attack::Equivocate | Attack::WithholdVotes | Attack::ForgeTail => {}
            // Park the current vote, replay the previous slot's.
            Attack::StaleReplay => {
                let current = self.vote(phase, digest);
                if let Some(stale) = self.stale_votes[phase as usize].replace(current) {
                    ctx.stats().inc("adv.stale_replays", 1);
                    self.charge(ctx, NATIVE_SIGN);
                    ctx.multicast(self.others(), stale);
                }
            }
            // Corrupt-digest votes: conflicting per committee half
            // (`PaperFlood`) or uniformly bogus (`BogusCheckpoint`).
            attack @ (Attack::PaperFlood | Attack::BogusCheckpoint) => {
                let mut bad = digest;
                bad.0[0] ^= 0xff;
                self.charge(ctx, NATIVE_SIGN);
                for g in (0..self.cfg.n).filter(|&g| g != self.me) {
                    let corrupt = attack == Attack::BogusCheckpoint || equivocation_half(g) == 1;
                    ctx.send(
                        self.group[g],
                        self.vote(phase, if corrupt { bad } else { digest }),
                    );
                }
            }
        }
    }

    fn propose(&mut self, ctx: &mut Ctx<'_, LockstepMsg>) {
        if self.waiting_period {
            return;
        }
        // A validator locked on a block must re-propose it.
        let block: Block = if let Some((_, b)) = &self.locked {
            b.clone()
        } else {
            let max_txs = self.cfg.protocol.profile().max_block_txns;
            Arc::new(self.pool.take_batch(max_txs, ctx.now(), ctx.stats()))
        };
        if block.is_empty() {
            // Empty blocks are skipped; a request arriving or the round
            // timer re-triggers.
            return;
        }
        if self.byzantine && self.cfg.attack == Attack::Equivocate {
            self.equivocate_propose(block, ctx);
            return;
        }
        for r in block.iter() {
            ctx.trace(r.id, Phase::Propose);
        }
        let digest = self.digest_of(&block);
        self.charge(ctx, NATIVE_SIGN);
        ctx.multicast(
            self.others(),
            LockstepMsg::Proposal {
                height: self.height,
                round: self.round,
                block: block.clone(),
                digest,
                proposer: self.me,
            },
        );
        self.proposal = Some((digest, block));
        self.send_vote(VotePhase::Prepare, digest, ctx);
    }

    fn send_vote(&mut self, phase: VotePhase, digest: Hash, ctx: &mut Ctx<'_, LockstepMsg>) {
        let key = (self.height, self.round);
        if !self.sent[phase as usize].insert(key) {
            return;
        }
        // Rule 1, Tendermint's half: a locked validator prevotes its lock.
        let digest = match (phase, self.cfg.protocol, &self.locked) {
            (VotePhase::Prepare, Protocol::Tendermint, Some((locked, _))) => *locked,
            _ => digest,
        };
        if self.byzantine {
            self.byzantine_vote(phase, digest, ctx);
            return;
        }
        self.charge(ctx, NATIVE_SIGN);
        ctx.multicast(self.others(), self.vote(phase, digest));
        self.record_vote(phase, key, digest, self.me, ctx);
    }

    fn record_vote(
        &mut self,
        phase: VotePhase,
        key: RoundKey,
        digest: Hash,
        who: usize,
        ctx: &mut Ctx<'_, LockstepMsg>,
    ) {
        let votes = self.votes[phase as usize]
            .entry(key)
            .or_default()
            .entry(digest)
            .or_default();
        votes.insert(who);
        if votes.len() < self.cfg.quorum() || key != (self.height, self.round) {
            return;
        }
        match phase {
            VotePhase::Prepare => {
                // Lock on the prepared block if we hold it.
                if let Some((_, b)) = self.proposal.as_ref().filter(|(d, _)| *d == digest) {
                    self.locked = Some((digest, b.clone()));
                }
                self.send_vote(VotePhase::Commit, digest, ctx);
            }
            VotePhase::Commit => {
                if let Some(block) = self.held_block(digest) {
                    self.decide(block, ctx);
                }
            }
        }
    }

    fn decide(&mut self, block: Block, ctx: &mut Ctx<'_, LockstepMsg>) {
        let _prof = ahl_telemetry::Profiler::span(self.cfg.protocol.profile().exec_span);
        let stores = Stores {
            state: &mut self.state,
            executed: &mut self.executed,
            pool: &mut self.pool,
        };
        let weight = self
            .exec
            .commit(self.height, &block, stores, ctx, |_, _, _| {});
        let exec = self
            .cfg
            .protocol
            .profile()
            .exec_cost_per_op
            .saturating_mul(weight as u64);
        ctx.consume_cpu(exec);
        ctx.stats().inc(stat::EXEC_CPU_NS, exec.as_nanos());
        // Lockstep: advance the height, then pause before the next round.
        self.height += 1;
        // Parallel-execution paranoia, mirroring the PBFT checkpoint-time
        // audit: at every decided height (the lockstep protocols have no
        // checkpoints, and decide about once a block period) re-derive
        // every cached hash of the authenticated index across the worker
        // pool and compare. Proven equivalent to sequential execution, so
        // a hit means engine corruption — count it loudly, don't mask it.
        if self.cfg.exec_workers > 1 && !self.state.rehash_audit(self.cfg.exec_workers) {
            ctx.stats().inc(stat::CKPT_AUDIT_FAILURES, 1);
        }
        self.round = 0;
        self.locked = None;
        self.proposal = None;
        let h = self.height;
        for phase in 0..2 {
            self.votes[phase].retain(|(hh, _), _| *hh >= h);
            self.sent[phase].retain(|(hh, _)| *hh >= h);
        }
        self.round_changes.retain(|(hh, _), _| *hh >= h);
        self.proposal_buf.retain(|(hh, _), _| *hh >= h);
        self.epoch += 1;
        self.waiting_period = true;
        ctx.set_timer(self.cfg.block_period, TIMER_PERIOD | (self.epoch << 8));
    }

    fn pool_tx(&mut self, req: Request, ctx: &mut Ctx<'_, LockstepMsg>) {
        if self.executed.contains(req.id) {
            return;
        }
        let now = ctx.now();
        let _ = self.pool.insert(req, now, ctx.stats());
    }

    /// Rule 2, IBFT's half: record `who`'s vote to move to `round`, and
    /// move there once 2f+1 validators want to. Returns whether it moved.
    fn record_round_change(
        &mut self,
        round: u32,
        who: usize,
        ctx: &mut Ctx<'_, LockstepMsg>,
    ) -> bool {
        let votes = self.round_changes.entry((self.height, round)).or_default();
        votes.insert(who);
        let moved = votes.len() >= self.cfg.quorum();
        if moved {
            self.round = round;
            self.enter_round(ctx);
        }
        moved
    }
}

impl Actor for LockstepNode {
    type Msg = LockstepMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LockstepMsg>) {
        self.enter_round(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: LockstepMsg, ctx: &mut Ctx<'_, LockstepMsg>) {
        // `NATIVE_VERIFY` models a signature check; this is its outcome: a
        // proposal, vote or round change speaks for exactly the validator
        // that sent it. A forged identity is dropped before it is charged.
        if msg
            .signer()
            .is_some_and(|who| self.group.get(who) != Some(&from))
        {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        match msg {
            LockstepMsg::Request(req) => {
                self.charge(ctx, INGEST_COST);
                // Client-facing ingest on the contacted replica only (the
                // gossip fan-out below doesn't re-stamp), so the liveness
                // oracle sees each request admitted exactly once.
                ctx.trace(req.id, Phase::Ingest);
                ctx.multicast(self.others(), LockstepMsg::GossipTx(req.clone()));
                let id = req.id;
                self.pool_tx(req, ctx);
                ctx.trace(id, Phase::Admit);
                // A proposer idling on an empty pool proposes as soon as
                // transactions show up.
                if self.my_turn() {
                    self.propose(ctx);
                }
            }
            LockstepMsg::GossipTx(req) => {
                self.charge(ctx, NATIVE_VERIFY);
                self.pool_tx(req, ctx);
                if self.my_turn() {
                    self.propose(ctx);
                }
            }
            LockstepMsg::Proposal {
                height,
                round,
                block,
                digest,
                proposer,
            } => {
                if height < self.height || proposer != self.proposer(height, round) {
                    return;
                }
                self.charge(ctx, NATIVE_VERIFY);
                // A colluding equivocator first emits its two-faced echo
                // votes, then keeps processing like everyone else — it
                // must track the committee's height (via the observed
                // quorums) or its own proposer turns would equivocate at
                // a stale height nobody accepts. Its honest-path votes
                // stay suppressed by `byzantine_vote`.
                if self.byzantine && self.cfg.attack == Attack::Equivocate {
                    self.equivocate_echo(height, round, digest, ctx);
                }
                if (height, round) != (self.height, self.round) {
                    // Buffer proposals we have not caught up to yet.
                    self.proposal_buf.insert((height, round), (digest, block));
                } else if self.refuses(digest) {
                    ctx.stats().inc("ibft.lock_refusals", 1);
                } else {
                    self.proposal = Some((digest, block));
                    self.send_vote(VotePhase::Prepare, digest, ctx);
                    self.recheck_votes(ctx);
                }
            }
            LockstepMsg::Vote {
                phase,
                height,
                round,
                digest,
                replica,
            } => {
                if height < self.height {
                    return;
                }
                self.charge(ctx, NATIVE_VERIFY);
                let key = (height, round);
                if key == (self.height, self.round) {
                    self.record_vote(phase, key, digest, replica, ctx);
                } else {
                    self.votes[phase as usize]
                        .entry(key)
                        .or_default()
                        .entry(digest)
                        .or_default()
                        .insert(replica);
                    if phase == VotePhase::Commit && height == self.height {
                        self.try_decide_any_round(ctx);
                    }
                }
            }
            LockstepMsg::RoundChange {
                height,
                round,
                replica,
            } => {
                if self.cfg.protocol != Protocol::Ibft
                    || height != self.height
                    || round <= self.round
                {
                    return;
                }
                self.charge(ctx, NATIVE_VERIFY);
                self.record_round_change(round, replica, ctx);
            }
            LockstepMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, LockstepMsg>) {
        if (kind >> 8) != self.epoch {
            return; // stale timer from an earlier round
        }
        match kind & 0xff {
            // Rule 2 — no decision this round.
            TIMER_ROUND => match self.cfg.protocol {
                // IBFT votes for a round change and waits for a quorum.
                Protocol::Ibft => {
                    let next = self.round + 1;
                    self.charge(ctx, NATIVE_SIGN);
                    ctx.multicast(
                        self.others(),
                        LockstepMsg::RoundChange {
                            height: self.height,
                            round: next,
                            replica: self.me,
                        },
                    );
                    if !self.record_round_change(next, self.me, ctx) {
                        // Re-arm while waiting for quorum.
                        self.epoch += 1;
                        ctx.set_timer(self.cfg.round_timeout, TIMER_ROUND | (self.epoch << 8));
                    }
                }
                // Tendermint rotates the proposer on its own.
                Protocol::Tendermint => {
                    self.round += 1;
                    self.enter_round(ctx);
                }
            },
            TIMER_PERIOD => self.enter_round(ctx),
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Build a lockstep committee simulation running `cfg.protocol` (clients
/// added by caller).
pub fn build_group(
    cfg: &LockstepConfig,
    network: Box<dyn ahl_simkit::Network>,
    uplink_bps: Option<f64>,
    seed: u64,
) -> (ahl_simkit::Sim<LockstepMsg>, Vec<NodeId>) {
    let mut sim_cfg = ahl_simkit::SimConfig::new(seed);
    sim_cfg.network = network;
    sim_cfg.classify = LockstepMsg::class;
    sim_cfg.size_of = LockstepMsg::wire_size;
    sim_cfg.uplink_bps = uplink_bps;
    let mut sim = ahl_simkit::Sim::new(sim_cfg);
    let group: Vec<NodeId> = (0..cfg.n).collect();
    for i in 0..cfg.n {
        let node = LockstepNode::new(cfg.clone(), group.clone(), i, i == 0);
        sim.add_actor(Box::new(node), ahl_simkit::QueueConfig::shared(8192));
    }
    (sim, group)
}

/// The engine's test battery. The cells whose assertion is the same for
/// both protocols are written once here and instantiated by each
/// protocol's own test module with its load and floor.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clients::OpenLoopClient;
    use crate::common::testkit::TestHost;
    use crate::ibft::IbftConfig;
    use crate::tendermint::TmConfig;
    use ahl_ledger::{kvstore, Op, TxId};
    use ahl_simkit::adversary::{FaultMatch, FaultRule, ScriptedFaults};
    use ahl_simkit::{QueueConfig, Sim, SimTime, UniformNetwork};

    /// A committee of `cfg` under open-loop load: one write every
    /// `interval_ms` over `keys` keys until `secs`.
    fn committee(
        cfg: &LockstepConfig,
        (seed, interval_ms): (u64, u64),
        keys: u64,
        secs: u64,
    ) -> (Sim<LockstepMsg>, Vec<NodeId>, SimTime) {
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_group(cfg, net, Some(1e9), seed);
        let stop = SimTime::ZERO + SimDuration::from_secs(secs);
        let mut i = 0u64;
        let factory = Box::new(move |_r: &mut rand::rngs::SmallRng| {
            i += 1;
            Op::Direct {
                txid: TxId(i),
                op: kvstore::kv_write(&[i % keys], 16),
            }
        });
        let interval = SimDuration::from_millis(interval_ms);
        let client = OpenLoopClient::new(group.clone(), interval, stop, factory);
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        (sim, group, stop)
    }

    /// `secs` of load plus a 3 s drain: ((committed, blocks), audit failures).
    pub(crate) fn run(cfg: LockstepConfig, load: (u64, u64), secs: u64) -> ((u64, u64), u64) {
        let (mut sim, _, stop) = committee(&cfg, load, 50, secs);
        sim.run_until(stop + SimDuration::from_secs(3));
        (
            (
                sim.stats().counter(stat::TXN_COMMITTED),
                sim.stats().counter(stat::BLOCKS_COMMITTED),
            ),
            sim.stats().counter(stat::CKPT_AUDIT_FAILURES),
        )
    }

    pub(crate) fn commits_transactions(cfg: LockstepConfig, load: (u64, u64), floor: u64) {
        let ((committed, blocks), _) = run(cfg, load, 5);
        assert!(committed > floor, "committed {committed}");
        assert!(blocks >= 4, "blocks {blocks}");
    }

    /// With a 1 s block period the block rate is ≈ 1/s regardless of load.
    pub(crate) fn block_rate_is_capped(cfg: LockstepConfig, load: (u64, u64)) {
        let ((_, blocks), _) = run(cfg, load, 6);
        assert!(blocks <= 8, "blocks {blocks}");
    }

    /// With parallel block execution the per-height rehash audit must run
    /// (and pass) without perturbing commits: parallel execution is
    /// byte-identical to sequential by contract.
    pub(crate) fn parallel_exec_audit_stays_clean(
        cfg: LockstepConfig,
        load: (u64, u64),
        floor: u64,
    ) {
        let mut par = cfg.clone();
        par.exec_workers = 4;
        let (parallel, audit_failures) = run(par, load, 5);
        let (sequential, _) = run(cfg, load, 5);
        assert_eq!(parallel, sequential, "workers leaked into sim");
        assert!(parallel.0 > floor, "committed {}", parallel.0);
        assert_eq!(
            audit_failures, 0,
            "hash-cache divergence under parallel execution"
        );
    }

    fn node(sim: &Sim<LockstepMsg>, id: NodeId) -> &LockstepNode {
        sim.actor(id)
            .as_any()
            .expect("inspectable")
            .downcast_ref()
            .expect("lockstep node")
    }

    pub(crate) fn validators_reach_same_height(cfg: LockstepConfig, seed: u64) {
        let (mut sim, group, stop) = committee(&cfg, (seed, 5), u64::MAX, 4);
        sim.run_until(stop + SimDuration::from_secs(5));
        let heights: Vec<u64> = group.iter().map(|&id| node(&sim, id).height()).collect();
        let max = *heights.iter().max().expect("non-empty");
        let min = *heights.iter().min().expect("non-empty");
        assert!(max > 1);
        assert!(max - min <= 1, "heights {heights:?}");
    }

    fn both() -> [LockstepConfig; 2] {
        [IbftConfig::new(4), TmConfig::new(4)]
    }

    /// The proposal of (height 2, round 0) never arrives: every validator
    /// has to leave that round, and each one's round change is counted —
    /// whether a peer's vote or its own timeout completed it.
    #[test]
    fn withheld_proposal_counts_a_round_change_on_every_validator() {
        for cfg in both() {
            let (mut sim, group, stop) = committee(&cfg, (9, 3), 50, 8);
            sim.set_interposer(Box::new(ScriptedFaults::new(vec![FaultRule::lossy(
                SimTime::ZERO,
                SimTime::MAX,
                FaultMatch::msgs(|m| {
                    matches!(
                        m,
                        LockstepMsg::Proposal {
                            height: 2,
                            round: 0,
                            ..
                        }
                    )
                }),
                1.0,
            )])));
            sim.run_until(stop);
            let name = cfg.protocol.profile().round_changes;
            for (i, &id) in group.iter().enumerate() {
                assert!(
                    node(&sim, id).height() > 2,
                    "{:?}: validator {i} stuck",
                    cfg.protocol
                );
                let changes = sim.stats().scoped_counter(name, Scope::replica(0, i));
                assert!(
                    changes >= 1,
                    "{:?}: validator {i} counted {changes}",
                    cfg.protocol
                );
            }
        }
    }

    /// IBFT: two peers' round-change votes arrive first, so the
    /// validator's *own* timeout completes the quorum — that round change
    /// counts like any other.
    #[test]
    fn own_timeout_completing_a_round_change_is_counted() {
        let mut v = LockstepNode::new(IbftConfig::new(4), (0..4).collect(), 2, false);
        let mut host = TestHost::new(4);
        let mut ctx = Ctx::for_host(&mut host, 2);
        v.on_start(&mut ctx);
        for replica in [0, 1] {
            v.on_message(
                replica,
                LockstepMsg::RoundChange {
                    height: 1,
                    round: 1,
                    replica,
                },
                &mut ctx,
            );
        }
        assert_eq!(v.round, 0, "two of four is no quorum");
        v.on_timer(TIMER_ROUND | (v.epoch << 8), &mut ctx);
        ctx.finish();
        assert_eq!(v.round, 1);
        assert_eq!(host.stats.counter("ibft.round_changes"), 1);
    }

    /// A vote speaks for the validator that sent it. One actor sending a
    /// proposal-matching commit vote under three indices that are not its
    /// own (one of them past the committee) forms no quorum; three such
    /// votes from their owners decide.
    #[test]
    fn votes_under_a_forged_index_are_dropped() {
        for cfg in both() {
            // Validator 2; validator 1 proposes (height 1, round 0).
            let mut v = LockstepNode::new(cfg.clone(), (0..4).collect(), 2, false);
            let mut host = TestHost::new(4);
            let mut deliver = |v: &mut LockstepNode, from: NodeId, msg: LockstepMsg| {
                let mut ctx = Ctx::for_host(&mut host, 2);
                v.on_message(from, msg, &mut ctx);
                ctx.finish();
                host.stats.counter("consensus.invalid_msg")
            };
            let req = Request {
                id: 7,
                client: 9,
                op: Op::Direct {
                    txid: TxId(7),
                    op: kvstore::kv_write(&[7], 16),
                },
                submitted: SimTime::ZERO,
            };
            let digest = ahl_crypto::sha256(b"the proposal");
            let proposal = LockstepMsg::Proposal {
                height: 1,
                round: 0,
                block: Arc::new(vec![req]),
                digest,
                proposer: 1,
            };
            assert_eq!(
                deliver(&mut v, 3, proposal.clone()),
                1,
                "proposal in 1's name, sent by 3"
            );
            deliver(&mut v, 1, proposal);
            let commit = |replica| LockstepMsg::Vote {
                phase: VotePhase::Commit,
                height: 1,
                round: 0,
                digest,
                replica,
            };
            for claimed in [0, 1, 4] {
                deliver(&mut v, 3, commit(claimed));
            }
            assert_eq!(
                v.height(),
                1,
                "{:?}: forged votes decided a block",
                cfg.protocol
            );
            assert_eq!(
                deliver(&mut v, 3, commit(3)),
                4,
                "three forged votes + the proposal"
            );
            for owner in [0, 1] {
                deliver(&mut v, owner, commit(owner));
            }
            assert_eq!(
                v.height(),
                2,
                "{:?}: a genuine quorum must decide",
                cfg.protocol
            );
        }
    }
}
