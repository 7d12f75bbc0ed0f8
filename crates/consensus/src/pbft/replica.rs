//! The PBFT replica state machine, covering all four paper variants
//! (HL, AHL, AHL+, AHLR) via [`PbftConfig`].
//!
//! Normal case: the leader batches requests into blocks and drives the
//! three-phase protocol (pre-prepare / prepare / commit) with pipelining —
//! several blocks in flight, the property that lets PBFT outperform the
//! lockstep protocols in Figure 2. Faulty leaders are replaced by a view
//! change with exponential backoff.
//!
//! Variant behaviour:
//! * **HL** — Byzantine quorums (2f+1 of 3f+1), native signatures, request
//!   re-broadcast to all replicas, one shared inbound queue.
//! * **AHL** — every consensus send first binds its digest to the enclave's
//!   attested log (equivocation impossible), so quorums shrink to f+1 of
//!   2f+1.
//! * **AHL+** — adds optimization 1 (split queues, configured by the
//!   harness) and optimization 2 (requests forwarded to the leader only).
//! * **AHLR** — adds optimization 3: votes go only to the leader, whose
//!   enclave verifies a quorum and emits one aggregated proof (O(N)
//!   messages, at the cost of leader CPU and fragility — reproducing the
//!   paper's finding that AHL+ beats AHLR).
//!
//! This file is the core: the configuration, the group and this member's
//! place in it, the keys and the enclave's attested log, the ledger state,
//! the view and sequence marks, the protocol instances, request handling,
//! proposing, the three-phase protocol with AHLR aggregation, execution,
//! and message and timer dispatch. Each seam is a child module that owns
//! its state in a struct whose fields only it can reach: `checkpoint`,
//! `view_change`, `sync`, `restart` and `byzantine`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ahl_crypto::{Hash, KeyId, KeyRegistry, SigningKey};
use ahl_ledger::{StateSnapshot, StateStore, Value};
use ahl_mempool::{Admission, BatchBuilder, BatchConfig, Mempool};
use ahl_simkit::{Actor, Ctx, NodeId, Phase, Scope, SimDuration};
use ahl_tee::{attestation_digest, AttestedLog, LogId, Slot, TeeOp};

use crate::adversary::Attack;
use crate::common::{
    stat, BlockExecutor, CryptoMode, ExecutedCache, Request, Stores, VotePhase, NATIVE_SIGN,
    NATIVE_VERIFY,
};
use crate::pbft::cert::{enclave_key, logs, CertKind, QuorumCert, PREPREPARE_LOG};
use crate::pbft::config::{
    PbftConfig, ReplyPolicy, COSTS, EXEC_COST_PER_OP, INGEST_COST, PIPELINE_WIDTH,
};
use crate::pbft::durable::twopc_kind;
use crate::pbft::msg::{MsgCert, PbftBlock, PbftMsg, Vote};
use crate::pbft::Member;

mod byzantine;
mod checkpoint;
mod restart;
mod sync;
mod view_change;

use byzantine::Byzantine;
use checkpoint::{Checkpoints, CkptSnapshot};
use restart::Lifecycle;
use sync::SyncState;
use view_change::ViewChange;

const TIMER_BATCH: u64 = 1;
const TIMER_VC: u64 = 2;
const TIMER_HEARTBEAT: u64 = 3;
const TIMER_SYNC: u64 = 4;

/// Per-sequence protocol instance.
#[derive(Default)]
struct Instance {
    view: u64,
    block: Option<Arc<PbftBlock>>,
    /// Votes per [`VotePhase`]: digest → (voter, proof) by ascending
    /// voter, a certificate's signer order. `MsgCert::Sig` votes (HL under
    /// real crypto) are checked when their digest reaches quorum
    /// ([`Replica::settle_deferred`]). At quorum the commit list becomes
    /// the block's commit certificate.
    votes: [HashMap<Hash, Vec<(usize, MsgCert)>>; 2],
    /// AHLR: votes relayed to this (leader) replica for aggregation.
    relay_votes: [HashMap<Hash, HashSet<usize>>; 2],
    /// Whether this replica has cast its own vote, per phase.
    sent: [bool; 2],
    /// AHLR: whether the aggregated proof went out, per phase.
    agg_sent: [bool; 2],
    /// The commit certificate, once the block committed: the commit
    /// quorum, or the AHLR leader's aggregate. It stays as long as the
    /// instance does, so a sync tail ships it with the block.
    cert: Option<QuorumCert>,
    executed: bool,
}

/// A PBFT replica actor.
pub struct Replica {
    cfg: PbftConfig,
    /// Actor ids of all committee members; index = group index.
    group: Vec<NodeId>,
    /// My group index.
    me: usize,
    /// The committed-block shell this replica executes through (identity,
    /// reporter flag, safety oracle).
    exec: BlockExecutor,

    key: SigningKey,
    registry: Arc<KeyRegistry>,
    tee: AttestedLog,

    state: StateStore,

    view: u64,
    next_seq: u64,
    exec_seq: u64,
    low_mark: u64,
    insts: HashMap<u64, Instance>,

    /// The shard's transaction pool: deduplication, admission control and
    /// batch ordering live here.
    pool: Mempool<Request>,
    /// Size/timeout batch-formation triggers over `pool`.
    batcher: BatchBuilder,
    ingested: HashMap<u64, NodeId>,
    /// Executed-request replay protection, pruned at checkpoint epochs
    /// (bounded — see [`ExecutedCache`]).
    executed_reqs: ExecutedCache,

    /// Sequence below which executed instances have been pruned. Kept one
    /// checkpoint interval behind `low_mark` so the committed-block tail
    /// above the previous certificate stays servable.
    insts_floor: u64,
    /// Checkpoint votes, snapshots, the serving window and the durable
    /// checkpoint ([`checkpoint`]).
    ckpt: Checkpoints,
    /// State sync, requester and server side ([`sync`]).
    sync: SyncState,
    /// Crash and restart ([`restart`]).
    life: Lifecycle,
    /// View-change votes, backoff and stall detection ([`view_change`]).
    vc: ViewChange,

    /// Attack state, on a Byzantine replica only ([`byzantine`]).
    byz: Option<Byzantine>,
}

impl Instance {
    fn votes_for(&self, phase: VotePhase, digest: &Hash) -> usize {
        self.votes[phase as usize].get(digest).map_or(0, Vec::len)
    }

    /// Record `voter`'s `phase` vote for `digest`; a repeat replaces its
    /// proof. Commit votes after the certificate formed are dropped: the
    /// quorum is frozen into it.
    fn cast(&mut self, phase: VotePhase, digest: Hash, voter: usize, proof: MsgCert) {
        if phase == VotePhase::Commit && self.cert.is_some() {
            return;
        }
        let votes = self.votes[phase as usize].entry(digest).or_default();
        match votes.binary_search_by_key(&voter, |(i, _)| *i) {
            Ok(at) => votes[at].1 = proof,
            Err(at) => votes.insert(at, (voter, proof)),
        }
    }
}

impl Replica {
    /// Create a replica. `group` are the actor ids of the committee (index =
    /// group index), `me` is this replica's group index, `key` its signing
    /// key, `tee_key` its enclave's and `registry` the shared verification
    /// oracle. `genesis` is built into a tree of its own:
    /// [`Replica::from_genesis`] with that tree's snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: PbftConfig,
        group: Vec<NodeId>,
        me: usize,
        key: SigningKey,
        tee_key: SigningKey,
        registry: Arc<KeyRegistry>,
        genesis: &[(String, Value)],
        reporter: bool,
    ) -> Self {
        let genesis = StateStore::from_entries(genesis.to_vec()).snapshot();
        let member = Member {
            index: me,
            key,
            tee_key,
            registry,
            reporter,
        };
        Self::from_genesis(cfg, group, member, &genesis)
    }

    /// Create `member`'s replica in the committee `group` (actor ids in
    /// group-index order) running `cfg` from the `genesis` snapshot, in its
    /// lineage: the state is an O(1) clone of it, and so is every cold
    /// restart.
    pub fn from_genesis(
        cfg: PbftConfig,
        group: Vec<NodeId>,
        member: Member,
        genesis: &StateSnapshot,
    ) -> Self {
        let me = member.index;
        let byzantine = cfg.is_byzantine(me);
        let ckpt = Checkpoints::new(&cfg, group[me]);
        let (pool, batcher) = fresh_pool(&cfg);
        Replica {
            exec: BlockExecutor {
                committee_id: cfg.committee_id,
                me,
                reporter: member.reporter,
                exec_workers: cfg.exec_workers,
                checker: if byzantine { None } else { cfg.safety.clone() },
            },
            cfg,
            group,
            me,
            key: member.key,
            registry: member.registry,
            tee: AttestedLog::new(member.tee_key),
            state: StateStore::from_snapshot(genesis),
            view: 0,
            next_seq: 1,
            exec_seq: 0,
            low_mark: 0,
            insts: HashMap::new(),
            pool,
            batcher,
            ingested: HashMap::new(),
            executed_reqs: ExecutedCache::new(),
            insts_floor: 0,
            ckpt,
            sync: SyncState::new(),
            life: Lifecycle::new(genesis.clone()),
            vc: ViewChange::new(),
            byz: byzantine.then(Byzantine::new),
        }
    }

    /// The replica's ledger state (post-run inspection).
    pub fn state(&self) -> &StateStore {
        &self.state
    }

    /// Current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Highest executed sequence number.
    pub fn exec_seq(&self) -> u64 {
        self.exec_seq
    }

    /// The replica's transaction pool (post-run inspection).
    pub fn pool(&self) -> &Mempool<Request> {
        &self.pool
    }

    /// Number of remembered executed-request ids (replay protection;
    /// bounded by checkpoint-epoch pruning — post-run inspection).
    pub fn executed_len(&self) -> usize {
        self.executed_reqs.len()
    }

    fn leader_of(&self, view: u64) -> usize {
        (view % self.cfg.n as u64) as usize
    }

    fn is_leader(&self) -> bool {
        self.leader_of(self.view) == self.me
    }

    /// Charge `d` of consensus CPU (scaled by `cpu_scale`).
    fn charge(&self, ctx: &mut Ctx<'_, PbftMsg>, d: SimDuration) {
        self.charge_to(ctx, d, stat::CONSENSUS_CPU_NS);
    }

    /// Charge `d` of CPU (scaled by `cpu_scale`), counted under `counter`.
    fn charge_to(&self, ctx: &mut Ctx<'_, PbftMsg>, d: SimDuration, counter: &'static str) {
        let scaled = if self.cfg.cpu_scale == 1.0 {
            d
        } else {
            d.mul_f64(self.cfg.cpu_scale)
        };
        ctx.consume_cpu(scaled);
        ctx.stats().inc(counter, scaled.as_nanos());
    }

    fn others(&self) -> Vec<NodeId> {
        let mine = self.group[self.me];
        self.group.iter().copied().filter(|&g| g != mine).collect()
    }

    // ---------- authentication helpers ----------

    /// Produce a certificate for a consensus message, charging the cost.
    fn certify(
        &mut self,
        ctx: &mut Ctx<'_, PbftMsg>,
        log: LogId,
        view: u64,
        seq: u64,
        digest: Hash,
    ) -> Option<MsgCert> {
        if self.cfg.variant.attested() {
            self.charge(ctx, COSTS.cost(TeeOp::AhlAppend));
            if self.cfg.crypto == CryptoMode::Real {
                match self.tee.append(log, Slot { view, seq }, digest) {
                    Ok(att) => Some(MsgCert::Attested(att)),
                    Err(_) => None, // enclave refused (equivocation attempt)
                }
            } else {
                Some(MsgCert::Simulated)
            }
        } else {
            self.charge(ctx, NATIVE_SIGN);
            if self.cfg.crypto == CryptoMode::Real {
                Some(MsgCert::Sig(self.key.sign(&digest)))
            } else {
                Some(MsgCert::Simulated)
            }
        }
    }

    /// Verify a vote/proposal certificate by group member `signer`, in
    /// `log` at `slot`, charging the cost. Returns false if the message
    /// must be discarded.
    fn verify_cert(
        &mut self,
        ctx: &mut Ctx<'_, PbftMsg>,
        cert: &MsgCert,
        log: LogId,
        signer: usize,
        slot: Slot,
        digest: &Hash,
    ) -> bool {
        self.charge(ctx, NATIVE_VERIFY);
        match cert {
            // Real-crypto mode never produces bare Simulated certs: one
            // arriving is a Byzantine replica trying to skip the crypto.
            MsgCert::Simulated => self.cfg.crypto != CryptoMode::Real,
            // Attested committees require the enclave binding: a plain
            // signature is exactly how an equivocator would dodge the
            // attested log, so it is refused outright.
            MsgCert::Sig(sig) => {
                !self.cfg.variant.attested()
                    && sig.signer == KeyId(signer as u64)
                    && self.registry.verify(digest, sig)
            }
            // The signature covers the attestation's log, slot and digest.
            MsgCert::Attested(att) => {
                att.sig.signer == enclave_key(&self.registry, signer)
                    && self
                        .registry
                        .verify(&attestation_digest(log, slot, digest), &att.sig)
            }
        }
    }

    /// The registry a certificate is verified against: none in cost-only
    /// runs, whose certificates carry no signatures and are only counted.
    fn cert_registry(&self) -> Option<&KeyRegistry> {
        (self.cfg.crypto == CryptoMode::Real).then_some(self.registry.as_ref())
    }

    /// [`QuorumCert::verify`] against this committee, plus the one check
    /// it leaves to the replica: an aggregate's signer leads its view.
    fn verify_qc(&self, cert: &QuorumCert) -> bool {
        let leads = |(i, _): &(usize, MsgCert)| *i == self.leader_of(cert.view);
        let led = !matches!(cert.kind, CertKind::Aggregate(_)) || cert.signers.iter().all(leads);
        led && cert.verify(self.cfg.quorum(), self.cert_registry())
    }

    // ---------- request handling ----------

    /// Replay-horizon admission check: a request older than `request_ttl`
    /// must not (re)enter consensus — the executed-id cache is only
    /// guaranteed to remember ids that long, so admitting an older copy
    /// (stranded in some pool, re-relayed at a view change) could
    /// re-execute it. Honest traffic always carries fresh timestamps.
    fn expired(&self, req: &Request, ctx: &mut Ctx<'_, PbftMsg>) -> bool {
        if ctx.now().since(req.submitted) > self.cfg.request_ttl {
            ctx.stats().inc("consensus.expired_requests", 1);
            true
        } else {
            false
        }
    }

    /// Pool a gossiped copy of a request (HL re-broadcast; some other
    /// replica is the ingest point, so rejections here are only counted,
    /// not signalled — the ingest replica's copy carries the client reply).
    fn on_gossip(&mut self, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        // Re-broadcast copy: deduplication + cached-certificate check (the
        // ingest replica already verified the client signature; Hyperledger
        // validates again lazily at execution, charged in exec cost).
        self.charge(ctx, SimDuration::from_micros(20));
        if !self.executed_reqs.contains(req.id) && !self.expired(&req, ctx) {
            let now = ctx.now();
            let _ = self.pool.insert(req, now, ctx.stats());
        }
        self.try_propose(ctx);
    }

    fn on_request(&mut self, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        // Client-facing ingest: REST + TLS + signature verification.
        self.charge(ctx, INGEST_COST);
        ctx.trace(req.id, Phase::Ingest);
        if self.executed_reqs.contains(req.id) {
            // Retransmission of an executed request: nothing to do.
            return;
        }
        if self.expired(&req, ctx) {
            // Past the replay horizon: bounce it like backpressure — a
            // live client retries with a fresh timestamp.
            ctx.send(req.client, PbftMsg::Rejected { req_id: req.id });
            return;
        }
        let now = ctx.now();
        let admission = self.pool.insert(req.clone(), now, ctx.stats());
        if admission == Admission::Rejected {
            // Admission control: surface backpressure to the client and do
            // NOT forward the request into consensus.
            ctx.stats().inc(stat::BACKPRESSURE, 1);
            ctx.send(req.client, PbftMsg::Rejected { req_id: req.id });
            return;
        }
        ctx.trace(req.id, Phase::Admit);
        if self.cfg.reply_policy == ReplyPolicy::IngestReplica {
            self.ingested.insert(req.id, req.client);
        }
        if self.sync.paused() {
            // Transitioning/restarting: pool only. The backlog is relayed
            // to the leader when the sync completes, so the post-recovery
            // drain spike (paper Figure 12) emerges naturally.
            return;
        }
        // Forward admitted requests and retransmissions of already-pooled
        // ones (a client retrying after leader-side backpressure arrives
        // here as `Duplicate`; the relay must still reach the leader).
        if self.cfg.variant.relay_to_leader() {
            // Optimization 2: forward to the leader only.
            let leader = self.group[self.leader_of(self.view)];
            if leader != self.group[self.me] {
                ctx.send(leader, PbftMsg::Relay(req));
            }
        } else {
            // HL behaviour: broadcast the request to every replica.
            ctx.multicast(self.others(), PbftMsg::Gossip(req));
        }
        self.try_propose(ctx);
    }

    fn on_relay(&mut self, from: NodeId, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        // Leader-side pooling of a relayed request: cheap enqueue.
        self.charge(ctx, SimDuration::from_micros(10));
        if self.executed_reqs.contains(req.id) {
            return;
        }
        if self.expired(&req, ctx) {
            // Stale copy past the replay horizon (e.g. re-relayed out of
            // a long-stranded pool): refuse, and tell the relayer to
            // reclaim its own copy.
            if from != self.group[self.me] {
                ctx.send(from, PbftMsg::RelayRejected { req_id: req.id });
            }
            return;
        }
        let (req_id, client) = (req.id, req.client);
        let now = ctx.now();
        let admission = self.pool.insert(req, now, ctx.stats());
        if admission == Admission::Rejected {
            // Only the leader's pool feeds proposals in relay mode, so a
            // drop here is real backpressure: tell the client directly
            // (the request carries its reply address) instead of letting
            // it wait on a request that can never be proposed, and tell
            // the relayer to reclaim its stranded pooled copy.
            ctx.stats().inc(stat::BACKPRESSURE, 1);
            ctx.send(client, PbftMsg::Rejected { req_id });
            if from != self.group[self.me] {
                ctx.send(from, PbftMsg::RelayRejected { req_id });
            }
            return;
        }
        self.try_propose(ctx);
    }

    /// The leader refused our relayed request: drop our pooled copy (it
    /// can never be proposed from here short of a view change) so dead
    /// entries do not eat ingest-pool capacity under sustained overload.
    fn on_relay_rejected(&mut self, req_id: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, SimDuration::from_micros(5));
        self.pool.remove(req_id);
        self.ingested.remove(&req_id);
    }

    // ---------- proposing ----------

    fn try_propose(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if !self.is_leader() || self.sync.paused() {
            return;
        }
        while self.next_seq <= self.exec_seq + PIPELINE_WIDTH {
            let now = ctx.now();
            let Some(batch) = self.batcher.take_full(&mut self.pool, now, ctx.stats()) else {
                break;
            };
            self.propose_batch(batch, ctx);
        }
    }

    fn flush_partial_batch(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.is_leader()
            && !self.sync.paused()
            && self.next_seq <= self.exec_seq + PIPELINE_WIDTH
        {
            let now = ctx.now();
            if let Some(batch) = self.batcher.take_due(&mut self.pool, now, ctx.stats()) {
                self.propose_batch(batch, ctx);
            }
        }
    }

    fn propose_batch(&mut self, mut batch: Vec<Request>, ctx: &mut Ctx<'_, PbftMsg>) {
        // Entries can cross the replay horizon *inside* the pool (a
        // leader that lagged for a long time still holds them): filter at
        // batch formation, the last gate before ordering.
        let now = ctx.now();
        let ttl = self.cfg.request_ttl;
        batch.retain(|r| {
            if now.since(r.submitted) > ttl {
                ctx.stats().inc("consensus.expired_requests", 1);
                false
            } else {
                true
            }
        });
        if batch.is_empty() {
            return;
        }
        for r in batch.iter() {
            ctx.trace(r.id, Phase::Propose);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let view = self.view;
        // Digest cost: hashing the batch.
        let hash_cost = COSTS
            .cost(TeeOp::Sha256)
            .saturating_mul(1 + batch.len() as u64 / 8);
        self.charge(ctx, hash_cost);

        if let Some(attack) = self.attack() {
            return self.byzantine_propose(attack, batch, view, seq, ctx);
        }
        let block = Arc::new(PbftBlock::new(view, seq, self.me, batch));
        self.send_proposal(block, self.others(), ctx);
    }

    /// Certify `block`, send its pre-prepare to `recipients`, and apply it
    /// locally.
    fn send_proposal(
        &mut self,
        block: Arc<PbftBlock>,
        recipients: Vec<NodeId>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let (view, seq) = (block.view, block.seq);
        let Some(cert) = self.certify(ctx, PREPREPARE_LOG, view, seq, block.digest) else {
            return;
        };
        ctx.multicast(
            recipients,
            PbftMsg::PrePrepare {
                block: block.clone(),
                cert: cert.clone(),
            },
        );
        self.accept_block(block, cert, ctx);
    }

    // ---------- three-phase protocol ----------

    fn on_preprepare(
        &mut self,
        block: Arc<PbftBlock>,
        cert: MsgCert,
        from_idx: usize,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        if block.view != self.view
            || block.seq <= self.low_mark
            || from_idx != self.leader_of(block.view)
            || block.proposer != from_idx
        {
            return;
        }
        let slot = Slot {
            view: block.view,
            seq: block.seq,
        };
        if !self.verify_cert(ctx, &cert, PREPREPARE_LOG, from_idx, slot, &block.digest) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        // Hash the batch to validate the digest.
        let hash_cost = COSTS
            .cost(TeeOp::Sha256)
            .saturating_mul(1 + block.reqs.len() as u64 / 8);
        self.charge(ctx, hash_cost);
        if let Some(inst) = self.insts.get(&block.seq) {
            if let Some(existing) = &inst.block {
                if existing.digest != block.digest && inst.view == block.view {
                    // Conflicting proposal for a bound slot: equivocation.
                    ctx.stats().inc("consensus.equivocation_detected", 1);
                    return;
                }
            }
        }
        self.accept_block(block, cert, ctx);
    }

    /// Bind `block` to its slot; `proof` (the pre-prepare's cert, none for
    /// a re-proposal in a new view) stands for the leader's implicit
    /// prepare vote.
    fn accept_block(&mut self, block: Arc<PbftBlock>, proof: MsgCert, ctx: &mut Ctx<'_, PbftMsg>) {
        let seq = block.seq;
        let view = block.view;
        let digest = block.digest;
        let leader = self.leader_of(view);
        let me = self.me;
        {
            let inst = self.insts.entry(seq).or_default();
            if inst.executed {
                return;
            }
            inst.view = view;
            inst.block = Some(block);
            // The pre-prepare counts as the leader's prepare vote.
            inst.cast(VotePhase::Prepare, digest, leader, proof);
        }
        if me != leader && !self.insts[&seq].sent[VotePhase::Prepare as usize] {
            self.send_vote(VotePhase::Prepare, view, seq, digest, ctx);
        } else {
            // Leader: its "prepare" is implicit; in AHLR it seeds the relay
            // aggregation set.
            if self.cfg.variant.leader_aggregation() {
                let inst = self.insts.entry(seq).or_default();
                inst.relay_votes[VotePhase::Prepare as usize]
                    .entry(digest)
                    .or_default()
                    .insert(me);
            }
            self.check_prepared(seq, digest, ctx);
        }
    }

    /// Cast this replica's own `phase` vote for `digest` at `(view, seq)`:
    /// certify and record it, then send it — to the leader to aggregate
    /// (AHLR), as the attack has it, or to every peer.
    fn send_vote(
        &mut self,
        phase: VotePhase,
        view: u64,
        seq: u64,
        digest: Hash,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some(cert) = self.certify(ctx, logs(phase).0, view, seq, digest) else {
            return;
        };
        if let Some(inst) = self.insts.get_mut(&seq) {
            inst.sent[phase as usize] = true;
            inst.cast(phase, digest, self.me, cert.clone());
        }
        let vote = Vote {
            view,
            seq,
            digest,
            replica: self.me,
            cert,
        };
        let leader = self.leader_of(view);
        if self.cfg.variant.leader_aggregation() && leader == self.me {
            self.on_relay_vote(phase, vote, ctx);
        } else if self.cfg.variant.leader_aggregation() {
            let relay = match phase {
                VotePhase::Prepare => PbftMsg::RelayPrepare(vote),
                VotePhase::Commit => PbftMsg::RelayCommit(vote),
            };
            ctx.send(self.group[leader], relay);
        } else if let Some(attack) = self.attack() {
            self.byzantine_vote(attack, vote, phase, ctx);
        } else {
            ctx.multicast(self.others(), vote_msg(phase, vote));
        }
        self.check_quorum(phase, seq, digest, ctx);
    }

    /// PBFT watermark window `(h, h + L]` anchored at the *stable
    /// checkpoint* `h` (not the local execution point — a lagging replica
    /// must still accept votes for sequences it has yet to execute).
    /// Messages beyond the window are discarded before signature
    /// verification — the defense that keeps sequence-number flooding from
    /// consuming crypto cycles.
    fn in_watermarks(&self, seq: u64) -> bool {
        let window = (4 * self.cfg.checkpoint_interval).max(PIPELINE_WIDTH * 16 + 64);
        seq > self.low_mark && seq <= self.low_mark + window
    }

    /// Admit a vote's certificate. `MsgCert::Sig` votes (HL under real
    /// crypto) are admitted *tentatively*: the arrival pays the same
    /// verification cost as before, but the actual signature check is
    /// deferred and runs as one [`KeyRegistry::verify_batch`] call when
    /// the digest reaches quorum ([`Replica::settle_deferred`]) — the
    /// quorum-certificate shape batch verification is built for. Other
    /// certs are verified here; false rejects the vote.
    fn admit_vote(&mut self, phase: VotePhase, vote: &Vote, ctx: &mut Ctx<'_, PbftMsg>) -> bool {
        if matches!(vote.cert, MsgCert::Sig(_)) && self.deferring() {
            self.charge(ctx, NATIVE_VERIFY);
            return true;
        }
        let slot = Slot {
            view: vote.view,
            seq: vote.seq,
        };
        self.verify_cert(
            ctx,
            &vote.cert,
            logs(phase).0,
            vote.replica,
            slot,
            &vote.digest,
        )
    }

    /// Whether signature votes are checked at quorum rather than on
    /// arrival (HL under real crypto).
    fn deferring(&self) -> bool {
        !self.cfg.variant.attested() && self.cfg.crypto == CryptoMode::Real
    }

    /// Batch-verify the signature votes for `(seq, digest)`, both phases
    /// at once (a replica's prepare and commit votes sign the same
    /// digest, so its two signatures are one). Returns true when the
    /// vote sets stand; on a batch failure it falls back per signature,
    /// evicts each forger from both vote sets (counting it as an invalid
    /// message), and returns false so the caller re-evaluates quorum over
    /// the survivors.
    fn settle_deferred(&mut self, seq: u64, digest: &Hash, ctx: &mut Ctx<'_, PbftMsg>) -> bool {
        if !self.deferring() {
            return true;
        }
        let registry = self.registry.clone();
        let Some(inst) = self.insts.get_mut(&seq) else {
            return true;
        };
        let sigs: Vec<(usize, ahl_crypto::Signature)> = inst
            .votes
            .iter()
            .filter_map(|votes| votes.get(digest))
            .flatten()
            .filter_map(|(r, cert)| match cert {
                MsgCert::Sig(sig) => Some((*r, *sig)),
                _ => None,
            })
            .collect();
        if registry.verify_batch(digest, sigs.iter().map(|(r, s)| (KeyId(*r as u64), s))) {
            return true;
        }
        let mut forged: Vec<usize> = sigs
            .iter()
            .filter(|(r, s)| s.signer != KeyId(*r as u64) || !registry.verify(digest, s))
            .map(|(r, _)| *r)
            .collect();
        forged.sort_unstable();
        forged.dedup();
        for r in &forged {
            for votes in &mut inst.votes {
                if let Some(list) = votes.get_mut(digest) {
                    list.retain(|(i, _)| i != r);
                }
            }
            ctx.stats().inc("consensus.invalid_msg", 1);
        }
        false
    }

    /// A peer's prepare or commit vote.
    fn on_vote(&mut self, phase: VotePhase, vote: Vote, ctx: &mut Ctx<'_, PbftMsg>) {
        if vote.view != self.view || vote.seq <= self.low_mark {
            return;
        }
        if !self.in_watermarks(vote.seq) {
            self.charge(ctx, SimDuration::from_micros(20));
            ctx.stats().inc("consensus.out_of_window", 1);
            return;
        }
        if !self.admit_vote(phase, &vote, ctx) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        let inst = self.insts.entry(vote.seq).or_default();
        inst.cast(phase, vote.digest, vote.replica, vote.cert);
        self.check_quorum(phase, vote.seq, vote.digest, ctx);
    }

    /// A `phase` vote for `digest` at `seq` was recorded: act on a quorum.
    fn check_quorum(
        &mut self,
        phase: VotePhase,
        seq: u64,
        digest: Hash,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        match phase {
            VotePhase::Prepare => self.check_prepared(seq, digest, ctx),
            VotePhase::Commit => self.check_committed(seq, digest, ctx),
        }
    }

    fn check_prepared(&mut self, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.cfg.variant.leader_aggregation() {
            return; // prepared is signalled by AggPrepare in AHLR
        }
        if self.settled_quorum(VotePhase::Prepare, seq, &digest, ctx) {
            self.send_vote(VotePhase::Commit, self.view, seq, digest, ctx);
        }
    }

    /// Whether the block held at `seq` has digest `digest` and a `phase`
    /// quorum this replica has not acted on yet (its commit vote unsent,
    /// or its certificate unformed), once deferred signatures settle.
    /// Loop: a failed batch settle evicts forged votes, shrinking the vote
    /// set, so quorum must be re-checked over the survivors. Terminates
    /// because each settle failure strictly shrinks the pending pool.
    fn settled_quorum(
        &mut self,
        phase: VotePhase,
        seq: u64,
        digest: &Hash,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) -> bool {
        let quorum = self.cfg.quorum();
        loop {
            let Some(inst) = self.insts.get(&seq) else {
                return false;
            };
            let unacted = match phase {
                VotePhase::Prepare => !inst.sent[VotePhase::Commit as usize],
                VotePhase::Commit => inst.cert.is_none(),
            };
            let ready = inst.block.as_ref().is_some_and(|b| b.digest == *digest)
                && unacted
                && inst.votes_for(phase, digest) >= quorum;
            if !ready {
                return false;
            }
            if self.settle_deferred(seq, digest, ctx) {
                return true;
            }
        }
    }

    fn check_committed(&mut self, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        if !self.settled_quorum(VotePhase::Commit, seq, &digest, ctx) {
            return;
        }
        let Some(inst) = self.insts.get_mut(&seq) else {
            return;
        };
        let signers = inst.votes[VotePhase::Commit as usize]
            .remove(&digest)
            .unwrap_or_default();
        let cert = QuorumCert {
            kind: CertKind::Commit,
            view: inst.view,
            seq,
            digest,
            signers,
        };
        self.commit(cert, ctx);
    }

    /// The block at `cert.seq` committed: keep the certificate with it and
    /// execute what is ready.
    fn commit(&mut self, cert: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(inst) = self.insts.get_mut(&cert.seq) else {
            return;
        };
        if let Some(block) = &inst.block {
            for r in block.reqs.iter() {
                ctx.trace(r.id, Phase::Commit);
            }
        }
        inst.cert = Some(cert);
        self.try_execute(ctx);
    }

    // ---------- AHLR aggregation ----------

    /// AHLR, leader side: collect a relayed prepare or commit vote; at
    /// quorum the enclave verifies the f+1 votes and emits one proof, an
    /// aggregate certificate bound in the enclave's log for that phase.
    fn on_relay_vote(&mut self, phase: VotePhase, vote: Vote, ctx: &mut Ctx<'_, PbftMsg>) {
        if vote.view != self.view || self.leader_of(vote.view) != self.me {
            return;
        }
        let (log, agg_log) = logs(phase);
        let slot = Slot {
            view: vote.view,
            seq: vote.seq,
        };
        if !self.verify_cert(ctx, &vote.cert, log, vote.replica, slot, &vote.digest) {
            return;
        }
        let quorum = self.cfg.quorum();
        let inst = self.insts.entry(vote.seq).or_default();
        let relayed = inst.relay_votes[phase as usize]
            .entry(vote.digest)
            .or_default();
        relayed.insert(vote.replica);
        if inst.agg_sent[phase as usize] || relayed.len() < quorum {
            return;
        }
        inst.agg_sent[phase as usize] = true;
        let f = self.cfg.f();
        self.charge(ctx, COSTS.cost(TeeOp::MessageAggregation { f }));
        let proof = if self.cfg.crypto == CryptoMode::Real {
            match self.tee.append(agg_log, slot, vote.digest) {
                Ok(att) => MsgCert::Attested(att),
                Err(_) => return,
            }
        } else {
            MsgCert::Simulated
        };
        let cert = QuorumCert {
            kind: CertKind::Aggregate(phase),
            view: vote.view,
            seq: vote.seq,
            digest: vote.digest,
            signers: vec![(self.me, proof)],
        };
        let msg = match phase {
            VotePhase::Prepare => PbftMsg::AggPrepare(cert.clone()),
            VotePhase::Commit => PbftMsg::AggCommit(cert.clone()),
        };
        ctx.multicast(self.others(), msg);
        self.on_aggregate(self.me, cert, ctx);
    }

    /// AHLR: an aggregate from group member `from`. It counts only if it
    /// is the current view's leader's aggregate for the block this
    /// replica holds at that height; then a prepare aggregate draws this
    /// replica's commit vote, and a commit aggregate is the block's
    /// commit certificate.
    fn on_aggregate(&mut self, from: usize, cert: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        if cert.view != self.view || cert.seq <= self.low_mark {
            return;
        }
        self.charge(ctx, NATIVE_VERIFY);
        let Some(inst) = self.insts.get(&cert.seq) else {
            return;
        };
        if inst.block.as_ref().is_none_or(|b| b.digest != cert.digest) {
            return;
        }
        let (sent_commit, committed) = (inst.sent[VotePhase::Commit as usize], inst.cert.is_some());
        let CertKind::Aggregate(phase) = cert.kind else {
            return;
        };
        if from != self.leader_of(cert.view) || !self.verify_qc(&cert) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        match phase {
            VotePhase::Prepare if !sent_commit => {
                self.send_vote(VotePhase::Commit, self.view, cert.seq, cert.digest, ctx)
            }
            VotePhase::Commit if !committed => self.commit(cert, ctx),
            _ => {}
        }
    }

    // ---------- execution ----------

    fn try_execute(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        loop {
            if self.life.crashed() {
                return; // an I/O failure mid-execution killed the node
            }
            let next = self.exec_seq + 1;
            let Some(inst) = self
                .insts
                .get_mut(&next)
                .filter(|i| i.cert.is_some() && !i.executed)
            else {
                break;
            };
            let Some(block) = inst.block.clone() else {
                break;
            };
            inst.executed = true;
            if !self.execute_next(&block, ctx) {
                return;
            }
            self.release_pending_cert(self.exec_seq, ctx);
        }
        // Leader may have room to propose more now.
        self.try_propose(ctx);
    }

    /// Execute `block`, the next in sequence, and at a checkpoint height
    /// snapshot and vote — a sync tail crosses those heights like normal
    /// execution does, or this replica would neither contribute to those
    /// certificates nor be able to serve chunks at them. False if an I/O
    /// failure crashed the node.
    fn execute_next(&mut self, block: &PbftBlock, ctx: &mut Ctx<'_, PbftMsg>) -> bool {
        self.execute_block(block, ctx);
        if self.life.crashed() {
            return false;
        }
        self.exec_seq = block.seq;
        if self.exec_seq.is_multiple_of(self.cfg.checkpoint_interval) {
            self.send_checkpoint(ctx);
        }
        true
    }

    fn execute_block(&mut self, block: &PbftBlock, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = ahl_telemetry::Profiler::span("pbft.exec");
        // WAL intent record before applying (recovery re-executes it);
        // the 2PC transition journal entries follow as execution decides
        // them, and one group commit below makes the batch durable.
        if let Some(store) = self.ckpt.store() {
            store.log_batch(block);
        }
        let stores = Stores {
            state: &mut self.state,
            executed: &mut self.executed_reqs,
            pool: &mut self.pool,
        };
        // PBFT's own per-request work, in batch order after the shell's
        // `Exec` stamp: 2PC stamps and journal records, client replies.
        let weight = self
            .exec
            .commit(block.seq, &block.reqs, stores, ctx, |req, ok, ctx| {
                match &req.op {
                    ahl_ledger::Op::Prepare { txid, .. } => ctx.trace(txid.0, Phase::TwoPcPrepare),
                    ahl_ledger::Op::Commit { txid } | ahl_ledger::Op::Abort { txid } => {
                        ctx.trace(txid.0, Phase::TwoPcDecide)
                    }
                    _ => {}
                }
                if ok {
                    if let (Some(kind), Some(store), Some(txid)) =
                        (twopc_kind(&req.op), self.ckpt.store(), req.op.txid())
                    {
                        store.log_twopc(txid.0, kind);
                    }
                }
                if self.cfg.reply_policy == ReplyPolicy::IngestReplica {
                    if let Some(client) = self.ingested.remove(&req.id) {
                        ctx.send(
                            client,
                            PbftMsg::Reply {
                                req_id: req.id,
                                committed: ok,
                            },
                        );
                    }
                }
            });
        // Execution cost: chaincode + validation per state access.
        self.charge_to(
            ctx,
            EXEC_COST_PER_OP.saturating_mul(weight as u64),
            stat::EXEC_CPU_NS,
        );
        // Group commit: one write+policy-fsync for the batch record plus
        // its 2PC journal. An I/O failure here is a crash — the node goes
        // dark and recovers from whatever reached the disk.
        if self.ckpt.store().is_some() {
            let scope = Scope::replica(self.cfg.committee_id, self.me);
            ctx.stats().inc_scoped(stat::WAL_BATCHES, scope, 1);
            ctx.trace(block.seq, Phase::WalCommit);
            self.charge(ctx, SimDuration::from_micros(5));
            let failed = self.ckpt.store().is_some_and(|s| s.commit().is_err());
            if failed {
                self.io_crash(ctx);
            }
        }
    }

    /// Group index of a sender actor id (linear scan; groups are small).
    fn group_index(&self, actor: NodeId) -> Option<usize> {
        self.group.iter().position(|&g| g == actor)
    }
}

/// The wire form of `vote` cast in `phase`.
fn vote_msg(phase: VotePhase, vote: Vote) -> PbftMsg {
    match phase {
        VotePhase::Prepare => PbftMsg::Prepare(vote),
        VotePhase::Commit => PbftMsg::Commit(vote),
    }
}

/// An empty pool and its batch builder, as `cfg` sizes them (at start and
/// after a restart).
fn fresh_pool(cfg: &PbftConfig) -> (Mempool<Request>, BatchBuilder) {
    let batch = BatchConfig {
        max_txs: cfg.batch_size,
        timeout: cfg.batch_timeout,
    };
    (
        Mempool::new(cfg.mempool.clone(), 0),
        BatchBuilder::new(batch),
    )
}

/// Profiler span for one delivered message, named by its kind, so a
/// traced run splits the replica's callbacks by what they handle.
fn message_span(msg: &PbftMsg) -> &'static str {
    match msg {
        PbftMsg::Request(_) => "pbft.on_request",
        PbftMsg::Relay(_) => "pbft.on_relay",
        PbftMsg::Gossip(_) => "pbft.on_gossip",
        PbftMsg::RelayRejected { .. } => "pbft.on_relay_rejected",
        PbftMsg::PrePrepare { .. } => "pbft.on_preprepare",
        PbftMsg::Prepare(_) => "pbft.on_prepare",
        PbftMsg::Commit(_) => "pbft.on_commit",
        PbftMsg::RelayPrepare(_) | PbftMsg::RelayCommit(_) => "pbft.on_relay_vote",
        PbftMsg::AggPrepare(_) | PbftMsg::AggCommit(_) => "pbft.on_aggregate",
        PbftMsg::Checkpoint { .. } => "pbft.on_checkpoint",
        PbftMsg::ViewChange(_) | PbftMsg::NewView { .. } => "pbft.on_view_change",
        PbftMsg::PoolPull { .. } => "pbft.on_pool_pull",
        PbftMsg::Reply { .. } | PbftMsg::Rejected { .. } => "pbft.on_reply",
        PbftMsg::Heartbeat { .. } => "pbft.on_heartbeat",
        PbftMsg::SyncRequest { .. }
        | PbftMsg::ChunkRequest { .. }
        | PbftMsg::SyncManifest { .. }
        | PbftMsg::ChunkData { .. }
        | PbftMsg::SyncTail { .. }
        | PbftMsg::SyncNack { .. } => "pbft.on_sync",
        PbftMsg::Transition { .. }
        | PbftMsg::TransitionDone { .. }
        | PbftMsg::Crash
        | PbftMsg::Restart => "pbft.on_control",
    }
}

impl Actor for Replica {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.set_timer(self.cfg.batch_timeout, TIMER_BATCH);
        ctx.set_timer(self.current_vc_timeout(), TIMER_VC);
        ctx.set_timer(self.cfg.vc_timeout.mul_f64(0.2), TIMER_HEARTBEAT);
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = ahl_telemetry::Profiler::span(message_span(&msg));
        if self.life.crashed() {
            // Dark: a crashed node neither processes nor serves anything
            // until its Restart (Crash is idempotent while down).
            if matches!(msg, PbftMsg::Restart) {
                self.on_restart(ctx);
            }
            return;
        }
        self.vc.heard(ctx.now());
        // A colluding equivocator never runs the honest proposal path: it
        // echoes two-faced votes for every proposal it sees and is done.
        if self.attack() == Some(Attack::Equivocate) {
            if let PbftMsg::PrePrepare { block, .. } = &msg {
                self.charge(ctx, SimDuration::from_micros(10));
                let (view, seq, digest) = (block.view, block.seq, block.digest);
                self.equivocate_echo(view, seq, digest, ctx);
                return;
            }
        }
        // While a full re-fetch is in flight the replica does not take part
        // in consensus: protocol messages are dropped cheaply (it could not
        // vote truthfully about state it is still downloading). Sync
        // protocol, control, and client-request traffic still flow — in
        // particular the replica keeps *serving* chunks from its certified
        // snapshot, the paper's departing-committee behaviour.
        if self.sync.paused()
            && msg.class() == ahl_simkit::MsgClass::CONSENSUS
            && !matches!(
                msg,
                PbftMsg::Transition { .. }
                    | PbftMsg::Crash
                    | PbftMsg::Restart
                    | PbftMsg::TransitionDone { .. }
            )
        {
            self.charge(ctx, SimDuration::from_micros(5));
            return;
        }
        match msg {
            PbftMsg::Request(req) => self.on_request(req, ctx),
            PbftMsg::Relay(req) => self.on_relay(from, req, ctx),
            PbftMsg::Gossip(req) => self.on_gossip(req, ctx),
            PbftMsg::RelayRejected { req_id } => self.on_relay_rejected(req_id, ctx),
            PbftMsg::PrePrepare { block, cert } => {
                let Some(idx) = self.group_index(from) else {
                    return;
                };
                self.on_preprepare(block, cert, idx, ctx);
            }
            PbftMsg::Prepare(v) => self.on_vote(VotePhase::Prepare, v, ctx),
            PbftMsg::Commit(v) => self.on_vote(VotePhase::Commit, v, ctx),
            PbftMsg::RelayPrepare(v) => self.on_relay_vote(VotePhase::Prepare, v, ctx),
            PbftMsg::RelayCommit(v) => self.on_relay_vote(VotePhase::Commit, v, ctx),
            PbftMsg::AggPrepare(cert) | PbftMsg::AggCommit(cert) => {
                let Some(idx) = self.group_index(from) else {
                    return;
                };
                self.on_aggregate(idx, cert, ctx);
            }
            PbftMsg::Checkpoint { vote } => self.on_checkpoint(vote, ctx),
            PbftMsg::ViewChange(vc) => self.on_view_change(vc, ctx),
            PbftMsg::NewView { view, reproposals } => self.on_new_view(view, reproposals, ctx),
            PbftMsg::PoolPull { view } => {
                let Some(idx) = self.group_index(from) else {
                    return;
                };
                self.on_pool_pull(idx, view, ctx);
            }
            PbftMsg::Reply { .. } | PbftMsg::Rejected { .. } => {}
            PbftMsg::Heartbeat { view, exec_seq } => {
                let Some(idx) = self.group_index(from) else {
                    return;
                };
                self.on_heartbeat(idx, view, exec_seq, ctx);
            }
            // State sync is a conversation among committee members: its
            // messages from anyone else are dropped, and a request is
            // answered only to the member that sent it, whatever index
            // its body names.
            PbftMsg::SyncRequest { .. }
            | PbftMsg::ChunkRequest { .. }
            | PbftMsg::SyncManifest { .. }
            | PbftMsg::ChunkData { .. }
            | PbftMsg::SyncTail { .. }
            | PbftMsg::SyncNack { .. }
                if self.group_index(from).is_none() => {}
            PbftMsg::SyncRequest { requester, .. } | PbftMsg::ChunkRequest { requester, .. }
                if self.group_index(from) != Some(requester) || requester == self.me => {}
            PbftMsg::SyncRequest {
                requester,
                have_seq,
                full,
                old_roots,
            } => self.on_sync_request(requester, have_seq, full, old_roots, ctx),
            PbftMsg::SyncManifest {
                cert,
                bits,
                leaves: _,
                sidecar,
                executed,
                view,
                diff,
                diff_base,
            } => self.on_sync_manifest(cert, bits, sidecar, executed, view, diff, diff_base, ctx),
            PbftMsg::ChunkRequest {
                requester,
                seq,
                chunk,
            } => self.on_chunk_request(requester, seq, chunk, ctx),
            PbftMsg::ChunkData {
                seq,
                chunk,
                entries,
                proof,
            } => self.on_chunk_data(seq, chunk, entries, proof, ctx),
            PbftMsg::SyncTail { blocks, view } => self.on_sync_tail(blocks, view, ctx),
            PbftMsg::SyncNack { .. } => self.on_sync_nack(ctx),
            PbftMsg::Transition { controller, rejoin } => {
                self.on_transition(controller, rejoin, ctx)
            }
            PbftMsg::TransitionDone { .. } => {} // consumed by controllers
            PbftMsg::Crash => self.on_crash(ctx),
            PbftMsg::Restart => self.on_restart(ctx),
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = ahl_telemetry::Profiler::span(match kind {
            TIMER_BATCH => "pbft.timer_batch",
            TIMER_VC => "pbft.timer_vc",
            TIMER_HEARTBEAT => "pbft.timer_heartbeat",
            _ => "pbft.timer_sync",
        });
        // While dark, the periodic chains stay alive (each firing re-arms
        // itself) without running any handler logic.
        let dark = self.life.crashed();
        match kind {
            TIMER_BATCH if !dark => self.flush_partial_batch(ctx),
            TIMER_VC if !dark => self.maybe_start_view_change(ctx),
            TIMER_HEARTBEAT if !dark => {
                if self.is_leader() && self.byz.is_none() && !self.sync.paused() {
                    let beat = PbftMsg::Heartbeat {
                        view: self.view,
                        exec_seq: self.exec_seq,
                    };
                    ctx.multicast(self.others(), beat);
                }
            }
            TIMER_BATCH | TIMER_VC | TIMER_HEARTBEAT => {}
            TIMER_SYNC if !dark => return self.on_sync_timer(ctx),
            // A crash cleared the sync run; Restart's begin_sync starts a
            // fresh retry chain — re-arming here would duplicate it.
            _ => return,
        }
        let interval = match kind {
            TIMER_BATCH => self.batcher.timeout(),
            TIMER_VC => self.current_vc_timeout(),
            _ => self.cfg.vc_timeout.mul_f64(0.2),
        };
        ctx.set_timer(interval, kind);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
