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

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;

use ahl_crypto::{Hash, KeyId, KeyRegistry, SigningKey};
use ahl_ledger::{Key, StateSidecar, StateSnapshot, StateStore, Value};
use ahl_mempool::{Admission, BatchBuilder, BatchConfig, Mempool};
use ahl_simkit::{Actor, Ctx, NodeId, Phase, Scope, SimDuration, SimTime};
use ahl_store::{chunk_bits_for, SyncError, SyncSession};
use ahl_tee::{attestation_digest, AttestedLog, LogId, Slot, TeeOp};

use crate::adversary::{equivocation_half, Attack, EquivocationTracker};
use crate::common::{
    stat, BlockExecutor, CryptoMode, ExecutedCache, ExecutedWindow, Request, Stores, VotePhase,
    NATIVE_SIGN, NATIVE_VERIFY,
};
use crate::pbft::config::{
    PbftConfig, ReplyPolicy, COSTS, EXEC_COST_PER_OP, INGEST_COST, PIPELINE_WIDTH,
};
use crate::pbft::cert::{
    enclave_key, logs, CertKind, CheckpointVotes, QuorumCert, COMMIT_LOG, PREPARE_LOG,
    PREPREPARE_LOG,
};
use crate::pbft::durable::{twopc_kind, NodeStore, TwoPcKind, WalRecord};
use crate::pbft::msg::{chunk_entry_bytes, MsgCert, PbftBlock, PbftMsg, ViewChangeMsg, Vote};

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

/// State + executed-request snapshot taken at a checkpoint height; once a
/// certificate forms for that height it becomes the serving source for
/// chunked state sync (chunks must verify against the *certified* root, so
/// they cannot be cut from live, still-mutating state).
///
/// Capture is O(1) in the state size: [`StateStore::snapshot`] hands out a
/// frozen copy-on-write tree handle whose leaves carry the values, so the
/// snapshot serves complete chunks without a deep clone of the state.
/// Retaining several of these is what makes diff sync serveable.
#[derive(Clone)]
struct CkptSnapshot {
    seq: u64,
    snap: Arc<StateSnapshot>,
    executed: ExecutedWindow,
}

/// Requester-side phase of an in-flight state sync.
enum SyncPhase {
    /// Waiting for the server's manifest (or a direct block tail).
    AwaitManifest,
    /// Fetching and verifying chunks against the certified root. Up to
    /// `sync_fanout` chunk requests stay in flight, each to a different
    /// peer in rotation (`inflight` lists the outstanding chunk indices).
    Chunks {
        session: SyncSession<Value>,
        cert: Box<QuorumCert>,
        sidecar: Arc<StateSidecar>,
        executed: ExecutedWindow,
        view: u64,
        inflight: Vec<u32>,
    },
    /// Chunks installed; waiting for the block tail above the certificate.
    AwaitTail,
}

/// An in-flight state-sync exchange (requester side).
struct SyncRun {
    phase: SyncPhase,
    /// Current serving peer (group index); rotated on failure/timeout and
    /// per in-flight chunk request (fan-out).
    peer: usize,
    /// Full re-fetch (shard transition / restart) vs gap catch-up.
    full: bool,
    /// Full fetch into a shard whose state this node recently held: its
    /// old certified root is meaningful and diff sync applies.
    rejoin: bool,
    /// Whether a chunked transfer happened (vs tail-only catch-up).
    chunked: bool,
    /// Whether a diff (incremental) session ran in this exchange.
    diffed: bool,
    /// Diff disabled for the rest of this exchange (a diff install missed
    /// the certified root; the retry must be a full transfer).
    no_diff: bool,
    /// The retained snapshot matching the manifest's `diff_base` — the
    /// base a diff plan's chunks overlay onto. Resolved when the manifest
    /// arrives (the requester advertises its whole retained window; the
    /// server picks any root it also holds).
    anchor: Option<Arc<StateSnapshot>>,
    /// Highest certificate sequence this exchange has committed to.
    /// Manifests below it are refused: peers that are themselves stale
    /// (freshly restarted, still recovering) keep serving their old
    /// certificate, and accepting it would make the exchange oscillate
    /// between targets instead of converging.
    floor_seq: u64,
    /// Consecutive chunk-phase Nacks without progress. One stale peer in
    /// the rotation must not reset the whole session (re-anchoring
    /// discards every verified chunk); only a full rotation's worth of
    /// Nacks — evidence the *committee* moved past our certificate —
    /// forces a re-anchor.
    nack_strikes: u8,
    started: SimTime,
    last_activity: SimTime,
    /// Actors to notify with `TransitionDone` when the sync completes
    /// (overlapping reshard events can each be waiting on this replica).
    notify: Vec<NodeId>,
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

    /// Genesis state (reloaded on a crash/restart before state sync).
    genesis: Arc<Vec<(Key, Value)>>,

    /// Checkpoint votes → certificates (pruning + sync anchoring).
    ckpt: CheckpointVotes,
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
    /// Sequence below which executed instances have been pruned. Kept one
    /// checkpoint interval behind `low_mark` so the committed-block tail
    /// above the previous certificate stays servable.
    insts_floor: u64,
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
    /// In-flight state sync (requester side).
    sync: Option<SyncRun>,
    /// True while a full re-fetch (transition/restart) suspends consensus
    /// participation: no votes, proposals, or relays until sync completes.
    paused: bool,
    /// Dark after a [`PbftMsg::Crash`] until the matching `Restart`: every
    /// message is dropped, timers idle.
    crashed: bool,

    /// View-change votes with arrival times: only fresh votes count toward
    /// quorums, so votes cast by nodes that were briefly cut off long ago
    /// cannot combine into a surprise view change much later.
    vc_votes: HashMap<u64, HashMap<usize, (ahl_simkit::SimTime, ViewChangeMsg)>>,
    vc_backoff: u32,
    last_progress_seq: u64,
    highest_vc_sent: u64,
    /// Last time any peer message arrived (isolation detection: a node
    /// receiving nothing at all is cut off — suspecting the leader is
    /// pointless and a view change could never gather a quorum).
    last_msg_at: ahl_simkit::SimTime,
    /// Consecutive no-progress checks (a view change needs two strikes, so
    /// a single transient stall — rejoining after isolation, state sync in
    /// flight — never triggers one).
    stall_strikes: u8,

    byzantine: bool,
    /// Stale-replay attack state: the previous (prepare, commit) votes,
    /// replayed in place of current ones.
    stale_votes: [Option<Vote>; 2],
    /// Equivocation-collusion state (shared double-signing bookkeeping).
    byz_equiv: EquivocationTracker,
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
    /// Create a replica.
    ///
    /// `group` are the actor ids of the committee (index = group index),
    /// `me` is this replica's group index, `key` its (enclave) signing key
    /// and `registry` the shared verification oracle.
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
        let byzantine = cfg.is_byzantine(me);
        let genesis: Arc<Vec<(Key, Value)>> = Arc::new(genesis.to_vec());
        let mut state = StateStore::new();
        state.load_genesis(&genesis);
        // Real persistence: one node directory per actor id (unique even
        // when several committees share a simulation). The directory is
        // expected to be fresh per run; recovery happens via `Restart`.
        // A directory that cannot even be created/opened is a
        // configuration error (unwritable path, typo): failing loudly
        // beats silently running the whole simulation diskless.
        let store_dir = cfg.data_dir.as_ref().map(|d| d.join(format!("node-{}", group[me])));
        let durable_store = store_dir.as_ref().map(|d| {
            let (store, _, _) = NodeStore::open(d, &cfg.wal)
                .unwrap_or_else(|e| panic!("data_dir {d:?} is unusable: {e}"));
            store
        });
        let (pool, batcher) = fresh_pool(&cfg);
        Replica {
            exec: BlockExecutor {
                committee_id: cfg.committee_id,
                me,
                reporter,
                exec_workers: cfg.exec_workers,
                checker: if byzantine { None } else { cfg.safety.clone() },
            },
            byzantine,
            cfg,
            group,
            me,
            key,
            registry,
            tee: AttestedLog::new(tee_key),
            state,
            view: 0,
            next_seq: 1,
            exec_seq: 0,
            low_mark: 0,
            insts: HashMap::new(),
            pool,
            batcher,
            ingested: HashMap::new(),
            executed_reqs: ExecutedCache::new(),
            genesis,
            ckpt: CheckpointVotes::default(),
            pending_cert: None,
            snapshots: Vec::new(),
            serving: Vec::new(),
            insts_floor: 0,
            durable: None,
            store_dir,
            durable_store,
            sync: None,
            paused: false,
            crashed: false,
            vc_votes: HashMap::new(),
            vc_backoff: 0,
            last_progress_seq: 0,
            highest_vc_sent: 0,
            last_msg_at: ahl_simkit::SimTime::ZERO,
            stall_strikes: 0,
            stale_votes: [None, None],
            byz_equiv: EquivocationTracker::new(),
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

    fn quorum(&self) -> usize {
        self.cfg.quorum()
    }

    fn charge(&self, ctx: &mut Ctx<'_, PbftMsg>, d: SimDuration, exec: bool) {
        let scaled = if self.cfg.cpu_scale == 1.0 {
            d
        } else {
            d.mul_f64(self.cfg.cpu_scale)
        };
        ctx.consume_cpu(scaled);
        ctx.stats().inc(
            if exec { stat::EXEC_CPU_NS } else { stat::CONSENSUS_CPU_NS },
            scaled.as_nanos(),
        );
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
            self.charge(ctx, COSTS.cost(TeeOp::AhlAppend), false);
            if self.cfg.crypto == CryptoMode::Real {
                match self.tee.append(log, Slot { view, seq }, digest) {
                    Ok(att) => Some(MsgCert::Attested(att)),
                    Err(_) => None, // enclave refused (equivocation attempt)
                }
            } else {
                Some(MsgCert::Simulated)
            }
        } else {
            self.charge(ctx, NATIVE_SIGN, false);
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
        self.charge(ctx, NATIVE_VERIFY, false);
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
                    && self.registry.verify(&attestation_digest(log, slot, digest), &att.sig)
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
        led && cert.verify(self.quorum(), self.cert_registry())
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
    fn pool_request(&mut self, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.executed_reqs.contains(req.id) || self.expired(&req, ctx) {
            return;
        }
        let now = ctx.now();
        let _ = self.pool.insert(req, now, ctx.stats());
    }

    fn on_request(&mut self, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        // Client-facing ingest: REST + TLS + signature verification.
        self.charge(ctx, INGEST_COST, false);
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
        if self.paused {
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
        self.charge(ctx, SimDuration::from_micros(10), false);
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
        self.charge(ctx, SimDuration::from_micros(5), false);
        self.pool.remove(req_id);
        self.ingested.remove(&req_id);
    }

    fn on_gossip(&mut self, req: Request, ctx: &mut Ctx<'_, PbftMsg>) {
        // Re-broadcast copy: deduplication + cached-certificate check (the
        // ingest replica already verified the client signature; Hyperledger
        // validates again lazily at execution, charged in exec cost).
        self.charge(ctx, SimDuration::from_micros(20), false);
        self.pool_request(req, ctx);
        self.try_propose(ctx);
    }

    // ---------- proposing ----------

    fn try_propose(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if !self.is_leader() || self.paused {
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
        if self.is_leader() && !self.paused && self.next_seq <= self.exec_seq + PIPELINE_WIDTH {
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
        let hash_cost = COSTS.cost(TeeOp::Sha256).saturating_mul(1 + batch.len() as u64 / 8);
        self.charge(ctx, hash_cost, false);

        if self.byzantine {
            match self.cfg.attack {
                Attack::PaperFlood if !self.cfg.variant.attested() => {
                    // §7.2 equivocating leader: conflicting *sequence
                    // numbers* to different halves.
                    let block_a = Arc::new(PbftBlock::new(view, seq, self.me, batch.clone()));
                    let mut rev = batch;
                    rev.reverse();
                    let block_b = Arc::new(PbftBlock::new(view, seq + 1_000_000, self.me, rev));
                    self.charge(ctx, NATIVE_SIGN, false);
                    for (i, peer) in self.others().into_iter().enumerate() {
                        let block = if i % 2 == 0 { block_a.clone() } else { block_b.clone() };
                        ctx.send(peer, PbftMsg::PrePrepare { block, cert: MsgCert::Simulated });
                    }
                    return;
                }
                Attack::Equivocate => {
                    self.equivocate_propose(batch, view, seq, ctx);
                    return;
                }
                // The remaining attacks strike at votes/checkpoints; a
                // Byzantine leader proposes honestly under them.
                _ => {}
            }
        }

        let block = Arc::new(PbftBlock::new(view, seq, self.me, batch));
        let Some(cert) = self.certify(ctx, PREPREPARE_LOG, view, seq, block.digest) else {
            return;
        };
        let recipients = if self.byzantine && self.cfg.attack == Attack::PaperFlood {
            // Attested Byzantine leader cannot equivocate; the worst it can
            // do is withhold the proposal from half the replicas.
            self.others().into_iter().enumerate().filter(|(i, _)| i % 2 == 0).map(|(_, p)| p).collect()
        } else {
            self.others()
        };
        ctx.multicast(recipients, PbftMsg::PrePrepare { block: block.clone(), cert: cert.clone() });
        // Local application of our own proposal.
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
        let slot = Slot { view: block.view, seq: block.seq };
        if !self.verify_cert(ctx, &cert, PREPREPARE_LOG, from_idx, slot, &block.digest) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        // Hash the batch to validate the digest.
        let hash_cost = COSTS.cost(TeeOp::Sha256).saturating_mul(1 + block.reqs.len() as u64 / 8);
        self.charge(ctx, hash_cost, false);
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
            self.send_prepare(view, seq, digest, ctx);
        } else {
            // Leader: its "prepare" is implicit; in AHLR it seeds the relay
            // aggregation set.
            if self.cfg.variant.leader_aggregation() {
                let inst = self.insts.entry(seq).or_default();
                inst.relay_votes[VotePhase::Prepare as usize].entry(digest).or_default().insert(me);
            }
            self.check_prepared(seq, digest, ctx);
        }
    }

    fn send_prepare(&mut self, view: u64, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(cert) = self.certify(ctx, PREPARE_LOG, view, seq, digest) else {
            return;
        };
        if let Some(inst) = self.insts.get_mut(&seq) {
            inst.sent[VotePhase::Prepare as usize] = true;
            inst.cast(VotePhase::Prepare, digest, self.me, cert.clone());
        }
        let vote = Vote { view, seq, digest, replica: self.me, cert };
        if self.cfg.variant.leader_aggregation() {
            let leader = self.group[self.leader_of(view)];
            ctx.send(leader, PbftMsg::RelayPrepare(vote));
        } else if self.byzantine {
            self.byzantine_vote(vote, VotePhase::Prepare, ctx);
        } else {
            ctx.multicast(self.others(), PbftMsg::Prepare(vote));
        }
        self.check_prepared(seq, digest, ctx);
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
        let (lo, hi) = if x.digest.0 <= y.digest.0 { (x, y) } else { (y, x) };
        self.charge(ctx, NATIVE_SIGN, false);
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
                ctx.send(peer, PbftMsg::PrePrepare { block: (*block).clone(), cert });
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
    fn equivocate_echo(&mut self, view: u64, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some((half, split)) = self.byz_equiv.observe(seq as u128, digest) else {
            return;
        };
        self.charge(ctx, NATIVE_SIGN, false);
        let me = self.me;
        let targets: Vec<NodeId> = (0..self.cfg.n)
            .filter(|g| *g != me && (!split || equivocation_half(*g) == half))
            .map(|g| self.group[g])
            .collect();
        let prepare = Vote { view, seq, digest, replica: me, cert: self.byz_cert(&digest) };
        let commit = Vote { view, seq, digest, replica: me, cert: self.byz_cert(&digest) };
        ctx.multicast(targets.clone(), PbftMsg::Prepare(prepare));
        ctx.multicast(targets, PbftMsg::Commit(commit));
    }

    /// Byzantine vote emission, dispatched by the configured [`Attack`].
    /// The default is the paper's attack: "Byzantine nodes send
    /// conflicting messages (with different sequence numbers) to different
    /// nodes" — equivocate (HL) or withhold (attested), plus a flood of
    /// junk votes at shifted sequence numbers that loads honest queues.
    fn byzantine_vote(&mut self, vote: Vote, phase: VotePhase, ctx: &mut Ctx<'_, PbftMsg>) {
        match self.cfg.attack {
            Attack::PaperFlood => self.paper_flood_vote(vote, phase, ctx),
            // Equivocation votes are emitted by the proposal-echo path;
            // withholders say nothing at all.
            Attack::Equivocate | Attack::WithholdVotes => {}
            Attack::StaleReplay => {
                if let Some(stale) = self.stale_votes[phase as usize].replace(vote) {
                    ctx.stats().inc("adv.stale_replays", 1);
                    // Charge the send like the lockstep engine does, so
                    // attacker CPU accounting is comparable across cells.
                    self.charge(ctx, NATIVE_SIGN, false);
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
            self.charge(ctx, NATIVE_VERIFY, false);
            return true;
        }
        let slot = Slot { view: vote.view, seq: vote.seq };
        self.verify_cert(ctx, &vote.cert, logs(phase).0, vote.replica, slot, &vote.digest)
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
        let Some(inst) = self.insts.get_mut(&seq) else { return true };
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
            self.charge(ctx, SimDuration::from_micros(20), false);
            ctx.stats().inc("consensus.out_of_window", 1);
            return;
        }
        if !self.admit_vote(phase, &vote, ctx) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        let inst = self.insts.entry(vote.seq).or_default();
        inst.cast(phase, vote.digest, vote.replica, vote.cert);
        match phase {
            VotePhase::Prepare => self.check_prepared(vote.seq, vote.digest, ctx),
            VotePhase::Commit => self.check_committed(vote.seq, vote.digest, ctx),
        }
    }

    fn check_prepared(&mut self, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.cfg.variant.leader_aggregation() {
            return; // prepared is signalled by AggPrepare in AHLR
        }
        let quorum = self.quorum();
        // Loop: a failed batch settle evicts forged votes, shrinking the
        // prepare set, so quorum must be re-checked over the survivors.
        // Terminates because each settle failure strictly shrinks the
        // pending pool.
        loop {
            let ready = {
                let Some(inst) = self.insts.get(&seq) else { return };
                let Some(block) = &inst.block else { return };
                block.digest == digest
                    && !inst.sent[VotePhase::Commit as usize]
                    && inst.votes_for(VotePhase::Prepare, &digest) >= quorum
            };
            if !ready {
                return;
            }
            if self.settle_deferred(seq, &digest, ctx) {
                break;
            }
        }
        self.send_commit(seq, digest, ctx);
    }

    fn send_commit(&mut self, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        let view = self.view;
        let Some(cert) = self.certify(ctx, COMMIT_LOG, view, seq, digest) else {
            return;
        };
        if let Some(inst) = self.insts.get_mut(&seq) {
            inst.sent[VotePhase::Commit as usize] = true;
            inst.cast(VotePhase::Commit, digest, self.me, cert.clone());
        }
        let vote = Vote { view, seq, digest, replica: self.me, cert };
        if self.cfg.variant.leader_aggregation() {
            let leader = self.group[self.leader_of(view)];
            if self.leader_of(view) == self.me {
                self.on_relay_vote(VotePhase::Commit, vote, ctx);
            } else {
                ctx.send(leader, PbftMsg::RelayCommit(vote));
            }
        } else if self.byzantine {
            self.byzantine_vote(vote, VotePhase::Commit, ctx);
        } else {
            ctx.multicast(self.others(), PbftMsg::Commit(vote));
        }
        self.check_committed(seq, digest, ctx);
    }

    fn check_committed(&mut self, seq: u64, digest: Hash, ctx: &mut Ctx<'_, PbftMsg>) {
        let quorum = self.quorum();
        // Same settle-at-quorum loop as check_prepared: see the comment
        // there for the termination argument.
        loop {
            let ready = {
                let Some(inst) = self.insts.get(&seq) else { return };
                let Some(block) = &inst.block else { return };
                block.digest == digest
                    && inst.cert.is_none()
                    && inst.votes_for(VotePhase::Commit, &digest) >= quorum
            };
            if !ready {
                return;
            }
            if self.settle_deferred(seq, &digest, ctx) {
                break;
            }
        }
        let Some(inst) = self.insts.get_mut(&seq) else { return };
        let signers = inst.votes[VotePhase::Commit as usize].remove(&digest).unwrap_or_default();
        let cert = QuorumCert { kind: CertKind::Commit, view: inst.view, seq, digest, signers };
        self.commit(cert, ctx);
    }

    /// The block at `cert.seq` committed: keep the certificate with it and
    /// execute what is ready.
    fn commit(&mut self, cert: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(inst) = self.insts.get_mut(&cert.seq) else { return };
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
        let slot = Slot { view: vote.view, seq: vote.seq };
        if !self.verify_cert(ctx, &vote.cert, log, vote.replica, slot, &vote.digest) {
            return;
        }
        let quorum = self.quorum();
        let inst = self.insts.entry(vote.seq).or_default();
        let relayed = inst.relay_votes[phase as usize].entry(vote.digest).or_default();
        relayed.insert(vote.replica);
        if inst.agg_sent[phase as usize] || relayed.len() < quorum {
            return;
        }
        inst.agg_sent[phase as usize] = true;
        let f = self.cfg.f();
        self.charge(ctx, COSTS.cost(TeeOp::MessageAggregation { f }), false);
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
        self.charge(ctx, NATIVE_VERIFY, false);
        let Some(inst) = self.insts.get(&cert.seq) else { return };
        if inst.block.as_ref().is_none_or(|b| b.digest != cert.digest) {
            return;
        }
        let (sent_commit, committed) = (inst.sent[VotePhase::Commit as usize], inst.cert.is_some());
        let CertKind::Aggregate(phase) = cert.kind else { return };
        if from != self.leader_of(cert.view) || !self.verify_qc(&cert) {
            ctx.stats().inc("consensus.invalid_msg", 1);
            return;
        }
        match phase {
            VotePhase::Prepare if !sent_commit => self.send_commit(cert.seq, cert.digest, ctx),
            VotePhase::Commit if !committed => self.commit(cert, ctx),
            _ => {}
        }
    }

    // ---------- execution ----------

    fn try_execute(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        loop {
            if self.crashed {
                return; // an I/O failure mid-execution killed the node
            }
            let next = self.exec_seq + 1;
            let ready = self
                .insts
                .get(&next)
                .map(|i| i.cert.is_some() && !i.executed && i.block.is_some())
                .unwrap_or(false);
            if !ready {
                break;
            }
            let block = {
                let inst = self.insts.get_mut(&next).expect("checked above");
                inst.executed = true;
                inst.block.clone().expect("checked above")
            };
            self.execute_block(&block, ctx);
            if self.crashed {
                return;
            }
            self.exec_seq = next;

            if self.exec_seq.is_multiple_of(self.cfg.checkpoint_interval) {
                self.send_checkpoint(ctx);
            }
            self.release_pending_cert(self.exec_seq, ctx);
        }
        // Leader may have room to propose more now.
        self.try_propose(ctx);
    }

    fn execute_block(&mut self, block: &PbftBlock, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = ahl_telemetry::Profiler::span("pbft.exec");
        // WAL intent record before applying (recovery re-executes it);
        // the 2PC transition journal entries follow as execution decides
        // them, and one group commit below makes the batch durable.
        if let Some(store) = self.durable_store.as_mut() {
            store.log_batch(block);
        }
        let stores = Stores {
            state: &mut self.state,
            executed: &mut self.executed_reqs,
            pool: &mut self.pool,
        };
        // PBFT's own per-request work, in batch order after the shell's
        // `Exec` stamp: 2PC stamps and journal records, client replies.
        let weight = self.exec.commit(block.seq, &block.reqs, stores, ctx, |req, ok, ctx| {
            match &req.op {
                ahl_ledger::Op::Prepare { txid, .. } => ctx.trace(txid.0, Phase::TwoPcPrepare),
                ahl_ledger::Op::Commit { txid } | ahl_ledger::Op::Abort { txid } => {
                    ctx.trace(txid.0, Phase::TwoPcDecide)
                }
                _ => {}
            }
            if ok {
                if let (Some(kind), Some(store), Some(txid)) =
                    (twopc_kind(&req.op), self.durable_store.as_mut(), req.op.txid())
                {
                    store.log_twopc(txid.0, kind);
                }
            }
            if self.cfg.reply_policy == ReplyPolicy::IngestReplica {
                if let Some(client) = self.ingested.remove(&req.id) {
                    ctx.send(client, PbftMsg::Reply { req_id: req.id, committed: ok });
                }
            }
        });
        // Execution cost: chaincode + validation per state access.
        self.charge(ctx, EXEC_COST_PER_OP.saturating_mul(weight as u64), true);
        // Group commit: one write+policy-fsync for the batch record plus
        // its 2PC journal. An I/O failure here is a crash — the node goes
        // dark and recovers from whatever reached the disk.
        if self.durable_store.is_some() {
            let scope = Scope::replica(self.cfg.committee_id, self.me);
            ctx.stats().inc_scoped(stat::WAL_BATCHES, scope, 1);
            ctx.trace(block.seq, Phase::WalCommit);
            self.charge(ctx, SimDuration::from_micros(5), false);
            let failed =
                self.durable_store.as_mut().map(|s| s.commit().is_err()).unwrap_or(false);
            if failed {
                self.io_crash(ctx);
            }
        }
    }

    /// A durable write failed (real I/O error or injected kill): the node
    /// treats it as its own crash — no half-persisted state is ever
    /// trusted, and the next `Restart` recovers from the disk image.
    fn io_crash(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc(stat::WAL_IO_CRASHES, 1);
        self.durable_store = None;
        self.crashed = true;
        self.paused = true;
        self.sync = None;
    }

    // ---------- checkpoints ----------

    /// At a checkpoint height: snapshot the state (so certified chunks can
    /// later be served from exactly the certified content), then broadcast
    /// a signed vote over `(height, state_root)`.
    fn send_checkpoint(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
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
        if self.byzantine && self.cfg.attack == Attack::BogusCheckpoint {
            // Vote for a root nobody holds: a validly signed lie. Honest
            // votes must still quorum on the true root, and the bogus one
            // must never certify (the tracker groups votes by root).
            root.0[0] ^= 0xff;
            ctx.stats().inc("adv.bogus_ckpt_votes", 1);
        }
        // O(1) in the state size: a frozen tree handle, not a deep clone —
        // and O(one interval) in the executed-id window: the ids since the
        // last capture are sealed, every earlier segment is shared.
        self.snapshots.push(CkptSnapshot {
            seq,
            snap: Arc::new(self.state.snapshot()),
            executed: self.executed_reqs.window(),
        });
        if self.snapshots.len() > 2 {
            self.snapshots.remove(0);
        }
        self.charge(ctx, NATIVE_SIGN, false);
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
        let quorum = self.quorum();
        let Some(cert) = self.ckpt.record(vote, quorum) else { return };
        if cert.seq > self.exec_seq && cert.seq <= self.exec_seq + PIPELINE_WIDTH {
            self.pending_cert = Some(cert);
            return;
        }
        self.release_pending_cert(cert.seq, ctx);
        self.apply_stable_checkpoint(cert, ctx);
    }

    /// Apply the held certificate if it is at or below `upto`. One that a
    /// state transfer has already overtaken is dropped.
    fn release_pending_cert(&mut self, upto: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(cert) = self.pending_cert.take_if(|c| c.seq <= upto) else { return };
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
        let pruned_exec = self.executed_reqs.checkpoint_prune(ctx.now(), self.cfg.request_ttl);
        ctx.stats().inc(stat::EXECUTED_PRUNED, pruned_exec as u64);
        if self.cfg.crypto == CryptoMode::Real {
            self.tee.truncate(cert.seq);
        }
        if let Some(snap) = self.snapshots.iter().find(|s| s.seq == cert.seq).cloned() {
            self.serving.push((cert.clone(), snap.clone()));
            // The certified own snapshot doubles as the durable (on-disk)
            // checkpoint a crash cannot erase.
            self.durable = Some((cert.clone(), snap.clone()));
            self.trim_serving_window();
            // With real persistence, "durable" means the disk says so:
            // pages (deduplicated against earlier checkpoints), manifest
            // swap, WAL compaction.
            self.persist_durable_checkpoint(ctx);
        }
        self.snapshots.retain(|s| s.seq > cert.seq);
    }

    /// Write the `durable` checkpoint through the node store, charging the
    /// (modelled) serialization cost; an I/O failure crashes the node.
    fn persist_durable_checkpoint(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.durable_store.is_none() {
            return;
        }
        let Some((cert, snap)) = self.durable.clone() else { return };
        let prof = ahl_telemetry::Profiler::span("wal.checkpoint");
        let result = self
            .durable_store
            .as_mut()
            .expect("checked above")
            .persist_checkpoint(&cert, &snap.snap, &snap.executed);
        drop(prof);
        match result {
            Ok(io) => {
                let stats = io.pages;
                ctx.stats().inc(stat::WAL_CHECKPOINTS, 1);
                ctx.stats().inc(stat::WAL_PAGES_WRITTEN, stats.pages_written);
                ctx.stats().inc(stat::WAL_PAGES_SHARED, stats.subtrees_shared);
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
                    false,
                );
            }
            Err(_) => self.io_crash(ctx),
        }
    }

    /// Trim the serving window to the newest `snapshot_retention`
    /// certificates (at least 2), evicting oldest first.
    fn trim_serving_window(&mut self) {
        // Priced on its own: dropping a retired snapshot releases its root
        // in the state tree's slab, walking and freeing only the nodes no
        // newer snapshot or the live tree still counts; their slots are
        // the next writes' allocations.
        let _prof = ahl_telemetry::Profiler::span("pbft.retire");
        while self.serving.len() > self.cfg.snapshot_retention.max(2) {
            self.serving.remove(0);
        }
    }

    fn on_checkpoint(&mut self, vote: QuorumCert, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, NATIVE_VERIFY, false);
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

    // ---------- view change ----------

    fn current_vc_timeout(&self) -> SimDuration {
        self.cfg.vc_timeout.saturating_mul(1u64 << self.vc_backoff.min(5))
    }

    fn maybe_start_view_change(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.paused {
            return; // not voting: a view change can neither help nor pass
        }
        let pending_work = !self.pool.is_empty()
            || self
                .insts
                .iter()
                .any(|(s, i)| *s > self.exec_seq && !i.executed && i.block.is_some());
        let progressed = self.exec_seq > self.last_progress_seq;
        self.last_progress_seq = self.exec_seq;
        if progressed {
            self.vc_backoff = 0;
            self.stall_strikes = 0;
            return;
        }
        if !pending_work || self.byzantine {
            self.stall_strikes = 0;
            return;
        }
        // Cut-off detection: if nothing at all arrived for half a timeout
        // we are isolated (e.g. a transitioning node fetching state) — a
        // dead *leader* still leaves peer traffic flowing, so this never
        // masks a real leader failure. A view change while cut off would be
        // futile and, worse, its stale votes churn the committee after
        // healing.
        let cutoff = SimDuration::from_nanos(self.current_vc_timeout().as_nanos() / 2);
        if ctx.now().since(self.last_msg_at) >= cutoff {
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
        self.stall_strikes = self.stall_strikes.saturating_add(1);
        if self.stall_strikes < 2 {
            return;
        }
        self.stall_strikes = 0;
        let target = (self.view + 1).max(self.highest_vc_sent + 1);
        self.start_view_change(target, ctx);
        self.vc_backoff = (self.vc_backoff + 1).min(5);
    }

    /// Evidence of having fallen behind the committee: a later instance
    /// committed while the next-to-execute one cannot, or proposals exist
    /// far beyond our pipeline window (the leader only proposes within
    /// `pipeline_width` of *its* execution point, so seeing proposals past
    /// ours means our execution point is stale). Either way progress needs
    /// state transfer, not a view change.
    fn has_execution_gap(&self) -> bool {
        let next = self.exec_seq + 1;
        let next_committed = self
            .insts
            .get(&next)
            .is_some_and(|i| i.cert.is_some());
        if next_committed {
            return false;
        }
        let horizon = next + PIPELINE_WIDTH;
        self.insts
            .iter()
            .any(|(s, i)| (*s > next && i.cert.is_some()) || (*s > horizon && i.block.is_some()))
    }

    fn request_state_sync(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.sync.is_some() {
            return; // one exchange at a time; the sync timer handles stalls
        }
        ctx.stats().inc("consensus.state_sync_requests", 1);
        self.begin_sync(false, false, None, ctx);
    }

    // ---------- state sync: requester side ----------

    /// Open a sync exchange. `full` forces a complete chunked re-fetch
    /// (shard transition / restart); otherwise the server decides between a
    /// block tail and a chunked transfer based on how far behind we are.
    /// `rejoin` marks a full fetch into state this node recently held, so
    /// its old certified root is meaningful and diff sync applies.
    fn begin_sync(
        &mut self,
        full: bool,
        rejoin: bool,
        notify: Option<NodeId>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let peer = next_sync_peer(self.cfg.n, self.me, self.me);
        let now = ctx.now();
        self.sync = Some(SyncRun {
            phase: SyncPhase::AwaitManifest,
            peer,
            full,
            rejoin,
            chunked: false,
            diffed: false,
            no_diff: false,
            anchor: None,
            floor_seq: 0,
            nack_strikes: 0,
            started: now,
            last_activity: now,
            notify: notify.into_iter().collect(),
        });
        ctx.trace(self.exec_seq, Phase::SyncStart);
        self.send_sync_request(ctx);
        ctx.set_timer(self.sync_retry_interval(), TIMER_SYNC);
    }

    /// Every certified root this node retains a snapshot of, newest
    /// first: the serving window plus the durable checkpoint, bounded by
    /// the retention depth. Advertised in `SyncRequest` so a server can
    /// anchor a diff plan on *any* root the two nodes share — not just
    /// the requester's newest (a freshly restarted server's window may
    /// hold only an older one).
    fn advertised_roots(&self) -> Vec<Hash> {
        let mut roots: Vec<Hash> = Vec::new();
        for (cert, _) in self.serving.iter().rev().chain(&self.durable) {
            if !roots.contains(&cert.digest) {
                roots.push(cert.digest);
            }
        }
        roots.truncate(self.cfg.snapshot_retention.max(2));
        roots
    }

    /// (Re)issue the `SyncRequest` to the current peer. Diff
    /// eligibility: enabled, not already fallen back, and the retained
    /// roots are meaningful for the target state (any gap catch-up, or a
    /// full fetch re-joining recently-held state). The diff anchor itself
    /// is resolved when the manifest answers — whichever advertised root
    /// the server diffed against. After the install, the request is for
    /// the tail: a gap catch-up (if a newer certificate formed meanwhile,
    /// the server re-anchors us with a near-empty diff).
    fn send_sync_request(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(run) = self.sync.as_ref() else { return };
        let tail = matches!(run.phase, SyncPhase::AwaitTail);
        let eligible = self.cfg.diff_sync && !run.no_diff && (tail || !run.full || run.rejoin);
        let old_roots = if eligible { self.advertised_roots() } else { Vec::new() };
        let (peer, full) = (run.peer, run.full && !tail);
        ctx.send(
            self.group[peer],
            PbftMsg::SyncRequest {
                requester: self.me,
                have_seq: self.exec_seq,
                full,
                old_roots,
            },
        );
    }

    fn sync_retry_interval(&self) -> SimDuration {
        self.cfg.vc_timeout
    }


    #[allow(clippy::too_many_arguments)]
    fn on_sync_manifest(
        &mut self,
        cert: QuorumCert,
        bits: u8,
        sidecar: Arc<StateSidecar>,
        executed: ExecutedWindow,
        view: u64,
        diff: Option<Arc<Vec<u32>>>,
        diff_base: Option<Hash>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some(run) = self.sync.as_mut() else { return };
        // A manifest is valid in `AwaitManifest`, and also in `AwaitTail`:
        // if a newer certificate formed while we synced, the server cannot
        // serve our tail any more and re-anchors us on the newer one
        // (progress stays monotone — each round lands on a later cert).
        if !matches!(run.phase, SyncPhase::AwaitManifest | SyncPhase::AwaitTail) {
            return;
        }
        // Verify the certificate: quorum of distinct signers over the
        // advertised (seq, root) — the trust anchor for every chunk.
        let quorum = self.cfg.quorum();
        self.charge(ctx, NATIVE_VERIFY.saturating_mul(cert.signers.len() as u64), false);
        if cert.kind != CertKind::Checkpoint || !cert.verify(quorum, self.cert_registry()) {
            ctx.stats().inc(stat::SYNC_BAD_CERTS, 1);
            let run = self.sync.as_mut().expect("checked above");
            run.peer = next_sync_peer(self.cfg.n, self.me, run.peer);
            return; // retry (rotated peer) via the sync timer
        }
        // Monotonicity: a stale peer (itself mid-recovery) may answer with
        // a certificate older than the one this exchange already targets.
        // Accepting it would regress the transfer — refuse and rotate.
        if cert.seq < self.sync.as_ref().map_or(0, |r| r.floor_seq) {
            ctx.stats().inc(stat::SYNC_STALE_MANIFESTS, 1);
            let run = self.sync.as_mut().expect("checked above");
            run.peer = next_sync_peer(self.cfg.n, self.me, run.peer);
            return;
        }
        // A full first-round fetch accepts any certificate (the node might
        // even be ahead of it on the old shard's timeline); re-anchors and
        // gap syncs only accept certificates ahead of the execution point.
        let first_round = matches!(
            self.sync.as_ref().map(|r| &r.phase),
            Some(SyncPhase::AwaitManifest)
        );
        let have_seq = if self.sync.as_ref().is_some_and(|r| r.full) && first_round {
            0
        } else {
            self.exec_seq
        };
        // An incremental plan is only usable when we still retain a
        // snapshot whose root is exactly the one the server diffed
        // against (we advertised several; the server picked one — and a
        // late manifest answering an earlier advertisement is fine as
        // long as that base is still retained: content-addressed roots
        // identify the overlay base unambiguously). Anything else
        // downgrades to a full session.
        let anchor_snap: Option<Arc<StateSnapshot>> = diff_base
            .and_then(|root| self.retained_snapshot(&root).cloned())
            .filter(|_| diff.is_some());
        let usable_diff = diff.filter(|_| anchor_snap.is_some());
        let session = match match &usable_diff {
            Some(chunks) => SyncSession::new_diff(cert.seq, cert.digest, bits, chunks, have_seq),
            None => SyncSession::new_full(cert.seq, cert.digest, bits, have_seq),
        } {
            Ok(s) => s,
            Err(_) if first_round => {
                // Stale certificate on the opening exchange: nothing newer
                // than what we hold — the gap has closed on its own.
                ctx.stats().inc(stat::SYNC_BAD_CERTS, 1);
                self.finish_sync(ctx);
                return;
            }
            Err(_) => {
                // A late/duplicate manifest for the cert we just installed
                // (AwaitTail): ignore it and keep waiting for the tail —
                // treating it as completion would skip the block replay.
                return;
            }
        };
        let run = self.sync.as_mut().expect("checked above");
        run.chunked = true;
        run.last_activity = ctx.now();
        run.floor_seq = session.seq();
        run.nack_strikes = 0;
        if session.is_diff() {
            run.diffed = true;
            run.anchor = anchor_snap;
            ctx.stats().inc(stat::SYNC_DIFFS, 1);
        } else {
            run.anchor = None;
        }
        let done = session.is_complete();
        let (cert, inflight) = (Box::new(cert), Vec::new());
        run.phase = SyncPhase::Chunks { session, cert, sidecar, executed, view, inflight };
        if done {
            // Empty diff: the retained snapshot already matches the
            // certified root — skip straight to the install + tail.
            self.install_synced_state(ctx);
        } else {
            self.pump_chunk_requests(ctx);
        }
    }

    /// Keep up to `sync_fanout` chunk requests outstanding, each to a
    /// different peer in rotation. Chunks verify independently against the
    /// certified root, so order does not matter and slow peers only stall
    /// their own slot.
    fn pump_chunk_requests(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let fanout = self.cfg.sync_fanout.clamp(1, self.cfg.n.saturating_sub(1).max(1));
        let me = self.me;
        let n = self.cfg.n;
        let Some(run) = self.sync.as_mut() else { return };
        let SyncPhase::Chunks { session, inflight, .. } = &mut run.phase else { return };
        let seq = session.seq();
        let mut sends: Vec<(usize, u32)> = Vec::new();
        for chunk in session.missing_chunks() {
            if inflight.len() >= fanout {
                break;
            }
            if inflight.contains(&chunk) {
                continue;
            }
            run.peer = next_sync_peer(n, me, run.peer);
            inflight.push(chunk);
            sends.push((run.peer, chunk));
        }
        for (peer, chunk) in sends {
            ctx.send(self.group[peer], PbftMsg::ChunkRequest { requester: me, seq, chunk });
        }
    }

    fn on_chunk_data(
        &mut self,
        seq: u64,
        chunk: u32,
        entries: Arc<Vec<(Key, Value)>>,
        proof: Arc<Vec<Hash>>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let now = ctx.now();
        let bytes: usize = entries.iter().map(|(k, v)| chunk_entry_bytes(k, v)).sum();
        let (n, me) = (self.cfg.n, self.me);
        let Some(run) = self.sync.as_mut() else { return };
        let SyncPhase::Chunks { session, inflight, .. } = &mut run.phase else { return };
        if session.seq() != seq || session.is_fetched(chunk) {
            // Wrong anchor, or a duplicate delivery (timeout retry raced
            // the original): nothing to verify, count, or charge.
            return;
        }
        run.last_activity = now;
        // Verification cost: hash every leaf + fold the proof.
        let verify_cost = COSTS.cost(TeeOp::Sha256).saturating_mul(1 + entries.len() as u64)
            + SimDuration::from_nanos((bytes / 8) as u64);
        enum Outcome {
            Done,
            More,
            Retry(usize),
            Ignore,
        }
        let outcome = match session.accept_chunk(chunk, (*entries).clone(), &proof) {
            Ok(done) => {
                inflight.retain(|c| *c != chunk);
                // Progress: the Nack strike ladder only counts *consecutive*
                // failures — one stale peer in the rotation must not
                // accumulate strikes across an otherwise healthy transfer.
                run.nack_strikes = 0;
                if done {
                    Outcome::Done
                } else {
                    Outcome::More
                }
            }
            Err(SyncError::BadProof { .. }) => {
                // Re-request the same chunk from a different peer: the
                // session did not advance (resumable transfer). The chunk
                // stays in `inflight` so the pump keeps its fan-out slot.
                run.peer = next_sync_peer(n, me, run.peer);
                Outcome::Retry(run.peer)
            }
            // Duplicate or out-of-plan delivery: ignore.
            Err(_) => Outcome::Ignore,
        };
        match outcome {
            Outcome::Done => {
                self.charge(ctx, verify_cost, false);
                let scope = Scope::committee(self.cfg.committee_id);
                ctx.stats().inc_scoped(stat::SYNC_BYTES, scope, bytes as u64);
                self.install_synced_state(ctx);
            }
            Outcome::More => {
                self.charge(ctx, verify_cost, false);
                let scope = Scope::committee(self.cfg.committee_id);
                ctx.stats().inc_scoped(stat::SYNC_BYTES, scope, bytes as u64);
                self.pump_chunk_requests(ctx);
            }
            Outcome::Retry(peer) => {
                self.charge(ctx, verify_cost, false);
                ctx.stats().inc(stat::SYNC_PROOF_FAILURES, 1);
                ctx.send(
                    self.group[peer],
                    PbftMsg::ChunkRequest { requester: self.me, seq, chunk },
                );
            }
            Outcome::Ignore => {}
        }
    }

    /// All planned chunks verified: swap in the rebuilt state at the
    /// certified height, then fetch the block tail above it. A full plan
    /// rebuilds from the verified entries alone; a diff plan overlays the
    /// verified chunks onto the retained anchor snapshot and *must* land
    /// exactly on the certified root — a mismatch (server lied about the
    /// changed-chunk set) falls back to a full transfer.
    fn install_synced_state(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let mut run = self.sync.take().expect("install follows a live session");
        let SyncPhase::Chunks { session, cert, sidecar, executed, view, .. } =
            std::mem::replace(&mut run.phase, SyncPhase::AwaitTail)
        else {
            unreachable!("install follows the chunk phase")
        };
        let cert = *cert;
        let is_diff = session.is_diff();
        let bits = session.bits();
        let chunks = session.into_verified();
        let fetched: u64 = chunks.iter().map(|(_, e)| e.len() as u64).sum();
        // Rebuild cost: one leaf hash per *fetched* entry plus tree
        // construction — a diff install reuses the anchor's shared tree and
        // only pays for the overlaid chunks.
        self.charge(ctx, COSTS.cost(TeeOp::Sha256).saturating_mul(1 + fetched), false);
        let mut state = if is_diff {
            let anchor = run.anchor.as_ref().expect("diff session kept its anchor");
            let mut base = StateStore::from_snapshot(anchor);
            base.apply_diff(bits, &chunks);
            if base.state_digest() != cert.digest {
                // The changed-chunk report did not cover every difference:
                // the merged state misses the certified root. Nothing
                // unverified was installed — restart the exchange as a
                // full transfer.
                ctx.stats().inc(stat::SYNC_DIFF_FALLBACKS, 1);
                run.phase = SyncPhase::AwaitManifest;
                run.no_diff = true;
                run.peer = next_sync_peer(self.cfg.n, self.me, run.peer);
                run.last_activity = ctx.now();
                self.sync = Some(run);
                self.send_sync_request(ctx);
                return;
            }
            base
        } else {
            StateStore::from_entries(chunks.into_iter().flat_map(|(_, e)| e).collect())
        };
        state.install_sidecar(&sidecar);
        debug_assert_eq!(state.state_digest(), cert.digest, "chunks verified against root");
        self.state = state;
        self.executed_reqs = ExecutedCache::from_window(&executed, ctx.now());
        if !self.byzantine {
            if let Some(ck) = &self.cfg.safety {
                // Installed certified state replaces the execution
                // history: a fresh exactly-once lineage begins here.
                ck.record_reset(self.cfg.committee_id, self.me);
            }
        }
        // The node now *holds* certified state at `cert`: register it as a
        // servable snapshot and as the durable checkpoint, so a follow-up
        // sync (or the next crash) anchors here instead of at whatever
        // certificate predated this transfer.
        let installed = CkptSnapshot {
            seq: cert.seq,
            snap: Arc::new(self.state.snapshot()),
            executed: executed.clone(),
        };
        self.serving.push((cert.clone(), installed.clone()));
        self.durable = Some((cert.clone(), installed));
        self.trim_serving_window();
        // Installed certified state is the new durable checkpoint: put it
        // on disk before resuming (a crash right after install must
        // recover here, not at the pre-crash checkpoint).
        self.persist_durable_checkpoint(ctx);
        if self.crashed {
            return; // the persist failed; the node is dark now
        }
        self.exec_seq = cert.seq;
        self.low_mark = cert.seq;
        if run.full {
            // Fresh shard state: every local instance refers to the old
            // timeline (including ones marked executed above the cert), and
            // the proposal counter restarts at the certified height — the
            // new committee's history *is* the certificate; anything the
            // old timeline held above it is re-ordered from the pools.
            self.insts.clear();
            self.next_seq = cert.seq + 1;
        } else {
            self.insts.retain(|s, _| *s > cert.seq);
            self.next_seq = self.next_seq.max(cert.seq + 1);
        }
        self.ckpt.adopt(cert.seq);
        if view > self.view {
            self.enter_view(view, ctx);
        }
        // Drop pooled requests that executed remotely.
        let ex = std::mem::take(&mut self.executed_reqs);
        self.pool.retain(|r| !ex.contains(r.id));
        self.executed_reqs = ex;
        // Catch up the blocks committed above the certificate.
        run.last_activity = ctx.now();
        self.sync = Some(run);
        self.send_sync_request(ctx);
    }

    /// A block tail: each block executes only once its commit
    /// certificate verifies against the digest recomputed from its
    /// contents. The first that does not refuses the rest of the tail
    /// (and the view it names); the sync timer asks the next peer.
    fn on_sync_tail(
        &mut self,
        blocks: Vec<(Arc<PbftBlock>, QuorumCert)>,
        view: u64,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some(run) = self.sync.as_mut() else { return };
        if !matches!(run.phase, SyncPhase::AwaitTail | SyncPhase::AwaitManifest) {
            return;
        }
        run.last_activity = ctx.now();
        for (block, cert) in blocks {
            if block.seq == self.exec_seq + 1 {
                let digest =
                    PbftBlock::compute_digest(block.view, block.seq, block.proposer, &block.reqs);
                let kind = matches!(cert.kind, CertKind::Commit | CertKind::Aggregate(VotePhase::Commit));
                let proven = kind
                    && (cert.view, cert.seq, cert.digest) == (block.view, block.seq, digest)
                    && self.verify_qc(&cert);
                if !proven {
                    ctx.stats().inc(stat::SYNC_BAD_CERTS, 1);
                    if let Some(run) = self.sync.as_mut() {
                        run.peer = next_sync_peer(self.cfg.n, self.me, run.peer);
                    }
                    self.send_sync_request(ctx);
                    return;
                }
                self.execute_block(&block, ctx);
                if self.crashed {
                    return; // I/O failure while journaling the tail
                }
                self.exec_seq = block.seq;
                // The tail crosses checkpoint heights like normal
                // execution does: snapshot and vote, or this replica would
                // neither contribute to those certificates nor be able to
                // serve chunks at them.
                if self.exec_seq.is_multiple_of(self.cfg.checkpoint_interval) {
                    self.send_checkpoint(ctx);
                }
            }
        }
        if view > self.view {
            self.enter_view(view, ctx);
        }
        self.finish_sync(ctx);
    }

    fn on_sync_nack(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        enum Act {
            Finish,
            Idle,
            Pump,
            Reanchor,
        }
        let (n, me, now) = (self.cfg.n, self.me, ctx.now());
        let act = {
            let Some(run) = self.sync.as_mut() else { return };
            match &mut run.phase {
                // Nothing above the certificate (or we were already
                // current).
                SyncPhase::AwaitTail => Act::Finish,
                // Server cannot serve a manifest: rotate and retry via
                // the sync timer — unless a gap catch-up no longer has a
                // gap (normal traffic caught us up while we waited).
                SyncPhase::AwaitManifest => {
                    run.peer = next_sync_peer(n, me, run.peer);
                    if !run.full {
                        Act::Finish // conditional: only if the gap closed
                    } else {
                        Act::Idle
                    }
                }
                // A peer cannot serve chunks at our certificate. Either
                // that one peer is stale (freshly restarted, serving only
                // its own old snapshot) — strike it, rotate, and re-issue
                // the outstanding requests elsewhere — or the *committee*
                // has rotated the snapshot away (cert advanced), which a
                // full rotation's worth of consecutive Nacks evidences:
                // only then re-anchor on a fresh manifest (discarding the
                // session's verified chunks). Without the strike ladder,
                // one stale peer in the fan-out rotation could reset the
                // transfer forever.
                SyncPhase::Chunks { inflight, .. } => {
                    run.nack_strikes = run.nack_strikes.saturating_add(1);
                    run.peer = next_sync_peer(n, me, run.peer);
                    run.last_activity = now;
                    if (run.nack_strikes as usize) < n.saturating_sub(1).max(2) {
                        inflight.clear();
                        Act::Pump
                    } else {
                        run.nack_strikes = 0;
                        run.phase = SyncPhase::AwaitManifest;
                        Act::Reanchor
                    }
                }
            }
        };
        match act {
            Act::Finish => {
                let tail_phase = matches!(
                    self.sync.as_ref().map(|r| &r.phase),
                    Some(SyncPhase::AwaitTail)
                );
                if tail_phase || !self.has_execution_gap() {
                    self.finish_sync(ctx);
                }
            }
            Act::Idle => {}
            Act::Pump => self.pump_chunk_requests(ctx),
            Act::Reanchor => {
                ctx.stats().inc(stat::SYNC_REANCHORS, 1);
                self.send_sync_request(ctx);
            }
        }
    }

    /// Sync exchange complete: account for it, resume participation, and
    /// notify the transition controller if one is waiting.
    fn finish_sync(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(run) = self.sync.take() else { return };
        ctx.trace(self.exec_seq, Phase::SyncDone);
        if run.chunked {
            let elapsed = ctx.now().since(run.started);
            let scope = Scope::committee(self.cfg.committee_id);
            ctx.stats().inc_scoped(stat::SYNC_COMPLETED, scope, 1);
            ctx.stats().record_latency_scoped(stat::SYNC_DURATION, scope, elapsed);
        } else {
            ctx.stats().inc(stat::SYNC_TAILS, 1);
        }
        self.paused = false;
        self.stall_strikes = 0;
        for controller in run.notify {
            ctx.send(controller, PbftMsg::TransitionDone { replica: self.me });
        }
        // Requests pooled while away: push the whole backlog toward the
        // current leader (bounded only by a generous cap) — this is the
        // post-recovery drain the reshard experiment measures.
        if self.cfg.variant.relay_to_leader() && !self.is_leader() {
            let leader = self.group[self.leader_of(self.view)];
            for req in self.pool.iter_fifo().take(4096) {
                ctx.send(leader, PbftMsg::Relay(req.clone()));
            }
        }
        self.try_execute(ctx);
    }

    fn on_sync_timer(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        enum Act {
            Idle,
            Request,
            Pump,
        }
        let retry_after = self.sync_retry_interval().saturating_mul(2);
        let (n, me) = (self.cfg.n, self.me);
        let act = match self.sync.as_mut() {
            None => return,
            Some(run) if ctx.now().since(run.last_activity) >= retry_after => {
                run.peer = next_sync_peer(n, me, run.peer);
                run.last_activity = ctx.now();
                match &mut run.phase {
                    SyncPhase::AwaitManifest | SyncPhase::AwaitTail => Act::Request,
                    // Outstanding chunk requests went unanswered: forget
                    // the in-flight set and re-issue across rotated peers.
                    SyncPhase::Chunks { inflight, .. } => {
                        inflight.clear();
                        Act::Pump
                    }
                }
            }
            Some(_) => Act::Idle,
        };
        match act {
            Act::Idle => {}
            Act::Request => self.send_sync_request(ctx),
            Act::Pump => self.pump_chunk_requests(ctx),
        }
        ctx.set_timer(self.sync_retry_interval(), TIMER_SYNC);
    }

    // ---------- state sync: server side ----------

    /// `requester` is the sender's own group index (checked at dispatch).
    fn on_sync_request(
        &mut self,
        requester: usize,
        have_seq: u64,
        full: bool,
        old_roots: Vec<Hash>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        self.charge(ctx, SimDuration::from_micros(20), false);
        let to = self.group[requester];
        // A transitioning node serves manifests and chunks (its certified
        // snapshot stays valid) but never a block tail: everything it
        // executed above the certificate belongs to the old shard's
        // timeline, which the transition discards. Serving it would fork a
        // swap-all committee between old and re-ordered history.
        if !full && !self.paused {
            if self.exec_seq <= have_seq {
                ctx.send(to, PbftMsg::SyncNack { have_seq });
                return;
            }
            // Recent gap: serve the committed blocks directly (executed
            // instances are retained above the previous stable checkpoint).
            if have_seq >= self.insts_floor {
                let blocks: Option<Vec<(Arc<PbftBlock>, QuorumCert)>> = (have_seq + 1
                    ..=self.exec_seq)
                    .map(|s| {
                        let inst = self.insts.get(&s).filter(|i| i.executed)?;
                        Some((inst.block.clone()?, inst.cert.clone()?))
                    })
                    .collect();
                if let Some(mut blocks) = blocks {
                    if self.byzantine && self.cfg.attack == Attack::ForgeTail {
                        forge_tail(&mut blocks);
                    }
                    let bytes: usize = blocks.iter().map(|(b, _)| b.wire_size()).sum();
                    self.charge(ctx, SimDuration::from_nanos((bytes / 8) as u64), false);
                    ctx.send(to, PbftMsg::SyncTail { blocks, view: self.view });
                    return;
                }
            }
        }
        // Deep gap or forced full fetch: anchor a chunked transfer at the
        // latest certified snapshot.
        match self.serving.last() {
            Some((cert, snap)) if full || cert.seq > have_seq => {
                let bits = chunk_bits_for(snap.snap.len(), self.cfg.sync_chunk_target);
                // Incremental plan: if *any* advertised root (newest
                // first) is one this node still retains a snapshot of,
                // report only the chunks that changed since. Retention
                // covers the serving window (`snapshot_retention` certs)
                // plus the durable checkpoint; no shared root falls back
                // to a full plan.
                let (diff, diff_base): (Option<Arc<Vec<u32>>>, Option<Hash>) = if self
                    .cfg
                    .diff_sync
                {
                    match old_roots.iter().find(|r| self.retained_snapshot(r).is_some()) {
                        Some(oroot) => {
                            let old = self.retained_snapshot(oroot).expect("found above");
                            (
                                Some(Arc::new(old.smt().diff_chunks(snap.snap.smt(), bits))),
                                Some(*oroot),
                            )
                        }
                        None => (None, None),
                    }
                } else {
                    (None, None)
                };
                let sidecar = Arc::new(snap.snap.sidecar().clone());
                // Diff computation walks both trees' chunk roots (hash
                // compares only — shared subtrees never hash again).
                let serve_cost = SimDuration::from_micros(50)
                    + SimDuration::from_nanos(
                        diff.as_ref().map_or(0, |_| (1u64 << bits) * 50),
                    );
                self.charge(ctx, serve_cost, false);
                ctx.send(
                    to,
                    PbftMsg::SyncManifest {
                        cert: cert.clone(),
                        bits,
                        leaves: snap.snap.len() as u64,
                        sidecar,
                        executed: snap.executed.clone(),
                        view: self.view,
                        diff,
                        diff_base,
                    },
                );
            }
            _ => ctx.send(to, PbftMsg::SyncNack { have_seq }),
        }
    }

    /// A retained frozen snapshot whose root is exactly `root`, if any:
    /// searched through the serving window, the not-yet-certified own
    /// snapshots, and the durable checkpoint.
    fn retained_snapshot(&self, root: &Hash) -> Option<&Arc<StateSnapshot>> {
        self.serving
            .iter()
            .map(|(_, s)| s)
            .chain(self.snapshots.iter())
            .chain(self.durable.iter().map(|(_, s)| s))
            .find(|s| s.snap.root() == *root)
            .map(|s| &s.snap)
    }

    /// `requester` is the sender's own group index (checked at dispatch).
    fn on_chunk_request(&mut self, requester: usize, seq: u64, chunk: u32, ctx: &mut Ctx<'_, PbftMsg>) {
        let to = self.group[requester];
        match self.serving.iter().find(|(cert, _)| cert.seq == seq) {
            Some((_, snap)) => {
                let bits = chunk_bits_for(snap.snap.len(), self.cfg.sync_chunk_target);
                if chunk >= 1u32 << bits {
                    ctx.send(to, PbftMsg::SyncNack { have_seq: seq });
                    return;
                }
                // The frozen snapshot carries keys *and* values: the chunk
                // is cut straight from the certified tree.
                let mut entries: Vec<(Key, Value)> = snap.snap.chunk_entries(chunk, bits);
                if self.byzantine {
                    // A Byzantine server corrupts what it serves; the
                    // requester's per-chunk proof check must catch it and
                    // fetch the chunk from an honest peer instead.
                    match entries.first_mut() {
                        Some((_, Value::Int(i))) => *i ^= 1,
                        Some((_, Value::Opaque { tag, .. })) => *tag ^= 1,
                        Some((_, v)) => *v = Value::Bool(false),
                        None => entries.push(("forged".into(), Value::Int(666))),
                    }
                }
                let proof = snap.snap.chunk_proof(chunk, bits);
                let bytes: usize = entries.iter().map(|(k, v)| chunk_entry_bytes(k, v)).sum();
                // Read + serialization cost for the served chunk.
                self.charge(
                    ctx,
                    SimDuration::from_micros(20) + SimDuration::from_nanos((bytes / 8) as u64),
                    false,
                );
                ctx.stats().inc_scoped(
                    stat::SYNC_CHUNKS_SERVED,
                    Scope::committee(self.cfg.committee_id),
                    1,
                );
                ctx.send(
                    to,
                    PbftMsg::ChunkData {
                        seq,
                        chunk,
                        entries: Arc::new(entries),
                        proof: Arc::new(proof),
                    },
                );
            }
            // Snapshot rotated away (a newer cert formed): the requester
            // must re-anchor.
            _ => ctx.send(to, PbftMsg::SyncNack { have_seq: seq }),
        }
    }

    // ---------- reconfiguration / restart hooks ----------

    /// §5.3 shard transition: pause consensus participation and re-fetch
    /// the (new) shard's entire state through the certified chunk protocol.
    /// The old state is kept for *serving* — departing committee members
    /// keep answering chunk requests while they transfer, as in the paper.
    fn on_transition(
        &mut self,
        controller: Option<NodeId>,
        rejoin: bool,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        match &mut self.sync {
            // Already transitioning: the in-flight full fetch serves this
            // request too — attach the new controller rather than dropping
            // it (a batch scheduler waiting on TransitionDone would
            // otherwise deadlock).
            Some(run) if run.full => {
                if let Some(c) = controller {
                    if !run.notify.contains(&c) {
                        run.notify.push(c);
                    }
                }
                return;
            }
            // A gap catch-up is superseded — the transition re-fetches
            // everything anyway, and dropping the Transition instead would
            // deadlock the reshard controller waiting on TransitionDone.
            Some(_) => self.sync = None,
            None => {}
        }
        ctx.stats().inc("sync.transitions", 1);
        self.paused = true;
        self.begin_sync(true, rejoin, controller, ctx);
    }

    /// Crash: the node goes dark. Every message is dropped and timers idle
    /// until a `Restart` arrives — modelling real downtime, during which
    /// the committee commits on without this member and its block tail
    /// ages out of peers' retention.
    fn on_crash(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc("sync.crashes", 1);
        self.crashed = true;
        self.paused = true;
        self.sync = None;
        // A dead process holds no file handles; uncommitted WAL appends
        // buffered in them are lost — exactly the crash model. `Restart`
        // reopens the directory through full recovery validation.
        self.durable_store = None;
    }

    /// (Re)start after a crash: all volatile state is lost; genesis and
    /// the durable checkpoint survive. Without a `data_dir` the in-memory
    /// `durable` field stands in for the disk; with one, the node
    /// directory is *reopened* — manifest validation, page-verified
    /// checkpoint load, WAL tail replay — and the replica resumes from
    /// what the disk actually says before diff-syncing the remainder
    /// (advertising its retained roots, so a peer that still holds any of
    /// them serves only the diff).
    fn on_restart(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        ctx.stats().inc("sync.restarts", 1);
        if !self.byzantine {
            if let Some(ck) = &self.cfg.safety {
                // Volatile state is gone: the replica legitimately
                // re-executes history, so its exactly-once scope resets.
                ck.record_reset(self.cfg.committee_id, self.me);
            }
        }
        self.crashed = false;
        self.insts.clear();
        self.executed_reqs = ExecutedCache::new();
        self.ingested.clear();
        (self.pool, self.batcher) = fresh_pool(&self.cfg);
        self.ckpt = CheckpointVotes::default();
        self.pending_cert = None;
        self.snapshots.clear();
        self.serving.clear();
        self.vc_votes.clear();
        self.vc_backoff = 0;
        self.stall_strikes = 0;
        self.sync = None;
        self.paused = true;
        if self.store_dir.is_some() {
            self.restart_from_disk(ctx);
        } else {
            // Resume from the certified checkpoint: O(fetched) recovery
            // instead of re-transferring the whole state.
            self.resume_from_durable(ctx.now());
        }
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
        let Some((cert, snap)) = self.durable.clone() else {
            self.cold_start_state();
            return;
        };
        self.state = StateStore::from_snapshot(&snap.snap);
        self.executed_reqs = ExecutedCache::from_window(&snap.executed, now);
        self.exec_seq = cert.seq;
        self.next_seq = cert.seq + 1;
        self.low_mark = cert.seq;
        self.insts_floor = cert.seq;
        self.ckpt.adopt(cert.seq);
        self.serving = vec![(cert, snap)];
    }

    /// Reset the ledger to genesis (no durable checkpoint to resume from).
    fn cold_start_state(&mut self) {
        let mut state = StateStore::new();
        state.load_genesis(&self.genesis);
        self.state = state;
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
    fn restart_from_disk(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        self.durable_store = None;
        self.durable = None;
        let dir = self.store_dir.clone().expect("caller checked");
        let (store, recovered, tail) = match NodeStore::open(&dir, &self.cfg.wal) {
            Ok(parts) => parts,
            Err(_) => {
                // The directory is unusable (injected crash during the
                // reopen itself, or real I/O trouble): run diskless from
                // genesis; state sync restores the ledger.
                ctx.stats().inc(stat::WAL_REOPEN_FAILURES, 1);
                self.cold_start_state();
                return;
            }
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
        self.resume_from_durable(ctx.now());
        let replayed = self.replay_wal_tail(tail, ctx);
        ctx.stats().inc(stat::WAL_REPLAYED, replayed);
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
                        if let (true, Some(k), Some(txid)) = (ok, twopc_kind(&req.op), req.op.txid()) {
                            expected.push_back((txid.0, k));
                        }
                    });
                    self.charge(ctx, EXEC_COST_PER_OP.saturating_mul(weight as u64), true);
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
            debug_assert_eq!(self.exec_seq, checkpoint_exec, "rollback lands on the checkpoint");
            return 0;
        }
        replayed
    }

    fn start_view_change(&mut self, target: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.highest_vc_sent = target;
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
                    .is_some_and(|i| i.votes_for(VotePhase::Prepare, d) >= self.quorum())
            })
            .collect();
        self.charge(ctx, NATIVE_SIGN, false);
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
        let votes_map = self.vc_votes.entry(target).or_default();
        votes_map.insert(vc.replica, (now, vc));
        votes_map.retain(|_, (at, _)| now.since(*at) <= horizon);
        let votes = votes_map.len();
        let quorum = self.quorum();
        let f = self.cfg.f();

        // Liveness rule: join a view change supported by f+1 others.
        if votes > f && self.highest_vc_sent < target && self.leader_of(target) != self.me {
            self.start_view_change(target, ctx);
            return;
        }

        if votes >= quorum && self.leader_of(target) == self.me && !self.byzantine {
            self.install_new_view(target, ctx);
        }
    }

    fn on_view_change(&mut self, vc: ViewChangeMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, NATIVE_VERIFY, false);
        self.record_view_change(vc, ctx);
    }

    fn install_new_view(&mut self, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        // Gather re-proposals: any prepared sequence reported by the quorum
        // for which we hold the block.
        let mut repro: Vec<Arc<PbftBlock>> = Vec::new();
        let mut max_seq = self.exec_seq;
        if let Some(votes) = self.vc_votes.get(&view) {
            let mut wanted: HashMap<u64, Hash> = HashMap::new();
            for (_, vc) in votes.values() {
                for (seq, digest) in &vc.prepared {
                    wanted.insert(*seq, *digest);
                }
            }
            for (seq, digest) in wanted {
                if seq <= self.exec_seq {
                    continue;
                }
                if let Some(inst) = self.insts.get(&seq) {
                    if let Some(block) = &inst.block {
                        if block.digest == digest {
                            let nb = Arc::new(PbftBlock::new(
                                view,
                                seq,
                                self.me,
                                block.reqs.as_ref().clone(),
                            ));
                            max_seq = max_seq.max(seq);
                            repro.push(nb);
                        }
                    }
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
        self.charge(ctx, NATIVE_SIGN, false);
        ctx.multicast(
            self.others(),
            PbftMsg::NewView { view, reproposals: repro.clone() },
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

    fn on_new_view(&mut self, view: u64, reproposals: Vec<Arc<PbftBlock>>, ctx: &mut Ctx<'_, PbftMsg>) {
        if view < self.view {
            return;
        }
        self.charge(ctx, NATIVE_VERIFY, false);
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

    fn enter_view(&mut self, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.view = view;
        self.vc_votes.retain(|v, _| *v > view);
        self.highest_vc_sent = self.highest_vc_sent.max(view);
        // Unexecuted instances from older views are abandoned; their
        // requests survive in pools and will be re-proposed.
        self.insts.retain(|_, i| i.executed || i.view >= view || i.block.is_none());
        // Optimization-2 mode: re-relay pooled requests to the new leader so
        // requests relayed to a dead leader are not lost.
        if self.cfg.variant.relay_to_leader() && !self.is_leader() {
            let leader = self.group[self.leader_of(view)];
            let mut regossiped = 0u64;
            for req in self.pool.iter_fifo().take(2 * self.cfg.batch_size) {
                ctx.send(leader, PbftMsg::Relay(req.clone()));
                regossiped += 1;
            }
            ctx.stats().inc(ahl_mempool::stat::VIEWCHANGE_REGOSSIP, regossiped);
        }
    }

    /// The new leader pulls pool digests after its view change: answer by
    /// re-relaying every pooled, unexecuted request. Works in both relay
    /// and gossip modes — either way the new leader's pool is the one
    /// proposals are cut from, and transactions stranded at the deposed
    /// leader exist only in the ingest replicas' pools.
    fn on_pool_pull(&mut self, from_idx: usize, view: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, SimDuration::from_micros(10), false);
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
        ctx.stats().inc(ahl_mempool::stat::VIEWCHANGE_REGOSSIP, regossiped);
    }

    // ---------- timers ----------

    fn on_batch_timer(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        self.flush_partial_batch(ctx);
        ctx.set_timer(self.batcher.timeout(), TIMER_BATCH);
    }

    fn on_heartbeat_timer(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.is_leader() && !self.byzantine && !self.paused {
            ctx.multicast(
                self.others(),
                PbftMsg::Heartbeat { view: self.view, exec_seq: self.exec_seq },
            );
        }
        ctx.set_timer(self.cfg.vc_timeout.mul_f64(0.2), TIMER_HEARTBEAT);
    }

    /// A heartbeat advertising an execution point far beyond ours means we
    /// missed blocks *and* the evidence (the committed instances never
    /// arrived — e.g. they committed while this node was syncing and
    /// traffic has since stopped, so gap detection has nothing to see).
    /// Request catch-up; the server answers with a block tail or a
    /// chunked transfer as appropriate. The threshold keeps normal
    /// pipelining lag from triggering spurious exchanges, and only the
    /// *current view's leader* is believed — an unvalidated `exec_seq`
    /// from an arbitrary replica would let one Byzantine node keep the
    /// whole committee churning through pointless sync exchanges.
    fn on_heartbeat(&mut self, from_idx: usize, view: u64, exec_seq: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        self.charge(ctx, SimDuration::from_micros(5), false);
        if view != self.view || from_idx != self.leader_of(self.view) {
            return;
        }
        let lag_threshold = (4 * PIPELINE_WIDTH).max(16);
        if exec_seq > self.exec_seq + lag_threshold && self.sync.is_none() && !self.paused {
            ctx.stats().inc("consensus.heartbeat_syncs", 1);
            self.begin_sync(false, false, None, ctx);
        }
    }

    fn on_vc_timer(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        self.maybe_start_view_change(ctx);
        ctx.set_timer(self.current_vc_timeout(), TIMER_VC);
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

/// [`Attack::ForgeTail`]: rewrite the first request of a served tail to
/// set a key no client writes. The block keeps its digest field and its
/// certificate, so only a receiver that recomputes the digest can tell.
fn forge_tail(blocks: &mut [(Arc<PbftBlock>, QuorumCert)]) {
    let Some((first, _)) = blocks.first_mut() else { return };
    let mut reqs = first.reqs.as_ref().clone();
    let Some(req) = reqs.first_mut() else { return };
    let forged = ("forged".to_string(), ahl_ledger::Mutation::Set(Value::Int(666)));
    let op = ahl_ledger::StateOp { conditions: vec![], mutations: vec![forged] };
    req.op = ahl_ledger::Op::Direct { txid: ahl_ledger::TxId(req.id), op };
    *first = Arc::new(PbftBlock { reqs: Arc::new(reqs), ..first.as_ref().clone() });
}

/// An empty pool and its batch builder, as `cfg` sizes them (at start and
/// after a restart).
fn fresh_pool(cfg: &PbftConfig) -> (Mempool<Request>, BatchBuilder) {
    let batch = BatchConfig { max_txs: cfg.batch_size, timeout: cfg.batch_timeout };
    (Mempool::new(cfg.mempool.clone(), 0), BatchBuilder::new(batch))
}

/// The next sync-serving peer in a round-robin over the group, skipping
/// the requester itself.
fn next_sync_peer(n: usize, me: usize, cur: usize) -> usize {
    let mut peer = (cur + 1) % n;
    if peer == me {
        peer = (peer + 1) % n;
    }
    peer
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
        if self.crashed {
            // Dark: a crashed node neither processes nor serves anything
            // until its Restart (Crash is idempotent while down).
            if matches!(msg, PbftMsg::Restart) {
                self.on_restart(ctx);
            }
            return;
        }
        self.last_msg_at = ctx.now();
        // A colluding equivocator never runs the honest proposal path: it
        // echoes two-faced votes for every proposal it sees and is done.
        if self.byzantine && self.cfg.attack == Attack::Equivocate {
            if let PbftMsg::PrePrepare { block, .. } = &msg {
                self.charge(ctx, SimDuration::from_micros(10), false);
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
        if self.paused
            && msg.class() == ahl_simkit::MsgClass::CONSENSUS
            && !matches!(
                msg,
                PbftMsg::Transition { .. }
                    | PbftMsg::Crash
                    | PbftMsg::Restart
                    | PbftMsg::TransitionDone { .. }
            )
        {
            self.charge(ctx, SimDuration::from_micros(5), false);
            return;
        }
        match msg {
            PbftMsg::Request(req) => self.on_request(req, ctx),
            PbftMsg::Relay(req) => self.on_relay(from, req, ctx),
            PbftMsg::Gossip(req) => self.on_gossip(req, ctx),
            PbftMsg::RelayRejected { req_id } => self.on_relay_rejected(req_id, ctx),
            PbftMsg::PrePrepare { block, cert } => {
                let Some(idx) = self.group_index(from) else { return };
                self.on_preprepare(block, cert, idx, ctx);
            }
            PbftMsg::Prepare(v) => self.on_vote(VotePhase::Prepare, v, ctx),
            PbftMsg::Commit(v) => self.on_vote(VotePhase::Commit, v, ctx),
            PbftMsg::RelayPrepare(v) => self.on_relay_vote(VotePhase::Prepare, v, ctx),
            PbftMsg::RelayCommit(v) => self.on_relay_vote(VotePhase::Commit, v, ctx),
            PbftMsg::AggPrepare(cert) | PbftMsg::AggCommit(cert) => {
                let Some(idx) = self.group_index(from) else { return };
                self.on_aggregate(idx, cert, ctx);
            }
            PbftMsg::Checkpoint { vote } => self.on_checkpoint(vote, ctx),
            PbftMsg::ViewChange(vc) => self.on_view_change(vc, ctx),
            PbftMsg::NewView { view, reproposals } => self.on_new_view(view, reproposals, ctx),
            PbftMsg::PoolPull { view } => {
                let Some(idx) = self.group_index(from) else { return };
                self.on_pool_pull(idx, view, ctx);
            }
            PbftMsg::Reply { .. } | PbftMsg::Rejected { .. } => {}
            PbftMsg::Heartbeat { view, exec_seq } => {
                let Some(idx) = self.group_index(from) else { return };
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
            PbftMsg::SyncRequest { requester, have_seq, full, old_roots } => {
                self.on_sync_request(requester, have_seq, full, old_roots, ctx)
            }
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
            PbftMsg::ChunkRequest { requester, seq, chunk } => {
                self.on_chunk_request(requester, seq, chunk, ctx)
            }
            PbftMsg::ChunkData { seq, chunk, entries, proof } => {
                self.on_chunk_data(seq, chunk, entries, proof, ctx)
            }
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
        if self.crashed {
            // Keep the periodic timer chains alive (each firing re-arms
            // itself) without running any handler logic while dark.
            let interval = match kind {
                TIMER_BATCH => self.batcher.timeout(),
                TIMER_VC => self.current_vc_timeout(),
                TIMER_HEARTBEAT => self.cfg.vc_timeout.mul_f64(0.2),
                // Crash cleared the sync run; Restart's begin_sync starts
                // a fresh retry chain — re-arming here would duplicate it.
                _ => return,
            };
            ctx.set_timer(interval, kind);
            return;
        }
        match kind {
            TIMER_BATCH => self.on_batch_timer(ctx),
            TIMER_VC => self.on_vc_timer(ctx),
            TIMER_HEARTBEAT => self.on_heartbeat_timer(ctx),
            TIMER_SYNC => self.on_sync_timer(ctx),
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
