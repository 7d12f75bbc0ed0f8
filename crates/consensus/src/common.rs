//! What every consensus protocol implementation shares: the request and
//! stat vocabulary, the executed-request replay cache, and the
//! **committed-block shell** ([`BlockExecutor`]) — the one place a decided
//! batch becomes executed state, safety-oracle observations and
//! throughput/latency reports, for PBFT (live execution and WAL replay)
//! and the lockstep engine alike.

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

use ahl_crypto::Hash;
use ahl_ledger::{Op, StateStore};
use ahl_mempool::Mempool;
use ahl_simkit::{Ctx, NodeId, Phase, Scope, SimDuration, SimTime};
use ahl_wal::codec::{Reader, Writer};
use rand::rngs::SmallRng;

use crate::adversary::{commit_digest, SafetyChecker};

/// A client request: an identified ledger operation.
#[derive(Clone, Debug)]
pub struct Request {
    /// Globally unique request id (`client_id << 32 | client_seq`).
    pub id: u64,
    /// The submitting client's actor id (for replies).
    pub client: NodeId,
    /// The ledger operation to order and execute.
    pub op: Op,
    /// Submission time (for end-to-end latency measurement).
    pub submitted: SimTime,
}

impl Request {
    /// Build the globally unique request id.
    pub fn make_id(client: NodeId, seq: u32) -> u64 {
        ((client as u64) << 32) | seq as u64
    }
}

impl ahl_mempool::PoolTx for Request {
    fn tx_id(&self) -> u64 {
        self.id
    }
}

/// Native (outside-enclave) signature creation cost, charged by every BFT
/// engine here.
pub(crate) const NATIVE_SIGN: SimDuration = SimDuration::from_micros(150);
/// Native signature verification cost.
pub(crate) const NATIVE_VERIFY: SimDuration = SimDuration::from_micros(200);

/// Whether to actually compute MACs/signatures or only charge their cost.
///
/// `Real` exercises the full `ahl-crypto`/`ahl-tee` paths (used by tests);
/// `CostOnly` charges the same simulated latencies without spending host CPU
/// (used by the large-scale experiment harness). Both produce identical
/// simulated timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoMode {
    /// Compute and verify real MACs.
    Real,
    /// Charge latencies only.
    CostOnly,
}

/// The two vote rounds every BFT engine here runs per block: a quorum of
/// `Prepare` votes locks a proposal, a quorum of `Commit` votes decides it
/// (Tendermint calls them prevote and precommit). Doubles as the index
/// into per-phase vote state (`phase as usize`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VotePhase {
    /// First round: prepare / prevote.
    Prepare = 0,
    /// Second round: commit / precommit.
    Commit = 1,
}

/// Generates the next ledger operation for a client. Implemented by the
/// workload crate (KVStore, SmallBank); consensus only needs the closure.
pub type OpFactory = Box<dyn FnMut(&mut SmallRng) -> Op + Send>;

/// Counter/series names the protocols record (shared so harnesses and tests
/// agree on spelling).
pub mod stat {
    /// Counter: committed transactions.
    pub const TXN_COMMITTED: &str = "txn.committed";
    /// Counter: aborted transactions (execution-level aborts).
    pub const TXN_ABORTED: &str = "txn.aborted";
    /// Series: committed transaction count per commit event.
    pub const COMMIT_SERIES: &str = "txn.commit_series";
    /// Histogram: request submission → execution latency.
    pub const TXN_LATENCY: &str = "txn.latency";
    /// Counter: view changes adopted (counted at the new leader).
    pub const VIEW_CHANGES: &str = "consensus.view_changes";
    /// Counter: nanoseconds of CPU spent in consensus message handling.
    pub const CONSENSUS_CPU_NS: &str = "consensus.cpu_ns";
    /// Counter: nanoseconds of CPU spent executing transactions.
    pub const EXEC_CPU_NS: &str = "exec.cpu_ns";
    /// Counter: blocks committed.
    pub const BLOCKS_COMMITTED: &str = "consensus.blocks";
    /// Counter: stale (off-chain) blocks in Nakamoto-style protocols.
    pub const STALE_BLOCKS: &str = "poet.stale_blocks";
    /// Counter: total blocks produced in Nakamoto-style protocols.
    pub const TOTAL_BLOCKS: &str = "poet.total_blocks";
    /// Counter: completed (replied) client requests.
    pub const CLIENT_COMPLETED: &str = "client.completed";
    /// Counter: client requests bounced by pool admission control
    /// (replica-side; the matching client-side count is `client.rejected`).
    pub const BACKPRESSURE: &str = "consensus.backpressure";
    /// Counter: rejection notices observed by clients.
    pub const CLIENT_REJECTED: &str = "client.rejected";
    /// Counter: checkpoint certificates formed (quorum of matching votes).
    pub const CKPT_CERTS: &str = "consensus.ckpt_certs";
    /// Counter: checkpoint-time re-hash audits of the authenticated state
    /// index that found a cached hash diverging from its recomputation
    /// (run when `exec_workers > 1`; must stay zero).
    pub const CKPT_AUDIT_FAILURES: &str = "consensus.ckpt_audit_failures";
    /// Counter: resolved-transaction ids pruned at checkpoint boundaries.
    pub const RESOLVED_PRUNED: &str = "consensus.resolved_pruned";
    /// Counter: state-sync chunks served to lagging/joining replicas.
    pub const SYNC_CHUNKS_SERVED: &str = "sync.chunks_served";
    /// Counter: state-sync bytes verified and applied (requester side).
    pub const SYNC_BYTES: &str = "sync.bytes_synced";
    /// Counter: chunks rejected by proof verification against the cert root.
    pub const SYNC_PROOF_FAILURES: &str = "sync.proof_failures";
    /// Counter: sync manifests rejected for stale/invalid certificates.
    pub const SYNC_BAD_CERTS: &str = "sync.bad_certs";
    /// Counter: chunked state syncs completed (cert + chunks + tail).
    pub const SYNC_COMPLETED: &str = "sync.completed";
    /// Counter: tail-only catch-ups (block replay without chunk transfer).
    pub const SYNC_TAILS: &str = "sync.tail_catchups";
    /// Histogram: wall-clock duration of completed chunked syncs.
    pub const SYNC_DURATION: &str = "sync.duration";
    /// Counter: incremental (diff) sync sessions started.
    pub const SYNC_DIFFS: &str = "sync.diff_syncs";
    /// Counter: diff installs whose merged root missed the certified root
    /// (lying or mismatched server) — each falls back to a full transfer.
    pub const SYNC_DIFF_FALLBACKS: &str = "sync.diff_fallbacks";
    /// Counter: mid-transfer re-anchors (the serving snapshot rotated away
    /// and the requester restarted against a newer certificate).
    pub const SYNC_REANCHORS: &str = "sync.reanchors";
    /// Counter: manifests refused for carrying a certificate older than
    /// the one the exchange already targets (stale, still-recovering
    /// servers must not regress a transfer).
    pub const SYNC_STALE_MANIFESTS: &str = "sync.stale_manifests";
    /// Counter: executed-request ids pruned at checkpoint boundaries.
    pub const EXECUTED_PRUNED: &str = "consensus.executed_pruned";
    /// Counter: executed batches journaled (group-committed) to the WAL.
    pub const WAL_BATCHES: &str = "wal.batches";
    /// Counter: durable checkpoints persisted (pages + manifest swap).
    pub const WAL_CHECKPOINTS: &str = "wal.checkpoints";
    /// Counter: checkpoint pages newly written to the page store.
    pub const WAL_PAGES_WRITTEN: &str = "wal.pages_written";
    /// Counter: subtrees skipped because consecutive checkpoints share
    /// their pages on disk (each skip covers a whole subtree).
    pub const WAL_PAGES_SHARED: &str = "wal.pages_shared";
    /// Counter: batches re-executed from the WAL tail on restart.
    pub const WAL_REPLAYED: &str = "wal.replayed_batches";
    /// Counter: persistence I/O failures treated as node crashes
    /// (includes injected kill-switch crashes).
    pub const WAL_IO_CRASHES: &str = "wal.io_crashes";
    /// Counter: restarts whose node-directory reopen failed (the node
    /// falls back to a cold start + full state sync).
    pub const WAL_REOPEN_FAILURES: &str = "wal.reopen_failures";
    /// Counter: WAL replays stopped early because the 2PC journal
    /// disagreed with re-execution (corruption beyond the CRCs).
    pub const WAL_REPLAY_MISMATCHES: &str = "wal.replay_mismatches";
    /// Counter: page-store mark-and-sweep passes triggered by disk
    /// pressure at a durable checkpoint.
    pub const WAL_GC_RUNS: &str = "wal.gc_runs";
    /// Counter: on-disk bytes reclaimed by page-store GC (swept segment
    /// bytes minus live bytes copied forward).
    pub const WAL_GC_RECLAIMED: &str = "wal.gc_reclaimed_bytes";
    /// Counter: live pages copied into the active segment so their
    /// mostly-dead segment could be unlinked.
    pub const WAL_GC_COPIED: &str = "wal.gc_copied_pages";
}

/// Replay-protection cache of executed request ids, pruned at checkpoint
/// epochs exactly like the ledger's resolved-transaction set: ids keep
/// their insertion epoch, and [`ExecutedCache::checkpoint_prune`] forgets
/// them at the second epoch boundary after insertion — **but never before
/// the caller's `min_age` has passed since execution**. The age floor
/// closes a replay hole the Byzantine battery caught: epochs are counted
/// in *sequence numbers*, so under high throughput two epochs can pass in
/// well under a second, after which a stale pooled copy re-relayed at a
/// view change (e.g. out of a deposed Byzantine leader's pool) would
/// re-execute — a double spend. With the floor, any request young enough
/// to pass admission (requests older than the same horizon are refused)
/// is still remembered here, so the replay window is provably closed:
/// a copy is either too old to admit or young enough to dedup.
///
/// # Layout: an ordered window, not a map to be scanned
///
/// The cache is a membership index plus the log of ids in execution
/// order, cut into immutable [`Arc`]-shared segments (one per captured
/// [`ExecutedWindow`], i.e. per checkpoint interval). Both tags the prune
/// rule reads are non-decreasing along that log — the epoch only ever
/// advances, and ids are inserted at the caller's clock, which does not
/// run backwards — so the ids the rule `epoch < current && age >= min_age`
/// selects are always a **prefix** of the log: once one entry is too young
/// or too recent an epoch, so is every later one. Popping that prefix is
/// therefore the same set a scan of every entry would remove, and costs
/// what it removes. (Were a caller's clock ever to step back, the pop
/// stops early and keeps ids *longer* than a scan would — the safe
/// direction for replay protection.) Ids executed at the same
/// `(epoch, time)` — one block — share one tag run instead of carrying
/// the pair each.
///
/// A cache rebuilt from a transferred window
/// ([`ExecutedCache::from_window`]) restarts every id at `(epoch 0, now)`:
/// one run, trivially ordered, with the full protection window ahead.
#[derive(Debug, Default)]
pub struct ExecutedCache {
    /// Membership: exactly the ids of the live log.
    index: HashSet<u64>,
    /// Sealed segments, oldest first; shared with every window captured
    /// since each was sealed.
    sealed: VecDeque<Arc<Segment>>,
    /// Ids at the front of `sealed[0]` already pruned.
    skip: usize,
    /// Ids executed since the last seal.
    open: Segment,
    epoch: u64,
}

/// A stretch of the execution-ordered id log with its tag runs.
#[derive(Debug, Default)]
struct Segment {
    ids: Vec<u64>,
    /// `runs[i]` tags `ids[runs[i - 1].end..runs[i].end]`.
    runs: Vec<Run>,
    /// [`ahl_wal::ids_hash`] of `ids`, computed the first time a
    /// checkpoint persists the segment: later ones name it without
    /// re-hashing.
    digest: OnceLock<Hash>,
}

/// The `(insertion epoch, execution time)` tag of consecutive log entries.
#[derive(Clone, Copy, Debug)]
struct Run {
    end: usize,
    epoch: u64,
    at: SimTime,
}

impl ExecutedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from a transferred window (state-sync install, restart from
    /// a checkpoint); every id lands in the current epoch and enjoys the
    /// full protection window from `now`.
    pub fn from_window(window: &ExecutedWindow, now: SimTime) -> Self {
        let mut cache = ExecutedCache::new();
        cache.index.reserve(window.len());
        cache.open.ids.reserve(window.len());
        for id in window.iter() {
            cache.insert(id, now);
        }
        cache
    }

    /// Record `id` as executed at `now`. Returns `false` if it was
    /// already known (a replay), refreshing nothing — the original
    /// epoch/time tags stand.
    pub fn insert(&mut self, id: u64, now: SimTime) -> bool {
        if !self.index.insert(id) {
            return false;
        }
        self.open.ids.push(id);
        let end = self.open.ids.len();
        match self.open.runs.last_mut() {
            Some(run) if run.epoch == self.epoch && run.at == now => run.end = end,
            _ => self.open.runs.push(Run {
                end,
                epoch: self.epoch,
                at: now,
            }),
        }
        true
    }

    /// Whether `id` executed within the protection window.
    pub fn contains(&self, id: u64) -> bool {
        self.index.contains(&id)
    }

    /// Number of remembered ids (bounded by pruning).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no ids are remembered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Checkpoint-boundary maintenance: forget ids older than one full
    /// interval *and* at least `min_age` old (see the type docs for why
    /// both conditions are required, and why they select a prefix of the
    /// log), then advance the epoch. Returns how many ids were pruned.
    pub fn checkpoint_prune(&mut self, now: SimTime, min_age: SimDuration) -> usize {
        let epoch = self.epoch;
        self.epoch += 1;
        let expired = |run: &Run| run.epoch < epoch && now.since(run.at) >= min_age;
        let before = self.index.len();
        loop {
            if self.sealed.is_empty() {
                // Everything sealed is gone. The open segment only has
                // expired ids when no window was captured since they
                // executed; seal it so the same pop applies.
                if !self.open.runs.first().is_some_and(expired) {
                    break;
                }
                self.seal();
            }
            let seg = &self.sealed[0];
            let from = self.skip;
            let to = seg
                .runs
                .iter()
                .filter(|run| run.end > from)
                .take_while(|run| expired(run))
                .last()
                .map_or(from, |run| run.end);
            for id in &seg.ids[from..to] {
                self.index.remove(id);
            }
            if to < seg.ids.len() {
                self.skip = to;
                break;
            }
            self.sealed.pop_front();
            self.skip = 0;
        }
        before - self.index.len()
    }

    /// Close the open segment: from here on it is immutable and shared.
    fn seal(&mut self) {
        if !self.open.ids.is_empty() {
            self.open.ids.shrink_to_fit();
            self.sealed
                .push_back(Arc::new(std::mem::take(&mut self.open)));
        }
    }

    /// The remembered ids as of now (checkpoint snapshot / manifest / sync
    /// wire form): seals the ids executed since the previous capture and
    /// hands out the live segments by reference — O(ids since the last
    /// capture + segments), whatever the window's size — unaffected by
    /// any later insert or prune.
    pub fn window(&mut self) -> ExecutedWindow {
        self.seal();
        ExecutedWindow(Arc::new(WindowParts {
            segs: self.sealed.iter().cloned().collect(),
            skip: self.skip,
            len: self.index.len(),
        }))
    }
}

/// An immutable view of an [`ExecutedCache`]'s ids at one instant, in
/// execution order: the segments live at capture (shared, not copied) and
/// how much of the first was already pruned. Ids are distinct. Cloning is
/// a reference-count bump.
#[derive(Clone, Debug, Default)]
pub struct ExecutedWindow(Arc<WindowParts>);

#[derive(Debug, Default)]
struct WindowParts {
    segs: Vec<Arc<Segment>>,
    skip: usize,
    len: usize,
}

impl ExecutedWindow {
    /// Number of ids in the window.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True when the window holds no ids.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The ids in execution order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0
            .segs
            .iter()
            .flat_map(|seg| seg.ids.iter().copied())
            .skip(self.0.skip)
    }

    /// The shared segments, oldest first, each with its content address
    /// ([`ahl_wal::ids_hash`], cached in the segment after the first call)
    /// — the first one whole, [`ExecutedWindow::skip`] ids of it pruned.
    /// Every segment is non-empty.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (Hash, &[u64])> + '_ {
        self.0.segs.iter().map(|seg| {
            (
                *seg.digest.get_or_init(|| ahl_wal::ids_hash(&seg.ids)),
                &seg.ids[..],
            )
        })
    }

    /// How many leading ids of the first segment are already pruned.
    pub(crate) fn skip(&self) -> usize {
        self.0.skip
    }

    /// Rebuild a window from its segments (with their content addresses)
    /// and the first one's pruned prefix. `None` unless it has the shape
    /// [`ExecutedCache::window`] captures: no empty segment, `skip` inside
    /// the first one, every id distinct.
    pub(crate) fn from_segments(segs: Vec<(Hash, Vec<u64>)>, skip: usize) -> Option<Self> {
        let skip_inside = segs.first().map_or(skip == 0, |(_, ids)| skip < ids.len());
        if !skip_inside || segs.iter().any(|(_, ids)| ids.is_empty()) {
            return None;
        }
        let segs: Vec<Arc<Segment>> = segs
            .into_iter()
            .map(|(hash, ids)| {
                Arc::new(Segment {
                    ids,
                    runs: Vec::new(),
                    digest: OnceLock::from(hash),
                })
            })
            .collect();
        let total: usize = segs.iter().map(|seg| seg.ids.len()).sum();
        let window = ExecutedWindow(Arc::new(WindowParts {
            segs,
            skip,
            len: total - skip,
        }));
        let mut seen = HashSet::with_capacity(window.len());
        let distinct = window.iter().all(|id| seen.insert(id));
        distinct.then_some(window)
    }

    /// Wire form: `u32` count, then the ids as they lie in the
    /// window. Execution order is identical on every honest replica and
    /// does not depend on any hasher, so equal windows encode to equal
    /// bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for id in self.iter() {
            w.u64(id);
        }
    }

    /// Inverse of [`ExecutedWindow::encode`]; accepts ids in any order
    /// (older frames carry them ascending) and counts a repeated id once.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()?;
        (0..n).map(|_| r.u64()).collect()
    }
}

/// Builds a window of at most one segment, keeping the first occurrence
/// of each id (a hostile frame must not make `len()` exceed the distinct
/// count).
impl FromIterator<u64> for ExecutedWindow {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut seen = HashSet::new();
        let ids: Vec<u64> = iter.into_iter().filter(|id| seen.insert(*id)).collect();
        let len = ids.len();
        let segs = if ids.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(Segment {
                ids,
                ..Segment::default()
            })]
        };
        ExecutedWindow(Arc::new(WindowParts { segs, skip: 0, len }))
    }
}

/// The stores a decided batch is executed against — each engine lends its
/// own for the duration of one block.
pub struct Stores<'a> {
    /// The replica's ledger.
    pub state: &'a mut StateStore,
    /// Its executed-request replay cache.
    pub executed: &'a mut ExecutedCache,
    /// Its transaction pool (executed requests leave it).
    pub pool: &'a mut Mempool<Request>,
}

/// The committed-block shell: who executes a decided batch and where the
/// observations go. Built once per replica; its two entry points are the
/// only callers of [`ahl_ledger::execute_ops`] and
/// [`SafetyChecker::observe_exec`] in this crate.
pub struct BlockExecutor {
    /// Committee id in scoped stats and the checker's records.
    pub committee_id: usize,
    /// This replica's group index.
    pub me: usize,
    /// Whether this replica reports the committee's throughput/latency.
    pub reporter: bool,
    /// Worker threads for block execution (`1` = the sequential loop).
    pub exec_workers: usize,
    /// The safety oracle honest replicas report into (`None` for a
    /// Byzantine replica: the oracle only hears honest ones).
    pub checker: Option<SafetyChecker>,
}

impl BlockExecutor {
    /// Bring `reqs` into `stores.state`: skip replays via the executed-id
    /// cache, drop the rest from the pool, run them through the
    /// conflict-aware engine in batch order, and report each outcome to
    /// the safety oracle before handing it to `each(request, committed)`.
    /// Returns the summed op weight of what ran, for the caller's
    /// execution-cost model. Stamps and counts nothing — WAL replay, which
    /// re-derives state a live commit already reported, calls this
    /// directly; a live commit goes through [`BlockExecutor::commit`].
    pub fn execute<'r>(
        &self,
        reqs: &'r [Request],
        stores: Stores<'_>,
        now: SimTime,
        mut each: impl FnMut(&'r Request, bool),
    ) -> usize {
        let mut weight = 0usize;
        let mut fresh = Vec::with_capacity(reqs.len());
        for req in reqs {
            if !stores.executed.insert(req.id, now) {
                continue; // replay of an already-executed request
            }
            stores.pool.remove(req.id);
            weight += req.op.weight();
            fresh.push(req);
        }
        // `exec_workers <= 1` is the sequential loop; above that the batch
        // is wave-scheduled with receipts, state root and the per-abort
        // `had_pending` signal identical to sequential by construction.
        let ops: Vec<&Op> = fresh.iter().map(|r| &r.op).collect();
        let outcomes = ahl_ledger::execute_ops(stores.state, &ops, self.exec_workers);
        for (req, outcome) in fresh.into_iter().zip(outcomes) {
            let ok = outcome.receipt.status.is_committed();
            if let Some(ck) = &self.checker {
                ck.observe_exec(
                    self.committee_id,
                    self.me,
                    req.id,
                    &req.op,
                    outcome.had_pending,
                    ok,
                );
            }
            each(req, ok);
        }
        weight
    }

    /// A live commit of the batch decided at `height`:
    /// [`BlockExecutor::execute`], plus everything a commit reports — the
    /// `Exec` stamp per request (then the caller's own per-request work,
    /// `each(request, committed, ctx)`), the reporter's latency,
    /// committed / aborted / blocks counters and commit series, and the
    /// safety oracle's commit record over the ordered request ids (the
    /// *content* of the batch, so a re-proposal in a later view or round
    /// is no fork while any divergence at one height is).
    pub fn commit<M: Clone>(
        &self,
        height: u64,
        reqs: &[Request],
        stores: Stores<'_>,
        ctx: &mut Ctx<'_, M>,
        mut each: impl FnMut(&Request, bool, &mut Ctx<'_, M>),
    ) -> usize {
        let scope = Scope::committee(self.committee_id);
        let mut committed = 0u64;
        let mut aborted = 0u64;
        let weight = self.execute(reqs, stores, ctx.now(), |req, ok| {
            ctx.trace(req.id, Phase::Exec);
            if ok {
                committed += 1;
            } else {
                aborted += 1;
            }
            if self.reporter {
                let lat = ctx.now().since(req.submitted);
                ctx.stats()
                    .record_latency_scoped(stat::TXN_LATENCY, scope, lat);
            }
            each(req, ok, ctx);
        });
        if self.reporter {
            let now = ctx.now();
            ctx.stats()
                .inc_scoped(stat::TXN_COMMITTED, scope, committed);
            ctx.stats().inc_scoped(stat::TXN_ABORTED, scope, aborted);
            ctx.stats().inc_scoped(stat::BLOCKS_COMMITTED, scope, 1);
            ctx.stats()
                .record_point(stat::COMMIT_SERIES, now, committed as f64);
        }
        if let Some(ck) = &self.checker {
            ck.record_commit(
                self.committee_id,
                height,
                commit_digest(reqs.iter().map(|r| r.id)),
            );
        }
        weight
    }
}

/// Minimal [`ahl_simkit::Host`] for driving one actor handler at a time —
/// the same entry point `ahl_net::NodeRuntime` uses — so a test can
/// inspect exactly what each delivery does.
#[cfg(test)]
pub(crate) mod testkit {
    use std::collections::HashMap;

    use ahl_simkit::{Host, NodeId, SimDuration, SimTime, Stats};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    use super::{ExecutedCache, ExecutedWindow};

    /// The scan-everything cache this module shipped before the ordered
    /// window — a map from id to its `(epoch, time)` tags, pruned by a
    /// `retain` over every entry. Kept as the executable specification
    /// [`ExecutedCache`] is tested against.
    #[derive(Default)]
    pub(crate) struct ModelCache {
        ids: HashMap<u64, (u64, SimTime)>,
        epoch: u64,
    }

    impl ModelCache {
        pub(crate) fn insert(&mut self, id: u64, now: SimTime) -> bool {
            if self.ids.contains_key(&id) {
                return false;
            }
            self.ids.insert(id, (self.epoch, now));
            true
        }

        pub(crate) fn contains(&self, id: u64) -> bool {
            self.ids.contains_key(&id)
        }

        pub(crate) fn len(&self) -> usize {
            self.ids.len()
        }

        pub(crate) fn checkpoint_prune(&mut self, now: SimTime, min_age: SimDuration) -> usize {
            let epoch = self.epoch;
            let before = self.ids.len();
            self.ids
                .retain(|_, (e, t)| *e >= epoch || now.since(*t) < min_age);
            self.epoch += 1;
            before - self.ids.len()
        }
    }

    /// An [`ExecutedCache`] and its [`ModelCache`] driven through the same
    /// random interleaving of blocks (fresh and repeated ids at one
    /// instant), clock advances, seals and prunes; every step asserts the
    /// two agree on each return value, on `len`, and on `contains` for
    /// every id ever inserted.
    pub(crate) struct Twin {
        pub(crate) cache: ExecutedCache,
        model: ModelCache,
        /// The model's live ids in execution order (the model is a map).
        live: Vec<u64>,
        ever: Vec<u64>,
        now: SimTime,
        rng: SmallRng,
    }

    impl Twin {
        pub(crate) fn new(seed: u64) -> Self {
            Twin {
                cache: ExecutedCache::new(),
                model: ModelCache::default(),
                live: Vec::new(),
                ever: Vec::new(),
                now: SimTime::ZERO,
                rng: SmallRng::seed_from_u64(seed),
            }
        }

        pub(crate) fn step(&mut self) {
            match self.rng.gen_range(0..10u8) {
                0..=4 => {
                    for _ in 0..self.rng.gen_range(1..=6usize) {
                        let id = if !self.ever.is_empty() && self.rng.gen_bool(0.25) {
                            self.ever[self.rng.gen_range(0..self.ever.len())]
                        } else {
                            self.rng.gen()
                        };
                        let fresh = self.cache.insert(id, self.now);
                        assert_eq!(fresh, self.model.insert(id, self.now), "insert({id})");
                        if fresh {
                            self.live.push(id);
                            self.ever.push(id);
                        }
                    }
                }
                5..=6 => self.now += SimDuration::from_millis(self.rng.gen_range(0..3000)),
                7 => self.cache.seal(),
                _ => {
                    let min_age = SimDuration::from_secs([0, 1, 5][self.rng.gen_range(0..3usize)]);
                    let pruned = self.cache.checkpoint_prune(self.now, min_age);
                    assert_eq!(
                        pruned,
                        self.model.checkpoint_prune(self.now, min_age),
                        "prune count"
                    );
                    self.live.retain(|id| self.model.contains(*id));
                }
            }
            assert_eq!(self.cache.len(), self.model.len());
            assert_eq!(self.cache.is_empty(), self.model.len() == 0);
            for id in &self.ever {
                assert_eq!(
                    self.cache.contains(*id),
                    self.model.contains(*id),
                    "contains({id})"
                );
            }
        }

        /// Capture a window and what it must iterate, now and for ever:
        /// the model's ids at this instant, in execution order.
        pub(crate) fn capture(&mut self) -> (ExecutedWindow, Vec<u64>) {
            (self.cache.window(), self.live.clone())
        }
    }

    /// A window as a live replica would hold it after `seed`'s random
    /// history — several segments, the first often partly pruned — with
    /// the ids it must yield, in order.
    pub(crate) fn random_window(seed: u64) -> (ExecutedWindow, Vec<u64>) {
        let mut twin = Twin::new(seed);
        for _ in 0..40 + seed % 80 {
            twin.step();
        }
        twin.capture()
    }

    pub(crate) struct TestHost {
        now: SimTime,
        pub stats: Stats,
        rng: SmallRng,
        nodes: usize,
    }

    impl TestHost {
        pub(crate) fn new(nodes: usize) -> Self {
            TestHost {
                now: SimTime::ZERO + SimDuration::from_millis(1),
                stats: Stats::new(),
                rng: SmallRng::seed_from_u64(42),
                nodes,
            }
        }
    }

    impl Host for TestHost {
        fn now(&self) -> SimTime {
            self.now
        }
        fn num_nodes(&self) -> usize {
            self.nodes
        }
        fn set_timer(&mut self, _node: NodeId, _delay: SimDuration, _kind: u64) {}
        fn rng(&mut self, _node: NodeId) -> &mut SmallRng {
            &mut self.rng
        }
        fn stats(&mut self) -> &mut Stats {
            &mut self.stats
        }
        fn halt(&mut self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executed_cache_age_floor_blocks_fast_epoch_pruning() {
        let mut c = ExecutedCache::new();
        let t0 = SimTime::ZERO;
        assert!(c.insert(7, t0));
        assert!(
            !c.insert(7, t0 + SimDuration::from_secs(1)),
            "replay detected"
        );
        // Two epoch boundaries pass almost immediately (high throughput):
        // without the age floor the id would be gone now.
        let soon = t0 + SimDuration::from_millis(10);
        assert_eq!(c.checkpoint_prune(soon, SimDuration::from_secs(5)), 0);
        assert_eq!(c.checkpoint_prune(soon, SimDuration::from_secs(5)), 0);
        assert!(c.contains(7), "age floor keeps the id alive");
        // Once the floor has passed, epoch pruning takes effect.
        let later = t0 + SimDuration::from_secs(6);
        assert_eq!(c.checkpoint_prune(later, SimDuration::from_secs(5)), 1);
        assert!(!c.contains(7));
    }

    /// A window taken while the first segment is partly pruned yields
    /// exactly the unpruned rest, and keeps doing so after the cache moves
    /// on.
    #[test]
    fn window_of_partly_pruned_first_segment() {
        let mut c = ExecutedCache::new();
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(2);
        for id in [1, 2, 3] {
            c.insert(id, t0);
        }
        for id in [4, 5] {
            c.insert(id, t1);
        }
        let whole = c.window(); // one segment, two runs
        assert_eq!(
            c.checkpoint_prune(t1, SimDuration::from_secs(1)),
            0,
            "same epoch: kept"
        );
        // Second boundary: the t0 block is old enough, the t1 block is not.
        assert_eq!(
            c.checkpoint_prune(t0 + SimDuration::from_secs(3), SimDuration::from_secs(2)),
            3
        );
        c.insert(6, t0 + SimDuration::from_secs(3));
        let rest = c.window();
        assert_eq!(rest.0.segs.len(), 2);
        assert!(
            Arc::ptr_eq(&rest.0.segs[0], &whole.0.segs[0]),
            "the segment is shared, not copied"
        );
        assert_eq!((rest.0.skip, rest.len()), (3, 3));
        assert_eq!(rest.iter().collect::<Vec<_>>(), [4, 5, 6]);
        // Later prunes and inserts reach neither handle.
        assert_eq!(
            c.checkpoint_prune(t0 + SimDuration::from_secs(60), SimDuration::ZERO),
            2
        );
        assert_eq!(
            c.checkpoint_prune(t0 + SimDuration::from_secs(60), SimDuration::ZERO),
            1
        );
        assert!(c.is_empty());
        c.insert(1, t0 + SimDuration::from_secs(61));
        assert_eq!(whole.iter().collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
        assert_eq!(rest.iter().collect::<Vec<_>>(), [4, 5, 6]);
        // Rebuilding from a handle restarts every id at (epoch 0, now).
        let mut back = ExecutedCache::from_window(&rest, t0);
        assert_eq!(back.len(), 3);
        assert!(back.contains(5) && !back.contains(1));
        assert_eq!(
            back.checkpoint_prune(t0 + SimDuration::from_secs(9), SimDuration::ZERO),
            0
        );
        assert_eq!(
            back.checkpoint_prune(t0 + SimDuration::from_secs(9), SimDuration::ZERO),
            3
        );
    }

    /// A checkpoint costs what changed since the last one. Counted, not
    /// timed: with 100k+ ids remembered, capturing a window after one more
    /// interval copies no id — every earlier segment is the same
    /// allocation as in the previous handle — and the prune removes
    /// exactly the expired interval, leaving the other segments untouched.
    #[test]
    fn checkpoint_work_is_proportional_to_the_interval_not_the_window() {
        const INTERVAL: u64 = 2048;
        let ttl = SimDuration::from_secs(10);
        let mut c = ExecutedCache::new();
        let mut now = SimTime::ZERO;
        let mut next_id = 0u64;
        let mut interval = |c: &mut ExecutedCache, now: &mut SimTime| {
            for _block in 0..32 {
                for _ in 0..INTERVAL / 32 {
                    c.insert(next_id, *now);
                    next_id += 1;
                }
                *now += SimDuration::from_millis(6);
            }
        };
        for _ in 0..50 {
            interval(&mut c, &mut now);
            c.window();
            assert_eq!(c.checkpoint_prune(now, ttl), 0, "younger than the ttl");
        }
        let before = c.window();
        assert_eq!(before.len() as u64, 50 * INTERVAL);
        assert_eq!(before.0.segs.len(), 50);

        interval(&mut c, &mut now);
        let after = c.window();
        assert_eq!(after.0.segs.len(), 51, "one new segment");
        assert_eq!(
            after.0.segs[50].ids.len() as u64,
            INTERVAL,
            "holding one interval"
        );
        assert_eq!(
            after.0.segs[50].runs.len(),
            32,
            "tagged per block, not per id"
        );
        for (a, b) in before.0.segs.iter().zip(&after.0.segs) {
            assert!(
                Arc::ptr_eq(a, b),
                "earlier segments are shared with the previous handle"
            );
        }

        // Let exactly the first interval age out.
        let first_expires = SimTime::ZERO + SimDuration::from_millis(6 * 31) + ttl;
        assert_eq!(c.checkpoint_prune(first_expires, ttl) as u64, INTERVAL);
        assert_eq!(c.len() as u64, 50 * INTERVAL);
        assert_eq!(
            (c.sealed.len(), c.skip),
            (50, 0),
            "the expired segment is popped whole"
        );
        for (mine, theirs) in c.sealed.iter().zip(&after.0.segs[1..]) {
            assert!(
                Arc::ptr_eq(mine, theirs),
                "the live segments were not rebuilt"
            );
        }
        assert!(!c.contains(0) && c.contains(INTERVAL));
        // Both handles still see what they captured.
        assert_eq!(before.iter().count() as u64, 50 * INTERVAL);
        assert_eq!(after.iter().next(), Some(0));
    }

    #[test]
    fn decoded_window_counts_a_repeated_id_once() {
        let mut w = Writer::new();
        w.u32(5);
        for id in [9u64, 3, 9, 7, 3] {
            w.u64(id);
        }
        let bytes = w.into_bytes();
        let window = ExecutedWindow::decode(&mut Reader::new(&bytes)).expect("decodes");
        assert_eq!(window.len(), 3);
        assert_eq!(window.iter().collect::<Vec<_>>(), [9, 3, 7]);
        assert_eq!(ExecutedCache::from_window(&window, SimTime::ZERO).len(), 3);
        // A count running past the bytes is refused, not trusted.
        assert!(ExecutedWindow::decode(&mut Reader::new(&bytes[..bytes.len() - 1])).is_none());
    }

    proptest::proptest! {
        /// The window *is* the old cache: over random interleavings of
        /// inserts, clock advances, seals and prunes the two agree at every
        /// step (asserted inside [`testkit::Twin::step`]), and every handle
        /// captured along the way keeps iterating exactly the model's ids
        /// as of its capture, in execution order, whatever happens later.
        #[test]
        fn window_equals_the_scan_everything_model(seed: u64) {
            let mut twin = testkit::Twin::new(seed);
            let mut captured: Vec<(ExecutedWindow, Vec<u64>)> = Vec::new();
            for step in 0..300 {
                twin.step();
                if step % 7 == seed % 7 {
                    captured.push(twin.capture());
                }
                if step % 50 == 49 {
                    for (window, want) in &captured {
                        proptest::prop_assert_eq!(window.len(), want.len());
                        proptest::prop_assert_eq!(&window.iter().collect::<Vec<_>>(), want);
                    }
                }
            }
            // The encoded form carries the same ids in the same order.
            for (window, want) in &captured {
                let mut w = Writer::new();
                window.encode(&mut w);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                let back = ExecutedWindow::decode(&mut r).expect("decodes");
                proptest::prop_assert!(r.is_done());
                proptest::prop_assert_eq!(&back.iter().collect::<Vec<_>>(), want);
            }
        }
    }

    #[test]
    fn request_ids_unique_per_client_seq() {
        let a = Request::make_id(1, 1);
        let b = Request::make_id(1, 2);
        let c = Request::make_id(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a >> 32, 1);
    }
}
