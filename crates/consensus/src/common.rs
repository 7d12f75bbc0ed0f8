//! What every consensus protocol implementation shares: the request and
//! stat vocabulary, the executed-request replay cache, and the
//! **committed-block shell** ([`BlockExecutor`]) — the one place a decided
//! batch becomes executed state, safety-oracle observations and
//! throughput/latency reports, for PBFT (live execution and WAL replay)
//! and the lockstep engine alike.

use ahl_ledger::{Op, StateStore};
use ahl_mempool::Mempool;
use ahl_simkit::{Ctx, NodeId, Phase, Scope, SimDuration, SimTime};
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

    fn wire_bytes(&self) -> usize {
        // Matches the `PbftMsg::Request` wire-size model.
        250 + self.op.wire_size()
    }

    /// Fee proxy: heavier transactions pay proportionally more, so the
    /// priority pool favours them under contention.
    fn priority(&self) -> u64 {
        self.op.weight() as u64
    }
}

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
    /// Counter: retained snapshots evicted by the resident-byte budget
    /// (`snapshot_max_bytes`).
    pub const SNAPSHOT_EVICTIONS: &str = "sync.snapshot_evictions";
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
#[derive(Clone, Debug, Default)]
pub struct ExecutedCache {
    ids: std::collections::HashMap<u64, (u64, SimTime)>,
    epoch: u64,
}

impl ExecutedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild from a transferred id set (state-sync install); every id
    /// lands in the current epoch and enjoys the full protection window
    /// from `now`.
    pub fn from_set(ids: &std::collections::HashSet<u64>, now: SimTime) -> Self {
        ExecutedCache { ids: ids.iter().map(|id| (*id, (0, now))).collect(), epoch: 0 }
    }

    /// Record `id` as executed at `now`. Returns `false` if it was
    /// already known (a replay), refreshing nothing — the original
    /// epoch/time tags stand.
    pub fn insert(&mut self, id: u64, now: SimTime) -> bool {
        match self.ids.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((self.epoch, now));
                true
            }
        }
    }

    /// Whether `id` executed within the protection window.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.contains_key(&id)
    }

    /// Number of remembered ids (bounded by pruning).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no ids are remembered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Checkpoint-boundary maintenance: forget ids older than one full
    /// interval *and* at least `min_age` old (see the type docs for why
    /// both conditions are required), then advance the epoch. Returns how
    /// many ids were pruned.
    pub fn checkpoint_prune(&mut self, now: SimTime, min_age: SimDuration) -> usize {
        let epoch = self.epoch;
        let before = self.ids.len();
        self.ids.retain(|_, (e, t)| *e >= epoch || now.since(*t) < min_age);
        self.epoch += 1;
        before - self.ids.len()
    }

    /// The remembered ids as a plain set (checkpoint snapshot / manifest
    /// wire form).
    pub fn to_set(&self) -> std::collections::HashSet<u64> {
        self.ids.keys().copied().collect()
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
                ck.observe_exec(self.committee_id, self.me, req.id, &req.op, outcome.had_pending, ok);
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
                ctx.stats().record_latency_scoped(stat::TXN_LATENCY, scope, lat);
            }
            each(req, ok, ctx);
        });
        if self.reporter {
            let now = ctx.now();
            ctx.stats().inc_scoped(stat::TXN_COMMITTED, scope, committed);
            ctx.stats().inc_scoped(stat::TXN_ABORTED, scope, aborted);
            ctx.stats().inc_scoped(stat::BLOCKS_COMMITTED, scope, 1);
            ctx.stats().record_point(stat::COMMIT_SERIES, now, committed as f64);
        }
        if let Some(ck) = &self.checker {
            ck.record_commit(self.committee_id, height, commit_digest(reqs.iter().map(|r| r.id)));
        }
        weight
    }
}

/// Minimal [`ahl_simkit::Host`] for driving one actor handler at a time —
/// the same entry point `ahl_net::NodeRuntime` uses — so a test can
/// inspect exactly what each delivery does.
#[cfg(test)]
pub(crate) mod testkit {
    use ahl_simkit::{Host, NodeId, SimDuration, SimTime, Stats};
    use rand::{rngs::SmallRng, SeedableRng};

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
        assert!(!c.insert(7, t0 + SimDuration::from_secs(1)), "replay detected");
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
