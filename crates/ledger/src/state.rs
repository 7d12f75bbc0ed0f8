//! The key-value state store with two-phase-locking execution semantics
//! and an authenticated index.
//!
//! Implements the execution model of §6.3: locks are ordinary blockchain
//! states under the key `"L_" + key`, prepares stash their write sets as
//! pending state, commits apply them, aborts discard them. Single-shard
//! (`Direct`) transactions abort on locked keys, which is how 2PL isolation
//! manifests without intra-shard concurrency (execution is sequential
//! within a shard — concurrency only arises across shards).
//!
//! ## One copy of the state
//!
//! The store is a sparse Merkle tree ([`ahl_store::SparseMerkleTree`])
//! over all live keys (lock markers included) whose leaves carry the
//! values. It is the only copy: a read is one key hash and one O(log n)
//! descent, a write is one copy-on-write root-path update, and the root is
//! [`StateStore::state_digest`]. The root commits to content, not history
//! — any operation sequence reaching the same key-value set reaches the
//! same root — so any key has an inclusion/exclusion proof
//! ([`StateStore::prove`]) and state sync verifies fetched chunks against a
//! certified root.
//!
//! Writes leave the tree's root paths stale, and the tree re-hashes them
//! when its root is next read (see `ahl_store`'s freshness notes): a
//! replica reads it at each checkpoint vote, so the writes between two
//! checkpoints hash each shared ancestor once, not once per block.
//!
//! The store also keeps an exact count of live lock markers, taken from
//! the tree's content alone (never from the uncertified [`StateSidecar`]).
//! While it is zero — no prepared cross-shard transaction holds a lock on
//! this shard — [`StateStore::is_locked`] answers without a tree walk.
//!
//! ## One execution path
//!
//! [`StateStore::plan`] computes an operation's receipt and effect list
//! against `&self`; [`StateStore::apply_plan`] makes the effects real.
//! [`StateStore::execute`] is the two composed, and [`crate::parexec`]
//! plans conflict-free waves of operations concurrently before applying
//! them in batch order — the same code at every worker count.
//!
//! ## Snapshots
//!
//! The tree is *persistent* (copy-on-write, structurally shared), so
//! [`StateStore::snapshot`] and [`StateStore::from_snapshot`] are **O(1)
//! root handles**, not deep clones: a [`StateSnapshot`] freezes root, keys,
//! and values at capture time and serves complete state-sync chunks
//! ([`StateSnapshot::chunk_entries`] / [`StateSnapshot::chunk_proof`]) no
//! matter how the live store evolves. Checkpoints take one per interval;
//! retained snapshots also power incremental (diff) sync — see
//! [`StateStore::apply_diff`].
//!
//! A store, its snapshots and every store restored from them share one
//! node slab with a reference count per node (see `ahl_store`'s
//! structural-sharing notes). Taking a snapshot bumps one count; a write
//! copies only the root-path nodes a snapshot still shares; dropping a
//! snapshot frees only the nodes no other handle reaches. Reads that lend
//! out values go through [`SparseMerkleTree::view`], which holds the slab
//! read-locked — so [`StateStore::get`] returns a copy, and a view must be
//! dropped before any store or snapshot of the same lineage is written.

use std::collections::HashMap;

use ahl_crypto::Hash;
use ahl_store::{SmtProof, SparseMerkleTree};

use crate::types::{
    AbortReason, Condition, ExecStatus, Key, Mutation, Op, Receipt, StateOp, TxId, Value,
};

/// Prefix for lock marker keys, as in the paper ("L_"acc).
pub const LOCK_PREFIX: &str = "L_";

#[derive(Clone, Debug)]
struct PendingTx {
    locks: Vec<Key>,
    mutations: Vec<(Key, Mutation)>,
}

/// One prepared-but-undecided transaction in a [`StateSidecar`]: its id,
/// lock set, and stashed mutations.
type PendingEntry = (TxId, Vec<Key>, Vec<(Key, Mutation)>);

/// Unauthenticated 2PC bookkeeping that travels alongside a certified state
/// transfer: prepared-but-undecided write sets and the recently-decided
/// transaction ids (replay protection). Snapshotted at checkpoint heights
/// and installed by a syncing replica after its chunks verify.
#[derive(Clone, Debug, Default)]
pub struct StateSidecar {
    pending: Vec<PendingEntry>,
    resolved: Vec<(TxId, u64)>,
    resolved_epoch: u64,
}

impl StateSidecar {
    /// Serialize for the durable checkpoint manifest (the 2PC bookkeeping
    /// must survive a crash, or prepared-but-undecided transactions would
    /// leak their locks forever on the recovered node).
    pub fn encode(&self, w: &mut ahl_wal::codec::Writer) {
        w.u64(self.resolved_epoch);
        w.u32(self.pending.len() as u32);
        for (txid, locks, muts) in &self.pending {
            w.u64(txid.0);
            w.u32(locks.len() as u32);
            for k in locks {
                w.str(k);
            }
            w.u32(muts.len() as u32);
            for (k, m) in muts {
                w.str(k);
                crate::persist::encode_mutation(m, w);
            }
        }
        w.u32(self.resolved.len() as u32);
        for (txid, epoch) in &self.resolved {
            w.u64(txid.0);
            w.u64(*epoch);
        }
    }

    /// Decode a sidecar written by [`StateSidecar::encode`]; `None` on
    /// truncation or corruption.
    pub fn decode(r: &mut ahl_wal::codec::Reader<'_>) -> Option<StateSidecar> {
        let resolved_epoch = r.u64()?;
        let np = r.u32()? as usize;
        let mut pending = Vec::with_capacity(np.min(1024));
        for _ in 0..np {
            let txid = TxId(r.u64()?);
            let nl = r.u32()? as usize;
            let mut locks = Vec::with_capacity(nl.min(1024));
            for _ in 0..nl {
                locks.push(r.str()?);
            }
            let nm = r.u32()? as usize;
            let mut muts = Vec::with_capacity(nm.min(1024));
            for _ in 0..nm {
                let k = r.str()?;
                muts.push((k, crate::persist::decode_mutation(r)?));
            }
            pending.push((txid, locks, muts));
        }
        let nr = r.u32()? as usize;
        let mut resolved = Vec::with_capacity(nr.min(65536));
        for _ in 0..nr {
            resolved.push((TxId(r.u64()?), r.u64()?));
        }
        Some(StateSidecar {
            pending,
            resolved,
            resolved_epoch,
        })
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        32 + self
            .pending
            .iter()
            .map(|(_, locks, muts)| 16 + 24 * locks.len() + 40 * muts.len())
            .sum::<usize>()
            + 8 * self.resolved.len()
    }
}

/// A frozen, authenticated snapshot of a [`StateStore`]'s key-value
/// content (plus the 2PC sidecar captured alongside it).
///
/// Creation ([`StateStore::snapshot`]) is O(1) in the state size: the
/// persistent SMT is shared structurally, and its leaves carry the values,
/// so the snapshot alone serves complete state-sync chunks — keys, values,
/// and proofs. PBFT keeps one per certified checkpoint; diff sync compares
/// two of them.
#[derive(Clone, Debug, Default)]
pub struct StateSnapshot {
    smt: SparseMerkleTree<Value>,
    /// Live lock markers in `smt` (see [`StateStore::lock_markers`]).
    lock_markers: usize,
    sidecar: StateSidecar,
}

impl StateSnapshot {
    /// Assemble a snapshot from a verified tree and a recovered sidecar
    /// (the durable-checkpoint reopen path — see
    /// [`crate::persist::open_snapshot`]).
    pub fn from_parts(smt: SparseMerkleTree<Value>, sidecar: StateSidecar) -> Self {
        StateSnapshot {
            lock_markers: count_lock_markers(&smt),
            smt,
            sidecar,
        }
    }

    /// The state root the snapshot is frozen at.
    pub fn root(&self) -> Hash {
        self.smt.root_hash()
    }

    /// Number of live keys (lock markers included).
    pub fn len(&self) -> usize {
        self.smt.len()
    }

    /// True when the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.smt.is_empty()
    }

    /// The frozen authenticated tree (diff computation, proof serving).
    pub fn smt(&self) -> &SparseMerkleTree<Value> {
        &self.smt
    }

    /// The 2PC bookkeeping captured with the snapshot.
    pub fn sidecar(&self) -> &StateSidecar {
        &self.sidecar
    }

    /// The complete `(key, value)` payload of one state-sync chunk, in
    /// path order.
    pub fn chunk_entries(&self, chunk: u32, bits: u8) -> Vec<(Key, Value)> {
        self.smt
            .view()
            .chunk_entries(chunk, bits)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Sibling hashes proving a chunk against [`StateSnapshot::root`].
    pub fn chunk_proof(&self, chunk: u32, bits: u8) -> Vec<Hash> {
        self.smt.chunk_proof(chunk, bits)
    }

    /// The chunk indices (of `1 << bits`) whose content changed between
    /// this (older) snapshot and `newer` — the server half of diff sync.
    pub fn diff_chunks(&self, newer: &StateSnapshot, bits: u8) -> Vec<u32> {
        self.smt.diff_chunks(&newer.smt, bits)
    }
}

/// The ledger state of one shard.
#[derive(Clone, Debug, Default)]
pub struct StateStore {
    /// The state itself — the leaves carry the values — and its
    /// authenticated index (root = [`StateStore::state_digest`]).
    smt: SparseMerkleTree<Value>,
    /// Exactly the number of live `L_` keys in `smt`, maintained wherever
    /// the tree changes.
    lock_markers: usize,
    pending: HashMap<TxId, PendingTx>,
    /// Transactions already committed or aborted here, tagged with the
    /// checkpoint epoch in which they resolved. A PrepareTx that arrives
    /// after its decision (reordered across the network) must be refused,
    /// or its locks would never be released. Entries older than a full
    /// checkpoint interval are pruned by [`StateStore::checkpoint_prune`].
    resolved: HashMap<TxId, u64>,
    /// Current checkpoint epoch (bumped by `checkpoint_prune`).
    resolved_epoch: u64,
}

impl StateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from a complete key-value enumeration in one bulk pass
    /// (one hash per tree node instead of O(log n) per key): a committee's
    /// genesis, or a state-sync install whose entries the caller verified
    /// against a certified root. Pending/resolved bookkeeping starts empty —
    /// install the transferred [`StateSidecar`] afterwards.
    pub fn from_entries(entries: Vec<(Key, Value)>) -> Self {
        let smt = SparseMerkleTree::build(entries);
        StateStore {
            lock_markers: count_lock_markers(&smt),
            smt,
            ..StateStore::default()
        }
    }

    /// Freeze the current state as a [`StateSnapshot`] — O(1) in the state
    /// size (one shared tree handle plus the small 2PC sidecar), replacing
    /// the full deep clone checkpoints used to take.
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            smt: self.smt.clone(),
            lock_markers: self.lock_markers,
            sidecar: self.export_sidecar(),
        }
    }

    /// Reconstruct a full store from a retained snapshot (durable-
    /// checkpoint restart, diff-sync base): the tree is shared back in
    /// O(1) and the snapshot's 2PC sidecar is installed.
    pub fn from_snapshot(snap: &StateSnapshot) -> Self {
        let mut s = StateStore {
            smt: snap.smt.clone(),
            lock_markers: snap.lock_markers,
            ..StateStore::default()
        };
        s.install_sidecar(&snap.sidecar);
        s
    }

    /// Apply an incremental state-sync result: for every `(chunk, entries)`
    /// pair, drop the local content of that key-range chunk and install the
    /// verified replacement. After overlaying all changed chunks the root
    /// must equal the certified one — callers check [`Self::state_digest`]
    /// and fall back to a full transfer on mismatch (a server that lied
    /// about the changed-chunk set cannot slip state past the root).
    pub fn apply_diff(&mut self, bits: u8, chunks: &[(u32, Vec<(Key, Value)>)]) {
        for (chunk, entries) in chunks {
            let stale: Vec<Key> = self
                .smt
                .view()
                .chunk_keys(*chunk, bits)
                .iter()
                .map(|k| k.to_string())
                .collect();
            for k in stale {
                self.erase(&k);
            }
            for (k, v) in entries {
                self.write(k, v.clone());
            }
        }
    }

    /// Read a key (a copy of its value).
    pub fn get(&self, key: &str) -> Option<Value> {
        self.smt.view().get(key).cloned()
    }

    /// Whether `key` is live.
    fn contains(&self, key: &str) -> bool {
        self.smt.get_hash(key).is_some()
    }

    /// Integer value of a key, treating absent as 0.
    pub fn get_int(&self, key: &str) -> i64 {
        self.smt
            .view()
            .get(key)
            .and_then(Value::as_int)
            .unwrap_or(0)
    }

    /// Direct write (genesis/state-sync only; transactions go through
    /// [`StateStore::execute`]).
    pub fn put(&mut self, key: Key, value: Value) {
        self.write(&key, value);
    }

    /// Insert or overwrite `key`, leaving its root path stale.
    fn write(&mut self, key: &str, value: Value) {
        if key.starts_with(LOCK_PREFIX) && !self.contains(key) {
            self.lock_markers += 1;
        }
        self.smt.insert(key, value);
    }

    /// The deleting counterpart of [`StateStore::write`].
    fn erase(&mut self, key: &str) {
        if self.smt.remove(key) && key.starts_with(LOCK_PREFIX) {
            self.lock_markers -= 1;
        }
    }

    /// Number of live keys (including lock markers).
    pub fn len(&self) -> usize {
        self.smt.len()
    }

    /// True when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.smt.is_empty()
    }

    /// Number of transactions currently prepared but not yet resolved.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether `txid` holds a prepared-but-unresolved write set here.
    /// (Adversary harness: distinguishes a decision that actually applied
    /// or discarded a prepared transaction from a no-op late delivery.)
    pub fn has_pending(&self, txid: TxId) -> bool {
        self.pending.contains_key(&txid)
    }

    /// Number of remembered resolved-transaction ids (bounded by
    /// [`StateStore::checkpoint_prune`]).
    pub fn resolved_count(&self) -> usize {
        self.resolved.len()
    }

    /// Whether `key` is currently locked by a prepared transaction.
    pub fn is_locked(&self, key: &str) -> bool {
        self.lock_markers > 0
            && matches!(self.smt.view().get(&lock_key(key)), Some(Value::Bool(true)))
    }

    /// Number of live lock-marker (`L_…`) keys — exact, so zero means no
    /// key on this shard is locked.
    pub fn lock_markers(&self) -> usize {
        self.lock_markers
    }

    /// The state root: the sparse-Merkle-tree commitment to every live
    /// key-value pair. Identical across replicas that hold identical state,
    /// regardless of the operation order that produced it.
    pub fn state_digest(&self) -> Hash {
        self.smt.root_hash()
    }

    /// The authenticated index (proof generation, chunk serving).
    pub fn smt(&self) -> &SparseMerkleTree<Value> {
        &self.smt
    }

    /// Produce an inclusion proof (key live) or exclusion proof (key
    /// absent) for `key` against the current root. Verify with
    /// [`ahl_store::verify_proof`].
    pub fn prove(&self, key: &str) -> SmtProof {
        self.smt.prove(key)
    }

    /// Re-derive every cached hash in the authenticated index bottom-up
    /// (across up to `workers` threads on disjoint subtrees) and compare
    /// against the stored values. `true` means the cached root is exactly
    /// what a from-scratch rebuild would produce — the cheap paranoia
    /// check the parallel-execution path runs at checkpoint time before
    /// certifying a root.
    pub fn rehash_audit(&self, workers: usize) -> bool {
        self.smt.rehash_audit(workers)
    }

    /// Snapshot the 2PC bookkeeping for a certified state transfer.
    ///
    /// Pending and resolved entries are sorted by transaction id: both live
    /// in hash maps whose iteration order depends on insertion history and
    /// the per-process hasher seed, and the sidecar's byte encoding flows
    /// into durable checkpoint manifests and sync transfers — unsorted
    /// iteration here made those bytes nondeterministic across replicas
    /// holding identical state.
    pub fn export_sidecar(&self) -> StateSidecar {
        let mut pending: Vec<PendingEntry> = self
            .pending
            .iter()
            .map(|(txid, p)| (*txid, p.locks.clone(), p.mutations.clone()))
            .collect();
        pending.sort_by_key(|(txid, _, _)| *txid);
        let mut resolved: Vec<(TxId, u64)> = self.resolved.iter().map(|(t, e)| (*t, *e)).collect();
        resolved.sort_unstable();
        StateSidecar {
            pending,
            resolved,
            resolved_epoch: self.resolved_epoch,
        }
    }

    /// Install transferred 2PC bookkeeping (replaces local pending/resolved
    /// state; the key-value content came through verified chunks).
    pub fn install_sidecar(&mut self, sidecar: &StateSidecar) {
        self.pending = sidecar
            .pending
            .iter()
            .map(|(txid, locks, mutations)| {
                (
                    *txid,
                    PendingTx {
                        locks: locks.clone(),
                        mutations: mutations.clone(),
                    },
                )
            })
            .collect();
        self.resolved = sidecar.resolved.iter().copied().collect();
        self.resolved_epoch = sidecar.resolved_epoch;
    }

    /// Checkpoint-boundary maintenance: forget resolved-transaction ids
    /// older than one full checkpoint interval and advance the epoch.
    /// Returns how many ids were pruned.
    ///
    /// Ids resolved in the epoch just ended stay for one more interval, so
    /// a prepare reordered behind its own decision is still refused unless
    /// it is delayed by more than an entire checkpoint interval — beyond
    /// every retransmission horizon in the system. Without this the set
    /// grows without bound over a long run.
    pub fn checkpoint_prune(&mut self) -> usize {
        let epoch = self.resolved_epoch;
        let before = self.resolved.len();
        self.resolved.retain(|_, e| *e >= epoch);
        self.resolved_epoch += 1;
        before - self.resolved.len()
    }

    /// The checks a `Direct` and a `Prepare` share, all read-only: no
    /// mutation of a reserved key, no touched key locked, every guard holds.
    fn check_op(&self, op: &StateOp) -> Result<(), AbortReason> {
        // Lock markers are ordinary state, but only the 2PC lifecycle may
        // write them: a client-chosen `L_` key would forge a lock no
        // decision releases, or release another transaction's. Guards and
        // reads on marker keys stay legal.
        if let Some((k, _)) = op
            .mutations
            .iter()
            .find(|(k, _)| k.starts_with(LOCK_PREFIX))
        {
            return Err(AbortReason::ReservedKey(k.clone()));
        }
        if self.lock_markers > 0 {
            for k in op.touched_keys() {
                if self.is_locked(&k) {
                    return Err(AbortReason::LockConflict(k));
                }
            }
        }
        for c in &op.conditions {
            let ok = match c {
                Condition::Exists(k) => self.contains(k),
                Condition::NotExists(k) => !self.contains(k),
                Condition::IntAtLeast { key, min } => self.get_int(key) >= *min,
            };
            if !ok {
                return Err(AbortReason::ConditionFailed(c.clone()));
            }
        }
        Ok(())
    }

    /// Execute one transaction operation, returning its receipt.
    pub fn execute(&mut self, op: &Op) -> Receipt {
        self.apply_plan(self.plan(op))
    }

    // ---- plan/apply: the one statement of the §6.3 semantics -------------
    //
    // `plan` is the read-only half of an operation: it computes the receipt
    // and the full effect list against the current state without touching
    // it, so many non-conflicting operations can be planned concurrently
    // against one `&StateStore`. `apply_plan` makes the effects real.
    // `crate::parexec` builds conflict-free waves on top.

    /// The pending lock set and mutated-key set of a prepared transaction,
    /// if present — what [`crate::access`] needs to infer the write set of
    /// a `Commit`/`Abort`.
    pub fn pending_info(&self, txid: TxId) -> Option<(Vec<Key>, Vec<Key>)> {
        self.pending.get(&txid).map(|p| {
            (
                p.locks.clone(),
                p.mutations.iter().map(|(k, _)| k.clone()).collect(),
            )
        })
    }

    /// Plan one operation against the current state without executing it:
    /// the returned [`ExecPlan`] carries the receipt status plus the exact
    /// effect list [`StateStore::apply_plan`] needs to make it real.
    /// Read-only, so disjoint operations can be planned in parallel.
    pub fn plan(&self, op: &Op) -> ExecPlan {
        let _prof = ahl_telemetry::Profiler::span("ledger.plan");
        let mut effects = Vec::new();
        let mut had_pending = false;
        let status = match op {
            Op::Direct { op, .. } => self.plan_direct(op, &mut effects),
            Op::Prepare { txid, op } => self.plan_prepare(*txid, op, &mut effects),
            Op::Commit { txid } => self.plan_commit(*txid, &mut effects),
            Op::Abort { txid } => {
                had_pending = self.pending.contains_key(txid);
                self.plan_abort(*txid, &mut effects)
            }
            Op::Read { keys, .. } => {
                ExecStatus::Committed(keys.iter().map(|k| (k.clone(), self.get(k))).collect())
            }
            Op::Noop => ExecStatus::Committed(vec![]),
        };
        ExecPlan {
            txid: op.txid(),
            status,
            effects,
            had_pending,
        }
    }

    /// Apply a plan produced by [`StateStore::plan`] against the *same*
    /// logical state (no conflicting effect may have intervened), returning
    /// the operation's receipt.
    pub fn apply_plan(&mut self, plan: ExecPlan) -> Receipt {
        let _prof = ahl_telemetry::Profiler::span("ledger.apply");
        for e in plan.effects {
            self.apply_effect(e);
        }
        Receipt {
            txid: plan.txid,
            status: plan.status,
        }
    }

    /// Apply one conflict-free wave of plans in canonical order. The 2PC
    /// bookkeeping updates serially (it is cheap) while all tree changes
    /// coalesce into one [`SparseMerkleTree::batch_apply`], which with
    /// `workers > 1` re-hashes disjoint subtrees in parallel — the dominant
    /// cost of applying a large wave.
    pub fn apply_plans(&mut self, plans: Vec<ExecPlan>, workers: usize) -> Vec<Receipt> {
        let mut receipts = Vec::with_capacity(plans.len());
        let mut changes: Vec<(Key, Option<Value>)> = Vec::new();
        for plan in plans {
            for e in plan.effects {
                match e {
                    Effect::Put(k, v) => changes.push((k, Some(v))),
                    Effect::Remove(k) => changes.push((k, None)),
                    other => self.apply_effect(other),
                }
            }
            receipts.push(Receipt {
                txid: plan.txid,
                status: plan.status,
            });
        }
        // Count the batch's marker keys present before and after.
        let mut markers: Vec<Key> = changes
            .iter()
            .filter(|(k, _)| k.starts_with(LOCK_PREFIX))
            .map(|(k, _)| k.clone())
            .collect();
        markers.sort_unstable();
        markers.dedup();
        let live = |smt: &SparseMerkleTree<Value>| {
            markers.iter().filter(|k| smt.get_hash(k).is_some()).count()
        };
        let before = live(&self.smt);
        self.smt.batch_apply(changes, workers);
        self.lock_markers = self.lock_markers + live(&self.smt) - before;
        receipts
    }

    fn apply_effect(&mut self, e: Effect) {
        match e {
            Effect::Put(k, v) => self.write(&k, v),
            Effect::Remove(k) => self.erase(&k),
            Effect::Stash(txid, locks, mutations) => {
                self.pending.insert(txid, PendingTx { locks, mutations });
            }
            Effect::Drop(txid) => {
                self.pending.remove(&txid);
            }
            Effect::Resolve(txid) => {
                self.resolved.insert(txid, self.resolved_epoch);
            }
        }
    }

    /// Materialize a mutation list into `Put`/`Remove` effects. Sequenced
    /// mutations of one key compose: an `Add` reads the value the effects
    /// already emitted for this list leave behind, not the stale store.
    fn plan_mutations(&self, muts: &[(Key, Mutation)], effects: &mut Vec<Effect>) {
        let start = effects.len();
        for (k, m) in muts {
            let effect = match m {
                Mutation::Set(v) => Effect::Put(k.clone(), v.clone()),
                Mutation::Add(d) => {
                    let earlier = effects[start..].iter().rev().find_map(|e| match e {
                        Effect::Put(ek, v) if ek == k => Some(v.as_int().unwrap_or(0)),
                        Effect::Remove(ek) if ek == k => Some(0),
                        _ => None,
                    });
                    let cur = earlier.unwrap_or_else(|| self.get_int(k));
                    Effect::Put(k.clone(), Value::Int(cur + d))
                }
                Mutation::Delete => Effect::Remove(k.clone()),
            };
            effects.push(effect);
        }
    }

    fn plan_direct(&self, op: &StateOp, effects: &mut Vec<Effect>) -> ExecStatus {
        if let Err(r) = self.check_op(op) {
            return ExecStatus::Aborted(r);
        }
        self.plan_mutations(&op.mutations, effects);
        ExecStatus::Committed(vec![])
    }

    fn plan_prepare(&self, txid: TxId, op: &StateOp, effects: &mut Vec<Effect>) -> ExecStatus {
        if self.pending.contains_key(&txid) {
            return ExecStatus::Aborted(AbortReason::DuplicatePrepare);
        }
        if self.resolved.contains_key(&txid) {
            return ExecStatus::Aborted(AbortReason::AlreadyResolved);
        }
        // Every check runs before any effect is emitted, so lock
        // acquisition is all-or-nothing by construction: a rejected
        // prepare is a perfect no-op on the state root and the write
        // accounting, and a partial acquisition can never leak (nothing
        // would record it, so no watchdog could ever release it).
        // Conditions therefore evaluate against the pre-acquisition state
        // — a guard targeting a literal `L_`-prefixed key this op is about
        // to lock does not observe its own marker.
        if let Err(r) = self.check_op(op) {
            return ExecStatus::Aborted(r);
        }
        // Acquire locks: write ⟨L_key, true⟩ to the blockchain state (§6.3).
        let locks = op.touched_keys();
        for k in &locks {
            effects.push(Effect::Put(lock_key(k), Value::Bool(true)));
        }
        effects.push(Effect::Stash(txid, locks, op.mutations.clone()));
        ExecStatus::Committed(vec![])
    }

    fn plan_commit(&self, txid: TxId, effects: &mut Vec<Effect>) -> ExecStatus {
        let Some(p) = self.pending.get(&txid) else {
            return ExecStatus::Aborted(AbortReason::NoPendingTx);
        };
        effects.push(Effect::Drop(txid));
        self.plan_mutations(&p.mutations, effects);
        for k in &p.locks {
            effects.push(Effect::Remove(lock_key(k)));
        }
        effects.push(Effect::Resolve(txid));
        ExecStatus::Committed(vec![])
    }

    fn plan_abort(&self, txid: TxId, effects: &mut Vec<Effect>) -> ExecStatus {
        // The decision is remembered even for an unknown transaction, so a
        // reordered late `Prepare` is refused: the coordinator broadcasts
        // aborts to shards whose prepare may not have executed yet.
        effects.push(Effect::Resolve(txid));
        if let Some(p) = self.pending.get(&txid) {
            effects.push(Effect::Drop(txid));
            for k in &p.locks {
                effects.push(Effect::Remove(lock_key(k)));
            }
        }
        ExecStatus::Committed(vec![])
    }
}

/// One primitive state change recorded in an [`ExecPlan`].
#[derive(Clone, Debug)]
enum Effect {
    /// Insert/overwrite a key (data or lock marker).
    Put(Key, Value),
    /// Delete a key (data or lock marker).
    Remove(Key),
    /// Stash a prepared write set under its transaction id.
    Stash(TxId, Vec<Key>, Vec<(Key, Mutation)>),
    /// Discard a prepared write set.
    Drop(TxId),
    /// Record a commit/abort decision for replay protection.
    Resolve(TxId),
}

/// The planned outcome of one operation: the receipt it will produce plus
/// the effect list that realizes it. Produced read-only by
/// [`StateStore::plan`], consumed by [`StateStore::apply_plan`].
#[derive(Clone, Debug)]
pub struct ExecPlan {
    txid: Option<TxId>,
    status: ExecStatus,
    effects: Vec<Effect>,
    had_pending: bool,
}

impl ExecPlan {
    /// Whether the planned operation was an `Abort` that found (and will
    /// discard) a prepared write set — the signal the safety checker's
    /// exactly-once accounting needs from the execution site.
    pub fn had_pending(&self) -> bool {
        self.had_pending
    }
}

/// The lock marker key for `key` ("L_" + key, §6.3).
pub fn lock_key(key: &str) -> Key {
    format!("{LOCK_PREFIX}{key}")
}

/// The live lock markers in `smt`, by a full scan.
fn count_lock_markers(smt: &SparseMerkleTree<Value>) -> usize {
    smt.view()
        .iter()
        .filter(|(k, _)| k.starts_with(LOCK_PREFIX))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_store::verify_proof;

    fn transfer(from: &str, to: &str, amt: i64) -> StateOp {
        StateOp {
            conditions: vec![Condition::IntAtLeast {
                key: from.into(),
                min: amt,
            }],
            mutations: vec![
                (from.into(), Mutation::Add(-amt)),
                (to.into(), Mutation::Add(amt)),
            ],
        }
    }

    fn store_with_balances() -> StateStore {
        let mut s = StateStore::new();
        s.put("a".into(), Value::Int(100));
        s.put("b".into(), Value::Int(50));
        s
    }

    fn sidecar_bytes(s: &StateStore) -> Vec<u8> {
        let mut w = ahl_wal::codec::Writer::new();
        s.export_sidecar().encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn direct_transfer_applies() {
        let mut s = store_with_balances();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        assert!(r.status.is_committed());
        assert_eq!(s.get_int("a"), 70);
        assert_eq!(s.get_int("b"), 80);
    }

    #[test]
    fn direct_insufficient_funds_aborts() {
        let mut s = store_with_balances();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: transfer("a", "b", 500),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::ConditionFailed(_))
        ));
        assert_eq!(s.get_int("a"), 100);
        assert_eq!(s.get_int("b"), 50);
    }

    #[test]
    fn prepare_locks_and_stashes() {
        let mut s = store_with_balances();
        let r = s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        assert!(r.status.is_committed());
        assert!(s.is_locked("a"));
        assert!(s.is_locked("b"));
        // Balances unchanged until commit.
        assert_eq!(s.get_int("a"), 100);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn commit_applies_and_unlocks() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        let r = s.execute(&Op::Commit { txid: TxId(1) });
        assert!(r.status.is_committed());
        assert_eq!(s.get_int("a"), 70);
        assert_eq!(s.get_int("b"), 80);
        assert!(!s.is_locked("a"));
        assert_eq!(s.pending_count(), 0);
    }

    #[test]
    fn abort_discards_and_unlocks() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        let r = s.execute(&Op::Abort { txid: TxId(1) });
        assert!(r.status.is_committed());
        assert_eq!(s.get_int("a"), 100);
        assert_eq!(s.get_int("b"), 50);
        assert!(!s.is_locked("a"));
    }

    #[test]
    fn conflicting_prepare_rejected() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        // Second transaction touching "a" must observe the lock (isolation).
        let r = s.execute(&Op::Prepare {
            txid: TxId(2),
            op: transfer("a", "b", 10),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::LockConflict(_))
        ));
        // Direct transactions also respect locks.
        let r2 = s.execute(&Op::Direct {
            txid: TxId(3),
            op: transfer("a", "b", 10),
        });
        assert!(matches!(
            r2.status,
            ExecStatus::Aborted(AbortReason::LockConflict(_))
        ));
    }

    #[test]
    fn disjoint_prepares_coexist() {
        let mut s = store_with_balances();
        s.put("c".into(), Value::Int(10));
        s.put("d".into(), Value::Int(10));
        let r1 = s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 5),
        });
        let r2 = s.execute(&Op::Prepare {
            txid: TxId(2),
            op: transfer("c", "d", 5),
        });
        assert!(r1.status.is_committed());
        assert!(r2.status.is_committed());
        assert_eq!(s.pending_count(), 2);
    }

    #[test]
    fn commit_without_prepare_aborts() {
        let mut s = StateStore::new();
        let r = s.execute(&Op::Commit { txid: TxId(7) });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::NoPendingTx)
        ));
    }

    #[test]
    fn abort_without_prepare_is_noop_success() {
        let mut s = StateStore::new();
        let r = s.execute(&Op::Abort { txid: TxId(7) });
        assert!(r.status.is_committed());
    }

    #[test]
    fn duplicate_prepare_rejected() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 5),
        });
        let r = s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 5),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::DuplicatePrepare)
        ));
    }

    #[test]
    fn read_returns_values() {
        let mut s = store_with_balances();
        let r = s.execute(&Op::Read {
            txid: TxId(1),
            keys: vec!["a".into(), "zz".into()],
        });
        match r.status {
            ExecStatus::Committed(vals) => {
                assert_eq!(vals[0].1, Some(Value::Int(100)));
                assert_eq!(vals[1].1, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_digest_changes_with_writes() {
        let mut s = StateStore::new();
        let d0 = s.state_digest();
        s.put("a".into(), Value::Int(1));
        let d1 = s.state_digest();
        assert_ne!(d0, d1);
        s.execute(&Op::Direct {
            txid: TxId(1),
            op: StateOp {
                conditions: vec![],
                mutations: vec![("a".into(), Mutation::Add(1))],
            },
        });
        assert_ne!(s.state_digest(), d1);
    }

    #[test]
    fn digest_deterministic_across_replicas() {
        let build = || {
            let mut s = StateStore::new();
            s.put("a".into(), Value::Int(100));
            s.execute(&Op::Prepare {
                txid: TxId(1),
                op: transfer("a", "a2", 3),
            });
            s.execute(&Op::Commit { txid: TxId(1) });
            s.state_digest()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn digest_is_content_addressed_not_history_addressed() {
        // Same final state through different histories → same root. This is
        // the property the rolling digest lacked and state sync requires.
        let mut a = store_with_balances();
        a.execute(&Op::Direct {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });

        let mut b = store_with_balances();
        b.execute(&Op::Prepare {
            txid: TxId(2),
            op: transfer("a", "b", 10),
        });
        b.execute(&Op::Commit { txid: TxId(2) });
        b.execute(&Op::Direct {
            txid: TxId(3),
            op: transfer("a", "b", 20),
        });

        assert_eq!(a.state_digest(), b.state_digest());
        // And it matches a bulk rebuild from the final content.
        let entries = a
            .smt()
            .view()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let rebuilt = StateStore::from_entries(entries);
        assert_eq!(rebuilt.state_digest(), a.state_digest());
    }

    #[test]
    fn proofs_verify_against_root() {
        let s = store_with_balances();
        let root = s.state_digest();
        let p = s.prove("a");
        assert!(verify_proof(
            &root,
            "a",
            Some(&Value::Int(100).digest()),
            &p
        ));
        assert!(!verify_proof(
            &root,
            "a",
            Some(&Value::Int(99).digest()),
            &p
        ));
        let absent = s.prove("nobody");
        assert!(verify_proof(&root, "nobody", None, &absent));
    }

    #[test]
    fn from_entries_matches_incremental_puts() {
        let entries: Vec<(Key, Value)> = (0..200)
            .map(|i| (format!("acc{i}"), Value::Int(i)))
            .collect();
        let bulk = StateStore::from_entries(entries.clone());
        let mut inc = StateStore::new();
        for (k, v) in &entries {
            inc.put(k.clone(), v.clone());
        }
        assert_eq!(bulk.state_digest(), inc.state_digest());
        assert_eq!(bulk.len(), inc.len());
    }

    #[test]
    fn checkpoint_prune_bounds_resolved_set() {
        let mut s = store_with_balances();
        for i in 0..10u64 {
            s.execute(&Op::Prepare {
                txid: TxId(i),
                op: transfer("a", "b", 1),
            });
            s.execute(&Op::Commit { txid: TxId(i) });
        }
        assert_eq!(s.resolved_count(), 10);
        // First checkpoint: current-epoch entries survive one interval.
        assert_eq!(s.checkpoint_prune(), 0);
        assert_eq!(s.resolved_count(), 10);
        // A late prepare within the protection window is still refused.
        let r = s.execute(&Op::Prepare {
            txid: TxId(3),
            op: transfer("a", "b", 1),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::AlreadyResolved)
        ));
        // New resolutions land in the new epoch.
        s.execute(&Op::Prepare {
            txid: TxId(100),
            op: transfer("a", "b", 1),
        });
        s.execute(&Op::Commit { txid: TxId(100) });
        // Second checkpoint: the old epoch is pruned (TxId 3 survived as it
        // was re-refused, not re-resolved; the original 10 go, minus any
        // re-tagged ones).
        let pruned = s.checkpoint_prune();
        assert_eq!(pruned, 10);
        assert_eq!(s.resolved_count(), 1);
    }

    #[test]
    fn sidecar_round_trip() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        s.execute(&Op::Prepare {
            txid: TxId(9),
            op: transfer("b", "a", 1),
        });
        s.execute(&Op::Abort { txid: TxId(9) });
        let sidecar = s.export_sidecar();
        assert!(sidecar.wire_size() > 32);

        // A synced replica rebuilds content from verified chunks, then
        // installs the sidecar — and can decide the in-flight transaction.
        let entries = s
            .smt()
            .view()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let mut synced = StateStore::from_entries(entries);
        assert_eq!(synced.state_digest(), s.state_digest());
        synced.install_sidecar(&sidecar);
        assert_eq!(synced.pending_count(), 1);
        let r = synced.execute(&Op::Commit { txid: TxId(1) });
        assert!(r.status.is_committed());
        assert_eq!(synced.get_int("a"), 70);
        // The replayed decision for the aborted tx is refused.
        let r2 = synced.execute(&Op::Prepare {
            txid: TxId(9),
            op: transfer("b", "a", 1),
        });
        assert!(matches!(
            r2.status,
            ExecStatus::Aborted(AbortReason::AlreadyResolved)
        ));
    }

    #[test]
    fn delete_mutation() {
        let mut s = store_with_balances();
        s.execute(&Op::Direct {
            txid: TxId(1),
            op: StateOp {
                conditions: vec![Condition::Exists("a".into())],
                mutations: vec![("a".into(), Mutation::Delete)],
            },
        });
        assert!(s.get("a").is_none());
        // Exists guard now fails.
        let r = s.execute(&Op::Direct {
            txid: TxId(2),
            op: StateOp {
                conditions: vec![Condition::Exists("a".into())],
                mutations: vec![],
            },
        });
        assert!(!r.status.is_committed());
    }

    #[test]
    fn prepare_lock_acquisition_is_all_or_nothing() {
        // tx1 locks "b"; tx2 then prepares over ["a", "b"]: the conflict
        // on "b" must leave no trace of "a"'s lock — a leaked L_a would be
        // invisible to the 2PC watchdog (no pending entry records it).
        // All checks run before any marker is written, so the failure is
        // a perfect no-op on the root.
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: StateOp {
                conditions: vec![],
                mutations: vec![("b".into(), Mutation::Add(1))],
            },
        });
        let root = s.state_digest();
        let r = s.execute(&Op::Prepare {
            txid: TxId(2),
            op: transfer("a", "b", 10),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::LockConflict(ref k)) if k == "b"
        ));
        assert!(
            !s.is_locked("a"),
            "mid-set lock must be released on conflict"
        );
        assert!(s.is_locked("b"), "the conflicting holder keeps its lock");
        assert_eq!(s.pending_count(), 1);
        assert_eq!(
            s.state_digest(),
            root,
            "failed prepare must not move the root"
        );
    }

    #[test]
    fn failed_condition_rolls_back_acquired_locks() {
        // Every key checks lock-free, then a guard fails: no lock marker
        // may survive the rejected prepare.
        let mut s = store_with_balances();
        let root = s.state_digest();
        let r = s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 500),
        });
        assert!(matches!(
            r.status,
            ExecStatus::Aborted(AbortReason::ConditionFailed(_))
        ));
        assert!(!s.is_locked("a"));
        assert!(!s.is_locked("b"));
        assert_eq!(s.pending_count(), 0);
        assert_eq!(s.state_digest(), root);
    }

    #[test]
    fn sidecar_export_is_insertion_order_independent() {
        // Two stores reach identical pending/resolved content through
        // different insertion orders; their hash maps iterate differently,
        // but the exported sidecar (whose encoding feeds durable manifests
        // and sync transfers) must serialize to identical bytes.
        let build = |txids: &[u64]| {
            let mut s = StateStore::new();
            for i in 0..64u64 {
                s.put(format!("k{i}"), Value::Int(100));
            }
            for &t in txids {
                let key = format!("k{t}");
                s.execute(&Op::Prepare {
                    txid: TxId(t),
                    op: StateOp {
                        conditions: vec![],
                        mutations: vec![(key, Mutation::Add(1))],
                    },
                });
            }
            // Resolve half of them (odd ids) so `resolved` is populated.
            for &t in txids {
                if t % 2 == 1 {
                    s.execute(&Op::Commit { txid: TxId(t) });
                }
            }
            s
        };
        let fwd: Vec<u64> = (0..64).collect();
        let rev: Vec<u64> = (0..64).rev().collect();
        let a = build(&fwd);
        let b = build(&rev);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(
            sidecar_bytes(&a),
            sidecar_bytes(&b),
            "sidecar bytes must be canonical"
        );
    }

    #[test]
    fn sequenced_mutations_of_one_key_compose() {
        // Set → Add → Delete → Add on one key in one operation: each step
        // reads what the previous one left, never the stale store (100).
        let op = StateOp {
            conditions: vec![],
            mutations: vec![
                ("k".into(), Mutation::Set(Value::Int(10))),
                ("k".into(), Mutation::Add(5)),
                ("k".into(), Mutation::Delete),
                ("k".into(), Mutation::Add(7)),
            ],
        };
        const ROOT: &str = "457f34a45c554f224b0e027f2f0f9cbf17361c577f3cb6c85325ff9a371e6c36";
        let fresh = || {
            let mut s = StateStore::new();
            s.put("k".into(), Value::Int(100));
            s
        };

        let mut direct = fresh();
        let r = direct.execute(&Op::Direct {
            txid: TxId(1),
            op: op.clone(),
        });
        assert!(r.status.is_committed());
        assert_eq!(direct.get("k"), Some(Value::Int(7)));
        assert_eq!(direct.state_digest().to_hex(), ROOT);

        let mut twopc = fresh();
        assert!(twopc
            .execute(&Op::Prepare { txid: TxId(1), op })
            .status
            .is_committed());
        assert_eq!(twopc.get("k"), Some(Value::Int(100)));
        assert!(twopc.is_locked("k"), "the prepare holds one lock marker");
        assert!(twopc
            .execute(&Op::Commit { txid: TxId(1) })
            .status
            .is_committed());
        assert_eq!(twopc.get("k"), Some(Value::Int(7)));
        assert_eq!(twopc.state_digest().to_hex(), ROOT);
    }

    #[test]
    fn refused_operations_leave_no_trace() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        let root = s.state_digest();
        let sidecar = sidecar_bytes(&s);
        let prepare = |txid, from, amt| Op::Prepare {
            txid: TxId(txid),
            op: transfer(from, "d", amt),
        };
        let poor = Condition::IntAtLeast {
            key: "c".into(),
            min: 1,
        };
        let refused = [
            (prepare(2, "a", 1), AbortReason::LockConflict("a".into())),
            (prepare(1, "c", 0), AbortReason::DuplicatePrepare),
            (prepare(3, "c", 1), AbortReason::ConditionFailed(poor)),
            (Op::Commit { txid: TxId(9) }, AbortReason::NoPendingTx),
        ];
        for (op, why) in refused {
            assert_eq!(s.execute(&op).status, ExecStatus::Aborted(why.clone()));
            assert_eq!(s.state_digest(), root, "{why:?} moved the root");
            assert_eq!(sidecar_bytes(&s), sidecar, "{why:?} changed the sidecar");
        }
    }

    #[test]
    fn client_cannot_forge_or_release_a_lock_marker() {
        let on_marker = |m: Mutation| StateOp {
            conditions: vec![],
            mutations: vec![("b".into(), Mutation::Add(1)), (lock_key("a"), m)],
        };
        let reserved = ExecStatus::Aborted(AbortReason::ReservedKey(lock_key("a")));
        let mut s = store_with_balances();
        let root = s.state_digest();
        // Forging: before the check this committed with nothing pending,
        // and every later operation on "a" aborted with no way to unlock.
        let forge = on_marker(Mutation::Set(Value::Bool(true)));
        assert_eq!(
            s.execute(&Op::Direct {
                txid: TxId(1),
                op: forge.clone()
            })
            .status,
            reserved
        );
        assert_eq!(
            s.execute(&Op::Prepare {
                txid: TxId(2),
                op: forge
            })
            .status,
            reserved
        );
        assert!(!s.is_locked("a") && !s.is_locked("b"));
        assert_eq!((s.state_digest(), s.pending_count()), (root, 0));
        let victim = Op::Direct {
            txid: TxId(3),
            op: transfer("a", "b", 1),
        };
        assert!(s.execute(&victim).status.is_committed());
        // Breaking: a delete must not release another transaction's lock.
        s.execute(&Op::Prepare {
            txid: TxId(4),
            op: transfer("a", "b", 5),
        });
        let release = on_marker(Mutation::Delete);
        assert_eq!(
            s.execute(&Op::Direct {
                txid: TxId(5),
                op: release
            })
            .status,
            reserved
        );
        assert!(s.is_locked("a"));
        // Guards and reads on marker keys stay legal.
        let guard = StateOp {
            conditions: vec![Condition::Exists(lock_key("a"))],
            mutations: vec![],
        };
        assert!(s
            .execute(&Op::Direct {
                txid: TxId(6),
                op: guard
            })
            .status
            .is_committed());
        let read = s.execute(&Op::Read {
            txid: TxId(7),
            keys: vec![lock_key("a")],
        });
        assert_eq!(
            read.status,
            ExecStatus::Committed(vec![(lock_key("a"), Some(Value::Bool(true)))])
        );
    }

    #[test]
    fn iter_order_depends_on_content_only() {
        let keys: Vec<Key> = (0..64).map(|i| format!("k{i}")).collect();
        let mut fwd = StateStore::new();
        for k in &keys {
            fwd.put(k.clone(), Value::Int(1));
        }
        let mut rev = StateStore::new();
        rev.put("gone".into(), Value::Int(9));
        for k in keys.iter().rev() {
            rev.put(k.clone(), Value::Int(1));
        }
        rev.execute(&Op::Direct {
            txid: TxId(1),
            op: StateOp {
                conditions: vec![],
                mutations: vec![("gone".into(), Mutation::Delete)],
            },
        });
        let (fwd, rev) = (fwd.smt().view(), rev.smt().view());
        let a: Vec<(&str, &Value)> = fwd.iter().collect();
        let b: Vec<(&str, &Value)> = rev.iter().collect();
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
    }

    #[test]
    fn from_snapshot_is_an_equal_and_independent_store() {
        let mut s = store_with_balances();
        s.execute(&Op::Prepare {
            txid: TxId(1),
            op: transfer("a", "b", 30),
        });
        s.execute(&Op::Abort { txid: TxId(2) });
        let mut t = StateStore::from_snapshot(&s.snapshot());
        assert_eq!(t.len(), s.len());
        for k in ["a", "b", "L_a", "missing"] {
            assert_eq!(t.get(k), s.get(k), "{k}");
            assert_eq!(t.prove(k), s.prove(k), "{k}");
        }
        assert_eq!(sidecar_bytes(&t), sidecar_bytes(&s));
        // The tree is shared copy-on-write: a write to either store does
        // not show in the other.
        assert!(t
            .execute(&Op::Commit { txid: TxId(1) })
            .status
            .is_committed());
        s.put("c".into(), Value::Int(1));
        assert_eq!((t.get_int("a"), s.get_int("a")), (70, 100));
        assert!(s.is_locked("a") && !t.is_locked("a"));
        assert_eq!((t.get("c"), s.get_int("c")), (None, 1));
        assert_eq!((t.pending_count(), s.pending_count()), (0, 1));
    }

    proptest::proptest! {
        /// Atomicity invariant: a sequence of random transfers through
        /// prepare/commit/abort conserves the total balance.
        #[test]
        fn conservation_of_funds(
            steps in proptest::collection::vec((0u8..4, 0usize..4, 0usize..4, 1i64..50), 1..60)
        ) {
            let accounts = ["w", "x", "y", "z"];
            let mut s = StateStore::new();
            for a in accounts {
                s.put(a.into(), Value::Int(1000));
            }
            let mut next_tx = 0u64;
            let mut open: Vec<TxId> = Vec::new();
            for (kind, from, to, amt) in steps {
                match kind {
                    0 => {
                        let txid = TxId(next_tx);
                        next_tx += 1;
                        let op = transfer(accounts[from], accounts[to], amt);
                        if s.execute(&Op::Prepare { txid, op }).status.is_committed() {
                            open.push(txid);
                        }
                    }
                    1 => {
                        if let Some(txid) = open.pop() {
                            s.execute(&Op::Commit { txid });
                        }
                    }
                    2 => {
                        if let Some(txid) = open.pop() {
                            s.execute(&Op::Abort { txid });
                        }
                    }
                    _ => {
                        let txid = TxId(next_tx);
                        next_tx += 1;
                        let op = transfer(accounts[from], accounts[to], amt);
                        s.execute(&Op::Direct { txid, op });
                    }
                }
            }
            // Resolve the rest.
            for txid in open {
                s.execute(&Op::Commit { txid });
            }
            let total: i64 = accounts.iter().map(|a| s.get_int(a)).sum();
            proptest::prop_assert_eq!(total, 4000);
            // And no locks should remain.
            for a in accounts {
                proptest::prop_assert!(!s.is_locked(a));
            }
        }

        /// The SMT root always equals a bulk rebuild of the surviving map:
        /// content-addressed, order-insensitive, across arbitrary op mixes.
        #[test]
        fn root_matches_reference_map(
            steps in proptest::collection::vec((0u8..4, 0usize..4, 0usize..4, 1i64..50), 1..60)
        ) {
            let accounts = ["w", "x", "y", "z"];
            let mut s = StateStore::new();
            for a in accounts {
                s.put(a.into(), Value::Int(1000));
            }
            let mut open: Vec<TxId> = Vec::new();
            for (next_tx, (kind, from, to, amt)) in steps.into_iter().enumerate() {
                let txid = TxId(next_tx as u64);
                match kind {
                    0 => {
                        let op = transfer(accounts[from], accounts[to], amt);
                        if s.execute(&Op::Prepare { txid, op }).status.is_committed() {
                            open.push(txid);
                        }
                    }
                    1 => {
                        if let Some(txid) = open.pop() {
                            s.execute(&Op::Commit { txid });
                        }
                    }
                    2 => {
                        if let Some(txid) = open.pop() {
                            s.execute(&Op::Abort { txid });
                        }
                    }
                    _ => {
                        let op = transfer(accounts[from], accounts[to], amt);
                        s.execute(&Op::Direct { txid, op });
                    }
                }
                let reference = StateStore::from_entries(
                    s.smt().view().iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
                );
                proptest::prop_assert_eq!(reference.state_digest(), s.state_digest());
            }
        }
    }
}
