//! Read/write-set inference for [`Op`]s — the conflict model behind
//! deterministic parallel execution ([`crate::parexec`]).
//!
//! Every operation's effect on a [`crate::StateStore`] is confined to a set
//! of *resources*: ordinary state keys, their 2PL lock markers
//! (`"L_" + key`), and one per-transaction bookkeeping slot (the
//! pending/resolved entries keyed by [`TxId`]). Two operations commute —
//! execute to the same receipts and state in either order — whenever
//! neither writes a resource the other reads or writes. The inference here
//! is deliberately *conservative*: a superset of the true access set only
//! costs parallelism, never correctness.
//!
//! Inference rules (one per [`Op`] variant):
//!
//! | op | reads | writes |
//! |----|-------|--------|
//! | `Direct` | condition keys, lock markers of touched keys, `Add`-target keys | mutated keys |
//! | `Prepare` | condition keys | lock markers of touched keys, tx slot |
//! | `Commit` | `Add`-target keys of the pending write set | pending mutated keys, their lock markers, tx slot |
//! | `Abort` | — | lock markers of the pending lock set, tx slot |
//! | `Read` | read keys | — |
//! | `Noop` | — | — |
//!
//! A `Commit`/`Abort` whose prepare is not visible yet (neither pending in
//! the store nor earlier in the same batch) touches only its tx slot: it
//! resolves to `NoPendingTx` / a lock-free abort, and the tx slot alone
//! serializes it against any later prepare for the same transaction.

use std::collections::HashMap;

use crate::state::lock_key;
use crate::types::{Key, Mutation, Op, StateOp, TxId};

/// One schedulable resource: a state key or a transaction's 2PC
/// bookkeeping slot. Lock markers are ordinary state keys (`"L_" + key`),
/// so they need no variant of their own; the tx slot does, because state
/// keys are arbitrary strings and no string namespace is collision-free.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// A state key (data key or lock marker).
    State(Key),
    /// The pending/resolved bookkeeping slot of one transaction.
    Tx(TxId),
}

/// The resources an operation may read and write.
#[derive(Clone, Debug, Default)]
pub struct AccessSet {
    /// Resources whose content the operation's outcome depends on.
    pub reads: Vec<Resource>,
    /// Resources the operation may create, mutate, or delete.
    pub writes: Vec<Resource>,
}

impl AccessSet {
    fn read_key(&mut self, k: &str) {
        self.reads.push(Resource::State(k.to_string()));
    }

    fn write_key(&mut self, k: &str) {
        self.writes.push(Resource::State(k.to_string()));
    }

    /// True when the two sets conflict: either writes what the other reads
    /// or writes. (Quadratic; scheduling uses indexed maps instead — this
    /// is the reference predicate for tests.)
    pub fn conflicts(&self, other: &AccessSet) -> bool {
        let hits = |a: &[Resource], b: &[Resource]| a.iter().any(|r| b.contains(r));
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&self.reads, &other.writes)
    }
}

fn state_op_accesses(acc: &mut AccessSet, op: &StateOp) {
    for c in &op.conditions {
        acc.read_key(c.key());
    }
    for (k, m) in &op.mutations {
        if matches!(m, Mutation::Add(_)) {
            acc.read_key(k); // read-modify-write
        }
        acc.write_key(k);
    }
}

/// What the scheduler knows about a transaction's prepared write set when
/// it meets the matching `Commit`/`Abort`: the lock set and the mutated
/// keys. Sourced from the store's live pending table or from an earlier
/// `Prepare` in the same batch.
pub type PendingInfo = (Vec<Key>, Vec<Key>);

/// Infer the access set of `op`. `pending` resolves a [`TxId`] to the
/// `(locks, mutated keys)` of its prepared write set, if one could be
/// visible when `op` executes (see the module table for how `None` is
/// handled).
pub fn infer(op: &Op, pending: impl Fn(TxId) -> Option<PendingInfo>) -> AccessSet {
    let mut acc = AccessSet::default();
    match op {
        Op::Direct { op, .. } => {
            for k in op.touched_keys() {
                acc.read_key(&lock_key(&k)); // 2PL: abort if any key is locked
            }
            state_op_accesses(&mut acc, op);
        }
        Op::Prepare { txid, op } => {
            for c in &op.conditions {
                acc.read_key(c.key());
            }
            for k in op.touched_keys() {
                acc.write_key(&lock_key(&k)); // checked *and* acquired
            }
            acc.writes.push(Resource::Tx(*txid));
        }
        Op::Commit { txid } => {
            acc.writes.push(Resource::Tx(*txid));
            if let Some((locks, mutated)) = pending(*txid) {
                for k in &mutated {
                    acc.read_key(k); // Add mutations read the current value
                    acc.write_key(k);
                }
                for k in &locks {
                    acc.write_key(&lock_key(k));
                }
            }
        }
        Op::Abort { txid } => {
            acc.writes.push(Resource::Tx(*txid));
            if let Some((locks, _)) = pending(*txid) {
                for k in &locks {
                    acc.write_key(&lock_key(k));
                }
            }
        }
        Op::Read { keys, .. } => {
            for k in keys {
                acc.read_key(k);
            }
        }
        Op::Noop => {}
    }
    acc
}

/// Partition a batch into *waves* with the deterministic greedy (list)
/// scheduler: operation `i` lands in the wave right after the latest wave
/// containing anything it conflicts with, so every wave is conflict-free
/// and an operation's full dependency prefix has executed before its wave
/// runs. Returns each operation's wave index (wave 0 first); the partition
/// is a pure function of the batch order and the access sets.
///
/// `pending` is consulted for `Commit`/`Abort` whose prepare is not in the
/// store yet — the scheduler resolves it against earlier `Prepare`s *in
/// this batch* before falling back to the tx slot alone.
pub fn schedule(ops: &[&Op], pending: impl Fn(TxId) -> Option<PendingInfo>) -> Vec<usize> {
    // Prepares earlier in the batch can create the pending entry a later
    // Commit/Abort consumes; their write sets must conflict.
    let mut batch_prepares: HashMap<TxId, PendingInfo> = HashMap::new();
    let mut last_read: HashMap<Resource, usize> = HashMap::new();
    let mut last_write: HashMap<Resource, usize> = HashMap::new();
    let mut waves = Vec::with_capacity(ops.len());
    for op in ops {
        let acc = infer(op, |t| {
            pending(t).or_else(|| batch_prepares.get(&t).cloned())
        });
        let mut wave = 0usize;
        for r in &acc.reads {
            if let Some(w) = last_write.get(r) {
                wave = wave.max(w + 1);
            }
        }
        for r in &acc.writes {
            if let Some(w) = last_write.get(r) {
                wave = wave.max(w + 1);
            }
            if let Some(w) = last_read.get(r) {
                wave = wave.max(w + 1);
            }
        }
        for r in acc.reads {
            let e = last_read.entry(r).or_insert(wave);
            *e = (*e).max(wave);
        }
        for r in acc.writes {
            last_write.insert(r, wave);
        }
        if let Op::Prepare { txid, op } = op {
            // *Any* same-txid prepare in the batch may be the one that
            // actually creates the pending entry: an earlier one can fail
            // at execution (its key already locked, say) and leave a later
            // one to succeed. The memo is therefore the union of every
            // prepare's lock/mutated key sets — a conservative superset of
            // whichever prepare wins, so the eventual Commit/Abort keeps
            // its release edges no matter which one created the entry.
            // Keys from losing prepares only add phantom edges.
            let (locks, mutated) = batch_prepares.entry(*txid).or_default();
            for k in op.touched_keys() {
                if !locks.contains(&k) {
                    locks.push(k);
                }
            }
            for (k, _) in &op.mutations {
                if !mutated.contains(k) {
                    mutated.push(k.clone());
                }
            }
        }
        waves.push(wave);
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Condition, Value};

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

    fn no_pending(_: TxId) -> Option<PendingInfo> {
        None
    }

    #[test]
    fn disjoint_directs_do_not_conflict() {
        let a = infer(
            &Op::Direct {
                txid: TxId(1),
                op: transfer("a", "b", 1),
            },
            no_pending,
        );
        let b = infer(
            &Op::Direct {
                txid: TxId(2),
                op: transfer("c", "d", 1),
            },
            no_pending,
        );
        assert!(!a.conflicts(&b));
    }

    #[test]
    fn overlapping_directs_conflict() {
        let a = infer(
            &Op::Direct {
                txid: TxId(1),
                op: transfer("a", "b", 1),
            },
            no_pending,
        );
        let b = infer(
            &Op::Direct {
                txid: TxId(2),
                op: transfer("b", "c", 1),
            },
            no_pending,
        );
        assert!(a.conflicts(&b));
    }

    #[test]
    fn prepare_conflicts_with_direct_via_lock_marker() {
        // The prepare writes L_a; the direct reads L_a (2PL lock check).
        let p = infer(
            &Op::Prepare {
                txid: TxId(1),
                op: transfer("a", "x", 1),
            },
            no_pending,
        );
        let d = infer(
            &Op::Direct {
                txid: TxId(2),
                op: StateOp {
                    conditions: vec![],
                    mutations: vec![("a".into(), Mutation::Add(1))],
                },
            },
            no_pending,
        );
        assert!(p.conflicts(&d));
    }

    #[test]
    fn commit_uses_pending_write_set() {
        let info = |_| Some((vec!["a".to_string()], vec!["a".to_string()]));
        let c = infer(&Op::Commit { txid: TxId(1) }, info);
        assert!(c.writes.contains(&Resource::State("a".into())));
        assert!(c.writes.contains(&Resource::State(lock_key("a"))));
        assert!(c.writes.contains(&Resource::Tx(TxId(1))));
        // Without pending info only the tx slot is claimed.
        let blind = infer(&Op::Commit { txid: TxId(1) }, no_pending);
        assert_eq!(blind.writes, vec![Resource::Tx(TxId(1))]);
        assert!(blind.reads.is_empty());
    }

    #[test]
    fn schedule_groups_independent_ops() {
        let ops = [
            Op::Direct {
                txid: TxId(1),
                op: transfer("a", "b", 1),
            },
            Op::Direct {
                txid: TxId(2),
                op: transfer("c", "d", 1),
            },
            Op::Direct {
                txid: TxId(3),
                op: transfer("b", "c", 1),
            }, // hits both
            Op::Direct {
                txid: TxId(4),
                op: transfer("e", "f", 1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert_eq!(waves, vec![0, 0, 1, 0]);
    }

    #[test]
    fn schedule_serializes_same_tx_lifecycle() {
        // Prepare → Commit for one txid must order, even though the commit
        // has no pending entry in the store yet (it is created in-batch).
        let ops = [
            Op::Prepare {
                txid: TxId(7),
                op: transfer("a", "b", 1),
            },
            Op::Commit { txid: TxId(7) },
            Op::Direct {
                txid: TxId(8),
                op: transfer("a", "z", 1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert!(
            waves[1] > waves[0],
            "commit must follow its prepare: {waves:?}"
        );
        // The direct touches "a", locked by the prepare: later wave too.
        assert!(
            waves[2] > waves[0],
            "direct must observe the lock: {waves:?}"
        );
    }

    #[test]
    fn schedule_orders_decide_before_late_prepare() {
        // Commit with no visible prepare claims only its tx slot, which
        // still serializes it against a *later* prepare of the same tx.
        let ops = [
            Op::Commit { txid: TxId(9) },
            Op::Prepare {
                txid: TxId(9),
                op: transfer("a", "b", 1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert!(waves[1] > waves[0], "{waves:?}");
    }

    #[test]
    fn duplicate_prepare_does_not_steal_the_lock_set() {
        // Prepare(T) locks "a"; a duplicate Prepare(T) over different keys
        // aborts at execution without acquiring anything, so Commit(T)
        // still releases "a" — its schedule edge to a later Direct on "a"
        // must survive the duplicate (the memo unions both key sets, so
        // the duplicate's keys become phantom edges, never lost ones).
        let ops = [
            Op::Prepare {
                txid: TxId(5),
                op: transfer("a", "b", 1),
            },
            Op::Prepare {
                txid: TxId(5),
                op: transfer("x", "y", 1),
            }, // dup
            Op::Commit { txid: TxId(5) },
            Op::Direct {
                txid: TxId(6),
                op: transfer("a", "z", 1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert!(
            waves[3] > waves[2],
            "direct must run after the commit that frees its lock: {waves:?}"
        );
    }

    #[test]
    fn failed_first_prepare_keeps_commit_release_edges() {
        // The mirror case of the duplicate test: the *first* Prepare(T)
        // fails at execution ("x" is locked by tx 1), so the *second*
        // Prepare(T) — over different keys — creates the pending entry.
        // Commit(T) then releases L_a/L_b, so the later Direct on "a" must
        // wave strictly after it; with a first-prepare-wins memo the
        // commit's write set would only cover {x, w} and the Direct could
        // share the commit's wave, planning against stale locked state.
        let ops = [
            Op::Prepare {
                txid: TxId(1),
                op: transfer("x", "y", 1),
            },
            Op::Prepare {
                txid: TxId(5),
                op: transfer("x", "w", 1),
            }, // fails: x locked
            Op::Prepare {
                txid: TxId(5),
                op: transfer("a", "b", 1),
            }, // wins
            Op::Commit { txid: TxId(5) },
            Op::Direct {
                txid: TxId(6),
                op: transfer("a", "z", 1),
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert!(
            waves[4] > waves[3],
            "direct must run after the commit that frees L_a: {waves:?}"
        );
    }

    #[test]
    fn reads_share_a_wave() {
        let ops = [
            Op::Read {
                txid: TxId(1),
                keys: vec!["a".into()],
            },
            Op::Read {
                txid: TxId(2),
                keys: vec!["a".into()],
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        assert_eq!(schedule(&refs, no_pending), vec![0, 0]);
    }

    #[test]
    fn write_after_read_ordered() {
        let ops = [
            Op::Read {
                txid: TxId(1),
                keys: vec!["a".into()],
            },
            Op::Direct {
                txid: TxId(2),
                op: StateOp {
                    conditions: vec![],
                    mutations: vec![("a".into(), Mutation::Set(Value::Int(1)))],
                },
            },
        ];
        let refs: Vec<&Op> = ops.iter().collect();
        let waves = schedule(&refs, no_pending);
        assert!(waves[1] > waves[0], "{waves:?}");
    }
}
