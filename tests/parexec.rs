//! The `parallel ≡ sequential` determinism battery (tier-1).
//!
//! Parallel in-shard execution must be observably identical to the
//! sequential loop at every worker count: same receipts, same state root,
//! same lock table, same 2PC bookkeeping, same checkpoint certificates —
//! down to the flight-recorder event stream of a full system run. These
//! tests pin that contract for `exec_workers ∈ {2, 4, 8}` over random
//! mixed batches and a whole sharded system.

use ahl::ledger::{
    execute_ops, lock_key, Condition, Mutation, Op, StateOp, StateStore, TxId, Value, LOCK_PREFIX,
};
use ahl::simkit::SimDuration;
use ahl::system::{run_system_report, SystemConfig, SystemWorkload};

const ACCOUNTS: u64 = 24;

fn account(i: u64) -> String {
    format!("acct{}", i % ACCOUNTS)
}

fn seeded_store() -> StateStore {
    let mut s = StateStore::new();
    for i in 0..ACCOUNTS {
        s.put(account(i), Value::Int(500));
    }
    s
}

/// Decode one generated tuple into an operation. Kinds cover the whole
/// `Op` surface: direct transfers, the 2PC lifecycle (prepare / commit /
/// abort, including decisions for transactions that never prepared),
/// reads (of live keys and lock markers), client writes to lock-marker
/// keys (refused as `ReservedKey`), and no-ops.
fn build_op(kind: u8, a: u64, b: u64, amt: i64, txid: u64) -> Op {
    let transfer = StateOp {
        conditions: vec![Condition::IntAtLeast { key: account(a), min: amt }],
        mutations: vec![
            (account(a), Mutation::Add(-amt)),
            (account(b), Mutation::Add(amt)),
        ],
    };
    match kind {
        0 => Op::Direct { txid: TxId(1_000 + txid), op: transfer },
        1 => Op::Prepare { txid: TxId(txid), op: transfer },
        2 => Op::Commit { txid: TxId(txid) },
        3 => Op::Abort { txid: TxId(txid) },
        4 => Op::Read { txid: TxId(2_000 + txid), keys: vec![account(a), lock_key(&account(b))] },
        5 => Op::Direct {
            txid: TxId(3_000 + txid),
            op: StateOp {
                conditions: vec![],
                mutations: vec![(account(a), Mutation::Set(Value::Int(amt)))],
            },
        },
        6 => {
            let forge =
                if amt % 2 == 0 { Mutation::Set(Value::Bool(true)) } else { Mutation::Delete };
            let op = StateOp {
                conditions: vec![],
                mutations: vec![(account(b), Mutation::Add(amt)), (lock_key(&account(a)), forge)],
            };
            if b.is_multiple_of(2) {
                Op::Direct { txid: TxId(4_000 + txid), op }
            } else {
                Op::Prepare { txid: TxId(txid), op }
            }
        }
        _ => Op::Noop,
    }
}

/// Execute `ops` sequentially and at `workers`, asserting every
/// observable output matches: the receipt stream, the per-abort pending
/// signal, the authenticated state root (which covers the lock table —
/// lock markers are SMT keys), the explicit lock table, and the 2PC
/// sidecar.
fn assert_parallel_equals_sequential(ops: &[Op], workers: usize) {
    let refs: Vec<&Op> = ops.iter().collect();
    let mut seq = seeded_store();
    let mut par = seeded_store();
    let seq_out = execute_ops(&mut seq, &refs, 1);
    let par_out = execute_ops(&mut par, &refs, workers);
    assert_eq!(seq_out.len(), par_out.len());
    for (i, (a, b)) in seq_out.iter().zip(&par_out).enumerate() {
        assert_eq!(a.receipt, b.receipt, "receipt {i} diverged at workers={workers}");
        assert_eq!(a.had_pending, b.had_pending, "had_pending {i} diverged");
    }
    assert_eq!(seq.state_digest(), par.state_digest(), "state root diverged");
    for i in 0..ACCOUNTS {
        assert_eq!(
            seq.is_locked(&account(i)),
            par.is_locked(&account(i)),
            "lock table diverged on {}",
            account(i)
        );
    }
    // The lock-marker count (what lets `is_locked` skip the tree walk)
    // is exact in both modes: it equals a scan of the `L_` keys.
    for (mode, s) in [("sequential", &seq), ("parallel", &par)] {
        let scan = s.smt().view().iter().filter(|(k, _)| k.starts_with(LOCK_PREFIX)).count();
        assert_eq!(s.lock_markers(), scan, "{mode} lock-marker count drifted");
    }
    assert_eq!(seq.pending_count(), par.pending_count());
    assert_eq!(seq.resolved_count(), par.resolved_count());
    assert_eq!(seq.export_sidecar().wire_size(), par.export_sidecar().wire_size());
}

proptest::proptest! {
    #[test]
    fn random_mixed_batches_parallel_equals_sequential(
        batch in proptest::collection::vec(
            (0u8..8, 0u64..ACCOUNTS, 0u64..ACCOUNTS, 1i64..60, 0u64..24),
            1..80,
        ),
    ) {
        let ops: Vec<Op> = batch
            .into_iter()
            .map(|(kind, a, b, amt, txid)| build_op(kind, a, b, amt, txid))
            .collect();
        for workers in [2usize, 4, 8] {
            assert_parallel_equals_sequential(&ops, workers);
        }
    }
}

/// The lock table after a batch that leaves prepares outstanding is
/// identical in both modes — including which of several same-key
/// prepares won the lock.
#[test]
fn outstanding_locks_identical_across_modes() {
    let mut ops = Vec::new();
    for i in 0..12u64 {
        // Three prepares race for each account pair; exactly one wins.
        for j in 0..3u64 {
            ops.push(build_op(1, i, i + 1, 5, 10 * i + j));
        }
    }
    // Decide a few, leave the rest locked.
    for i in 0..6u64 {
        ops.push(build_op(if i % 2 == 0 { 2 } else { 3 }, 0, 0, 0, 10 * i));
    }
    for workers in [2usize, 4, 8] {
        assert_parallel_equals_sequential(&ops, workers);
    }
}

/// Full-system equivalence: a sharded run at `exec_workers = 4` produces
/// the *same flight-recorder event stream* as the sequential run — every
/// commit, checkpoint, and 2PC phase stamp at the same simulated time on
/// the same node — and its checkpoint-time re-hash audits all pass.
#[test]
fn system_run_identical_across_exec_workers() {
    let run = |workers: usize| {
        let mut cfg = SystemConfig::new(2, 3);
        cfg.clients = 4;
        cfg.outstanding = 16;
        cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.batch_size = 20;
        cfg.exec_workers = workers;
        cfg.seed = 13;
        let report = run_system_report(cfg);
        let certs = report.stats.counter(ahl::consensus::stat::CKPT_CERTS);
        let audit_failures =
            report.stats.counter(ahl::consensus::stat::CKPT_AUDIT_FAILURES);
        (
            report.stats.recorder().fingerprint(),
            report.metrics.committed,
            report.metrics.final_balance,
            certs,
            audit_failures,
        )
    };
    let seq = run(1);
    let par = run(4);
    assert!(seq.1 > 0, "system run committed nothing");
    assert!(seq.3 > 0, "no checkpoint certificates formed — weaken the run parameters");
    assert_eq!(par.4, 0, "checkpoint re-hash audit failed under parallel execution");
    assert_eq!(seq, par, "exec_workers leaked into the simulated run");
}
