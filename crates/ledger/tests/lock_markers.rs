//! The lock-marker count against a scan of the tree (tier-1).
//!
//! `StateStore` counts its live `L_` keys so `is_locked` can skip the tree
//! walk while none exists. The count is derived from tree content only, so
//! after any history of Direct / Prepare / Commit / Abort operations —
//! executed one by one, or as blocks through `execute_ops` at any worker
//! count — and after every way of constructing a store (snapshot and back,
//! `from_entries`, a genesis snapshot, `apply_diff`, persist and reopen) it must
//! equal a scan of the keys, and a key a prepared transaction holds must
//! still be refused with `LockConflict`.

use ahl_ledger::persist::open_snapshot;
use ahl_ledger::{
    execute_ops, lock_key, AbortReason, Condition, ExecStatus, Key, Mutation, Op, StateOp,
    StateSnapshot, StateStore, TxId, Value, LOCK_PREFIX,
};
use ahl_wal::{open_node_dir, TempDir, WalConfig};

const ACCOUNTS: u64 = 6;

fn account(i: u64) -> Key {
    format!("acct{}", i % ACCOUNTS)
}

fn seeded() -> StateStore {
    let mut s = StateStore::new();
    for i in 0..ACCOUNTS {
        s.put(account(i), Value::Int(500));
    }
    s
}

fn build_op(kind: u8, a: u64, b: u64, amt: i64, txid: u64) -> Op {
    let transfer = StateOp {
        conditions: vec![Condition::IntAtLeast {
            key: account(a),
            min: amt,
        }],
        mutations: vec![
            (account(a), Mutation::Add(-amt)),
            (account(b), Mutation::Add(amt)),
        ],
    };
    match kind {
        0 => Op::Direct {
            txid: TxId(1_000 + txid),
            op: transfer,
        },
        1 | 2 => Op::Prepare {
            txid: TxId(txid),
            op: transfer,
        },
        3 => Op::Commit { txid: TxId(txid) },
        4 => Op::Abort { txid: TxId(txid) },
        _ => Op::Read {
            txid: TxId(2_000 + txid),
            keys: vec![account(a), lock_key(&account(b))],
        },
    }
}

/// The count, the scan it must equal, and the refusal it must not hide.
fn assert_markers_exact(s: &StateStore, what: &str) {
    let scan = s
        .smt()
        .view()
        .iter()
        .filter(|(k, _)| k.starts_with(LOCK_PREFIX))
        .count();
    assert_eq!(
        s.lock_markers(),
        scan,
        "{what}: count drifted from the tree"
    );
    for i in 0..ACCOUNTS {
        let key = account(i);
        let held = s.get(&lock_key(&key)) == Some(Value::Bool(true));
        assert_eq!(s.is_locked(&key), held, "{what}: is_locked({key})");
        if held {
            // A refused op leaves no trace, so probing a clone is enough.
            let op = StateOp {
                conditions: vec![],
                mutations: vec![(key.clone(), Mutation::Add(1))],
            };
            let probe = Op::Direct {
                txid: TxId(9_999),
                op,
            };
            assert_eq!(
                s.clone().execute(&probe).status,
                ExecStatus::Aborted(AbortReason::LockConflict(key)),
                "{what}: a prepared key must stay locked"
            );
        }
    }
}

/// Persist `snap` to a fresh node directory and open it back.
fn persist_and_open(snap: &StateSnapshot) -> StateSnapshot {
    let dir = TempDir::new("lock-markers");
    let mut node = open_node_dir(dir.path(), &WalConfig::default()).expect("open node dir");
    snap.persist(&mut node.pages).expect("persist pages");
    node.pages.sync().expect("sync pages");
    open_snapshot(&node.pages, snap.root(), snap.sidecar().clone()).expect("reopen snapshot")
}

proptest::proptest! {
    #[test]
    fn lock_marker_count_equals_a_scan(
        steps in proptest::collection::vec(
            (0u8..6, 0u64..ACCOUNTS, 0u64..ACCOUNTS, 1i64..60, 0u64..10),
            1..60,
        ),
        block in 1usize..9,
        workers in 1usize..5,
    ) {
        let ops: Vec<Op> = steps
            .into_iter()
            .map(|(kind, a, b, amt, txid)| build_op(kind, a, b, amt, txid))
            .collect();
        // The same history one op at a time (every op hashes) and in
        // blocks through `execute_ops` (deferred hashing, or the batch
        // merge at `workers > 1`).
        let mut eager = seeded();
        let mut blocks = seeded();
        let mut base: Option<StateSnapshot> = None;
        for chunk in ops.chunks(block) {
            for op in chunk {
                eager.execute(op);
                assert_markers_exact(&eager, "execute");
            }
            let refs: Vec<&Op> = chunk.iter().collect();
            execute_ops(&mut blocks, &refs, workers);
            assert_markers_exact(&blocks, "execute_ops");
            proptest::prop_assert_eq!(blocks.state_digest(), eager.state_digest());
            proptest::prop_assert_eq!(blocks.lock_markers(), eager.lock_markers());
            base.get_or_insert_with(|| blocks.snapshot());
        }
        let snap = blocks.snapshot();
        let entries: Vec<(Key, Value)> =
            blocks.smt().view().iter().map(|(k, v)| (k.to_string(), v.clone())).collect();

        let restored = StateStore::from_snapshot(&snap);
        assert_markers_exact(&restored, "from_snapshot");

        let rebuilt = StateStore::from_entries(entries.clone());
        assert_markers_exact(&rebuilt, "from_entries");

        // A committee's genesis: one bulk build, each replica a snapshot of it.
        let genesis = StateStore::from_snapshot(&StateStore::from_entries(entries).snapshot());
        assert_markers_exact(&genesis, "genesis snapshot");

        let base = base.expect("at least one block ran");
        let bits = 3u8;
        let chunks: Vec<(u32, Vec<(Key, Value)>)> = base
            .diff_chunks(&snap, bits)
            .into_iter()
            .map(|c| (c, snap.chunk_entries(c, bits)))
            .collect();
        let mut diffed = StateStore::from_snapshot(&base);
        diffed.apply_diff(bits, &chunks);
        proptest::prop_assert_eq!(diffed.state_digest(), blocks.state_digest());
        assert_markers_exact(&diffed, "apply_diff");

        let reopened = StateStore::from_snapshot(&persist_and_open(&snap));
        proptest::prop_assert_eq!(reopened.state_digest(), blocks.state_digest());
        assert_markers_exact(&reopened, "persist + open_snapshot");
    }
}
