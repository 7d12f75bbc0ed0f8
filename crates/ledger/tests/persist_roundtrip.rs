//! Durability round trip: `reopen(persist(store)) ≡ store` for random
//! operation sequences (tier-1).
//!
//! The store is driven through arbitrary prepare/commit/abort/direct
//! mixes, snapshotted, persisted to a real on-disk page store + manifest,
//! dropped, and reopened — the recovered store must agree on the root,
//! every key-value pair, the 2PC bookkeeping, and proof generation.

use ahl_crypto::Hash;
use ahl_ledger::persist::open_snapshot;
use ahl_ledger::{
    verify_state_proof, Condition, Mutation, Op, StateOp, StateSidecar, StateStore, TxId, Value,
};
use ahl_wal::codec::{Reader, Writer};
use ahl_wal::{open_node_dir, read_manifest, write_manifest, Manifest, TempDir, WalConfig};

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

/// Persist `store`'s snapshot (pages + manifest with encoded sidecar),
/// then reopen the directory and rebuild a store from disk.
fn persist_and_reopen(store: &StateStore, seq: u64) -> StateStore {
    let dir = TempDir::new("ledger-roundtrip");
    let cfg = WalConfig::default();
    {
        let mut node = open_node_dir(dir.path(), &cfg).expect("open");
        let snap = store.snapshot();
        snap.persist(&mut node.pages).expect("persist pages");
        node.pages.sync().expect("sync");
        let mut meta = Writer::new();
        snap.sidecar().encode(&mut meta);
        write_manifest(
            dir.path(),
            &Manifest {
                seq,
                root: snap.root(),
                meta: meta.into_bytes(),
            },
            &cfg.kill,
        )
        .expect("manifest");
    }
    // Reopen cold: everything must come back from the files alone.
    let node = open_node_dir(dir.path(), &cfg).expect("reopen");
    let manifest = node.manifest.expect("manifest survives");
    assert_eq!(manifest.seq, seq);
    let sidecar = StateSidecar::decode(&mut Reader::new(&manifest.meta)).expect("sidecar decodes");
    let snap = open_snapshot(&node.pages, manifest.root, sidecar).expect("snapshot loads");
    StateStore::from_snapshot(&snap)
}

fn assert_equivalent(a: &StateStore, b: &StateStore) {
    assert_eq!(a.state_digest(), b.state_digest(), "roots agree");
    assert_eq!(a.len(), b.len());
    assert_eq!(a.pending_count(), b.pending_count());
    assert_eq!(a.resolved_count(), b.resolved_count());
    for (k, v) in a.smt().view().iter() {
        assert_eq!(b.get(k).as_ref(), Some(v), "key {k}");
    }
}

#[test]
fn empty_store_round_trips() {
    let store = StateStore::new();
    let reopened = persist_and_reopen(&store, 1);
    assert_equivalent(&store, &reopened);
    assert_eq!(reopened.state_digest(), Hash::ZERO);
}

#[test]
fn pending_transactions_survive_reopen() {
    let mut store = StateStore::new();
    store.put("a".into(), Value::Int(100));
    store.put("b".into(), Value::Int(50));
    store.execute(&Op::Prepare {
        txid: TxId(1),
        op: transfer("a", "b", 30),
    });
    store.execute(&Op::Prepare {
        txid: TxId(9),
        op: transfer("b", "a", 1),
    });
    store.execute(&Op::Abort { txid: TxId(9) });

    let mut reopened = persist_and_reopen(&store, 4);
    assert_equivalent(&store, &reopened);
    // The in-flight transaction is still decidable after the restart...
    assert!(reopened.is_locked("a"));
    let r = reopened.execute(&Op::Commit { txid: TxId(1) });
    assert!(r.status.is_committed());
    assert_eq!(reopened.get_int("a"), 70);
    assert!(!reopened.is_locked("a"));
    // ...and the replayed decision for the aborted one is still refused.
    let r2 = reopened.execute(&Op::Prepare {
        txid: TxId(9),
        op: transfer("b", "a", 1),
    });
    assert!(!r2.status.is_committed());
}

proptest::proptest! {
    /// Random op sequences: persist + reopen reproduces the store exactly,
    /// and the reopened store generates proofs that verify against the
    /// persisted root.
    #[test]
    fn reopen_persist_equals_store(
        steps in proptest::collection::vec((0u8..5, 0usize..5, 0usize..5, 1i64..40), 1..50)
    ) {
        let accounts = ["v", "w", "x", "y", "z"];
        let mut store = StateStore::new();
        for a in accounts {
            store.put(a.into(), Value::Int(500));
        }
        store.put("blob".into(), Value::Opaque { size: 1 << 30, tag: 7 });
        let mut open: Vec<TxId> = Vec::new();
        for (i, (kind, from, to, amt)) in steps.into_iter().enumerate() {
            let txid = TxId(i as u64);
            match kind {
                0 => {
                    let op = transfer(accounts[from], accounts[to], amt);
                    if store.execute(&Op::Prepare { txid, op }).status.is_committed() {
                        open.push(txid);
                    }
                }
                1 => {
                    if let Some(txid) = open.pop() {
                        store.execute(&Op::Commit { txid });
                    }
                }
                2 => {
                    if let Some(txid) = open.pop() {
                        store.execute(&Op::Abort { txid });
                    }
                }
                3 => {
                    store.execute(&Op::Direct {
                        txid,
                        op: StateOp {
                            conditions: vec![],
                            mutations: vec![(
                                format!("kv{}", from * 5 + to),
                                if amt % 7 == 0 {
                                    Mutation::Delete
                                } else {
                                    Mutation::Set(Value::Bytes(vec![amt as u8; from + 1]))
                                },
                            )],
                        },
                    });
                }
                _ => {
                    let op = transfer(accounts[from], accounts[to], amt);
                    store.execute(&Op::Direct { txid, op });
                }
            }
        }
        let reopened = persist_and_reopen(&store, 17);
        assert_equivalent(&store, &reopened);
        // Proofs from the reopened store verify against the original root.
        let root = store.state_digest();
        let p = reopened.prove("v");
        proptest::prop_assert!(verify_state_proof(
            &root, "v", Some(&Value::Int(reopened.get_int("v")).digest()), &p
        ));
        let absent = reopened.prove("never-written");
        proptest::prop_assert!(verify_state_proof(&root, "never-written", None, &absent));
    }
}

#[test]
fn stale_manifest_recovers_older_checkpoint() {
    // Persist checkpoint A, then write checkpoint B's pages but "crash"
    // before the manifest swap (kill at the rename site): reopen must
    // land on A — older, but valid and verified.
    let dir = TempDir::new("ledger-stale");
    let cfg = WalConfig::default();
    let mut store = StateStore::new();
    store.put("a".into(), Value::Int(1));
    let root_a = store.state_digest();
    {
        let mut node = open_node_dir(dir.path(), &cfg).expect("open");
        let snap = store.snapshot();
        snap.persist(&mut node.pages).expect("persist A");
        let mut meta = Writer::new();
        snap.sidecar().encode(&mut meta);
        write_manifest(
            dir.path(),
            &Manifest {
                seq: 10,
                root: root_a,
                meta: meta.into_bytes(),
            },
            &cfg.kill,
        )
        .expect("manifest A");

        store.put("b".into(), Value::Int(2));
        let snap_b = store.snapshot();
        snap_b.persist(&mut node.pages).expect("persist B pages");
        cfg.kill.arm(1); // fire at the manifest rename
        let mut meta_b = Writer::new();
        snap_b.sidecar().encode(&mut meta_b);
        write_manifest(
            dir.path(),
            &Manifest {
                seq: 20,
                root: store.state_digest(),
                meta: meta_b.into_bytes(),
            },
            &cfg.kill,
        )
        .expect_err("crash before swap");
    }
    let manifest = read_manifest(dir.path()).expect("manifest present");
    assert_eq!(
        manifest.seq, 10,
        "stale manifest: checkpoint A is the durable truth"
    );
    let node = open_node_dir(dir.path(), &cfg).expect("reopen");
    let sidecar = StateSidecar::decode(&mut Reader::new(&manifest.meta)).expect("sidecar");
    let snap = open_snapshot(&node.pages, manifest.root, sidecar).expect("A loads");
    assert_eq!(snap.root(), root_a);
}
