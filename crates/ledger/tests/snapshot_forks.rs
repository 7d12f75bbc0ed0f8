//! Forks of one state-tree lineage (tier-1).
//!
//! A store's tree, every snapshot of it and every clone of it share one
//! node slab. These cells fork that lineage the ways the code base does —
//! a cloned tree fed whole blocks through `batch_apply` while the store
//! keeps executing, and a store restored from a snapshot that is still
//! being served — and check that every side ends at the root of a tree
//! built independently from its own content, and that the served snapshot
//! never moves.

use std::collections::BTreeMap;

use ahl_ledger::{kvstore, Key, Mutation, Op, StateOp, StateStore, TxId, Value};
use ahl_store::SparseMerkleTree;

const KEYS: u64 = 512;

type Content = BTreeMap<Key, Value>;

/// What a snapshot serves per chunk: its entries and its proof.
type Served = Vec<(Vec<(Key, Value)>, Vec<ahl_crypto::Hash>)>;

fn built_root(content: &Content) -> ahl_crypto::Hash {
    SparseMerkleTree::build(content.iter().map(|(k, v)| (k.clone(), v.clone()))).root_hash()
}

/// Execute `op` on `state` and mirror its writes into `content`.
fn execute(state: &mut StateStore, content: &mut Content, txid: u64, op: StateOp) {
    for (k, m) in &op.mutations {
        match m {
            Mutation::Set(v) => {
                content.insert(k.clone(), v.clone());
            }
            Mutation::Delete => {
                content.remove(k);
            }
            Mutation::Add(_) => unreachable!("these cells only set and delete"),
        }
    }
    let receipt = state.execute(&Op::Direct {
        txid: TxId(txid),
        op,
    });
    assert!(receipt.status.is_committed());
}

fn set(key: u64, v: i64) -> StateOp {
    StateOp {
        conditions: vec![],
        mutations: vec![(kvstore::kv_key(key), Mutation::Set(Value::Int(v)))],
    }
}

/// A store holding every key, as after the kv workloads' warm-up.
fn warm() -> (StateStore, Content) {
    let (mut state, mut content) = (StateStore::new(), Content::new());
    for k in 0..KEYS {
        execute(&mut state, &mut content, k, kvstore::kv_write(&[k], 32));
    }
    (state, content)
}

/// The benchmark's replay shape: the store's tree is cloned and the clone
/// takes block-sized change sets through a two-worker `batch_apply` while
/// the store itself keeps executing different writes.
#[test]
fn cloned_tree_batch_applies_while_the_store_keeps_executing() {
    let (mut state, mut live) = warm();
    let mut fork = state.smt().clone();
    let mut forked = live.clone();
    for block in 0..8u64 {
        for j in 0..64u64 {
            let k = (block * 97 + j * 13) % KEYS;
            execute(
                &mut state,
                &mut live,
                10_000 + block * 64 + j,
                set(k, (block * 64 + j) as i64),
            );
        }
        let changes: Vec<(Key, Option<Value>)> = (0..64u64)
            .map(|j| {
                let key = kvstore::kv_key((block * 31 + j * 7) % KEYS);
                // Every eighth change removes its key.
                (
                    key,
                    (j % 8 != 7).then(|| Value::Int(-((block * 64 + j) as i64))),
                )
            })
            .collect();
        for (k, v) in &changes {
            match v {
                Some(v) => forked.insert(k.clone(), v.clone()),
                None => forked.remove(k),
            };
        }
        fork.batch_apply(changes, 2);
        assert_eq!(
            state.state_digest(),
            built_root(&live),
            "store after block {block}"
        );
        assert_eq!(
            fork.root_hash(),
            built_root(&forked),
            "fork after block {block}"
        );
        assert_eq!((state.len(), fork.len()), (live.len(), forked.len()));
    }
    assert!(fork.rehash_audit(2) && state.rehash_audit(2));
}

/// A store restored from a snapshot and the store the snapshot came from
/// both write on, one deleting keys, while the snapshot keeps serving the
/// same chunks and proofs — also after both stores are gone.
#[test]
fn restored_store_mutates_while_its_snapshot_is_served() {
    let (mut state, mut original) = warm();
    let snap = state.snapshot();
    let bits = 3u8;
    let serve = || -> Served {
        (0..1u32 << bits)
            .map(|c| (snap.chunk_entries(c, bits), snap.chunk_proof(c, bits)))
            .collect()
    };
    let (root, served) = (snap.root(), serve());
    let mut restored = StateStore::from_snapshot(&snap);
    let mut copy = original.clone();
    for j in 0..200u64 {
        execute(
            &mut restored,
            &mut copy,
            20_000 + j,
            set(j % KEYS, j as i64),
        );
        execute(
            &mut state,
            &mut original,
            30_000 + j,
            set((j * 7) % KEYS, -(j as i64)),
        );
        if j % 10 == 0 {
            let gone = StateOp {
                conditions: vec![],
                mutations: vec![(kvstore::kv_key((j * 3 + 1) % KEYS), Mutation::Delete)],
            };
            execute(&mut restored, &mut copy, 40_000 + j, gone);
        }
        assert_eq!((snap.root(), snap.len()), (root, KEYS as usize));
    }
    assert_eq!(restored.state_digest(), built_root(&copy));
    assert_eq!(state.state_digest(), built_root(&original));
    assert_eq!(serve(), served);
    drop((state, restored));
    assert_eq!(serve(), served);
    assert_eq!(snap.root(), root);
}
