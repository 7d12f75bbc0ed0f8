//! Deferred-hashing battery for the persistent SMT.
//!
//! `insert_deferred` / `remove_deferred` leave the written root paths
//! stale and one `rehash` closes them. Any interleaving of those writes,
//! rehashes and snapshots must commit to exactly what eager
//! `insert` / `remove` and a bulk `build` of the final content commit to
//! — root, proofs and chunk roots — and a snapshot taken after a rehash
//! must stay frozen under later deferred writes. A stale tree must refuse
//! every hash read.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ahl_crypto::{sha256_parts, Hash};
use ahl_store::{verify_proof, SparseMerkleTree};

fn vh(i: u64) -> Hash {
    sha256_parts(&[&i.to_be_bytes()])
}

const BITS: u8 = 3;

/// Assert `a` and `b` agree on every hash a verifier can ask for.
fn assert_same_commitment(a: &SparseMerkleTree, b: &SparseMerkleTree) {
    assert_eq!(a.root_hash(), b.root_hash());
    assert_eq!(a.len(), b.len());
    for k in 0..56u64 {
        let key = format!("k{k}");
        assert_eq!(a.prove(&key), b.prove(&key), "proof of {key}");
    }
    for bits in 0..=BITS {
        for c in 0..1u32 << bits {
            assert_eq!(
                a.chunk_root(c, bits),
                b.chunk_root(c, bits),
                "chunk {c}/{bits}"
            );
            assert_eq!(
                a.chunk_proof(c, bits),
                b.chunk_proof(c, bits),
                "chunk {c}/{bits}"
            );
        }
    }
}

/// One read of a tree that may touch its hashes.
type HashRead<'a> = Box<dyn Fn(&SparseMerkleTree) + 'a>;

fn build(content: &BTreeMap<String, Hash>) -> SparseMerkleTree {
    SparseMerkleTree::build(content.iter().map(|(k, v)| (k.clone(), *v)))
}

proptest::proptest! {
    /// Deferred ≡ eager ≡ bulk build, with snapshots frozen throughout.
    #[test]
    fn deferred_writes_commit_like_eager_and_build(
        base in proptest::collection::vec((0u64..48, 0u64..1000), 0..40),
        ops in proptest::collection::vec((0u8..10, 0u64..48, 0u64..1000), 1..160),
    ) {
        let mut reference: BTreeMap<String, Hash> =
            base.into_iter().map(|(k, v)| (format!("k{k}"), vh(v))).collect();
        let mut deferred = build(&reference);
        let mut eager = build(&reference);
        let mut snaps: Vec<(SparseMerkleTree, Hash, BTreeMap<String, Hash>)> = Vec::new();
        for (kind, k, v) in ops {
            let key = format!("k{k}");
            match kind {
                0..=4 => {
                    deferred.insert_deferred(&key, vh(v));
                    eager.insert(&key, vh(v));
                    reference.insert(key.clone(), vh(v));
                }
                5 | 6 => {
                    let hit = deferred.remove_deferred(&key);
                    proptest::prop_assert_eq!(hit, eager.remove(&key));
                    proptest::prop_assert_eq!(hit, reference.remove(&key).is_some());
                }
                7 => {
                    deferred.rehash();
                    proptest::prop_assert_eq!(deferred.root_hash(), eager.root_hash());
                }
                _ => {
                    deferred.rehash();
                    snaps.push((deferred.clone(), deferred.root_hash(), reference.clone()));
                }
            }
            // Lookups never need hashes: they work on a stale tree.
            proptest::prop_assert_eq!(deferred.len(), reference.len());
            proptest::prop_assert_eq!(deferred.view().get(&key), reference.get(&key));
            proptest::prop_assert!(eager.is_fresh());
        }
        deferred.rehash();
        proptest::prop_assert!(deferred.is_fresh());
        assert_same_commitment(&deferred, &eager);
        assert_same_commitment(&deferred, &build(&reference));
        proptest::prop_assert!(deferred.rehash_audit(1));
        for (k, v) in &reference {
            let p = deferred.prove(k);
            proptest::prop_assert!(verify_proof(&deferred.root_hash(), k, Some(v), &p));
        }
        for (snap, root, content) in &snaps {
            proptest::prop_assert_eq!(snap.root_hash(), *root);
            assert_same_commitment(snap, &build(content));
            proptest::prop_assert!(snap.rehash_audit(1));
        }
    }
}

#[test]
fn hash_readers_refuse_a_stale_tree() {
    let mut t = SparseMerkleTree::build((0..32u64).map(|i| (format!("k{i}"), vh(i))));
    let fresh = t.clone();
    t.insert_deferred("k3", vh(1003));
    t.insert_deferred("new", vh(7));
    assert!(t.remove_deferred("k9"));
    assert!(!t.is_fresh());
    // Reads that need no hash still answer.
    assert_eq!(t.view().get("k3"), Some(&vh(1003)));
    assert_eq!((t.len(), t.view().iter().count()), (32, 32));

    let readers: Vec<(&str, HashRead<'_>)> = vec![
        ("root_hash", Box::new(|t| _ = t.root_hash())),
        ("prove", Box::new(|t| _ = t.prove("k1"))),
        ("chunk_keys", Box::new(|t| _ = t.view().chunk_keys(0, 2))),
        (
            "chunk_entries",
            Box::new(|t| _ = t.view().chunk_entries(0, 2)),
        ),
        ("chunk_proof", Box::new(|t| _ = t.chunk_proof(0, 2))),
        ("chunk_root", Box::new(|t| _ = t.chunk_root(0, 2))),
        (
            "visit_nodes",
            Box::new(|t| t.visit_nodes(&mut |_| false, &mut |_| {})),
        ),
        (
            "diff_chunks (older)",
            Box::new(|t| _ = t.diff_chunks(&fresh, 2)),
        ),
        (
            "diff_chunks (newer)",
            Box::new(|t| _ = fresh.diff_chunks(t, 2)),
        ),
        ("rehash_audit", Box::new(|t| _ = t.rehash_audit(1))),
        ("clone", Box::new(|t| _ = t.clone())),
    ];
    for (name, read) in &readers {
        let refused = catch_unwind(AssertUnwindSafe(|| read(&t))).is_err();
        assert!(refused, "{name} read a stale hash");
    }
    // The batch merge reads child hashes, so it refuses too (before it
    // changes anything).
    assert!(catch_unwind(AssertUnwindSafe(|| t.batch_apply(vec![], 1))).is_err());

    t.rehash();
    for (name, read) in &readers {
        assert!(
            catch_unwind(AssertUnwindSafe(|| read(&t))).is_ok(),
            "{name} after rehash"
        );
    }
    assert!(t.rehash_audit(2));
}
