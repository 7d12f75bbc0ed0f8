//! Deferred-hashing battery for the persistent SMT.
//!
//! `insert` / `remove` leave the written root paths stale, and the next
//! hash read re-hashes them in place. Whenever hashes are read — after
//! every write, at random points, or not at all until the end — the tree
//! must commit to exactly what a bulk `build` of the same content commits
//! to (root, proofs, chunk roots and chunk proofs), and a snapshot taken
//! mid-stream must keep its root under later writes. Reads that need no
//! hash leave a stale tree stale.

use std::collections::BTreeMap;

use ahl_crypto::{sha256_parts, Hash};
use ahl_store::{verify_proof, NodeView, SparseMerkleTree};

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

fn build(content: &BTreeMap<String, Hash>) -> SparseMerkleTree {
    SparseMerkleTree::build(content.iter().map(|(k, v)| (k.clone(), *v)))
}

/// One hash read of a tree, given an older tree to diff against, rendered
/// comparable.
type HashRead = Box<dyn Fn(&SparseMerkleTree, &SparseMerkleTree) -> String>;

/// Every reader of a hash, each reduced to what it returns.
fn hash_readers() -> Vec<(&'static str, HashRead)> {
    vec![
        ("root_hash", Box::new(|t, _| format!("{:?}", t.root_hash()))),
        (
            "prove",
            Box::new(|t, _| format!("{:?} {:?}", t.prove("k1"), t.prove("k9"))),
        ),
        (
            "chunk_proof",
            Box::new(|t, _| {
                format!(
                    "{:?}",
                    (0..4).map(|c| t.chunk_proof(c, 2)).collect::<Vec<_>>()
                )
            }),
        ),
        (
            "chunk_root",
            Box::new(|t, _| {
                format!(
                    "{:?}",
                    (0..4).map(|c| t.chunk_root(c, 2)).collect::<Vec<_>>()
                )
            }),
        ),
        (
            "visit_nodes",
            Box::new(|t, _| {
                let mut hashes = Vec::new();
                t.visit_nodes(&mut |_| false, &mut |node| {
                    hashes.push(match node {
                        NodeView::Leaf { hash, .. } | NodeView::Branch { hash, .. } => hash,
                    })
                });
                format!("{hashes:?}")
            }),
        ),
        (
            "diff_chunks (newer)",
            Box::new(|t, older| format!("{:?}", older.diff_chunks(t, 3))),
        ),
        (
            "diff_chunks (older)",
            Box::new(|t, older| format!("{:?}", t.diff_chunks(older, 3))),
        ),
        (
            "rehash_audit",
            Box::new(|t, _| t.rehash_audit(1).to_string()),
        ),
        (
            "clone",
            Box::new(|t, _| format!("{:?}", t.clone().root_hash())),
        ),
    ]
}

#[test]
fn hash_readers_freshen_a_stale_tree() {
    let base: BTreeMap<String, Hash> = (0..32u64).map(|i| (format!("k{i}"), vh(i))).collect();
    let mut content = base.clone();
    content.insert("k3".into(), vh(1003));
    content.insert("new".into(), vh(7));
    content.remove("k9");
    let (want, want_older) = (build(&content), build(&base));
    // A stale tree, plus a snapshot of its content before the writes (the
    // same lineage, so `diff_chunks` takes its one-lock path).
    let stale = || {
        let mut t = build(&base);
        let older = t.clone();
        t.insert("k3", vh(1003));
        t.insert("new", vh(7));
        assert!(t.remove("k9"));
        assert!(!t.is_fresh());
        (t, older)
    };

    // Reads that need no hash answer from the stale tree and leave it so.
    let (t, _) = stale();
    let (view, want_view) = (t.view(), want.view());
    assert_eq!(view.get("k3"), Some(&vh(1003)));
    assert_eq!(view.get("k9"), None);
    assert!(view.iter().eq(want_view.iter()));
    for c in 0..4 {
        assert_eq!(view.chunk_keys(c, 2), want_view.chunk_keys(c, 2));
        assert_eq!(view.chunk_entries(c, 2), want_view.chunk_entries(c, 2));
    }
    drop((view, want_view));
    assert_eq!((t.len(), t.get_hash("new")), (32, Some(vh(7))));
    assert!(!t.is_fresh(), "a read that needs no hash hashed");

    // Each hash reader, on its own stale tree, returns what `build` of the
    // same content returns and leaves the tree fresh; the older snapshot
    // keeps its root.
    for (name, read) in hash_readers() {
        let (t, older) = stale();
        assert_eq!(read(&t, &older), read(&want, &want_older), "{name}");
        assert!(t.is_fresh(), "{name} left the tree stale");
        assert_eq!(older.root_hash(), want_older.root_hash(), "{name}");
    }

    // A parallel batch hashes the writes pending before it too; a batch
    // below the parallel threshold defers like single writes.
    let changes: Vec<(String, Option<Hash>)> = (0..40u64)
        .map(|i| (format!("b{i}"), Some(vh(500 + i))))
        .collect();
    content.extend(changes.iter().map(|(k, v)| (k.clone(), v.expect("writes"))));
    let (mut t, _) = stale();
    t.batch_apply(changes.clone(), 4);
    assert!(t.is_fresh());
    assert_same_commitment(&t, &build(&content));
    let (mut t, _) = stale();
    t.batch_apply(changes, 1);
    assert!(!t.is_fresh());
    assert_same_commitment(&t, &build(&content));
}

proptest::proptest! {
    /// Deferred writes ≡ a tree read after every write ≡ bulk build, with
    /// hashes read and snapshots taken at random points (or, with
    /// `reads` off, not until the end) and snapshots frozen throughout.
    #[test]
    fn deferred_writes_commit_like_eager_and_build(
        base in proptest::collection::vec((0u64..48, 0u64..1000), 0..40),
        ops in proptest::collection::vec((0u8..12, 0u64..48, 0u64..1000), 1..160),
        reads: bool,
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
                    deferred.insert(&key, vh(v));
                    eager.insert(&key, vh(v));
                    reference.insert(key.clone(), vh(v));
                }
                5 | 6 => {
                    let hit = deferred.remove(&key);
                    proptest::prop_assert_eq!(hit, eager.remove(&key));
                    proptest::prop_assert_eq!(hit, reference.remove(&key).is_some());
                }
                7 if reads => {
                    proptest::prop_assert_eq!(deferred.root_hash(), build(&reference).root_hash());
                }
                8 if reads => {
                    let want = build(&reference);
                    let c = (v % 8) as u32;
                    proptest::prop_assert_eq!(deferred.prove(&key), want.prove(&key));
                    proptest::prop_assert_eq!(deferred.chunk_proof(c, BITS), want.chunk_proof(c, BITS));
                    proptest::prop_assert_eq!(deferred.chunk_root(c, BITS), want.chunk_root(c, BITS));
                }
                9 if reads => {
                    let snap = deferred.clone();
                    proptest::prop_assert!(deferred.is_fresh() && snap.is_fresh());
                    let root = build(&reference).root_hash();
                    snaps.push((snap, root, reference.clone()));
                }
                _ => {}
            }
            eager.root_hash();
            // Lookups never need hashes, and never hash.
            let fresh = deferred.is_fresh();
            proptest::prop_assert_eq!(deferred.len(), reference.len());
            proptest::prop_assert_eq!(deferred.view().get(&key), reference.get(&key));
            proptest::prop_assert_eq!(deferred.view().chunk_keys((v % 8) as u32, BITS).len(),
                build(&reference).view().chunk_keys((v % 8) as u32, BITS).len());
            proptest::prop_assert_eq!(deferred.is_fresh(), fresh);
        }
        assert_same_commitment(&deferred, &eager);
        assert_same_commitment(&deferred, &build(&reference));
        proptest::prop_assert!(deferred.is_fresh());
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
