//! Snapshot-isolation property battery for the persistent SMT.
//!
//! The copy-on-write tree promises that a snapshot (an O(1) `clone()`) is
//! frozen: no sequence of later mutations on the live tree may change the
//! snapshot's root, its per-key proofs, or its chunk proofs — they must
//! stay byte-identical to what a deep copy at capture time would produce.
//! Incremental sync additionally promises that the changed-chunk report
//! between any two snapshots is exact: overlaying those chunks (and only
//! those) onto the old snapshot reproduces the new root.

use std::collections::BTreeMap;

use ahl_crypto::{sha256_parts, Hash};
use ahl_store::{key_path, verify_chunk, verify_proof, SmtProof, SparseMerkleTree};

fn vh(i: u64) -> Hash {
    sha256_parts(&[&i.to_be_bytes()])
}

/// Everything a verifier could ever ask a snapshot for, captured eagerly.
struct Capture {
    snap: SparseMerkleTree,
    root: Hash,
    len: usize,
    /// Reference content at capture time.
    content: BTreeMap<String, Hash>,
    /// One proof per key of a fixed probe set (live and absent keys).
    proofs: Vec<(String, SmtProof)>,
    /// Full chunk decomposition at `BITS`.
    chunks: Vec<ChunkCapture>,
}

/// One chunk's sorted `(path, vhash)` leaves and its sibling proof.
type ChunkCapture = (Vec<(Hash, Hash)>, Vec<Hash>);

const BITS: u8 = 3;

fn capture(t: &SparseMerkleTree, reference: &BTreeMap<String, Hash>) -> Capture {
    let snap = t.clone(); // the O(1) snapshot under test
    let proofs = (0..12u64)
        .map(|k| {
            let key = format!("k{k}");
            let p = t.prove(&key);
            (key, p)
        })
        .collect();
    let chunks = (0..1u32 << BITS)
        .map(|c| {
            let mut entries: Vec<(Hash, Hash)> = t
                .view()
                .chunk_entries(c, BITS)
                .into_iter()
                .map(|(k, v)| (key_path(k), *v))
                .collect();
            entries.sort_by_key(|e| e.0 .0);
            (entries, t.chunk_proof(c, BITS))
        })
        .collect();
    Capture {
        snap,
        root: t.root_hash(),
        len: t.len(),
        content: reference.clone(),
        proofs,
        chunks,
    }
}

fn assert_frozen(cap: &Capture) {
    // Root and length are byte-identical to capture time.
    assert_eq!(cap.snap.root_hash(), cap.root);
    assert_eq!(cap.snap.len(), cap.len);
    // Every key reads exactly the captured content.
    for (k, v) in &cap.content {
        assert_eq!(cap.snap.view().get(k), Some(v), "key {k}");
    }
    // Recorded proofs still verify against the snapshot root, and the
    // snapshot reproduces them byte-for-byte.
    for (key, proof) in &cap.proofs {
        let expected = cap.content.get(key);
        assert!(
            verify_proof(&cap.root, key, expected, proof),
            "proof for {key}"
        );
        assert_eq!(&cap.snap.prove(key), proof, "re-proved {key}");
    }
    // Chunk proofs still reassemble the captured root, both the recorded
    // ones and freshly extracted ones.
    for (c, (entries, proof)) in cap.chunks.iter().enumerate() {
        assert!(
            verify_chunk(&cap.root, c as u32, BITS, entries, proof),
            "recorded chunk {c}"
        );
        let mut fresh: Vec<(Hash, Hash)> = cap
            .snap
            .view()
            .chunk_entries(c as u32, BITS)
            .into_iter()
            .map(|(k, v)| (key_path(k), *v))
            .collect();
        fresh.sort_by_key(|e| e.0 .0);
        assert_eq!(&fresh, entries, "chunk {c} content drifted");
        assert_eq!(
            &cap.snap.chunk_proof(c as u32, BITS),
            proof,
            "chunk {c} proof drifted"
        );
    }
}

proptest::proptest! {
    /// Interleave random mutations with snapshots: every snapshot stays
    /// frozen (root, proofs, chunk proofs byte-identical) while the live
    /// tree diverges arbitrarily — including deletions that collapse
    /// branches the snapshots still reference.
    #[test]
    fn snapshots_stay_frozen_under_mutation(
        ops in proptest::collection::vec((0u8..8, 0u64..24, 0u64..1000), 1..150)
    ) {
        let mut live = SparseMerkleTree::new();
        let mut reference: BTreeMap<String, Hash> = BTreeMap::new();
        let mut captures: Vec<Capture> = Vec::new();
        for (kind, k, v) in ops {
            let key = format!("k{k}");
            match kind {
                // Snapshot roughly one op in eight.
                0 => {
                    if captures.len() < 6 {
                        captures.push(capture(&live, &reference));
                    }
                }
                1..=4 => {
                    live.insert(&key, vh(v));
                    reference.insert(key, vh(v));
                }
                _ => {
                    let a = live.remove(&key);
                    let b = reference.remove(&key).is_some();
                    proptest::prop_assert_eq!(a, b);
                }
            }
        }
        // After the whole mutation storm, every snapshot is intact …
        for cap in &captures {
            assert_frozen(cap);
        }
        // … and the live tree still equals a bulk rebuild of the reference.
        let bulk = SparseMerkleTree::build(reference.iter().map(|(k, v)| (k.clone(), *v)));
        proptest::prop_assert_eq!(live.root_hash(), bulk.root_hash());
    }

    /// Diff exactness between any two snapshots of the same lineage:
    /// `old.diff_chunks(new)` lists precisely the chunks whose content
    /// differs, and overlaying those chunks onto the old snapshot lands
    /// exactly on the new root (the client half of incremental sync).
    #[test]
    fn diff_chunks_overlay_reproduces_new_root(
        base in proptest::collection::vec((0u64..40, 0u64..500), 0..60),
        churn in proptest::collection::vec((0u8..3, 0u64..40, 500u64..1000), 0..60),
        bits in 1u8..6
    ) {
        let old = SparseMerkleTree::build(
            base.iter().map(|(k, v)| (format!("k{k}"), vh(*v))),
        );
        let mut new = old.clone();
        for (kind, k, v) in churn {
            let key = format!("k{k}");
            match kind {
                0 | 1 => new.insert(&key, vh(v)),
                _ => {
                    new.remove(&key);
                }
            }
        }
        let changed = old.diff_chunks(&new, bits);
        // Exactness: a chunk is listed iff its content differs.
        for c in 0..1u32 << bits {
            let o: Vec<(Hash, Hash)> = old
                .view()
                .chunk_entries(c, bits)
                .into_iter()
                .map(|(k, v)| (key_path(k), *v))
                .collect();
            let n: Vec<(Hash, Hash)> = new
                .view()
                .chunk_entries(c, bits)
                .into_iter()
                .map(|(k, v)| (key_path(k), *v))
                .collect();
            proptest::prop_assert_eq!(
                changed.contains(&c),
                o != n,
                "chunk {} listed {} but content-equal {}", c, changed.contains(&c), o == n
            );
        }
        // Overlay: replace exactly the changed chunks in the old snapshot.
        let mut merged = old.clone();
        for &c in &changed {
            let stale: Vec<String> =
                merged.view().chunk_keys(c, bits).iter().map(|k| k.to_string()).collect();
            for k in stale {
                merged.remove(&k);
            }
            let fresh: Vec<(String, Hash)> = new
                .view()
                .chunk_entries(c, bits)
                .into_iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect();
            for (k, v) in fresh {
                merged.insert(&k, v);
            }
        }
        proptest::prop_assert_eq!(merged.root_hash(), new.root_hash());
        // And the old snapshot itself was not disturbed by any of this.
        let old_rebuilt = SparseMerkleTree::build(
            base.iter().map(|(k, v)| (format!("k{k}"), vh(*v))),
        );
        proptest::prop_assert_eq!(old.root_hash(), old_rebuilt.root_hash());
    }
}
