//! Benchmarks of the authenticated store: sparse-Merkle-tree update /
//! prove / verify against the flat-map baseline it authenticates, plus the
//! bulk genesis build and chunk extraction used by state sync.

use std::collections::{HashMap, VecDeque};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ahl_crypto::sha256_parts;
use ahl_store::{verify_chunk, verify_proof, SparseMerkleTree};

fn vhash(i: u64) -> ahl_crypto::Hash {
    sha256_parts(&[&i.to_be_bytes()])
}

fn tree_with(n: u64) -> SparseMerkleTree {
    SparseMerkleTree::build((0..n).map(|i| (format!("acc{i}"), vhash(i))))
}

/// `n` writes to keys drawn uniformly from `acc0..acc32767` by an LCG on
/// `next`: the host-time benchmark's write shape.
fn random_writes(t: &mut SparseMerkleTree, next: &mut u64, n: usize) {
    for _ in 0..n {
        *next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        t.insert(&format!("acc{}", (*next >> 33) % 32_768), vhash(*next));
    }
}

fn bench_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_update");
    g.throughput(Throughput::Elements(100));
    // A plain hash map: what a mutation costs without authentication —
    // the yardstick the SMT rows below are read against.
    g.bench_function("flat_map_100_updates", |b| {
        b.iter_batched(
            || {
                (0..10_000u64)
                    .map(|i| (format!("acc{i}"), i))
                    .collect::<HashMap<String, u64>>()
            },
            |mut m| {
                for i in 0..100u64 {
                    m.insert(format!("acc{}", i * 97 % 10_000), i);
                }
                m
            },
            BatchSize::SmallInput,
        );
    });
    // The SMT: O(log n) hashes per mutation buys a provable root.
    g.bench_function("smt_100_updates_10k", |b| {
        b.iter_batched(
            || tree_with(10_000),
            |mut t| {
                for i in 0..100u64 {
                    t.insert(&format!("acc{}", i * 97 % 10_000), vhash(i));
                }
                (t.root_hash(), t)
            },
            BatchSize::SmallInput,
        );
    });
    // The host-time benchmark's shape: one block of 64 single-key writes,
    // keys uniform over a steady 32 768-key tree that is updated in place.
    g.throughput(Throughput::Elements(64));
    g.bench_function("smt_64_updates_32k", |b| {
        let mut t = tree_with(32_768);
        let mut next = 0u64;
        b.iter(|| {
            random_writes(&mut t, &mut next, 64);
            t.root_hash()
        });
    });
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_build");
    g.throughput(Throughput::Elements(10_000));
    // Bulk build (genesis / sync install): one hash per node.
    g.bench_function("bulk_build_10k", |b| {
        b.iter(|| tree_with(10_000));
    });
    // Insert-loop equivalent: O(log n) hashes per key.
    g.bench_function("insert_loop_10k", |b| {
        b.iter(|| {
            let mut t = SparseMerkleTree::new();
            for i in 0..10_000u64 {
                t.insert(&format!("acc{i}"), vhash(i));
            }
            (t.root_hash(), t)
        });
    });
    g.finish();
}

fn bench_proofs(c: &mut Criterion) {
    let t = tree_with(10_000);
    let root = t.root_hash();
    let mut g = c.benchmark_group("store_proofs");
    g.throughput(Throughput::Elements(1));
    g.bench_function("prove_10k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            t.prove(&format!("acc{i}"))
        });
    });
    let proof = t.prove("acc42");
    g.bench_function("verify_10k", |b| {
        b.iter(|| verify_proof(&root, "acc42", Some(&vhash(42)), &proof));
    });
    g.finish();
}

fn bench_snapshots(c: &mut Criterion) {
    // The headline property of the persistent tree: a snapshot is an O(1)
    // root handle, so checkpoint cost stays flat as state grows (the old
    // deep clone grew linearly — compare the explicit rebuild baseline).
    let mut g = c.benchmark_group("store_snapshot");
    for n in [1_000u64, 10_000, 100_000] {
        let t = tree_with(n);
        g.bench_function(format!("snapshot_handle_{n}"), |b| {
            b.iter(|| t.clone());
        });
    }
    // Linear baseline: what a deep rebuild of the same tree costs.
    for n in [1_000u64, 10_000] {
        let t = tree_with(n);
        g.bench_function(format!("deep_rebuild_{n}"), |b| {
            b.iter(|| {
                SparseMerkleTree::build(t.view().iter().map(|(k, v)| (k.to_string(), *v)))
            });
        });
    }
    // Copy-on-write tax: 100 updates against a live tree that holds an
    // outstanding snapshot (path nodes clone on first touch).
    g.bench_function("updates_100_with_snapshot_10k", |b| {
        b.iter_batched(
            || {
                let t = tree_with(10_000);
                let snap = t.clone();
                (t, snap)
            },
            |(mut t, snap)| {
                for i in 0..100u64 {
                    t.insert(&format!("acc{}", i * 97 % 10_000), vhash(i));
                }
                (t.root_hash(), t, snap)
            },
            BatchSize::SmallInput,
        );
    });
    // Diff computation between two snapshots (the server half of
    // incremental sync): hash compares only, no re-hashing.
    let old = tree_with(10_000);
    let mut new = old.clone();
    for i in 0..50u64 {
        new.insert(&format!("acc{}", i * 131 % 10_000), vhash(i + 1));
    }
    g.bench_function("diff_chunks_10k_50_changed", |b| {
        b.iter(|| old.diff_chunks(&new, 6));
    });
    // The replica's steady state: 64-write blocks over 32 768 keys, the
    // root read at each block's end, a checkpoint snapshot every 32
    // blocks and 8 retained. Prices what `smt_64_updates_32k` never pays:
    // copy-on-write against live snapshots and dropping retired ones.
    g.throughput(Throughput::Elements(64));
    g.bench_function("updates_64_32k_checkpointed", |b| {
        let mut t = tree_with(32_768);
        let mut retained: VecDeque<SparseMerkleTree> = Default::default();
        let (mut next, mut blocks) = (0u64, 0u64);
        b.iter(|| {
            random_writes(&mut t, &mut next, 64);
            blocks += 1;
            if blocks % 32 == 0 {
                retained.push_back(t.clone());
                if retained.len() > 8 {
                    retained.pop_front();
                }
            }
            t.root_hash()
        });
    });
    // The same writes with the root read only where a replica commits it:
    // one interval of 32 blocks × 64 writes, then one root read and one
    // retained snapshot (8 retained). Ancestors the interval's writes share
    // are hashed once per interval instead of once per block.
    g.throughput(Throughput::Elements(2_048));
    g.bench_function("interval_2048_32k", |b| {
        let mut t = tree_with(32_768);
        let mut retained: VecDeque<SparseMerkleTree> = Default::default();
        let mut next = 0u64;
        b.iter(|| {
            random_writes(&mut t, &mut next, 2_048);
            let root = t.root_hash();
            retained.push_back(t.clone());
            if retained.len() > 8 {
                retained.pop_front();
            }
            root
        });
    });
    // The committee's shape: four lineages, one per replica, each applying
    // the same 64-write block in turn; per 32-block interval each reads its
    // root once and retains a snapshot, two retained. Four trees share the
    // cache as a committee in one process does, which the single-lineage
    // rows above do not show. One element is one write to one lineage.
    g.throughput(Throughput::Elements(4 * 2_048));
    g.bench_function("interval_2048_32k_x4", |b| {
        let mut replicas: Vec<(SparseMerkleTree, VecDeque<SparseMerkleTree>)> =
            (0..4).map(|_| (tree_with(32_768), VecDeque::new())).collect();
        let mut next = 0u64;
        let mut interval = move || {
            for _ in 0..32 {
                let block = next;
                for (t, _) in &mut replicas {
                    next = block;
                    random_writes(t, &mut next, 64);
                }
            }
            let mut roots = Vec::with_capacity(replicas.len());
            for (t, retained) in &mut replicas {
                roots.push(t.root_hash());
                retained.push_back(t.clone());
                if retained.len() > 2 {
                    retained.pop_front();
                }
            }
            roots
        };
        // Two intervals first, so every timed one drops a retired snapshot.
        interval();
        interval();
        b.iter(&mut interval);
    });
    // Retiring a checkpoint snapshot on its own (the replica's
    // `pbft.retire` span): an interval of 32 blocks of 64 writes between
    // snapshots, two retained, and only the drop of the oldest timed. It
    // frees exactly the nodes the interval's writes copied away from it.
    g.throughput(Throughput::Elements(1));
    g.bench_function("retire_interval_32k", |b| {
        let mut t = tree_with(32_768);
        let mut next = 0u64;
        let mut interval = |t: &mut SparseMerkleTree| {
            random_writes(t, &mut next, 2_048);
            t.clone()
        };
        let mut retained: VecDeque<SparseMerkleTree> =
            [interval(&mut t), interval(&mut t)].into();
        b.iter_batched(
            || {
                retained.push_back(interval(&mut t));
                retained.pop_front().expect("two retained")
            },
            drop,
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_chunks(c: &mut Criterion) {
    let t = tree_with(10_000);
    let root = t.root_hash();
    let bits = 4u8; // 16 chunks ≈ 625 leaves each
    let mut g = c.benchmark_group("store_chunks");
    g.bench_function("chunk_extract_625", |b| {
        b.iter(|| (t.view().chunk_keys(3, bits).len(), t.chunk_proof(3, bits)));
    });
    let entries: Vec<(ahl_crypto::Hash, ahl_crypto::Hash)> = {
        let view = t.view();
        let mut v: Vec<_> = view
            .chunk_keys(3, bits)
            .into_iter()
            .map(|k| (ahl_store::key_path(k), *view.get(k).expect("live")))
            .collect();
        v.sort_by_key(|e| e.0 .0);
        v
    };
    let proof = t.chunk_proof(3, bits);
    g.bench_function("chunk_verify_625", |b| {
        b.iter(|| verify_chunk(&root, 3, bits, &entries, &proof));
    });
    g.finish();
}

fn bench_batch_apply(c: &mut Criterion) {
    // The checkpoint-path write pattern: one block's coalesced changes
    // (inserts, updates, removes) applied in a single call. Serial
    // (`workers = 1`) vs the parallel subtree merge.
    let mut g = c.benchmark_group("store_batch_apply");
    g.throughput(Throughput::Elements(1_024));
    let changes: Vec<(String, Option<ahl_crypto::Hash>)> = (0..1_024u64)
        .map(|i| {
            let key = format!("acc{}", i * 97 % 20_000);
            if i % 8 == 7 {
                (key, None) // a remove (live roughly half the time)
            } else {
                (key, Some(vhash(i + 1)))
            }
        })
        .collect();
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("batch_1024_into_10k_w{workers}"), |b| {
            b.iter_batched(
                || (tree_with(10_000), changes.clone()),
                |(mut t, ch)| {
                    t.batch_apply(ch, workers);
                    (t.root_hash(), t)
                },
                BatchSize::SmallInput,
            );
        });
    }
    // The sequential insert/remove loop the batch path replaces.
    g.bench_function("loop_1024_into_10k", |b| {
        b.iter_batched(
            || (tree_with(10_000), changes.clone()),
            |(mut t, ch)| {
                for (k, v) in ch {
                    match v {
                        Some(v) => {
                            t.insert(&k, v);
                        }
                        None => {
                            t.remove(&k);
                        }
                    }
                }
                (t.root_hash(), t)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_rehash_audit(c: &mut Criterion) {
    // The checkpoint-time paranoia pass of the parallel execution path:
    // recompute every cached hash bottom-up and compare.
    let mut g = c.benchmark_group("store_rehash_audit");
    let t = tree_with(10_000);
    for workers in [1usize, 4] {
        g.bench_function(format!("audit_10k_w{workers}"), |b| {
            b.iter(|| t.rehash_audit(workers));
        });
    }
    g.finish();
}

fn bench_cert_verify(c: &mut Criterion) {
    // Checkpoint-certificate verification: the per-vote loop each vote
    // re-deriving the digest vs the batched verifier hashing it once.
    use ahl_crypto::{KeyId, KeyRegistry, SigningKey};
    use ahl_consensus::pbft::checkpoint_digest;
    let mut reg = KeyRegistry::new();
    let keys: Vec<SigningKey> = (0..13).map(|i| reg.generate(i)).collect();
    let root = vhash(99);
    let digest = checkpoint_digest(512, &root);
    let votes: Vec<(KeyId, ahl_crypto::Signature)> =
        keys.iter().map(|k| (k.id(), k.sign(&digest))).collect();
    let mut g = c.benchmark_group("store_cert_verify");
    g.throughput(Throughput::Elements(votes.len() as u64));
    g.bench_function("per_vote_loop_13", |b| {
        b.iter(|| {
            votes.iter().all(|(id, s)| {
                s.signer == *id && reg.verify(&checkpoint_digest(512, &root), s)
            })
        });
    });
    g.bench_function("batched_13", |b| {
        b.iter(|| {
            reg.verify_batch(
                &checkpoint_digest(512, &root),
                votes.iter().map(|(id, s)| (*id, s)),
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_updates,
    bench_build,
    bench_proofs,
    bench_snapshots,
    bench_chunks,
    bench_batch_apply,
    bench_rehash_audit,
    bench_cert_verify
);
criterion_main!(benches);
