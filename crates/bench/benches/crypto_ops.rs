//! Microbenchmarks of the cryptographic substrate (the software
//! counterparts of Table 2's enclave operations).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ahl_crypto::{hmac_sha256, kernels, sha256, sha256_parts, KeyRegistry, MerkleTree, Sha256};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)));
        });
    }
    // The sparse Merkle tree's branch hash: three framed parts, 89 bytes,
    // the message `smt.update` hashes ~17 times per write at 32k keys.
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    g.throughput(Throughput::Bytes(89));
    g.bench_function("node_89B_framed", |b| {
        b.iter(|| {
            let (l, r) = std::hint::black_box((&left, &right));
            sha256_parts(&[&[0x01], &l.0, &r.0])
        });
    });
    g.finish();
}

/// One block through the portable kernel and through whichever kernel the
/// CPU selects — equal on a host without SHA extensions.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    let block = [0xabu8; 64];
    g.throughput(Throughput::Bytes(64));
    type Kernel = fn(&mut [u32; 8], &[u8]);
    for (name, kernel) in [
        ("scalar_64B", kernels::scalar as Kernel),
        ("dispatch_64B", kernels::dispatch as Kernel),
    ] {
        g.bench_function(name, |b| {
            let mut state = [0x6a09_e667u32; 8];
            b.iter(|| {
                kernel(&mut state, std::hint::black_box(&block));
                state[0]
            });
        });
    }
    g.finish();
}

fn bench_incremental_hash(c: &mut Criterion) {
    c.bench_function("sha256_incremental_1MB_in_4K_chunks", |b| {
        let chunk = vec![0x5au8; 4096];
        b.iter(|| {
            let mut h = Sha256::new();
            for _ in 0..256 {
                h.update(std::hint::black_box(&chunk));
            }
            h.finalize()
        });
    });
}

fn bench_hmac(c: &mut Criterion) {
    let key = [7u8; 32];
    let msg = [9u8; 32];
    c.bench_function("hmac_sha256_32B", |b| {
        b.iter(|| hmac_sha256(std::hint::black_box(&key), std::hint::black_box(&msg)));
    });
}

fn bench_sign_verify(c: &mut Criterion) {
    let mut reg = KeyRegistry::new();
    let key = reg.generate(1);
    let digest = sha256(b"consensus message");
    c.bench_function("sig_sign", |b| {
        b.iter(|| key.sign(std::hint::black_box(&digest)));
    });
    let sig = key.sign(&digest);
    c.bench_function("sig_verify", |b| {
        b.iter(|| reg.verify(std::hint::black_box(&digest), std::hint::black_box(&sig)));
    });
}

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    for n in [64usize, 1024] {
        let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("txn-{i}").into_bytes()).collect();
        g.bench_function(format!("build_{n}_leaves"), |b| {
            b.iter(|| MerkleTree::build(std::hint::black_box(&leaves)));
        });
        let tree = MerkleTree::build(&leaves);
        g.bench_function(format!("prove_verify_{n}"), |b| {
            b.iter_batched(
                || tree.prove(n / 2).expect("in range"),
                |proof| ahl_crypto::verify_proof(&tree.root(), &leaves[n / 2], &proof),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_kernels,
    bench_incremental_hash,
    bench_hmac,
    bench_sign_verify,
    bench_merkle
);
criterion_main!(benches);
