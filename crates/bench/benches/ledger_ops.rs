//! Benchmarks of the ledger substrate: state execution (the 2PL path and
//! the blind-write path).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ahl_ledger::{kvstore, smallbank, Op, StateStore, TxId};

fn store_with_accounts(n: usize) -> StateStore {
    let mut s = StateStore::new();
    for (k, v) in smallbank::genesis(n, 1_000_000, 1_000_000) {
        s.put(k, v);
    }
    s
}

fn bench_direct_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("state_execute");
    g.throughput(Throughput::Elements(1));
    g.bench_function("send_payment_direct", |b| {
        b.iter_batched(
            || store_with_accounts(1000),
            |mut s| {
                for i in 0..100u64 {
                    let from = format!("acc{}", i % 1000);
                    let to = format!("acc{}", (i + 7) % 1000);
                    s.execute(&Op::Direct {
                        txid: TxId(i),
                        op: smallbank::send_payment(&from, &to, 5),
                    });
                }
                s
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("prepare_commit_2pc", |b| {
        b.iter_batched(
            || store_with_accounts(1000),
            |mut s| {
                for i in 0..100u64 {
                    let from = format!("acc{}", i % 1000);
                    let to = format!("acc{}", (i + 7) % 1000);
                    s.execute(&Op::Prepare {
                        txid: TxId(i),
                        op: smallbank::send_payment(&from, &to, 5),
                    });
                    s.execute(&Op::Commit { txid: TxId(i) });
                }
                s
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// The host-time benchmark's `inproc_kv_sat` shape at the ledger: one block
/// of 64 single-key 16-byte `kv_write`s, keys uniform over a warm
/// 32 768-key store.
fn bench_kv_write(c: &mut Criterion) {
    const KEYS: u64 = 32_768;
    let mut g = c.benchmark_group("state_execute");
    g.throughput(Throughput::Elements(64));
    g.bench_function("kv_write_32k", |b| {
        let mut s = StateStore::new();
        for k in 0..KEYS {
            s.execute(&Op::Direct { txid: TxId(k), op: kvstore::kv_write(&[k], 16) });
        }
        let mut next = 0u64;
        b.iter(|| {
            for _ in 0..64 {
                next = next.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let op = kvstore::kv_write(&[(next >> 33) % KEYS], 16);
                s.execute(&Op::Direct { txid: TxId(next), op });
            }
            s.state_digest()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_direct_execution, bench_kv_write);
criterion_main!(benches);
