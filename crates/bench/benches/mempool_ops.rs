//! Mempool hot-path benchmarks for the bounded FIFO pool: admission, dedup
//! of duplicates, rejection at a full pool, and draining it in batches.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ahl_consensus::Request;
use ahl_ledger::{kvstore, Op, TxId};
use ahl_mempool::{BatchBuilder, BatchConfig, Mempool, MempoolConfig};
use ahl_simkit::{SimDuration, SimTime, Stats};

fn req(i: u64) -> Request {
    Request {
        id: i,
        client: 0,
        op: Op::Direct { txid: TxId(i), op: kvstore::kv_write(&[i % 64], 16) },
        submitted: SimTime::ZERO,
    }
}

fn filled(capacity: usize) -> Mempool<Request> {
    let mut pool = Mempool::new(MempoolConfig::new(capacity), 0);
    let mut stats = Stats::new();
    for i in 0..capacity as u64 {
        pool.insert(req(i), SimTime::ZERO, &mut stats);
    }
    pool
}

fn bench_admission(c: &mut Criterion) {
    let mut g = c.benchmark_group("mempool_admission");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("fifo_10k_inserts", |b| {
        b.iter_batched(
            || (Mempool::new(MempoolConfig::new(20_000), 0), Stats::new()),
            |(mut pool, mut stats)| {
                for i in 0..10_000u64 {
                    pool.insert(req(i), SimTime::ZERO, &mut stats);
                }
                pool.len()
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("dedup_10k_duplicates", |b| {
        b.iter_batched(
            || (filled(10_000), Stats::new()),
            |(mut pool, mut stats)| {
                for i in 0..10_000u64 {
                    pool.insert(req(i), SimTime::ZERO, &mut stats);
                }
                stats.counter(ahl_mempool::stat::DUPLICATE)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_full_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("mempool_full_pool_insert");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("Fifo", |b| {
        b.iter_batched(
            || (filled(10_000), Stats::new()),
            |(mut pool, mut stats)| {
                // 10k arrivals at a full pool: every one is rejected.
                for i in 10_000..20_000u64 {
                    pool.insert(req(i), SimTime::ZERO, &mut stats);
                }
                pool.len()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_batch_formation(c: &mut Criterion) {
    let mut g = c.benchmark_group("mempool_drain_10k_in_batches_of_100");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("Fifo", |b| {
        b.iter_batched(
            || {
                (
                    filled(10_000),
                    BatchBuilder::new(BatchConfig::new(100, SimDuration::from_millis(10))),
                    Stats::new(),
                )
            },
            |(mut pool, mut builder, mut stats)| {
                let mut drained = 0usize;
                while let Some(b) = builder.take_full(&mut pool, SimTime::ZERO, &mut stats) {
                    drained += b.len();
                }
                drained
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_admission, bench_full_pool, bench_batch_formation);
criterion_main!(benches);
