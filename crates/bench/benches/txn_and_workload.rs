//! Benchmarks of the transaction layer and workload generators: 2PC over
//! in-process shards, the reference committee's Figure 6 chaincode, Zipf
//! sampling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use ahl_ledger::{smallbank, TxId};
use ahl_txn::MultiShardLedger;
use ahl_workload::{SmallBankWorkload, Zipf};

fn bench_cross_shard_2pc(c: &mut Criterion) {
    let mut g = c.benchmark_group("cross_shard_2pc");
    g.throughput(Throughput::Elements(100));
    g.bench_function("100_payments_over_4_shards", |b| {
        b.iter_batched(
            || {
                let mut l = MultiShardLedger::new(4);
                l.genesis(&smallbank::genesis(1000, 1_000_000, 0));
                l
            },
            |mut l| {
                for i in 0..100u64 {
                    let from = format!("acc{}", i % 1000);
                    let to = format!("acc{}", (i * 13 + 7) % 1000);
                    let _ = l.execute(TxId(i), &smallbank::send_payment(&from, &to, 3));
                }
                l
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Figure 6 as R runs it: BeginTx and three OK votes per transaction, each
/// a chaincode op executed on R's `StateStore`, the last one read back as
/// the commit decision.
fn bench_coordinator_sm(c: &mut Criterion) {
    c.bench_function("coordinator_1000_txns", |b| {
        b.iter(|| {
            let mut l = MultiShardLedger::new(3);
            for i in 0..1000u64 {
                let tx = TxId(i);
                l.begin_tx(tx, vec![0, 1, 2]);
                l.vote(tx, 0, true);
                l.vote(tx, 1, true);
                l.vote(tx, 2, true);
            }
            l
        });
    });
}

fn bench_zipf(c: &mut Criterion) {
    let mut g = c.benchmark_group("zipf_sample");
    for theta in [0.0f64, 0.99, 1.99] {
        let z = Zipf::new(100_000, theta);
        let mut rng = SmallRng::seed_from_u64(5);
        g.bench_function(format!("theta_{theta}"), |b| {
            b.iter(|| z.sample(std::hint::black_box(&mut rng)));
        });
    }
    g.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    let w = SmallBankWorkload::paper(100_000, 0.99);
    let zipf = Zipf::new(w.accounts, w.theta);
    let mut rng = SmallRng::seed_from_u64(6);
    c.bench_function("smallbank_next_op", |b| {
        b.iter(|| w.next_op(&zipf, std::hint::black_box(&mut rng)));
    });
}

criterion_group!(
    benches,
    bench_cross_shard_2pc,
    bench_coordinator_sm,
    bench_zipf,
    bench_workload_gen
);
criterion_main!(benches);
