//! Benchmarks of the durability subsystem: group-commit throughput under
//! each fsync policy, the CRC every record, page, manifest and TCP frame
//! is framed with, and on-disk page sharing between consecutive
//! checkpoints.
//!
//! The fsync axis is the classic WAL trade: `Always` pays one `fdatasync`
//! per commit, `EveryN` amortizes it (batched group commit), `Off` goes
//! memory-speed (the simulation's crash model is process kill, not power
//! loss). The page-store benchmark measures the structural-sharing payoff
//! directly: persisting a checkpoint after 10% churn must write far fewer
//! than half the pages of a full persist (the ≥2× acceptance bar), since
//! unchanged subtrees are referenced, not rewritten.
//!
//! `wal_ckpt/persist_steady_168k_window` prices one whole
//! `NodeStore::persist_checkpoint` at the shape a saturated committee
//! reaches: an executed-id window of 82 sealed segments of 2 048 ids
//! (≈ 168 k ids), one new segment and one pruned segment per checkpoint,
//! and a state tree with no new pages. Every manifest and page sync is a
//! real `fdatasync` on the temp dir's file system, so the row moves with
//! the disk.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ahl_consensus::common::{ExecutedCache, ExecutedWindow};
use ahl_consensus::pbft::{CertKind, MsgCert, NodeStore, QuorumCert};
use ahl_crypto::sha256_parts;
use ahl_ledger::{StateStore, Value};
use ahl_simkit::{SimDuration, SimTime};
use ahl_store::SparseMerkleTree;
use ahl_wal::codec::crc32;
use ahl_wal::{FsyncPolicy, PageStore, TempDir, Wal, WalConfig};

/// One ~220-byte record, shaped like a small executed-batch entry.
fn record(i: u64) -> Vec<u8> {
    let mut payload = i.to_be_bytes().to_vec();
    payload.extend_from_slice(&[0xAB; 212]);
    payload
}

const BATCH: u64 = 16;

fn bench_group_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_commit");
    // Records per iteration: one commit of a BATCH-record group.
    g.throughput(Throughput::Elements(BATCH));
    for (name, policy) in [
        ("fsync_always", FsyncPolicy::Always),
        ("fsync_every_8", FsyncPolicy::EveryN(8)),
        // Volume-based group commit: ~8 commits' worth of bytes per sync
        // at this record shape, so the row is directly comparable to
        // `fsync_every_8` — same loss window, different accounting.
        ("fsync_every_28kb", FsyncPolicy::EveryBytes(28 * 1024)),
        ("fsync_off", FsyncPolicy::Off),
    ] {
        let dir = TempDir::new("bench-wal");
        let cfg = WalConfig { fsync: policy, ..WalConfig::default() };
        let (mut wal, _) = Wal::open(dir.path(), cfg).expect("open");
        let mut i = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..BATCH {
                    i += 1;
                    wal.append(record(i));
                }
                wal.commit().expect("commit");
            });
        });
        let stats = wal.stats();
        println!(
            "  [{name}] {} records, {} commits, {} fsyncs, {:.1} MB written",
            stats.records,
            stats.commits,
            stats.syncs,
            stats.bytes as f64 / 1e6
        );
    }
    g.finish();

    // The framing CRC alone, over a buffer the size of a large frame: the
    // fixed per-byte cost under all of the rows above.
    let mut g = c.benchmark_group("wal_codec");
    let buf: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31) as u8).collect();
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("crc32_64KiB", |b| b.iter(|| crc32(black_box(&buf))));
    g.finish();
}

fn bench_page_dedup(c: &mut Criterion) {
    const KEYS: u64 = 10_000;
    const CHURN: u64 = KEYS / 10; // the 10% acceptance workload

    let mut g = c.benchmark_group("wal_pages");
    let value = |i: u64| Value::Bytes(sha256_parts(&[&i.to_be_bytes()]).0.to_vec());
    let tree_of = |gen: u64| {
        SparseMerkleTree::build((0..KEYS).map(|i| (format!("acc{i}"), value(i * 31 + gen))))
    };

    // Incremental checkpoint persist after 10% churn — the steady-state
    // cost a replica pays per certified checkpoint.
    g.throughput(Throughput::Elements(CHURN));
    g.bench_function("persist_10pct_churn_10k", |b| {
        let dir = TempDir::new("bench-pages");
        let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
        let mut tree = tree_of(0);
        store.persist_tree(&tree).expect("base persist");
        let mut gen = 0u64;
        b.iter(|| {
            gen += 1;
            for j in 0..CHURN {
                let k = (j * 7 + gen) % KEYS;
                tree.insert(&format!("acc{k}"), value(gen << 32 | k));
            }
            store.persist_tree(&tree).expect("churn persist")
        });
    });
    g.finish();

    // Dedup ratio report (the ≥2x acceptance criterion): pages written by
    // the churned checkpoint vs a full persist of the same tree.
    let dir = TempDir::new("bench-pages-ratio");
    let mut store = PageStore::open(dir.path(), WalConfig::default()).expect("open");
    let mut tree = tree_of(0);
    let full = store.persist_tree(&tree).expect("first checkpoint");
    for j in 0..CHURN {
        tree.insert(&format!("acc{}", (j * 7) % KEYS), value(1 << 40 | j));
    }
    let incr = store.persist_tree(&tree).expect("second checkpoint");
    let total_nodes = 2 * KEYS - 1;
    let sharing = total_nodes as f64 / incr.pages_written.max(1) as f64;
    println!(
        "  [page dedup] checkpoint 1: {} pages; checkpoint 2 (10% churn): {} pages written, \
         {} subtrees shared -> {:.2}x on-disk sharing",
        full.pages_written, incr.pages_written, incr.subtrees_shared, sharing
    );
    assert!(
        incr.pages_written * 2 < full.pages_written,
        "10% churn must rewrite < half the pages: {} vs {}",
        incr.pages_written,
        full.pages_written
    );
    assert!(sharing >= 2.0, "on-disk sharing below the 2x acceptance bar: {sharing:.2}");
}

fn bench_checkpoint(c: &mut Criterion) {
    const SEGMENTS: u64 = 82;
    const INTERVAL: u64 = 2048;

    let mut state = StateStore::new();
    for i in 0..1_000 {
        state.put(format!("acc{i}"), Value::Int(i));
    }
    let snap = state.snapshot();
    let cert = QuorumCert {
        kind: CertKind::Checkpoint,
        view: 0,
        seq: 1,
        digest: snap.root(),
        signers: vec![(0, MsgCert::Simulated), (1, MsgCert::Simulated)],
    };
    // One interval per simulated second, pruned after `SEGMENTS` seconds:
    // from the first prune on, each checkpoint adds one segment and drops
    // one, so the window stays at the steady shape.
    let mut cache = ExecutedCache::new();
    let mut interval = 0u64;
    let mut next_window = move || -> ExecutedWindow {
        let now = SimTime::ZERO + SimDuration::from_secs(interval);
        for i in 0..INTERVAL {
            cache.insert(interval * INTERVAL + i, now);
        }
        interval += 1;
        let window = cache.window();
        cache.checkpoint_prune(now, SimDuration::from_secs(SEGMENTS - 1));
        window
    };

    let dir = TempDir::new("bench-ckpt");
    let (mut store, _, _) = NodeStore::open(dir.path(), &WalConfig::default()).expect("open");
    let mut window = ExecutedWindow::default();
    for _ in 0..SEGMENTS + 2 {
        window = next_window();
        store.persist_checkpoint(&cert, &snap, &window).expect("warm-up checkpoint");
    }
    assert_eq!(window.len() as u64, SEGMENTS * INTERVAL, "steady window");

    let mut g = c.benchmark_group("wal_ckpt");
    g.throughput(Throughput::Elements(INTERVAL));
    g.bench_function("persist_steady_168k_window", |b| {
        b.iter_batched(
            &mut next_window,
            |window| {
                let io = store.persist_checkpoint(&cert, &snap, &window).expect("checkpoint");
                assert_eq!(io.pages.pages_written, 0, "no new tree pages");
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
    let manifest = std::fs::metadata(dir.path().join("MANIFEST")).expect("manifest").len();
    println!("  [checkpoint] {manifest} manifest bytes for a {}-id window", window.len());
}

criterion_group!(benches, bench_group_commit, bench_page_dedup, bench_checkpoint);
criterion_main!(benches);
