//! Quickstart: spin up a small sharded blockchain and push SmallBank
//! payments through it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ahl::ledger::persist::open_snapshot;
use ahl::ledger::{verify_state_proof, StateSidecar, StateStore, Value};
use ahl::simkit::SimDuration;
use ahl::system::{run_system, SystemConfig, SystemWorkload};
use ahl::wal::codec::{Reader, Writer};
use ahl::wal::{open_node_dir, write_manifest, Manifest, TempDir, WalConfig};

fn main() {
    println!("ahl quickstart: 4 shards x 3 replicas + reference committee");
    println!("------------------------------------------------------------");

    // 4 shards of 3 replicas each (f = 1 per committee under the attested
    // rule), plus a 3-node reference committee coordinating cross-shard
    // transactions — the paper's Figure 13 setup in miniature.
    let mut cfg = SystemConfig::new(4, 3);
    cfg.clients = 8;
    cfg.outstanding = 32;
    cfg.workload = SystemWorkload::SmallBank { accounts: 10_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_secs(3);
    // Every replica fronts its shard with an `ahl-mempool` transaction
    // pool: requests are deduplicated, admission-controlled and batched
    // into proposals there. Shrink the capacity (e.g. to 64) to watch
    // backpressure engage — `m.rejected` counts the bounced steps.
    cfg.mempool = ahl::mempool::MempoolConfig::new(100_000);

    let m = run_system(cfg);

    println!("throughput            : {:8.0} tps", m.tps);
    println!("committed             : {:8}", m.committed);
    println!("aborted               : {:8}  ({:.2}% of finished)", m.aborted, 100.0 * m.abort_rate);
    println!("cross-shard fraction  : {:8.2}%", 100.0 * m.cross_shard_fraction);
    println!("mean latency          : {:>8}", m.latency_mean);
    println!("pool rejections       : {:8}", m.rejected);
    println!("view changes          : {:8}", m.view_changes);

    assert!(m.committed > 0, "the system should commit transactions");
    println!("\nOK: cross-shard payments committed atomically under 2PC/2PL.");

    // Every shard's state is authenticated: the `state_digest` each block
    // carries is a sparse-Merkle-tree root, so any balance can be proven
    // in (or out of) the state a checkpoint certificate signs — the
    // mechanism replicas use to verify fetched state chunks during
    // reconfiguration and crash recovery.
    let mut shard = StateStore::new();
    shard.put("ck_alice".into(), Value::Int(100));
    shard.put("ck_bob".into(), Value::Int(50));
    let root = shard.state_digest();
    let proof = shard.prove("ck_alice");
    assert!(verify_state_proof(&root, "ck_alice", Some(&Value::Int(100).digest()), &proof));
    let absent = shard.prove("ck_mallory");
    assert!(verify_state_proof(&root, "ck_mallory", None, &absent));
    println!("OK: state root proves ck_alice = 100 and excludes ck_mallory.");

    // And that state is *durable*: a node directory holds a segmented,
    // CRC-framed write-ahead log (`wal/wal-*.seg`, group-committed under
    // a configurable fsync policy), content-addressed snapshot pages
    // (`pages/pages-*.seg` — consecutive checkpoints share unchanged
    // pages — with `pages-*.idx` sidecar indexes so reopening sealed
    // segments never rescans their frames), and an atomically swapped
    // `MANIFEST` naming the durable checkpoint. Disk stays bounded under
    // churn: once a manifest is durable, mark-and-sweep page GC compacts
    // mostly-dead segments away and `WalConfig` retention caps
    // (`retain_wal_segments` / `retain_wal_bytes`) drop WAL segments the
    // checkpoint has superseded. Reopening the directory is crash
    // recovery: torn tails are truncated, the manifest is validated, and
    // the WAL tail past the checkpoint replays — the checkpoint tree
    // itself can load eagerly (root-verified `open_snapshot`) or fault
    // in on demand through a byte-bounded, per-node-verified page cache
    // (`open_snapshot_lazy`). (`SystemConfig::data_dir` wires the same
    // machinery under every replica; `experiments -- recovery`
    // crash-tests it and `experiments -- soak` churn-tests the bounds.)
    let dir = TempDir::new("quickstart");
    let cfg = WalConfig::default();
    {
        let mut node = open_node_dir(dir.path(), &cfg).expect("create node dir");
        node.wal.append(b"executed-batch-1".to_vec());
        node.wal.commit().expect("group commit");
        let snap = shard.snapshot();
        snap.persist(&mut node.pages).expect("persist checkpoint pages");
        node.pages.sync().expect("barrier before publishing");
        let mut meta = Writer::new();
        snap.sidecar().encode(&mut meta);
        write_manifest(
            dir.path(),
            &Manifest { seq: 1, root: snap.root(), meta: meta.into_bytes() },
            &cfg.kill,
        )
        .expect("atomic manifest swap");
    } // <- handles dropped: the "crash"
    let node = open_node_dir(dir.path(), &cfg).expect("recovery reopen");
    let manifest = node.manifest.expect("durable checkpoint survives");
    let sidecar = StateSidecar::decode(&mut Reader::new(&manifest.meta)).expect("sidecar");
    let recovered =
        StateStore::from_snapshot(&open_snapshot(&node.pages, manifest.root, sidecar).expect("verified load"));
    assert_eq!(recovered.state_digest(), root);
    assert_eq!(node.tail.len(), 1, "the WAL tail is back for replay");
    println!("OK: checkpoint + WAL survived a crash; recovered root matches.");

    // Finally, the paper's *security* claim is executable too: rerun the
    // sharded system with a Byzantine replica in every committee
    // (withholding its votes — swap in any `Attack` from the catalogue:
    // `Equivocate`, `StaleReplay`, `BogusCheckpoint`, ...) and two
    // Byzantine client drivers replaying and reordering their 2PC steps.
    // A global `SafetyChecker` observes every honest commit, execution,
    // and cross-shard resolution; `assert_clean` proves agreement,
    // atomicity and exactly-once execution held under attack. (Scripted
    // *network* adversaries — partitions, drops, duplication storms —
    // plug into `simkit::adversary::ScriptedFaults` the same way; see
    // `tests/byzantine.rs` for the full matrix and the f-over-bound
    // canary that proves the checker itself is live.)
    let checker = ahl::consensus::SafetyChecker::new();
    let mut cfg = SystemConfig::new(2, 4);
    cfg.clients = 4;
    cfg.malicious_clients = 1;
    cfg.outstanding = 8;
    cfg.byzantine = 1; // f = 1 per committee: within the tolerated bound
    cfg.attack = ahl::consensus::Attack::WithholdVotes;
    cfg.safety = Some(checker.clone());
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    let m = run_system(cfg);
    checker.assert_clean();
    assert!(m.committed > 0, "the attacked system keeps committing");
    println!(
        "OK: {} commits under Byzantine replicas + clients; 0 safety violations.",
        m.committed
    );

    // Observability: `run_system_report` hands back the raw simulator
    // statistics next to the metrics. Counters and latency histograms are
    // *labeled* — every committee's share is queryable by `Scope`, and
    // the labeled writes roll up into the familiar globals — and a
    // per-node flight recorder stamps each transaction's lifecycle
    // (submit → ingest → admit → propose → commit → exec, plus 2PC hops),
    // deriving per-phase latency percentiles. A `SafetyChecker` violation
    // would dump the implicated committee's trace automatically;
    // `experiments -- fig8 --quick --json out.json` writes the same data
    // as a machine-readable report.
    use ahl::simkit::{Phase, Scope};
    let mut cfg = SystemConfig::new(2, 3);
    cfg.clients = 4;
    cfg.outstanding = 16;
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    let report = ahl::system::run_system_report(cfg);
    for shard in 0..2 {
        println!(
            "shard {shard}: {:6} committed, {:4} blocks",
            report.stats.scoped_counter("txn.committed", Scope::committee(shard)),
            report.stats.scoped_counter("consensus.blocks", Scope::committee(shard)),
        );
    }
    if let Some(h) = report.stats.histogram(Phase::TRANSITIONS[4]) {
        println!(
            "commit→exec phase     : p50 {} / p99 {} over {} transitions",
            h.quantile(0.50),
            h.quantile(0.99),
            h.count()
        );
    }
    let sample: Vec<_> = report.stats.recorder().all_events().take(3).collect();
    for ev in &sample {
        println!("trace: {ev}");
    }
    assert!(!sample.is_empty(), "the flight recorder captured the run");
    println!("OK: labeled metrics, phase percentiles and flight-recorder traces.");

    // Run-time oracles (ahl-telemetry): the liveness oracle rides the same
    // trace stream the flight recorder fills — per-committee commit-stall,
    // mempool-starvation, view-change-storm and sync-livelock detectors
    // with budgets an order of magnitude above healthy steady state
    // (tune them via `LivenessConfig`). The wall-clock profiler times the
    // *host* cost of the hot paths (consensus exec and checkpoints, SMT
    // update, WAL group commit, sync verify) and attributes self/total
    // time per span. Both attach through `SystemConfig`; a violation
    // dumps the implicated committee's causal trace, and the profiler
    // table lands in the text and JSON output of `experiments`. The same
    // JSON reports power the bench-trajectory gate: `bench_compare
    // BENCH_fig8.json fresh.json` diffs a fresh run against the committed
    // baseline and exits non-zero on a budget breach (see BENCHMARKS.md).
    use ahl::telemetry::{LivenessChecker, LivenessConfig};
    let liveness = LivenessChecker::new(LivenessConfig::default());
    let mut cfg = SystemConfig::new(2, 3);
    cfg.clients = 4;
    cfg.outstanding = 8;
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(3);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.liveness = Some(liveness.clone());
    cfg.profile = true;
    let report = ahl::system::run_system_report(cfg);
    assert!(liveness.ok(), "healthy run must not trip the oracle");
    assert_eq!(report.metrics.liveness_violations, 0);
    let profile = report.profile.expect("profiling was enabled");
    print!("{}", profile.render());
    assert!(profile.self_total_ns() <= profile.wall_ns);
    println!("OK: liveness oracle silent; profiler attributed the hot paths.");
}
