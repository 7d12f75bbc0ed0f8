//! Reproducibility: every protocol simulation is bit-for-bit deterministic
//! in its seed — the property that makes the throughput numbers in
//! BENCHMARKS.md regression-testable.

use ahl::consensus::harness::{run_shard_experiment, ClientMode, NetChoice, ShardExperiment};
use ahl::consensus::pbft::{BftVariant, PbftConfig};
use ahl::consensus::poet::{run_poet, PoetConfig};
use ahl::net::ClusterNetwork;
use ahl::simkit::SimDuration;
use ahl::workload::KvStoreWorkload;

fn bft_run(variant: BftVariant, seed: u64) -> (u64, u64) {
    let mut exp = ShardExperiment::new(
        PbftConfig::new(variant, 5),
        Box::new(|c| KvStoreWorkload::single_shard().factory(c)),
    );
    exp.net = NetChoice::Cluster;
    exp.clients = 3;
    exp.client_mode = ClientMode::Open { rate: 100.0 };
    exp.duration = SimDuration::from_secs(4);
    exp.warmup = SimDuration::from_secs(1);
    exp.seed = seed;
    let m = run_shard_experiment(exp);
    (m.committed, m.latency_mean.as_nanos())
}

#[test]
fn pbft_variants_deterministic_per_seed() {
    for variant in [BftVariant::Hl, BftVariant::AhlPlus, BftVariant::Ahlr] {
        let a = bft_run(variant, 77);
        let b = bft_run(variant, 77);
        assert_eq!(a, b, "{variant:?} not reproducible");
        let c = bft_run(variant, 78);
        assert_ne!(a, c, "{variant:?} ignores the seed");
    }
}

#[test]
fn poet_deterministic_per_seed() {
    let run = |seed| {
        run_poet(
            &PoetConfig::poet(8, 2_000_000),
            Box::new(ClusterNetwork::poet_constrained()),
            Some(50e6),
            SimDuration::from_secs(300),
            seed,
        )
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.main_chain_blocks, b.main_chain_blocks);
    assert_eq!(a.total_blocks, b.total_blocks);
}

/// End-to-end determinism with the mempool under overload: two identical
/// overloaded system runs produce identical commit/reject/abort counts.
#[test]
fn overloaded_system_deterministic_per_seed() {
    use ahl::mempool::MempoolConfig;
    use ahl::system::{run_system, SystemConfig, SystemWorkload};

    let run = |seed: u64| {
        let mut cfg = SystemConfig::new(2, 3);
        cfg.clients = 4;
        cfg.outstanding = 32;
        cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.batch_size = 20;
        cfg.mempool = MempoolConfig::new(48);
        cfg.seed = seed;
        let m = run_system(cfg);
        (m.committed, m.rejected, m.aborted, m.final_balance)
    };
    let a = run(3);
    assert!(a.1 > 0, "run must actually overload the pool (rejected {})", a.1);
    assert_eq!(a, run(3), "overloaded run not reproducible");
}

/// Flight-recorder determinism: the full event sequence (not just the
/// aggregate counters) is byte-identical for identical config + seed, and
/// actually responds to the seed.
#[test]
fn trace_deterministic_per_seed() {
    use ahl::system::{run_system_report, SystemConfig, SystemWorkload};

    let run = |seed: u64| {
        let mut cfg = SystemConfig::new(2, 3);
        cfg.clients = 4;
        cfg.outstanding = 16;
        cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.batch_size = 20;
        cfg.seed = seed;
        run_system_report(cfg).stats.recorder().fingerprint()
    };
    let a = run(21);
    assert!(!a.is_empty(), "recorder captured nothing");
    assert_eq!(a, run(21), "trace not reproducible for identical config + seed");
    assert_ne!(a, run(22), "trace ignores the seed");
}

/// A committed cross-shard transaction's reconstructed lifecycle spans
/// replicas of at least two shard committees, with 2PC phases in causal
/// order (begin ≤ first prepare ≤ first decide).
#[test]
fn cross_shard_lifecycle_spans_shards() {
    use ahl::simkit::Phase;
    use ahl::system::{run_system_report, SystemConfig, SystemWorkload};

    let committee_size = 3;
    let mut cfg = SystemConfig::new(2, committee_size);
    cfg.clients = 4;
    cfg.outstanding = 16;
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.batch_size = 20;
    let report = run_system_report(cfg);
    let rec = report.stats.recorder();

    // Collect every transaction whose 2PC chain opened (client-side
    // TwoPcBegin), then find one whose prepares landed on two shards.
    let begun: Vec<u64> = rec
        .all_events()
        .filter(|e| e.phase == Phase::TwoPcBegin)
        .map(|e| e.id)
        .collect();
    assert!(!begun.is_empty(), "no cross-shard transactions began");

    let shard_of = |node: usize| node / committee_size; // replicas only
    let mut found = false;
    for id in begun {
        let life = rec.lifecycle(id);
        let begin = life.iter().find(|e| e.phase == Phase::TwoPcBegin);
        let prepare = life.iter().find(|e| e.phase == Phase::TwoPcPrepare);
        let decide = life.iter().find(|e| e.phase == Phase::TwoPcDecide);
        let (Some(begin), Some(prepare), Some(decide)) = (begin, prepare, decide) else {
            continue;
        };
        let shards: std::collections::BTreeSet<usize> = life
            .iter()
            .filter(|e| matches!(e.phase, Phase::TwoPcPrepare | Phase::TwoPcDecide))
            .map(|e| shard_of(e.node))
            .collect();
        if shards.len() < 2 {
            continue;
        }
        assert!(begin.at <= prepare.at, "prepare before begin: {begin} vs {prepare}");
        assert!(prepare.at <= decide.at, "decide before prepare: {prepare} vs {decide}");
        found = true;
        break;
    }
    assert!(found, "no lifecycle spanned two shards with a full begin→prepare→decide chain");
}

#[test]
fn variants_differ_from_each_other() {
    // Sanity: the four variants are genuinely different protocols, not one
    // engine with cosmetic labels — same seed, different outcomes.
    let hl = bft_run(BftVariant::Hl, 9);
    let ahlr = bft_run(BftVariant::Ahlr, 9);
    assert_ne!(hl, ahlr);
}
