//! Independent-shard scale-out runs (paper §7.3, Figures 14 & 18).
//!
//! The paper's largest experiment runs Smallbank *without* the reference
//! committee — every transaction is single-shard — so shards proceed
//! independently and total throughput is the sum. We exploit exactly that
//! independence: each shard's committee simulation runs on its own OS
//! thread with a distinct seed, and the results are aggregated.

use ahl_consensus::harness::{
    run_shard_experiment, ClientMode, NetChoice, RunMetrics, ShardExperiment,
};
use ahl_consensus::pbft::{BftVariant, PbftConfig, ReplyPolicy};
use ahl_simkit::SimDuration;
use ahl_workload::{KvStoreWorkload, SmallBankWorkload};

/// Which benchmark each shard runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardBench {
    /// SmallBank sendPayment within the shard.
    SmallBank,
    /// KVStore single-update transactions.
    KvStore,
}

/// Configuration for a scale-out run.
#[derive(Clone, Debug)]
pub struct ScaleOutConfig {
    /// Number of shards.
    pub shards: usize,
    /// Committee size per shard.
    pub committee_size: usize,
    /// Consensus variant.
    pub variant: BftVariant,
    /// Testbed.
    pub net: NetChoice,
    /// Clients per shard (the paper: 4 per shard, closed loop ×128).
    pub clients_per_shard: usize,
    /// Outstanding requests per client.
    pub outstanding: usize,
    /// Benchmark.
    pub bench: ShardBench,
    /// Measured duration.
    pub duration: SimDuration,
    /// Warmup.
    pub warmup: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl ScaleOutConfig {
    /// Paper-style defaults.
    pub fn new(shards: usize, committee_size: usize) -> Self {
        ScaleOutConfig {
            shards,
            committee_size,
            variant: BftVariant::AhlPlus,
            net: NetChoice::Cluster,
            clients_per_shard: 4,
            outstanding: 128,
            bench: ShardBench::SmallBank,
            duration: SimDuration::from_secs(15),
            warmup: SimDuration::from_secs(5),
            seed: 42,
        }
    }
}

/// Aggregated scale-out result.
#[derive(Clone, Debug, Default)]
pub struct ScaleOutMetrics {
    /// Sum of shard throughputs (tps).
    pub total_tps: f64,
    /// Per-shard throughput.
    pub per_shard_tps: Vec<f64>,
    /// Total committed transactions.
    pub committed: u64,
    /// Total view changes.
    pub view_changes: u64,
}

fn one_shard(cfg: &ScaleOutConfig, shard: usize) -> RunMetrics {
    let mut pbft = PbftConfig::new(cfg.variant, cfg.committee_size);
    pbft.reply_policy = ReplyPolicy::IngestReplica;
    let bench = cfg.bench;
    let mut exp = ShardExperiment::new(
        pbft,
        Box::new(move |client| match bench {
            ShardBench::SmallBank => SmallBankWorkload::paper(100_000, 0.0).factory(client),
            ShardBench::KvStore => KvStoreWorkload::single_shard().factory(client),
        }),
    );
    if let ShardBench::SmallBank = cfg.bench {
        exp.genesis = SmallBankWorkload::paper(100_000, 0.0).genesis();
    }
    exp.net = cfg.net;
    exp.clients = cfg.clients_per_shard;
    exp.client_mode = ClientMode::Closed {
        outstanding: cfg.outstanding,
    };
    exp.duration = cfg.duration;
    exp.warmup = cfg.warmup;
    exp.seed = cfg.seed ^ ((shard as u64 + 1) << 32);
    run_shard_experiment(exp)
}

/// Run all shards (in parallel threads) and aggregate.
pub fn run_scale_out(cfg: &ScaleOutConfig) -> ScaleOutMetrics {
    let results: Vec<RunMetrics> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.shards)
            .map(|shard| scope.spawn(move || one_shard(cfg, shard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard simulation thread panicked"))
            .collect()
    });
    let per_shard_tps: Vec<f64> = results.iter().map(|r| r.tps).collect();
    ScaleOutMetrics {
        total_tps: per_shard_tps.iter().sum(),
        per_shard_tps,
        committed: results.iter().map(|r| r.committed).sum(),
        view_changes: results.iter().map(|r| r.view_changes).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(shards: usize) -> ScaleOutMetrics {
        let mut cfg = ScaleOutConfig::new(shards, 3);
        cfg.clients_per_shard = 2;
        cfg.outstanding = 32;
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        run_scale_out(&cfg)
    }

    #[test]
    fn throughput_scales_with_shards() {
        let one = quick(1);
        let four = quick(4);
        assert!(one.total_tps > 100.0, "one-shard tps {}", one.total_tps);
        // Linear-ish scaling: 4 shards ≥ 3× one shard.
        assert!(
            four.total_tps > 3.0 * one.total_tps,
            "1 shard {} vs 4 shards {}",
            one.total_tps,
            four.total_tps
        );
        assert_eq!(four.per_shard_tps.len(), 4);
    }
}
