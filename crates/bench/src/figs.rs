//! One function per table/figure of the paper's evaluation.

use ahl_consensus::clients::OpenLoopClient;
use ahl_consensus::common::stat;
use ahl_consensus::harness::{
    run_shard_experiment, ClientMode, NetChoice, RunMetrics, ShardExperiment,
};
use ahl_consensus::ibft::{build_ibft_group, IbftConfig};
use ahl_consensus::pbft::{BftVariant, PbftConfig};
use ahl_consensus::poet::{run_poet, PoetConfig};
use ahl_consensus::raft::{build_raft_group, RaftConfig};
use ahl_consensus::tendermint::{build_tm_group, TmConfig};
use ahl_core::{
    run_reshard, run_scale_out, run_system, RateControl, ReshardConfig, ReshardStrategy,
    ScaleOutConfig, ShardBench, SystemConfig, SystemWorkload,
};
use ahl_net::{gcp, ClusterNetwork, GcpNetwork};
use ahl_shard::{
    min_committee_size, paper_l_bits, reconfig_failure_prob, run_beacon, run_randhound_with,
    LnFact, Resilience, RhCosts,
};
use ahl_simkit::{QueueConfig, SimDuration, SimTime};
use ahl_tee::{CostModel, TeeOp};
use ahl_workload::KvStoreWorkload;

use crate::report::{f1, f3, parallel_map, sci, sparkline, Table};

/// Experiment scale: `Quick` for smoke runs, `Full` for the paper grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grids and durations (~seconds per figure).
    Quick,
    /// The paper's parameter grids (~minutes per figure).
    Full,
}

impl Scale {
    fn measure(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(8),
            Scale::Full => SimDuration::from_secs(20),
        }
    }

    fn warmup(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(3),
            Scale::Full => SimDuration::from_secs(5),
        }
    }

    fn pick<T: Clone>(self, quick: &[T], full: &[T]) -> Vec<T> {
        match self {
            Scale::Quick => quick.to_vec(),
            Scale::Full => full.to_vec(),
        }
    }
}

// ---------- shared cell runners ----------

/// Format a latency as milliseconds with one decimal.
fn lat_ms(d: SimDuration) -> String {
    f1(d.as_nanos() as f64 / 1e6)
}

/// Run one single-committee cell with the standard KVStore open-loop load.
fn bft_cell(variant: BftVariant, n: usize, net: NetChoice, byz: usize, scale: Scale, seed: u64) -> RunMetrics {
    let mut pbft = PbftConfig::new(variant, n);
    pbft.byzantine = byz;
    let mut exp = ShardExperiment::new(
        pbft,
        Box::new(|client| KvStoreWorkload::single_shard().factory(client)),
    );
    exp.net = net;
    exp.clients = 10;
    exp.client_mode = ClientMode::Open { rate: 300.0 };
    exp.duration = scale.measure();
    exp.warmup = scale.warmup();
    exp.seed = seed;
    run_shard_experiment(exp)
}

fn tm_cell(n: usize, clients: usize, rate: f64, scale: Scale) -> f64 {
    let cfg = TmConfig::new(n);
    let (mut sim, group) = build_tm_group(&cfg, Box::new(ClusterNetwork::new()), Some(1e9), 7);
    let stop = SimTime::ZERO + scale.warmup() + scale.measure();
    for c in 0..clients {
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_secs_f64(1.0 / rate),
            stop,
            KvStoreWorkload::single_shard().factory(c),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
    }
    sim.run_until(stop + SimDuration::from_secs(3));
    sim.stats()
        .rate_in_window(stat::COMMIT_SERIES, SimTime::ZERO + scale.warmup(), stop)
}

fn ibft_cell(n: usize, clients: usize, rate: f64, scale: Scale) -> f64 {
    let cfg = IbftConfig::new(n);
    let (mut sim, group) = build_ibft_group(&cfg, Box::new(ClusterNetwork::new()), Some(1e9), 7);
    let stop = SimTime::ZERO + scale.warmup() + scale.measure();
    for c in 0..clients {
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_secs_f64(1.0 / rate),
            stop,
            KvStoreWorkload::single_shard().factory(c),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
    }
    sim.run_until(stop + SimDuration::from_secs(3));
    sim.stats()
        .rate_in_window(stat::COMMIT_SERIES, SimTime::ZERO + scale.warmup(), stop)
}

fn raft_cell(n: usize, clients: usize, rate: f64, scale: Scale) -> f64 {
    let cfg = RaftConfig::new(n);
    let (mut sim, group) = build_raft_group(&cfg, Box::new(ClusterNetwork::new()), Some(1e9), 7);
    let stop = SimTime::ZERO + scale.warmup() + scale.measure();
    for c in 0..clients {
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_secs_f64(1.0 / rate),
            stop,
            KvStoreWorkload::single_shard().factory(c),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
    }
    sim.run_until(stop + SimDuration::from_secs(3));
    sim.stats()
        .rate_in_window(stat::COMMIT_SERIES, SimTime::ZERO + scale.warmup(), stop)
}

// ---------- tables ----------

/// Table 1: methodology comparison.
pub fn table1() {
    let mut t = Table::new(
        "Table 1: comparison with other sharded blockchains",
        &["system", "machines", "oversub", "txn model", "distributed txns"],
    );
    for row in ahl_core::table1() {
        t.row(vec![
            row.system.into(),
            row.machines.to_string(),
            format!("{}x", row.oversubscription),
            row.txn_model.into(),
            if row.distributed_txns { "yes" } else { "no" }.into(),
        ]);
    }
    t.print();
}

/// Table 2: enclave operation costs (the configured model, which the
/// simulator charges per operation) plus host-measured software costs of
/// the real primitives for reference.
pub fn table2() {
    let m = CostModel::default();
    let mut t = Table::new(
        "Table 2: runtime costs of enclave operations",
        &["operation", "model (us)", "paper (us)"],
    );
    let rows: Vec<(&str, TeeOp, f64)> = vec![
        ("ECDSA signing", TeeOp::EcdsaSign, 458.4),
        ("ECDSA verification", TeeOp::EcdsaVerify, 844.2),
        ("SHA256", TeeOp::Sha256, 2.5),
        ("AHL append", TeeOp::AhlAppend, 465.3),
        ("AHLR aggregation (f=8)", TeeOp::MessageAggregation { f: 8 }, 8031.2),
        ("RandomnessBeacon", TeeOp::RandomnessBeacon, 482.2),
        ("Enclave switch", TeeOp::EnclaveSwitch, 2.7),
    ];
    for (name, op, paper) in rows {
        t.row(vec![
            name.into(),
            f1(m.cost(op).as_nanos() as f64 / 1000.0),
            f1(paper),
        ]);
    }
    t.print();

    // Host-measured software implementations (sanity reference).
    let start = std::time::Instant::now();
    let mut h = ahl_crypto::Hash::ZERO;
    for i in 0..10_000u32 {
        h = ahl_crypto::sha256_parts(&[&h.0, &i.to_be_bytes()]);
    }
    let sha_us = start.elapsed().as_secs_f64() * 1e6 / 10_000.0;
    println!("(host software SHA-256 chain step: {sha_us:.2} us/op)");
}

/// Table 3: GCP inter-region RTT matrix.
pub fn table3() {
    let mut t = Table::new(
        "Table 3: latency (ms RTT) between GCP regions",
        &[&"zone"]
            .into_iter().copied()
            .chain(gcp::REGION_NAMES.iter().map(|s| &s[..s.len().min(10)]))
            .collect::<Vec<_>>(),
    );
    for (i, name) in gcp::REGION_NAMES.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for j in 0..gcp::NUM_REGIONS {
            row.push(f1(gcp::rtt_ms(i, j)));
        }
        t.row(row);
    }
    t.print();
}

// ---------- equations ----------

/// §5.2 committee sizing examples (Equation 1).
pub fn eq1() {
    let lf = LnFact::new(4096);
    let mut t = Table::new(
        "Equation 1: committee sizes for Pr[faulty] <= 2^-20 (N = 2400)",
        &["adversary", "PBFT rule n", "attested rule n"],
    );
    for s in [0.05, 0.10, 0.15, 0.20, 0.25, 0.30] {
        let third = min_committee_size(&lf, 2400, s, Resilience::OneThird, 20.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| ">2400".into());
        let half = min_committee_size(&lf, 2400, s, Resilience::OneHalf, 20.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| ">2400".into());
        t.row(vec![format!("{:.0}%", s * 100.0), third, half]);
    }
    t.print();
}

/// §5.3 epoch-transition exposure (Equation 2).
pub fn eq2() {
    let lf = LnFact::new(2048);
    let mut t = Table::new(
        "Equation 2: Pr(faulty) during epoch transition (N=1000, s=25%, n=80, k=10)",
        &["batch B", "batches", "Pr(faulty)"],
    );
    for b in [1usize, 2, 4, 6, 12, 36] {
        let transitioning: usize = 80 * 9 / 10;
        let batches = transitioning.div_ceil(b);
        let p = reconfig_failure_prob(&lf, 1000, 0.25, 80, 10, b, Resilience::OneHalf);
        t.row(vec![b.to_string(), batches.to_string(), sci(p)]);
    }
    t.print();
    println!("(paper: B = log(n) = 6 gives Pr(faulty) ~ 1e-5)");
}

/// Appendix B cross-shard probability (Equation 3).
pub fn eq3() {
    let mut t = Table::new(
        "Equation 3: probability a d-argument txn is cross-shard",
        &["d", "k=4", "k=10", "k=16", "k=36"],
    );
    for d in [2usize, 3, 4, 5] {
        t.row(vec![
            d.to_string(),
            f3(ahl_txn::crossshard::prob_cross_shard(d, 4)),
            f3(ahl_txn::crossshard::prob_cross_shard(d, 10)),
            f3(ahl_txn::crossshard::prob_cross_shard(d, 16)),
            f3(ahl_txn::crossshard::prob_cross_shard(d, 36)),
        ]);
    }
    t.print();
}

// ---------- figures ----------

/// Figure 2: BFT protocol comparison (HL vs Tendermint vs Quorum IBFT vs
/// Quorum Raft), tps vs N and tps vs #clients.
pub fn fig2(scale: Scale) {
    let ns = scale.pick(&[4usize, 7, 19], &[1, 7, 19, 31, 43, 55, 67]);
    let cells = parallel_map(ns.clone(), |&n| {
        let hl = bft_cell(BftVariant::Hl, n, NetChoice::Cluster, 0, scale, 2).tps;
        let tm = tm_cell(n, 10, 200.0, scale);
        let ibft = ibft_cell(n, 10, 200.0, scale);
        let raft = raft_cell(n, 10, 200.0, scale);
        (hl, tm, ibft, raft)
    });
    let mut t = Table::new(
        "Figure 2 (left): throughput vs N (10 clients, KVStore)",
        &["N", "HL (PBFT)", "Tendermint", "Quorum IBFT", "Quorum Raft"],
    );
    for (n, (hl, tm, ibft, raft)) in cells {
        t.row(vec![n.to_string(), f1(hl), f1(tm), f1(ibft), f1(raft)]);
    }
    t.print();

    let client_counts = scale.pick(&[1usize, 8, 32], &[1, 2, 4, 8, 16, 32, 64]);
    let cells = parallel_map(client_counts, |&c| {
        let mut pbft = PbftConfig::new(BftVariant::Hl, 4);
        pbft.byzantine = 0;
        let mut exp = ShardExperiment::new(
            pbft,
            Box::new(|client| KvStoreWorkload::single_shard().factory(client)),
        );
        exp.clients = c;
        // 50 req/s per client: throughput rises with clients to the
        // saturation plateau, as in the paper's right panel.
        exp.client_mode = ClientMode::Open { rate: 50.0 };
        exp.duration = scale.measure();
        exp.warmup = scale.warmup();
        let hl = run_shard_experiment(exp).tps;
        let tm = tm_cell(4, c, 50.0, scale);
        let ibft = ibft_cell(4, c, 50.0, scale);
        let raft = raft_cell(4, c, 50.0, scale);
        (hl, tm, ibft, raft)
    });
    let mut t = Table::new(
        "Figure 2 (right): throughput vs #clients (N = 4)",
        &["clients", "HL (PBFT)", "Tendermint", "Quorum IBFT", "Quorum Raft"],
    );
    for (c, (hl, tm, ibft, raft)) in cells {
        t.row(vec![c.to_string(), f1(hl), f1(tm), f1(ibft), f1(raft)]);
    }
    t.print();
}

const VARIANTS: [BftVariant; 4] = [
    BftVariant::Hl,
    BftVariant::Ahl,
    BftVariant::AhlPlus,
    BftVariant::Ahlr,
];

/// Figure 8: AHL variants on the local cluster — throughput vs N without
/// failures, and vs f with equivocating Byzantine nodes.
pub fn fig8(scale: Scale) {
    let ns = scale.pick(&[7usize, 19, 31], &[7, 19, 31, 43, 55, 67, 79]);
    let cells = parallel_map(ns, |&n| {
        VARIANTS.map(|v| bft_cell(v, n, NetChoice::Cluster, 0, scale, 3))
    });
    let mut t = Table::new(
        "Figure 8 (left): throughput vs N on cluster, no failures",
        &["N", "HL", "AHL", "AHL+", "AHLR", "HL VCs", "AHL+ drops"],
    );
    for (n, ms) in cells {
        t.row(vec![
            n.to_string(),
            f1(ms[0].tps),
            f1(ms[1].tps),
            f1(ms[2].tps),
            f1(ms[3].tps),
            ms[0].view_changes.to_string(),
            ms[2].dropped_consensus.to_string(),
        ]);
    }
    t.print();

    let fs = scale.pick(&[1usize, 5], &[1, 5, 10, 15, 20, 25]);
    let cells = parallel_map(fs, |&f| {
        VARIANTS.map(|v| {
            // For a given f: HL runs N = 3f+1, attested variants N = 2f+1.
            let n = v.fault_model().committee_for_faults(f);
            bft_cell(v, n, NetChoice::Cluster, f, scale, 4)
        })
    });
    let mut t = Table::new(
        "Figure 8 (right): throughput vs f with Byzantine equivocation",
        &["f", "HL", "AHL", "AHL+", "AHLR"],
    );
    for (f, ms) in cells {
        t.row(vec![
            f.to_string(),
            f1(ms[0].tps),
            f1(ms[1].tps),
            f1(ms[2].tps),
            f1(ms[3].tps),
        ]);
    }
    t.print();
}

/// Figure 9: the same sweep on GCP over 4 and 8 regions.
pub fn fig9(scale: Scale) {
    for regions in [4usize, 8] {
        let ns = scale.pick(&[7usize, 19], &[7, 19, 31, 43, 55, 67, 79]);
        let cells = parallel_map(ns, |&n| {
            VARIANTS.map(|v| bft_cell(v, n, NetChoice::Gcp { regions }, 0, scale, 5).tps)
        });
        let mut t = Table::new(
            &format!("Figure 9: throughput vs N on GCP, {regions} regions"),
            &["N", "HL", "AHL", "AHL+", "AHLR"],
        );
        for (n, tps) in cells {
            t.row(vec![n.to_string(), f1(tps[0]), f1(tps[1]), f1(tps[2]), f1(tps[3])]);
        }
        t.print();
    }
}

/// Figure 10: ablation of the three optimizations.
pub fn fig10(scale: Scale) {
    // Config ladder: HL → AHL → +opt1 → +opt1,2 (AHL+) → +opt1,2,3 (AHLR).
    fn ladder(n: usize) -> Vec<(&'static str, PbftConfig)> {
        let hl = PbftConfig::new(BftVariant::Hl, n);
        let ahl = PbftConfig::new(BftVariant::Ahl, n);
        let mut op1 = PbftConfig::new(BftVariant::Ahl, n);
        op1.split_queues = true;
        let op12 = PbftConfig::new(BftVariant::AhlPlus, n);
        let op123 = PbftConfig::new(BftVariant::Ahlr, n);
        vec![
            ("HL", hl),
            ("AHL", ahl),
            ("AHL+op1", op1),
            ("AHL+op1,2 (AHL+)", op12),
            ("AHL+op1,2,3 (AHLR)", op123),
        ]
    }

    for (label, n, byz) in [("no failures, N=19", 19usize, 0usize), ("f=5 Byzantine", 11, 5)] {
        let configs = ladder(n);
        let cells = parallel_map(configs, |(_, cfg)| {
            let mut cfg = cfg.clone();
            // Byzantine count only meaningful vs the variant's tolerance.
            cfg.byzantine = byz.min(cfg.f());
            let mut exp = ShardExperiment::new(
                cfg,
                Box::new(|client| KvStoreWorkload::single_shard().factory(client)),
            );
            exp.clients = 10;
            // Saturating load: the optimizations matter under stress.
            exp.client_mode = ClientMode::Open { rate: 600.0 };
            exp.duration = scale.measure();
            exp.warmup = scale.warmup();
            run_shard_experiment(exp).tps
        });
        let mut t = Table::new(
            &format!("Figure 10: effect of optimizations ({label})"),
            &["configuration", "tps"],
        );
        for ((name, _), tps) in cells {
            t.row(vec![name.into(), f1(tps)]);
        }
        t.print();
    }
}

/// Figure 11: committee size vs adversary, and shard-formation time
/// (our beacon vs RandHound) on cluster and GCP.
pub fn fig11(scale: Scale) {
    let lf = LnFact::new(4096);
    let mut t = Table::new(
        "Figure 11 (left): committee size n vs adversary (Pr <= 2^-20, N=2400)",
        &["% byzantine", "OmniLedger (1/3)", "Ours (1/2)"],
    );
    for pct in [5u32, 10, 15, 20, 25, 30] {
        let s = pct as f64 / 100.0;
        let ol = min_committee_size(&lf, 2400, s, Resilience::OneThird, 20.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| ">N".into());
        let ours = min_committee_size(&lf, 2400, s, Resilience::OneHalf, 20.0)
            .map(|n| n.to_string())
            .unwrap_or_else(|| ">N".into());
        t.row(vec![format!("{pct}%"), ol, ours]);
    }
    t.print();

    let ns = scale.pick(&[32usize, 128], &[32, 64, 128, 256, 512]);
    let cells = parallel_map(ns, |&n| {
        // Δ = 3x the measured max propagation of a 1 KB message. The paper
        // measured 2-4.5 s on the (8x oversubscribed) cluster and 5.9-15 s
        // on GCP, growing with N; interpolate within those measured ranges.
        let frac = ((n as f64).log2() - 5.0).clamp(0.0, 4.0) / 4.0;
        let cluster_delta = SimDuration::from_secs_f64(2.0 + 2.5 * frac);
        let gcp_delta = SimDuration::from_secs_f64(5.9 + (15.0 - 5.9) * frac);
        let ours_l = run_beacon(
            n,
            paper_l_bits(n),
            cluster_delta,
            Box::new(ClusterNetwork::new()),
            Some(1e9),
            9,
        )
        .completion;
        let rh_l = run_randhound_with(
            n,
            16,
            RhCosts::cluster(),
            Box::new(ClusterNetwork::new()),
            Some(1e9),
            9,
        )
        .completion;
        let ours_g = run_beacon(
            n,
            paper_l_bits(n),
            gcp_delta,
            Box::new(GcpNetwork::new(n, 8)),
            Some(300e6),
            9,
        )
        .completion;
        let rh_g = run_randhound_with(
            n,
            16,
            RhCosts::default(),
            Box::new(GcpNetwork::new(n, 8)),
            Some(300e6),
            9,
        )
        .completion;
        (ours_l, rh_l, ours_g, rh_g)
    });
    let mut t = Table::new(
        "Figure 11 (right): shard formation time (s)",
        &["N", "ours (cluster)", "RandHound (cluster)", "ours (GCP)", "RandHound (GCP)", "speedup GCP"],
    );
    for (n, (ol, rl, og, rg)) in cells {
        t.row(vec![
            n.to_string(),
            f3(ol.as_secs_f64()),
            f3(rl.as_secs_f64()),
            f3(og.as_secs_f64()),
            f3(rg.as_secs_f64()),
            format!("{:.1}x", rg.as_secs_f64() / og.as_secs_f64().max(1e-9)),
        ]);
    }
    t.print();
}

/// Figure 12: throughput during shard reconfiguration.
pub fn fig12(scale: Scale) {
    let sizes = scale.pick(&[9usize], &[9, 17, 33]);
    let mut t = Table::new(
        "Figure 12 (left): average throughput during resharding",
        &["n", "no reshard", "swap all", "swap log(n)"],
    );
    let cells = parallel_map(sizes, |&n| {
        [ReshardStrategy::None, ReshardStrategy::SwapAll, ReshardStrategy::SwapLog].map(|s| {
            let mut cfg = ReshardConfig::new(n, s);
            if scale == Scale::Quick {
                cfg.reshard_at = vec![SimDuration::from_secs(40)];
                // ≈1 GB of shard state: a ~10 s real transfer at 1 Gbps.
                cfg.state_pad_keys = 2_000;
                cfg.state_pad_bytes = 500_000;
                cfg.duration = SimDuration::from_secs(100);
                cfg.client_rate = 100.0;
                cfg.clients = 2;
            }
            run_reshard(&cfg)
        })
    });
    let mut series_for_9 = None;
    for (n, ms) in cells {
        t.row(vec![
            n.to_string(),
            f1(ms[0].avg_tps),
            f1(ms[1].avg_tps),
            f1(ms[2].avg_tps),
        ]);
        if n == 9 {
            series_for_9 = Some(ms);
        }
    }
    t.print();
    if let Some(ms) = series_for_9 {
        println!("Figure 12 (right): throughput over time, n = 9 (5 s buckets)");
        for (name, m) in ["none", "swap-all", "swap-log"].iter().zip(ms.iter()) {
            let vals: Vec<f64> = m.series.iter().map(|(_, v)| *v).collect();
            println!("  {name:>9} | {}", sparkline(&vals));
        }
        println!("  (real transfers: swap-all {} syncs / {:.2} GB verified / {} proof failures; swap-log {} syncs / {:.2} GB)",
            ms[1].state_syncs,
            ms[1].bytes_synced as f64 / 1e9,
            ms[1].proof_failures,
            ms[2].state_syncs,
            ms[2].bytes_synced as f64 / 1e9,
        );
    }
}

/// Figure 13: sharding with/without the reference committee; abort rate vs
/// Zipf skew.
pub fn fig13(scale: Scale) {
    let shard_counts = scale.pick(&[2usize, 4], &[2, 4, 6, 9, 12]);
    let n = 3; // f = 1 attested committees, as in the paper
    let cells = parallel_map(shard_counts, |&k| {
        let mut with_r = SystemConfig::new(k, n);
        with_r.clients = 4 * k;
        with_r.outstanding = if scale == Scale::Quick { 16 } else { 64 };
        with_r.workload = SystemWorkload::SmallBank { accounts: 20_000, theta: 0.0 };
        with_r.duration = scale.measure();
        with_r.warmup = scale.warmup();
        with_r.batch_size = 30;
        let m_with = run_system(with_r);

        let mut wo = ScaleOutConfig::new(k, n);
        wo.clients_per_shard = 4;
        wo.outstanding = if scale == Scale::Quick { 16 } else { 64 };
        wo.duration = scale.measure();
        wo.warmup = scale.warmup();
        let m_wo = run_scale_out(&wo);
        (m_with, m_wo)
    });
    let mut t = Table::new(
        "Figure 13 (left): Smallbank throughput on cluster (n = 3, f = 1)",
        &["shards", "N", "AHL+ w R (tps)", "AHL+ w/o R (tps)", "abort %", "p50 (ms)", "p99 (ms)"],
    );
    for (k, (with_r, wo)) in cells {
        t.row(vec![
            k.to_string(),
            (k * n).to_string(),
            f1(with_r.tps),
            f1(wo.total_tps),
            f1(100.0 * with_r.abort_rate),
            lat_ms(with_r.latency_p50),
            lat_ms(with_r.latency_p99),
        ]);
    }
    t.print();

    let thetas = scale.pick(&[0.0f64, 0.99, 1.49], &[0.0, 0.49, 0.99, 1.49, 1.99]);
    let cells = parallel_map(thetas, |&theta| {
        let mut cfg = SystemConfig::new(4, n);
        cfg.clients = 8;
        cfg.outstanding = 16;
        // A small hot account pool makes skew-induced conflicts visible.
        cfg.workload = SystemWorkload::SmallBank { accounts: 2_000, theta };
        cfg.duration = scale.measure();
        cfg.warmup = scale.warmup();
        cfg.batch_size = 30;
        run_system(cfg)
    });
    let mut t = Table::new(
        "Figure 13 (right): abort rate vs Zipf coefficient",
        &["zipf", "abort rate", "tps"],
    );
    for (theta, m) in cells {
        t.row(vec![format!("{theta:.2}"), f3(m.abort_rate), f1(m.tps)]);
    }
    t.print();
}

/// Figure 14: large-scale GCP sharding at 12.5% and 25% adversary.
pub fn fig14(scale: Scale) {
    let lf = LnFact::new(2048);
    let totals = scale.pick(&[162usize, 486], &[162, 324, 486, 648, 810, 972]);
    for (s, label) in [(0.125f64, "12.5%"), (0.25, "25%")] {
        let n = min_committee_size(&lf, 972, s, Resilience::OneHalf, 20.0)
            .expect("committee formable");
        let totals = totals.clone();
        let cells = parallel_map(totals, |&total| {
            let shards = total / n;
            if shards == 0 {
                return (0usize, 0.0);
            }
            let mut cfg = ScaleOutConfig::new(shards, n);
            cfg.net = NetChoice::Gcp { regions: 8 };
            cfg.clients_per_shard = 1;
            cfg.outstanding = 96;
            cfg.duration = scale.measure();
            cfg.warmup = scale.warmup();
            (shards, run_scale_out(&cfg).total_tps)
        });
        let mut t = Table::new(
            &format!("Figure 14: GCP sharding, {label} adversary (n = {n})"),
            &["N", "shards", "tps"],
        );
        for (total, (shards, tps)) in cells {
            t.row(vec![total.to_string(), shards.to_string(), f1(tps)]);
        }
        t.print();
    }
}

/// Figure 15: consensus latency vs N on cluster and GCP.
pub fn fig15(scale: Scale) {
    let ns = scale.pick(&[7usize, 19], &[7, 19, 31, 43, 55, 67, 79]);
    let cells = parallel_map(ns, |&n| {
        let cl: Vec<RunMetrics> = VARIANTS
            .iter()
            .map(|&v| bft_cell(v, n, NetChoice::Cluster, 0, scale, 6))
            .collect();
        let gc = bft_cell(BftVariant::AhlPlus, n, NetChoice::Gcp { regions: 8 }, 0, scale, 6)
            .latency_mean
            .as_secs_f64();
        (cl, gc)
    });
    let mut t = Table::new(
        "Figure 15: mean latency (s) vs N",
        &["N", "HL", "AHL", "AHL+", "AHLR", "AHL+ p50", "AHL+ p99", "AHL+ on GCP"],
    );
    for (n, (cl, gc)) in cells {
        t.row(vec![
            n.to_string(),
            f3(cl[0].latency_mean.as_secs_f64()),
            f3(cl[1].latency_mean.as_secs_f64()),
            f3(cl[2].latency_mean.as_secs_f64()),
            f3(cl[3].latency_mean.as_secs_f64()),
            f3(cl[2].latency_p50.as_secs_f64()),
            f3(cl[2].latency_p99.as_secs_f64()),
            f3(gc),
        ]);
    }
    t.print();
}

/// Figure 16: view changes, normal case and under Byzantine failures.
pub fn fig16(scale: Scale) {
    let ns = scale.pick(&[7usize, 19], &[7, 19, 31, 43, 55, 67, 79]);
    let cells = parallel_map(ns, |&n| {
        VARIANTS.map(|v| bft_cell(v, n, NetChoice::Cluster, 0, scale, 8).view_changes)
    });
    let mut t = Table::new(
        "Figure 16 (left): view changes, normal case",
        &["N", "HL", "AHL", "AHL+", "AHLR"],
    );
    for (n, vc) in cells {
        t.row(vec![
            n.to_string(),
            vc[0].to_string(),
            vc[1].to_string(),
            vc[2].to_string(),
            vc[3].to_string(),
        ]);
    }
    t.print();

    let fs = scale.pick(&[1usize, 5], &[1, 5, 10, 15, 20, 25]);
    let cells = parallel_map(fs, |&f| {
        VARIANTS.map(|v| {
            let n = v.fault_model().committee_for_faults(f);
            bft_cell(v, n, NetChoice::Cluster, f, scale, 8).view_changes
        })
    });
    let mut t = Table::new(
        "Figure 16 (right): view changes under Byzantine failures",
        &["f", "HL", "AHL", "AHL+", "AHLR"],
    );
    for (f, vc) in cells {
        t.row(vec![
            f.to_string(),
            vc[0].to_string(),
            vc[1].to_string(),
            vc[2].to_string(),
            vc[3].to_string(),
        ]);
    }
    t.print();
}

/// Figure 17: consensus vs execution CPU cost per block.
pub fn fig17(scale: Scale) {
    let ns = scale.pick(&[7usize, 19], &[7, 19, 31, 43, 55, 67, 79]);
    let cells = parallel_map(ns, |&n| {
        VARIANTS.map(|v| {
            let m = bft_cell(v, n, NetChoice::Cluster, 0, scale, 10);
            let blocks = m.blocks.max(1) as f64;
            // Total across replicas; normalize per block.
            (m.consensus_cpu_s / blocks, m.exec_cpu_s / blocks)
        })
    });
    let mut t = Table::new(
        "Figure 17: per-block CPU cost (s): consensus / execution",
        &["N", "HL", "AHL", "AHL+", "AHLR"],
    );
    for (n, cs) in cells {
        t.row(vec![
            n.to_string(),
            format!("{:.3}/{:.3}", cs[0].0, cs[0].1),
            format!("{:.3}/{:.3}", cs[1].0, cs[1].1),
            format!("{:.3}/{:.3}", cs[2].0, cs[2].1),
            format!("{:.3}/{:.3}", cs[3].0, cs[3].1),
        ]);
    }
    t.print();
}

/// Figure 18: sharding throughput, KVStore vs Smallbank.
pub fn fig18(scale: Scale) {
    let shard_counts = scale.pick(&[2usize, 4], &[2, 4, 6, 9, 12]);
    let cells = parallel_map(shard_counts, |&k| {
        [ShardBench::SmallBank, ShardBench::KvStore].map(|bench| {
            let mut cfg = ScaleOutConfig::new(k, 3);
            cfg.bench = bench;
            cfg.clients_per_shard = 4;
            cfg.outstanding = if scale == Scale::Quick { 16 } else { 64 };
            cfg.duration = scale.measure();
            cfg.warmup = scale.warmup();
            run_scale_out(&cfg).total_tps
        })
    });
    let mut t = Table::new(
        "Figure 18: sharded throughput, Smallbank vs KVStore (n = 3)",
        &["shards", "N", "Smallbank", "KVStore"],
    );
    for (k, tps) in cells {
        t.row(vec![k.to_string(), (k * 3).to_string(), f1(tps[0]), f1(tps[1])]);
    }
    t.print();
}

/// Figure 19: throughput vs #clients on GCP at two aggregate request rates.
pub fn fig19(scale: Scale) {
    let counts = scale.pick(&[1usize, 8, 32], &[1, 2, 4, 8, 16, 32, 64, 128]);
    for total_rate in [256.0f64, 1024.0] {
        let counts = counts.clone();
        let cells = parallel_map(counts, |&c| {
            ["HL", "AHL+", "AHLR"].map(|name| {
                let v = match name {
                    "HL" => BftVariant::Hl,
                    "AHL+" => BftVariant::AhlPlus,
                    _ => BftVariant::Ahlr,
                };
                let mut exp = ShardExperiment::new(
                    PbftConfig::new(v, 7),
                    Box::new(|client| KvStoreWorkload::single_shard().factory(client)),
                );
                exp.net = NetChoice::Gcp { regions: 4 };
                exp.clients = c;
                exp.client_mode = ClientMode::Open { rate: total_rate / c as f64 };
                exp.duration = scale.measure();
                exp.warmup = scale.warmup();
                run_shard_experiment(exp).tps
            })
        });
        let mut t = Table::new(
            &format!("Figure 19: tps vs #clients on GCP ({total_rate:.0} req/s total, N = 7)"),
            &["clients", "HL", "AHL+", "AHLR"],
        );
        for (c, tps) in cells {
            t.row(vec![c.to_string(), f1(tps[0]), f1(tps[1]), f1(tps[2])]);
        }
        t.print();
    }
}

/// Figure 20: throughput vs #clients on the cluster, Smallbank and KVStore.
pub fn fig20(scale: Scale) {
    let counts = scale.pick(&[1usize, 8, 32], &[1, 2, 4, 8, 16, 32, 64]);
    for (wl, label) in [(ShardBench::SmallBank, "Smallbank"), (ShardBench::KvStore, "KVStore")] {
        let counts = counts.clone();
        let cells = parallel_map(counts, |&c| {
            VARIANTS.map(|v| {
                let factory: Box<dyn Fn(usize) -> ahl_consensus::OpFactory> = match wl {
                    ShardBench::SmallBank => Box::new(|client| {
                        ahl_workload::SmallBankWorkload::paper(10_000, 0.0).factory(client)
                    }),
                    ShardBench::KvStore => {
                        Box::new(|client| KvStoreWorkload::single_shard().factory(client))
                    }
                };
                let mut exp = ShardExperiment::new(PbftConfig::new(v, 7), factory);
                exp.clients = c;
                exp.client_mode = ClientMode::Open { rate: 100.0 };
                exp.duration = scale.measure();
                exp.warmup = scale.warmup();
                if wl == ShardBench::SmallBank {
                    exp.genesis = ahl_workload::SmallBankWorkload::paper(10_000, 0.0).genesis();
                }
                run_shard_experiment(exp).tps
            })
        });
        let mut t = Table::new(
            &format!("Figure 20: tps vs #clients on cluster ({label}, N = 7)"),
            &["clients", "HL", "AHL", "AHL+", "AHLR"],
        );
        for (c, tps) in cells {
            t.row(vec![c.to_string(), f1(tps[0]), f1(tps[1]), f1(tps[2]), f1(tps[3])]);
        }
        t.print();
    }
}

/// Figure 21: PoET vs PoET+ throughput across block sizes and N.
pub fn fig21(scale: Scale) {
    poet_tables(scale, false);
}

/// Figure 22: PoET vs PoET+ stale block rate.
pub fn fig22(scale: Scale) {
    poet_tables(scale, true);
}

fn poet_tables(scale: Scale, stale: bool) {
    let ns = scale.pick(&[8usize, 32], &[2, 8, 32, 128]);
    let sizes: Vec<usize> = vec![2_000_000, 4_000_000, 8_000_000];
    let duration = match scale {
        Scale::Quick => SimDuration::from_secs(600),
        Scale::Full => SimDuration::from_secs(1800),
    };
    let mut inputs = Vec::new();
    for &n in &ns {
        for &size in &sizes {
            inputs.push((n, size));
        }
    }
    let cells = parallel_map(inputs, |&(n, size)| {
        let poet = run_poet(
            &PoetConfig::poet(n, size),
            Box::new(ClusterNetwork::poet_constrained()),
            Some(50e6),
            duration,
            13,
        );
        let plus = run_poet(
            &PoetConfig::poet_plus(n, size),
            Box::new(ClusterNetwork::poet_constrained()),
            Some(50e6),
            duration,
            13,
        );
        (poet, plus)
    });
    let title = if stale {
        "Figure 22: stale block rate (stale / total)"
    } else {
        "Figure 21: PoET vs PoET+ throughput (tps)"
    };
    let mut t = Table::new(title, &["N", "block", "PoET", "PoET+"]);
    for ((n, size), (poet, plus)) in cells {
        let (a, b) = if stale {
            (f3(poet.stale_rate), f3(plus.stale_rate))
        } else {
            (f1(poet.tps), f1(plus.tps))
        };
        t.row(vec![n.to_string(), format!("{}MB", size / 1_000_000), a, b]);
    }
    t.print();
}

// ---------- adversary + overload batteries (new-subsystem experiments) --

/// Byzantine adversary smoke: the scripted-attack matrix over all three
/// BFT protocols plus the cross-shard system under malicious replicas
/// *and* malicious 2PC clients, each cell watched by the global
/// [`ahl_consensus::SafetyChecker`]. Every within-bound cell is **process-fatal** on a
/// safety violation, and the over-threshold canary is process-fatal if
/// the checker does *not* fire — the battery proves itself live. Fixed
/// seeds keep every attack schedule reproducible in CI.
pub fn byzantine(scale: Scale) {
    use ahl_consensus::adversary::{Attack, SafetyChecker, Violation};
    use ahl_consensus::pbft::build_group;
    use ahl_ledger::{kvstore, Op, TxId};
    use ahl_simkit::UniformNetwork;

    let secs = match scale {
        Scale::Quick => 3,
        Scale::Full => 10,
    };
    let factory = || -> ahl_consensus::OpFactory {
        let mut i = 0u64;
        Box::new(move |_rng| {
            i += 1;
            Op::Direct { txid: TxId(i), op: kvstore::kv_write(&[i % 64], 16) }
        })
    };

    let mut t = Table::new(
        "Byzantine adversary matrix (f <= (n-1)/3 unless noted; fixed seeds)",
        &["protocol", "attack", "f", "tps", "commits seen", "violations", "verdict"],
    );
    let mut verify = |proto: &str,
                      attack: Attack,
                      f: usize,
                      over_bound: bool,
                      tps: f64,
                      checker: &SafetyChecker| {
        let violations = checker.violations();
        let forked = violations.iter().any(|v| matches!(v, Violation::ConflictingCommit { .. }));
        if over_bound {
            assert!(
                forked,
                "{proto}/{}: the over-threshold canary must fork — the checker is dead",
                attack.name()
            );
        } else {
            assert!(
                violations.is_empty(),
                "{proto}/{}: SAFETY VIOLATIONS: {violations:?}",
                attack.name()
            );
            assert!(checker.commit_records() > 0, "{proto}/{}: nothing observed", attack.name());
        }
        t.row(vec![
            proto.into(),
            attack.name().into(),
            if over_bound { format!("{f} (over!)") } else { f.to_string() },
            f1(tps),
            checker.commit_records().to_string(),
            violations.len().to_string(),
            if over_bound { "canary fired".into() } else { "safe".into() },
        ]);
    };

    // PBFT cells (+ the over-threshold canary last).
    for (attack, byz, over) in [
        (Attack::Equivocate, vec![0usize], false),
        (Attack::WithholdVotes, vec![3], false),
        (Attack::StaleReplay, vec![3], false),
        (Attack::BogusCheckpoint, vec![3], false),
        (Attack::Equivocate, vec![0, 3], true),
    ] {
        let checker = SafetyChecker::new();
        let mut cfg = PbftConfig::new(BftVariant::Hl, 4);
        cfg.byzantine = byz.len();
        let f = byz.len();
        cfg.byzantine_set = Some(byz);
        cfg.attack = attack;
        cfg.safety = Some(checker.clone());
        cfg.batch_size = 8;
        cfg.checkpoint_interval = 32;
        cfg.vc_timeout = SimDuration::from_millis(400);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], 2026);
        let stop = SimTime::ZERO + SimDuration::from_secs(secs);
        let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(3));
        let tps = sim.stats().counter(stat::TXN_COMMITTED) as f64 / secs as f64;
        verify("PBFT(HL)", attack, f, over, tps, &checker);
    }

    // Tendermint and IBFT cells.
    for attack in Attack::ALL {
        let checker = SafetyChecker::new();
        let mut cfg = TmConfig::new(4);
        cfg.byzantine = 1;
        cfg.attack = attack;
        cfg.safety = Some(checker.clone());
        cfg.block_period = SimDuration::from_millis(200);
        cfg.round_timeout = SimDuration::from_millis(800);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_tm_group(&cfg, net, Some(1e9), 2027);
        let stop = SimTime::ZERO + SimDuration::from_secs(secs.max(5));
        let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(3));
        let tps = sim.stats().counter(stat::TXN_COMMITTED) as f64 / secs.max(5) as f64;
        verify("Tendermint", attack, 1, false, tps, &checker);
    }
    for attack in Attack::ALL {
        let checker = SafetyChecker::new();
        let mut cfg = IbftConfig::new(4);
        cfg.byzantine = 1;
        cfg.attack = attack;
        cfg.safety = Some(checker.clone());
        cfg.block_period = SimDuration::from_millis(200);
        cfg.round_timeout = SimDuration::from_millis(800);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_ibft_group(&cfg, net, Some(1e9), 2028);
        let stop = SimTime::ZERO + SimDuration::from_secs(secs.max(5));
        let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(3));
        let tps = sim.stats().counter(stat::TXN_COMMITTED) as f64 / secs.max(5) as f64;
        verify("IBFT", attack, 1, false, tps, &checker);
    }
    t.print();

    // Cross-shard 2PC under Byzantine replicas in every committee plus
    // Byzantine client drivers: atomicity, conservation, exactly-once.
    let checker = SafetyChecker::new();
    let mut cfg = SystemConfig::new(3, 4);
    cfg.clients = 6;
    cfg.malicious_clients = 2;
    cfg.outstanding = 12;
    cfg.byzantine = 1;
    cfg.attack = Attack::WithholdVotes;
    cfg.safety = Some(checker.clone());
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.5 };
    cfg.duration = scale.measure();
    cfg.warmup = scale.warmup();
    cfg.batch_size = 20;
    let m = run_system(cfg);
    let mut t2 = Table::new(
        "Cross-shard 2PC under attack (3 shards x 4 + reference, 1 Byzantine replica each, 2 Byzantine clients)",
        &["tps", "committed", "abort rate", "cross-shard", "violations", "conserved drift"],
    );
    let initial: i64 = 2 * 1_000_000 * 1_000;
    let drift = m.final_balance.map(|b| (b - initial).abs()).unwrap_or(i64::MAX);
    assert!(
        checker.violations().is_empty(),
        "2PC SAFETY VIOLATIONS: {:?}",
        checker.violations()
    );
    assert!(m.committed > 0, "the attacked system must keep committing");
    let bound = 100 * (6 * 12) as i64;
    assert!(drift <= bound, "conservation violated under attack: drift {drift}");
    t2.row(vec![
        f1(m.tps),
        m.committed.to_string(),
        f3(m.abort_rate),
        f3(m.cross_shard_fraction),
        m.safety_violations.to_string(),
        drift.to_string(),
    ]);
    t2.print();
    println!("  every cell verified process-fatally; canary proved the checker live");
}

/// Overload sweep: fixed offered load (8 closed-loop cross-shard clients
/// × 64 outstanding ≈ 512 open transactions against 2 shards of 3), with
/// per-replica pool capacity swept from "effectively unbounded" down to a
/// small fraction of the offered load. Demonstrates that admission
/// control keeps the system live under overload: rejections engage and
/// grow, committed throughput degrades gracefully instead of deadlocking,
/// and balance conservation holds at every operating point.
pub fn overload(scale: Scale) {
    let caps: Vec<usize> =
        scale.pick(&[100_000usize, 256, 48], &[100_000, 1024, 256, 96, 48, 24]);
    let cells = parallel_map(caps, |&cap| {
        let mut cfg = SystemConfig::new(2, 3);
        cfg.clients = 8;
        cfg.outstanding = 64;
        cfg.workload = SystemWorkload::SmallBank { accounts: 2_000, theta: 0.0 };
        cfg.duration = scale.measure();
        cfg.warmup = scale.warmup();
        cfg.batch_size = 20;
        cfg.mempool = ahl_mempool::MempoolConfig::new(cap);
        run_system(cfg)
    });
    let baseline = cells.first().map(|(_, m)| m.tps).unwrap_or(0.0);
    let base_balance = cells.first().and_then(|(_, m)| m.final_balance);
    let mut t = Table::new(
        "Overload: offered load past pool capacity (2 shards x 3, 512 open txns)",
        &[
            "pool cap",
            "tps",
            "vs base",
            "rejected",
            "pool rej",
            "stalled",
            "lat (ms)",
            "p50",
            "p99",
            "p999",
            "conserved",
        ],
    );
    for (cap, m) in cells {
        let conserved = m.final_balance.is_some() && m.final_balance == base_balance;
        t.row(vec![
            if cap >= 100_000 { "unbounded".into() } else { cap.to_string() },
            f1(m.tps),
            f3(m.tps / baseline.max(1e-9)),
            m.rejected.to_string(),
            m.pool_rejections.to_string(),
            m.stalled.to_string(),
            lat_ms(m.latency_mean),
            lat_ms(m.latency_p50),
            lat_ms(m.latency_p99),
            lat_ms(m.latency_p999),
            if conserved { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();

    // Second axis: goodput vs *offered load* for both backpressure
    // policies against one fixed, deliberately small pool. Fixed backoff
    // keeps offering the configured window and eats rejections forever;
    // pool-aware AIMD halves its window per rejection and creeps back up,
    // converging onto what the pool admits — goodput stays comparable
    // while rejection churn collapses.
    let offered: Vec<usize> = scale.pick(&[16usize, 64], &[8, 16, 32, 64, 128]);
    let grid: Vec<(usize, RateControl)> = offered
        .iter()
        .flat_map(|&o| [(o, RateControl::Fixed), (o, RateControl::Aimd)])
        .collect();
    let cells = parallel_map(grid, |&(outstanding, rc)| {
        let mut cfg = SystemConfig::new(2, 3);
        cfg.clients = 8;
        cfg.outstanding = outstanding;
        cfg.workload = SystemWorkload::SmallBank { accounts: 2_000, theta: 0.0 };
        cfg.duration = scale.measure();
        cfg.warmup = scale.warmup();
        cfg.batch_size = 20;
        cfg.mempool = ahl_mempool::MempoolConfig::new(48);
        cfg.rate_control = rc;
        run_system(cfg)
    });
    let mut t = Table::new(
        "Overload: goodput vs offered load, fixed backoff vs pool-aware AIMD (pool cap 48)",
        &["open txns", "policy", "goodput tps", "rejected", "stalled", "lat (ms)", "p99", "conserved"],
    );
    let mut aimd_ok = true;
    let mut by_load: std::collections::HashMap<usize, (f64, f64, u64, u64)> =
        std::collections::HashMap::new();
    for ((outstanding, rc), m) in cells {
        let conserved = m.final_balance.is_some() && m.final_balance == base_balance;
        // Conservation is the strongest invariant each cell computes —
        // a violation must fail the process, not just print "NO".
        aimd_ok &= conserved;
        let e = by_load.entry(outstanding).or_default();
        match rc {
            RateControl::Fixed => {
                e.0 = m.tps;
                e.2 = m.rejected;
            }
            RateControl::Aimd => {
                e.1 = m.tps;
                e.3 = m.rejected;
            }
        }
        t.row(vec![
            (8 * outstanding).to_string(),
            format!("{rc:?}"),
            f1(m.tps),
            m.rejected.to_string(),
            m.stalled.to_string(),
            lat_ms(m.latency_mean),
            lat_ms(m.latency_p99),
            if conserved { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    for (load, (fixed_tps, aimd_tps, fixed_rej, aimd_rej)) in &by_load {
        // Where overload actually bites (rejections under fixed backoff),
        // AIMD must not lose meaningful goodput and must cut rejections
        // (deep overload typically *gains* goodput: less retry churn).
        if *fixed_rej > 100 {
            aimd_ok &= *aimd_tps > 0.75 * fixed_tps;
            aimd_ok &= *aimd_rej * 2 < *fixed_rej;
            println!(
                "  aimd-vs-fixed @ {} open txns: goodput {:.1} vs {:.1} tps, rejected {} vs {}",
                8 * load, aimd_tps, fixed_tps, aimd_rej, fixed_rej
            );
        }
    }
    assert!(aimd_ok, "overload: AIMD lost goodput or failed to cut rejections — see table");
}

// ---------- state-sync sweep (store-subsystem experiment) ----------

/// Transfer mode of one `statesync` cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SyncMode {
    /// Diff sync disabled: the restarted replica re-fetches every chunk.
    Full,
    /// Diff sync enabled; a churn client rewrites `churn_keys` distinct
    /// bulk-state keys while the replica is down, so the diff covers about
    /// that many chunks (plus the account chunks the payment traffic
    /// touches) — the transfer is O(changed keys), not O(state).
    Diff {
        churn_keys: usize,
    },
}

impl SyncMode {
    fn label(self) -> String {
        match self {
            SyncMode::Full => "full".into(),
            SyncMode::Diff { churn_keys } => format!("diff/{churn_keys}"),
        }
    }
}

/// One `statesync` cell: a single AHL+ committee under steady load; one
/// replica crashes at t = 20 s, stays dark until t = 36 s (twice the
/// checkpoint interval — its block tail ages out of peers' retention), and
/// restarts from its durable checkpoint. Recovery runs through the
/// certificate-anchored chunk protocol: a full transfer, or — when diff
/// sync is on and peers still retain the crashed node's last certified
/// root in their snapshot windows — only the chunks that changed while it
/// was away. The cell reports how much it transferred, how long recovery
/// took, and whether it rejoined with intact state.
pub(crate) struct StatesyncCell {
    pub(crate) syncs: u64,
    pub(crate) diff_syncs: u64,
    pub(crate) chunks_served: u64,
    pub(crate) gb_synced: f64,
    pub(crate) proof_failures: u64,
    pub(crate) sync_secs: f64,
    pub(crate) caught_up: bool,
    pub(crate) balance_ok: bool,
    pub(crate) tps: f64,
}

pub(crate) fn statesync_cell(
    pad_keys: usize,
    pad_bytes: u64,
    chunk_target: usize,
    mode: SyncMode,
    seed: u64,
) -> StatesyncCell {
    use ahl_consensus::common::{CryptoMode, OpFactory};
    use ahl_consensus::harness::ControlScript;
    use ahl_consensus::pbft::{build_group, PbftMsg, Replica};
    use ahl_ledger::{Mutation, Op, StateOp, TxId, Value};
    use ahl_workload::SmallBankWorkload;

    // Few accounts: payment traffic dirties a handful of chunks, so the
    // incremental transfer is dominated by the *churned* bulk state — the
    // quantity the diff axis controls.
    const ACCOUNTS: usize = 4;
    let n = 5;
    let mut pbft = PbftConfig::new(BftVariant::AhlPlus, n);
    pbft.crypto = CryptoMode::Real;
    pbft.batch_size = 32;
    pbft.batch_timeout = SimDuration::from_millis(10);
    // ≈8 s between checkpoints at this block rate. The crashed replica is
    // down for two intervals, so its tail is gone and recovery must be
    // chunked; the 8-snapshot retention window still covers its durable
    // root, so diff mode finds an anchor.
    pbft.checkpoint_interval = 800;
    pbft.sync_chunk_target = chunk_target;
    pbft.diff_sync = !matches!(mode, SyncMode::Full);

    let mut genesis = SmallBankWorkload::paper(ACCOUNTS, 0.0).genesis();
    let expected_balance: i64 = genesis
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    for i in 0..pad_keys {
        genesis.push((format!("blob_{i}"), Value::Opaque { size: pad_bytes, tag: i as u64 }));
    }

    let (mut sim, group) =
        build_group(&pbft, Box::new(ClusterNetwork::new()), Some(1e9), &genesis, seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(60);
    for c in 0..2 {
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_millis(5),
            stop,
            SmallBankWorkload::paper(ACCOUNTS, 0.0).factory(c),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
    }
    // Bulk-state churn: rewrite `churn_keys` distinct blob keys round-robin
    // (20 writes/s — every key in the set is touched during the 16 s the
    // replica is down, and no key outside it).
    let churn_keys = match mode {
        SyncMode::Full => 4,
        SyncMode::Diff { churn_keys } => churn_keys.clamp(1, pad_keys),
    };
    let mut i = 0u64;
    let churn: OpFactory = Box::new(move |_rng| {
        i += 1;
        Op::Direct {
            txid: TxId(3_000_000_000 + i),
            op: StateOp {
                conditions: vec![],
                mutations: vec![(
                    format!("blob_{}", i % churn_keys as u64),
                    Mutation::Set(Value::Opaque { size: pad_bytes, tag: 1 << 32 | i }),
                )],
            },
        }
    });
    let churn_client =
        OpenLoopClient::new(group.clone(), SimDuration::from_millis(50), stop, churn);
    sim.add_actor(Box::new(churn_client), QueueConfig::unbounded());
    // Crash at 20 s (durable checkpoint ≈ the 16 s certificate), dark for
    // two checkpoint intervals, restart at 36 s.
    let crashed = group[3];
    let script = ControlScript::new(vec![
        (SimDuration::from_secs(20), crashed, PbftMsg::Crash),
        (SimDuration::from_secs(36), crashed, PbftMsg::Restart),
    ]);
    sim.add_actor(Box::new(script), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(15));

    let replica = |id: usize| {
        sim.actor(id)
            .as_any()
            .and_then(|a| a.downcast_ref::<Replica>())
            .expect("replica actor")
    };
    let restarted = replica(crashed);
    let max_exec = group.iter().map(|&id| replica(id).exec_seq()).max().unwrap_or(0);
    let balance: i64 = restarted
        .state()
        .smt()
        .view()
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    let stats = sim.stats();
    StatesyncCell {
        syncs: stats.counter(stat::SYNC_COMPLETED),
        diff_syncs: stats.counter(stat::SYNC_DIFFS),
        chunks_served: stats.counter(stat::SYNC_CHUNKS_SERVED),
        gb_synced: stats.counter(stat::SYNC_BYTES) as f64 / 1e9,
        proof_failures: stats.counter(stat::SYNC_PROOF_FAILURES),
        sync_secs: stats
            .histogram(stat::SYNC_DURATION)
            .map(|h| h.mean().as_secs_f64())
            .unwrap_or(0.0),
        caught_up: restarted.exec_seq() + 16 >= max_exec && max_exec > 0,
        balance_ok: balance == expected_balance,
        tps: stats.rate_in_window(stat::COMMIT_SERIES, SimTime::ZERO, stop),
    }
}

/// State-sync sweep: state size × chunk size × transfer mode. One replica
/// of a 5-node AHL+ committee crashes at t = 20 s, restarts at t = 36 s,
/// and must recover through the certificate-anchored chunk protocol while
/// the committee keeps committing. Every cell must show zero proof
/// failures and a conserved ledger. The full-mode cells expose the
/// chunk-size trade-off (fewer, larger chunks amortize round trips;
/// smaller chunks retransmit less on loss); the diff-mode cells show
/// incremental sync transferring O(changed keys): with little churn while
/// the replica was down, the transfer is a small fraction of the state,
/// and it grows with the churned-key count — never past the full
/// transfer.
pub fn statesync(scale: Scale) {
    let states: Vec<(usize, u64)> = scale.pick(
        &[(500usize, 200_000u64), (1_000, 500_000)],
        &[(500, 200_000), (1_000, 500_000), (2_000, 1_000_000)],
    );
    let chunk_targets: Vec<usize> = scale.pick(&[16usize, 256], &[16, 128, 1024]);
    let diff_chunk = chunk_targets.iter().copied().min().expect("non-empty");
    let mut grid: Vec<(usize, u64, usize, SyncMode)> = states
        .iter()
        .flat_map(|&(k, b)| {
            chunk_targets.iter().map(move |&c| (k, b, c, SyncMode::Full))
        })
        .collect();
    for &(k, b) in &states {
        grid.push((k, b, diff_chunk, SyncMode::Diff { churn_keys: 4 }));
        grid.push((k, b, diff_chunk, SyncMode::Diff { churn_keys: k / 2 }));
    }
    let cells = parallel_map(grid.clone(), |&(keys, bytes, chunk, mode)| {
        statesync_cell(keys, bytes, chunk, mode, 42)
    });
    let mut t = Table::new(
        "State sync: crashed replica recovery via cert + verified chunks (n = 5, down 16 s)",
        &[
            "state",
            "chunk tgt",
            "mode",
            "syncs",
            "diff",
            "chunks",
            "GB synced",
            "proof fails",
            "sync (s)",
            "tps",
            "caught up",
            "conserved",
        ],
    );
    let mut all_ok = true;
    let mut by_cell: std::collections::HashMap<(usize, usize, String), f64> =
        std::collections::HashMap::new();
    for ((keys, bytes, chunk, mode), m) in &cells {
        all_ok &= m.caught_up && m.balance_ok && m.proof_failures == 0 && m.syncs >= 1;
        if matches!(mode, SyncMode::Diff { .. }) {
            all_ok &= m.diff_syncs >= 1;
        }
        by_cell.insert((*keys, *chunk, mode.label()), m.gb_synced);
        t.row(vec![
            format!("{:.2}GB", *keys as f64 * *bytes as f64 / 1e9),
            chunk.to_string(),
            mode.label(),
            m.syncs.to_string(),
            m.diff_syncs.to_string(),
            m.chunks_served.to_string(),
            f3(m.gb_synced),
            m.proof_failures.to_string(),
            f3(m.sync_secs),
            f1(m.tps),
            if m.caught_up { "yes".into() } else { "NO".into() },
            if m.balance_ok { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    // Diff sync must transfer O(changed keys): with only a few churned
    // keys, well under half of the matching full transfer; and the diff
    // volume grows with churn but never exceeds full.
    for &(keys, _) in &states {
        let full = by_cell[&(keys, diff_chunk, "full".to_string())];
        let low = by_cell[&(keys, diff_chunk, format!("diff/{}", 4))];
        let high = by_cell[&(keys, diff_chunk, format!("diff/{}", keys / 2))];
        all_ok &= low * 2.0 < full;
        all_ok &= low <= high && high <= full * 1.05;
        println!(
            "  diff-vs-full @ {keys} keys: full {:.3} GB, diff/4 {:.3} GB, diff/{} {:.3} GB",
            full,
            low,
            keys / 2,
            high
        );
    }
    // The CI smoke run relies on this: a cell that fails to recover, loses
    // funds, sees a proof failure, or whose diff transfer is not
    // O(changed keys) must fail the process, not just print.
    assert!(all_ok, "statesync: some cell failed recovery/verification — see table above");
}

// ---------- crash-kill recovery smoke (wal-subsystem experiment) ----------

pub(crate) struct RecoveryCell {
    pub(crate) io_crashes: u64,
    pub(crate) wal_batches: u64,
    pub(crate) checkpoints: u64,
    pub(crate) pages_written: u64,
    pub(crate) pages_shared: u64,
    pub(crate) replayed: u64,
    pub(crate) diff_syncs: u64,
    pub(crate) proof_failures: u64,
    pub(crate) replay_mismatches: u64,
    pub(crate) committed: u64,
    pub(crate) recovered: bool,
    pub(crate) conserved: bool,
}

/// One `recovery` cell: a 5-node AHL+ committee journaling every executed
/// batch to a real per-node WAL and persisting certified checkpoints as
/// page-backed snapshots, with a SIGKILL-style crash injected at write
/// site `kill_site` (`None` = a scripted whole-node crash instead). All
/// five nodes are restarted mid-run and must recover by *reopening their
/// node directories* — manifest, WAL-tail replay, then (diff) sync.
pub(crate) fn recovery_cell(kill_site: Option<u64>, seed: u64) -> RecoveryCell {
    use ahl_consensus::common::CryptoMode;
    use ahl_consensus::harness::ControlScript;
    use ahl_consensus::pbft::{build_group, PbftMsg, Replica};
    use ahl_ledger::Value;
    use ahl_wal::TempDir;
    use ahl_workload::SmallBankWorkload;

    const ACCOUNTS: usize = 8;
    let dir = TempDir::new("recovery-exp");
    let n = 5;
    let mut pbft = PbftConfig::new(BftVariant::AhlPlus, n);
    pbft.crypto = CryptoMode::Real;
    pbft.batch_size = 16;
    pbft.batch_timeout = SimDuration::from_millis(5);
    pbft.checkpoint_interval = 100;
    pbft.sync_chunk_target = 64;
    pbft.data_dir = Some(dir.path().to_path_buf());
    if let Some(site) = kill_site {
        pbft.wal.kill.arm(site);
    }
    let mut genesis = SmallBankWorkload::paper(ACCOUNTS, 0.0).genesis();
    let expected_balance: i64 = genesis
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    for i in 0..120 {
        genesis.push((format!("blob_{i}"), Value::Opaque { size: 40_000, tag: i as u64 }));
    }
    let (mut sim, group) =
        build_group(&pbft, Box::new(ClusterNetwork::new()), Some(1e9), &genesis, seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(8);
    let client = OpenLoopClient::new(
        group.clone(),
        SimDuration::from_millis(2),
        stop,
        SmallBankWorkload::paper(ACCOUNTS, 0.0).factory(0),
    );
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    let mut schedule: Vec<(SimDuration, usize, PbftMsg)> = Vec::new();
    if kill_site.is_none() {
        // No injected I/O crash: kill one node the scripted way instead.
        schedule.push((SimDuration::from_secs(2), group[3], PbftMsg::Crash));
    }
    // Restart everyone at t = 5 s: whichever node crashed (injected or
    // scripted) recovers from its reopened directory; healthy nodes
    // reopen theirs too.
    for &id in &group {
        schedule.push((SimDuration::from_secs(5), id, PbftMsg::Restart));
    }
    sim.add_actor(Box::new(ControlScript::new(schedule)), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(4));

    let replica = |id: usize| {
        sim.actor(id)
            .as_any()
            .and_then(|a| a.downcast_ref::<Replica>())
            .expect("replica actor")
    };
    let max_exec = group.iter().map(|&id| replica(id).exec_seq()).max().unwrap_or(0);
    let top: Vec<&Replica> =
        group.iter().map(|&id| replica(id)).filter(|r| r.exec_seq() == max_exec).collect();
    let digest_agree = top
        .iter()
        .all(|r| r.state().state_digest() == top[0].state().state_digest());
    let conserved = top.iter().all(|r| {
        let balance: i64 = r
            .state()
            .smt()
            .view()
            .iter()
            .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
            .filter_map(|(_, v)| v.as_int())
            .sum();
        balance == expected_balance
    });
    let stats = sim.stats();
    RecoveryCell {
        io_crashes: stats.counter(stat::WAL_IO_CRASHES),
        wal_batches: stats.counter(stat::WAL_BATCHES),
        checkpoints: stats.counter(stat::WAL_CHECKPOINTS),
        pages_written: stats.counter(stat::WAL_PAGES_WRITTEN),
        pages_shared: stats.counter(stat::WAL_PAGES_SHARED),
        replayed: stats.counter(stat::WAL_REPLAYED),
        diff_syncs: stats.counter(stat::SYNC_DIFFS),
        proof_failures: stats.counter(stat::SYNC_PROOF_FAILURES),
        replay_mismatches: stats.counter(stat::WAL_REPLAY_MISMATCHES),
        committed: stats.counter(stat::TXN_COMMITTED),
        recovered: max_exec > 0 && top.len() >= 2 && digest_agree,
        conserved,
    }
}

/// Crash-kill recovery smoke: real on-disk WAL + page-store persistence
/// under a live committee, with crashes injected at sampled durable-write
/// sites (plus one scripted whole-node crash). Every cell must recover to
/// agreeing certified state with zero proof failures and zero replay
/// mismatches — process-fatally, which is what the CI recovery job runs.
pub fn recovery(scale: Scale) {
    let sites: Vec<Option<u64>> = scale.pick(
        &[None, Some(120)],
        &[None, Some(0), Some(120), Some(800), Some(2500)],
    );
    let cells = parallel_map(sites, |&site| recovery_cell(site, 42));
    let mut t = Table::new(
        "Crash-kill recovery: per-node WAL + page checkpoints, restart-from-disk (n = 5)",
        &[
            "kill",
            "io crashes",
            "wal batches",
            "ckpts",
            "pages w",
            "pages shared",
            "replayed",
            "diffs",
            "proof fails",
            "recovered",
            "conserved",
        ],
    );
    let mut all_ok = true;
    for (site, m) in &cells {
        let label = match site {
            None => "scripted".to_string(),
            Some(s) => format!("site {s}"),
        };
        all_ok &= m.recovered && m.conserved;
        all_ok &= m.proof_failures == 0 && m.replay_mismatches == 0;
        all_ok &= m.wal_batches > 0 && m.checkpoints > 0 && m.pages_shared > 0;
        all_ok &= m.replayed > 0; // recovery really went through the WAL
        all_ok &= m.committed > 0;
        if site.is_some() {
            all_ok &= m.io_crashes == 1;
        }
        t.row(vec![
            label,
            m.io_crashes.to_string(),
            m.wal_batches.to_string(),
            m.checkpoints.to_string(),
            m.pages_written.to_string(),
            m.pages_shared.to_string(),
            m.replayed.to_string(),
            m.diff_syncs.to_string(),
            m.proof_failures.to_string(),
            if m.recovered { "yes".into() } else { "NO".into() },
            if m.conserved { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();
    assert!(all_ok, "recovery: some cell failed to recover cleanly — see table above");
}

/// `parexec`: the `exec_workers` sweep. Runs the same small sharded
/// system at several worker counts and verifies the engine's contract
/// end-to-end: every logical metric (commits, aborts, latency, the
/// conservation audit, safety/liveness counts) must be identical in every
/// cell — worker threads change host wall-clock only, never simulated
/// outcomes. The printed host-time column is where the speedup shows up.
pub fn parexec(scale: Scale) {
    let workers = scale.pick(&[1usize, 4], &[1, 2, 4, 8]);
    let make = move || {
        let mut cfg = SystemConfig::new(2, 4);
        cfg.workload = SystemWorkload::SmallBank { accounts: 5_000, theta: 0.0 };
        cfg.clients = 4;
        cfg.outstanding = 32;
        cfg.duration = match scale {
            Scale::Quick => SimDuration::from_secs(4),
            Scale::Full => SimDuration::from_secs(12),
        };
        cfg.warmup = SimDuration::from_secs(1);
        cfg.seed = 11;
        cfg
    };
    let mut rows = Vec::new();
    let mut host = Vec::new();
    for &w in &workers {
        let started = std::time::Instant::now();
        let mut cells = ahl_core::run_exec_sweep(make, &[w]);
        host.push(started.elapsed().as_secs_f64());
        rows.push(cells.remove(0));
    }
    let mut t = Table::new(
        "parexec: exec_workers sweep (identical results, host time varies)",
        &["workers", "tps", "committed", "aborted", "p50 lat", "p99 lat", "host s"],
    );
    for (row, h) in rows.iter().zip(&host) {
        t.row(vec![
            row.workers.to_string(),
            f1(row.metrics.tps),
            row.metrics.committed.to_string(),
            row.metrics.aborted.to_string(),
            lat_ms(row.metrics.latency_p50),
            lat_ms(row.metrics.latency_p99),
            format!("{h:.2}"),
        ]);
    }
    t.print();
    assert!(rows[0].metrics.committed > 0, "parexec sweep committed nothing");
    assert!(
        ahl_core::sweep_cells_identical(&rows),
        "exec_workers leaked into simulated results — determinism broken"
    );
    println!("  all {} cells byte-identical in logical metrics ✓", rows.len());
}

// ---------- bounded-disk soak (storage-subsystem experiment) ----------

/// Knobs for one [`soak_cell`] run. Everything is deterministic: the key
/// sequence, the values, the kill site, and the working set all derive
/// from the parameters, so a cell is byte-reproducible.
pub(crate) struct SoakParams {
    /// Size of the live key set (steady state).
    pub(crate) live_keys: u64,
    /// Churn rounds; each round ends in a durable checkpoint.
    pub(crate) rounds: u64,
    /// Keys overwritten per round (a sliding window over the live set).
    pub(crate) churn_per_round: u64,
    /// Payload bytes per value (leaf page weight).
    pub(crate) value_bytes: usize,
    /// Round at which a crash is injected *inside* a forced GC pass,
    /// followed by a reopen-and-continue restart.
    pub(crate) kill_round: u64,
    /// Byte budget for the lazy page cache at reopen.
    pub(crate) cache_bytes: u64,
    /// Keys read through the lazy snapshot after the final reopen.
    pub(crate) working_set: u64,
}

impl SoakParams {
    pub(crate) fn for_scale(scale: Scale) -> SoakParams {
        match scale {
            Scale::Quick => SoakParams {
                live_keys: 2_000,
                rounds: 12,
                churn_per_round: 500,
                value_bytes: 64,
                kill_round: 8,
                cache_bytes: 64 << 10,
                working_set: 300,
            },
            Scale::Full => SoakParams {
                live_keys: 50_000,
                rounds: 100,
                churn_per_round: 20_000,
                value_bytes: 256,
                kill_round: 60,
                cache_bytes: 1 << 20,
                working_set: 2_000,
            },
        }
    }
}

pub(crate) struct SoakCell {
    pub(crate) keys_churned: u64,
    pub(crate) bytes_churned: u64,
    pub(crate) peak_disk_bytes: u64,
    pub(crate) final_disk_bytes: u64,
    pub(crate) disk_cap_bytes: u64,
    pub(crate) gc: ahl_wal::GcStats,
    pub(crate) retention_unlinked: u64,
    pub(crate) retention_bytes: u64,
    pub(crate) recovered_mid_gc: bool,
    pub(crate) reopen_indexed: u64,
    pub(crate) reopen_scanned: u64,
    pub(crate) lazy_misses: u64,
    pub(crate) lazy_hits: u64,
    pub(crate) cache_resident_bytes: u64,
    pub(crate) cache_evictions: u64,
    pub(crate) final_page_count: u64,
    pub(crate) reads_ok: bool,
}

/// One bounded-disk soak cell: sustained overwrite churn against a real
/// node directory, a durable checkpoint (pages → sync → manifest → WAL
/// compaction + retention → page GC) every round, one SIGKILL-style crash
/// injected *mid-GC* with a reopen-and-continue restart, and a final
/// cold reopen whose reads go through the lazy, byte-bounded page cache
/// instead of materializing the tree.
pub(crate) fn soak_cell(p: &SoakParams) -> SoakCell {
    use ahl_ledger::persist::open_snapshot_lazy;
    use ahl_ledger::{StateSidecar, Value};
    use ahl_store::SparseMerkleTree;
    use ahl_wal::{open_node_dir, write_manifest, GcStats, Manifest, TempDir, WalConfig, WalStats};

    let key = |i: u64| format!("soak-key-{i:08}");
    // Deterministic value of key `i` as of round `r` (distinct per round,
    // so every overwrite really deadens the previous leaf page).
    let val = |r: u64, i: u64| -> Value {
        let h = ahl_crypto::sha256_parts(&[&r.to_be_bytes()[..], &i.to_be_bytes()[..]]);
        let mut b = vec![0u8; p.value_bytes];
        for (dst, src) in b.iter_mut().zip(h.0.iter().cycle()) {
            *dst = *src;
        }
        Value::Bytes(b)
    };
    // Round `r` overwrites the churn-sized cyclic window starting at
    // `r * churn` — the last round that touched key `i` is therefore
    // recomputable, which is what the read-back verification needs.
    let touched = |r: u64, i: u64| {
        (i + p.live_keys - (r * p.churn_per_round) % p.live_keys) % p.live_keys
            < p.churn_per_round
    };
    let last_round = |i: u64| (1..=p.rounds).rev().find(|&r| touched(r, i)).unwrap_or(0);

    // Rough on-disk weight of one live key (leaf frame + its share of
    // branch frames + framing overhead) — sizes the segment/GC/cap knobs
    // relative to the live set instead of hard-coding byte counts.
    let per_key = p.value_bytes as u64 + 240;
    let live_est = p.live_keys * per_key;
    let cfg = WalConfig {
        segment_bytes: (live_est / 8).max(32 << 10),
        gc_trigger_bytes: live_est * 2,
        gc_live_frac: 0.5,
        retain_wal_segments: 1,
        ..WalConfig::default()
    };
    // The bounded-disk acceptance cap: trigger level plus the churn that
    // can land before the next checkpoint-driven collection.
    let disk_cap = live_est * 8;

    let dir = TempDir::new("soak-exp");
    let mut node = open_node_dir(dir.path(), &cfg).expect("open node dir");
    let mut tree: SparseMerkleTree<Value> = SparseMerkleTree::new();
    for i in 0..p.live_keys {
        tree.insert(&key(i), val(0, i));
    }

    let mut keys_churned = 0u64;
    let mut bytes_churned = 0u64;
    let mut peak_disk = 0u64;
    let mut recovered_mid_gc = false;
    // GC totals and WAL retention stats reset when the directory reopens
    // mid-run, so accumulate across generations.
    let mut gc_acc = GcStats::default();
    let mut ret_acc = WalStats::default();

    for r in 1..=p.rounds {
        for j in 0..p.churn_per_round {
            let i = ((r * p.churn_per_round) % p.live_keys + j) % p.live_keys;
            tree.insert(&key(i), val(r, i));
            keys_churned += 1;
            node.wal.append(format!("churn r{r} j{j}").into_bytes());
        }
        node.wal.commit().expect("wal commit");
        let stats = node.pages.persist_tree(&tree).expect("persist");
        bytes_churned += stats.bytes_written;
        node.pages.sync().expect("page sync");
        let root = tree.root_hash();
        write_manifest(dir.path(), &Manifest { seq: r, root, meta: vec![] }, &cfg.kill)
            .expect("manifest");
        // Space reclamation strictly after the manifest is durable.
        node.wal.rotate_keep(2).expect("rotate");
        if r == p.kill_round {
            // Force a collection with the kill switch armed so the crash
            // lands inside GC (mid-copy or mid-sweep) — the hardest spot:
            // some segments are gone, some live pages exist twice.
            cfg.kill.arm(1);
            let crashed = node.pages.gc(&[root]).is_err();
            cfg.kill.disarm();
            gc_acc.absorb(&node.pages.gc_totals());
            ret_acc.retention_unlinked += node.wal.stats().retention_unlinked;
            ret_acc.retention_bytes += node.wal.stats().retention_bytes;
            // "SIGKILL": drop every handle, reopen the directory, and
            // demand the durable checkpoint published just before the
            // crash anchors recovery.
            node = open_node_dir(dir.path(), &cfg).expect("reopen after mid-GC crash");
            recovered_mid_gc = crashed
                && node.manifest.as_ref().is_some_and(|m| m.seq == r && m.root == root);
        } else {
            node.pages.maybe_gc(&[root]).expect("gc");
        }
        peak_disk = peak_disk.max(node.pages.total_bytes() + node.wal.disk_bytes());
    }

    gc_acc.absorb(&node.pages.gc_totals());
    ret_acc.retention_unlinked += node.wal.stats().retention_unlinked;
    ret_acc.retention_bytes += node.wal.stats().retention_bytes;
    let final_disk = node.pages.total_bytes() + node.wal.disk_bytes();
    let final_root = tree.root_hash();
    drop(tree);
    drop(node);

    // Cold reopen: sealed segments must come back through their sidecar
    // indexes (no frame scans), and reads must go through the bounded
    // lazy cache without materializing the tree.
    let node = open_node_dir(dir.path(), &cfg).expect("final reopen");
    let os = node.pages.open_stats();
    let manifest = node.manifest.as_ref().expect("final manifest");
    assert_eq!(manifest.root, final_root, "final manifest anchors the last checkpoint");
    let mut lazy = open_snapshot_lazy(manifest.root, StateSidecar::default(), p.cache_bytes);
    let mut reads_ok = true;
    for w in 0..p.working_set {
        let i = (w * 7919) % p.live_keys;
        let expect = val(last_round(i), i);
        match lazy.get(&node.pages, &key(i)) {
            Ok(Some(v)) => reads_ok &= v == expect,
            _ => reads_ok = false,
        }
    }
    let cs = lazy.cache_stats();
    reads_ok &= cs.resident_bytes <= p.cache_bytes;

    SoakCell {
        keys_churned,
        bytes_churned,
        peak_disk_bytes: peak_disk,
        final_disk_bytes: final_disk,
        disk_cap_bytes: disk_cap,
        gc: gc_acc,
        retention_unlinked: ret_acc.retention_unlinked,
        retention_bytes: ret_acc.retention_bytes,
        recovered_mid_gc,
        reopen_indexed: os.segments_indexed,
        reopen_scanned: os.segments_scanned,
        lazy_misses: cs.misses,
        lazy_hits: cs.hits,
        cache_resident_bytes: cs.resident_bytes,
        cache_evictions: cs.evictions,
        final_page_count: node.pages.page_count() as u64,
        reads_ok,
    }
}

/// `soak`: the bounded-disk long-churn experiment. A node directory
/// absorbs sustained overwrite churn (hundreds of MB to GBs of page
/// writes at full scale) with a durable checkpoint every round; page GC,
/// WAL compaction, and the retention caps must hold total disk below a
/// fixed multiple of the live set the whole time, a crash injected
/// mid-GC must recover, and the final reopen must serve verified reads
/// through the bounded lazy cache without materializing the tree.
pub fn soak(scale: Scale) {
    let p = SoakParams::for_scale(scale);
    let m = soak_cell(&p);
    let mut t = Table::new(
        "Bounded-disk soak: page GC + WAL retention + lazy reopen",
        &["metric", "value"],
    );
    let mb = |b: u64| format!("{:.1} MB", b as f64 / 1e6);
    t.row(vec!["keys churned".into(), m.keys_churned.to_string()]);
    t.row(vec!["bytes churned".into(), mb(m.bytes_churned)]);
    t.row(vec!["peak disk".into(), mb(m.peak_disk_bytes)]);
    t.row(vec!["final disk".into(), mb(m.final_disk_bytes)]);
    t.row(vec!["disk cap".into(), mb(m.disk_cap_bytes)]);
    t.row(vec!["gc runs".into(), m.gc.runs.to_string()]);
    t.row(vec!["gc swept segments".into(), m.gc.swept_segments.to_string()]);
    t.row(vec!["gc reclaimed".into(), mb(m.gc.reclaimed_bytes)]);
    t.row(vec!["gc copied pages".into(), m.gc.copied_pages.to_string()]);
    t.row(vec!["wal retention unlinks".into(), m.retention_unlinked.to_string()]);
    t.row(vec!["wal retention reclaimed".into(), mb(m.retention_bytes)]);
    t.row(vec![
        "recovered mid-GC crash".into(),
        if m.recovered_mid_gc { "yes".into() } else { "NO".into() },
    ]);
    t.row(vec!["reopen: segments via index".into(), m.reopen_indexed.to_string()]);
    t.row(vec!["reopen: segments scanned".into(), m.reopen_scanned.to_string()]);
    t.row(vec!["lazy faults (misses)".into(), m.lazy_misses.to_string()]);
    t.row(vec!["lazy hits".into(), m.lazy_hits.to_string()]);
    t.row(vec!["cache resident".into(), mb(m.cache_resident_bytes)]);
    t.row(vec!["cache evictions".into(), m.cache_evictions.to_string()]);
    t.row(vec![
        "reads verified".into(),
        if m.reads_ok { "yes".into() } else { "NO".into() },
    ]);
    t.print();
    // Process-fatal acceptance, mirroring the other subsystem smokes.
    assert!(m.reads_ok, "soak: lazy read-back failed verification");
    assert!(m.recovered_mid_gc, "soak: mid-GC crash did not recover cleanly");
    assert!(m.gc.runs > 0 && m.gc.swept_segments > 0, "soak: GC never collected");
    assert!(m.gc.reclaimed_bytes > 0, "soak: GC reclaimed nothing");
    assert!(m.retention_unlinked > 0, "soak: WAL retention never fired");
    assert!(
        m.peak_disk_bytes <= m.disk_cap_bytes,
        "soak: disk exceeded the cap ({} > {})",
        m.peak_disk_bytes,
        m.disk_cap_bytes
    );
    assert!(m.reopen_indexed > 0, "soak: reopen never used a sidecar index");
    assert!(
        m.reopen_scanned <= 1 + m.reopen_indexed / 4,
        "soak: reopen fell back to frame scans ({} scanned)",
        m.reopen_scanned
    );
    assert!(
        m.lazy_misses < m.final_page_count / 2,
        "soak: lazy reopen faulted {} of {} pages — that is a materialization, not a working set",
        m.lazy_misses,
        m.final_page_count
    );
    println!(
        "  disk stayed <= {} across {} churn rounds; reopen faulted {} / {} pages ✓",
        mb(m.disk_cap_bytes),
        p.rounds,
        m.lazy_misses,
        m.final_page_count
    );
}
