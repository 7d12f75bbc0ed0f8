//! Crash-kill recovery over the full stack (tier-1).
//!
//! These scenarios run a real PBFT committee with **real on-disk
//! persistence** (per-node WAL + page-backed checkpoints under a temp
//! dir) and kill nodes the hard way: scripted `Crash` messages and
//! injected I/O crashes at sampled WAL/page/manifest write sites (the
//! exhaustive per-site matrix lives at the `ahl-wal` layer in
//! `crates/wal/tests/recovery.rs`; here the same kill switch fires inside
//! a live committee). Every scenario must end with the restarted node
//! back in consensus, holding the committee's certified state, with zero
//! proof failures — and recovery must go through the *reopened* node
//! directory: durable checkpoint, WAL-tail replay, then diff sync for
//! the remainder.

use ahl::consensus::clients::OpenLoopClient;
use ahl::consensus::common::stat;
use ahl::consensus::harness::ControlScript;
use ahl::consensus::pbft::{build_group, BftVariant, PbftConfig, PbftMsg, Replica};
use ahl::consensus::CryptoMode;
use ahl::ledger::Value;
use ahl::net::ClusterNetwork;
use ahl::simkit::{QueueConfig, Sim, SimDuration, SimTime};
use ahl::wal::{TempDir, WalConfig};
use ahl::workload::SmallBankWorkload;

mod common;

const ACCOUNTS: usize = 8;

/// A 5-node AHL+ committee persisting to `data_dir`, with SmallBank load
/// and bulk-state blobs, driven through a scripted fault schedule.
fn run_persistent_scenario(
    mut cfg: PbftConfig,
    data_dir: &std::path::Path,
    pad_keys: usize,
    load_until: u64,
    run_until: u64,
    schedule: Vec<(SimDuration, usize, PbftMsg)>,
    seed: u64,
) -> (Sim<PbftMsg>, Vec<usize>, i64) {
    cfg.crypto = CryptoMode::Real;
    cfg.batch_size = 16;
    cfg.batch_timeout = SimDuration::from_millis(5);
    cfg.data_dir = Some(data_dir.to_path_buf());
    let mut genesis = SmallBankWorkload::paper(ACCOUNTS, 0.0).genesis();
    let expected_balance: i64 = genesis
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    for i in 0..pad_keys {
        genesis.push((format!("blob_{i}"), Value::Opaque { size: 40_000, tag: i as u64 }));
    }
    let (mut sim, group) =
        build_group(&cfg, Box::new(ClusterNetwork::new()), Some(1e9), &genesis, seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(load_until);
    let client = OpenLoopClient::new(
        group.clone(),
        SimDuration::from_millis(2),
        stop,
        SmallBankWorkload::paper(ACCOUNTS, 0.0).factory(0),
    );
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    let script = ControlScript::new(
        schedule
            .into_iter()
            .map(|(at, idx, msg)| (at, group[idx], msg))
            .collect(),
    );
    sim.add_actor(Box::new(script), QueueConfig::unbounded());
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(run_until));
    (sim, group, expected_balance)
}

fn replica(sim: &Sim<PbftMsg>, id: usize) -> &Replica {
    sim.actor(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<Replica>())
        .expect("replica actor")
}

/// The recovered node's ledger must agree with a healthy replica at the
/// same execution point, and the SmallBank money supply must be intact.
fn assert_recovered(sim: &Sim<PbftMsg>, group: &[usize], node: usize, expected_balance: i64) {
    let restarted = replica(sim, group[node]);
    assert!(restarted.exec_seq() > 0, "restarted replica executed nothing");
    let twin = group
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != node)
        .map(|(_, id)| replica(sim, *id))
        .find(|r| r.exec_seq() == restarted.exec_seq())
        .expect("restarted replica reaches a healthy peer's exec point");
    assert_eq!(
        twin.state().state_digest(),
        restarted.state().state_digest(),
        "recovered state must match the committee's"
    );
    let balance: i64 = restarted
        .state()
        .smt()
        .view()
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    assert_eq!(balance, expected_balance, "funds conserved through recovery");
}

/// Baseline: a crash + restart recovers through the *disk* — durable
/// checkpoint from the manifest, WAL-tail replay past it, then an
/// incremental (diff) sync for what the committee committed while the
/// node was dark. Zero proof failures, state and funds intact.
#[test]
fn restart_recovers_from_reopened_node_dir() {
    let dir = TempDir::new("recovery-basic");
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    // ~200 blocks/s with 5 ms flushes: a 2 s dark window spans ~4
    // checkpoint intervals — inside the 8-cert retention window, so the
    // durable root stays diff-anchorable on every peer.
    cfg.checkpoint_interval = 100;
    cfg.sync_chunk_target = 64;
    let (sim, group, expected) = run_persistent_scenario(
        cfg,
        dir.path(),
        120,
        6,
        10,
        vec![
            (SimDuration::from_secs(2), 3, PbftMsg::Crash),
            (SimDuration::from_secs(4), 3, PbftMsg::Restart),
        ],
        42,
    );
    let stats = sim.stats();
    // Persistence really ran: batches journaled, checkpoints persisted,
    // and consecutive checkpoints shared pages on disk.
    assert!(stats.counter(stat::WAL_BATCHES) > 50, "batches journaled");
    assert!(stats.counter(stat::WAL_CHECKPOINTS) > 5, "checkpoints persisted");
    assert!(
        stats.counter(stat::WAL_PAGES_SHARED) > 0,
        "consecutive checkpoints share pages"
    );
    // Recovery went through the disk: the WAL tail replayed batches the
    // checkpoint had not folded in yet...
    assert!(
        stats.counter(stat::WAL_REPLAYED) >= 1,
        "restart must replay the WAL tail: {}",
        stats.counter(stat::WAL_REPLAYED)
    );
    assert_eq!(stats.counter(stat::WAL_REPLAY_MISMATCHES), 0);
    assert_eq!(stats.counter(stat::WAL_REOPEN_FAILURES), 0);
    // ...and the rest arrived by incremental sync with clean proofs — no
    // full re-fetch (peers retain the recovered root).
    assert!(stats.counter(stat::SYNC_DIFFS) >= 1, "recovery should be incremental");
    assert_eq!(stats.counter(stat::SYNC_DIFF_FALLBACKS), 0);
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_recovered(&sim, &group, 3, expected);
}

/// Kill-point sampling inside the live committee: the shared kill switch
/// fires at a WAL/page/manifest write site of whichever replica gets
/// there first; that replica treats it as a crash and goes dark. A
/// scripted restart then recovers every node (restarting a healthy node
/// is defined behaviour: it, too, reopens its directory). Afterwards the
/// committee must be live again with certified state and no proof
/// failures, for every sampled site.
#[test]
fn injected_io_crashes_at_sampled_kill_points_recover() {
    // Sites chosen to land in different write classes as the run unfolds:
    // the first WAL record writes, the first checkpoint's page burst, a
    // manifest publish, and deep steady state.
    for site in [0u64, 7, 120, 800, 2500] {
        let dir = TempDir::new("recovery-kill");
        let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
        cfg.checkpoint_interval = 100;
        cfg.sync_chunk_target = 64;
        cfg.wal = WalConfig::default();
        cfg.wal.kill.arm(site);
        let kill = cfg.wal.kill.clone();
        // Every node gets a restart at t = 5 s: the crashed one (whichever
        // hit the armed site) recovers from disk; the healthy ones reopen
        // their directories too and re-join via sync.
        let schedule = (0..5)
            .map(|i| (SimDuration::from_secs(5), i, PbftMsg::Restart))
            .collect();
        let (sim, group, expected) =
            run_persistent_scenario(cfg, dir.path(), 60, 8, 12, schedule, 42 + site);
        let stats = sim.stats();
        assert!(kill.fired(), "site {site} must be reached during the run");
        assert_eq!(
            stats.counter(stat::WAL_IO_CRASHES),
            1,
            "site {site}: exactly one injected I/O crash"
        );
        assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0, "site {site}");
        assert_eq!(stats.counter(stat::WAL_REPLAY_MISMATCHES), 0, "site {site}");
        // The committee recovered and kept committing after the restarts.
        let max_exec = group.iter().map(|&id| replica(&sim, id).exec_seq()).max().unwrap();
        assert!(max_exec > 0, "site {site}: committee must make progress");
        // Every replica that reached the top executed identical state.
        for node in 0..5 {
            if replica(&sim, group[node]).exec_seq() == max_exec {
                assert_recovered(&sim, &group, node, expected);
            }
        }
    }
}

/// The minimal snapshot window: with `snapshot_retention = 2` replicas
/// keep only the two newest certified snapshots, yet a restarted node
/// still recovers from its reopened durable checkpoint and catches up.
#[test]
fn minimal_snapshot_window_keeps_restart_recoverable() {
    let dir = TempDir::new("recovery-window");
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 100;
    cfg.sync_chunk_target = 64;
    // The smallest window there is. The dark window is kept inside it
    // (~2 certs) so the crashed node's durable root is still retained by
    // its peers.
    cfg.snapshot_retention = 2;
    let (sim, group, expected) = run_persistent_scenario(
        cfg,
        dir.path(),
        120,
        6,
        10,
        vec![
            (SimDuration::from_secs(2), 3, PbftMsg::Crash),
            (SimDuration::from_millis(2_500), 3, PbftMsg::Restart),
        ],
        43,
    );
    let stats = sim.stats();
    // Recovery works from the durable checkpoint: the node
    // resumed at its reopened durable root + WAL tail and caught the rest
    // up (with this short dark window, usually a cheap block-tail replay;
    // under a longer one, a chunked sync) — never with a proof failure.
    assert!(stats.counter(stat::WAL_REPLAYED) >= 1, "resumed from the reopened checkpoint");
    assert!(
        stats.counter(stat::SYNC_TAILS)
            + stats.counter(stat::SYNC_COMPLETED)
            + stats.counter(stat::SYNC_DIFFS)
            >= 1,
        "recovery must complete an exchange"
    );
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_recovered(&sim, &group, 3, expected);
}

/// 2PC traffic through the WAL: prepared/committed/aborted transactions
/// journal `TwoPc` transition records alongside their batches. After a
/// crash + restart, tail replay must cross-check cleanly against that
/// journal — including the journal records of pre-checkpoint batches the
/// two-generation WAL retention leaves in front of the tail (those are
/// skipped, not flagged as mismatches).
#[test]
fn twopc_journal_replays_cleanly() {
    use ahl::ledger::{Mutation, Op, StateOp, TxId};

    let dir = TempDir::new("recovery-2pc");
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.crypto = CryptoMode::Real;
    cfg.batch_size = 16;
    cfg.batch_timeout = SimDuration::from_millis(5);
    cfg.checkpoint_interval = 100;
    cfg.sync_chunk_target = 64;
    cfg.data_dir = Some(dir.path().to_path_buf());
    let genesis: Vec<(String, Value)> =
        (0..16).map(|i| (format!("acc{i}"), Value::Int(1_000))).collect();
    let (mut sim, group) = build_group(
        &cfg,
        Box::new(ClusterNetwork::new()),
        Some(1e9),
        &genesis,
        42,
    );
    let stop = SimTime::ZERO + SimDuration::from_secs(6);
    // Prepare/decide pairs: every transaction exercises the 2PC journal
    // (prepare acquires locks; commit or abort resolves them).
    let mut i = 0u64;
    let factory: ahl::consensus::common::OpFactory = Box::new(move |_rng| {
        i += 1;
        let txid = TxId(1_000_000 + i / 3);
        match i % 3 {
            0 => Op::Prepare {
                txid,
                op: StateOp {
                    conditions: vec![],
                    mutations: vec![(
                        format!("acc{}", i % 16),
                        Mutation::Add(1),
                    )],
                },
            },
            1 if i % 6 == 1 => Op::Abort { txid },
            _ => Op::Commit { txid },
        }
    });
    let client =
        OpenLoopClient::new(group.clone(), SimDuration::from_millis(2), stop, factory);
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    let script = ControlScript::new(vec![
        (SimDuration::from_secs(2), group[3], PbftMsg::Crash),
        (SimDuration::from_secs(4), group[3], PbftMsg::Restart),
    ]);
    sim.add_actor(Box::new(script), QueueConfig::unbounded());
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));

    let stats = sim.stats();
    assert!(stats.counter(stat::WAL_REPLAYED) >= 1, "tail replayed");
    assert_eq!(
        stats.counter(stat::WAL_REPLAY_MISMATCHES),
        0,
        "a clean 2PC journal must replay without mismatches"
    );
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    let restarted = replica(&sim, group[3]);
    assert!(restarted.exec_seq() > 0);
    let twin = group
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 3)
        .map(|(_, id)| replica(&sim, *id))
        .find(|r| r.exec_seq() == restarted.exec_seq())
        .expect("recovered node reaches a peer's exec point");
    assert_eq!(twin.state().state_digest(), restarted.state().state_digest());
}

/// The assembled sharded system (shard committees + reference committee +
/// cross-shard 2PC clients) runs with real per-node persistence: every
/// replica journals and checkpoints under its own node directory, and the
/// run's conservation audit still holds. This is the `run_system` wiring
/// of the subsystem — per-node data dirs across *multiple* committees in
/// one simulation.
#[test]
fn sharded_system_runs_on_disk() {
    use ahl::system::{run_system, SystemConfig, SystemWorkload};

    let dir = TempDir::new("recovery-system");
    let mut cfg = SystemConfig::new(2, 3);
    cfg.clients = 4;
    cfg.outstanding = 8;
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.batch_size = 20;
    cfg.data_dir = Some(dir.path().to_path_buf());
    let m = run_system(cfg);
    assert!(m.committed > 200, "committed {}", m.committed);
    assert_eq!(m.proof_failures, 0);
    assert!(m.final_balance.is_some(), "conservation audit ran");
    // Every replica of every committee (2 shards + reference = 9 nodes)
    // created and used its node directory.
    let node_dirs = std::fs::read_dir(dir.path())
        .expect("data dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("node-"))
        .count();
    assert_eq!(node_dirs, 9, "one directory per replica");
    for entry in std::fs::read_dir(dir.path()).expect("data dir") {
        let path = entry.expect("entry").path();
        assert!(path.join("MANIFEST").exists(), "{path:?} published a checkpoint");
        assert!(path.join("wal").exists() && path.join("pages").exists());
    }
}

/// Long-soak restart storm *under attack*: a rotating minority of honest
/// replicas is repeatedly killed and restarted (recovering through their
/// reopened node directories each time) while one Byzantine replica
/// double-votes every proposal it sees (the equivocation-collusion
/// attack). The committee must stay safe the whole way — the global
/// SafetyChecker observes every honest commit, execution, and 2PC
/// resolution across every restart lineage — and goodput must recover
/// after the storm ends.
#[test]
fn restart_storm_with_equivocator_stays_safe_and_recovers() {
    use ahl::consensus::adversary::{Attack, SafetyChecker};
    use ahl::consensus::stat as cstat;

    let dir = TempDir::new("recovery-storm");
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(BftVariant::Hl, 5);
    cfg.checkpoint_interval = 100;
    cfg.sync_chunk_target = 64;
    cfg.byzantine = 1;
    cfg.byzantine_set = Some(vec![4]); // a colluding double-voter
    cfg.attack = Attack::Equivocate;
    cfg.safety = Some(checker.clone());
    // A crashed *leader* must be deposed well inside the storm cadence,
    // or the committee idles out the rest of the run waiting on it.
    cfg.vc_timeout = SimDuration::from_millis(400);
    // Rotating-minority storm: nodes 1, 2, 3 die and recover in turn;
    // node 1 goes down twice. At most one honest replica is dark at a
    // time, so the quorum of 3 honest live replicas always exists.
    let storm = vec![
        (SimDuration::from_millis(2_000), 1, PbftMsg::Crash),
        (SimDuration::from_millis(3_500), 1, PbftMsg::Restart),
        (SimDuration::from_millis(4_000), 2, PbftMsg::Crash),
        (SimDuration::from_millis(5_500), 2, PbftMsg::Restart),
        (SimDuration::from_millis(6_000), 3, PbftMsg::Crash),
        (SimDuration::from_millis(7_500), 3, PbftMsg::Restart),
        (SimDuration::from_millis(8_000), 1, PbftMsg::Crash),
        (SimDuration::from_millis(9_500), 1, PbftMsg::Restart),
    ];
    let (sim, group, expected) =
        run_persistent_scenario(cfg, dir.path(), 60, 12, 16, storm, 45);
    let stats = sim.stats();
    // The storm really happened, and recovery went through the disk.
    assert_eq!(stats.counter("sync.crashes"), 4);
    assert_eq!(stats.counter("sync.restarts"), 4);
    assert!(stats.counter(cstat::WAL_REPLAYED) >= 1, "WAL tails replayed");
    // The Byzantine replica also corrupts any sync chunks it serves;
    // recovering nodes must detect every tampered chunk (counted as a
    // proof failure) and complete recovery from honest peers anyway —
    // so proof failures are *allowed* here, unverified state is not.
    assert_eq!(stats.counter(cstat::WAL_REPLAY_MISMATCHES), 0);
    // Safety under the combined adversary: every honest commit agreed,
    // nothing executed twice within a lineage, 2PC stayed atomic.
    checker.assert_clean();
    assert!(checker.commit_records() > 0, "the checker observed the run");
    // Goodput recovered once the storm ended: commits flow in the
    // post-storm window (storm ends at 9.5 s, load runs to 12 s).
    let post_storm = stats.rate_in_window(
        cstat::COMMIT_SERIES,
        SimTime::ZERO + SimDuration::from_secs(10),
        SimTime::ZERO + SimDuration::from_secs(12),
    );
    assert!(post_storm > 50.0, "post-storm goodput {post_storm:.0} tps");
    // And the survivors agree on the ledger, funds intact.
    assert_recovered(&sim, &group, 1, expected);
    assert_recovered(&sim, &group, 2, expected);
    assert_recovered(&sim, &group, 3, expected);
}

/// Multi-root advertisement: two replicas crash and restart staggered, so
/// one recovering node may ask a peer that itself just restarted (whose
/// snapshot window holds only its own durable checkpoint). Because
/// requests advertise the *whole* retained window, any shared root can
/// anchor the diff — both recoveries stay incremental with no fallback.
#[test]
fn staggered_restarts_both_diff_sync() {
    let dir = TempDir::new("recovery-staggered");
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 100;
    cfg.sync_chunk_target = 64;
    let (sim, group, expected) = run_persistent_scenario(
        cfg,
        dir.path(),
        120,
        8,
        12,
        vec![
            (SimDuration::from_secs(2), 3, PbftMsg::Crash),
            (SimDuration::from_secs(3), 1, PbftMsg::Crash),
            (SimDuration::from_secs(4), 3, PbftMsg::Restart),
            (SimDuration::from_secs(6), 1, PbftMsg::Restart),
        ],
        44,
    );
    let stats = sim.stats();
    assert!(
        stats.counter(stat::SYNC_DIFFS) >= 2,
        "both restarts should sync incrementally: {}",
        stats.counter(stat::SYNC_DIFFS)
    );
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_eq!(stats.counter(stat::SYNC_DIFF_FALLBACKS), 0);
    assert_recovered(&sim, &group, 3, expected);
    assert_recovered(&sim, &group, 1, expected);
}

/// What a restart lands on *before* any peer helps: the whole committee
/// goes dark at a quiet moment, and one node alone comes back. Nobody can
/// answer its sync request, so what it holds is exactly what the resume
/// path produced — the durable checkpoint (state, replay cache, sequence
/// marks) plus the replayed WAL tail — and that must be the committee's
/// own execution point, state and replay-protection set.
#[test]
fn lone_restart_resumes_from_checkpoint_and_wal_alone() {
    let dir = TempDir::new("recovery-lone");
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 50;
    cfg.sync_chunk_target = 64;
    // Load stops at 1 s, so by 2 s every replica has executed everything.
    let mut schedule: Vec<_> =
        (0..5).map(|i| (SimDuration::from_secs(2), i, PbftMsg::Crash)).collect();
    schedule.push((SimDuration::from_secs(3), 3, PbftMsg::Restart));
    let (sim, group, expected) =
        run_persistent_scenario(cfg, dir.path(), 20, 1, 5, schedule, 45);
    let stats = sim.stats();
    assert!(stats.counter(stat::WAL_CHECKPOINTS) > 0, "a durable checkpoint to resume from");
    assert!(stats.counter(stat::WAL_REPLAYED) >= 1, "and a WAL tail past it");
    assert_eq!(stats.counter(stat::WAL_REPLAY_MISMATCHES), 0);
    assert_eq!(
        stats.counter(stat::SYNC_COMPLETED) + stats.counter(stat::SYNC_TAILS),
        0,
        "no peer was up to sync from"
    );
    let (restarted, dark_peer) = (replica(&sim, group[3]), replica(&sim, group[0]));
    assert_eq!(restarted.exec_seq(), dark_peer.exec_seq());
    assert_eq!(restarted.executed_len(), dark_peer.executed_len());
    assert_recovered(&sim, &group, 3, expected);
}

/// Replay protection survives a restart from disk. The window a replica
/// rebuilds from its manifest (ids executed up to the certified height)
/// plus its replayed WAL tail (ids executed above it) must still refuse a
/// re-submitted copy of *every* id the committee executed — neither
/// pooled nor executed, with a fresh timestamp so only the executed-id
/// window can stop it — while a fresh id goes through exactly once.
#[test]
fn resubmitted_ids_stay_executed_after_restart_from_disk() {
    use ahl::consensus::adversary::SafetyChecker;

    const INTERVAL: u64 = 50;
    let dir = TempDir::new("recovery-replay");
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = INTERVAL;
    cfg.sync_chunk_target = 64;
    cfg.safety = Some(checker.clone());
    // Load stops at 1 s; node 3 dies at a quiet 2 s and is back at 3 s.
    // Its peers stand exactly where it left off, so whatever it remembers
    // afterwards came from its own disk.
    let schedule = vec![
        (SimDuration::from_secs(2), 3, PbftMsg::Crash),
        (SimDuration::from_secs(3), 3, PbftMsg::Restart),
    ];
    let (mut sim, group, _) = run_persistent_scenario(cfg, dir.path(), 20, 1, 5, schedule, 45);
    let stats = sim.stats();
    assert!(stats.counter(stat::WAL_REPLAYED) >= 1, "a WAL tail was replayed");
    assert_eq!(stats.counter(stat::SYNC_COMPLETED), 0, "no chunked install: the window is the disk's");
    let sent = stats.counter(stat::TXN_COMMITTED) + stats.counter(stat::TXN_ABORTED);
    assert_eq!(stats.counter("client.submitted"), sent, "every issued id was executed");
    let (node, peer) = (group[3], group[0]);
    let client = group.iter().max().expect("committee") + 1; // added right after the group
    let exec_seq = replica(&sim, node).exec_seq();
    assert!(exec_seq > INTERVAL, "ids below a certified height exist");
    assert_ne!(exec_seq % INTERVAL, 0, "and so do ids above it (the WAL tail)");
    common::assert_resubmissions_refused(&mut sim, node, peer, client, sent);
    checker.assert_clean();
}
