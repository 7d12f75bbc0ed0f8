//! System-level state-sync battery (tier-1).
//!
//! Crash/recovery scenarios over the full PBFT + store stack: mid-transfer
//! certificate rotation (re-anchor), Byzantine chunk servers (tampered
//! chunks rejected per proof, recovery completes from honest peers),
//! diff-vs-full equivalence, a crash in the middle of an incremental
//! transfer, and the bounded-growth regression test for the
//! executed-request replay cache.

use ahl::consensus::clients::OpenLoopClient;
use ahl::consensus::common::stat;
use ahl::consensus::harness::ControlScript;
use ahl::consensus::pbft::{build_group, BftVariant, PbftConfig, PbftMsg, Replica};
use ahl::consensus::CryptoMode;
use ahl::ledger::Value;
use ahl::net::ClusterNetwork;
use ahl::simkit::{QueueConfig, Sim, SimDuration, SimTime};
use ahl::workload::SmallBankWorkload;

mod common;

const ACCOUNTS: usize = 8;

/// A 5-node AHL+ committee with `pad_keys` bulk-state blobs of `pad_bytes`
/// each, SmallBank load until `load_until`, and a scripted fault schedule.
fn run_scenario(
    cfg: PbftConfig,
    pad_keys: usize,
    pad_bytes: u64,
    load_until: u64,
    run_until: u64,
    schedule: Vec<(SimDuration, usize, PbftMsg)>,
    seed: u64,
) -> (Sim<PbftMsg>, Vec<usize>, i64) {
    run_scenario_avoiding(None, cfg, pad_keys, pad_bytes, load_until, run_until, schedule, seed)
}

/// [`run_scenario`] with the client submitting to every replica except
/// `avoid` — so a crash of that node loses no request, and every id the
/// client issued is one the committee executed.
#[allow(clippy::too_many_arguments)]
fn run_scenario_avoiding(
    avoid: Option<usize>,
    mut cfg: PbftConfig,
    pad_keys: usize,
    pad_bytes: u64,
    load_until: u64,
    run_until: u64,
    schedule: Vec<(SimDuration, usize, PbftMsg)>,
    seed: u64,
) -> (Sim<PbftMsg>, Vec<usize>, i64) {
    cfg.crypto = CryptoMode::Real;
    cfg.batch_size = 16;
    cfg.batch_timeout = SimDuration::from_millis(5);
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
        build_group(&cfg, Box::new(ClusterNetwork::new()), Some(1e9), &genesis, seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(load_until);
    let targets = group.iter().copied().filter(|id| avoid.map(|i| group[i]) != Some(*id)).collect();
    let client = OpenLoopClient::new(
        targets,
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

/// The recovered node's ledger must byte-match a healthy replica's at the
/// same execution point, and the SmallBank balances must be conserved.
fn assert_recovered(sim: &Sim<PbftMsg>, group: &[usize], node: usize, expected_balance: i64) {
    let restarted = replica(sim, group[node]);
    let max_exec = group.iter().map(|&id| replica(sim, id).exec_seq()).max().unwrap();
    assert!(
        restarted.exec_seq() + 32 >= max_exec && max_exec > 0,
        "node {} stuck at {} vs committee {}",
        node,
        restarted.exec_seq(),
        max_exec
    );
    let twin = group
        .iter()
        .filter(|&&id| id != group[node])
        .map(|&id| replica(sim, id))
        .find(|r| r.exec_seq() == restarted.exec_seq());
    if let Some(twin) = twin {
        assert_eq!(
            twin.state().state_digest(),
            restarted.state().state_digest(),
            "recovered state must match the committee's"
        );
    }
    let balance: i64 = restarted
        .state()
        .smt()
        .view()
        .iter()
        .filter(|(k, _)| k.starts_with("ck_") || k.starts_with("sv_"))
        .filter_map(|(_, v)| v.as_int())
        .sum();
    assert_eq!(balance, expected_balance, "balances conserved through recovery");
}

/// Certificates rotate faster than the (deliberately slow, sequential,
/// full) transfer completes: the serving snapshot ages out mid-transfer,
/// the server Nacks, and the requester re-anchors on the newer certificate
/// — repeatedly, until load stops and a full attempt fits. Recovery must
/// still land on an intact, committee-identical state with zero proof
/// failures.
#[test]
fn mid_transfer_cert_rotation_reanchors() {
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 64; // ≈1 s of blocks: certs rotate fast
    cfg.snapshot_retention = 2; // minimal window: rotation evicts quickly
    cfg.sync_chunk_target = 64;
    cfg.sync_fanout = 1; // sequential fetch: one 1 Gbps uplink
    cfg.diff_sync = false; // force the full-length transfer
    // 500 MB of state ≈ 4 s on one uplink, far beyond the ≈2 s window.
    let (sim, group, expected) = run_scenario(
        cfg,
        1_000,
        500_000,
        14,
        30,
        vec![
            (SimDuration::from_secs(4), 3, PbftMsg::Crash),
            (SimDuration::from_secs(7), 3, PbftMsg::Restart),
        ],
        7,
    );
    let stats = sim.stats();
    assert!(
        stats.counter(stat::SYNC_REANCHORS) >= 1,
        "transfer slower than cert rotation must re-anchor at least once"
    );
    assert!(stats.counter(stat::SYNC_COMPLETED) >= 1);
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_recovered(&sim, &group, 3, expected);
}

/// A Byzantine committee member corrupts every chunk it serves. The
/// requester's per-chunk proof check rejects each tampered chunk against
/// the certified root and re-fetches it from an honest peer: recovery
/// completes, and the recovered state is the committee's, not the
/// attacker's.
#[test]
fn tampered_chunks_rejected_and_recovery_completes() {
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.byzantine = 1; // node 4 serves corrupted chunks
    cfg.checkpoint_interval = 64;
    cfg.sync_chunk_target = 16; // many chunks: the rotation hits node 4
    cfg.diff_sync = false; // fetch everything: maximal attack surface
    let (sim, group, expected) = run_scenario(
        cfg,
        200,
        100_000,
        12,
        24,
        vec![
            (SimDuration::from_secs(4), 3, PbftMsg::Crash),
            (SimDuration::from_secs(8), 3, PbftMsg::Restart),
        ],
        11,
    );
    let stats = sim.stats();
    assert!(
        stats.counter(stat::SYNC_PROOF_FAILURES) >= 1,
        "the Byzantine server's chunks must be caught by proof verification"
    );
    assert!(stats.counter(stat::SYNC_COMPLETED) >= 1);
    assert_recovered(&sim, &group, 3, expected);
}

/// The same crash/recovery scenario with diff sync on and off: both end on
/// the identical, committee-agreed state, but the incremental run moves
/// only the chunks touched while the node was down.
#[test]
fn diff_sync_equivalent_to_full_but_cheaper() {
    let run = |diff: bool| {
        let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
        cfg.checkpoint_interval = 256; // ≈2.5 s between certs
        // Fine chunks: the handful of hot account keys dirties only a few
        // of the ~128 chunks, so the diff isolates the cold bulk state.
        cfg.sync_chunk_target = 4;
        cfg.diff_sync = diff;
        run_scenario(
            cfg,
            400,
            250_000, // 100 MB of mostly-cold state
            16,
            28,
            vec![
                (SimDuration::from_secs(6), 3, PbftMsg::Crash),
                (SimDuration::from_secs(13), 3, PbftMsg::Restart),
            ],
            23,
        )
    };
    let (full_sim, full_group, full_expected) = run(false);
    let (diff_sim, diff_group, diff_expected) = run(true);
    for (sim, group, expected, label) in [
        (&full_sim, &full_group, full_expected, "full"),
        (&diff_sim, &diff_group, diff_expected, "diff"),
    ] {
        assert!(sim.stats().counter(stat::SYNC_COMPLETED) >= 1, "{label} run recovers");
        assert_eq!(sim.stats().counter(stat::SYNC_PROOF_FAILURES), 0, "{label} run clean");
        assert_recovered(sim, group, 3, expected);
    }
    assert_eq!(full_sim.stats().counter(stat::SYNC_DIFFS), 0);
    assert!(diff_sim.stats().counter(stat::SYNC_DIFFS) >= 1, "diff run is incremental");
    assert_eq!(diff_sim.stats().counter(stat::SYNC_DIFF_FALLBACKS), 0);
    let full_bytes = full_sim.stats().counter(stat::SYNC_BYTES);
    let diff_bytes = diff_sim.stats().counter(stat::SYNC_BYTES);
    assert!(
        diff_bytes * 2 < full_bytes,
        "incremental transfer must move a fraction of the state: {diff_bytes} vs {full_bytes}"
    );
}

/// Crash in the middle of an incremental transfer: the node goes down
/// again while its diff chunks are in flight, restarts once more from the
/// durable checkpoint, and must still converge with zero proof failures
/// (verified chunks are only ever installed atomically at the end of a
/// session, so a half-finished transfer leaves no partial state behind).
#[test]
fn crash_mid_diff_transfer_recovers() {
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 256;
    cfg.sync_chunk_target = 16;
    cfg.sync_fanout = 1; // slow the transfer so the second crash lands mid-flight
    let (sim, group, expected) = run_scenario(
        cfg,
        800,
        250_000, // 200 MB → the transfer spans a second or more
        18,
        32,
        vec![
            (SimDuration::from_secs(6), 3, PbftMsg::Crash),
            (SimDuration::from_secs(13), 3, PbftMsg::Restart),
            // ~0.4 s into the chunk phase: kill it again.
            (SimDuration::from_millis(13_400), 3, PbftMsg::Crash),
            (SimDuration::from_secs(17), 3, PbftMsg::Restart),
        ],
        29,
    );
    let stats = sim.stats();
    assert_eq!(stats.counter("sync.crashes"), 2);
    assert_eq!(stats.counter("sync.restarts"), 2);
    assert!(stats.counter(stat::SYNC_COMPLETED) >= 1);
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_recovered(&sim, &group, 3, expected);
}

/// Regression (ROADMAP): the executed-request-id replay cache used to grow
/// without bound. It is now pruned at checkpoint-certificate epochs like
/// the resolved-transaction set — subject to the `request_ttl` age floor
/// (ids younger than the replay horizon are never pruned; the Byzantine
/// battery proved pruning purely by epochs reopens a replay window).
/// With a short TTL, a long run retains only a small tail of everything
/// it executed.
#[test]
fn executed_request_cache_stays_bounded() {
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = 50; // many pruning epochs in one run
    cfg.request_ttl = ahl::simkit::SimDuration::from_secs(2); // short replay horizon
    let (sim, group, _) = run_scenario(cfg, 0, 0, 20, 24, vec![], 31);
    let stats = sim.stats();
    let total = stats.counter(stat::TXN_COMMITTED) + stats.counter(stat::TXN_ABORTED);
    assert!(total > 4_000, "need a long run to observe growth: {total}");
    assert!(stats.counter(stat::EXECUTED_PRUNED) > 0, "pruning must have happened");
    for &id in &group {
        let r = replica(&sim, id);
        let len = r.executed_len();
        assert!(len > 0, "replica {id} executed something");
        assert!(
            (len as u64) < total / 2,
            "replica {id} retains {len} executed ids of {total} total — unbounded growth"
        );
        // The resolved-transaction set is pruned on the same schedule.
        assert!((r.state().resolved_count() as u64) < total / 2);
    }
}

/// Replay protection survives a chunked state-sync install. The recovered
/// replica's executed-id window is the serving peer's at the certified
/// height (carried in the manifest) plus the ids of the block tail it
/// executed above it: it must be as large as a healthy peer's, and must
/// still refuse a re-submitted copy of *every* id the committee executed —
/// neither pooled nor executed, with a fresh timestamp so only the window
/// can stop it — while a fresh id goes through exactly once.
#[test]
fn resubmitted_ids_stay_executed_after_chunked_install() {
    use ahl::consensus::adversary::SafetyChecker;

    const INTERVAL: u64 = 64;
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.checkpoint_interval = INTERVAL;
    cfg.sync_chunk_target = 16;
    cfg.safety = Some(checker.clone());
    // Node 3 is dark from 1 s to 4 s; load runs to 3 s. When it returns
    // the committee is idle and several certificates ahead, so it catches
    // up by a chunked transfer plus the block tail above the certificate.
    let schedule = vec![
        (SimDuration::from_secs(1), 3, PbftMsg::Crash),
        (SimDuration::from_secs(4), 3, PbftMsg::Restart),
    ];
    // The client never addresses node 3, so the crash loses no request.
    let (mut sim, group, expected) =
        run_scenario_avoiding(Some(3), cfg, 50, 10_000, 3, 7, schedule, 37);
    let stats = sim.stats();
    assert!(stats.counter(stat::SYNC_COMPLETED) >= 1, "a chunked install happened");
    assert_eq!(stats.counter(stat::SYNC_PROOF_FAILURES), 0);
    assert_recovered(&sim, &group, 3, expected);
    let sent = stats.counter(stat::TXN_COMMITTED) + stats.counter(stat::TXN_ABORTED);
    assert_eq!(stats.counter("client.submitted"), sent, "every issued id was executed");
    let (node, peer) = (group[3], group[0]);
    let client = group.iter().max().expect("committee") + 1; // added right after the group
    let exec_seq = replica(&sim, node).exec_seq();
    assert_ne!(exec_seq % INTERVAL, 0, "blocks above the certificate: a sync tail");
    assert_eq!(replica(&sim, node).executed_len(), replica(&sim, peer).executed_len());
    common::assert_resubmissions_refused(&mut sim, node, peer, client, sent);
    checker.assert_clean();
}

/// A Byzantine member serves a block tail with one request rewritten
/// (`Attack::ForgeTail`; the block keeps its digest field and its commit
/// certificate). Node 3 is dark for a fraction of a checkpoint interval,
/// so on restart it misses only recent blocks and its first sync peer,
/// node 4, answers with a tail. The certificate does not verify against
/// the digest node 3 recomputes, so the tail is refused, and node 3
/// recovers from an honest peer to the committee's state.
#[test]
fn forged_tail_from_a_member() {
    use ahl::consensus::adversary::Attack;

    let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
    cfg.byzantine = 1; // node 4
    cfg.attack = Attack::ForgeTail;
    cfg.checkpoint_interval = 64;
    let (sim, group, expected) = run_scenario(
        cfg,
        0,
        0,
        4,
        8,
        vec![
            (SimDuration::from_millis(2_000), 3, PbftMsg::Crash),
            (SimDuration::from_millis(2_300), 3, PbftMsg::Restart),
        ],
        41,
    );
    assert!(sim.stats().counter(stat::SYNC_BAD_CERTS) >= 1, "the forged tail was refused");
    let node = replica(&sim, group[3]);
    assert_eq!(node.state().get_int("forged"), 0, "the rewritten request never executed");
    assert!(
        group[..3].iter().any(|&id| replica(&sim, id).exec_seq() == node.exec_seq()),
        "an honest replica at node 3's height"
    );
    assert_recovered(&sim, &group, 3, expected);
}
