//! The Byzantine safety battery (tier-1): the paper's security argument as
//! executable checks.
//!
//! Matrix: (PBFT × IBFT × Tendermint) × (equivocate / withhold /
//! stale-replay / bogus-checkpoint) at f ≤ ⌊(n−1)/3⌋ — every cell must
//! keep the [`SafetyChecker`] clean *while the committee keeps
//! committing*. Cross-shard 2PC runs under Byzantine replicas and
//! Byzantine client drivers without ever breaking atomicity. Scripted
//! network adversaries (partition/heal, duplication storms) ride on the
//! simkit interposer. And the **canary**: with f > ⌊(n−1)/3⌋ colluding
//! equivocators, the chain *does* fork and the checker provably records
//! it — the battery is known to be live, not vacuously green.

use ahl::consensus::adversary::{Attack, SafetyChecker, Violation};
use ahl::consensus::clients::OpenLoopClient;
use ahl::consensus::ibft::{build_ibft_group, IbftConfig};
use ahl::consensus::pbft::{build_group, BftVariant, PbftConfig, Replica};
use ahl::consensus::tendermint::{build_tm_group, TmConfig};
use ahl::consensus::{stat, CryptoMode};
use ahl::ledger::{kvstore, Op, TxId};
use ahl::simkit::adversary::{FaultMatch, FaultRule, ScriptedFaults};
use ahl::simkit::{QueueConfig, SimDuration, SimTime, UniformNetwork};
use ahl::system::{run_system, SystemConfig, SystemWorkload};

fn kv_factory() -> ahl::consensus::OpFactory {
    let mut i = 0u64;
    Box::new(move |_rng| {
        i += 1;
        Op::Direct { txid: TxId(i), op: kvstore::kv_write(&[i % 64], 16) }
    })
}

// ---------------------------------------------------------------- PBFT --

/// One PBFT cell: run `secs` simulated seconds of open-loop load with the
/// given Byzantine placement and attack; returns the checker and the
/// committed count.
fn pbft_cell(
    variant: BftVariant,
    n: usize,
    byz_set: Vec<usize>,
    attack: Attack,
    crypto: CryptoMode,
    secs: u64,
    seed: u64,
) -> (SafetyChecker, u64, ahl::simkit::Sim<ahl::consensus::pbft::PbftMsg>) {
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(variant, n);
    cfg.byzantine = byz_set.len();
    cfg.byzantine_set = Some(byz_set);
    cfg.attack = attack;
    cfg.safety = Some(checker.clone());
    cfg.crypto = crypto;
    cfg.batch_size = 8;
    cfg.checkpoint_interval = 32;
    cfg.vc_timeout = SimDuration::from_millis(400);
    let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
    let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(secs);
    let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    let committed = sim.stats().counter(stat::TXN_COMMITTED);
    (checker, committed, sim)
}

/// The full PBFT attack matrix at f = 1 ≤ ⌊(n−1)/3⌋ for n = 4 (HL rule,
/// the bound the acceptance criterion names). Equivocation places the
/// Byzantine replica at the view-0 leader — the strongest position.
#[test]
fn pbft_attack_matrix_within_bound_is_safe_and_live() {
    for attack in Attack::ALL {
        let byz = match attack {
            Attack::Equivocate => vec![0], // the leader equivocates
            _ => vec![3],
        };
        let (checker, committed, _sim) =
            pbft_cell(BftVariant::Hl, 4, byz, attack, CryptoMode::CostOnly, 3, 71);
        checker.assert_clean();
        assert!(
            checker.commit_records() > 0,
            "{}: the checker must have observed commits",
            attack.name()
        );
        assert!(committed > 50, "{}: goodput collapsed: {committed}", attack.name());
    }
}

/// Attack-specific side assertions: the attacks really fired.
#[test]
fn pbft_attacks_actually_fire() {
    let (_, _, sim) =
        pbft_cell(BftVariant::Hl, 4, vec![3], Attack::StaleReplay, CryptoMode::CostOnly, 3, 72);
    assert!(sim.stats().counter("adv.stale_replays") > 0, "stale votes were replayed");

    let (checker, _, sim) = pbft_cell(
        BftVariant::Hl,
        4,
        vec![3],
        Attack::BogusCheckpoint,
        CryptoMode::CostOnly,
        3,
        73,
    );
    checker.assert_clean();
    assert!(sim.stats().counter("adv.bogus_ckpt_votes") > 0, "bogus votes were cast");
    assert!(
        sim.stats().counter(stat::CKPT_CERTS) > 0,
        "honest votes must still certify checkpoints past the bogus ones"
    );
}

/// The §7.2 composite attack keeps its historical behaviour under the
/// checker: flooded queues, degraded but nonzero goodput, zero forks.
#[test]
fn pbft_paper_flood_stays_safe() {
    let (checker, committed, _) =
        pbft_cell(BftVariant::Hl, 7, vec![5, 6], Attack::PaperFlood, CryptoMode::Real, 3, 74);
    checker.assert_clean();
    assert!(committed > 50, "committed {committed}");
}

/// Attested committees (AHL+) under the same equivocating leader: the
/// Byzantine leader cannot bind two blocks to one slot in its enclave,
/// and its enclave-dodging plain signatures are refused outright — the
/// committee view-changes past it and keeps committing, even at the
/// attested bound f = ⌊(n−1)/2⌋ worth of colluders.
#[test]
fn attested_mode_blocks_equivocation_entirely() {
    let (checker, committed, sim) = pbft_cell(
        BftVariant::AhlPlus,
        5,
        vec![0, 4], // the view-0 leader plus a colluder: f = 2 = (n-1)/2
        Attack::Equivocate,
        CryptoMode::Real,
        6,
        75,
    );
    checker.assert_clean();
    assert!(
        sim.stats().counter("consensus.invalid_msg") > 0,
        "the forged (non-attested) certificates must be rejected"
    );
    assert!(
        sim.stats().counter(stat::VIEW_CHANGES) > 0,
        "the committee must depose the equivocating leader"
    );
    assert!(committed > 50, "post-view-change goodput: {committed}");
}

/// View-change regossip (mempool satellite): requests stranded at the
/// deposed Byzantine leader get re-relayed to the new leader, so the
/// equivocating-leader run converges instead of starving.
#[test]
fn viewchange_regossip_rescues_stranded_requests() {
    let (checker, committed, sim) = pbft_cell(
        BftVariant::AhlPlus, // relay mode: requests are forwarded to the leader
        5,
        vec![0],
        Attack::Equivocate,
        CryptoMode::Real,
        6,
        76,
    );
    checker.assert_clean();
    assert!(
        sim.stats().counter(ahl::mempool::stat::VIEWCHANGE_REGOSSIP) > 0,
        "the post-view-change gossip round must re-relay pooled requests"
    );
    assert!(committed > 50, "stranded requests must be re-proposed: {committed}");
}

/// **The canary.** At f = 2 > ⌊(n−1)/3⌋ = 1, an equivocating leader plus
/// one colluding double-voter fork the chain — and the checker records
/// the conflicting commit. This is what proves every green cell above is
/// a real result and not a dead assertion.
#[test]
fn over_threshold_equivocation_trips_the_checker() {
    let (checker, _, sim) =
        pbft_cell(BftVariant::Hl, 4, vec![0, 3], Attack::Equivocate, CryptoMode::CostOnly, 2, 77);
    let violations = checker.violations();
    let fork = violations
        .iter()
        .find(|v| matches!(v, Violation::ConflictingCommit { .. }))
        .unwrap_or_else(|| {
            panic!("f > bound must fork the chain and the checker must see it: {violations:?}")
        });

    // Dump-on-anomaly: the violation localises to a committee, its summary
    // is human-readable, and the flight recorder yields a bounded causal
    // trace for that committee's replicas.
    let committee = fork.committee().expect("fork names a committee");
    assert!(fork.summary().starts_with("conflicting commit"), "{}", fork.summary());
    let limit = 16;
    let dump = sim.stats().recorder().dump(committee * 4..committee * 4 + 4, limit);
    assert!(dump.contains("--- node"), "dump has no per-node sections:\n{dump}");
    for section in dump.split("--- node").skip(1) {
        let events = section.lines().skip(1).filter(|l| l.contains("id=")).count();
        assert!(events <= limit, "dump section exceeds bound ({events} > {limit}):\n{section}");
    }
}

// ------------------------------------------------------- IBFT / Tender --

fn tm_cell(n: usize, byz: usize, attack: Attack, secs: u64, seed: u64) -> (SafetyChecker, u64) {
    let checker = SafetyChecker::new();
    let mut cfg = TmConfig::new(n);
    cfg.byzantine = byz;
    cfg.attack = attack;
    cfg.safety = Some(checker.clone());
    cfg.block_period = SimDuration::from_millis(200);
    cfg.round_timeout = SimDuration::from_millis(800);
    let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
    let (mut sim, group) = build_tm_group(&cfg, net, Some(1e9), seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(secs);
    let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    (checker, sim.stats().counter(stat::TXN_COMMITTED))
}

fn ibft_cell(n: usize, byz: usize, attack: Attack, secs: u64, seed: u64) -> (SafetyChecker, u64) {
    let checker = SafetyChecker::new();
    let mut cfg = IbftConfig::new(n);
    cfg.byzantine = byz;
    cfg.attack = attack;
    cfg.safety = Some(checker.clone());
    cfg.block_period = SimDuration::from_millis(200);
    cfg.round_timeout = SimDuration::from_millis(800);
    let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
    let (mut sim, group) = build_ibft_group(&cfg, net, Some(1e9), seed);
    let stop = SimTime::ZERO + SimDuration::from_secs(secs);
    let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    (checker, sim.stats().counter(stat::TXN_COMMITTED))
}

/// Tendermint × every attack at f = 1 ≤ ⌊(n−1)/3⌋: safe and live. The
/// proposer rotates, so the Byzantine validator periodically holds the
/// strongest (proposer) position in every cell.
#[test]
fn tendermint_attack_matrix_within_bound_is_safe_and_live() {
    for attack in Attack::ALL {
        let (checker, committed) = tm_cell(4, 1, attack, 6, 81);
        checker.assert_clean();
        assert!(checker.commit_records() > 0, "{}: no commits observed", attack.name());
        assert!(committed > 20, "{}: goodput collapsed: {committed}", attack.name());
    }
}

/// IBFT × every attack at f = 1 ≤ ⌊(n−1)/3⌋: safe and live.
#[test]
fn ibft_attack_matrix_within_bound_is_safe_and_live() {
    for attack in Attack::ALL {
        let (checker, committed) = ibft_cell(4, 1, attack, 6, 82);
        checker.assert_clean();
        assert!(checker.commit_records() > 0, "{}: no commits observed", attack.name());
        assert!(committed > 20, "{}: goodput collapsed: {committed}", attack.name());
    }
}

/// Canary, lockstep edition: two colluding Tendermint validators (f = 2 >
/// bound at n = 4) fork a height on the equivocating proposer's turn.
#[test]
fn tendermint_over_threshold_forks_and_checker_fires() {
    let (checker, _) = tm_cell(4, 2, Attack::Equivocate, 6, 83);
    assert!(
        checker
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::ConflictingCommit { .. })),
        "f > bound must fork Tendermint: {:?}",
        checker.violations()
    );
}

/// Canary, IBFT edition.
#[test]
fn ibft_over_threshold_forks_and_checker_fires() {
    let (checker, _) = ibft_cell(4, 2, Attack::Equivocate, 6, 84);
    assert!(
        checker
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::ConflictingCommit { .. })),
        "f > bound must fork IBFT: {:?}",
        checker.violations()
    );
}

// ------------------------------------------------- network adversaries --

/// A scripted partition splits a 4-node committee 2/2 for two seconds:
/// neither side holds a quorum, so nothing commits during the cut, and
/// after the heal the committee resumes with zero safety violations.
#[test]
fn partition_and_heal_never_forks() {
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(BftVariant::Hl, 4);
    cfg.safety = Some(checker.clone());
    cfg.batch_size = 8;
    cfg.vc_timeout = SimDuration::from_millis(400);
    let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
    let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], 91);
    sim.set_interposer(Box::new(ScriptedFaults::new(vec![FaultRule::partition(
        SimTime::ZERO + SimDuration::from_secs(1),
        SimTime::ZERO + SimDuration::from_secs(3),
        vec![group[0], group[1]],
        vec![group[2], group[3]],
    )])));
    let stop = SimTime::ZERO + SimDuration::from_secs(6);
    let client = OpenLoopClient::new(group.clone(), SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    checker.assert_clean();
    assert!(sim.stats().counter("adv.dropped") > 0, "the cut must have cost messages");
    assert!(
        sim.stats().counter(stat::TXN_COMMITTED) > 50,
        "the committee must recover after the heal"
    );
    // All replicas that reached the top height agree byte-for-byte.
    let replicas: Vec<&Replica> = group
        .iter()
        .map(|&id| sim.actor(id).as_any().unwrap().downcast_ref::<Replica>().unwrap())
        .collect();
    let max = replicas.iter().map(|r| r.exec_seq()).max().unwrap();
    assert!(max > 0);
    let digests: Vec<_> = replicas
        .iter()
        .filter(|r| r.exec_seq() == max)
        .map(|r| r.state().state_digest())
        .collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "healed committee diverged");
}

/// A duplication + delay storm on consensus traffic: every protocol
/// message is delivered twice and some are delayed past their successors.
/// Vote sets and the executed-request cache make this invisible — the
/// exactly-once invariant is checked for every request.
#[test]
fn duplication_and_reorder_storm_is_idempotent() {
    let checker = SafetyChecker::new();
    let mut cfg = PbftConfig::new(BftVariant::Hl, 4);
    cfg.safety = Some(checker.clone());
    cfg.batch_size = 8;
    cfg.vc_timeout = SimDuration::from_millis(500);
    let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
    let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], 92);
    sim.set_interposer(Box::new(ScriptedFaults::new(vec![
        FaultRule::duplicate(
            SimTime::ZERO,
            SimTime::MAX,
            FaultMatch::any(),
            1,
            SimDuration::from_millis(2),
        ),
        FaultRule::delay(
            SimTime::ZERO,
            SimTime::MAX,
            FaultMatch::any(),
            SimDuration::ZERO,
            SimDuration::from_millis(4),
        ),
    ])));
    let stop = SimTime::ZERO + SimDuration::from_secs(3);
    let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    checker.assert_clean();
    assert!(sim.stats().counter("adv.duplicated") > 0);
    assert!(sim.stats().counter(stat::TXN_COMMITTED) > 50);
}

// --------------------------------------------------- cross-shard / 2PC --

/// The assembled sharded system under attack from both sides at once:
/// every committee (shards *and* the BFT-replicated reference committee)
/// carries a withholding Byzantine member at the attested bound, and a
/// Byzantine client driver replays every 2PC step and delivers decisions
/// duplicated/reordered. Cross-shard atomicity, conservation and
/// exactly-once execution must all survive.
#[test]
fn sharded_2pc_survives_byzantine_replicas_and_clients() {
    let checker = SafetyChecker::new();
    let mut cfg = SystemConfig::new(3, 4);
    cfg.clients = 6;
    cfg.malicious_clients = 2;
    cfg.outstanding = 12;
    cfg.byzantine = 1; // f = ⌊(4−1)/2⌋ ≥ 1 per attested committee
    cfg.attack = Attack::WithholdVotes;
    cfg.safety = Some(checker.clone());
    cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.5 };
    cfg.duration = SimDuration::from_secs(5);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.batch_size = 20;
    let m = run_system(cfg);
    checker.assert_clean();
    assert_eq!(m.safety_violations, 0);
    assert!(m.committed > 100, "committed {}", m.committed);
    assert!(m.cross_shard_fraction > 0.0, "cross-shard transactions must run");
    // Conservation through the full stack, under both attacks: bounded
    // only by the in-flight window at the drain cutoff.
    let initial: i64 = 2 * 1_000_000 * 1_000;
    let bound = 100 * (6 * 12) as i64;
    let drift = (m.final_balance.expect("smallbank audits") - initial).abs();
    assert!(drift <= bound, "conservation violated: drift {drift}");
}

/// Same system, stale-replay replicas in every committee: replayed old
/// votes are filtered, 2PC stays atomic.
#[test]
fn sharded_2pc_survives_stale_replay_replicas() {
    let checker = SafetyChecker::new();
    let mut cfg = SystemConfig::new(2, 4);
    cfg.clients = 4;
    cfg.outstanding = 8;
    cfg.byzantine = 1;
    cfg.attack = Attack::StaleReplay;
    cfg.safety = Some(checker.clone());
    cfg.workload = SystemWorkload::SmallBank { accounts: 500, theta: 0.0 };
    cfg.duration = SimDuration::from_secs(4);
    cfg.warmup = SimDuration::from_secs(1);
    cfg.batch_size = 20;
    let m = run_system(cfg);
    checker.assert_clean();
    assert!(m.committed > 100, "committed {}", m.committed);
}
