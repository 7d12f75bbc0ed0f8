//! Golden rounds: the lockstep baselines (IBFT, Tendermint) pinned cell by
//! cell. Every constant below was computed at the commit *before* the two
//! protocols were folded into one round engine, so "byte-identical
//! simulated output" is a test for them too: each cell asserts the
//! committed count, the block count, the safety oracle's commit records
//! and violation count, and the SHA-256 of the flight-recorder
//! fingerprint (every stamped event of the run, in order). Each cell runs
//! twice, so a nondeterministic engine fails on its own terms rather than
//! against a stale constant.

use ahl::consensus::adversary::{Attack, SafetyChecker};
use ahl::consensus::clients::OpenLoopClient;
use ahl::consensus::ibft::{build_ibft_group, IbftConfig};
use ahl::consensus::tendermint::{build_tm_group, TmConfig};
use ahl::consensus::{stat, ClientProtocol, OpFactory};
use ahl::crypto::sha256;
use ahl::ledger::{kvstore, Op, TxId};
use ahl::simkit::{NodeId, QueueConfig, Sim, SimDuration, SimTime, UniformNetwork};

/// What one cell pins: `txn.committed`, `consensus.blocks`,
/// `commit_records()`, violations, fingerprint hash.
type Cell = (u64, u64, u64, usize, String);

fn kv_factory() -> OpFactory {
    let mut i = 0u64;
    Box::new(move |_rng| {
        i += 1;
        Op::Direct { txid: TxId(i), op: kvstore::kv_write(&[i % 64], 16) }
    })
}

fn net() -> Box<UniformNetwork> {
    Box::new(UniformNetwork::new(SimDuration::from_micros(300)))
}

/// 5 s of open-loop load (one request every 3 ms) plus a 3 s drain.
fn drive<M: ClientProtocol + Clone + Send + 'static>(
    (mut sim, group): (Sim<M>, Vec<NodeId>),
    checker: &SafetyChecker,
) -> Cell {
    let stop = SimTime::ZERO + SimDuration::from_secs(5);
    let client = OpenLoopClient::new(group, SimDuration::from_millis(3), stop, kv_factory());
    sim.add_actor(Box::new(client), QueueConfig::unbounded());
    sim.run_until(stop + SimDuration::from_secs(3));
    (
        sim.stats().counter(stat::TXN_COMMITTED),
        sim.stats().counter(stat::BLOCKS_COMMITTED),
        checker.commit_records(),
        checker.violations().len(),
        sha256(sim.stats().recorder().fingerprint().as_bytes()).to_hex(),
    )
}

fn ibft_cell(byz: usize, attack: Attack) -> Cell {
    let checker = SafetyChecker::new();
    let mut cfg = IbftConfig::new(4);
    cfg.byzantine = byz;
    cfg.attack = attack;
    cfg.safety = Some(checker.clone());
    cfg.block_period = SimDuration::from_millis(200);
    cfg.round_timeout = SimDuration::from_millis(800);
    drive(build_ibft_group(&cfg, net(), Some(1e9), 82), &checker)
}

fn tm_cell(byz: usize, attack: Attack) -> Cell {
    let checker = SafetyChecker::new();
    let mut cfg = TmConfig::new(4);
    cfg.byzantine = byz;
    cfg.attack = attack;
    cfg.safety = Some(checker.clone());
    cfg.block_period = SimDuration::from_millis(200);
    cfg.round_timeout = SimDuration::from_millis(800);
    drive(build_tm_group(&cfg, net(), Some(1e9), 81), &checker)
}

/// A [`Cell`] as a constant.
type Want = (u64, u64, u64, usize, &'static str);

fn pin(name: &str, run: impl Fn() -> Cell, want: Want) {
    let got = run();
    assert_eq!(got, run(), "{name}: two runs of one seed differ");
    let (committed, blocks, records, violations, fp) = want;
    assert_eq!(got, (committed, blocks, records, violations, fp.to_string()), "{name}");
}

#[test]
fn ibft_cells_match_the_parent() {
    pin("clean", || ibft_cell(0, Attack::default()), IBFT_CLEAN);
    pin("f=1 equivocate", || ibft_cell(1, Attack::Equivocate), IBFT_EQUIVOCATE);
    pin("f=1 withhold", || ibft_cell(1, Attack::WithholdVotes), IBFT_WITHHOLD);
    pin("f=1 stale-replay", || ibft_cell(1, Attack::StaleReplay), IBFT_STALE_REPLAY);
    pin("f=2 equivocate (canary)", || ibft_cell(2, Attack::Equivocate), IBFT_CANARY);
}

#[test]
fn tendermint_cells_match_the_parent() {
    pin("clean", || tm_cell(0, Attack::default()), TM_CLEAN);
    pin("f=1 equivocate", || tm_cell(1, Attack::Equivocate), TM_EQUIVOCATE);
    pin("f=1 withhold", || tm_cell(1, Attack::WithholdVotes), TM_WITHHOLD);
    pin("f=1 stale-replay", || tm_cell(1, Attack::StaleReplay), TM_STALE_REPLAY);
    pin("f=2 equivocate (canary)", || tm_cell(2, Attack::Equivocate), TM_CANARY);
}

const IBFT_CLEAN: Want =
    (1667, 26, 104, 0, "cdc1167a9ae16f98cb9652481735e211fd658d2e704c99ae929bfd63c35a05d1");
const IBFT_EQUIVOCATE: Want =
    (203, 4, 10, 0, "0f6e91ec964b381e39ac47bd17ecb87bf721886de11f6664c1782ba7a8848c50");
const IBFT_WITHHOLD: Want =
    (1667, 26, 78, 0, "cc42517f1e4a945edd963dd78d5b3ec8514a777a8894014c84f5706d9fe5ebd1");
const IBFT_STALE_REPLAY: Want =
    (1667, 26, 78, 0, "8188c21e1fa65e0a2d0eca8447c35ba4cd372fe9133446ffed1af13cec5a064e");
const IBFT_CANARY: Want =
    (67, 2, 4, 1, "40298c330f0e6b8ec401dad7ae30f952e4f9b5831aae544805460b330fccc2fb");

const TM_CLEAN: Want =
    (1667, 26, 104, 0, "32970a4a78974150312d8531f07a8b21c3f67b077c7e29d38729ade0023701aa");
const TM_EQUIVOCATE: Want =
    (1667, 11, 24, 0, "c9f1308c9c76b6fbda2eacb72db9166d3747cd34b2ccc5b9424f8b40057aad2f");
const TM_WITHHOLD: Want =
    (1667, 26, 78, 0, "1ef283bbb0d300b3aad336e6d5231e1096461b614b95da29dccf243e7a46e452");
const TM_STALE_REPLAY: Want =
    (1667, 26, 78, 0, "c7a45fd3abfb5a5fd45abb4ea0100f809abd560414401c4ae5ddbc0913178c79");
const TM_CANARY: Want =
    (1667, 10, 20, 1, "2d1688800f7dafc6d42a5d97689b5abaa75c49423411a2262cfe18203013c4be");
