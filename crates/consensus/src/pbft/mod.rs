//! PBFT and its TEE-assisted variants (paper §4.1): HL, AHL, AHL+, AHLR.
//!
//! [`Replica`] is the state machine (`replica`). Its core keeps the
//! configuration, group, keys and enclave log, ledger state, view and
//! sequence marks, protocol instances, pool, batcher and executed-request
//! cache. Each seam is a child module owning its own state:
//! * `replica::checkpoint` — checkpoint votes, the held certificate, the
//!   snapshots, the serving window, and the durable checkpoint with its
//!   node directory and store;
//! * `replica::view_change` — view-change votes, timeout backoff, stall
//!   strikes, the progress mark, the highest view voted for and the last
//!   arrival time;
//! * `replica::sync` — the in-flight state-sync exchange and whether
//!   participation is paused until it completes;
//! * `replica::restart` — the genesis snapshot and the crashed flag;
//! * `replica::byzantine` — the attack state, on a Byzantine replica only.
//!
//! Beside it: `cert` (quorum certificates and the checkpoint vote
//! tracker), `config`, `durable` (the node store: WAL and checkpoint
//! pages), `msg` and `wire` (the message set and its codec).

mod cert;
mod config;
mod durable;
mod msg;
mod replica;
mod wire;

pub use cert::{checkpoint_digest, CertKind, QuorumCert, MAX_SIGNERS};
use config::QUEUE_CAPACITY;
pub use config::{BftVariant, FaultModel, PbftConfig, ReplyPolicy};
pub use durable::NodeStore;
pub use msg::{chunk_entry_bytes, MsgCert, PbftBlock, PbftMsg, ViewChangeMsg, Vote};
pub use replica::Replica;

use std::sync::Arc;

use ahl_crypto::{KeyRegistry, SigningKey};
use ahl_ledger::{StateStore, Value};
use ahl_simkit::{Network, NodeId, QueueConfig, Sim, SimConfig};

/// Everything about one committee member that derives from the run seed.
/// [`derive_committee`] is the only statement of that derivation: the
/// simulator's builders and the `node` binary both go through it, so
/// separately started processes agree on every key with no key exchange.
pub struct Member {
    /// Group index.
    pub index: usize,
    /// The replica's signing key.
    pub key: SigningKey,
    /// Its enclave's signing key.
    pub tee_key: SigningKey,
    /// The committee's shared verification oracle (all 2n keys).
    pub registry: Arc<KeyRegistry>,
    /// Whether it reports the committee's throughput/latency: the
    /// lowest-index replica that is never Byzantine and is not the initial
    /// leader (index 1; index 0 in a committee of one).
    pub reporter: bool,
}

/// Derive the `n` members of the committee seeded with `seed`: all replica
/// keys first, then all TEE keys (registry key ids follow that order).
pub fn derive_committee(n: usize, seed: u64) -> Vec<Member> {
    let mut registry = KeyRegistry::new();
    let keys: Vec<_> = (0..n)
        .map(|i| registry.generate(seed ^ ((i as u64) << 8)))
        .collect();
    let tee_keys: Vec<_> = (0..n)
        .map(|i| registry.generate(seed ^ ((i as u64) << 8) ^ 1))
        .collect();
    let registry = Arc::new(registry);
    keys.into_iter()
        .zip(tee_keys)
        .enumerate()
        .map(|(index, (key, tee_key))| Member {
            index,
            key,
            tee_key,
            registry: registry.clone(),
            reporter: if n == 1 { index == 0 } else { index == 1 },
        })
        .collect()
}

/// Build a simulation containing one PBFT committee.
///
/// Returns the simulation and the replicas' actor ids (group index order).
/// Clients are added by the caller afterwards.
pub fn build_group(
    cfg: &PbftConfig,
    network: Box<dyn Network>,
    uplink_bps: Option<f64>,
    genesis: &[(String, Value)],
    seed: u64,
) -> (Sim<PbftMsg>, Vec<NodeId>) {
    let mut sim_cfg = SimConfig::new(seed);
    sim_cfg.network = network;
    sim_cfg.classify = PbftMsg::class;
    sim_cfg.size_of = PbftMsg::wire_size;
    sim_cfg.uplink_bps = uplink_bps;
    let mut sim = Sim::new(sim_cfg);
    let group = add_committee(&mut sim, cfg, genesis, seed);
    (sim, group)
}

/// Add one PBFT committee to an existing simulation (used by the sharded
/// system where many committees share one simulation). The committee's
/// replicas receive the next `cfg.n` consecutive actor ids.
///
/// The genesis tree is built once and every member starts from a snapshot
/// of it: the committee shares one tree lineage, and copy-on-write keeps
/// each replica's writes its own. `ahl_store`'s view rule spans the whole
/// committee: mutate, clone or drop no member's tree on a thread holding a
/// view of any member's. Each call builds its own tree, so no lineage is
/// shared between simulations.
pub fn add_committee(
    sim: &mut Sim<PbftMsg>,
    cfg: &PbftConfig,
    genesis: &[(String, Value)],
    seed: u64,
) -> Vec<NodeId> {
    let start = sim.num_actors();
    let group: Vec<NodeId> = (start..start + cfg.n).collect();
    let genesis = StateStore::from_entries(genesis.to_vec()).snapshot();
    for member in derive_committee(cfg.n, seed) {
        let queues = if cfg.split_queues {
            QueueConfig::split(QUEUE_CAPACITY, QUEUE_CAPACITY)
        } else {
            QueueConfig::shared(QUEUE_CAPACITY)
        };
        let expected = group[member.index];
        let replica = Replica::from_genesis(cfg.clone(), group.clone(), member, &genesis);
        let id = sim.add_actor(Box::new(replica), queues);
        debug_assert_eq!(id, expected);
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::OpenLoopClient;
    use crate::common::testkit::TestHost;
    use crate::common::{stat, CryptoMode, VotePhase};
    use ahl_crypto::Hash;
    use ahl_ledger::{kvstore, Op, StateSnapshot, TxId};
    use ahl_simkit::{SimDuration, SimTime, UniformNetwork};

    fn kv_factory() -> crate::common::OpFactory {
        let mut i = 0u64;
        Box::new(move |_rng| {
            i += 1;
            Op::Direct {
                txid: TxId(i),
                op: kvstore::kv_write(&[i % 100], 16),
            }
        })
    }

    fn run_variant(variant: BftVariant, n: usize, secs: u64, byz: usize) -> (u64, u64, u64) {
        let mut cfg = PbftConfig::new(variant, n);
        cfg.byzantine = byz;
        cfg.crypto = CryptoMode::Real;
        cfg.batch_size = 10;
        cfg.vc_timeout = SimDuration::from_millis(500);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], 42);
        let stop = SimTime::ZERO + SimDuration::from_secs(secs);
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_millis(2),
            stop,
            kv_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(2));
        (
            sim.stats().counter(stat::TXN_COMMITTED),
            sim.stats().counter(stat::VIEW_CHANGES),
            sim.stats().counter(stat::TXN_ABORTED),
        )
    }

    #[test]
    fn hl_commits_transactions() {
        let (committed, _vc, aborted) = run_variant(BftVariant::Hl, 4, 2, 0);
        assert!(committed > 500, "committed {committed}");
        assert_eq!(aborted, 0);
    }

    #[test]
    fn ahl_commits_transactions() {
        let (committed, vc, _) = run_variant(BftVariant::Ahl, 3, 2, 0);
        assert!(committed > 500, "committed {committed}");
        assert_eq!(vc, 0);
    }

    #[test]
    fn ahl_plus_commits_transactions() {
        let (committed, vc, _) = run_variant(BftVariant::AhlPlus, 5, 2, 0);
        assert!(committed > 500, "committed {committed}");
        assert_eq!(vc, 0);
    }

    #[test]
    fn ahlr_commits_transactions() {
        let (committed, _vc, _) = run_variant(BftVariant::Ahlr, 5, 2, 0);
        assert!(committed > 300, "committed {committed}");
    }

    #[test]
    fn single_node_degenerate_group() {
        let (committed, _, _) = run_variant(BftVariant::Hl, 1, 1, 0);
        assert!(committed > 200, "committed {committed}");
    }

    #[test]
    fn ahl_tolerates_f_withholding_byzantine() {
        // n = 5 attested tolerates f = 2: with 2 Byzantine (withholding)
        // replicas the committee still commits.
        let (committed, _, _) = run_variant(BftVariant::AhlPlus, 5, 3, 2);
        assert!(committed > 200, "committed {committed}");
    }

    #[test]
    fn hl_equivocation_degrades_but_does_not_break_safety() {
        // n = 7 Byzantine model tolerates f = 2 equivocators.
        let (committed, _vc, _) = run_variant(BftVariant::Hl, 7, 3, 2);
        assert!(committed > 50, "committed {committed}");
    }

    #[test]
    fn replicas_agree_on_state() {
        let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 5);
        cfg.crypto = CryptoMode::Real;
        cfg.batch_size = 5;
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_group(&cfg, net, Some(1e9), &[], 7);
        let stop = SimTime::ZERO + SimDuration::from_secs(1);
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_millis(5),
            stop,
            kv_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(3));
        // All honest replicas executed the same prefix: compare states of
        // replicas with equal exec_seq (they all should have caught up at
        // quiescence).
        let digests: Vec<_> = group
            .iter()
            .map(|&id| {
                let r = sim
                    .actor(id)
                    .as_any()
                    .expect("replica supports inspection")
                    .downcast_ref::<Replica>()
                    .expect("replica actor");
                (r.exec_seq(), r.state().state_digest())
            })
            .collect();
        let max_seq = digests.iter().map(|(s, _)| *s).max().expect("non-empty");
        assert!(max_seq > 0);
        for (s, d) in &digests {
            if *s == max_seq {
                assert_eq!(
                    *d,
                    digests
                        .iter()
                        .find(|(s2, _)| *s2 == max_seq)
                        .expect("exists")
                        .1
                );
            }
        }
    }

    /// `derive_committee` is the one statement of how keys and the
    /// reporter follow from `(n, seed)`; spawned `node` processes and
    /// the benchmark's in-process replicas must go on agreeing on all of
    /// it, so the derivation is pinned here against its written-out form —
    /// for one member picked the way `node` picks its own, and for every
    /// member the way `add_committee` walks them.
    #[test]
    fn committee_derivation_is_the_documented_one() {
        let (n, seed) = (4usize, 0xC0FFEE_u64);
        let mut reference = KeyRegistry::new();
        let keys: Vec<_> = (0..n)
            .map(|i| reference.generate(seed ^ ((i as u64) << 8)))
            .collect();
        let tee_keys: Vec<_> = (0..n)
            .map(|i| reference.generate(seed ^ ((i as u64) << 8) ^ 1))
            .collect();
        let digest = ahl_crypto::sha256(b"any message");
        let check = |m: &Member| {
            let i = m.index;
            assert_eq!(
                (m.key.id(), m.tee_key.id()),
                (keys[i].id(), tee_keys[i].id())
            );
            assert_eq!(
                m.key.sign(&digest),
                keys[i].sign(&digest),
                "signing key {i}"
            );
            assert_eq!(
                m.tee_key.sign(&digest),
                tee_keys[i].sign(&digest),
                "TEE key {i}"
            );
            // Same registry contents: each side verifies the other's keys.
            assert_eq!(m.registry.len(), 2 * n);
            assert!(m.registry.verify(&digest, &tee_keys[i].sign(&digest)));
            assert!(reference.verify(&digest, &m.tee_key.sign(&digest)));
            assert_eq!(m.reporter, i == 1);
        };
        let me = 2;
        check(&derive_committee(n, seed).swap_remove(me)); // the `node` way
        let all = derive_committee(n, seed); // the `add_committee` way
        assert_eq!(
            all.iter().map(|m| m.index).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        all.iter().for_each(check);
        assert!(
            derive_committee(1, seed)[0].reporter,
            "a committee of one reports itself"
        );
    }

    /// Deferred batch verification must not let a forged signature vote
    /// count toward a quorum: votes with `MsgCert::Sig` are admitted
    /// tentatively, then settled via [`KeyRegistry::verify_batch`] when
    /// the digest reaches quorum. A forged vote (right key id, wrong
    /// digest signed) must be evicted at settle time — no commit until a
    /// genuine quorum exists.
    #[test]
    fn forged_sig_vote_is_evicted_at_quorum_settle() {
        use ahl_simkit::{Actor, Ctx};

        let mut cfg = PbftConfig::new(BftVariant::Hl, 4);
        cfg.crypto = CryptoMode::Real;
        let mut committee = derive_committee(cfg.n, 42);
        let keys: Vec<SigningKey> = committee.iter().map(|m| m.key.clone()).collect();

        let block = Arc::new(PbftBlock::new(0, 1, 0, vec![]));
        let leader_cert = MsgCert::Sig(keys[0].sign(&block.digest));
        let valid_vote = |replica: usize, keys: &[ahl_crypto::SigningKey]| Vote {
            view: 0,
            seq: 1,
            digest: block.digest,
            replica,
            cert: MsgCert::Sig(keys[replica].sign(&block.digest)),
        };
        let vote2 = valid_vote(2, &keys);
        let vote3_good = valid_vote(3, &keys);
        // Replica 3's genuine key signing the WRONG digest: the signer id
        // matches, the MAC does not — exactly what batch verification has
        // to catch.
        let forged3 = Vote {
            cert: MsgCert::Sig(keys[3].sign(&ahl_crypto::sha256(b"some other block"))),
            ..vote3_good.clone()
        };

        let mut replica = Replica::from_genesis(
            cfg.clone(),
            (0..4).collect(),
            committee.swap_remove(1),
            &StateSnapshot::default(),
        );
        let mut host = TestHost::new(4);
        let deliver = |r: &mut Replica, host: &mut TestHost, from: NodeId, msg: PbftMsg| {
            let mut ctx = Ctx::for_host(host, 1);
            r.on_message(from, msg, &mut ctx);
            ctx.finish().1
        };

        // Leader proposal: replica 1 accepts and multicasts its prepare.
        let out = deliver(
            &mut replica,
            &mut host,
            0,
            PbftMsg::PrePrepare {
                block: block.clone(),
                cert: leader_cert,
            },
        );
        assert!(
            out.iter().any(|(_, m)| matches!(m, PbftMsg::Prepare(_))),
            "follower must prepare after a certified pre-prepare"
        );

        // Forged vote from replica 3 trips the quorum count (leader + self
        // + forged = 2f + 1) — batch settle must reject it and evict the
        // vote, so no commit goes out.
        let out = deliver(&mut replica, &mut host, 3, PbftMsg::Prepare(forged3));
        assert!(
            !out.iter().any(|(_, m)| matches!(m, PbftMsg::Commit(_))),
            "forged vote must not complete a prepare quorum"
        );
        assert_eq!(
            host.stats.counter("consensus.invalid_msg"),
            1,
            "forgery counted"
        );

        // A genuine third vote completes the quorum: commit goes out.
        let out = deliver(&mut replica, &mut host, 2, PbftMsg::Prepare(vote2));
        assert!(
            out.iter().any(|(_, m)| matches!(m, PbftMsg::Commit(_))),
            "genuine quorum must produce a commit"
        );

        // Replica 3 re-voting honestly is counted normally (its forged
        // vote was evicted, not blacklisted) and settles clean.
        let before = host.stats.counter("consensus.invalid_msg");
        deliver(&mut replica, &mut host, 3, PbftMsg::Prepare(vote3_good));
        assert_eq!(host.stats.counter("consensus.invalid_msg"), before);
    }

    /// With a quorum of f + 1, two quick followers can certify a
    /// checkpoint at a third before the leader's pre-prepare for that
    /// height has reached it. The certificate must wait for the blocks in
    /// flight rather than raise the low-water mark over them (which would
    /// refuse their pre-prepare and commit and leave state sync as the
    /// only way on): the follower executes them, then applies it.
    #[test]
    fn checkpoint_certified_just_ahead_waits_for_blocks_in_flight() {
        use ahl_simkit::{Actor, Ctx};

        let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 4);
        cfg.checkpoint_interval = 2;
        let member = derive_committee(cfg.n, 42).swap_remove(1);
        let mut replica = Replica::from_genesis(
            cfg.clone(),
            (0..4).collect(),
            member,
            &StateSnapshot::default(),
        );
        let mut host = TestHost::new(4);
        let deliver = |r: &mut Replica, host: &mut TestHost, from: NodeId, msg: PbftMsg| {
            let mut ctx = Ctx::for_host(host, 1);
            r.on_message(from, msg, &mut ctx);
            ctx.finish().1
        };
        // The leader's pre-prepare and commit vote, with replica 1's own
        // commit vote, are a commit quorum of 2.
        let commit_block = |r: &mut Replica, host: &mut TestHost, seq: u64| {
            let block = Arc::new(PbftBlock::new(0, seq, 0, vec![]));
            let digest = block.digest;
            let mut out = deliver(
                r,
                host,
                0,
                PbftMsg::PrePrepare {
                    block,
                    cert: MsgCert::Simulated,
                },
            );
            let vote = Vote {
                view: 0,
                seq,
                digest,
                replica: 0,
                cert: MsgCert::Simulated,
            };
            out.extend(deliver(r, host, 0, PbftMsg::Commit(vote)));
            out
        };
        commit_block(&mut replica, &mut host, 1);
        assert_eq!(replica.exec_seq(), 1);

        // Replicas 2 and 3 executed height 2 first: their votes certify it
        // here while block 2 is still on its way from the leader.
        let root = replica.state().state_digest();
        for voter in [2, 3] {
            let vote = QuorumCert::checkpoint_vote(2, root, voter, None);
            deliver(&mut replica, &mut host, voter, PbftMsg::Checkpoint { vote });
        }
        assert_eq!(
            host.stats.counter(stat::CKPT_CERTS),
            0,
            "applied above the execution point"
        );

        let out = commit_block(&mut replica, &mut host, 2);
        assert_eq!(replica.exec_seq(), 2, "the block in flight was refused");
        assert_eq!(
            host.stats.counter(stat::CKPT_CERTS),
            1,
            "the held certificate applies"
        );
        assert!(
            !out.iter()
                .any(|(_, m)| matches!(m, PbftMsg::SyncRequest { .. })),
            "caught up by state sync instead of by execution"
        );
    }

    /// A replica hashes its state tree where the root is read, not at
    /// every block end: after k < `checkpoint_interval` executed blocks of
    /// writes the tree is still stale, so nothing was hashed since genesis.
    /// At the checkpoint height it votes for the root a bulk build of the
    /// same content commits to.
    #[test]
    fn state_tree_is_hashed_once_per_checkpoint_interval() {
        use crate::common::Request;
        use ahl_ledger::StateStore;
        use ahl_simkit::{Actor, Ctx};

        let mut cfg = PbftConfig::new(BftVariant::AhlPlus, 4);
        cfg.checkpoint_interval = 4;
        let member = derive_committee(cfg.n, 42).swap_remove(1);
        let mut replica = Replica::from_genesis(
            cfg.clone(),
            (0..4).collect(),
            member,
            &StateSnapshot::default(),
        );
        let mut host = TestHost::new(5);
        let client = 4;
        // Leader 0's pre-prepare and commit vote, with replica 1's own
        // commit vote, commit a block of three single-key writes.
        let mut commit_block = |r: &mut Replica, seq: u64| {
            let reqs = (0..3)
                .map(|j| {
                    let n = seq * 3 + j;
                    Request {
                        id: Request::make_id(client, n as u32),
                        client,
                        op: Op::Direct {
                            txid: TxId(n),
                            op: kvstore::kv_write(&[n], 16),
                        },
                        submitted: SimTime::ZERO,
                    }
                })
                .collect();
            let block = Arc::new(PbftBlock::new(0, seq, 0, reqs));
            let vote = Vote {
                view: 0,
                seq,
                digest: block.digest,
                replica: 0,
                cert: MsgCert::Simulated,
            };
            let mut out = Vec::new();
            for msg in [
                PbftMsg::PrePrepare {
                    block,
                    cert: MsgCert::Simulated,
                },
                PbftMsg::Commit(vote),
            ] {
                let mut ctx = Ctx::for_host(&mut host, 1);
                r.on_message(0, msg, &mut ctx);
                out.extend(ctx.finish().1);
            }
            assert_eq!(r.exec_seq(), seq);
            out
        };
        for seq in 1..cfg.checkpoint_interval {
            commit_block(&mut replica, seq);
            assert!(
                !replica.state().smt().is_fresh(),
                "the tree was hashed at block {seq}"
            );
        }
        let out = commit_block(&mut replica, cfg.checkpoint_interval);
        let voted = out
            .iter()
            .find_map(|(_, m)| match m {
                PbftMsg::Checkpoint { vote } => Some(vote.digest),
                _ => None,
            })
            .expect("a checkpoint vote at the checkpoint height");
        let entries = replica
            .state()
            .smt()
            .view()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        assert_eq!(voted, StateStore::from_entries(entries).state_digest());
        assert_eq!(replica.state().len(), 3 * cfg.checkpoint_interval as usize);
    }

    /// AHLR commits on the leader enclave's aggregate of a commit quorum,
    /// the block's commit certificate. An `AggCommit` from a non-leader,
    /// for a block nobody but the leader voted on, is refused; so is, in
    /// `Real` mode, an unsigned aggregate, one signed by another member's
    /// enclave, one naming a non-leader, and a prepare aggregate offered
    /// as a commit. The leader enclave's own aggregate commits.
    #[test]
    fn forged_aggregate_commit() {
        use ahl_simkit::{Actor, Ctx};
        use ahl_tee::{AttestedLog, LogId, Slot};

        let commits = |crypto: CryptoMode, from: NodeId, cert: &dyn Fn(Hash) -> QuorumCert| {
            let mut cfg = PbftConfig::new(BftVariant::Ahlr, 3);
            cfg.crypto = crypto;
            let members = derive_committee(cfg.n, 42);
            let block = Arc::new(PbftBlock::new(0, 1, 0, vec![]));
            let leader_cert = match crypto {
                CryptoMode::Real => MsgCert::Attested(
                    AttestedLog::new(members[0].tee_key.clone())
                        .append(LogId(3), Slot { view: 0, seq: 1 }, block.digest)
                        .expect("fresh slot"),
                ),
                CryptoMode::CostOnly => MsgCert::Simulated,
            };
            let agg = PbftMsg::AggCommit(cert(block.digest));
            let mut replica = Replica::from_genesis(
                cfg.clone(),
                (0..3).collect(),
                members.into_iter().nth(1).expect("member 1"),
                &StateSnapshot::default(),
            );
            let mut host = TestHost::new(3);
            for (sender, msg) in [
                (
                    0,
                    PbftMsg::PrePrepare {
                        block,
                        cert: leader_cert,
                    },
                ),
                (from, agg),
            ] {
                let mut ctx = Ctx::for_host(&mut host, 1);
                replica.on_message(sender, msg, &mut ctx);
            }
            replica.exec_seq() == 1
        };
        let members = derive_committee(3, 42);
        let aggregate = |phase: VotePhase, log: u32, enclave: usize, signer: usize| {
            let tee_key = members[enclave].tee_key.clone();
            move |digest: Hash| {
                let proof = match AttestedLog::new(tee_key.clone()).append(
                    LogId(log),
                    Slot { view: 0, seq: 1 },
                    digest,
                ) {
                    Ok(att) => MsgCert::Attested(att),
                    Err(_) => MsgCert::Simulated,
                };
                QuorumCert {
                    kind: CertKind::Aggregate(phase),
                    view: 0,
                    seq: 1,
                    digest,
                    signers: vec![(signer, proof)],
                }
            }
        };
        let unsigned = |signer: usize| {
            move |digest: Hash| QuorumCert {
                kind: CertKind::Aggregate(VotePhase::Commit),
                view: 0,
                seq: 1,
                digest,
                signers: vec![(signer, MsgCert::Simulated)],
            }
        };
        assert!(
            !commits(CryptoMode::CostOnly, 2, &unsigned(2)),
            "a non-leader's aggregate"
        );
        assert!(
            !commits(CryptoMode::CostOnly, 2, &unsigned(0)),
            "the leader's, sent by another"
        );
        assert!(
            commits(CryptoMode::CostOnly, 0, &unsigned(0)),
            "cost-only control"
        );
        assert!(
            !commits(CryptoMode::Real, 0, &unsigned(0)),
            "an unsigned aggregate"
        );
        let commit = VotePhase::Commit;
        assert!(
            !commits(CryptoMode::Real, 0, &aggregate(commit, 5, 2, 0)),
            "another enclave's"
        );
        assert!(
            !commits(CryptoMode::Real, 0, &aggregate(commit, 5, 2, 2)),
            "a non-leader signer"
        );
        assert!(
            !commits(CryptoMode::Real, 0, &aggregate(commit, 4, 0, 0)),
            "a prepare attestation"
        );
        assert!(
            !commits(CryptoMode::Real, 0, &aggregate(VotePhase::Prepare, 4, 0, 0)),
            "a prepare kind"
        );
        assert!(
            commits(CryptoMode::Real, 0, &aggregate(commit, 5, 0, 0)),
            "the leader enclave's"
        );
    }

    /// `add_committee` builds a committee's genesis tree once, and every
    /// member starts from a snapshot of it: one lineage for the committee.
    /// Each member begins at the bulk build's root, its writes stay its own
    /// (copy-on-write), and a cold restart — no data dir, no durable
    /// checkpoint — clones the genesis snapshot back while its peers keep
    /// their post-load roots. `Replica::new` over the same slice, in a tree
    /// of its own, reaches the same root.
    #[test]
    fn a_committee_shares_one_genesis_lineage() {
        use ahl_ledger::smallbank;
        use ahl_simkit::Ctx;

        let genesis = smallbank::genesis(50, 1_000, 500);
        let genesis_root = StateStore::from_entries(genesis.clone()).state_digest();
        let mut cfg = PbftConfig::new(BftVariant::Hl, 4);
        cfg.batch_size = 10;
        // No checkpoint certifies during the run, so a restart is cold.
        cfg.checkpoint_interval = 10_000;
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_group(&cfg, net, Some(1e9), &genesis, 5);
        let roots = |sim: &Sim<PbftMsg>| -> Vec<(u64, Hash)> {
            group
                .iter()
                .map(|&id| {
                    let r = sim
                        .actor(id)
                        .as_any()
                        .and_then(|a| a.downcast_ref::<Replica>())
                        .expect("replica actor");
                    (r.exec_seq(), r.state().state_digest())
                })
                .collect()
        };
        assert!(roots(&sim).iter().all(|&r| r == (0, genesis_root)));

        let stop = SimTime::ZERO + SimDuration::from_secs(1);
        let client = OpenLoopClient::new(
            group.clone(),
            SimDuration::from_millis(2),
            stop,
            kv_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(1));
        let loaded = roots(&sim);
        assert!(loaded
            .iter()
            .all(|&(seq, root)| seq > 0 && root != genesis_root));

        let (crashed, controller) = (2, 99);
        let mut host = TestHost::new(group.len() + 1);
        for msg in [PbftMsg::Crash, PbftMsg::Restart] {
            let mut ctx = Ctx::for_host(&mut host, group[crashed]);
            sim.actor_mut(group[crashed])
                .on_message(controller, msg, &mut ctx);
        }
        for (i, now) in roots(&sim).into_iter().enumerate() {
            let want = if i == crashed {
                (0, genesis_root)
            } else {
                loaded[i]
            };
            assert_eq!(now, want, "replica {i}");
        }

        let member = derive_committee(cfg.n, 5).swap_remove(0);
        let alone = Replica::new(
            cfg.clone(),
            group.clone(),
            0,
            member.key,
            member.tee_key,
            member.registry,
            &genesis,
            member.reporter,
        );
        assert_eq!(alone.state().state_digest(), genesis_root);
    }

    /// State sync is a conversation among committee members. A syncing
    /// replica (restarted, so at genesis and waiting for a tail or a
    /// manifest) must not execute a block tail a non-member sends — any
    /// client, or any TCP peer of a `node`, could otherwise feed it
    /// blocks — and a sync request is answered only to the member that
    /// sent it, not to whichever index its body names.
    #[test]
    fn sync_messages_from_outside_the_committee_are_dropped() {
        use crate::common::Request;
        use ahl_simkit::{Actor, Ctx};

        let cfg = PbftConfig::new(BftVariant::Hl, 4);
        let member = derive_committee(cfg.n, 42).swap_remove(1);
        let mut replica = Replica::from_genesis(
            cfg.clone(),
            (0..4).collect(),
            member,
            &StateSnapshot::default(),
        );
        let mut host = TestHost::new(5);
        let deliver = |r: &mut Replica, host: &mut TestHost, from: NodeId, msg: PbftMsg| {
            let mut ctx = Ctx::for_host(host, 1);
            r.on_message(from, msg, &mut ctx);
            ctx.finish().1
        };
        let (client, controller) = (4, 99);
        deliver(&mut replica, &mut host, controller, PbftMsg::Crash);
        deliver(&mut replica, &mut host, controller, PbftMsg::Restart);

        // A request naming replica 2, sent by replica 3 (or by a client),
        // gets no answer at all.
        let forged = PbftMsg::SyncRequest {
            requester: 2,
            have_seq: 0,
            full: false,
            old_roots: vec![],
        };
        let answer = deliver(&mut replica, &mut host, 3, forged.clone());
        assert!(answer.is_empty(), "answered a forged requester");
        assert!(
            deliver(&mut replica, &mut host, client, forged).is_empty(),
            "answered a client"
        );

        let req = Request {
            id: Request::make_id(client, 1),
            client,
            op: Op::Direct {
                txid: TxId(1),
                op: kvstore::kv_write(&[7], 16),
            },
            submitted: SimTime::ZERO,
        };
        let block = Arc::new(PbftBlock::new(0, 1, 0, vec![req]));
        let commit_quorum = (0..3).map(|i| (i, MsgCert::Simulated)).collect();
        let cert = QuorumCert {
            kind: CertKind::Commit,
            view: 0,
            seq: 1,
            digest: block.digest,
            signers: commit_quorum,
        };
        let tail = PbftMsg::SyncTail {
            blocks: vec![(block, cert)],
            view: 0,
        };
        let genesis_root = replica.state().state_digest();
        deliver(&mut replica, &mut host, client, tail.clone());
        assert_eq!(replica.exec_seq(), 0, "a client's tail must not execute");
        assert_eq!(replica.state().state_digest(), genesis_root);

        // Control: the same tail from a member is executed.
        deliver(&mut replica, &mut host, 0, tail);
        assert_eq!(replica.exec_seq(), 1, "a member's tail executes");
        assert_ne!(replica.state().state_digest(), genesis_root);
    }
}
