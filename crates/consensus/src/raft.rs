//! Raft as integrated in Quorum (Figure 2 baseline).
//!
//! Crash-fault-tolerant log replication with terms, elections and
//! heartbeats. The Quorum integration property the paper highlights
//! (Appendix C.2) is preserved: **a node first constructs a block, then
//! runs Raft to finalize it, and only constructs the next block after
//! finalization** — lockstep, no pipelining — plus EVM execution costs.
//! Transactions are forwarded to the leader (no gossip storm), which is
//! why Raft's request path is cheap; its throughput ceiling comes from the
//! lockstep minting loop.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ahl_ledger::StateStore;
use ahl_simkit::{Actor, Ctx, MsgClass, NodeId, SimDuration};

use crate::clients::ClientProtocol;
use crate::common::{stat, Request};

/// Raft wire messages.
#[derive(Clone, Debug)]
pub enum RaftMsg {
    /// Client → node: transaction submission.
    Request(Request),
    /// Node → leader: forwarded transaction.
    Forward(Request),
    /// Leader → follower: replicate a block at `index`.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Log index of this block.
        index: u64,
        /// The block (empty = heartbeat).
        block: Arc<Vec<Request>>,
        /// Leader's commit index.
        commit_index: u64,
        /// Leader id (group index).
        leader: usize,
    },
    /// Follower → leader: acknowledgement.
    AppendAck {
        /// Term.
        term: u64,
        /// Acknowledged index.
        index: u64,
        /// Follower id.
        follower: usize,
    },
    /// Candidate → all: request vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Candidate id.
        candidate: usize,
        /// Candidate's last log index.
        last_index: u64,
    },
    /// Voter → candidate: vote granted.
    VoteGranted {
        /// Term.
        term: u64,
        /// Voter id.
        voter: usize,
    },
    /// Reply to client.
    Reply {
        /// Request id.
        req_id: u64,
        /// Commit status.
        committed: bool,
    },
}

impl RaftMsg {
    /// Queue class.
    pub fn class(&self) -> MsgClass {
        match self {
            RaftMsg::Request(_) | RaftMsg::Forward(_) | RaftMsg::Reply { .. } => MsgClass::REQUEST,
            _ => MsgClass::CONSENSUS,
        }
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        match self {
            RaftMsg::Request(r) | RaftMsg::Forward(r) => 250 + r.op.wire_size(),
            RaftMsg::AppendEntries { block, .. } => {
                100 + block.iter().map(|r| 64 + r.op.wire_size()).sum::<usize>()
            }
            RaftMsg::AppendAck { .. } | RaftMsg::VoteGranted { .. } => 60,
            RaftMsg::RequestVote { .. } => 80,
            RaftMsg::Reply { .. } => 100,
        }
    }
}

impl ClientProtocol for RaftMsg {
    fn make_request(req: Request) -> Self {
        RaftMsg::Request(req)
    }
    fn reply_id(&self) -> Option<u64> {
        match self {
            RaftMsg::Reply { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }
}

/// Raft node configuration.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Cluster size (majority quorum).
    pub n: usize,
    /// Max transactions per block.
    pub max_block_txns: usize,
    /// Minting interval: Quorum's Raft builds a block every 50 ms when
    /// transactions are pending.
    pub mint_interval: SimDuration,
    /// Heartbeat interval.
    pub heartbeat: SimDuration,
    /// Election timeout base (randomized per node).
    pub election_timeout: SimDuration,
    /// EVM execution + Merkle update cost per state access.
    pub exec_cost_per_op: SimDuration,
    /// RPC ingest cost.
    pub ingest_cost: SimDuration,
    /// Message authentication cost (TLS channel, cheap).
    pub msg_cost: SimDuration,
}

impl RaftConfig {
    /// Defaults matching the Figure 2 comparison.
    pub fn new(n: usize) -> Self {
        RaftConfig {
            n,
            max_block_txns: 100,
            mint_interval: SimDuration::from_millis(50),
            heartbeat: SimDuration::from_millis(150),
            election_timeout: SimDuration::from_millis(600),
            exec_cost_per_op: SimDuration::from_micros(500),
            ingest_cost: SimDuration::from_micros(500),
            msg_cost: SimDuration::from_micros(10),
        }
    }

    /// Majority quorum.
    pub fn quorum(&self) -> usize {
        self.n / 2 + 1
    }
}

const TIMER_MINT: u64 = 1;
const TIMER_HEARTBEAT: u64 = 2;
const TIMER_ELECTION: u64 = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// A Raft node with Quorum-style block minting.
pub struct RaftNode {
    cfg: RaftConfig,
    group: Vec<NodeId>,
    me: usize,
    reporter: bool,
    /// Marked crashed by fault-injection tests: drops all traffic.
    crashed: bool,

    role: Role,
    term: u64,
    votes: HashSet<usize>,
    leader_hint: Option<usize>,
    last_leader_contact_epoch: u64,

    log: Vec<Arc<Vec<Request>>>,
    acks: HashMap<u64, HashSet<usize>>,
    commit_index: u64,
    applied_index: u64,
    /// Lockstep flag: a block is in flight, don't mint another.
    in_flight: bool,

    pool: VecDeque<Request>,
    pool_ids: HashSet<u64>,
    executed: HashSet<u64>,
    state: StateStore,
}

impl RaftNode {
    /// Create a node; node 0 starts as leader of term 1 (stable-leader
    /// deployments like Quorum bootstrap with a designated minter).
    pub fn new(cfg: RaftConfig, group: Vec<NodeId>, me: usize, reporter: bool) -> Self {
        let role = if me == 0 {
            Role::Leader
        } else {
            Role::Follower
        };
        RaftNode {
            cfg,
            group,
            me,
            reporter,
            crashed: false,
            role,
            term: 1,
            votes: HashSet::new(),
            leader_hint: Some(0),
            last_leader_contact_epoch: 0,
            log: Vec::new(),
            acks: HashMap::new(),
            commit_index: 0,
            applied_index: 0,
            in_flight: false,
            pool: VecDeque::new(),
            pool_ids: HashSet::new(),
            executed: HashSet::new(),
            state: StateStore::new(),
        }
    }

    /// Crash this node (fault injection: it stops responding).
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// Current role name (post-run inspection).
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Applied log index (post-run inspection).
    pub fn applied_index(&self) -> u64 {
        self.applied_index
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    fn others(&self) -> Vec<NodeId> {
        let mine = self.group[self.me];
        self.group.iter().copied().filter(|&g| g != mine).collect()
    }

    fn mint(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        if self.role != Role::Leader || self.in_flight {
            return;
        }
        let mut batch = Vec::new();
        while batch.len() < self.cfg.max_block_txns {
            let Some(r) = self.pool.pop_front() else {
                break;
            };
            self.pool_ids.remove(&r.id);
            if self.executed.contains(&r.id) {
                continue;
            }
            batch.push(r);
        }
        if batch.is_empty() {
            return;
        }
        // Quorum executes the block in the EVM while constructing it.
        let weight: usize = batch.iter().map(|r| r.op.weight()).sum();
        let exec = self.cfg.exec_cost_per_op.saturating_mul(weight as u64);
        ctx.consume_cpu(exec);
        ctx.stats().inc(stat::EXEC_CPU_NS, exec.as_nanos());

        let block = Arc::new(batch);
        self.log.push(block.clone());
        let index = self.log.len() as u64;
        self.in_flight = true;
        self.acks.entry(index).or_default().insert(self.me);
        ctx.multicast(
            self.others(),
            RaftMsg::AppendEntries {
                term: self.term,
                index,
                block,
                commit_index: self.commit_index,
                leader: self.me,
            },
        );
    }

    fn apply_committed(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        while self.applied_index < self.commit_index {
            let idx = self.applied_index as usize;
            let Some(block) = self.log.get(idx).cloned() else {
                break;
            };
            self.applied_index += 1;
            let mut committed = 0u64;
            let mut weight = 0usize;
            for req in block.iter() {
                if !self.executed.insert(req.id) {
                    continue;
                }
                self.pool_ids.remove(&req.id);
                weight += req.op.weight();
                if self.state.execute(&req.op).status.is_committed() {
                    committed += 1;
                }
                if self.reporter {
                    let lat = ctx.now().since(req.submitted);
                    ctx.stats().record_latency(stat::TXN_LATENCY, lat);
                }
            }
            if self.role != Role::Leader {
                // Followers replay the EVM execution on apply.
                let exec = self.cfg.exec_cost_per_op.saturating_mul(weight as u64);
                ctx.consume_cpu(exec);
                ctx.stats().inc(stat::EXEC_CPU_NS, exec.as_nanos());
            }
            if self.reporter {
                let now = ctx.now();
                ctx.stats().inc(stat::TXN_COMMITTED, committed);
                ctx.stats().inc(stat::BLOCKS_COMMITTED, 1);
                ctx.stats()
                    .record_point(stat::COMMIT_SERIES, now, committed as f64);
            }
        }
    }

    fn pool_tx(&mut self, req: Request) {
        if self.executed.contains(&req.id) || !self.pool_ids.insert(req.id) {
            return;
        }
        self.pool.push_back(req);
    }

    fn become_candidate(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.role = Role::Candidate;
        self.term += 1;
        self.votes.clear();
        self.votes.insert(self.me);
        ctx.stats().inc("raft.elections", 1);
        ctx.multicast(
            self.others(),
            RaftMsg::RequestVote {
                term: self.term,
                candidate: self.me,
                last_index: self.log.len() as u64,
            },
        );
        self.arm_election_timer(ctx);
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.last_leader_contact_epoch += 1;
        let epoch = self.last_leader_contact_epoch;
        // Randomized timeout (deterministic per node index) avoids split
        // votes.
        let spread = SimDuration::from_millis(37 * (self.me as u64 + 1) % 400);
        ctx.set_timer(
            self.cfg.election_timeout + spread,
            TIMER_ELECTION | (epoch << 8),
        );
    }
}

impl Actor for RaftNode {
    type Msg = RaftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        ctx.set_timer(self.cfg.mint_interval, TIMER_MINT);
        if self.role == Role::Leader {
            ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
        } else {
            self.arm_election_timer(ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: RaftMsg, ctx: &mut Ctx<'_, RaftMsg>) {
        if self.crashed {
            return;
        }
        match msg {
            RaftMsg::Request(req) => {
                ctx.consume_cpu(self.cfg.ingest_cost);
                ctx.stats()
                    .inc(stat::CONSENSUS_CPU_NS, self.cfg.ingest_cost.as_nanos());
                if self.role == Role::Leader {
                    self.pool_tx(req);
                    self.mint(ctx);
                } else if let Some(hint) = self.leader_hint {
                    ctx.send(self.group[hint], RaftMsg::Forward(req));
                } else {
                    self.pool_tx(req);
                }
            }
            RaftMsg::Forward(req) => {
                ctx.consume_cpu(self.cfg.msg_cost);
                if self.role == Role::Leader {
                    self.pool_tx(req);
                    self.mint(ctx);
                }
            }
            RaftMsg::AppendEntries {
                term,
                index,
                block,
                commit_index,
                leader,
            } => {
                if term < self.term {
                    return;
                }
                ctx.consume_cpu(self.cfg.msg_cost);
                self.term = term;
                self.role = Role::Follower;
                self.leader_hint = Some(leader);
                self.arm_election_timer(ctx);
                if !block.is_empty() {
                    let expect = self.log.len() as u64 + 1;
                    if index == expect {
                        self.log.push(block);
                        ctx.send(
                            self.group[leader],
                            RaftMsg::AppendAck {
                                term,
                                index,
                                follower: self.me,
                            },
                        );
                    } else if index <= self.log.len() as u64 {
                        // Duplicate: re-ack.
                        ctx.send(
                            self.group[leader],
                            RaftMsg::AppendAck {
                                term,
                                index,
                                follower: self.me,
                            },
                        );
                    }
                    // Gaps are ignored; the leader is lockstep so gaps only
                    // occur across leader changes, resolved by retransmit.
                }
                if commit_index > self.commit_index {
                    self.commit_index = commit_index.min(self.log.len() as u64);
                    self.apply_committed(ctx);
                }
            }
            RaftMsg::AppendAck {
                term,
                index,
                follower,
            } => {
                if term != self.term || self.role != Role::Leader {
                    return;
                }
                ctx.consume_cpu(self.cfg.msg_cost);
                let acks = self.acks.entry(index).or_default();
                acks.insert(follower);
                if acks.len() >= self.cfg.quorum() && index > self.commit_index {
                    self.commit_index = index;
                    self.in_flight = false;
                    self.apply_committed(ctx);
                    // Lockstep: next block only now.
                    self.mint(ctx);
                }
            }
            RaftMsg::RequestVote {
                term,
                candidate,
                last_index,
            } => {
                ctx.consume_cpu(self.cfg.msg_cost);
                if term > self.term && last_index >= self.commit_index {
                    self.term = term;
                    self.role = Role::Follower;
                    ctx.send(
                        self.group[candidate],
                        RaftMsg::VoteGranted {
                            term,
                            voter: self.me,
                        },
                    );
                    self.arm_election_timer(ctx);
                }
            }
            RaftMsg::VoteGranted { term, voter } => {
                if term != self.term || self.role != Role::Candidate {
                    return;
                }
                self.votes.insert(voter);
                if self.votes.len() >= self.cfg.quorum() {
                    self.role = Role::Leader;
                    self.leader_hint = Some(self.me);
                    self.in_flight = false;
                    ctx.stats().inc("raft.leader_changes", 1);
                    ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
                    self.mint(ctx);
                }
            }
            RaftMsg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, RaftMsg>) {
        if self.crashed {
            return;
        }
        match kind & 0xff {
            TIMER_MINT => {
                self.mint(ctx);
                ctx.set_timer(self.cfg.mint_interval, TIMER_MINT);
            }
            TIMER_HEARTBEAT if self.role == Role::Leader => {
                ctx.multicast(
                    self.others(),
                    RaftMsg::AppendEntries {
                        term: self.term,
                        index: 0,
                        block: Arc::new(Vec::new()),
                        commit_index: self.commit_index,
                        leader: self.me,
                    },
                );
                ctx.set_timer(self.cfg.heartbeat, TIMER_HEARTBEAT);
            }
            TIMER_ELECTION => {
                if (kind >> 8) != self.last_leader_contact_epoch {
                    return; // leader contact re-armed the timer
                }
                if self.role != Role::Leader {
                    self.become_candidate(ctx);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Build a Raft cluster simulation (clients added by caller).
pub fn build_raft_group(
    cfg: &RaftConfig,
    network: Box<dyn ahl_simkit::Network>,
    uplink_bps: Option<f64>,
    seed: u64,
) -> (ahl_simkit::Sim<RaftMsg>, Vec<NodeId>) {
    fn classify(m: &RaftMsg) -> MsgClass {
        m.class()
    }
    fn size_of(m: &RaftMsg) -> usize {
        m.wire_size()
    }
    let mut sim_cfg = ahl_simkit::SimConfig::new(seed);
    sim_cfg.network = network;
    sim_cfg.classify = classify;
    sim_cfg.size_of = size_of;
    sim_cfg.uplink_bps = uplink_bps;
    let mut sim = ahl_simkit::Sim::new(sim_cfg);
    let group: Vec<NodeId> = (0..cfg.n).collect();
    for i in 0..cfg.n {
        let node = RaftNode::new(cfg.clone(), group.clone(), i, i == 0);
        sim.add_actor(Box::new(node), ahl_simkit::QueueConfig::shared(8192));
    }
    (sim, group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::OpenLoopClient;
    use ahl_ledger::{kvstore, Op, TxId};
    use ahl_simkit::{QueueConfig, SimTime, UniformNetwork};

    fn factory() -> crate::common::OpFactory {
        let mut i = 0u64;
        Box::new(move |_r: &mut rand::rngs::SmallRng| {
            i += 1;
            Op::Direct {
                txid: TxId(i),
                op: kvstore::kv_write(&[i % 50], 16),
            }
        })
    }

    #[test]
    fn commits_transactions() {
        let cfg = RaftConfig::new(5);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_raft_group(&cfg, net, Some(1e9), 31);
        let stop = SimTime::ZERO + SimDuration::from_secs(5);
        let client =
            OpenLoopClient::new(group.clone(), SimDuration::from_millis(2), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(2));
        let committed = sim.stats().counter(stat::TXN_COMMITTED);
        assert!(committed > 1000, "committed {committed}");
        assert_eq!(sim.stats().counter("raft.elections"), 0);
    }

    #[test]
    fn leader_crash_triggers_election_and_recovery() {
        let cfg = RaftConfig::new(5);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_raft_group(&cfg, net, Some(1e9), 32);
        let stop = SimTime::ZERO + SimDuration::from_secs(6);
        let client =
            OpenLoopClient::new(group.clone(), SimDuration::from_millis(3), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        // Run 2 s, crash the leader, keep running.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        sim.actor_mut(0)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<RaftNode>())
            .expect("raft node")
            .crash();
        sim.run_until(stop + SimDuration::from_secs(2));
        assert!(sim.stats().counter("raft.elections") >= 1);
        assert!(sim.stats().counter("raft.leader_changes") >= 1);
        // A new leader exists among the survivors.
        let leaders = group
            .iter()
            .skip(1)
            .filter(|&&id| {
                sim.actor(id)
                    .as_any()
                    .expect("inspectable")
                    .downcast_ref::<RaftNode>()
                    .expect("raft")
                    .is_leader()
            })
            .count();
        assert_eq!(leaders, 1);
    }

    #[test]
    fn followers_apply_same_log() {
        let cfg = RaftConfig::new(3);
        let net = Box::new(UniformNetwork::new(SimDuration::from_micros(300)));
        let (mut sim, group) = build_raft_group(&cfg, net, Some(1e9), 33);
        let stop = SimTime::ZERO + SimDuration::from_secs(3);
        let client =
            OpenLoopClient::new(group.clone(), SimDuration::from_millis(4), stop, factory());
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(stop + SimDuration::from_secs(3));
        let applied: Vec<u64> = group
            .iter()
            .map(|&id| {
                sim.actor(id)
                    .as_any()
                    .expect("inspectable")
                    .downcast_ref::<RaftNode>()
                    .expect("raft")
                    .applied_index()
            })
            .collect();
        assert!(applied[0] > 0);
        let max = *applied.iter().max().expect("non-empty");
        let min = *applied.iter().min().expect("non-empty");
        assert!(max - min <= 1, "applied {applied:?}");
    }
}
