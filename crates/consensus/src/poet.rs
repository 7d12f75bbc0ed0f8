//! PoET and PoET+ (paper §4.2 + Appendix C.1, Figures 21 & 22).
//!
//! Proof of Elapsed Time: every node asks its enclave for a random
//! `waitTime`; the enclave releases a wait certificate when the time
//! expires; the node with the shortest wait proposes the next block.
//! Like PoW, PoET forks when multiple certificates expire within one
//! block-propagation window; losing branches become **stale blocks**.
//!
//! **PoET+** binds an `l`-bit random value `q` to each certificate and only
//! certificates with `q == 0` are valid — a two-stage leader election that
//! thins the competing-proposer set from `n` to `n·2^-l` (the paper sets
//! `l = log2(N)/2`, i.e. √N participants). The enclave rescales the wait
//! distribution to keep the target block interval.
//!
//! Blocks propagate through a fanout-`F` broadcast tree (Sawtooth gossips;
//! flat broadcast of 2-8 MB blocks would saturate uplinks unrealistically).
//! Propagation therefore takes `log_F(n)` store-and-forward hops whose
//! serialization time grows with block size — reproducing the paper's
//! finding that stale rate grows with N and block size.

use std::collections::HashMap;
use std::sync::Arc;

use ahl_simkit::{
    Actor, Ctx, MsgClass, Network, NodeId, QueueConfig, Sim, SimConfig, SimDuration, SimTime,
};
use rand::Rng;

use crate::common::stat;

/// A PoET block (payload abstracted to its size; this experiment measures
/// block dissemination, not transaction semantics).
#[derive(Clone, Debug)]
pub struct PoetBlock {
    /// Unique block id.
    pub id: u64,
    /// Chain height.
    pub height: u64,
    /// Parent block id (0 = genesis).
    pub parent: u64,
    /// Proposer (group index).
    pub proposer: usize,
    /// The waitTime the certificate attests (ties broken by shorter wait).
    pub wait_nanos: u64,
    /// Serialized size in bytes.
    pub size: usize,
    /// Transactions carried.
    pub txns: u64,
}

/// PoET wire messages.
#[derive(Clone, Debug)]
pub enum PoetMsg {
    /// A block forwarded along the broadcast tree.
    Block(Arc<PoetBlock>),
}

/// PoET node configuration.
#[derive(Clone, Debug)]
pub struct PoetConfig {
    /// Network size.
    pub n: usize,
    /// Filter bit-length `l` (0 = plain PoET; `log2(n)/2` = paper's PoET+).
    pub l_bits: u32,
    /// Target block interval (paper: 12-24 s).
    pub block_interval: SimDuration,
    /// Block size in bytes (paper: 2-8 MB).
    pub block_size: usize,
    /// Average transaction size (determines txns per block).
    pub txn_size: usize,
    /// Broadcast tree fanout.
    pub fanout: usize,
    /// Enclave call cost for certificate generation.
    pub enclave_cost: SimDuration,
    /// Validation cost per block (certificate check + txn verification).
    pub validate_cost: SimDuration,
}

impl PoetConfig {
    /// Plain PoET with paper-style defaults.
    pub fn poet(n: usize, block_size: usize) -> Self {
        PoetConfig {
            n,
            l_bits: 0,
            block_interval: SimDuration::from_secs(12),
            block_size,
            txn_size: 1024,
            fanout: 4,
            enclave_cost: SimDuration::from_micros_f64(482.2 + 2.7),
            validate_cost: SimDuration::from_millis(50),
        }
    }

    /// PoET+ with the paper's `l = log2(n)/2` filter.
    pub fn poet_plus(n: usize, block_size: usize) -> Self {
        let mut cfg = Self::poet(n, block_size);
        cfg.l_bits = (usize::BITS - 1 - n.leading_zeros()).max(2) / 2;
        cfg
    }

    /// Expected number of nodes whose certificates are valid per round.
    pub fn effective_participants(&self) -> f64 {
        self.n as f64 * 2f64.powi(-(self.l_bits as i32))
    }

    /// Transactions per block.
    pub fn txns_per_block(&self) -> u64 {
        (self.block_size / self.txn_size) as u64
    }
}

const TIMER_EXPIRE: u64 = 1;

/// A PoET validator node.
pub struct PoetNode {
    cfg: PoetConfig,
    me: usize,
    /// Known blocks by id.
    blocks: HashMap<u64, Arc<PoetBlock>>,
    /// Orphans waiting for their parent, keyed by parent id.
    orphans: HashMap<u64, Vec<Arc<PoetBlock>>>,
    /// Current head (height, id).
    head: (u64, u64),
    /// Wait-certificate validity of the current draw.
    cert_valid: bool,
    /// Current draw's wait time.
    wait: SimDuration,
    /// Timer epoch (stale-timer guard).
    epoch: u64,
}

impl PoetNode {
    /// Create a node.
    pub fn new(cfg: PoetConfig, me: usize) -> Self {
        PoetNode {
            cfg,
            me,
            blocks: HashMap::new(),
            orphans: HashMap::new(),
            head: (0, 0),
            cert_valid: false,
            wait: SimDuration::ZERO,
            epoch: 0,
        }
    }

    /// The node's current head (height, block id) for post-run analysis.
    pub fn head(&self) -> (u64, u64) {
        self.head
    }

    /// All blocks this node has seen.
    pub fn blocks(&self) -> &HashMap<u64, Arc<PoetBlock>> {
        &self.blocks
    }

    /// Walk the main chain back from the head; returns the ids on it.
    pub fn main_chain(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        let mut cur = self.head.1;
        while cur != 0 {
            ids.push(cur);
            cur = self.blocks.get(&cur).map(|b| b.parent).unwrap_or(0);
        }
        ids
    }

    fn draw(&mut self, ctx: &mut Ctx<'_, PoetMsg>) {
        // Enclave call: generate (q, waitTime).
        ctx.consume_cpu(self.cfg.enclave_cost);
        let q: u64 = if self.cfg.l_bits == 0 {
            0
        } else {
            ctx.rng().gen::<u64>() & ((1u64 << self.cfg.l_bits.min(63)) - 1)
        };
        self.cert_valid = q == 0;
        // Rate-normalized exponential: mean = effective_participants × T so
        // the network-wide first expiry of a *valid* certificate lands at
        // ~T. Invalid certificates redraw on expiry.
        let mean_secs =
            self.cfg.effective_participants().max(1.0) * self.cfg.block_interval.as_secs_f64();
        let u: f64 = ctx.rng().gen::<f64>().max(1e-12);
        self.wait = SimDuration::from_secs_f64(-u.ln() * mean_secs);
        self.epoch += 1;
        ctx.set_timer(self.wait, TIMER_EXPIRE | (self.epoch << 8));
    }

    fn propose(&mut self, ctx: &mut Ctx<'_, PoetMsg>) {
        let block = Arc::new(PoetBlock {
            id: ((self.me as u64) << 40) | (ctx.rng().gen::<u32>() as u64) | 1,
            height: self.head.0 + 1,
            parent: self.head.1,
            proposer: self.me,
            wait_nanos: self.wait.as_nanos(),
            size: self.cfg.block_size,
            txns: self.cfg.txns_per_block(),
        });
        ctx.stats().inc(stat::TOTAL_BLOCKS, 1);
        self.accept(block.clone(), ctx);
        self.fanout_forward(&block, ctx);
    }

    /// Forward a block to this node's children in the broadcast tree rooted
    /// at the block's proposer.
    fn fanout_forward(&self, block: &Arc<PoetBlock>, ctx: &mut Ctx<'_, PoetMsg>) {
        let n = self.cfg.n;
        let f = self.cfg.fanout;
        let rel = (self.me + n - block.proposer) % n;
        for c in 1..=f {
            let child_rel = rel * f + c;
            if child_rel < n {
                let child = (block.proposer + child_rel) % n;
                ctx.send(child, PoetMsg::Block(block.clone()));
            }
        }
    }

    fn accept(&mut self, block: Arc<PoetBlock>, ctx: &mut Ctx<'_, PoetMsg>) {
        if self.blocks.contains_key(&block.id) {
            return;
        }
        // Parent must be known (or genesis) to place the block.
        if block.parent != 0 && !self.blocks.contains_key(&block.parent) {
            self.orphans.entry(block.parent).or_default().push(block);
            return;
        }
        let id = block.id;
        let height = block.height;
        self.blocks.insert(id, block);
        // Attach any orphans waiting on this block.
        if let Some(kids) = self.orphans.remove(&id) {
            for kid in kids {
                self.accept(kid, ctx);
            }
        }
        // Longest chain wins; ties favour the incumbent (first seen).
        if height > self.head.0 {
            self.head = (height, id);
            // New head: redraw the certificate for the next round.
            self.draw(ctx);
        } else if height == self.head.0 && id != self.head.1 {
            ctx.stats().inc("poet.forks_observed", 1);
        }
    }
}

impl Actor for PoetNode {
    type Msg = PoetMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PoetMsg>) {
        self.draw(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: PoetMsg, ctx: &mut Ctx<'_, PoetMsg>) {
        match msg {
            PoetMsg::Block(block) => {
                ctx.consume_cpu(self.cfg.validate_cost);
                self.accept(block.clone(), ctx);
                self.fanout_forward(&block, ctx);
            }
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PoetMsg>) {
        if (kind >> 8) != self.epoch || (kind & 0xff) != TIMER_EXPIRE {
            return;
        }
        if self.cert_valid {
            self.propose(ctx);
        } else {
            // Certificate invalid (q != 0): the enclave issues a fresh
            // waitTime instead.
            self.draw(ctx);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Results of a PoET run.
#[derive(Clone, Debug)]
pub struct PoetMetrics {
    /// Blocks on the final main chain.
    pub main_chain_blocks: u64,
    /// Total blocks produced network-wide.
    pub total_blocks: u64,
    /// Stale fraction: (total - main) / total.
    pub stale_rate: f64,
    /// Committed transactions per second (main chain only).
    pub tps: f64,
}

/// Run a PoET/PoET+ experiment for `duration` over `network`.
pub fn run_poet(
    cfg: &PoetConfig,
    network: Box<dyn Network>,
    uplink_bps: Option<f64>,
    duration: SimDuration,
    seed: u64,
) -> PoetMetrics {
    fn classify(_m: &PoetMsg) -> MsgClass {
        MsgClass::CONSENSUS
    }
    fn size_of(m: &PoetMsg) -> usize {
        match m {
            PoetMsg::Block(b) => b.size,
        }
    }
    let mut sim_cfg = SimConfig::new(seed);
    sim_cfg.network = network;
    sim_cfg.classify = classify;
    sim_cfg.size_of = size_of;
    sim_cfg.uplink_bps = uplink_bps;
    let mut sim: Sim<PoetMsg> = Sim::new(sim_cfg);
    for i in 0..cfg.n {
        sim.add_actor(
            Box::new(PoetNode::new(cfg.clone(), i)),
            QueueConfig::unbounded(),
        );
    }
    sim.run_until(SimTime::ZERO + duration);

    // The observer with the longest chain defines the main chain.
    let best = (0..cfg.n)
        .map(|i| {
            sim.actor(i)
                .as_any()
                .expect("inspectable")
                .downcast_ref::<PoetNode>()
                .expect("poet node")
        })
        .max_by_key(|node| node.head().0)
        .expect("at least one node");
    let main = best.main_chain().len() as u64;
    let total = sim.stats().counter(stat::TOTAL_BLOCKS).max(main);
    let stale = total - main;
    PoetMetrics {
        main_chain_blocks: main,
        total_blocks: total,
        stale_rate: if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        },
        tps: main as f64 * cfg.txns_per_block() as f64 / duration.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_net::ClusterNetwork;

    fn run(cfg: PoetConfig, secs: u64, seed: u64) -> PoetMetrics {
        run_poet(
            &cfg,
            Box::new(ClusterNetwork::poet_constrained()),
            Some(50e6),
            SimDuration::from_secs(secs),
            seed,
        )
    }

    #[test]
    fn poet_produces_blocks_at_target_interval() {
        let m = run(PoetConfig::poet(8, 2_000_000), 600, 1);
        // 600 s at a 12 s interval → ~50 blocks (generous bounds: forks and
        // exponential variance).
        assert!(m.main_chain_blocks >= 25, "main {}", m.main_chain_blocks);
        assert!(m.main_chain_blocks <= 80, "main {}", m.main_chain_blocks);
    }

    #[test]
    fn poet_plus_filters_participants() {
        let cfg = PoetConfig::poet_plus(64, 2_000_000);
        assert!(cfg.l_bits >= 2);
        let eff = cfg.effective_participants();
        assert!(eff < 64.0 / 2.0, "effective {eff}");
    }

    #[test]
    fn stale_rate_grows_with_network_size() {
        let small = run(PoetConfig::poet(4, 4_000_000), 600, 2);
        let large = run(PoetConfig::poet(64, 4_000_000), 600, 2);
        assert!(
            large.stale_rate >= small.stale_rate,
            "small {} large {}",
            small.stale_rate,
            large.stale_rate
        );
    }

    #[test]
    fn bigger_blocks_increase_stales() {
        let small = run(PoetConfig::poet(32, 2_000_000), 600, 3);
        let big = run(PoetConfig::poet(32, 8_000_000), 600, 3);
        assert!(
            big.stale_rate >= small.stale_rate,
            "2MB {} 8MB {}",
            small.stale_rate,
            big.stale_rate
        );
    }

    #[test]
    fn nodes_converge_on_one_chain() {
        let cfg = PoetConfig::poet(16, 2_000_000);
        let net = Box::new(ClusterNetwork::poet_constrained());
        let mut sim_cfg = SimConfig::new(9);
        sim_cfg.network = net;
        sim_cfg.classify = |_m: &PoetMsg| MsgClass::CONSENSUS;
        sim_cfg.size_of = |m: &PoetMsg| match m {
            PoetMsg::Block(b) => b.size,
        };
        sim_cfg.uplink_bps = Some(50e6);
        let mut sim: Sim<PoetMsg> = Sim::new(sim_cfg);
        for i in 0..cfg.n {
            sim.add_actor(
                Box::new(PoetNode::new(cfg.clone(), i)),
                QueueConfig::unbounded(),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(300));
        let heights: Vec<u64> = (0..cfg.n)
            .map(|i| {
                sim.actor(i)
                    .as_any()
                    .expect("inspectable")
                    .downcast_ref::<PoetNode>()
                    .expect("poet")
                    .head()
                    .0
            })
            .collect();
        let max = *heights.iter().max().expect("non-empty");
        let min = *heights.iter().min().expect("non-empty");
        assert!(max >= 5, "max height {max}");
        // All nodes within a couple of blocks of the best chain.
        assert!(max - min <= 2, "heights {heights:?}");
    }
}
