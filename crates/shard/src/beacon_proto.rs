//! The distributed randomness-generation protocol (paper §5.1).
//!
//! Each node invokes its RandomnessBeacon enclave once per epoch. The
//! enclave releases a signed `⟨e, rnd⟩` certificate with probability
//! `2^-l`; holders broadcast it; after the synchrony bound Δ every node
//! locks the lowest `rnd` it received. If nobody held a certificate the
//! epoch number is bumped and the round repeats (probability
//! `(1 - 2^-l)^N`).
//!
//! The paper tunes `l = log2(N) - log2(log2(N))` so communication is
//! `O(N log N)` and `P_repeat < 2^-11`.

use ahl_crypto::KeyRegistry;
use ahl_simkit::{
    Actor, Ctx, MsgClass, Network, NodeId, QueueConfig, Sim, SimConfig, SimDuration, SimTime,
};
use ahl_tee::{BeaconCert, BeaconOutcome, CostModel, RandomnessBeacon, TeeOp};

/// The paper's choice of `l` for `n` nodes: `log2(n) - log2(log2(n))`,
/// giving expected `log2(n)` certificate holders per round.
pub fn paper_l_bits(n: usize) -> u32 {
    if n <= 2 {
        return 0;
    }
    let log_n = (usize::BITS - 1 - n.leading_zeros()) as f64;
    let l = log_n - log_n.log2();
    l.max(0.0).floor() as u32
}

/// Beacon protocol messages.
#[derive(Clone, Debug)]
pub enum BeaconMsg {
    /// Broadcast of a beacon certificate.
    Cert(BeaconCert),
}

const TIMER_DELTA: u64 = 1;

/// One protocol participant.
struct BeaconParticipant {
    n: usize,
    enclave: RandomnessBeacon,
    costs: CostModel,
    delta: SimDuration,
    epoch: u64,
    lowest: Option<u64>,
    locked: Option<u64>,
    verify_cost: SimDuration,
}

impl BeaconParticipant {
    fn start_epoch(&mut self, ctx: &mut Ctx<'_, BeaconMsg>) {
        self.lowest = None;
        ctx.consume_cpu(self.costs.cost(TeeOp::RandomnessBeacon));
        match self.enclave.invoke(self.epoch, ctx.now()) {
            BeaconOutcome::Certified(cert) => {
                ctx.stats().inc("beacon.certificates", 1);
                self.observe(cert.rnd);
                let peers: Vec<NodeId> = (0..self.n).filter(|&p| p != ctx.id()).collect();
                ctx.multicast(peers, BeaconMsg::Cert(cert));
            }
            BeaconOutcome::Silent => {}
            other => {
                // TooSoonAfterRestart / AlreadyInvoked never occur in the
                // honest protocol: epochs start at 0 (genesis) and repeats
                // land exactly at multiples of Δ.
                debug_assert!(false, "unexpected outcome {other:?}");
            }
        }
        ctx.set_timer(self.delta, TIMER_DELTA | (self.epoch << 8));
    }

    fn observe(&mut self, rnd: u64) {
        self.lowest = Some(self.lowest.map_or(rnd, |cur| cur.min(rnd)));
    }
}

impl Actor for BeaconParticipant {
    type Msg = BeaconMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BeaconMsg>) {
        self.start_epoch(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: BeaconMsg, ctx: &mut Ctx<'_, BeaconMsg>) {
        let BeaconMsg::Cert(cert) = msg;
        if cert.epoch != self.epoch || self.locked.is_some() {
            return;
        }
        // Verify the enclave signature on the certificate.
        ctx.consume_cpu(self.verify_cost);
        self.observe(cert.rnd);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, BeaconMsg>) {
        if (kind & 0xff) != TIMER_DELTA || (kind >> 8) != self.epoch || self.locked.is_some() {
            return;
        }
        match self.lowest {
            Some(rnd) => {
                // Lock in the lowest rnd observed within Δ.
                self.locked = Some(rnd);
                let now = ctx.now();
                ctx.stats().inc("beacon.locked", 1);
                ctx.stats()
                    .record_point("beacon.lock_time", now, rnd as f64);
            }
            None => {
                // Nobody produced a certificate: bump the epoch and retry.
                self.epoch += 1;
                ctx.stats().inc("beacon.repeats", 1);
                self.start_epoch(ctx);
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Result of one beacon protocol execution.
#[derive(Clone, Debug)]
pub struct BeaconRunResult {
    /// Wall-clock (simulated) until every node locked.
    pub completion: SimDuration,
    /// The agreed random value (asserted identical across nodes).
    pub rnd: u64,
    /// Rounds that produced no certificate and repeated.
    pub repeats: u64,
    /// Total certificates released.
    pub certificates: u64,
    /// Total messages sent.
    pub messages: u64,
}

/// Execute the beacon protocol over `network` for `n` nodes with filter
/// length `l_bits` and synchrony bound `delta`. Panics if honest nodes lock
/// different values (agreement violation).
pub fn run_beacon(
    n: usize,
    l_bits: u32,
    delta: SimDuration,
    network: Box<dyn Network>,
    uplink_bps: Option<f64>,
    seed: u64,
) -> BeaconRunResult {
    fn classify(_m: &BeaconMsg) -> MsgClass {
        MsgClass::CONSENSUS
    }
    fn size_of(_m: &BeaconMsg) -> usize {
        1024 // the paper measures Δ for a 1 KB message
    }
    let mut cfg = SimConfig::new(seed);
    cfg.network = network;
    cfg.classify = classify;
    cfg.size_of = size_of;
    cfg.uplink_bps = uplink_bps;
    let mut sim: Sim<BeaconMsg> = Sim::new(cfg);

    let mut registry = KeyRegistry::new();
    for i in 0..n {
        let key = registry.generate(ahl_simkit::rng::derive_seed(seed, 0x5EED ^ i as u64));
        let enclave = RandomnessBeacon::new(
            key,
            ahl_simkit::rng::derive_seed(seed, i as u64),
            l_bits,
            delta,
            SimTime::ZERO,
        );
        let p = BeaconParticipant {
            n,
            enclave,
            costs: CostModel::default(),
            delta,
            epoch: 0,
            lowest: None,
            locked: None,
            verify_cost: SimDuration::from_micros(200),
        };
        sim.add_actor(Box::new(p), QueueConfig::unbounded());
    }
    let end = sim.run();

    // Collect and check agreement.
    let locked: Vec<u64> = (0..n)
        .map(|i| {
            sim.actor(i)
                .as_any()
                .expect("inspectable")
                .downcast_ref::<BeaconParticipant>()
                .expect("participant")
                .locked
                .expect("every node locks by quiescence")
        })
        .collect();
    let rnd = locked[0];
    assert!(
        locked.iter().all(|&v| v == rnd),
        "beacon agreement violated: {locked:?}"
    );
    BeaconRunResult {
        completion: end.since(SimTime::ZERO),
        rnd,
        repeats: sim.stats().counter("beacon.repeats") / n as u64,
        certificates: sim.stats().counter("beacon.certificates"),
        messages: sim.stats().counter("net.messages_sent"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_net::ClusterNetwork;

    fn cluster_beacon(n: usize, l: u32, seed: u64) -> BeaconRunResult {
        run_beacon(
            n,
            l,
            SimDuration::from_secs(2),
            Box::new(ClusterNetwork::new()),
            Some(1e9),
            seed,
        )
    }

    #[test]
    fn paper_l_values() {
        // log2(64) = 6, log2(6) ≈ 2.58 → l = 3.
        assert_eq!(paper_l_bits(64), 3);
        // log2(512) = 9, log2(9) ≈ 3.17 → l = 5.
        assert_eq!(paper_l_bits(512), 5);
        assert_eq!(paper_l_bits(2), 0);
    }

    #[test]
    fn all_nodes_agree_on_lowest() {
        let res = cluster_beacon(32, paper_l_bits(32), 7);
        assert!(res.certificates >= 1);
        // Completion is at least Δ (nodes wait the full bound).
        assert!(res.completion >= SimDuration::from_secs(2));
    }

    #[test]
    fn l_zero_always_one_round() {
        let res = cluster_beacon(16, 0, 3);
        assert_eq!(res.repeats, 0);
        assert_eq!(res.certificates, 16);
        // O(N^2) messages when everyone holds a certificate.
        assert_eq!(res.messages, 16 * 15);
    }

    #[test]
    fn high_l_repeats_then_succeeds() {
        // With l = 8 and n = 8 the per-round success probability is
        // 1-(255/256)^8 ≈ 3%; expect repeats but eventual success.
        let res = cluster_beacon(8, 8, 5);
        assert!(res.repeats > 0, "expected repeats");
        assert!(res.certificates >= 1);
    }

    #[test]
    fn message_complexity_scales_with_l() {
        // Fewer certificate holders → fewer broadcasts.
        let all = cluster_beacon(64, 0, 11);
        let filtered = cluster_beacon(64, paper_l_bits(64), 11);
        assert!(
            filtered.messages < all.messages / 2,
            "filtered {} vs all {}",
            filtered.messages,
            all.messages
        );
    }

    #[test]
    fn deterministic() {
        let a = cluster_beacon(16, 2, 9);
        let b = cluster_beacon(16, 2, 9);
        assert_eq!(a.rnd, b.rnd);
        assert_eq!(a.completion, b.completion);
    }
}
