//! # ahl-net — network simulation substrate
//!
//! Implements [`ahl_simkit::Network`] models for the two testbeds of the
//! paper's evaluation:
//!
//! * [`ClusterNetwork`] — the in-house 100-server cluster: sub-millisecond
//!   LAN latency, gigabit links.
//! * [`GcpNetwork`] — Google Cloud Platform spanning up to 8 regions with
//!   the paper's measured inter-region latency matrix (Table 3).
//! * [`LossyNetwork`] / [`PartitionedNetwork`] — wrappers adding random
//!   loss and scheduled partitions for fault-injection tests.
//!
//! Latency = propagation (matrix lookup + jitter) + serialization
//! (bytes / bandwidth).
//!
//! Beyond the simulation models, this crate is also the **real**
//! networking subsystem: the [`Transport`] trait abstracts the message
//! bus, with an in-process [`MemTransport`] backend for tests and a
//! threaded `std::net` [`TcpTransport`] backend (length-framed CRC'd
//! codec reusing the WAL framing, [`Hello`] session handshake, peer
//! table, per-peer reconnect with exponential backoff, bounded outbound
//! queues). [`NodeRuntime`] drives unmodified simkit actors over any
//! transport via the [`ahl_simkit::Host`] seam — the same replica code
//! the deterministic simulator exercises runs as N OS processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gcp;
pub mod runtime;
pub mod transport;
pub mod wire;

pub use runtime::{NodeRuntime, StatusReport, Stopped};
pub use transport::{
    MemHub, MemTransport, NetEvent, TcpConfig, TcpTransport, Transport, TransportStats,
};
pub use wire::{Control, Hello, Packet, Wire};

use ahl_simkit::{Network, NodeId, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;

/// Link parameters shared by the concrete models.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Link bandwidth in bits per second (serialization delay = bits / bw).
    pub bandwidth_bps: f64,
    /// Multiplicative jitter: the propagation delay is scaled by a factor
    /// drawn uniformly from `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            bandwidth_bps: 1e9, // 1 Gbps
            jitter: 0.1,
        }
    }
}

impl LinkParams {
    /// Serialization delay for a message of `bytes`.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps)
    }

    fn jittered(&self, base: SimDuration, rng: &mut SmallRng) -> SimDuration {
        if self.jitter <= 0.0 {
            base
        } else {
            base.mul_f64(1.0 + rng.gen::<f64>() * self.jitter)
        }
    }
}

/// The in-house cluster (paper §7): Xeon servers on a switched LAN.
#[derive(Clone, Debug)]
pub struct ClusterNetwork {
    /// One-way propagation delay between any two servers.
    pub base_latency: SimDuration,
    /// Link parameters.
    pub params: LinkParams,
}

impl Default for ClusterNetwork {
    fn default() -> Self {
        ClusterNetwork {
            base_latency: SimDuration::from_micros(250),
            params: LinkParams::default(),
        }
    }
}

impl ClusterNetwork {
    /// Cluster with default parameters (250 µs LAN, 1 Gbps, 10% jitter).
    pub fn new() -> Self {
        Self::default()
    }

    /// The PoET evaluation configuration (paper Appendix C.1): 50 Mbps
    /// bandwidth cap and 100 ms imposed latency.
    pub fn poet_constrained() -> Self {
        ClusterNetwork {
            base_latency: SimDuration::from_millis(100),
            params: LinkParams {
                bandwidth_bps: 50e6,
                jitter: 0.1,
            },
        }
    }
}

impl Network for ClusterNetwork {
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        _now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        if from == to {
            // Loopback: negligible latency, no serialization.
            return Some(SimDuration::from_micros(10));
        }
        let prop = self.params.jittered(self.base_latency, rng);
        Some(prop + self.params.serialization(bytes))
    }
}

/// Google Cloud Platform network: nodes are assigned to regions and
/// inter-region propagation follows the measured Table 3 matrix.
#[derive(Clone, Debug)]
pub struct GcpNetwork {
    /// Region index of each node (round-robin by default).
    pub region_of: Vec<usize>,
    /// Number of regions in use (4 or 8 in the paper).
    pub regions: usize,
    /// One-way intra-region latency.
    pub intra_region: SimDuration,
    /// Link parameters.
    pub params: LinkParams,
}

impl GcpNetwork {
    /// Build a GCP network for `n` nodes spread round-robin over `regions`
    /// regions (the paper uses 4 and 8).
    pub fn new(n: usize, regions: usize) -> Self {
        assert!((1..=gcp::NUM_REGIONS).contains(&regions), "1..=8 regions");
        GcpNetwork {
            region_of: (0..n).map(|i| i % regions).collect(),
            regions,
            intra_region: SimDuration::from_micros(500),
            params: LinkParams::default(),
        }
    }

    /// One-way propagation between two nodes (no jitter).
    pub fn propagation(&self, from: NodeId, to: NodeId) -> SimDuration {
        let (ra, rb) = (self.region_of[from], self.region_of[to]);
        if ra == rb {
            self.intra_region
        } else {
            // Table 3 reports round-trip times; one-way is half.
            SimDuration::from_micros_f64(gcp::rtt_ms(ra, rb) * 1000.0 / 2.0)
        }
    }

    /// Largest one-way propagation delay across the deployment — used to
    /// derive the synchrony bound Δ for the beacon protocol (the paper sets
    /// Δ to 3× the measured maximum for a 1 KB message).
    pub fn max_propagation(&self) -> SimDuration {
        let mut max = self.intra_region;
        for a in 0..self.regions {
            for b in 0..self.regions {
                if a != b {
                    let d = SimDuration::from_micros_f64(gcp::rtt_ms(a, b) * 1000.0 / 2.0);
                    if d > max {
                        max = d;
                    }
                }
            }
        }
        max
    }
}

impl Network for GcpNetwork {
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        _now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        if from == to {
            return Some(SimDuration::from_micros(10));
        }
        let prop = self.params.jittered(self.propagation(from, to), rng);
        Some(prop + self.params.serialization(bytes))
    }
}

/// Wrapper adding independent random message loss to any network.
pub struct LossyNetwork<N> {
    inner: N,
    /// Probability each message is dropped in transit.
    pub loss_rate: f64,
}

impl<N> LossyNetwork<N> {
    /// Wrap `inner` with loss probability `loss_rate`.
    pub fn new(inner: N, loss_rate: f64) -> Self {
        LossyNetwork { inner, loss_rate }
    }
}

impl<N: Network> Network for LossyNetwork<N> {
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        if self.loss_rate > 0.0 && rng.gen::<f64>() < self.loss_rate {
            return None;
        }
        self.inner.transit(from, to, bytes, now, rng)
    }
}

/// A scheduled partition: messages between the two groups are dropped
/// during `[start, end)`.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Partition activation time.
    pub start: SimTime,
    /// Partition healing time.
    pub end: SimTime,
    /// Nodes on the minority side; traffic crossing the boundary drops.
    pub isolated: Vec<NodeId>,
}

/// Wrapper applying scheduled partitions (for liveness fault injection).
pub struct PartitionedNetwork<N> {
    inner: N,
    partitions: Vec<Partition>,
}

impl<N> PartitionedNetwork<N> {
    /// Wrap `inner` with the given partition schedule.
    pub fn new(inner: N, partitions: Vec<Partition>) -> Self {
        PartitionedNetwork { inner, partitions }
    }

    fn crosses(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        self.partitions.iter().any(|p| {
            now >= p.start
                && now < p.end
                && (p.isolated.contains(&from) != p.isolated.contains(&to))
        })
    }
}

impl<N: Network> Network for PartitionedNetwork<N> {
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        if self.crosses(from, to, now) {
            return None;
        }
        self.inner.transit(from, to, bytes, now, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn cluster_latency_in_expected_range() {
        let mut net = ClusterNetwork::new();
        let mut r = rng();
        for _ in 0..100 {
            let d = net
                .transit(0, 1, 256, SimTime::ZERO, &mut r)
                .expect("no loss");
            // 250 µs base, ≤10% jitter, ~2 µs serialization.
            assert!(d.as_micros() >= 250 && d.as_micros() <= 290, "{d}");
        }
    }

    #[test]
    fn serialization_scales_with_size() {
        let mut net = ClusterNetwork {
            base_latency: SimDuration::ZERO,
            params: LinkParams { bandwidth_bps: 1e9, jitter: 0.0 },
        };
        let mut r = rng();
        let small = net.transit(0, 1, 1_000, SimTime::ZERO, &mut r).expect("ok");
        let large = net.transit(0, 1, 1_000_000, SimTime::ZERO, &mut r).expect("ok");
        assert_eq!(small.as_micros(), 8); // 8 kbit / 1 Gbps
        assert_eq!(large.as_millis(), 8); // 8 Mbit / 1 Gbps
    }

    #[test]
    fn poet_constrained_network_is_slow() {
        let mut net = ClusterNetwork::poet_constrained();
        let mut r = rng();
        // A 2 MB block at 50 Mbps takes ~320 ms serialization + 100 ms prop.
        let d = net
            .transit(0, 1, 2_000_000, SimTime::ZERO, &mut r)
            .expect("ok");
        assert!(d.as_millis() >= 420 && d.as_millis() <= 450, "{d}");
    }

    #[test]
    fn gcp_intra_vs_inter_region() {
        let mut net = GcpNetwork::new(16, 8);
        net.params.jitter = 0.0;
        let mut r = rng();
        // Nodes 0 and 8 share region 0; node 1 is in region 1.
        let intra = net.transit(0, 8, 0, SimTime::ZERO, &mut r).expect("ok");
        let inter = net.transit(0, 1, 0, SimTime::ZERO, &mut r).expect("ok");
        assert_eq!(intra.as_micros(), 500);
        // us-west1-b <-> us-west2-a RTT 24.7 ms, one-way 12.35 ms.
        assert_eq!(inter.as_micros(), 12_350);
    }

    #[test]
    fn gcp_max_propagation_is_asia_europe() {
        let net = GcpNetwork::new(8, 8);
        // Largest RTT in Table 3: asia-southeast1-b <-> europe-west1-b 288.8 ms.
        assert_eq!(net.max_propagation().as_micros(), 144_400);
    }

    #[test]
    fn gcp_4_region_subset_smaller_spread() {
        let net4 = GcpNetwork::new(8, 4);
        // With only US regions the max one-way is 66.7/2 = 33.35 ms.
        assert_eq!(net4.max_propagation().as_micros(), 33_350);
    }

    #[test]
    fn lossy_network_drops_fraction() {
        let mut net = LossyNetwork::new(ClusterNetwork::new(), 0.3);
        let mut r = rng();
        let mut lost = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if net.transit(0, 1, 64, SimTime::ZERO, &mut r).is_none() {
                lost += 1;
            }
        }
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn partition_blocks_cross_traffic_during_window() {
        let part = Partition {
            start: SimTime(1_000),
            end: SimTime(2_000),
            isolated: vec![0],
        };
        let mut net = PartitionedNetwork::new(ClusterNetwork::new(), vec![part]);
        let mut r = rng();
        // Before the window: delivered.
        assert!(net.transit(0, 1, 64, SimTime(0), &mut r).is_some());
        // During: cross-boundary traffic dropped both directions.
        assert!(net.transit(0, 1, 64, SimTime(1_500), &mut r).is_none());
        assert!(net.transit(1, 0, 64, SimTime(1_500), &mut r).is_none());
        // Within the isolated side: delivered.
        assert!(net.transit(0, 0, 64, SimTime(1_500), &mut r).is_some());
        // Majority side internal traffic: delivered.
        assert!(net.transit(1, 2, 64, SimTime(1_500), &mut r).is_some());
        // After healing: delivered.
        assert!(net.transit(0, 1, 64, SimTime(2_000), &mut r).is_some());
    }

    #[test]
    fn table3_matrix_is_symmetric_enough() {
        // The published matrix has sub-ms asymmetries from measurement noise;
        // verify it is symmetric within 2 ms and zero on the diagonal.
        for a in 0..gcp::NUM_REGIONS {
            assert_eq!(gcp::rtt_ms(a, a), 0.0);
            for b in 0..gcp::NUM_REGIONS {
                assert!((gcp::rtt_ms(a, b) - gcp::rtt_ms(b, a)).abs() < 2.0);
            }
        }
    }
}
