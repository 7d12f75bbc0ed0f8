//! The one committee every kv workload runs: n = 4 AHL+ replicas, blocks
//! of 64, a checkpoint every 32 blocks, one execution worker. Its replica
//! settings go through the same [`ClusterFile::pbft_config`] derivation
//! the shipped `node` binary uses, so the replicas hosted inside the
//! benchmark process are configured exactly like the spawned ones.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use ahl_bench::cluster::ClusterFile;
use ahl_consensus::pbft::{BftVariant, PbftConfig, Replica};
use ahl_consensus::CryptoMode;
use ahl_crypto::KeyRegistry;
use ahl_simkit::rng::derive_seed;
use ahl_simkit::NodeId;

/// Committee size.
pub const N: usize = 4;
/// Load clients per workload.
pub const LOAD_CLIENTS: usize = 2;
/// Outstanding requests per closed-loop client.
pub const WINDOW: usize = 64;

/// Actor ids hosted by the driver, after the replicas `0..N`: one probe
/// (times set-up), the warm-up writers, then the measured load clients.
pub const PROBE: NodeId = N;
/// First warm-up client id.
pub const WARM0: NodeId = N + 1;
/// First measured load client id.
pub const LOAD0: NodeId = WARM0 + LOAD_CLIENTS;
/// All actor ids in a kv workload (replicas + driver-hosted clients).
pub const NUM_NODES: usize = LOAD0 + LOAD_CLIENTS;

/// The cluster description for `replicas` (one listen address each) with
/// all client actors hosted at `driver`.
pub fn cluster_file(
    seed: u64,
    data_dir: Option<PathBuf>,
    replicas: &[SocketAddr],
    driver: SocketAddr,
) -> ClusterFile {
    assert_eq!(replicas.len(), N);
    ClusterFile {
        seed,
        variant: BftVariant::AhlPlus,
        batch_size: 64,
        checkpoint_interval: 32,
        exec_workers: 1,
        data_dir,
        replicas: replicas.iter().copied().enumerate().collect(),
        clients: (N..NUM_NODES).map(|id| (id, driver)).collect(),
    }
}

/// Name of a [`CryptoMode`] for the report.
pub fn crypto_name(mode: CryptoMode) -> &'static str {
    match mode {
        CryptoMode::Real => "Real",
        CryptoMode::CostOnly => "CostOnly",
    }
}

/// Build replica `me` of the committee described by `pbft`, deriving key
/// material exactly as `pbft::build_group` and the `node` binary do (all
/// replica keys, then all TEE keys), so in-process and spawned replicas
/// agree on every key.
pub fn build_replica(pbft: &PbftConfig, seed: u64, me: usize) -> Replica {
    let n = pbft.n;
    let mut registry = KeyRegistry::new();
    let mut keys: Vec<_> = (0..n)
        .map(|i| registry.generate(seed ^ ((i as u64) << 8)))
        .collect();
    let mut tee_keys: Vec<_> = (0..n)
        .map(|i| registry.generate(seed ^ ((i as u64) << 8) ^ 1))
        .collect();
    let mut cfg = pbft.clone();
    cfg.pool_seed = derive_seed(seed, 0x4D45_4D50 ^ me as u64);
    Replica::new(
        cfg,
        (0..n).collect(),
        me,
        keys.swap_remove(me),
        tee_keys.swap_remove(me),
        Arc::new(registry),
        &[],
        if n == 1 { me == 0 } else { me == 1 },
    )
}
