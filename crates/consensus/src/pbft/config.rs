//! Configuration for the PBFT engine and its four paper variants.

use ahl_mempool::MempoolConfig;
use ahl_simkit::SimDuration;
use ahl_tee::CostModel;

use crate::adversary::{Attack, SafetyChecker};
use crate::common::CryptoMode;

/// Quorum rule: the difference trusted hardware makes (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// Classic Byzantine: N = 3f + 1, quorum 2f + 1.
    Byzantine,
    /// Non-equivocating Byzantine via attested log: N = 2f + 1, quorum f + 1.
    Attested,
}

impl FaultModel {
    /// Tolerated faults for committee size `n`.
    pub fn max_faults(self, n: usize) -> usize {
        match self {
            FaultModel::Byzantine => (n.saturating_sub(1)) / 3,
            FaultModel::Attested => (n.saturating_sub(1)) / 2,
        }
    }

    /// Quorum size for committee size `n` (votes counted including own).
    pub fn quorum(self, n: usize) -> usize {
        match self {
            FaultModel::Byzantine => 2 * self.max_faults(n) + 1,
            FaultModel::Attested => self.max_faults(n) + 1,
        }
    }

    /// Minimum committee size tolerating `f` faults.
    pub fn committee_for_faults(self, f: usize) -> usize {
        match self {
            FaultModel::Byzantine => 3 * f + 1,
            FaultModel::Attested => 2 * f + 1,
        }
    }
}

/// The four protocol variants evaluated in §7.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BftVariant {
    /// Hyperledger's original PBFT: Byzantine quorums, shared message queue,
    /// request re-broadcast.
    Hl,
    /// Attested HyperLedger: PBFT + TEE attested log (N = 2f+1), but still
    /// the shared queue and the request broadcast.
    Ahl,
    /// AHL + optimization 1 (split queues) + optimization 2 (forward
    /// requests to the leader instead of broadcasting).
    AhlPlus,
    /// AHL+ + optimization 3 (leader aggregates quorum messages inside its
    /// enclave, Byzcoin-style; O(N) communication).
    Ahlr,
}

impl BftVariant {
    /// The fault/quorum model of this variant.
    pub fn fault_model(self) -> FaultModel {
        match self {
            BftVariant::Hl => FaultModel::Byzantine,
            _ => FaultModel::Attested,
        }
    }

    /// Whether consensus messages require attested-log bindings.
    pub fn attested(self) -> bool {
        !matches!(self, BftVariant::Hl)
    }

    /// Optimization 1: separate queues for consensus and request traffic.
    pub fn split_queues(self) -> bool {
        matches!(self, BftVariant::AhlPlus | BftVariant::Ahlr)
    }

    /// Optimization 2: forward requests to the leader instead of
    /// broadcasting them to all replicas.
    pub fn relay_to_leader(self) -> bool {
        matches!(self, BftVariant::AhlPlus | BftVariant::Ahlr)
    }

    /// Optimization 3: leader-side enclave aggregation of quorum messages.
    pub fn leader_aggregation(self) -> bool {
        matches!(self, BftVariant::Ahlr)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BftVariant::Hl => "HL",
            BftVariant::Ahl => "AHL",
            BftVariant::AhlPlus => "AHL+",
            BftVariant::Ahlr => "AHLR",
        }
    }
}

/// Who sends the execution reply for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplyPolicy {
    /// No replies (open-loop throughput runs; latency is measured
    /// replica-side from the request timestamp).
    None,
    /// The replica that ingested the request replies to its client
    /// (one reply per request; needed by closed-loop clients).
    IngestReplica,
}

/// Maximum blocks in flight (PBFT pipelining; lockstep = 1).
pub(crate) const PIPELINE_WIDTH: u64 = 4;
/// Enclave operation costs (Table 2).
pub(crate) const COSTS: CostModel = CostModel::TABLE2;
/// Client-facing request ingestion cost (REST + TLS + signature check;
/// Hyperledger v0.6 caps out near 400 requests/s per node — Appendix C.2).
pub(crate) const INGEST_COST: SimDuration = SimDuration::from_micros(1200);
/// Execution cost per state access (chaincode + validation).
pub(crate) const EXEC_COST_PER_OP: SimDuration = SimDuration::from_micros(100);
/// Per-queue capacity for replica inbound queues.
pub(crate) const QUEUE_CAPACITY: usize = 4096;

/// Full PBFT engine configuration.
#[derive(Clone, Debug)]
pub struct PbftConfig {
    /// Protocol variant: its quorum rule ([`BftVariant::attested`]) and
    /// optimizations 2 and 3 ([`BftVariant::relay_to_leader`],
    /// [`BftVariant::leader_aggregation`]).
    pub variant: BftVariant,
    /// Committee size.
    pub n: usize,
    /// Optimization 1: split consensus/request queues (defaults from the
    /// variant; settable so the ablation can toggle it alone).
    pub split_queues: bool,
    /// Transactions per block (Hyperledger batch).
    pub batch_size: usize,
    /// Flush a partial batch after this long.
    pub batch_timeout: SimDuration,
    /// Per-replica transaction pool (capacity).
    pub mempool: MempoolConfig,
    /// Read by nothing: the FIFO pool draws no randomness. Kept only so
    /// callers that still set it keep compiling.
    pub pool_seed: u64,
    /// Stable checkpoint every this many sequence numbers. At each multiple
    /// the replica snapshots its state, votes on `(seq, state_root)`, and a
    /// checkpoint [`QuorumCert`](super::QuorumCert) gates pruning and
    /// anchors chunked state sync.
    pub checkpoint_interval: u64,
    /// Target key-value pairs per state-sync chunk. The manifest advertises
    /// `ceil(log2(state_len / target))` chunk bits; smaller chunks mean more
    /// round trips, larger chunks mean coarser retransmission on failure.
    pub sync_chunk_target: usize,
    /// Maximum chunk requests a syncing replica keeps in flight, each to a
    /// different peer in rotation (chunks verify independently, so they can
    /// be fetched out of order in parallel). 1 = the old sequential fetch.
    pub sync_fanout: usize,
    /// Serve and accept incremental (diff) state sync: a requester that
    /// still holds an older certified root advertises it, and a server that
    /// retains a snapshot at that root answers with only the changed
    /// chunks. Disabled, every chunked transfer is full.
    pub diff_sync: bool,
    /// Certified snapshots each replica retains for serving and diff
    /// computation. Snapshots are O(1) copy-on-write handles, so a deep
    /// window is nearly free — it is what lets a node that was away for
    /// several checkpoint intervals still diff-sync instead of
    /// re-transferring everything. Minimum 2 (a transfer anchored at the
    /// previous certificate must survive a checkpoint forming mid-flight).
    pub snapshot_retention: usize,
    /// Node-directory root for real on-disk persistence (`ahl-wal`).
    /// `Some(dir)` makes each replica journal executed batches to a
    /// write-ahead log and persist certified checkpoints as page-backed
    /// snapshots under `dir/node-<actor id>`; a `Restart` then recovers
    /// by *reopening the directory* — manifest validation, WAL tail
    /// replay, then diff sync for the remainder — instead of consuming an
    /// in-memory stand-in. `None` (the default) keeps the pre-WAL
    /// behaviour for pure simulation sweeps. The directory must be fresh
    /// per run (replicas start from genesis).
    pub data_dir: Option<std::path::PathBuf>,
    /// WAL/page-store tuning: segment size, fsync policy (`Off` for
    /// simulation, `Always`/`EveryN` for durability benchmarks), and the
    /// crash-injection switch used by the recovery test matrix.
    pub wal: ahl_wal::WalConfig,
    /// Replay-protection horizon. Requests whose `submitted` timestamp is
    /// older than this are refused at every admission point (client
    /// ingest, relays, gossip, and batch formation), and executed request
    /// ids are remembered for at least this long regardless of checkpoint
    /// epochs. Together the two rules provably close the replay window:
    /// a stale copy (e.g. re-relayed out of a deposed Byzantine leader's
    /// pool at a view change) is either too old to admit or young enough
    /// that the executed cache still dedups it. For the closure to hold,
    /// same-id client retransmissions must reuse the *original*
    /// submission timestamp (the cross-shard driver does); retransmitting
    /// under a fresh id (how the closed-loop client and the watchdog's
    /// idempotent decision re-sends work) is always safe. Must exceed
    /// the longest same-id client retry horizon.
    pub request_ttl: SimDuration,
    /// Base view-change timeout (doubles per consecutive failure).
    pub vc_timeout: SimDuration,
    /// Reply policy.
    pub reply_policy: ReplyPolicy,
    /// CPU scale factor (>1 = slower node, e.g. 2-vCPU GCP instances).
    pub cpu_scale: f64,
    /// Number of Byzantine replicas (assigned to the highest indices
    /// unless [`PbftConfig::byzantine_set`] overrides the placement).
    pub byzantine: usize,
    /// Explicit Byzantine group indices. `None` keeps the historical
    /// rule (highest `byzantine` indices); `Some` lets a scenario make
    /// e.g. the view-0 leader Byzantine (required by the equivocating-
    /// leader attack and the over-threshold canary).
    pub byzantine_set: Option<Vec<usize>>,
    /// What the Byzantine replicas do (see [`Attack`]). The default,
    /// [`Attack::PaperFlood`], reproduces the paper's §7.2 behaviour.
    pub attack: Attack,
    /// Global safety oracle honest replicas report commits, executions
    /// and 2PC resolutions into (`None` = no observation overhead).
    pub safety: Option<SafetyChecker>,
    /// This committee's id in the checker's records (shard number; the
    /// reference committee gets its own id).
    pub committee_id: usize,
    /// Compute real MACs or charge costs only.
    pub crypto: CryptoMode,
    /// Worker threads for in-shard block execution. `1` (the default) is
    /// the classic sequential loop; `> 1` routes each block's batch
    /// through the conflict-aware wave scheduler
    /// (`ahl_ledger::parexec::execute_ops`), whose receipts, state root,
    /// and 2PC bookkeeping are byte-identical to sequential execution, and
    /// additionally runs a parallel SMT re-hash audit at checkpoint time.
    pub exec_workers: usize,
}

impl PbftConfig {
    /// Defaults for `variant` with committee size `n`.
    pub fn new(variant: BftVariant, n: usize) -> Self {
        PbftConfig {
            variant,
            n,
            split_queues: variant.split_queues(),
            batch_size: 64,
            batch_timeout: SimDuration::from_millis(25),
            mempool: MempoolConfig::default(),
            pool_seed: 0,
            checkpoint_interval: 128,
            sync_chunk_target: 1024,
            sync_fanout: 4,
            diff_sync: true,
            snapshot_retention: 8,
            data_dir: None,
            wal: ahl_wal::WalConfig::default(),
            request_ttl: SimDuration::from_secs(10),
            vc_timeout: SimDuration::from_secs(2),
            reply_policy: ReplyPolicy::None,
            cpu_scale: 1.0,
            byzantine: 0,
            byzantine_set: None,
            attack: Attack::default(),
            safety: None,
            committee_id: 0,
            crypto: CryptoMode::CostOnly,
            exec_workers: 1,
        }
    }

    /// Whether group index `i` is Byzantine under this configuration.
    pub fn is_byzantine(&self, i: usize) -> bool {
        match &self.byzantine_set {
            Some(set) => set.contains(&i),
            None => i >= self.n - self.byzantine,
        }
    }

    /// The fault model of this configuration's variant.
    pub fn fault_model(&self) -> FaultModel {
        self.variant.fault_model()
    }

    /// Fault threshold for this configuration.
    pub fn f(&self) -> usize {
        self.fault_model().max_faults(self.n)
    }

    /// Quorum size (votes counted including own).
    pub fn quorum(&self) -> usize {
        self.fault_model().quorum(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_model_thresholds() {
        // Paper §3.3 running example: n = 100 PBFT tolerates f = 33.
        assert_eq!(FaultModel::Byzantine.max_faults(100), 33);
        assert_eq!(FaultModel::Byzantine.quorum(100), 67);
        // §4.1: attested tolerates f = (n-1)/2 with quorum f+1.
        assert_eq!(FaultModel::Attested.max_faults(79), 39);
        assert_eq!(FaultModel::Attested.quorum(79), 40);
    }

    #[test]
    fn committee_for_faults_inverse() {
        for f in 1..30 {
            let nb = FaultModel::Byzantine.committee_for_faults(f);
            assert_eq!(FaultModel::Byzantine.max_faults(nb), f);
            let na = FaultModel::Attested.committee_for_faults(f);
            assert_eq!(FaultModel::Attested.max_faults(na), f);
        }
    }

    #[test]
    fn variant_feature_matrix() {
        use BftVariant::*;
        assert!(!Hl.attested() && !Hl.split_queues() && !Hl.relay_to_leader());
        assert!(Ahl.attested() && !Ahl.split_queues() && !Ahl.relay_to_leader());
        assert!(AhlPlus.attested() && AhlPlus.split_queues() && AhlPlus.relay_to_leader());
        assert!(!AhlPlus.leader_aggregation());
        assert!(Ahlr.leader_aggregation() && Ahlr.relay_to_leader());
    }

    #[test]
    fn config_quorums() {
        let hl = PbftConfig::new(BftVariant::Hl, 7);
        assert_eq!(hl.f(), 2);
        assert_eq!(hl.quorum(), 5);
        let ahl = PbftConfig::new(BftVariant::Ahl, 7);
        assert_eq!(ahl.f(), 3);
        assert_eq!(ahl.quorum(), 4);
    }
}
