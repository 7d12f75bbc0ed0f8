//! # ahl-core — the sharded blockchain system
//!
//! The paper's complete design (Figure 1b) assembled from the substrate
//! crates: TEE-backed shard formation (`ahl-shard`), one AHL+ committee per
//! shard (`ahl-consensus`), the reference-committee 2PC for cross-shard
//! transactions (`ahl-txn` logic driven over real consensus), and the
//! BLOCKBENCH workloads (`ahl-workload`).
//!
//! Entry points:
//!
//! * [`run_system`] — the full system with the reference committee: k
//!   shard committees + R + closed-loop cross-shard clients in one
//!   simulation (Figure 13).
//! * [`run_scale_out`] — independent-shard scale-out, one simulation per
//!   shard on its own thread (Figures 14 & 18).
//! * [`run_reshard`] — throughput during epoch transitions, swap-all vs
//!   swap-log(n) (Figure 12).
//! * [`form`] — the beacon → sizing → assignment pipeline.
//! * [`table1`] — the methodology comparison data.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod formation;
pub mod parallel;
pub mod parexec;
pub mod reshard;
pub mod system;
pub mod xclient;

pub use compare::{table1, SystemRow};
pub use formation::{form, Formation};
pub use parallel::{run_scale_out, ScaleOutConfig, ScaleOutMetrics, ShardBench};
pub use parexec::{run_exec_sweep, sweep_cells_identical, ExecSweepRow};
pub use reshard::{run_reshard, ReshardConfig, ReshardMetrics, ReshardStrategy};
pub use system::{
    committee_config, run_system, run_system_report, SystemConfig, SystemMetrics, SystemReport,
    SystemWorkload,
};
pub use xclient::{sysstat, CrossShardClient, RateControl};
