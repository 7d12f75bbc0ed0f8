//! System-level plumbing for deterministic parallel block execution.
//!
//! The engine itself lives in `ahl_ledger::parexec` (wave scheduling,
//! plan/apply, the `parallel ≡ sequential` guarantee); every consensus
//! replica routes its block batches through it when
//! [`SystemConfig::exec_workers`] is above 1. This module re-exports the
//! engine surface for facade users and provides the sweep harness the
//! experiments and the determinism battery share.
//!
//! Because worker threads only change *wall-clock* execution — simulated
//! time is charged from the cost model, and the engine's outputs are
//! byte-identical to sequential — a sweep over `exec_workers` must
//! produce identical [`SystemMetrics`] in every cell. That is not just a
//! sanity check: it is the property that makes the CI `exec_workers = 4`
//! cell meaningful (same baselines, same gates, no new goldens).

pub use ahl_ledger::parexec::{execute_ops, ExecOutcome};

pub use crate::system::exec_workers_from_env;
use crate::system::{run_system, SystemConfig, SystemMetrics};

/// One cell of an [`run_exec_sweep`] run.
#[derive(Clone, Debug)]
pub struct ExecSweepRow {
    /// Worker-thread count the cell ran with.
    pub workers: usize,
    /// The run's logical-transaction metrics.
    pub metrics: SystemMetrics,
}

/// Run the same system configuration once per entry of `workers`,
/// overriding [`SystemConfig::exec_workers`] each time. `make` builds a
/// fresh configuration per cell (configs own non-clonable state such as
/// fault scripts) and must be deterministic — same seed, same workload —
/// for the equality property to hold.
pub fn run_exec_sweep(
    mut make: impl FnMut() -> SystemConfig,
    workers: &[usize],
) -> Vec<ExecSweepRow> {
    workers
        .iter()
        .map(|&w| {
            let mut cfg = make();
            cfg.exec_workers = w;
            ExecSweepRow {
                workers: w,
                metrics: run_system(cfg),
            }
        })
        .collect()
}

/// `true` when every sweep cell reported identical logical results —
/// commits, aborts, latency percentiles, conservation audit, violation
/// counts. Worker count must never leak into simulated outcomes.
pub fn sweep_cells_identical(rows: &[ExecSweepRow]) -> bool {
    let Some(first) = rows.first() else {
        return true;
    };
    rows.iter().all(|r| {
        let (a, b) = (&first.metrics, &r.metrics);
        a.committed == b.committed
            && a.aborted == b.aborted
            && a.tps == b.tps
            && a.latency_mean == b.latency_mean
            && a.latency_p50 == b.latency_p50
            && a.latency_p99 == b.latency_p99
            && a.final_balance == b.final_balance
            && a.safety_violations == b.safety_violations
            && a.liveness_violations == b.liveness_violations
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_simkit::SimDuration;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::new(2, 4);
        cfg.workload = crate::system::SystemWorkload::SmallBank {
            accounts: 200,
            theta: 0.0,
        };
        cfg.clients = 2;
        cfg.outstanding = 8;
        cfg.duration = SimDuration::from_secs(2);
        cfg.warmup = SimDuration::from_millis(500);
        cfg.exec_workers = 1;
        cfg.seed = 7;
        cfg
    }

    #[test]
    fn exec_workers_do_not_change_system_outcomes() {
        let rows = run_exec_sweep(tiny_cfg, &[1, 4]);
        assert!(
            rows[0].metrics.committed > 0,
            "sweep must actually commit work"
        );
        assert!(
            sweep_cells_identical(&rows),
            "worker count leaked into results: {rows:?}"
        );
    }

    #[test]
    fn env_default_parses_and_clamps() {
        // Not set in the test environment unless CI exports it; both
        // outcomes are valid, but the value must always be >= 1.
        assert!(exec_workers_from_env() >= 1);
    }
}
