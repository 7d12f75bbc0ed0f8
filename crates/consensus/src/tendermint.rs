//! Tendermint consensus (Figure 2 baseline): one rule set of the lockstep
//! round engine ([`crate::lockstep`]).
//!
//! Simplified but structurally faithful: heights proceed in **lockstep**
//! (a new block is proposed only after the previous one commits — the
//! property the paper identifies as Tendermint's scalability limiter,
//! Appendix C.2), proposers rotate round-robin per (height + round),
//! safety uses polka-locking, and liveness uses round timeouts. The
//! `timeout_commit` pause (Tendermint's default 1 s between blocks,
//! [`LockstepConfig::block_period`]) is the main throughput cap at small N.
//!
//! What is Tendermint's own, next to IBFT: a locked validator *accepts* a
//! conflicting proposal and prevotes its lock instead; a stalled round is
//! left on the validator's own timeout, no vote needed; and the names and
//! parameters below. The first two are the `Protocol::Tendermint` arms of
//! the engine.

use ahl_simkit::SimDuration;

use crate::lockstep::{LockstepConfig, Profile, Protocol};

pub use crate::lockstep::build_group as build_tm_group;

pub(crate) const PROFILE: Profile = Profile {
    digest_tag: b"tm-block",
    exec_span: "tendermint.exec",
    round_changes: "tendermint.round_changes",
    max_block_txns: 1000,
    // tm-bench's KV app is in-memory.
    exec_cost_per_op: SimDuration::from_micros(20),
};

/// Tendermint's entry point to [`LockstepConfig`].
pub struct TmConfig;

impl TmConfig {
    /// Defaults matching the Figure 2 comparison (`timeout_commit` 1 s).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> LockstepConfig {
        LockstepConfig::new(Protocol::Tendermint, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::tests as battery;

    /// Seed and open-loop request interval (ms) of the Tendermint cells.
    const LOAD: (u64, u64) = (11, 2);

    #[test]
    fn parallel_exec_audit_stays_clean() {
        battery::parallel_exec_audit_stays_clean(TmConfig::new(4), LOAD, 1000);
    }

    #[test]
    fn commits_transactions() {
        battery::commits_transactions(TmConfig::new(4), LOAD, 1000);
    }

    #[test]
    fn lockstep_limits_block_rate() {
        // With timeout_commit = 1 s, block rate ≈ 1/s regardless of load.
        battery::block_rate_is_capped(TmConfig::new(4), LOAD);
    }

    #[test]
    fn single_validator_works() {
        let ((committed, _), _) = battery::run(TmConfig::new(1), LOAD, 4);
        assert!(committed > 500, "committed {committed}");
    }

    #[test]
    fn validators_reach_same_height() {
        battery::validators_reach_same_height(TmConfig::new(4), 3);
    }
}
