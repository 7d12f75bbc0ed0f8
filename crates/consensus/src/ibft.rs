//! Istanbul BFT as integrated in Quorum (Figure 2 baseline): one rule set
//! of the lockstep round engine ([`crate::lockstep`]).
//!
//! Three-phase (pre-prepare / prepare / commit) like PBFT, but — as the
//! paper observes in Appendix C.2 — **lockstep**: the proposer for height
//! h+1 is selected round-robin and only proposes after h is finalized, and
//! Quorum inserts a block period between blocks. Transactions execute in
//! the EVM with Merkle-tree updates, which the paper identifies as the
//! other reason Quorum trails Tendermint's bare key-value store.
//!
//! What is IBFT's own, next to Tendermint: a validator locked on a block
//! *refuses* a conflicting proposal (counted as `ibft.lock_refusals`); a
//! stalled round is left only on a 2f+1 quorum of `RoundChange` votes; and
//! the names and parameters below. The first two are the `Protocol::Ibft`
//! arms of the engine.

use ahl_simkit::SimDuration;

use crate::lockstep::{LockstepConfig, Profile, Protocol};

pub use crate::lockstep::build_group as build_ibft_group;

pub(crate) const PROFILE: Profile = Profile {
    digest_tag: b"ibft-block",
    exec_span: "ibft.exec",
    round_changes: "ibft.round_changes",
    // The gas-limit analogue.
    max_block_txns: 500,
    // "A transaction in Quorum is expensive because of its execution in
    // the EVM and updates to various Merkle trees."
    exec_cost_per_op: SimDuration::from_micros(500),
};

/// IBFT's entry point to [`LockstepConfig`].
pub struct IbftConfig;

impl IbftConfig {
    /// Defaults matching the Figure 2 comparison (block period 1 s).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> LockstepConfig {
        LockstepConfig::new(Protocol::Ibft, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::tests as battery;

    /// Seed and open-loop request interval (ms) of the IBFT cells.
    const LOAD: (u64, u64) = (23, 3);

    #[test]
    fn parallel_exec_audit_stays_clean() {
        battery::parallel_exec_audit_stays_clean(IbftConfig::new(4), LOAD, 500);
    }

    #[test]
    fn commits_transactions() {
        battery::commits_transactions(IbftConfig::new(4), LOAD, 500);
    }

    #[test]
    fn lockstep_block_rate() {
        battery::block_rate_is_capped(IbftConfig::new(4), LOAD);
    }

    #[test]
    fn evm_execution_is_heavier_than_tendermint() {
        // Same offered load, IBFT spends far more execution CPU.
        assert!(PROFILE.exec_cost_per_op > crate::tendermint::PROFILE.exec_cost_per_op);
    }

    #[test]
    fn nodes_reach_same_height() {
        battery::validators_reach_same_height(IbftConfig::new(4), 5);
    }
}
