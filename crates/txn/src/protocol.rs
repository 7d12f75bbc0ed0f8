//! The full cross-shard transaction protocol (paper §6.2, Figure 5)
//! executed over in-process shards.
//!
//! [`MultiShardLedger`] holds the reference committee R as one more
//! [`StateStore`] and drives 2PC the way `ahl_core::xclient` does over the
//! network: BeginTx on R, `Op::Prepare` at each participant, each shard's
//! receipt relayed to R as a vote, and the decision read back from R's
//! ledger — R executes the Figure 6 chaincode of [`crate::coordinator`],
//! the same ops the simulated system's reference committee executes. It
//! exposes both a one-shot API ([`MultiShardLedger::execute`]) and a
//! step-wise API where prepares, votes and decisions are delivered in
//! *arbitrary order* — the surface the property tests and the adversary
//! battery drive to check atomicity and isolation under adversarial
//! scheduling.

use std::collections::HashMap;

use ahl_ledger::{Op, StateOp, StateStore, TxId};

use crate::coordinator::{begin_op, coord_state, vote_not_ok_op, vote_ok_op, CoordAction, CoordState};
use crate::shardmap::ShardMap;

/// Outcome of a cross-shard transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// All involved shards committed.
    Committed,
    /// All involved shards aborted (or never prepared).
    Aborted,
}

/// A sharded ledger driven by the 2PC/2PL protocol.
#[derive(Debug)]
pub struct MultiShardLedger {
    /// One state store per shard.
    pub shards: Vec<StateStore>,
    /// Key-to-shard mapping.
    pub map: ShardMap,
    /// The reference committee R's ledger: the Figure 6 chaincode's record
    /// of every cross-shard transaction.
    reference: StateStore,
    /// The shards each BeginTx registered. R's record holds only their
    /// count, as Figure 6's `c` does; decisions go to exactly this set.
    participants: HashMap<TxId, Vec<usize>>,
    /// Forged decision claims refused by [`MultiShardLedger::deliver_checked`].
    pub forged_decisions: u64,
    /// Forged prepare-vote claims refused by
    /// [`MultiShardLedger::feed_vote_checked`].
    pub forged_votes: u64,
}

impl MultiShardLedger {
    /// Create `k` empty shards.
    pub fn new(k: usize) -> Self {
        MultiShardLedger {
            shards: (0..k).map(|_| StateStore::new()).collect(),
            map: ShardMap::new(k),
            reference: StateStore::new(),
            participants: HashMap::new(),
            forged_decisions: 0,
            forged_votes: 0,
        }
    }

    /// Install genesis state (routed to owning shards).
    pub fn genesis(&mut self, entries: &[(String, ahl_ledger::Value)]) {
        for (k, v) in entries {
            let shard = self.map.shard_of(k);
            self.shards[shard].put(k.clone(), v.clone());
        }
    }

    /// Read an integer state value from its owning shard.
    pub fn get_int(&self, key: &str) -> i64 {
        self.shards[self.map.shard_of(key)].get_int(key)
    }

    /// Whether `key` is locked on its owning shard.
    pub fn is_locked(&self, key: &str) -> bool {
        self.shards[self.map.shard_of(key)].is_locked(key)
    }

    /// Sum of an integer key set across shards (conservation checks).
    pub fn total_of(&self, keys: &[String]) -> i64 {
        keys.iter().map(|k| self.get_int(k)).sum()
    }

    /// Execute a transaction to completion through 2PC/2PL, single-shard
    /// fast path included. Returns the outcome.
    pub fn execute(&mut self, txid: TxId, op: &StateOp) -> TxOutcome {
        let parts = self.map.split_op(op);
        match parts.len() {
            0 => TxOutcome::Committed,
            1 => {
                // Single-shard: direct execution, no coordination.
                let (shard, sub) = &parts[0];
                let r = self.shards[*shard].execute(&Op::Direct { txid, op: sub.clone() });
                if r.status.is_committed() {
                    TxOutcome::Committed
                } else {
                    TxOutcome::Aborted
                }
            }
            _ => self.execute_2pc(txid, parts),
        }
    }

    fn execute_2pc(&mut self, txid: TxId, parts: Vec<(usize, StateOp)>) -> TxOutcome {
        let shard_ids: Vec<usize> = parts.iter().map(|(s, _)| *s).collect();
        if self.begin_tx(txid, shard_ids) == CoordAction::None {
            return TxOutcome::Aborted; // duplicate txid
        }
        // Phase 1: prepare at every involved shard, relaying each receipt
        // to R as the shard's vote, until R decides.
        let mut decision = CoordAction::None;
        for (shard, sub) in &parts {
            decision = self.prepare_at(txid, *shard, sub);
            if decision != CoordAction::None {
                break;
            }
        }
        // Phase 2: deliver R's decision.
        self.deliver(txid, &decision);
        if matches!(decision, CoordAction::SendCommit(_)) {
            TxOutcome::Committed
        } else {
            TxOutcome::Aborted
        }
    }

    // ---- step-wise API for adversarial interleavings ----

    /// Begin a transaction: registers it and returns the shards to prepare.
    pub fn begin(&mut self, txid: TxId, op: &StateOp) -> Vec<(usize, StateOp)> {
        let parts = self.map.split_op(op);
        self.begin_tx(txid, parts.iter().map(|(s, _)| *s).collect());
        parts
    }

    /// BeginTx on R for the participant `shards`: returns the shards to
    /// prepare, or [`CoordAction::None`] when R refuses (a txid it already
    /// holds). A Begin with no participants is refused before R.
    pub fn begin_tx(&mut self, txid: TxId, shards: Vec<usize>) -> CoordAction {
        if shards.is_empty() || !self.record(txid, begin_op(txid, shards.len())) {
            return CoordAction::None;
        }
        self.participants.insert(txid, shards.clone());
        CoordAction::SendPrepare(shards)
    }

    /// Relay `shard`'s prepare vote to R; returns R's decision if this vote
    /// made it. A vote for a shard BeginTx did not register is refused
    /// before R — the model's stand-in for R checking the shard
    /// committee's prepare certificate, which the chaincode alone does not
    /// (the vote-binding gap in [`crate::coordinator`]).
    pub fn vote(&mut self, txid: TxId, shard: usize, ok: bool) -> CoordAction {
        if !self.participants.get(&txid).is_some_and(|p| p.contains(&shard)) {
            return CoordAction::None;
        }
        let op = if ok { vote_ok_op(txid, shard) } else { vote_not_ok_op(txid, shard) };
        self.record_deciding(txid, op)
    }

    /// R's duty to time out a transaction stuck before its decision: it
    /// records PrepareNotOK for the first participant whose vote never
    /// arrived (the op's own guard skips every participant that voted).
    /// Returns the abort, or [`CoordAction::None`] once decided.
    pub fn time_out(&mut self, txid: TxId) -> CoordAction {
        if self.decision(txid) != CoordAction::None {
            return CoordAction::None;
        }
        for shard in self.participants.get(&txid).cloned().unwrap_or_default() {
            let action = self.record_deciding(txid, vote_not_ok_op(txid, shard));
            if action != CoordAction::None {
                return action;
            }
        }
        CoordAction::None
    }

    /// Execute a chaincode op on R; `true` when R's guards accepted it.
    fn record(&mut self, txid: TxId, op: StateOp) -> bool {
        self.reference.execute(&Op::Direct { txid, op }).status.is_committed()
    }

    /// Execute a vote op on R and return the decision it made, if it moved
    /// R's record from undecided to Committed / Aborted.
    fn record_deciding(&mut self, txid: TxId, op: StateOp) -> CoordAction {
        let undecided = self.decision(txid) == CoordAction::None;
        if self.record(txid, op) && undecided {
            self.decision(txid)
        } else {
            CoordAction::None
        }
    }

    /// R's recorded decision on `txid`, addressed to the participants
    /// BeginTx registered.
    fn decision(&self, txid: TxId) -> CoordAction {
        let shards = self.participants.get(&txid).cloned().unwrap_or_default();
        match self.state_of(txid) {
            Some(CoordState::Committed) => CoordAction::SendCommit(shards),
            Some(CoordState::Aborted) => CoordAction::SendAbort(shards),
            _ => CoordAction::None,
        }
    }

    /// Execute the prepare for one shard and relay its vote to R; returns
    /// the decision action if one was reached.
    pub fn prepare_at(&mut self, txid: TxId, shard: usize, sub: &StateOp) -> CoordAction {
        let receipt = self.shards[shard].execute(&Op::Prepare { txid, op: sub.clone() });
        self.vote(txid, shard, receipt.status.is_committed())
    }

    /// Deliver a decision action to its shards.
    pub fn deliver(&mut self, txid: TxId, action: &CoordAction) {
        match action {
            CoordAction::SendCommit(shards) => {
                for &s in shards {
                    self.shards[s].execute(&Op::Commit { txid });
                }
            }
            CoordAction::SendAbort(shards) => {
                for &s in shards {
                    self.shards[s].execute(&Op::Abort { txid });
                }
            }
            _ => {}
        }
    }

    /// Deliver a *claimed* decision the way a real shard committee does:
    /// validated against the reference committee's replicated state
    /// first. In the distributed protocol every CommitTx/AbortTx carries
    /// R's quorum certificate over the Figure 6 decision; a relay (the
    /// client drives message flow in §6.3) can therefore delay a
    /// decision, but it cannot *forge* one — this method models exactly
    /// that check. Returns `false` (and delivers nothing) when the claim
    /// contradicts R's recorded decision, which is how a malicious
    /// client's coordinator equivocation is masked.
    pub fn deliver_checked(&mut self, txid: TxId, claimed: &CoordAction) -> bool {
        if !matches!(claimed, CoordAction::SendCommit(_) | CoordAction::SendAbort(_)) {
            return true; // nothing to deliver
        }
        let recorded = self.decision(txid);
        if std::mem::discriminant(claimed) != std::mem::discriminant(&recorded) {
            self.forged_decisions += 1;
            return false;
        }
        // The shard set is likewise taken from R's records, not from the
        // claim: a forged shard list must not reach uninvolved shards.
        self.deliver(txid, &recorded);
        true
    }

    /// Feed a *claimed* prepare vote for `shard` the way the reference
    /// committee accepts votes in AHL: quorum-certified by the shard's
    /// own committee, which means the claim must match what the shard
    /// actually holds — a prepared write set for an OK, none for a
    /// NotOK. A lying claim is refused (counted in
    /// [`MultiShardLedger::forged_votes`]) and R's record is untouched;
    /// this is the §6.2 argument that a malicious relay cannot turn a
    /// failed prepare into a commit.
    pub fn feed_vote_checked(&mut self, txid: TxId, shard: usize, claimed_ok: bool) -> CoordAction {
        let actually_prepared = self.shards[shard].has_pending(txid);
        if claimed_ok != actually_prepared {
            self.forged_votes += 1;
            return CoordAction::None;
        }
        self.vote(txid, shard, claimed_ok)
    }

    /// R's record of `txid` as a Figure 6 state (`None` before BeginTx).
    pub fn state_of(&self, txid: TxId) -> Option<CoordState> {
        coord_state(&self.reference, txid, self.participants.get(&txid)?)
    }

    /// Read-only check: does any shard still hold a pending prepare?
    pub fn pending_total(&self) -> usize {
        self.shards.iter().map(StateStore::pending_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_ledger::{smallbank, Value};

    /// Accounts chosen so that alice/bob land on different shards of a
    /// 4-shard map (verified in the test).
    fn ledger_with_accounts() -> (MultiShardLedger, String, String) {
        let mut l = MultiShardLedger::new(4);
        l.genesis(&smallbank_genesis(8));
        let a = "acc0".to_string();
        let map = l.map;
        let b = (1..8)
            .map(|i| format!("acc{i}"))
            .find(|b| {
                map.shard_of(&smallbank::checking_key(&a))
                    != map.shard_of(&smallbank::checking_key(b))
            })
            .expect("some account on another shard");
        (l, a, b)
    }

    fn smallbank_genesis(n: usize) -> Vec<(String, Value)> {
        smallbank::genesis(n, 100, 0)
    }

    #[test]
    fn cross_shard_payment_commits() {
        let (mut l, a, b) = ledger_with_accounts();
        let op = smallbank::send_payment(&a, &b, 30);
        assert!(l.map.shards_touched(&op) >= 2);
        let out = l.execute(TxId(1), &op);
        assert_eq!(out, TxOutcome::Committed);
        assert_eq!(l.get_int(&smallbank::checking_key(&a)), 70);
        assert_eq!(l.get_int(&smallbank::checking_key(&b)), 130);
        assert_eq!(l.pending_total(), 0);
    }

    #[test]
    fn insufficient_funds_aborts_atomically() {
        let (mut l, a, b) = ledger_with_accounts();
        let op = smallbank::send_payment(&a, &b, 500);
        let out = l.execute(TxId(1), &op);
        assert_eq!(out, TxOutcome::Aborted);
        assert_eq!(l.get_int(&smallbank::checking_key(&a)), 100);
        assert_eq!(l.get_int(&smallbank::checking_key(&b)), 100);
        assert_eq!(l.pending_total(), 0);
        assert!(!l.is_locked(&smallbank::checking_key(&a)));
    }

    #[test]
    fn single_shard_fast_path() {
        let mut l = MultiShardLedger::new(4);
        l.genesis(&smallbank_genesis(4));
        // deposit touches only one account → one shard.
        let op = smallbank::deposit_checking("acc1", 50);
        assert_eq!(l.map.shards_touched(&op), 1);
        assert_eq!(l.execute(TxId(1), &op), TxOutcome::Committed);
        assert_eq!(l.get_int(&smallbank::checking_key("acc1")), 150);
        // No coordinator entry for the fast path.
        assert!(l.state_of(TxId(1)).is_none());
    }

    #[test]
    fn conflicting_transactions_serialize_via_locks() {
        let (mut l, a, b) = ledger_with_accounts();
        // tx1 prepares but has not committed — holds locks.
        let op1 = smallbank::send_payment(&a, &b, 10);
        let parts = l.begin(TxId(1), &op1);
        let (s0, sub0) = parts[0].clone();
        l.prepare_at(TxId(1), s0, &sub0);
        // tx2 touching the same account must abort (lock conflict).
        let op2 = smallbank::send_payment(&a, &b, 20);
        let out2 = l.execute(TxId(2), &op2);
        assert_eq!(out2, TxOutcome::Aborted);
        // Finish tx1.
        let (s1, sub1) = parts[1].clone();
        let action = l.prepare_at(TxId(1), s1, &sub1);
        assert!(matches!(action, CoordAction::SendCommit(_)));
        l.deliver(TxId(1), &action);
        assert_eq!(l.get_int(&smallbank::checking_key(&a)), 90);
        assert_eq!(l.pending_total(), 0);
    }

    #[test]
    fn abort_releases_locks_for_retry() {
        let (mut l, a, b) = ledger_with_accounts();
        let op = smallbank::send_payment(&a, &b, 500); // will abort
        assert_eq!(l.execute(TxId(1), &op), TxOutcome::Aborted);
        // Retry with an affordable amount succeeds.
        let op2 = smallbank::send_payment(&a, &b, 50);
        assert_eq!(l.execute(TxId(2), &op2), TxOutcome::Committed);
    }

    #[test]
    fn conservation_across_many_random_transfers() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut l = MultiShardLedger::new(5);
        l.genesis(&smallbank_genesis(10));
        let keys: Vec<String> = (0..10).map(|i| smallbank::checking_key(&format!("acc{i}"))).collect();
        let initial = l.total_of(&keys);
        let mut rng = SmallRng::seed_from_u64(99);
        for t in 0..500 {
            let from = format!("acc{}", rng.gen_range(0..10));
            let to = format!("acc{}", rng.gen_range(0..10));
            let amt = rng.gen_range(1..80);
            let _ = l.execute(TxId(t), &smallbank::send_payment(&from, &to, amt));
        }
        assert_eq!(l.total_of(&keys), initial);
        assert_eq!(l.pending_total(), 0);
    }

    proptest::proptest! {
        /// Atomicity under adversarial vote interleavings: whatever order
        /// prepares execute in, the final state is all-commit or all-abort
        /// and conserves funds.
        #[test]
        fn atomicity_under_interleaving(order in proptest::collection::vec(0usize..8, 8), amt in 1i64..150) {
            let mut l = MultiShardLedger::new(4);
            l.genesis(&smallbank_genesis(8));
            let keys: Vec<String> = (0..8).map(|i| smallbank::checking_key(&format!("acc{i}"))).collect();
            let initial = l.total_of(&keys);

            // Two potentially-overlapping cross-shard transactions.
            let op1 = smallbank::send_payment("acc0", "acc3", amt);
            let op2 = smallbank::send_payment("acc3", "acc5", amt);
            let parts1 = l.begin(TxId(1), &op1);
            let parts2 = l.begin(TxId(2), &op2);

            // Interleave the prepare steps in the generated order.
            let mut steps: Vec<(TxId, usize, StateOp)> = Vec::new();
            for (s, sub) in &parts1 {
                steps.push((TxId(1), *s, sub.clone()));
            }
            for (s, sub) in &parts2 {
                steps.push((TxId(2), *s, sub.clone()));
            }
            // Apply a permutation biasing from `order`.
            for &pick in &order {
                if steps.is_empty() { break; }
                let idx = pick % steps.len();
                let (txid, shard, sub) = steps.remove(idx);
                let action = l.prepare_at(txid, shard, &sub);
                l.deliver(txid, &action);
            }
            for (txid, shard, sub) in steps {
                let action = l.prepare_at(txid, shard, &sub);
                l.deliver(txid, &action);
            }

            proptest::prop_assert_eq!(l.total_of(&keys), initial);
            proptest::prop_assert_eq!(l.pending_total(), 0);
            for k in &keys {
                proptest::prop_assert!(!l.is_locked(k));
            }
        }
    }
}
