//! Malicious 2PC participants (paper §6.1/§6.2).
//!
//! The paper's central transaction-safety claim is that cross-shard
//! atomicity survives a *malicious coordinator* because the coordinator
//! role is played by the BFT-replicated reference committee R, while
//! clients merely relay messages. This module makes that claim
//! executable: a [`MaliciousRelay`] drives the step-wise
//! [`MultiShardLedger`] API — whose R executes the same Figure 6
//! chaincode as the simulated system's reference committee — with the
//! attacks a Byzantine client can actually attempt —
//!
//! * **lying prepare votes** ([`RelayAttack::LieVotes`]) — claim OK for a
//!   shard that refused to prepare (or NotOK for one that prepared);
//!   masked because R only accepts votes quorum-certified by the shard
//!   committee ([`MultiShardLedger::feed_vote_checked`]).
//! * **coordinator equivocation** ([`RelayAttack::EquivocateDecision`]) —
//!   claim Commit toward one shard and Abort toward another; masked
//!   because decisions carry R's certificate and shards validate before
//!   applying ([`MultiShardLedger::deliver_checked`]).
//! * **selective / withheld delivery** ([`RelayAttack::SelectiveDelivery`])
//!   — relay the decision to some shards and vanish; masked because the
//!   decision is *recorded on R's chain*, so anyone (here the
//!   [`recovery_sweep`]) can complete delivery, and R can abort
//!   transactions stuck before a decision — the OmniLedger-blocking fix.
//! * **replay storms** ([`RelayAttack::ReplayStorm`]) — re-feed votes and
//!   decisions; masked by the Figure 6 chaincode's guards (write-once
//!   vote keys, the latched abort flag) and `resolved` bookkeeping at
//!   shards.
//!
//! The tests at the bottom run every attack over randomized schedules and
//! assert the full invariant battery — atomicity, conservation, lock
//! release, single decision — plus the *negative control*: with unchecked
//! client-driven decisions (the §6.1 strawman), equivocation provably
//! breaks atomicity, which is what proves the checks are load-bearing.

use ahl_ledger::{Op, StateOp, TxId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coordinator::{CoordAction, CoordState};
use crate::protocol::MultiShardLedger;

/// The attack a malicious relay client mounts on the 2PC message flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayAttack {
    /// Invert every prepare vote it relays to R.
    LieVotes,
    /// Claim the opposite decision toward the shards, then (sometimes)
    /// deliver the genuine one.
    EquivocateDecision,
    /// Deliver the genuine decision only sometimes, never to everyone.
    SelectiveDelivery,
    /// Re-feed every vote and re-deliver every decision several times.
    ReplayStorm,
}

impl RelayAttack {
    /// All attacks, in matrix order.
    pub const ALL: [RelayAttack; 4] = [
        RelayAttack::LieVotes,
        RelayAttack::EquivocateDecision,
        RelayAttack::SelectiveDelivery,
        RelayAttack::ReplayStorm,
    ];

    /// Display name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            RelayAttack::LieVotes => "lie-votes",
            RelayAttack::EquivocateDecision => "equivocate-decision",
            RelayAttack::SelectiveDelivery => "selective-delivery",
            RelayAttack::ReplayStorm => "replay-storm",
        }
    }
}

/// A Byzantine client driving cross-shard transactions through the
/// checked (certificate-modelling) protocol surface.
pub struct MaliciousRelay {
    /// The scripted misbehaviour.
    pub attack: RelayAttack,
    rng: SmallRng,
    /// Every transaction this relay started (for the recovery sweep).
    pub started: Vec<TxId>,
}

impl MaliciousRelay {
    /// A relay mounting `attack`, deterministic in `seed`.
    pub fn new(attack: RelayAttack, seed: u64) -> Self {
        MaliciousRelay { attack, rng: SmallRng::seed_from_u64(seed), started: Vec::new() }
    }

    /// Drive one transaction as far as the attack lets it get. Honest
    /// single-shard transactions take the fast path; cross-shard ones go
    /// through Begin → (claimed) votes → (claimed) decision delivery.
    pub fn drive(&mut self, ledger: &mut MultiShardLedger, txid: TxId, op: &StateOp) {
        if ledger.map.shards_touched(op) <= 1 {
            let _ = ledger.execute(txid, op);
            return;
        }
        self.started.push(txid);
        let parts = ledger.begin(txid, op);
        let mut decision: Option<CoordAction> = None;
        for (shard, sub) in &parts {
            let prepared = ledger.shards[*shard]
                .execute(&Op::Prepare { txid, op: sub.clone() })
                .status
                .is_committed();
            let claim = match self.attack {
                RelayAttack::LieVotes => !prepared, // the lie
                _ => prepared,
            };
            let repeats = if self.attack == RelayAttack::ReplayStorm { 3 } else { 1 };
            for _ in 0..repeats {
                match ledger.feed_vote_checked(txid, *shard, claim) {
                    CoordAction::None => {}
                    action => decision = Some(action),
                }
            }
            if matches!(decision, Some(CoordAction::SendAbort(_))) {
                break;
            }
        }
        let Some(genuine) = decision else {
            return; // no decision yet (lying votes refused, or stuck)
        };
        match self.attack {
            RelayAttack::EquivocateDecision => {
                // Forge the opposite decision first: it must bounce off
                // the certificate check at every shard.
                let forged = match &genuine {
                    CoordAction::SendCommit(s) => CoordAction::SendAbort(s.clone()),
                    CoordAction::SendAbort(s) => CoordAction::SendCommit(s.clone()),
                    other => other.clone(),
                };
                assert!(
                    !ledger.deliver_checked(txid, &forged),
                    "a forged decision must be refused"
                );
                if self.rng.gen_bool(0.5) {
                    assert!(ledger.deliver_checked(txid, &genuine));
                }
            }
            RelayAttack::SelectiveDelivery => {
                // Deliver sometimes, vanish otherwise; the sweep finishes
                // the job from R's records.
                if self.rng.gen_bool(0.3) {
                    assert!(ledger.deliver_checked(txid, &genuine));
                }
            }
            RelayAttack::ReplayStorm => {
                for _ in 0..3 {
                    assert!(ledger.deliver_checked(txid, &genuine));
                }
            }
            RelayAttack::LieVotes => {
                assert!(ledger.deliver_checked(txid, &genuine));
            }
        }
    }
}

/// The honest completion pass the replicated coordinator enables: every
/// decided transaction's outcome is on R's chain, so *any* relay can
/// finish delivering it, and R aborts transactions stuck before a
/// decision (the fix for OmniLedger's malicious-coordinator blocking).
pub fn recovery_sweep(ledger: &mut MultiShardLedger, txs: &[TxId]) {
    for &txid in txs {
        let claim = match ledger.state_of(txid) {
            Some(CoordState::Committed) => CoordAction::SendCommit(vec![]),
            Some(CoordState::Aborted) => CoordAction::SendAbort(vec![]),
            Some(_) => {
                // Stuck before a decision: R times the transaction out
                // (the liveness duty of the replicated coordinator).
                ledger.time_out(txid);
                CoordAction::SendAbort(vec![])
            }
            None => continue,
        };
        // The checked delivery resolves the real shard set from R's
        // records; the empty claim list is deliberately untrusted.
        assert!(ledger.deliver_checked(txid, &claim), "sweep delivers recorded decisions");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_ledger::smallbank;

    const ACCOUNTS: usize = 10;

    fn fresh_ledger() -> (MultiShardLedger, Vec<String>, i64) {
        let mut l = MultiShardLedger::new(4);
        l.genesis(&smallbank::genesis(ACCOUNTS, 1_000, 0));
        let keys: Vec<String> = (0..ACCOUNTS)
            .map(|i| smallbank::checking_key(&format!("acc{i}")))
            .collect();
        let initial = l.total_of(&keys);
        (l, keys, initial)
    }

    /// Run `txs` random transfers through a malicious relay, sweep, and
    /// assert the full safety battery.
    fn run_attack(attack: RelayAttack, seed: u64, txs: u64) -> MultiShardLedger {
        let (mut l, keys, initial) = fresh_ledger();
        let mut relay = MaliciousRelay::new(attack, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA77A);
        for t in 1..=txs {
            let from = format!("acc{}", rng.gen_range(0..ACCOUNTS));
            let to = format!("acc{}", rng.gen_range(0..ACCOUNTS));
            let amt = rng.gen_range(1..120);
            relay.drive(&mut l, TxId(t), &smallbank::send_payment(&from, &to, amt));
        }
        let started = relay.started.clone();
        recovery_sweep(&mut l, &started);
        // Atomicity + conservation + isolation cleanup, under attack:
        assert_eq!(l.total_of(&keys), initial, "{}: funds conserved", attack.name());
        assert_eq!(l.pending_total(), 0, "{}: no dangling prepares", attack.name());
        for k in &keys {
            assert!(!l.is_locked(k), "{}: lock leaked on {k}", attack.name());
        }
        l
    }

    #[test]
    fn lying_votes_are_refused_and_mask_nothing() {
        let l = run_attack(RelayAttack::LieVotes, 7, 60);
        assert!(l.forged_votes > 0, "the lie must actually have been attempted");
        // A lying relay cannot decide anything: every cross-shard tx it
        // drove was timed out and aborted by R.
        assert_eq!(l.forged_decisions, 0);
    }

    #[test]
    fn decision_equivocation_is_refused() {
        let l = run_attack(RelayAttack::EquivocateDecision, 11, 60);
        assert!(l.forged_decisions > 0, "equivocation must have been attempted");
    }

    #[test]
    fn selective_delivery_completes_via_sweep() {
        let l = run_attack(RelayAttack::SelectiveDelivery, 13, 60);
        assert_eq!(l.forged_decisions, 0);
        assert_eq!(l.forged_votes, 0);
    }

    #[test]
    fn replay_storms_are_idempotent() {
        let _ = run_attack(RelayAttack::ReplayStorm, 17, 60);
    }

    #[test]
    fn every_attack_over_many_seeds() {
        for attack in RelayAttack::ALL {
            for seed in [1, 2, 3] {
                let _ = run_attack(attack, seed, 30);
            }
        }
    }

    /// Negative control (the §6.1 strawman): when shards apply whatever
    /// decision a client relays — no certificate check against R —
    /// coordinator equivocation really does break atomicity. This is the
    /// failure mode OmniLedger-style client-driven 2PC admits and the
    /// reference committee exists to prevent.
    #[test]
    fn unchecked_client_decisions_break_atomicity() {
        let (mut l, keys, initial) = fresh_ledger();
        let map = l.map;
        let (a, b) = (0..ACCOUNTS)
            .map(|i| format!("acc{i}"))
            .find_map(|a| {
                (1..ACCOUNTS).map(|j| format!("acc{j}")).find_map(|b| {
                    (map.shard_of(&smallbank::checking_key(&a))
                        != map.shard_of(&smallbank::checking_key(&b)))
                    .then(|| (a.clone(), b.clone()))
                })
            })
            .expect("cross-shard pair exists");
        let txid = TxId(99);
        let op = smallbank::send_payment(&a, &b, 100);
        let parts = l.begin(txid, &op);
        for (shard, sub) in &parts {
            assert!(l.shards[*shard]
                .execute(&Op::Prepare { txid, op: sub.clone() })
                .status
                .is_committed());
        }
        // The malicious client tells one shard "commit" and the other
        // "abort" — and the unchecked strawman shards obey.
        let (s0, _) = parts[0];
        let (s1, _) = parts[1];
        l.deliver(txid, &CoordAction::SendCommit(vec![s0]));
        l.deliver(txid, &CoordAction::SendAbort(vec![s1]));
        assert_ne!(
            l.total_of(&keys),
            initial,
            "the strawman must lose money — this is the attack the \
             reference committee masks"
        );
    }
}
