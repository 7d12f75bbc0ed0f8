//! The reference committee's 2PC state machine (paper §6.2, Figure 6),
//! stated once: as the chaincode R's replicas execute.
//!
//! The committee R replicates Figure 6 through BFT consensus by recording
//! its progress on R's own ledger (§6.3), so the *coordinator* role of
//! classic 2PC is played by a highly available replicated service rather
//! than a possibly-malicious client — the fix for OmniLedger's
//! indefinite-blocking problem. Every step is a guarded [`StateOp`] over
//! three keys per transaction:
//!
//! * `T{id}.c` — the counter `c` of committees whose PrepareOK is still
//!   outstanding, set by [`begin_op`] and decremented by [`vote_ok_op`];
//! * `T{id}.v{s}` — shard `s`'s vote, writable once;
//! * `T{id}.abort` — the abort flag [`vote_not_ok_op`] latches.
//!
//! The simulated system submits these ops to R over the network
//! (`ahl_core::xclient`); [`crate::MultiShardLedger`] executes them on an
//! in-process copy of R's ledger and reads the outcome back as a
//! [`CoordState`]: `Started → Preparing → {Committed, Aborted}`.
//!
//! **Vote-binding gap (open).** A vote is not bound to the shards BeginTx
//! registered: the chaincode records only their count, as Figure 6's `c`
//! does, so `vote_ok_op(txid, 9)` for a shard Begin never named passes
//! `Exists(T.c) ∧ NotExists(T.v9) ∧ NotExists(T.abort)` and decrements
//! `c`. Nothing models the shard committee's prepare certificate R should
//! check, so a malicious client relaying OK votes from non-participants
//! can drive `c` to 0, and R records a commit a participant never
//! prepared. `MultiShardLedger` refuses such votes before R; the
//! simulated system executes whatever vote op a client submits.

use ahl_ledger::{Condition, Mutation, StateOp, StateStore, TxId, Value};

/// Coordinator state for one transaction (Figure 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordState {
    /// BeginTx executed; PrepareTx being sent; no votes yet.
    Started,
    /// Some PrepareOKs received; `remaining` committees outstanding.
    Preparing {
        /// Outstanding PrepareOK count (the paper's counter `c`).
        remaining: usize,
    },
    /// All committees voted PrepareOK: commit phase.
    Committed,
    /// Some committee voted PrepareNotOK (or R timed the transaction out).
    Aborted,
}

/// The action the committee takes after a transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordAction {
    /// Send PrepareTx to the listed shards.
    SendPrepare(Vec<usize>),
    /// Send CommitTx to the listed shards.
    SendCommit(Vec<usize>),
    /// Send AbortTx to the listed shards.
    SendAbort(Vec<usize>),
    /// No outward action (duplicate/ignored event).
    None,
}

/// Keys of the coordinator chaincode on R's ledger.
fn key_counter(txid: TxId) -> String {
    format!("T{}.c", txid.0)
}
fn key_vote(txid: TxId, shard: usize) -> String {
    format!("T{}.v{}", txid.0, shard)
}
fn key_abort(txid: TxId) -> String {
    format!("T{}.abort", txid.0)
}

/// BeginTx chaincode op: register the transaction with `parts` shards.
pub fn begin_op(txid: TxId, parts: usize) -> StateOp {
    StateOp {
        conditions: vec![Condition::NotExists(key_counter(txid))],
        mutations: vec![(key_counter(txid), Mutation::Set(Value::Int(parts as i64)))],
    }
}

/// PrepareOK vote chaincode op for `shard` (accepted for any `shard` —
/// see the vote-binding gap in the module docs).
pub fn vote_ok_op(txid: TxId, shard: usize) -> StateOp {
    StateOp {
        conditions: vec![
            Condition::Exists(key_counter(txid)),
            Condition::NotExists(key_vote(txid, shard)),
            Condition::NotExists(key_abort(txid)),
        ],
        mutations: vec![
            (key_vote(txid, shard), Mutation::Set(Value::Bool(true))),
            (key_counter(txid), Mutation::Add(-1)),
        ],
    }
}

/// PrepareNotOK vote chaincode op for `shard` (latches the abort flag).
pub fn vote_not_ok_op(txid: TxId, shard: usize) -> StateOp {
    StateOp {
        conditions: vec![
            Condition::Exists(key_counter(txid)),
            Condition::NotExists(key_vote(txid, shard)),
        ],
        mutations: vec![
            (key_vote(txid, shard), Mutation::Set(Value::Bool(false))),
            (key_abort(txid), Mutation::Set(Value::Bool(true))),
        ],
    }
}

/// R's record of `txid` read back as its Figure 6 state (`None` before
/// BeginTx). `participants` are the shards Begin registered; the record
/// holds only their count. `c` reaches 0 only through OK votes, which a
/// latched abort refuses, so a record carrying both decided commit first.
pub(crate) fn coord_state(r: &StateStore, txid: TxId, participants: &[usize]) -> Option<CoordState> {
    let remaining = r.get(&key_counter(txid))?.as_int()?;
    Some(if remaining <= 0 {
        CoordState::Committed
    } else if r.get(&key_abort(txid)).is_some() {
        CoordState::Aborted
    } else if participants.iter().all(|&s| r.get(&key_vote(txid, s)).is_none()) {
        CoordState::Started
    } else {
        CoordState::Preparing { remaining: remaining as usize }
    })
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;
    use crate::protocol::MultiShardLedger;
    use ahl_ledger::Op;

    const TX: TxId = TxId(7);

    /// An input to Figure 6, as the tests script it.
    #[derive(Clone, Debug)]
    enum CoordEvent {
        /// Client's BeginTx naming the involved shards.
        Begin { shards: Vec<usize> },
        /// A shard's quorum-certified PrepareOK.
        PrepareOk { shard: usize },
        /// A shard's quorum-certified PrepareNotOK.
        PrepareNotOk { shard: usize },
        /// R times out a transaction stuck before its decision.
        Timeout,
    }

    /// The chaincode-backed coordinator: R's ledger inside a
    /// `MultiShardLedger`, driven through its 2PC entry points.
    struct Chain(MultiShardLedger);

    fn chain() -> Chain {
        Chain(MultiShardLedger::new(4))
    }

    impl Chain {
        fn apply(&mut self, txid: TxId, event: CoordEvent) -> CoordAction {
            match event {
                CoordEvent::Begin { shards } => self.0.begin_tx(txid, shards),
                CoordEvent::PrepareOk { shard } => self.0.vote(txid, shard, true),
                CoordEvent::PrepareNotOk { shard } => self.0.vote(txid, shard, false),
                CoordEvent::Timeout => self.0.time_out(txid),
            }
        }

        fn state(&self, txid: TxId) -> Option<CoordState> {
            self.0.state_of(txid)
        }
    }

    /// The hand-written transition table Figure 6 was stated as before
    /// the chaincode became its one statement, kept as the reference model
    /// the chaincode is checked against. One change from that table: a
    /// shard votes once, so a NotOK after the same shard's OK is ignored
    /// (the chaincode's write-once vote key) rather than aborting.
    #[derive(Default)]
    struct Reference {
        txs: HashMap<TxId, Entry>,
    }

    struct Entry {
        state: CoordState,
        shards: Vec<usize>,
        voted: HashSet<usize>,
    }

    impl Reference {
        fn state(&self, txid: TxId) -> Option<CoordState> {
            self.txs.get(&txid).map(|e| e.state.clone())
        }

        fn apply(&mut self, txid: TxId, event: CoordEvent) -> CoordAction {
            match event {
                CoordEvent::Begin { shards } => {
                    if self.txs.contains_key(&txid) || shards.is_empty() {
                        return CoordAction::None;
                    }
                    let entry = Entry {
                        state: CoordState::Started,
                        shards: shards.clone(),
                        voted: HashSet::new(),
                    };
                    self.txs.insert(txid, entry);
                    CoordAction::SendPrepare(shards)
                }
                CoordEvent::PrepareOk { shard } => {
                    let Some(entry) = self.txs.get_mut(&txid) else {
                        return CoordAction::None;
                    };
                    if matches!(entry.state, CoordState::Committed | CoordState::Aborted) {
                        return CoordAction::None; // late vote after the decision
                    }
                    if !entry.shards.contains(&shard) || !entry.voted.insert(shard) {
                        return CoordAction::None; // unknown shard or duplicate
                    }
                    let remaining = entry.shards.len() - entry.voted.len();
                    if remaining == 0 {
                        entry.state = CoordState::Committed;
                        CoordAction::SendCommit(entry.shards.clone())
                    } else {
                        entry.state = CoordState::Preparing { remaining };
                        CoordAction::None
                    }
                }
                CoordEvent::PrepareNotOk { shard } => {
                    let Some(entry) = self.txs.get_mut(&txid) else {
                        return CoordAction::None;
                    };
                    if matches!(entry.state, CoordState::Committed | CoordState::Aborted) {
                        return CoordAction::None; // late vote after the decision
                    }
                    if !entry.shards.contains(&shard) || entry.voted.contains(&shard) {
                        return CoordAction::None; // unknown shard or already voted
                    }
                    entry.state = CoordState::Aborted;
                    CoordAction::SendAbort(entry.shards.clone())
                }
                CoordEvent::Timeout => {
                    let Some(entry) = self.txs.get_mut(&txid) else {
                        return CoordAction::None;
                    };
                    match entry.state {
                        CoordState::Started | CoordState::Preparing { .. } => {
                            entry.state = CoordState::Aborted;
                            CoordAction::SendAbort(entry.shards.clone())
                        }
                        // Cannot abort a decided transaction.
                        CoordState::Committed | CoordState::Aborted => CoordAction::None,
                    }
                }
            }
        }
    }

    fn committed(r: &mut StateStore, txid: TxId, op: StateOp) -> bool {
        r.execute(&Op::Direct { txid, op }).status.is_committed()
    }

    #[test]
    fn coordinator_chaincode_guards() {
        let mut r_state = StateStore::new();
        let txid = TxId(9);
        // Begin registers once.
        assert!(committed(&mut r_state, txid, begin_op(txid, 2)));
        assert!(!committed(&mut r_state, txid, begin_op(txid, 2)));
        // Votes: one per shard, duplicates refused.
        assert!(committed(&mut r_state, txid, vote_ok_op(txid, 0)));
        assert!(!committed(&mut r_state, txid, vote_ok_op(txid, 0)));
        // Second OK brings the counter to zero: committed state on-chain.
        assert!(committed(&mut r_state, txid, vote_ok_op(txid, 1)));
        assert_eq!(r_state.get_int(&key_counter(txid)), 0);
    }

    #[test]
    fn not_ok_latches_abort_flag() {
        let mut r_state = StateStore::new();
        let txid = TxId(4);
        committed(&mut r_state, txid, begin_op(txid, 2));
        assert!(committed(&mut r_state, txid, vote_not_ok_op(txid, 0)));
        // A later OK from another shard is refused: abort already latched.
        assert!(!committed(&mut r_state, txid, vote_ok_op(txid, 1)));
        assert_eq!(r_state.get_int(&key_counter(txid)), 2);
    }

    /// R's chaincode refuses a vote before Begin on its own, without the
    /// participant check in front of it.
    #[test]
    fn votes_before_begin_refused() {
        let mut r_state = StateStore::new();
        let txid = TxId(5);
        assert!(!committed(&mut r_state, txid, vote_ok_op(txid, 0)));
    }

    /// The vote-binding gap, pinned as found (see the module docs): R
    /// accepts OK votes from shards Begin never registered and records a
    /// commit neither participant prepared. The fix flips both assertions.
    #[test]
    fn non_participant_votes_reach_a_commit() {
        let mut r_state = StateStore::new();
        let txid = TxId(3);
        committed(&mut r_state, txid, begin_op(txid, 2));
        for shard in [8, 9] {
            assert!(committed(&mut r_state, txid, vote_ok_op(txid, shard)));
        }
        assert_eq!(r_state.get_int(&key_counter(txid)), 0);
        assert_eq!(coord_state(&r_state, txid, &[0, 1]), Some(CoordState::Committed));
    }

    #[test]
    fn commit_path() {
        let mut c = chain();
        let a = c.apply(TX, CoordEvent::Begin { shards: vec![0, 1, 2] });
        assert_eq!(a, CoordAction::SendPrepare(vec![0, 1, 2]));
        assert_eq!(c.state(TX), Some(CoordState::Started));

        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 0 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Preparing { remaining: 2 }));
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 1 }), CoordAction::None);
        let done = c.apply(TX, CoordEvent::PrepareOk { shard: 2 });
        assert_eq!(done, CoordAction::SendCommit(vec![0, 1, 2]));
        assert_eq!(c.state(TX), Some(CoordState::Committed));
    }

    #[test]
    fn abort_path() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] });
        c.apply(TX, CoordEvent::PrepareOk { shard: 0 });
        let a = c.apply(TX, CoordEvent::PrepareNotOk { shard: 1 });
        assert_eq!(a, CoordAction::SendAbort(vec![0, 1]));
        assert_eq!(c.state(TX), Some(CoordState::Aborted));
        // Late OK changes nothing.
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 1 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Aborted));
    }

    #[test]
    fn duplicate_votes_ignored() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] });
        c.apply(TX, CoordEvent::PrepareOk { shard: 0 });
        // A Byzantine shard member replaying OK must not drive c to zero.
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 0 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Preparing { remaining: 1 }));
    }

    #[test]
    fn replayed_ok_never_double_decrements() {
        // Three shards; shard 0's vote is replayed many times. The counter
        // must stay at `remaining = 2` — a double decrement would commit
        // after shard 1's vote with shard 2 never having prepared.
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1, 2] });
        for _ in 0..5 {
            assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 0 }), CoordAction::None);
        }
        assert_eq!(c.state(TX), Some(CoordState::Preparing { remaining: 2 }));
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 1 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Preparing { remaining: 1 }));
        // Only the genuinely missing vote completes the commit.
        assert_eq!(
            c.apply(TX, CoordEvent::PrepareOk { shard: 2 }),
            CoordAction::SendCommit(vec![0, 1, 2])
        );
    }

    #[test]
    fn votes_after_committed_ignored() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] });
        c.apply(TX, CoordEvent::PrepareOk { shard: 0 });
        assert_eq!(
            c.apply(TX, CoordEvent::PrepareOk { shard: 1 }),
            CoordAction::SendCommit(vec![0, 1])
        );
        // Late/replayed votes of either kind change nothing — in
        // particular a late NotOk must never flip Committed to Aborted,
        // and no second SendCommit may be emitted.
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 0 }), CoordAction::None);
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 1 }), CoordAction::None);
        assert_eq!(c.apply(TX, CoordEvent::PrepareNotOk { shard: 0 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Committed));
    }

    #[test]
    fn votes_after_aborted_ignored() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1, 2] });
        assert_eq!(
            c.apply(TX, CoordEvent::PrepareNotOk { shard: 1 }),
            CoordAction::SendAbort(vec![0, 1, 2])
        );
        // Late OKs — including a full quorum of them — must not resurrect
        // the transaction or emit a commit.
        for shard in [0, 1, 2] {
            assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard }), CoordAction::None);
        }
        // Nor may a replayed NotOk emit a second SendAbort.
        assert_eq!(c.apply(TX, CoordEvent::PrepareNotOk { shard: 2 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Aborted));
    }

    #[test]
    fn unknown_shard_votes_ignored() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] });
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 9 }), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Started));
    }

    #[test]
    fn votes_before_begin_ignored() {
        let mut c = chain();
        assert_eq!(c.apply(TX, CoordEvent::PrepareOk { shard: 0 }), CoordAction::None);
        assert_eq!(c.state(TX), None);
    }

    #[test]
    fn double_begin_ignored() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0] });
        assert_eq!(
            c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] }),
            CoordAction::None
        );
    }

    /// A client's abort of a stuck transaction is R's timeout: PrepareNotOK
    /// recorded for the participant whose vote never arrived.
    #[test]
    fn client_abort_before_decision() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0, 1] });
        c.apply(TX, CoordEvent::PrepareOk { shard: 0 });
        assert_eq!(c.apply(TX, CoordEvent::Timeout), CoordAction::SendAbort(vec![0, 1]));
    }

    #[test]
    fn client_cannot_abort_committed() {
        let mut c = chain();
        c.apply(TX, CoordEvent::Begin { shards: vec![0] });
        c.apply(TX, CoordEvent::PrepareOk { shard: 0 });
        assert_eq!(c.state(TX), Some(CoordState::Committed));
        assert_eq!(c.apply(TX, CoordEvent::Timeout), CoordAction::None);
        assert_eq!(c.state(TX), Some(CoordState::Committed));
    }

    proptest::proptest! {
        /// Determinism + single-decision: any event sequence yields at most
        /// one SendCommit/SendAbort per transaction, never both.
        #[test]
        fn at_most_one_decision(events in proptest::collection::vec((0u8..4, 0usize..4), 1..60)) {
            let mut c = chain();
            c.apply(TX, CoordEvent::Begin { shards: vec![0, 1, 2, 3] });
            let mut commits = 0;
            let mut aborts = 0;
            for (kind, shard) in events {
                let ev = match kind {
                    0 => CoordEvent::PrepareOk { shard },
                    1 => CoordEvent::PrepareNotOk { shard },
                    2 => CoordEvent::Timeout,
                    _ => CoordEvent::PrepareOk { shard },
                };
                match c.apply(TX, ev) {
                    CoordAction::SendCommit(_) => commits += 1,
                    CoordAction::SendAbort(_) => aborts += 1,
                    _ => {}
                }
            }
            proptest::prop_assert!(commits <= 1);
            proptest::prop_assert!(aborts <= 1);
            proptest::prop_assert!(commits + aborts <= 1);
        }

        /// The chaincode on R's ledger and the reference model agree after
        /// every step of a random interleaving over two transactions of
        /// 2–4 participants: Begins (repeated, empty, with another shard
        /// set), OK and NotOK votes (duplicates, late, before Begin, from
        /// non-participants) and timeouts.
        #[test]
        fn chaincode_matches_reference_model(
            parts in 2usize..5,
            events in proptest::collection::vec((0u64..2, 0u8..6, 0usize..6), 1..60),
        ) {
            let mut c = chain();
            let mut model = Reference::default();
            for (tx, kind, shard) in events {
                let txid = TxId(tx);
                let ev = match kind {
                    0 => CoordEvent::Begin { shards: (shard % 3..shard % 3 + parts).collect() },
                    1 => CoordEvent::Begin { shards: vec![] },
                    2 => CoordEvent::PrepareNotOk { shard },
                    3 => CoordEvent::Timeout,
                    _ => CoordEvent::PrepareOk { shard },
                };
                proptest::prop_assert_eq!(c.apply(txid, ev.clone()), model.apply(txid, ev));
                for t in [TxId(0), TxId(1)] {
                    proptest::prop_assert_eq!(c.state(t), model.state(t));
                }
            }
        }
    }
}
