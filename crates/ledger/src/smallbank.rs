//! The SmallBank chaincode (BLOCKBENCH's Smallbank benchmark, §6.3/§7).
//!
//! Accounts have a checking and a savings balance, stored under
//! `"ck_" + acc` and `"sv_" + acc`. Each of the six classic SmallBank
//! procedures compiles to a [`StateOp`]; `send_payment` is the transaction
//! the paper's multi-shard experiments issue (reads and writes two
//! different accounts).

use crate::types::{Condition, Key, Mutation, StateOp, Value};

/// Key of an account's checking balance.
pub fn checking_key(account: &str) -> Key {
    format!("ck_{account}")
}

/// Key of an account's savings balance.
pub fn savings_key(account: &str) -> Key {
    format!("sv_{account}")
}

/// Genesis state for `n` accounts, each with the given balances.
pub fn genesis(n: usize, checking: i64, savings: i64) -> Vec<(Key, Value)> {
    let mut out = Vec::with_capacity(2 * n);
    for i in 0..n {
        let acc = account_name(i);
        out.push((checking_key(&acc), Value::Int(checking)));
        out.push((savings_key(&acc), Value::Int(savings)));
    }
    out
}

/// Canonical account name for index `i`.
pub fn account_name(i: usize) -> String {
    format!("acc{i}")
}

/// `sendPayment(from, to, amount)` — the §6.3 running example: moves
/// `amount` from `from`'s checking to `to`'s checking, guarded by a
/// sufficient-funds check.
pub fn send_payment(from: &str, to: &str, amount: i64) -> StateOp {
    StateOp {
        conditions: vec![Condition::IntAtLeast {
            key: checking_key(from),
            min: amount,
        }],
        mutations: vec![
            (checking_key(from), Mutation::Add(-amount)),
            (checking_key(to), Mutation::Add(amount)),
        ],
    }
}

/// `transactSavings(acc, amount)` — adjust the savings balance; negative
/// adjustments are guarded against overdraft.
pub fn transact_savings(account: &str, amount: i64) -> StateOp {
    let mut conditions = Vec::new();
    if amount < 0 {
        conditions.push(Condition::IntAtLeast {
            key: savings_key(account),
            min: -amount,
        });
    }
    StateOp {
        conditions,
        mutations: vec![(savings_key(account), Mutation::Add(amount))],
    }
}

/// `depositChecking(acc, amount)` — unconditional checking credit.
pub fn deposit_checking(account: &str, amount: i64) -> StateOp {
    StateOp {
        conditions: vec![],
        mutations: vec![(checking_key(account), Mutation::Add(amount))],
    }
}

/// `writeCheck(acc, amount)` — checking debit guarded by available funds.
pub fn write_check(account: &str, amount: i64) -> StateOp {
    StateOp {
        conditions: vec![Condition::IntAtLeast {
            key: checking_key(account),
            min: amount,
        }],
        mutations: vec![(checking_key(account), Mutation::Add(-amount))],
    }
}

/// `amalgamate(a, b)` — move all of `a`'s funds (checking + savings,
/// `a_ck + a_sv = total`) into `b`'s checking.
///
/// Because [`Mutation`]s are static deltas, the amount must be bound at
/// compile time from the current balances — callers supply the observed
/// balances and the guards ensure they still hold at execution (optimistic
/// re-validation, the standard batching pattern).
pub fn amalgamate(a: &str, b: &str, a_checking: i64, a_savings: i64) -> StateOp {
    StateOp {
        conditions: vec![
            Condition::IntAtLeast {
                key: checking_key(a),
                min: a_checking,
            },
            Condition::IntAtLeast {
                key: savings_key(a),
                min: a_savings,
            },
        ],
        mutations: vec![
            (checking_key(a), Mutation::Add(-a_checking)),
            (savings_key(a), Mutation::Add(-a_savings)),
            (checking_key(b), Mutation::Add(a_checking + a_savings)),
        ],
    }
}

/// The keys `balance(acc)` reads.
pub fn balance_keys(account: &str) -> Vec<Key> {
    vec![checking_key(account), savings_key(account)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateStore;
    use crate::types::{Op, TxId};

    fn store() -> StateStore {
        let mut s = StateStore::new();
        for (k, v) in genesis(4, 100, 200) {
            s.put(k, v);
        }
        s
    }

    #[test]
    fn genesis_populates_balances() {
        let s = store();
        assert_eq!(s.get_int(&checking_key("acc0")), 100);
        assert_eq!(s.get_int(&savings_key("acc3")), 200);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn send_payment_moves_funds() {
        let mut s = store();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: send_payment("acc0", "acc1", 40),
        });
        assert!(r.status.is_committed());
        assert_eq!(s.get_int(&checking_key("acc0")), 60);
        assert_eq!(s.get_int(&checking_key("acc1")), 140);
    }

    #[test]
    fn send_payment_overdraft_aborts() {
        let mut s = store();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: send_payment("acc0", "acc1", 101),
        });
        assert!(!r.status.is_committed());
        assert_eq!(s.get_int(&checking_key("acc0")), 100);
    }

    #[test]
    fn transact_savings_guards_overdraft() {
        let mut s = store();
        assert!(s
            .execute(&Op::Direct {
                txid: TxId(1),
                op: transact_savings("acc0", -150)
            })
            .status
            .is_committed());
        assert_eq!(s.get_int(&savings_key("acc0")), 50);
        assert!(!s
            .execute(&Op::Direct {
                txid: TxId(2),
                op: transact_savings("acc0", -60)
            })
            .status
            .is_committed());
    }

    #[test]
    fn deposit_checking_unconditional() {
        let mut s = store();
        assert!(s
            .execute(&Op::Direct {
                txid: TxId(1),
                op: deposit_checking("acc2", 1000)
            })
            .status
            .is_committed());
        assert_eq!(s.get_int(&checking_key("acc2")), 1100);
    }

    #[test]
    fn write_check_guards_funds() {
        let mut s = store();
        assert!(s
            .execute(&Op::Direct {
                txid: TxId(1),
                op: write_check("acc0", 100)
            })
            .status
            .is_committed());
        assert!(!s
            .execute(&Op::Direct {
                txid: TxId(2),
                op: write_check("acc0", 1)
            })
            .status
            .is_committed());
    }

    #[test]
    fn amalgamate_moves_everything() {
        let mut s = store();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: amalgamate("acc0", "acc1", 100, 200),
        });
        assert!(r.status.is_committed());
        assert_eq!(s.get_int(&checking_key("acc0")), 0);
        assert_eq!(s.get_int(&savings_key("acc0")), 0);
        assert_eq!(s.get_int(&checking_key("acc1")), 400);
    }

    #[test]
    fn amalgamate_stale_balance_aborts() {
        let mut s = store();
        // Observed balances are stale (too high) — guard fails, no partial
        // application.
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: amalgamate("acc0", "acc1", 150, 200),
        });
        assert!(!r.status.is_committed());
        assert_eq!(s.get_int(&checking_key("acc0")), 100);
        assert_eq!(s.get_int(&checking_key("acc1")), 100);
    }

    #[test]
    fn send_payment_touches_two_accounts() {
        // The paper: "the original sendPayment transaction ... reads and
        // writes two different states."
        let op = send_payment("acc0", "acc1", 1);
        assert_eq!(op.touched_keys().len(), 2);
    }
}
