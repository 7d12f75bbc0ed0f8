//! # ahl-workload — BLOCKBENCH-style workload generators
//!
//! The two benchmarks the paper evaluates with (§7):
//!
//! * [`KvStoreWorkload`] — BLOCKBENCH's KVStore: value writes over a key
//!   space; 1 update per transaction in single-shard experiments, 3 updates
//!   in the cross-shard configuration.
//! * [`SmallBankWorkload`] — BLOCKBENCH's Smallbank: banking transactions
//!   over account pairs; the paper's multi-shard runs use `sendPayment`
//!   (reads and writes two different accounts). Zipf skew selects hot
//!   accounts (Figure 13 right).
//!
//! Generators produce [`ahl_ledger::Op`] values and plug into the
//! consensus clients as factory closures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod zipf;

pub use zipf::Zipf;

use ahl_ledger::{kvstore, smallbank, Op, StateOp, TxId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// KVStore workload parameters.
#[derive(Clone, Debug)]
pub struct KvStoreWorkload {
    /// Key space size.
    pub keys: u64,
    /// Updates per transaction (paper: 1 single-shard, 3 cross-shard).
    pub ops_per_txn: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Zipf skew over keys (0 = uniform).
    pub theta: f64,
}

impl KvStoreWorkload {
    /// The paper's single-shard configuration.
    pub fn single_shard() -> Self {
        KvStoreWorkload {
            keys: 10_000,
            ops_per_txn: 1,
            value_size: 64,
            theta: 0.0,
        }
    }

    /// The paper's cross-shard configuration (3 updates per transaction).
    pub fn cross_shard() -> Self {
        KvStoreWorkload {
            keys: 10_000,
            ops_per_txn: 3,
            value_size: 64,
            theta: 0.0,
        }
    }

    /// Generate the next transaction body.
    pub fn next_op(&self, zipf: &Zipf, rng: &mut SmallRng) -> StateOp {
        let mut picked = Vec::with_capacity(self.ops_per_txn);
        while picked.len() < self.ops_per_txn {
            let k = zipf.sample(rng) as u64;
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        kvstore::kv_write(&picked, self.value_size)
    }

    /// Build a factory closure for client `client_id`.
    pub fn factory(self, client_id: usize) -> Box<dyn FnMut(&mut SmallRng) -> Op + Send> {
        let zipf = Zipf::new(self.keys as usize, self.theta);
        let mut seq: u64 = (client_id as u64) << 40;
        Box::new(move |rng| {
            seq += 1;
            Op::Direct {
                txid: TxId(seq),
                op: self.next_op(&zipf, rng),
            }
        })
    }
}

/// SmallBank operation mix (weights; the paper's experiments use pure
/// `sendPayment`).
#[derive(Clone, Debug)]
pub struct SmallBankMix {
    /// Weight of sendPayment.
    pub send_payment: u32,
    /// Weight of transactSavings.
    pub transact_savings: u32,
    /// Weight of depositChecking.
    pub deposit_checking: u32,
    /// Weight of writeCheck.
    pub write_check: u32,
    /// Weight of amalgamate.
    pub amalgamate: u32,
}

impl SmallBankMix {
    /// The paper's configuration: sendPayment only.
    pub fn send_payment_only() -> Self {
        SmallBankMix {
            send_payment: 1,
            transact_savings: 0,
            deposit_checking: 0,
            write_check: 0,
            amalgamate: 0,
        }
    }

    /// The classic SmallBank mix (equal weights).
    pub fn classic() -> Self {
        SmallBankMix {
            send_payment: 1,
            transact_savings: 1,
            deposit_checking: 1,
            write_check: 1,
            amalgamate: 1,
        }
    }

    fn total(&self) -> u32 {
        self.send_payment
            + self.transact_savings
            + self.deposit_checking
            + self.write_check
            + self.amalgamate
    }
}

/// SmallBank workload parameters.
#[derive(Clone, Debug)]
pub struct SmallBankWorkload {
    /// Number of accounts.
    pub accounts: usize,
    /// Zipf skew over accounts (Figure 13 sweeps 0..1.99).
    pub theta: f64,
    /// Operation mix.
    pub mix: SmallBankMix,
    /// Initial checking balance (for genesis and amalgamate hints).
    pub initial_balance: i64,
}

impl SmallBankWorkload {
    /// The paper's configuration: `accounts` accounts, pure sendPayment.
    pub fn paper(accounts: usize, theta: f64) -> Self {
        SmallBankWorkload {
            accounts,
            theta,
            mix: SmallBankMix::send_payment_only(),
            initial_balance: 1_000_000,
        }
    }

    /// Genesis entries for this workload.
    pub fn genesis(&self) -> Vec<(String, Value)> {
        smallbank::genesis(self.accounts, self.initial_balance, self.initial_balance)
    }

    /// Draw two distinct account names (Zipf-skewed).
    fn pick_pair(&self, zipf: &Zipf, rng: &mut SmallRng) -> (String, String) {
        let a = zipf.sample(rng);
        let mut b = zipf.sample(rng);
        let mut guard = 0;
        while b == a && guard < 64 {
            b = zipf.sample(rng);
            guard += 1;
        }
        if b == a {
            b = (a + 1) % self.accounts;
        }
        (smallbank::account_name(a), smallbank::account_name(b))
    }

    /// Generate the next transaction body.
    pub fn next_op(&self, zipf: &Zipf, rng: &mut SmallRng) -> StateOp {
        let roll = rng.gen_range(0..self.mix.total().max(1));
        let mut acc = self.mix.send_payment;
        if roll < acc {
            let (from, to) = self.pick_pair(zipf, rng);
            return smallbank::send_payment(&from, &to, rng.gen_range(1..100));
        }
        acc += self.mix.transact_savings;
        if roll < acc {
            let a = smallbank::account_name(zipf.sample(rng));
            return smallbank::transact_savings(&a, rng.gen_range(-50..100));
        }
        acc += self.mix.deposit_checking;
        if roll < acc {
            let a = smallbank::account_name(zipf.sample(rng));
            return smallbank::deposit_checking(&a, rng.gen_range(1..100));
        }
        acc += self.mix.write_check;
        if roll < acc {
            let a = smallbank::account_name(zipf.sample(rng));
            return smallbank::write_check(&a, rng.gen_range(1..50));
        }
        let (a, b) = self.pick_pair(zipf, rng);
        // Optimistic amalgamate with a conservative observed balance.
        smallbank::amalgamate(&a, &b, 0, 0)
    }

    /// Build a factory closure for client `client_id`.
    pub fn factory(self, client_id: usize) -> Box<dyn FnMut(&mut SmallRng) -> Op + Send> {
        let zipf = Zipf::new(self.accounts, self.theta);
        let mut seq: u64 = (client_id as u64) << 40;
        Box::new(move |rng| {
            seq += 1;
            Op::Direct {
                txid: TxId(seq),
                op: self.next_op(&zipf, rng),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kvstore_generates_requested_width() {
        let w = KvStoreWorkload::cross_shard();
        let zipf = Zipf::new(w.keys as usize, w.theta);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let op = w.next_op(&zipf, &mut rng);
            assert_eq!(op.mutations.len(), 3);
            assert!(op.conditions.is_empty());
        }
    }

    #[test]
    fn kvstore_factory_unique_txids() {
        let mut f = KvStoreWorkload::single_shard().factory(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ids = std::collections::HashSet::new();
        for _ in 0..100 {
            let Op::Direct { txid, .. } = f(&mut rng) else {
                panic!("kvstore factory yields Direct ops")
            };
            assert!(ids.insert(txid));
        }
    }

    #[test]
    fn smallbank_send_payment_touches_two_accounts() {
        let w = SmallBankWorkload::paper(100, 0.0);
        let zipf = Zipf::new(w.accounts, w.theta);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let op = w.next_op(&zipf, &mut rng);
            assert_eq!(op.touched_keys().len(), 2);
            assert_eq!(op.conditions.len(), 1);
        }
    }

    #[test]
    fn smallbank_genesis_matches_accounts() {
        let w = SmallBankWorkload::paper(10, 0.0);
        assert_eq!(w.genesis().len(), 20); // checking + savings each
    }

    #[test]
    fn classic_mix_produces_variety() {
        let w = SmallBankWorkload {
            accounts: 50,
            theta: 0.0,
            mix: SmallBankMix::classic(),
            initial_balance: 1000,
        };
        let zipf = Zipf::new(w.accounts, w.theta);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut widths = std::collections::HashSet::new();
        for _ in 0..200 {
            widths.insert(w.next_op(&zipf, &mut rng).touched_keys().len());
        }
        // sendPayment (2), savings/deposit/check (1), amalgamate (3).
        assert!(widths.len() >= 2, "widths {widths:?}");
    }

    #[test]
    fn skew_concentrates_account_touches() {
        let uniform = SmallBankWorkload::paper(1000, 0.0);
        let skewed = SmallBankWorkload::paper(1000, 1.5);
        let count_acc0 = |w: &SmallBankWorkload| {
            let zipf = Zipf::new(w.accounts, w.theta);
            let mut rng = SmallRng::seed_from_u64(5);
            (0..2000)
                .filter(|_| {
                    w.next_op(&zipf, &mut rng)
                        .touched_keys()
                        .iter()
                        .any(|k| k == "ck_acc0")
                })
                .count()
        };
        assert!(count_acc0(&skewed) > 10 * count_acc0(&uniform).max(1));
    }
}
