//! The KVStore chaincode (BLOCKBENCH's key-value benchmark, §7).
//!
//! Single-shard experiments use 1-update transactions; the paper's
//! cross-shard driver was "modified to issue 3 updates per transaction".

use crate::types::{Key, Mutation, StateOp, Value};

/// Canonical KVStore key for index `i`.
pub fn kv_key(i: u64) -> Key {
    format!("kv_{i}")
}

/// A write transaction updating `keys` with `value_size`-byte payloads.
/// The payload content is derived from the key index so replicas agree.
pub fn kv_write(keys: &[u64], value_size: usize) -> StateOp {
    StateOp {
        conditions: vec![],
        mutations: keys
            .iter()
            .map(|&k| {
                let payload = vec![(k % 251) as u8; value_size];
                (kv_key(k), Mutation::Set(Value::Bytes(payload)))
            })
            .collect(),
    }
}

/// The keys a read transaction touches.
pub fn kv_read_keys(keys: &[u64]) -> Vec<Key> {
    keys.iter().map(|&k| kv_key(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateStore;
    use crate::types::{Op, TxId};

    #[test]
    fn write_then_read() {
        let mut s = StateStore::new();
        let r = s.execute(&Op::Direct {
            txid: TxId(1),
            op: kv_write(&[1, 2, 3], 16),
        });
        assert!(r.status.is_committed());
        assert_eq!(s.len(), 3);
        assert!(matches!(s.get(&kv_key(2)), Some(Value::Bytes(b)) if b.len() == 16));
    }

    #[test]
    fn three_update_txn_touches_three_keys() {
        // The cross-shard KVStore driver issues 3 updates per transaction.
        let op = kv_write(&[10, 20, 30], 8);
        assert_eq!(op.touched_keys().len(), 3);
        assert_eq!(op.weight(), 3);
    }

    #[test]
    fn overwrite_same_key() {
        let mut s = StateStore::new();
        s.execute(&Op::Direct {
            txid: TxId(1),
            op: kv_write(&[5], 4),
        });
        s.execute(&Op::Direct {
            txid: TxId(2),
            op: kv_write(&[5], 9),
        });
        assert!(matches!(s.get(&kv_key(5)), Some(Value::Bytes(b)) if b.len() == 9));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn read_keys_mapping() {
        assert_eq!(
            kv_read_keys(&[1, 2]),
            vec!["kv_1".to_string(), "kv_2".to_string()]
        );
    }
}
