//! The generated inputs of the kv workloads: every operation is a
//! single-key 16-byte `kv_write`, its key drawn from a stream that is a
//! pure function of `--seed` and the client index. The program under test
//! receives only these operations, never the seed.

use ahl_consensus::Request;
use ahl_ledger::{kvstore, Op, TxId};
use ahl_simkit::rng::{derive_seed, splitmix64};
use ahl_simkit::{NodeId, SimTime};

/// Key population. The warm-up pass writes every key once so the sparse
/// Merkle tree is at its steady size before anything is timed.
pub const KEYS: u64 = 32_768;

/// Payload bytes per write.
pub const VALUE_BYTES: usize = 16;

/// Uniform key indices in `0..KEYS`, deterministic in `(seed, stream)`.
#[derive(Clone, Debug)]
pub struct KeyStream {
    state: u64,
}

impl KeyStream {
    /// The stream of client `stream` under workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        KeyStream {
            state: derive_seed(seed, 0x6B76_6F70 ^ stream),
        }
    }
}

impl Iterator for KeyStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(splitmix64(&mut self.state) % KEYS)
    }
}

/// The warm-up share of worker `index` out of `workers`: every
/// `workers`-th key, so the shares partition `0..KEYS`.
pub fn warmup_keys(index: usize, workers: usize) -> impl Iterator<Item = u64> + Send {
    (index as u64..KEYS).step_by(workers)
}

/// The `seq`-th request of `client`, writing `key`. Request and
/// transaction ids embed the client id, so they are unique cluster-wide.
pub fn kv_request(client: NodeId, seq: u32, key: u64, submitted: SimTime) -> Request {
    Request {
        id: Request::make_id(client, seq),
        client,
        op: Op::Direct {
            txid: TxId(((client as u64) << 40) | seq as u64),
            op: kvstore::kv_write(&[key], VALUE_BYTES),
        },
        submitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = KeyStream::new(7, 1).take(1000).collect();
        let b: Vec<u64> = KeyStream::new(7, 1).take(1000).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|k| *k < KEYS));
        let other_seed: Vec<u64> = KeyStream::new(8, 1).take(1000).collect();
        let other_client: Vec<u64> = KeyStream::new(7, 2).take(1000).collect();
        assert_ne!(a, other_seed);
        assert_ne!(a, other_client);
    }

    #[test]
    fn generated_ops_repeat_exactly() {
        let ops = |seed| -> Vec<Op> {
            KeyStream::new(seed, 0)
                .take(200)
                .enumerate()
                .map(|(i, k)| kv_request(5, i as u32, k, SimTime::ZERO).op)
                .collect()
        };
        assert_eq!(ops(42), ops(42));
        assert_ne!(ops(42), ops(43));
    }

    #[test]
    fn warmup_shares_partition_the_key_space() {
        let mut all: Vec<u64> = (0..3).flat_map(|i| warmup_keys(i, 3)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..KEYS).collect::<Vec<_>>());
    }

    #[test]
    fn ids_are_unique_across_clients() {
        let a = kv_request(4, 9, 1, SimTime::ZERO);
        let b = kv_request(5, 9, 1, SimTime::ZERO);
        assert_ne!(a.id, b.id);
        assert_ne!(a.op.txid(), b.op.txid());
    }
}
