//! Core ledger data types: keys, values, and the transaction operation
//! model.
//!
//! The paper targets *general* blockchain workloads (not UTXO): Hyperledger
//! models state as key-value tuples that chaincode reads and writes. We
//! capture chaincode execution as [`StateOp`]s — guarded sets of mutations —
//! which is expressive enough for KVStore, SmallBank, and the prepare /
//! commit / abort split of §6.3, while staying analyzable.

use ahl_crypto::{Hash, Sha256};

/// A state key (Hyperledger-style string key).
pub type Key = String;

/// A state value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Integer (balances, counters).
    Int(i64),
    /// Raw bytes (KVStore payloads).
    Bytes(Vec<u8>),
    /// Boolean (lock markers).
    Bool(bool),
    /// A large payload modelled by size only: transfers and digests cost as
    /// if `size` bytes were present, without the host actually storing them
    /// (used to model multi-gigabyte shard state in reconfiguration and
    /// state-sync experiments).
    Opaque {
        /// Modelled payload size in bytes.
        size: u64,
        /// Content tag distinguishing payloads of equal size.
        tag: u64,
    },
}

impl Value {
    /// Integer content, or `None` for other variants.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes.
    pub fn size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Bytes(b) => b.len(),
            Value::Bool(_) => 1,
            Value::Opaque { size, .. } => *size as usize,
        }
    }

    /// Run `f` on the canonical encoding, a variant tag and its payload,
    /// without materialising the two as one buffer.
    fn with_encoding<R>(&self, f: impl FnOnce(u8, &[u8]) -> R) -> R {
        match self {
            Value::Int(i) => f(0, &i.to_be_bytes()),
            Value::Bytes(b) => f(1, b),
            Value::Bool(b) => f(2, &[*b as u8]),
            Value::Opaque { size, tag } => {
                let mut payload = [0u8; 16];
                payload[..8].copy_from_slice(&size.to_be_bytes());
                payload[8..].copy_from_slice(&tag.to_be_bytes());
                f(3, &payload)
            }
        }
    }

    /// Canonical content digest — the SMT leaf value hash ([`StateStore`]'s
    /// authenticated index commits to it per key): `sha256_parts` of the
    /// single part `tag ‖ payload`.
    ///
    /// [`StateStore`]: crate::StateStore
    pub fn digest(&self) -> Hash {
        self.with_encoding(|tag, payload| {
            let mut h = Sha256::new();
            h.update((1 + payload.len() as u64).to_be_bytes());
            h.update([tag]);
            h.update(payload);
            h.finalize()
        })
    }
}

impl ahl_store::StateValue for Value {
    fn leaf_digest(&self) -> Hash {
        self.digest()
    }
}

/// A state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Overwrite the key with a value.
    Set(Value),
    /// Integer addition (creates the key at `delta` if absent). The natural
    /// encoding for balance transfers.
    Add(i64),
    /// Remove the key.
    Delete,
}

/// A guard evaluated against current state before mutations apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Condition {
    /// The key must exist.
    Exists(Key),
    /// The key must not exist (e.g. "this transaction has not begun").
    NotExists(Key),
    /// The key's integer value must be at least `min` (absent counts as 0).
    IntAtLeast {
        /// Guarded key.
        key: Key,
        /// Minimum required value.
        min: i64,
    },
}

impl Condition {
    /// The key this condition reads.
    pub fn key(&self) -> &Key {
        match self {
            Condition::Exists(k) | Condition::NotExists(k) => k,
            Condition::IntAtLeast { key, .. } => key,
        }
    }
}

/// A guarded set of mutations — the unit of chaincode execution.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StateOp {
    /// All guards must hold or the operation aborts.
    pub conditions: Vec<Condition>,
    /// Applied atomically when the guards hold.
    pub mutations: Vec<(Key, Mutation)>,
}

impl StateOp {
    /// Every key the operation touches (guards + mutations), deduplicated,
    /// in first-occurrence order. This is the 2PL lock set.
    pub fn touched_keys(&self) -> Vec<Key> {
        let mut keys: Vec<Key> = Vec::new();
        for c in &self.conditions {
            if !keys.contains(c.key()) {
                keys.push(c.key().clone());
            }
        }
        for (k, _) in &self.mutations {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
        keys
    }

    /// Number of state accesses (used by the execution cost model).
    pub fn weight(&self) -> usize {
        self.conditions.len() + self.mutations.len()
    }

    /// Restrict this operation to the keys selected by `owned`: guards and
    /// mutations on foreign keys are dropped. This is how a cross-shard
    /// transaction is split into per-shard sub-operations.
    pub fn restrict_to(&self, owned: impl Fn(&Key) -> bool) -> StateOp {
        StateOp {
            conditions: self
                .conditions
                .iter()
                .filter(|c| owned(c.key()))
                .cloned()
                .collect(),
            mutations: self
                .mutations
                .iter()
                .filter(|(k, _)| owned(k))
                .cloned()
                .collect(),
        }
    }
}

/// Globally unique transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// A ledger transaction: an identified operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Execute a [`StateOp`] directly (single-shard transaction).
    Direct {
        /// Transaction id.
        txid: TxId,
        /// The guarded mutation set.
        op: StateOp,
    },
    /// Phase 1 of 2PC (§6.3 `preparePayment`): validate guards, acquire
    /// locks on every touched key, stash the mutations as pending.
    Prepare {
        /// Cross-shard transaction id.
        txid: TxId,
        /// The local shard's slice of the transaction.
        op: StateOp,
    },
    /// Phase 2 commit (§6.3 `commitPayment`): apply pending mutations and
    /// release locks.
    Commit {
        /// Cross-shard transaction id.
        txid: TxId,
    },
    /// Phase 2 abort (§6.3 `abortPayment`): discard pending mutations and
    /// release locks.
    Abort {
        /// Cross-shard transaction id.
        txid: TxId,
    },
    /// Read-only query.
    Read {
        /// Transaction id.
        txid: TxId,
        /// Keys to read.
        keys: Vec<Key>,
    },
    /// No-op (padding / keep-alive).
    Noop,
}

impl Op {
    /// The transaction id, if any.
    pub fn txid(&self) -> Option<TxId> {
        match self {
            Op::Direct { txid, .. }
            | Op::Prepare { txid, .. }
            | Op::Commit { txid }
            | Op::Abort { txid }
            | Op::Read { txid, .. } => Some(*txid),
            Op::Noop => None,
        }
    }

    /// State-access weight for the execution cost model.
    pub fn weight(&self) -> usize {
        match self {
            Op::Direct { op, .. } | Op::Prepare { op, .. } => op.weight().max(1),
            Op::Commit { .. } | Op::Abort { .. } => 1,
            Op::Read { keys, .. } => keys.len().max(1),
            Op::Noop => 1,
        }
    }

    /// Approximate wire size in bytes (for network modelling).
    pub fn wire_size(&self) -> usize {
        match self {
            Op::Direct { op, .. } | Op::Prepare { op, .. } => {
                32 + op
                    .mutations
                    .iter()
                    .map(|(k, m)| {
                        k.len()
                            + match m {
                                Mutation::Set(v) => v.size(),
                                _ => 8,
                            }
                    })
                    .sum::<usize>()
                    + op.conditions
                        .iter()
                        .map(|c| c.key().len() + 9)
                        .sum::<usize>()
            }
            Op::Commit { .. } | Op::Abort { .. } => 40,
            Op::Read { keys, .. } => 32 + keys.iter().map(String::len).sum::<usize>(),
            Op::Noop => 16,
        }
    }

    /// Content digest for Merkle roots and signatures: `sha256_parts` of
    /// the op's kind, txid and body, streamed into one hasher.
    pub fn digest(&self) -> Hash {
        let mut h = Sha256::new();
        match self {
            Op::Direct { txid, op } => {
                h.part(b"direct").part(&txid.0.to_be_bytes());
                state_op_part(&mut h, op);
            }
            Op::Prepare { txid, op } => {
                h.part(b"prepare").part(&txid.0.to_be_bytes());
                state_op_part(&mut h, op);
            }
            Op::Commit { txid } => {
                h.part(b"commit").part(&txid.0.to_be_bytes());
            }
            Op::Abort { txid } => {
                h.part(b"abort").part(&txid.0.to_be_bytes());
            }
            Op::Read { txid, keys } => {
                h.part(b"read").part(&txid.0.to_be_bytes());
                for k in keys {
                    h.part(k.as_bytes());
                }
            }
            Op::Noop => {
                h.part(b"noop");
            }
        }
        h.finalize()
    }
}

/// Absorb a state op's byte layout as one framed part: a first pass over
/// [`state_op_encode`] sizes the frame, a second streams the bytes.
fn state_op_part(h: &mut Sha256, op: &StateOp) {
    let mut len = 0u64;
    state_op_encode(op, &mut |b| len += b.len() as u64);
    h.update(len.to_be_bytes());
    state_op_encode(op, &mut |b| {
        h.update(b);
    });
}

/// The byte layout a state op's digest commits to, fed to `out` piece by
/// piece.
fn state_op_encode(op: &StateOp, out: &mut impl FnMut(&[u8])) {
    for c in &op.conditions {
        match c {
            Condition::Exists(k) => {
                out(&[0]);
                out(k.as_bytes());
            }
            Condition::NotExists(k) => {
                out(&[2]);
                out(k.as_bytes());
            }
            Condition::IntAtLeast { key, min } => {
                out(&[1]);
                out(key.as_bytes());
                out(&min.to_be_bytes());
            }
        }
        out(&[0xff]);
    }
    for (k, m) in &op.mutations {
        out(k.as_bytes());
        match m {
            Mutation::Set(v) => {
                out(&[0]);
                v.with_encoding(|tag, payload| {
                    out(&[tag]);
                    out(payload);
                });
            }
            Mutation::Add(d) => {
                out(&[1]);
                out(&d.to_be_bytes());
            }
            Mutation::Delete => out(&[2]),
        }
        out(&[0xfe]);
    }
}

/// Why a transaction aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// A 2PL lock on a touched key is held by another transaction.
    LockConflict(Key),
    /// A guard failed (e.g. insufficient balance).
    ConditionFailed(Condition),
    /// A `Direct`/`Prepare` mutation names a lock-marker key
    /// ([`crate::LOCK_PREFIX`]); only the 2PC lifecycle writes those.
    ReservedKey(Key),
    /// Commit/Abort for a transaction with no pending prepare.
    NoPendingTx,
    /// A prepare for a txid that already has a pending prepare.
    DuplicatePrepare,
    /// A prepare arriving after the transaction was already decided
    /// (commit/abort executed) on this shard.
    AlreadyResolved,
}

/// Execution outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecStatus {
    /// Applied successfully. Carries read results for `Op::Read`.
    Committed(Vec<(Key, Option<Value>)>),
    /// Rejected; state unchanged (other than 2PC bookkeeping).
    Aborted(AbortReason),
}

impl ExecStatus {
    /// True for the committed outcome.
    pub fn is_committed(&self) -> bool {
        matches!(self, ExecStatus::Committed(_))
    }
}

/// A transaction receipt recorded alongside the block.
#[derive(Clone, Debug, PartialEq)]
pub struct Receipt {
    /// The transaction this receipt belongs to.
    pub txid: Option<TxId>,
    /// Outcome.
    pub status: ExecStatus,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256_parts;

    fn sample_op() -> StateOp {
        StateOp {
            conditions: vec![Condition::IntAtLeast {
                key: "ck_a".into(),
                min: 10,
            }],
            mutations: vec![
                ("ck_a".into(), Mutation::Add(-10)),
                ("ck_b".into(), Mutation::Add(10)),
            ],
        }
    }

    #[test]
    fn touched_keys_deduplicated_ordered() {
        let op = sample_op();
        assert_eq!(
            op.touched_keys(),
            vec!["ck_a".to_string(), "ck_b".to_string()]
        );
    }

    #[test]
    fn weight_counts_accesses() {
        assert_eq!(sample_op().weight(), 3);
        let d = Op::Direct {
            txid: TxId(1),
            op: sample_op(),
        };
        assert_eq!(d.weight(), 3);
        assert_eq!(Op::Noop.weight(), 1);
    }

    #[test]
    fn restrict_to_splits_by_ownership() {
        let op = sample_op();
        let only_a = op.restrict_to(|k| k.ends_with('a'));
        assert_eq!(only_a.conditions.len(), 1);
        assert_eq!(only_a.mutations.len(), 1);
        let only_b = op.restrict_to(|k| k.ends_with('b'));
        assert!(only_b.conditions.is_empty());
        assert_eq!(only_b.mutations.len(), 1);
    }

    /// The `Vec<Vec<u8>>` body [`Op::digest`] replaced: the byte-identity
    /// reference.
    fn digest_reference(op: &Op) -> Hash {
        let mut parts: Vec<Vec<u8>> = Vec::new();
        match op {
            Op::Direct { txid, op } => {
                parts.push(b"direct".to_vec());
                parts.push(txid.0.to_be_bytes().to_vec());
                parts.push(state_op_bytes(op));
            }
            Op::Prepare { txid, op } => {
                parts.push(b"prepare".to_vec());
                parts.push(txid.0.to_be_bytes().to_vec());
                parts.push(state_op_bytes(op));
            }
            Op::Commit { txid } => {
                parts.push(b"commit".to_vec());
                parts.push(txid.0.to_be_bytes().to_vec());
            }
            Op::Abort { txid } => {
                parts.push(b"abort".to_vec());
                parts.push(txid.0.to_be_bytes().to_vec());
            }
            Op::Read { txid, keys } => {
                parts.push(b"read".to_vec());
                parts.push(txid.0.to_be_bytes().to_vec());
                for k in keys {
                    parts.push(k.as_bytes().to_vec());
                }
            }
            Op::Noop => parts.push(b"noop".to_vec()),
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        sha256_parts(&refs)
    }

    fn state_op_bytes(op: &StateOp) -> Vec<u8> {
        let mut out = Vec::new();
        for c in &op.conditions {
            match c {
                Condition::Exists(k) => {
                    out.push(0);
                    out.extend_from_slice(k.as_bytes());
                }
                Condition::NotExists(k) => {
                    out.push(2);
                    out.extend_from_slice(k.as_bytes());
                }
                Condition::IntAtLeast { key, min } => {
                    out.push(1);
                    out.extend_from_slice(key.as_bytes());
                    out.extend_from_slice(&min.to_be_bytes());
                }
            }
            out.push(0xff);
        }
        for (k, m) in &op.mutations {
            out.extend_from_slice(k.as_bytes());
            match m {
                Mutation::Set(v) => {
                    out.push(0);
                    v.with_encoding(|tag, payload| {
                        out.push(tag);
                        out.extend_from_slice(payload);
                    });
                }
                Mutation::Add(d) => {
                    out.push(1);
                    out.extend_from_slice(&d.to_be_bytes());
                }
                Mutation::Delete => out.push(2),
            }
            out.push(0xfe);
        }
        out
    }

    /// A key of `len` bytes (long ones push a part past the one-shot
    /// hashing buffer) distinguished by `id`.
    fn gen_key(len: u64, id: u64) -> Key {
        format!("{}{id}", "k".repeat(len as usize))
    }

    fn gen_value(kind: u64, x: u64) -> Value {
        match kind % 4 {
            0 => Value::Int(x as i64),
            1 => Value::Bytes((0..x % 200).map(|i| i as u8).collect()),
            2 => Value::Bool(x.is_multiple_of(2)),
            _ => Value::Opaque {
                size: x,
                tag: x.rotate_left(7),
            },
        }
    }

    proptest::proptest! {
        /// The streamed digest is byte-identical to the `Vec<Vec<u8>>`
        /// body it replaced, for every op kind, condition, mutation and
        /// value encoding, short and long keys alike.
        #[test]
        fn streamed_digest_matches_reference(
            kind in 0u8..6,
            txid: u64,
            conds in proptest::collection::vec((0u64..3, 0u64..150, 0u64..1000, -50i64..50), 0..6),
            muts in proptest::collection::vec((0u64..6, 0u64..150, 0u64..1000, 0u64..1000), 0..6),
            reads in proptest::collection::vec((0u64..150, 0u64..1000), 0..6),
        ) {
            let op = StateOp {
                conditions: conds
                    .into_iter()
                    .map(|(c, len, id, min)| {
                        let key = gen_key(len, id);
                        match c {
                            0 => Condition::Exists(key),
                            1 => Condition::NotExists(key),
                            _ => Condition::IntAtLeast { key, min },
                        }
                    })
                    .collect(),
                mutations: muts
                    .into_iter()
                    .map(|(m, len, id, x)| {
                        let mutation = match m {
                            0..=3 => Mutation::Set(gen_value(m, x)),
                            4 => Mutation::Add(x as i64 - 500),
                            _ => Mutation::Delete,
                        };
                        (gen_key(len, id), mutation)
                    })
                    .collect(),
            };
            let txid = TxId(txid);
            let op = match kind {
                0 => Op::Direct { txid, op },
                1 => Op::Prepare { txid, op },
                2 => Op::Commit { txid },
                3 => Op::Abort { txid },
                4 => Op::Read {
                    txid,
                    keys: reads.into_iter().map(|(len, id)| gen_key(len, id)).collect(),
                },
                _ => Op::Noop,
            };
            proptest::prop_assert_eq!(op.digest(), digest_reference(&op));
        }
    }

    #[test]
    fn digests_distinguish_ops() {
        let a = Op::Direct {
            txid: TxId(1),
            op: sample_op(),
        };
        let b = Op::Prepare {
            txid: TxId(1),
            op: sample_op(),
        };
        let c = Op::Commit { txid: TxId(1) };
        let d = Op::Commit { txid: TxId(2) };
        assert_ne!(a.digest(), b.digest());
        assert_ne!(c.digest(), d.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn wire_size_reasonable() {
        let op = Op::Direct {
            txid: TxId(1),
            op: sample_op(),
        };
        assert!(op.wire_size() > 32);
        assert!(op.wire_size() < 1024);
        assert_eq!(Op::Noop.wire_size(), 16);
    }

    #[test]
    fn value_helpers() {
        assert_eq!(Value::Int(5).as_int(), Some(5));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Bytes(vec![0; 100]).size(), 100);
    }

    #[test]
    fn txid_extraction() {
        assert_eq!(Op::Commit { txid: TxId(9) }.txid(), Some(TxId(9)));
        assert_eq!(Op::Noop.txid(), None);
    }
}
