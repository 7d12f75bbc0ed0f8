//! Binary codecs and page-store bindings: what makes ledger state
//! *durable*.
//!
//! `ahl-wal` is generic — it persists any tree whose values implement
//! [`PageValue`] and logs any byte payload. This module supplies the
//! ledger side of that contract: a self-contained binary encoding for
//! [`Value`] (note that [`Value::Opaque`] persists as its 16-byte model,
//! not its modelled gigabytes), for the full [`Op`] transaction model
//! (WAL batch records replay executed operations), and for the 2PC
//! [`StateSidecar`] (carried in the manifest metadata so prepared-but-
//! undecided transactions survive a crash).
//!
//! Snapshot persistence rides the content-addressed page store directly:
//! [`StateSnapshot::persist`] writes the authenticated tree's missing
//! pages (structurally shared nodes are shared on disk too), and
//! [`open_snapshot`] rebuilds a snapshot from a manifest root, verifying
//! the rebuilt root before anything is trusted.

use ahl_crypto::Hash;
use ahl_wal::codec::{Reader, Writer};
use ahl_wal::{CacheStats, PageCache, PageStore, PageValue, PersistStats, WalError};

use crate::state::{StateSidecar, StateSnapshot};
use crate::types::{Condition, Key, Mutation, Op, StateOp, TxId, Value};

impl PageValue for Value {
    fn encode_value(&self, w: &mut Writer) {
        encode_value(self, w);
    }
    fn decode_value(r: &mut Reader<'_>) -> Option<Self> {
        decode_value(r)
    }
}

/// Encode a [`Value`] (tag byte + body).
pub fn encode_value(v: &Value, w: &mut Writer) {
    match v {
        Value::Int(i) => {
            w.u8(0);
            w.i64(*i);
        }
        Value::Bytes(b) => {
            w.u8(1);
            w.bytes(b);
        }
        Value::Bool(b) => {
            w.u8(2);
            w.u8(*b as u8);
        }
        Value::Opaque { size, tag } => {
            w.u8(3);
            w.u64(*size);
            w.u64(*tag);
        }
    }
}

/// Decode a [`Value`]; `None` on truncation or an unknown tag.
pub fn decode_value(r: &mut Reader<'_>) -> Option<Value> {
    match r.u8()? {
        0 => Some(Value::Int(r.i64()?)),
        1 => Some(Value::Bytes(r.bytes()?.to_vec())),
        2 => Some(Value::Bool(r.u8()? != 0)),
        3 => Some(Value::Opaque {
            size: r.u64()?,
            tag: r.u64()?,
        }),
        _ => None,
    }
}

pub(crate) fn encode_mutation(m: &Mutation, w: &mut Writer) {
    match m {
        Mutation::Set(v) => {
            w.u8(0);
            encode_value(v, w);
        }
        Mutation::Add(d) => {
            w.u8(1);
            w.i64(*d);
        }
        Mutation::Delete => w.u8(2),
    }
}

pub(crate) fn decode_mutation(r: &mut Reader<'_>) -> Option<Mutation> {
    match r.u8()? {
        0 => Some(Mutation::Set(decode_value(r)?)),
        1 => Some(Mutation::Add(r.i64()?)),
        2 => Some(Mutation::Delete),
        _ => None,
    }
}

fn encode_condition(c: &Condition, w: &mut Writer) {
    match c {
        Condition::Exists(k) => {
            w.u8(0);
            w.str(k);
        }
        Condition::NotExists(k) => {
            w.u8(1);
            w.str(k);
        }
        Condition::IntAtLeast { key, min } => {
            w.u8(2);
            w.str(key);
            w.i64(*min);
        }
    }
}

fn decode_condition(r: &mut Reader<'_>) -> Option<Condition> {
    match r.u8()? {
        0 => Some(Condition::Exists(r.str()?)),
        1 => Some(Condition::NotExists(r.str()?)),
        2 => Some(Condition::IntAtLeast {
            key: r.str()?,
            min: r.i64()?,
        }),
        _ => None,
    }
}

pub(crate) fn encode_state_op(op: &StateOp, w: &mut Writer) {
    w.u32(op.conditions.len() as u32);
    for c in &op.conditions {
        encode_condition(c, w);
    }
    w.u32(op.mutations.len() as u32);
    for (k, m) in &op.mutations {
        w.str(k);
        encode_mutation(m, w);
    }
}

pub(crate) fn decode_state_op(r: &mut Reader<'_>) -> Option<StateOp> {
    let nc = r.u32()? as usize;
    let mut conditions = Vec::with_capacity(nc.min(1024));
    for _ in 0..nc {
        conditions.push(decode_condition(r)?);
    }
    let nm = r.u32()? as usize;
    let mut mutations = Vec::with_capacity(nm.min(1024));
    for _ in 0..nm {
        let k = r.str()?;
        mutations.push((k, decode_mutation(r)?));
    }
    Some(StateOp {
        conditions,
        mutations,
    })
}

/// Encode an [`Op`] (the unit a WAL batch record replays).
pub fn encode_op(op: &Op, w: &mut Writer) {
    match op {
        Op::Direct { txid, op } => {
            w.u8(0);
            w.u64(txid.0);
            encode_state_op(op, w);
        }
        Op::Prepare { txid, op } => {
            w.u8(1);
            w.u64(txid.0);
            encode_state_op(op, w);
        }
        Op::Commit { txid } => {
            w.u8(2);
            w.u64(txid.0);
        }
        Op::Abort { txid } => {
            w.u8(3);
            w.u64(txid.0);
        }
        Op::Read { txid, keys } => {
            w.u8(4);
            w.u64(txid.0);
            w.u32(keys.len() as u32);
            for k in keys {
                w.str(k);
            }
        }
        Op::Noop => w.u8(5),
    }
}

/// Decode an [`Op`]; `None` on truncation or an unknown tag.
pub fn decode_op(r: &mut Reader<'_>) -> Option<Op> {
    match r.u8()? {
        0 => Some(Op::Direct {
            txid: TxId(r.u64()?),
            op: decode_state_op(r)?,
        }),
        1 => Some(Op::Prepare {
            txid: TxId(r.u64()?),
            op: decode_state_op(r)?,
        }),
        2 => Some(Op::Commit {
            txid: TxId(r.u64()?),
        }),
        3 => Some(Op::Abort {
            txid: TxId(r.u64()?),
        }),
        4 => {
            let txid = TxId(r.u64()?);
            let n = r.u32()? as usize;
            let mut keys: Vec<Key> = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(r.str()?);
            }
            Some(Op::Read { txid, keys })
        }
        5 => Some(Op::Noop),
        _ => None,
    }
}

impl StateSnapshot {
    /// Write every page of this snapshot's authenticated tree that is not
    /// already in `pages` (consecutive checkpoints share unchanged pages
    /// on disk). The 2PC sidecar is *not* written here — serialize it
    /// into the manifest metadata with [`StateSidecar::encode`].
    pub fn persist(&self, pages: &mut PageStore) -> std::io::Result<PersistStats> {
        pages.persist_tree(self.smt())
    }
}

/// Rebuild a [`StateSnapshot`] from a persisted root: load and verify the
/// page-backed tree, then attach the sidecar recovered from the manifest
/// metadata. Fails closed — a missing or corrupt page, or a rebuilt root
/// that misses `root`, yields an error, never a wrong snapshot.
pub fn open_snapshot(
    pages: &PageStore,
    root: Hash,
    sidecar: StateSidecar,
) -> Result<StateSnapshot, WalError> {
    let smt = pages.load_tree::<Value>(root)?;
    Ok(StateSnapshot::from_parts(smt, sidecar))
}

/// A lazily opened snapshot: the fault-on-demand alternative to
/// [`open_snapshot`]. Instead of materializing the whole tree up front
/// (O(history) reads and memory), it holds only the certified root, the
/// recovered sidecar, and a byte-bounded [`PageCache`] — each
/// [`LazySnapshot::get`] faults in just the ~log n Merkle-verified pages
/// along the key's path. Reopening a multi-GB store this way costs
/// O(working set), which is what the `soak` experiment budgets.
pub struct LazySnapshot {
    root: Hash,
    sidecar: StateSidecar,
    cache: PageCache<Value>,
}

impl LazySnapshot {
    /// The certified state root this snapshot serves.
    pub fn root(&self) -> Hash {
        self.root
    }

    /// The recovered 2PC sidecar.
    pub fn sidecar(&self) -> &StateSidecar {
        &self.sidecar
    }

    /// Read one key, faulting in only its path. Every faulted page is
    /// verified against the hash that named it, so a walk from the
    /// certified root fails closed on any corruption.
    pub fn get(&mut self, pages: &PageStore, key: &str) -> Result<Option<Value>, WalError> {
        self.cache.get(pages, self.root, key)
    }

    /// Cache counters (the `store.cache_*` scoped stats).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Materialize the full [`StateSnapshot`] (eager load + root
    /// verification) — the upgrade path when a consumer needs complete
    /// state, e.g. to resume execution.
    pub fn materialize(&self, pages: &PageStore) -> Result<StateSnapshot, WalError> {
        open_snapshot(pages, self.root, self.sidecar.clone())
    }
}

/// Open a snapshot lazily: no page is read until the first
/// [`LazySnapshot::get`]. `cache_bytes` bounds the resident decoded
/// pages (LRU eviction of clean pages).
pub fn open_snapshot_lazy(root: Hash, sidecar: StateSidecar, cache_bytes: u64) -> LazySnapshot {
    LazySnapshot {
        root,
        sidecar,
        cache: PageCache::new(cache_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_op(op: Op) {
        let mut w = Writer::new();
        encode_op(&op, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_op(&mut r), Some(op));
        assert!(r.is_done());
        // Every strict prefix fails closed.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let ok = decode_op(&mut r).is_some() && r.is_done();
            assert!(!ok, "prefix {cut} must not decode to a complete op");
        }
    }

    #[test]
    fn op_codec_round_trips() {
        round_trip_op(Op::Noop);
        round_trip_op(Op::Commit { txid: TxId(7) });
        round_trip_op(Op::Abort {
            txid: TxId(u64::MAX),
        });
        round_trip_op(Op::Read {
            txid: TxId(3),
            keys: vec!["a".into(), "b".into()],
        });
        round_trip_op(Op::Direct {
            txid: TxId(1),
            op: StateOp {
                conditions: vec![
                    Condition::Exists("x".into()),
                    Condition::NotExists("y".into()),
                    Condition::IntAtLeast {
                        key: "z".into(),
                        min: -4,
                    },
                ],
                mutations: vec![
                    ("x".into(), Mutation::Set(Value::Int(-9))),
                    ("b".into(), Mutation::Set(Value::Bytes(vec![1, 2, 3]))),
                    ("l".into(), Mutation::Set(Value::Bool(true))),
                    (
                        "o".into(),
                        Mutation::Set(Value::Opaque {
                            size: 1 << 33,
                            tag: 9,
                        }),
                    ),
                    ("d".into(), Mutation::Delete),
                    ("a".into(), Mutation::Add(5)),
                ],
            },
        });
        round_trip_op(Op::Prepare {
            txid: TxId(2),
            op: StateOp {
                conditions: vec![],
                mutations: vec![],
            },
        });
    }

    #[test]
    fn opaque_values_persist_by_model_not_size() {
        // A "4 GB" opaque value encodes in a handful of bytes: the page
        // store must stay usable for the multi-GB reshard experiments.
        let v = Value::Opaque {
            size: 4 << 30,
            tag: 1,
        };
        let mut w = Writer::new();
        encode_value(&v, &mut w);
        assert!(w.len() < 32);
        let bytes = w.into_bytes();
        assert_eq!(decode_value(&mut Reader::new(&bytes)), Some(v));
    }
}
