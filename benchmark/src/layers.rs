//! Layer replays: the message stream and the executed batches captured by
//! the traced run are pushed through each layer's public functions under a
//! timer, one layer at a time, so a layer's cost per operation is known
//! apart from everything that runs around it in the live system.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ahl_consensus::pbft::{PbftBlock, PbftMsg};
use ahl_consensus::Request;
use ahl_crypto::{sha256, KeyRegistry};
use ahl_ledger::{kvstore, Mutation, Op, StateStore, TxId, Value};
use ahl_mempool::{BatchBuilder, BatchConfig, Mempool, MempoolConfig};
use ahl_net::wire::{decode_payload, encode_payload};
use ahl_net::{NetEvent, Packet, TcpConfig, TcpTransport, Transport};
use ahl_simkit::{NodeId, SimDuration, SimTime, Stats};
use ahl_wal::{PageStore, Wal, WalConfig};

use crate::ops::{KEYS, VALUE_BYTES};
use crate::stats::median;

/// Time each replay may take.
const BUDGET: Duration = Duration::from_millis(120);

/// Mean ns per item of `f` over `items`, cycling through them until
/// [`BUDGET`] is used (at least one full pass).
fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut done = 0u64;
    loop {
        for it in items {
            f(it);
        }
        done += items.len() as u64;
        if start.elapsed() >= BUDGET {
            return start.elapsed().as_nanos() as f64 / done as f64;
        }
    }
}

/// `net.wire`: encode and decode cost of the captured messages.
pub struct WireCost {
    /// Mean ns to encode one message into a frame payload.
    pub encode_ns_per_msg: f64,
    /// Mean ns to decode one payload back.
    pub decode_ns_per_msg: f64,
}

/// Replay the captured stream through [`encode_payload`] / [`decode_payload`].
pub fn wire(msgs: &[(NodeId, NodeId, PbftMsg)]) -> WireCost {
    let packets: Vec<(NodeId, NodeId, Packet<PbftMsg>)> = msgs
        .iter()
        .map(|(f, t, m)| (*f, *t, Packet::App(m.clone())))
        .collect();
    let encoded: Vec<Vec<u8>> = packets
        .iter()
        .map(|(f, t, p)| encode_payload(*f, *t, p))
        .collect();
    WireCost {
        encode_ns_per_msg: ns_per_item(&packets, |(f, t, p)| {
            std::hint::black_box(encode_payload(*f, *t, p));
        }),
        decode_ns_per_msg: ns_per_item(&encoded, |b| {
            std::hint::black_box(decode_payload::<PbftMsg>(b));
        }),
    }
}

/// `net.transport`: a loopback [`TcpTransport`] pair echoing one small
/// frame. Returns the median round trip in µs.
pub fn transport_rtt_us() -> Result<f64, String> {
    let addrs = crate::tcp::free_addrs(2)?;
    let start = |me: usize| {
        let peer = 1 - me;
        TcpTransport::<PbftMsg>::start(TcpConfig::new(
            addrs[me],
            vec![me],
            vec![(peer, addrs[peer])],
        ))
        .map_err(|e| format!("echo transport: {e}"))
    };
    let (a, b) = (start(0)?, start(1)?);
    let ping = || {
        Packet::App(PbftMsg::Reply {
            req_id: 1,
            committed: true,
        })
    };
    let recv = |t: &TcpTransport<PbftMsg>| -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(NetEvent::Packet { .. }) = t.recv_timeout(Duration::from_millis(100)) {
                return true;
            }
        }
        false
    };
    let mut rtts = Vec::new();
    let start = Instant::now();
    // The first round trips pay for connecting; they are not kept.
    for round in 0..2_000 {
        let t0 = Instant::now();
        a.send(0, 1, ping());
        let ok = recv(&b) && {
            b.send(1, 0, ping());
            recv(&a)
        };
        if !ok {
            a.shutdown();
            b.shutdown();
            return Err("echo transport: no reply within 5 s".into());
        }
        if round >= 5 {
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        if rtts.len() >= 50 && start.elapsed() >= BUDGET {
            break;
        }
    }
    a.shutdown();
    b.shutdown();
    Ok(median(&rtts).expect("at least 50 round trips"))
}

/// `crypto`: hashing, signing and batch verification.
pub struct CryptoCost {
    /// SHA-256 over one KiB.
    pub sha256_ns_per_kib: f64,
    /// One signature.
    pub sign_ns_per_op: f64,
    /// Per signature of a three-signature batch verification.
    pub verify_batch_ns_per_sig: f64,
}

/// Time the crypto primitives the consensus layer calls.
pub fn crypto() -> CryptoCost {
    let kib = vec![0xA5u8; 1024];
    let mut registry = KeyRegistry::new();
    let keys: Vec<_> = (0..3).map(|i| registry.generate(1_000 + i)).collect();
    let digest = sha256(b"block");
    let sigs: Vec<_> = keys.iter().map(|k| k.sign(&digest)).collect();
    let unit = [()];
    CryptoCost {
        sha256_ns_per_kib: ns_per_item(&unit, |_| {
            std::hint::black_box(sha256(std::hint::black_box(&kib)));
        }),
        sign_ns_per_op: ns_per_item(&keys, |k| {
            std::hint::black_box(k.sign(&digest));
        }),
        verify_batch_ns_per_sig: ns_per_item(&unit, |_| {
            assert!(registry.verify_batch(&digest, sigs.iter().map(|s| (s.signer, s))));
        }) / sigs.len() as f64,
    }
}

/// The requests of the captured blocks, flattened.
fn requests(blocks: &[Arc<PbftBlock>]) -> Vec<Request> {
    blocks.iter().flat_map(|b| b.reqs.iter().cloned()).collect()
}

/// `mempool`: admission and batch formation.
pub struct MempoolCost {
    /// [`Mempool::insert`] per transaction.
    pub admit_ns_per_tx: f64,
    /// [`BatchBuilder::take_full`] per transaction handed out.
    pub batch_ns_per_tx: f64,
}

/// Admit the captured requests into a fresh pool and batch them out again.
pub fn mempool(blocks: &[Arc<PbftBlock>], batch_size: usize) -> MempoolCost {
    let reqs = requests(blocks);
    if reqs.is_empty() {
        return MempoolCost {
            admit_ns_per_tx: 0.0,
            batch_ns_per_tx: 0.0,
        };
    }
    let now = SimTime::ZERO;
    let (mut admit_ns, mut batch_ns, mut txs) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    while start.elapsed() < BUDGET {
        let mut stats = Stats::new();
        let mut pool: Mempool<Request> = Mempool::new(MempoolConfig::default(), 7);
        let mut batcher =
            BatchBuilder::new(BatchConfig::new(batch_size, SimDuration::from_millis(10)));
        let t = Instant::now();
        for r in &reqs {
            std::hint::black_box(pool.insert(r.clone(), now, &mut stats));
        }
        admit_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        while let Some(b) = batcher.take_full(&mut pool, now, &mut stats) {
            std::hint::black_box(b);
        }
        batch_ns += t.elapsed().as_nanos();
        txs += reqs.len() as u64;
    }
    MempoolCost {
        admit_ns_per_tx: admit_ns as f64 / txs as f64,
        batch_ns_per_tx: batch_ns as f64 / txs as f64,
    }
}

/// A ledger holding every key of the kv workloads, as after warm-up.
pub fn warm_state() -> StateStore {
    let mut s = StateStore::new();
    for k in 0..KEYS {
        s.execute(&Op::Direct {
            txid: TxId(k),
            op: kvstore::kv_write(&[k], VALUE_BYTES),
        });
    }
    s
}

/// `ledger` and `store`: executing the captured batches.
pub struct ExecCost {
    /// [`StateStore::execute`] per operation (tree update included).
    pub exec_ns_per_op: f64,
    /// `SparseMerkleTree::batch_apply` with two workers per change, over
    /// the same per-block change sets — the path one execution worker
    /// never takes.
    pub smt_batch_apply_ns_per_op: f64,
}

/// The `(key, value)` writes of a block, in order.
fn change_set(block: &PbftBlock) -> Vec<(String, Option<Value>)> {
    block
        .reqs
        .iter()
        .filter_map(|r| match &r.op {
            Op::Direct { op, .. } => Some(op),
            _ => None,
        })
        .flat_map(|op| op.mutations.iter())
        .filter_map(|(k, m)| match m {
            Mutation::Set(v) => Some((k.clone(), Some(v.clone()))),
            _ => None,
        })
        .collect()
}

/// Execute the captured blocks on `state`, then apply their change sets
/// to a copy of its tree in batches.
pub fn exec(state: &mut StateStore, blocks: &[Arc<PbftBlock>]) -> ExecCost {
    let ops: Vec<Op> = requests(blocks).into_iter().map(|r| r.op).collect();
    let exec_ns_per_op = ns_per_item(&ops, |op| {
        std::hint::black_box(state.execute(op));
    });
    let sets: Vec<Vec<(String, Option<Value>)>> = blocks.iter().map(|b| change_set(b)).collect();
    let changes: usize = sets.iter().map(Vec::len).sum();
    let mut tree = state.smt().clone();
    let per_block = ns_per_item(&sets, |set| tree.batch_apply(set.clone(), 2));
    ExecCost {
        exec_ns_per_op,
        smt_batch_apply_ns_per_op: if changes == 0 {
            0.0
        } else {
            per_block * sets.len() as f64 / changes as f64
        },
    }
}

/// `wal`: journaling one record per block and persisting checkpoints.
pub struct WalCost {
    /// Append + group commit per record.
    pub append_ns_per_rec: f64,
    /// `fdatasync` calls per commit under the default policy.
    pub fsyncs_per_commit: f64,
    /// Persisting the pages one checkpoint interval dirtied, plus the sync
    /// barrier before the manifest swap (ms).
    pub ckpt_persist_ms: f64,
}

/// Journal the captured blocks into a log under `dir`, then persist
/// checkpoints of `state` one interval (`interval` blocks) apart.
pub fn wal(
    dir: &Path,
    state: &mut StateStore,
    blocks: &[Arc<PbftBlock>],
    interval: usize,
) -> Result<WalCost, String> {
    let io = |e: std::io::Error| format!("wal replay: {e}");
    let wal_dir = dir.join("replay-wal");
    std::fs::create_dir_all(&wal_dir).map_err(io)?;
    let (mut log, _) = Wal::open(&wal_dir, WalConfig::default()).map_err(io)?;
    let records: Vec<Vec<u8>> = blocks.iter().map(|b| vec![0x5A; b.wire_size()]).collect();
    let mut failed = None;
    let append_ns_per_rec = ns_per_item(&records, |r| {
        log.append(r.clone());
        if let Err(e) = log.commit() {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(io(e));
    }
    let ws = log.stats();

    let pages_dir = dir.join("replay-pages");
    std::fs::create_dir_all(&pages_dir).map_err(io)?;
    let mut pages = PageStore::open(&pages_dir, WalConfig::default()).map_err(io)?;
    // The first checkpoint writes the whole tree; later ones only what
    // changed since, which is the steady-state cost.
    state.snapshot().persist(&mut pages).map_err(io)?;
    let mut ms = Vec::new();
    for chunk in blocks.chunks(interval).take(4) {
        for op in requests(chunk).iter().map(|r| &r.op) {
            state.execute(op);
        }
        let snap = state.snapshot();
        let t = Instant::now();
        snap.persist(&mut pages).map_err(io)?;
        pages.sync().map_err(io)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(WalCost {
        append_ns_per_rec,
        fsyncs_per_commit: ws.syncs as f64 / ws.commits.max(1) as f64,
        ckpt_persist_ms: median(&ms).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::kv_request;

    fn blocks(n: usize) -> Vec<Arc<PbftBlock>> {
        (0..n as u64)
            .map(|b| {
                let reqs = (0..8)
                    .map(|i| kv_request(9, (b * 8 + i) as u32, i, SimTime::ZERO))
                    .collect();
                Arc::new(PbftBlock::new(0, b + 1, 0, reqs))
            })
            .collect()
    }

    #[test]
    fn change_set_lists_every_write_in_order() {
        let set = change_set(&blocks(1)[0]);
        assert_eq!(set.len(), 8);
        assert_eq!(set[3].0, kvstore::kv_key(3));
        assert!(matches!(&set[3].1, Some(Value::Bytes(b)) if b.len() == VALUE_BYTES));
    }

    #[test]
    fn ns_per_item_handles_empty_input() {
        assert_eq!(ns_per_item::<u8>(&[], |_| {}), 0.0);
        assert!(
            ns_per_item(&[1u8, 2], |x| {
                std::hint::black_box(x);
            }) > 0.0
        );
    }

    #[test]
    fn mempool_replay_batches_everything_it_admits() {
        let c = mempool(&blocks(4), 8);
        assert!(c.admit_ns_per_tx > 0.0 && c.batch_ns_per_tx > 0.0);
        assert_eq!(mempool(&[], 8).admit_ns_per_tx, 0.0);
    }
}
