//! PBFT wire messages.

use std::sync::Arc;

use ahl_crypto::{Hash, Sha256, Signature};
use ahl_ledger::{Key, StateSidecar, Value};
use ahl_simkit::{MsgClass, NodeId};
use ahl_tee::Attestation;

use crate::clients::ClientProtocol;
use crate::common::{ExecutedWindow, Request};

use super::cert::QuorumCert;

/// A proposed block: a batch of requests bound to (view, seq).
#[derive(Clone, Debug)]
pub struct PbftBlock {
    /// View in which the block was proposed.
    pub view: u64,
    /// Sequence number.
    pub seq: u64,
    /// Proposing replica (group index).
    pub proposer: usize,
    /// The batched requests.
    pub reqs: Arc<Vec<Request>>,
    /// Content digest (binds view/seq/proposer/request ids and ops).
    pub digest: Hash,
}

impl PbftBlock {
    /// Build a block and compute its digest.
    pub fn new(view: u64, seq: u64, proposer: usize, reqs: Vec<Request>) -> Self {
        let digest = Self::compute_digest(view, seq, proposer, &reqs);
        PbftBlock {
            view,
            seq,
            proposer,
            reqs: Arc::new(reqs),
            digest,
        }
    }

    /// The canonical digest over the block contents: `sha256_parts` of
    /// the header fields and each request's id and op digest, streamed
    /// into one hasher.
    pub fn compute_digest(view: u64, seq: u64, proposer: usize, reqs: &[Request]) -> Hash {
        let mut h = Sha256::new();
        h.part(b"pbft-block")
            .part(&view.to_be_bytes())
            .part(&seq.to_be_bytes())
            .part(&(proposer as u64).to_be_bytes());
        for r in reqs {
            h.part(&r.id.to_be_bytes()).part(&r.op.digest().0);
        }
        h.finalize()
    }

    /// Approximate wire size.
    pub fn wire_size(&self) -> usize {
        96 + self
            .reqs
            .iter()
            .map(|r| 64 + r.op.wire_size())
            .sum::<usize>()
    }
}

/// Authentication attached to a consensus message.
#[derive(Clone, Debug)]
pub enum MsgCert {
    /// Cost-only mode: no bytes carried; costs still charged.
    Simulated,
    /// Native signature (HL).
    Sig(Signature),
    /// Enclave attestation binding the digest to the (view, seq) slot
    /// (AHL family — this is what removes equivocation).
    Attested(Attestation),
}

/// A prepare/commit vote.
#[derive(Clone, Debug)]
pub struct Vote {
    /// View.
    pub view: u64,
    /// Sequence number.
    pub seq: u64,
    /// Digest of the block being voted on.
    pub digest: Hash,
    /// Voting replica (group index).
    pub replica: usize,
    /// Authentication.
    pub cert: MsgCert,
}

/// View-change message (simplified PBFT: carries the last stable checkpoint
/// and the prepared set's (seq, digest) pairs).
#[derive(Clone, Debug)]
pub struct ViewChangeMsg {
    /// Proposed new view.
    pub new_view: u64,
    /// Sender's last stable checkpoint sequence.
    pub last_stable: u64,
    /// Sequences prepared at the sender (re-proposal candidates).
    pub prepared: Vec<(u64, Hash)>,
    /// Sender (group index).
    pub replica: usize,
}

/// All PBFT wire messages.
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// Client → replica: fresh request (REST ingest).
    Request(Request),
    /// Replica → leader: forwarded request (optimization 2).
    Relay(Request),
    /// Replica → all: request re-broadcast (HL behaviour that
    /// optimization 2 removes).
    Gossip(Request),
    /// Leader → all: block proposal.
    PrePrepare {
        /// The proposed block (shared pointer: broadcast clones are cheap).
        block: Arc<PbftBlock>,
        /// Leader authentication.
        cert: MsgCert,
    },
    /// Replica → all: prepare vote.
    Prepare(Vote),
    /// Replica → all: commit vote.
    Commit(Vote),
    /// Replica → leader: prepare vote for enclave aggregation (AHLR).
    RelayPrepare(Vote),
    /// Replica → leader: commit vote for enclave aggregation (AHLR).
    RelayCommit(Vote),
    /// Leader → all: its enclave's aggregate of a prepare quorum (AHLR).
    AggPrepare(QuorumCert),
    /// Leader → all: its enclave's aggregate of a commit quorum (AHLR),
    /// the block's commit certificate.
    AggCommit(QuorumCert),
    /// Replica → all: signed checkpoint vote over `(height, state_root)`,
    /// a one-signer checkpoint certificate. A quorum of matching votes
    /// forms the certificate that gates pruning and anchors state sync.
    Checkpoint {
        /// The vote.
        vote: QuorumCert,
    },
    /// Replica → all: view change.
    ViewChange(ViewChangeMsg),
    /// New leader → all: pool-digest pull after a view change. Replicas
    /// answer by re-relaying their pooled (admitted, unexecuted) requests
    /// so client transactions stranded at the deposed — possibly
    /// Byzantine — leader get re-proposed (`mempool.viewchange_regossip`).
    PoolPull {
        /// The view the new leader just installed.
        view: u64,
    },
    /// New leader → all: new view installation with re-proposals.
    NewView {
        /// The view being installed.
        view: u64,
        /// Blocks re-proposed into the new view.
        reproposals: Vec<Arc<PbftBlock>>,
    },
    /// Replica → client: execution result.
    Reply {
        /// The request this reply answers.
        req_id: u64,
        /// Whether the transaction committed (vs aborted by execution).
        committed: bool,
    },
    /// Replica → client: the ingest replica's transaction pool refused the
    /// request (admission control / backpressure). The client may retry
    /// after a backoff; the request was *not* relayed into consensus.
    Rejected {
        /// The refused request.
        req_id: u64,
    },
    /// Leader → relaying replica: the leader's pool refused the relayed
    /// request, so the relayer should reclaim its own pooled copy — it can
    /// never be proposed and would otherwise occupy ingest-pool capacity
    /// until a view change.
    RelayRejected {
        /// The refused request.
        req_id: u64,
    },
    /// Leader → all: liveness heartbeat (PBFT null request). Lets replicas
    /// distinguish "I am cut off" (no traffic at all) from "consensus is
    /// stuck" (heartbeats still arriving), which gates view changes — and
    /// carries the leader's execution point, so a replica that fell
    /// behind and then saw traffic stop (nothing left to evidence the
    /// gap) still notices and requests catch-up.
    Heartbeat {
        /// The leader's view.
        view: u64,
        /// The leader's highest executed sequence.
        exec_seq: u64,
    },
    /// Lagging/joining replica → peer: open a state-sync exchange (§5.3
    /// state transfer). The server answers with [`PbftMsg::SyncTail`] when
    /// the requester only misses recent blocks, [`PbftMsg::SyncManifest`]
    /// when it needs a certified chunked transfer, or [`PbftMsg::SyncNack`]
    /// when it has nothing to offer.
    SyncRequest {
        /// Requester's group index.
        requester: usize,
        /// Highest sequence the requester has executed.
        have_seq: u64,
        /// Force a full chunked transfer even if `have_seq` is recent
        /// (transitioning nodes re-fetch their new shard's entire state).
        full: bool,
        /// Every *certified* state root the requester still retains a
        /// snapshot of, newest first (bounded by `snapshot_retention`).
        /// A server that retains *any* of them answers with an
        /// incremental manifest diffed against the newest match; empty
        /// means no diff anchor (full chunked transfer). Advertising the
        /// whole window instead of just the newest root lets servers with
        /// sparse snapshot windows (freshly restarted peers retain only
        /// their own durable checkpoint) still serve a diff.
        old_roots: Vec<Hash>,
    },
    /// Peer → requester: the plan for a chunked transfer anchored at the
    /// latest checkpoint certificate.
    SyncManifest {
        /// The checkpoint certificate the requester must verify chunks
        /// against.
        cert: QuorumCert,
        /// Chunk-count exponent: the transfer has `1 << bits` chunks.
        bits: u8,
        /// Total key-value pairs in the certified state (progress display).
        leaves: u64,
        /// 2PC bookkeeping at the certified height (prepared write sets and
        /// recently decided ids; unauthenticated sidecar).
        sidecar: Arc<StateSidecar>,
        /// Request ids executed up to the certified height, in execution
        /// order (replay protection for re-submitted client requests).
        executed: ExecutedWindow,
        /// Sender's current view.
        view: u64,
        /// Incremental plan: the chunk indices whose content changed since
        /// the requester's advertised `old_root` (`None` = full transfer,
        /// every chunk). An empty list means the retained state already
        /// matches the certified root.
        diff: Option<Arc<Vec<u32>>>,
        /// Echo of the `old_root` the diff was computed against (`None`
        /// for a full manifest). The requester only applies the plan when
        /// this still matches its retained anchor — a late manifest
        /// answering an earlier advertisement must not overlay a newer
        /// base.
        diff_base: Option<Hash>,
    },
    /// Requester → peer: fetch one key-range chunk of the certified state.
    ChunkRequest {
        /// Requester's group index.
        requester: usize,
        /// The certified height the transfer is anchored at.
        seq: u64,
        /// Chunk index in `0..1 << bits`.
        chunk: u32,
    },
    /// Peer → requester: one chunk plus the proof tying it to the certified
    /// root. The requester verifies before applying; a tampered or stale
    /// chunk is rejected and re-requested from another peer.
    ChunkData {
        /// The certified height the transfer is anchored at.
        seq: u64,
        /// Chunk index.
        chunk: u32,
        /// The chunk's complete key-value content, in path order.
        entries: Arc<Vec<(Key, Value)>>,
        /// Sibling subtree hashes ([`ahl_store::SparseMerkleTree::chunk_proof`]).
        proof: Arc<Vec<Hash>>,
    },
    /// Peer → requester: committed blocks above the requester's execution
    /// point (the catch-up tail after a chunked install, or the whole
    /// answer for a replica that only lags a little).
    SyncTail {
        /// Committed blocks, ascending and contiguous from the requester's
        /// `have_seq + 1`, each with the commit certificate the requester
        /// verifies against the block's recomputed digest before running it.
        blocks: Vec<(Arc<PbftBlock>, QuorumCert)>,
        /// Sender's current view.
        view: u64,
    },
    /// Peer → requester: cannot serve (no certificate/snapshot yet, or the
    /// requester is already current). The requester rotates peers/retries.
    SyncNack {
        /// Echo of the requester's `have_seq`.
        have_seq: u64,
    },
    /// Harness/controller → replica: transition into a new shard (§5.3).
    /// The replica pauses consensus participation, re-fetches the full
    /// shard state through the certified chunk protocol, and resumes once
    /// verified — the throughput cost of reconfiguration thus emerges from
    /// real transfer volume.
    Transition {
        /// Actor to notify with [`PbftMsg::TransitionDone`] (batch
        /// sequencing in the reshard experiment).
        controller: Option<NodeId>,
        /// The node is re-joining a shard whose state it recently held
        /// (elastico-style reshuffles move some members back into their
        /// previous shard): it may advertise its last certified root and
        /// fetch only the diff. `false` models a cross-shard move — the old
        /// root belongs to different state and a full fetch is required.
        rejoin: bool,
    },
    /// Replica → controller: its transition fetch completed and it rejoined
    /// consensus.
    TransitionDone {
        /// The transitioned replica's group index.
        replica: usize,
    },
    /// Harness → replica: crash. The node goes dark — every message is
    /// dropped until a [`PbftMsg::Restart`] arrives (modelling real
    /// downtime, during which the committee moves on without it).
    Crash,
    /// Harness → replica: (re)start after a crash. All volatile state
    /// (ledger, pool, protocol instances) is lost; only the durable
    /// checkpoint — the last certified snapshot, if one formed — survives,
    /// and the replica recovers via (diff) state sync from it.
    Restart,
}

/// Modeled bytes of one `(key, value)` chunk entry — the single source for
/// the ChunkData wire size, the requester's `sync.bytes_synced` metric, and
/// both sides' serialization/verification CPU charges.
pub fn chunk_entry_bytes(key: &str, value: &Value) -> usize {
    16 + key.len() + value.size()
}

impl PbftMsg {
    /// Queue class: requests and replies must not crowd out consensus
    /// traffic when queues are split (optimization 1).
    pub fn class(&self) -> MsgClass {
        match self {
            PbftMsg::Request(_)
            | PbftMsg::Relay(_)
            | PbftMsg::Gossip(_)
            | PbftMsg::Reply { .. }
            | PbftMsg::Rejected { .. }
            | PbftMsg::RelayRejected { .. }
            // Bulk state transfer must not crowd out consensus votes.
            | PbftMsg::SyncRequest { .. }
            | PbftMsg::SyncManifest { .. }
            | PbftMsg::ChunkRequest { .. }
            | PbftMsg::ChunkData { .. }
            | PbftMsg::SyncTail { .. }
            | PbftMsg::SyncNack { .. } => MsgClass::REQUEST,
            _ => MsgClass::CONSENSUS,
        }
    }

    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            PbftMsg::Request(r) | PbftMsg::Relay(r) | PbftMsg::Gossip(r) => 250 + r.op.wire_size(),
            PbftMsg::PrePrepare { block, .. } => 150 + block.wire_size(),
            PbftMsg::Prepare(_) | PbftMsg::Commit(_) => 150,
            PbftMsg::RelayPrepare(_) | PbftMsg::RelayCommit(_) => 150,
            PbftMsg::AggPrepare(_) | PbftMsg::AggCommit(_) => 220,
            PbftMsg::Checkpoint { .. } => 120,
            PbftMsg::ViewChange(vc) => 600 + 48 * vc.prepared.len(),
            PbftMsg::NewView { reproposals, .. } => {
                200 + reproposals.iter().map(|b| b.wire_size()).sum::<usize>()
            }
            PbftMsg::Reply { .. } => 100,
            PbftMsg::Rejected { .. } | PbftMsg::RelayRejected { .. } => 90,
            PbftMsg::Heartbeat { .. } | PbftMsg::PoolPull { .. } => 60,
            PbftMsg::SyncRequest { old_roots, .. } => 80 + 32 * old_roots.len(),
            PbftMsg::SyncManifest {
                cert,
                sidecar,
                executed,
                diff,
                diff_base,
                ..
            } => {
                120 + cert.wire_size()
                    + sidecar.wire_size()
                    + 8 * executed.len()
                    + 4 * diff.as_ref().map_or(0, |d| d.len())
                    + diff_base.map_or(0, |_| 32)
            }
            PbftMsg::ChunkRequest { .. } => 90,
            // The dominant transfer cost: every key and value in the chunk,
            // plus the sibling hashes of its proof.
            PbftMsg::ChunkData { entries, proof, .. } => {
                64 + entries
                    .iter()
                    .map(|(k, v)| chunk_entry_bytes(k, v))
                    .sum::<usize>()
                    + 32 * proof.len()
            }
            PbftMsg::SyncTail { blocks, .. } => {
                120 + blocks
                    .iter()
                    .map(|(b, c)| b.wire_size() + c.wire_size())
                    .sum::<usize>()
            }
            PbftMsg::SyncNack { .. } => 70,
            PbftMsg::Transition { .. } | PbftMsg::TransitionDone { .. } => 60,
            PbftMsg::Crash | PbftMsg::Restart => 60,
        }
    }
}

impl ClientProtocol for PbftMsg {
    fn make_request(req: Request) -> Self {
        PbftMsg::Request(req)
    }
    fn reply_id(&self) -> Option<u64> {
        match self {
            PbftMsg::Reply { req_id, .. } => Some(*req_id),
            _ => None,
        }
    }
    fn reject_id(&self) -> Option<u64> {
        match self {
            PbftMsg::Rejected { req_id } => Some(*req_id),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256_parts;
    use ahl_ledger::{Mutation, Op, StateOp, TxId, Value};
    use ahl_simkit::SimTime;

    fn req(i: u64) -> Request {
        Request {
            id: i,
            client: 0,
            op: Op::Noop,
            submitted: SimTime::ZERO,
        }
    }

    /// The `Vec<Vec<u8>>` body [`PbftBlock::compute_digest`] replaced: the
    /// byte-identity reference.
    fn digest_reference(view: u64, seq: u64, proposer: usize, reqs: &[Request]) -> Hash {
        let mut parts: Vec<Vec<u8>> = vec![
            b"pbft-block".to_vec(),
            view.to_be_bytes().to_vec(),
            seq.to_be_bytes().to_vec(),
            (proposer as u64).to_be_bytes().to_vec(),
        ];
        for r in reqs {
            parts.push(r.id.to_be_bytes().to_vec());
            parts.push(r.op.digest().0.to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        sha256_parts(&refs)
    }

    proptest::proptest! {
        /// The streamed block digest is byte-identical to the body it
        /// replaced, for empty through full blocks of mixed ops.
        #[test]
        fn streamed_digest_matches_reference(
            view: u64,
            seq: u64,
            proposer in 0usize..64,
            reqs in proptest::collection::vec((0u8..3, 0u64..u64::MAX, 0u64..1000), 0..80),
        ) {
            let reqs: Vec<Request> = reqs
                .into_iter()
                .map(|(kind, id, x)| {
                    let op = match kind {
                        0 => Op::Noop,
                        1 => Op::Commit { txid: TxId(x) },
                        _ => {
                            let set = (format!("key{x}"), Mutation::Set(Value::Int(x as i64)));
                            let op = StateOp { conditions: vec![], mutations: vec![set] };
                            Op::Direct { txid: TxId(x), op }
                        }
                    };
                    Request { id, op, ..req(0) }
                })
                .collect();
            proptest::prop_assert_eq!(
                PbftBlock::compute_digest(view, seq, proposer, &reqs),
                digest_reference(view, seq, proposer, &reqs)
            );
        }
    }

    #[test]
    fn block_digest_binds_contents() {
        let a = PbftBlock::new(0, 1, 0, vec![req(1), req(2)]);
        let b = PbftBlock::new(0, 1, 0, vec![req(1), req(3)]);
        let c = PbftBlock::new(0, 2, 0, vec![req(1), req(2)]);
        let d = PbftBlock::new(1, 1, 0, vec![req(1), req(2)]);
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert_ne!(a.digest, d.digest);
    }

    #[test]
    fn classes_split_requests_from_consensus() {
        assert_eq!(PbftMsg::Request(req(1)).class(), MsgClass::REQUEST);
        assert_eq!(PbftMsg::Gossip(req(1)).class(), MsgClass::REQUEST);
        assert_eq!(
            PbftMsg::Reply {
                req_id: 1,
                committed: true
            }
            .class(),
            MsgClass::REQUEST
        );
        let block = Arc::new(PbftBlock::new(0, 1, 0, vec![req(1)]));
        assert_eq!(
            PbftMsg::PrePrepare {
                block,
                cert: MsgCert::Simulated
            }
            .class(),
            MsgClass::CONSENSUS
        );
    }

    #[test]
    fn wire_sizes_scale() {
        let small = Arc::new(PbftBlock::new(0, 1, 0, vec![req(1)]));
        let large = Arc::new(PbftBlock::new(0, 1, 0, (0..100).map(req).collect()));
        let s = PbftMsg::PrePrepare {
            block: small,
            cert: MsgCert::Simulated,
        }
        .wire_size();
        let l = PbftMsg::PrePrepare {
            block: large,
            cert: MsgCert::Simulated,
        }
        .wire_size();
        assert!(l > s * 10);
    }
}
