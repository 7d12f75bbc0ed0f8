//! State sync: catching up on a gap, and re-fetching a whole shard's
//! state on a transition or after a restart, through certified chunks and
//! a verified block tail; and serving the same to peers.
//!
//! [`SyncState`] owns the in-flight exchange ([`SyncRun`]) and whether
//! consensus participation is paused until it completes. A crash drops
//! the exchange and pauses; the restart's own sync resumes.

use std::sync::Arc;

use ahl_crypto::Hash;
use ahl_ledger::{Key, StateSidecar, StateSnapshot, StateStore, Value};
use ahl_simkit::{Ctx, NodeId, Phase, Scope, SimDuration, SimTime};
use ahl_store::{chunk_bits_for, SyncError, SyncSession};
use ahl_tee::TeeOp;

use super::byzantine::{corrupt_chunk, forge_tail};
use super::{CkptSnapshot, Replica, TIMER_SYNC};
use crate::adversary::Attack;
use crate::common::{stat, ExecutedCache, ExecutedWindow, VotePhase, NATIVE_VERIFY};
use crate::pbft::cert::{CertKind, QuorumCert};
use crate::pbft::config::{COSTS, PIPELINE_WIDTH};
use crate::pbft::msg::{chunk_entry_bytes, PbftBlock, PbftMsg};

/// Requester-side phase of an in-flight state sync.
enum SyncPhase {
    /// Waiting for the server's manifest (or a direct block tail).
    AwaitManifest,
    /// Fetching and verifying chunks against the certified root. Up to
    /// `sync_fanout` chunk requests stay in flight, each to a different
    /// peer in rotation (`inflight` lists the outstanding chunk indices).
    Chunks {
        session: SyncSession<Value>,
        /// The retained snapshot matching the manifest's `diff_base` — the
        /// base a diff plan's chunks overlay onto (`None` for a full
        /// plan). Resolved when the manifest arrives (the requester
        /// advertises its whole retained window; the server picks any root
        /// it also holds).
        anchor: Option<Arc<StateSnapshot>>,
        cert: Box<QuorumCert>,
        sidecar: Arc<StateSidecar>,
        executed: ExecutedWindow,
        view: u64,
        inflight: Vec<u32>,
    },
    /// Chunks installed; waiting for the block tail above the certificate.
    AwaitTail,
}

/// The group's other members in round-robin order: who serves an
/// exchange's next request.
struct PeerRing {
    n: usize,
    me: usize,
    at: usize,
}

impl PeerRing {
    /// The ring over a group of `n` that skips member `me`, at the member
    /// after it.
    fn new(n: usize, me: usize) -> Self {
        let mut ring = PeerRing { n, me, at: me };
        ring.rotate();
        ring
    }

    /// Move on to the next member other than `me`, and return it.
    fn rotate(&mut self) -> usize {
        self.at = (self.at + 1) % self.n;
        if self.at == self.me {
            self.at = (self.at + 1) % self.n;
        }
        self.at
    }
}

/// An in-flight state-sync exchange (requester side).
struct SyncRun {
    phase: SyncPhase,
    /// The serving peer; rotated on failure/timeout and per in-flight
    /// chunk request (fan-out).
    peer: PeerRing,
    /// Full re-fetch (shard transition / restart) vs gap catch-up.
    full: bool,
    /// Full fetch into a shard whose state this node recently held: its
    /// old certified root is meaningful and diff sync applies.
    rejoin: bool,
    /// Whether a chunked transfer happened (vs tail-only catch-up).
    chunked: bool,
    /// Diff disabled for the rest of this exchange (a diff install missed
    /// the certified root; the retry must be a full transfer).
    no_diff: bool,
    /// Highest certificate sequence this exchange has committed to.
    /// Manifests below it are refused: peers that are themselves stale
    /// (freshly restarted, still recovering) keep serving their old
    /// certificate, and accepting it would make the exchange oscillate
    /// between targets instead of converging.
    floor_seq: u64,
    /// Consecutive chunk-phase Nacks without progress. One stale peer in
    /// the rotation must not reset the whole session (re-anchoring
    /// discards every verified chunk); only a full rotation's worth of
    /// Nacks — evidence the *committee* moved past our certificate —
    /// forces a re-anchor.
    nack_strikes: u8,
    started: SimTime,
    last_activity: SimTime,
    /// Actors to notify with `TransitionDone` when the sync completes
    /// (overlapping reshard events can each be waiting on this replica).
    notify: Vec<NodeId>,
}

impl SyncRun {
    fn new(full: bool, rejoin: bool, notify: Option<NodeId>, peer: PeerRing, now: SimTime) -> Self {
        SyncRun {
            phase: SyncPhase::AwaitManifest,
            peer,
            full,
            rejoin,
            chunked: false,
            no_diff: false,
            floor_seq: 0,
            nack_strikes: 0,
            started: now,
            last_activity: now,
            notify: notify.into_iter().collect(),
        }
    }

    /// Nothing arrived for too long: move on to the next peer and forget
    /// the outstanding chunk requests, to be asked again.
    fn retry(&mut self, now: SimTime) {
        self.peer.rotate();
        self.last_activity = now;
        if let SyncPhase::Chunks { inflight, .. } = &mut self.phase {
            inflight.clear();
        }
    }
}

/// The state-sync seam's state.
pub(super) struct SyncState {
    /// In-flight state sync (requester side).
    run: Option<SyncRun>,
    /// True while a full re-fetch (transition/restart) suspends consensus
    /// participation: no votes, proposals, or relays until sync completes.
    paused: bool,
}

impl SyncState {
    pub(super) fn new() -> Self {
        SyncState {
            run: None,
            paused: false,
        }
    }

    /// Whether consensus participation is suspended until a sync completes.
    pub(super) fn paused(&self) -> bool {
        self.paused
    }

    /// Drop the exchange in flight and pause until a sync completes: the
    /// replica went dark, or is restarting.
    pub(super) fn halt(&mut self) {
        *self = SyncState {
            paused: true,
            ..SyncState::new()
        };
    }
}

impl Replica {
    /// A heartbeat advertising an execution point far beyond ours means we
    /// missed blocks *and* the evidence (the committed instances never
    /// arrived — e.g. they committed while this node was syncing and
    /// traffic has since stopped, so gap detection has nothing to see).
    /// Request catch-up; the server answers with a block tail or a
    /// chunked transfer as appropriate. The threshold keeps normal
    /// pipelining lag from triggering spurious exchanges, and only the
    /// *current view's leader* is believed — an unvalidated `exec_seq`
    /// from an arbitrary replica would let one Byzantine node keep the
    /// whole committee churning through pointless sync exchanges.
    pub(super) fn on_heartbeat(
        &mut self,
        from_idx: usize,
        view: u64,
        exec_seq: u64,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        self.charge(ctx, SimDuration::from_micros(5));
        if view != self.view || from_idx != self.leader_of(self.view) {
            return;
        }
        let lag_threshold = (4 * PIPELINE_WIDTH).max(16);
        if exec_seq > self.exec_seq + lag_threshold && self.sync.run.is_none() && !self.sync.paused
        {
            ctx.stats().inc("consensus.heartbeat_syncs", 1);
            self.begin_sync(false, false, None, ctx);
        }
    }

    pub(super) fn request_state_sync(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if self.sync.run.is_some() {
            return; // one exchange at a time; the sync timer handles stalls
        }
        ctx.stats().inc("consensus.state_sync_requests", 1);
        self.begin_sync(false, false, None, ctx);
    }

    /// Open a sync exchange. `full` forces a complete chunked re-fetch
    /// (shard transition / restart); otherwise the server decides between a
    /// block tail and a chunked transfer based on how far behind we are.
    /// `rejoin` marks a full fetch into state this node recently held, so
    /// its old certified root is meaningful and diff sync applies.
    pub(super) fn begin_sync(
        &mut self,
        full: bool,
        rejoin: bool,
        notify: Option<NodeId>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let peers = PeerRing::new(self.cfg.n, self.me);
        self.sync.run = Some(SyncRun::new(full, rejoin, notify, peers, ctx.now()));
        ctx.trace(self.exec_seq, Phase::SyncStart);
        self.send_sync_request(ctx);
        ctx.set_timer(self.sync_retry_interval(), TIMER_SYNC);
    }

    /// (Re)issue the `SyncRequest` to the current peer. Diff
    /// eligibility: enabled, not already fallen back, and the retained
    /// roots are meaningful for the target state (any gap catch-up, or a
    /// full fetch re-joining recently-held state). The diff anchor itself
    /// is resolved when the manifest answers — whichever advertised root
    /// the server diffed against. After the install, the request is for
    /// the tail: a gap catch-up (if a newer certificate formed meanwhile,
    /// the server re-anchors us with a near-empty diff).
    fn send_sync_request(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(run) = self.sync.run.as_ref() else {
            return;
        };
        let tail = matches!(run.phase, SyncPhase::AwaitTail);
        let eligible = self.cfg.diff_sync && !run.no_diff && (tail || !run.full || run.rejoin);
        let old_roots = if eligible {
            self.ckpt.advertised_roots(self.cfg.snapshot_retention)
        } else {
            Vec::new()
        };
        let (peer, full) = (run.peer.at, run.full && !tail);
        ctx.send(
            self.group[peer],
            PbftMsg::SyncRequest {
                requester: self.me,
                have_seq: self.exec_seq,
                full,
                old_roots,
            },
        );
    }

    fn sync_retry_interval(&self) -> SimDuration {
        self.cfg.vc_timeout
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_sync_manifest(
        &mut self,
        cert: QuorumCert,
        bits: u8,
        sidecar: Arc<StateSidecar>,
        executed: ExecutedWindow,
        view: u64,
        diff: Option<Arc<Vec<u32>>>,
        diff_base: Option<Hash>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some(run) = self.sync.run.as_ref() else {
            return;
        };
        // A manifest is valid in `AwaitManifest`, and also in `AwaitTail`:
        // if a newer certificate formed while we synced, the server cannot
        // serve our tail any more and re-anchors us on the newer one
        // (progress stays monotone — each round lands on a later cert).
        let first_round = match run.phase {
            SyncPhase::AwaitManifest => true,
            SyncPhase::AwaitTail => false,
            SyncPhase::Chunks { .. } => return,
        };
        // A full first-round fetch accepts any certificate (the node might
        // even be ahead of it on the old shard's timeline); re-anchors and
        // gap syncs only accept certificates ahead of the execution point.
        let have_seq = if run.full && first_round {
            0
        } else {
            self.exec_seq
        };
        // Verify the certificate: quorum of distinct signers over the
        // advertised (seq, root) — the trust anchor for every chunk.
        let quorum = self.cfg.quorum();
        self.charge(ctx, NATIVE_VERIFY.saturating_mul(cert.signers.len() as u64));
        let certified =
            cert.kind == CertKind::Checkpoint && cert.verify(quorum, self.cert_registry());
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        // Refuse a certificate that does not verify, and (monotonicity)
        // one older than the one this exchange already targets: a stale
        // peer, itself mid-recovery, may answer with it, and accepting it
        // would regress the transfer. Either way, rotate.
        if !certified || cert.seq < run.floor_seq {
            let counter = if certified {
                stat::SYNC_STALE_MANIFESTS
            } else {
                stat::SYNC_BAD_CERTS
            };
            ctx.stats().inc(counter, 1);
            run.peer.rotate();
            return; // retry (rotated peer) via the sync timer
        }
        // An incremental plan is only usable when we still retain a
        // snapshot whose root is exactly the one the server diffed
        // against (we advertised several; the server picked one — and a
        // late manifest answering an earlier advertisement is fine as
        // long as that base is still retained: content-addressed roots
        // identify the overlay base unambiguously). Anything else
        // downgrades to a full session.
        let anchor: Option<Arc<StateSnapshot>> = diff_base
            .and_then(|root| self.ckpt.retained_snapshot(&root).cloned())
            .filter(|_| diff.is_some());
        let usable_diff = diff.filter(|_| anchor.is_some());
        let session = match match &usable_diff {
            Some(chunks) => SyncSession::new_diff(cert.seq, cert.digest, bits, chunks, have_seq),
            None => SyncSession::new_full(cert.seq, cert.digest, bits, have_seq),
        } {
            Ok(s) => s,
            Err(_) if first_round => {
                // Stale certificate on the opening exchange: nothing newer
                // than what we hold — the gap has closed on its own.
                ctx.stats().inc(stat::SYNC_BAD_CERTS, 1);
                self.finish_sync(ctx);
                return;
            }
            Err(_) => {
                // A late/duplicate manifest for the cert we just installed
                // (AwaitTail): ignore it and keep waiting for the tail —
                // treating it as completion would skip the block replay.
                return;
            }
        };
        run.chunked = true;
        run.last_activity = ctx.now();
        run.floor_seq = session.seq();
        run.nack_strikes = 0;
        if session.is_diff() {
            ctx.stats().inc(stat::SYNC_DIFFS, 1);
        }
        let anchor = anchor.filter(|_| session.is_diff());
        let done = session.is_complete();
        let (cert, inflight) = (Box::new(cert), Vec::new());
        run.phase = SyncPhase::Chunks {
            session,
            anchor,
            cert,
            sidecar,
            executed,
            view,
            inflight,
        };
        if done {
            // Empty diff: the retained snapshot already matches the
            // certified root — skip straight to the install + tail.
            self.install_synced_state(ctx);
        } else {
            self.pump_chunk_requests(ctx);
        }
    }

    /// Keep up to `sync_fanout` chunk requests outstanding, each to a
    /// different peer in rotation. Chunks verify independently against the
    /// certified root, so order does not matter and slow peers only stall
    /// their own slot.
    fn pump_chunk_requests(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let fanout = self
            .cfg
            .sync_fanout
            .clamp(1, self.cfg.n.saturating_sub(1).max(1));
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        let SyncPhase::Chunks {
            session, inflight, ..
        } = &mut run.phase
        else {
            return;
        };
        let seq = session.seq();
        for chunk in session.missing_chunks() {
            if inflight.len() >= fanout {
                break;
            }
            if inflight.contains(&chunk) {
                continue;
            }
            let peer = run.peer.rotate();
            inflight.push(chunk);
            ctx.send(
                self.group[peer],
                PbftMsg::ChunkRequest {
                    requester: self.me,
                    seq,
                    chunk,
                },
            );
        }
    }

    pub(super) fn on_chunk_data(
        &mut self,
        seq: u64,
        chunk: u32,
        entries: Arc<Vec<(Key, Value)>>,
        proof: Arc<Vec<Hash>>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let now = ctx.now();
        let bytes: usize = entries.iter().map(|(k, v)| chunk_entry_bytes(k, v)).sum();
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        let SyncPhase::Chunks {
            session, inflight, ..
        } = &mut run.phase
        else {
            return;
        };
        if session.seq() != seq || session.is_fetched(chunk) {
            // Wrong anchor, or a duplicate delivery (timeout retry raced
            // the original): nothing to verify, count, or charge.
            return;
        }
        run.last_activity = now;
        // Verification cost: hash every leaf + fold the proof.
        let verify_cost = COSTS
            .cost(TeeOp::Sha256)
            .saturating_mul(1 + entries.len() as u64)
            + SimDuration::from_nanos((bytes / 8) as u64);
        match session.accept_chunk(chunk, (*entries).clone(), &proof) {
            Ok(done) => {
                inflight.retain(|c| *c != chunk);
                // Progress: the Nack strike ladder only counts *consecutive*
                // failures — one stale peer in the rotation must not
                // accumulate strikes across an otherwise healthy transfer.
                run.nack_strikes = 0;
                self.charge(ctx, verify_cost);
                let scope = Scope::committee(self.cfg.committee_id);
                ctx.stats()
                    .inc_scoped(stat::SYNC_BYTES, scope, bytes as u64);
                if done {
                    self.install_synced_state(ctx);
                } else {
                    self.pump_chunk_requests(ctx);
                }
            }
            Err(SyncError::BadProof { .. }) => {
                // Re-request the same chunk from a different peer: the
                // session did not advance (resumable transfer). The chunk
                // stays in `inflight` so the pump keeps its fan-out slot.
                let peer = run.peer.rotate();
                self.charge(ctx, verify_cost);
                ctx.stats().inc(stat::SYNC_PROOF_FAILURES, 1);
                ctx.send(
                    self.group[peer],
                    PbftMsg::ChunkRequest {
                        requester: self.me,
                        seq,
                        chunk,
                    },
                );
            }
            // Duplicate or out-of-plan delivery: ignore.
            Err(_) => {}
        }
    }

    /// All planned chunks verified: swap in the rebuilt state at the
    /// certified height, then fetch the block tail above it. A full plan
    /// rebuilds from the verified entries alone; a diff plan overlays the
    /// verified chunks onto the retained anchor snapshot and *must* land
    /// exactly on the certified root — a mismatch (server lied about the
    /// changed-chunk set) falls back to a full transfer.
    fn install_synced_state(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(mut run) = self.sync.run.take() else {
            return;
        };
        let SyncPhase::Chunks {
            session,
            anchor,
            cert,
            sidecar,
            executed,
            view,
            ..
        } = std::mem::replace(&mut run.phase, SyncPhase::AwaitTail)
        else {
            unreachable!("install follows the chunk phase")
        };
        let cert = *cert;
        let bits = session.bits();
        let chunks = session.into_verified();
        let fetched: u64 = chunks.iter().map(|(_, e)| e.len() as u64).sum();
        // Rebuild cost: one leaf hash per *fetched* entry plus tree
        // construction — a diff install reuses the anchor's shared tree and
        // only pays for the overlaid chunks.
        self.charge(ctx, COSTS.cost(TeeOp::Sha256).saturating_mul(1 + fetched));
        let mut state = match anchor {
            Some(anchor) => {
                let mut base = StateStore::from_snapshot(&anchor);
                base.apply_diff(bits, &chunks);
                if base.state_digest() != cert.digest {
                    // The changed-chunk report did not cover every
                    // difference: the merged state misses the certified
                    // root. Nothing unverified was installed — restart the
                    // exchange as a full transfer.
                    ctx.stats().inc(stat::SYNC_DIFF_FALLBACKS, 1);
                    run.phase = SyncPhase::AwaitManifest;
                    run.no_diff = true;
                    run.peer.rotate();
                    run.last_activity = ctx.now();
                    self.sync.run = Some(run);
                    self.send_sync_request(ctx);
                    return;
                }
                base
            }
            None => StateStore::from_entries(chunks.into_iter().flat_map(|(_, e)| e).collect()),
        };
        state.install_sidecar(&sidecar);
        debug_assert_eq!(
            state.state_digest(),
            cert.digest,
            "chunks verified against root"
        );
        self.state = state;
        self.executed_reqs = ExecutedCache::from_window(&executed, ctx.now());
        if let Some(ck) = &self.exec.checker {
            // Installed certified state replaces the execution
            // history: a fresh exactly-once lineage begins here.
            ck.record_reset(self.cfg.committee_id, self.me);
        }
        // The node now *holds* certified state at `cert`: register it as a
        // servable snapshot and as the durable checkpoint, so a follow-up
        // sync (or the next crash) anchors here instead of at whatever
        // certificate predated this transfer.
        let installed = CkptSnapshot {
            seq: cert.seq,
            snap: Arc::new(self.state.snapshot()),
            executed: executed.clone(),
        };
        self.ckpt
            .install(cert.clone(), installed, self.cfg.snapshot_retention);
        // Installed certified state is the new durable checkpoint: put it
        // on disk before resuming (a crash right after install must
        // recover here, not at the pre-crash checkpoint).
        self.persist_durable_checkpoint(ctx);
        if self.life.crashed() {
            return; // the persist failed; the node is dark now
        }
        self.exec_seq = cert.seq;
        self.low_mark = cert.seq;
        if run.full {
            // Fresh shard state: every local instance refers to the old
            // timeline (including ones marked executed above the cert), and
            // the proposal counter restarts at the certified height — the
            // new committee's history *is* the certificate; anything the
            // old timeline held above it is re-ordered from the pools.
            self.insts.clear();
            self.next_seq = cert.seq + 1;
        } else {
            self.insts.retain(|s, _| *s > cert.seq);
            self.next_seq = self.next_seq.max(cert.seq + 1);
        }
        self.ckpt.adopt(cert.seq);
        if view > self.view {
            self.enter_view(view, ctx);
        }
        // Drop pooled requests that executed remotely.
        let ex = std::mem::take(&mut self.executed_reqs);
        self.pool.retain(|r| !ex.contains(r.id));
        self.executed_reqs = ex;
        // Catch up the blocks committed above the certificate.
        run.last_activity = ctx.now();
        self.sync.run = Some(run);
        self.send_sync_request(ctx);
    }

    /// A block tail: each block executes only once its commit
    /// certificate verifies against the digest recomputed from its
    /// contents. The first that does not refuses the rest of the tail
    /// (and the view it names); the sync timer asks the next peer.
    pub(super) fn on_sync_tail(
        &mut self,
        blocks: Vec<(Arc<PbftBlock>, QuorumCert)>,
        view: u64,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        if !matches!(run.phase, SyncPhase::AwaitTail | SyncPhase::AwaitManifest) {
            return;
        }
        run.last_activity = ctx.now();
        for (block, cert) in blocks {
            if block.seq == self.exec_seq + 1 {
                let digest =
                    PbftBlock::compute_digest(block.view, block.seq, block.proposer, &block.reqs);
                let kind = matches!(
                    cert.kind,
                    CertKind::Commit | CertKind::Aggregate(VotePhase::Commit)
                );
                let proven = kind
                    && (cert.view, cert.seq, cert.digest) == (block.view, block.seq, digest)
                    && self.verify_qc(&cert);
                if !proven {
                    ctx.stats().inc(stat::SYNC_BAD_CERTS, 1);
                    if let Some(run) = self.sync.run.as_mut() {
                        run.peer.rotate();
                    }
                    self.send_sync_request(ctx);
                    return;
                }
                if !self.execute_next(&block, ctx) {
                    return; // I/O failure while journaling the tail
                }
            }
        }
        if view > self.view {
            self.enter_view(view, ctx);
        }
        self.finish_sync(ctx);
    }

    pub(super) fn on_sync_nack(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let (n, now) = (self.cfg.n, ctx.now());
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        match &mut run.phase {
            // Nothing above the certificate (or we were already current).
            SyncPhase::AwaitTail => self.finish_sync(ctx),
            // Server cannot serve a manifest: rotate and retry via the sync
            // timer — unless a gap catch-up no longer has a gap (normal
            // traffic caught us up while we waited).
            SyncPhase::AwaitManifest => {
                run.peer.rotate();
                if !run.full && !self.has_execution_gap() {
                    self.finish_sync(ctx);
                }
            }
            // A peer cannot serve chunks at our certificate. Either that
            // one peer is stale (freshly restarted, serving only its own
            // old snapshot) — strike it, rotate, and re-issue the
            // outstanding requests elsewhere — or the *committee* has
            // rotated the snapshot away (cert advanced), which a full
            // rotation's worth of consecutive Nacks evidences: only then
            // re-anchor on a fresh manifest (discarding the session's
            // verified chunks). Without the strike ladder, one stale peer
            // in the fan-out rotation could reset the transfer forever.
            SyncPhase::Chunks { inflight, .. } => {
                run.nack_strikes = run.nack_strikes.saturating_add(1);
                run.peer.rotate();
                run.last_activity = now;
                if (run.nack_strikes as usize) < n.saturating_sub(1).max(2) {
                    inflight.clear();
                    self.pump_chunk_requests(ctx);
                } else {
                    run.nack_strikes = 0;
                    run.phase = SyncPhase::AwaitManifest;
                    ctx.stats().inc(stat::SYNC_REANCHORS, 1);
                    self.send_sync_request(ctx);
                }
            }
        }
    }

    /// Sync exchange complete: account for it, resume participation, and
    /// notify the transition controller if one is waiting.
    fn finish_sync(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(run) = self.sync.run.take() else {
            return;
        };
        ctx.trace(self.exec_seq, Phase::SyncDone);
        if run.chunked {
            let elapsed = ctx.now().since(run.started);
            let scope = Scope::committee(self.cfg.committee_id);
            ctx.stats().inc_scoped(stat::SYNC_COMPLETED, scope, 1);
            ctx.stats()
                .record_latency_scoped(stat::SYNC_DURATION, scope, elapsed);
        } else {
            ctx.stats().inc(stat::SYNC_TAILS, 1);
        }
        self.sync.paused = false;
        self.vc.clear_strikes();
        for controller in run.notify {
            ctx.send(controller, PbftMsg::TransitionDone { replica: self.me });
        }
        // Requests pooled while away: push the whole backlog toward the
        // current leader (bounded only by a generous cap) — this is the
        // post-recovery drain the reshard experiment measures.
        if self.cfg.variant.relay_to_leader() && !self.is_leader() {
            let leader = self.group[self.leader_of(self.view)];
            for req in self.pool.iter_fifo().take(4096) {
                ctx.send(leader, PbftMsg::Relay(req.clone()));
            }
        }
        self.try_execute(ctx);
    }

    pub(super) fn on_sync_timer(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let retry_after = self.sync_retry_interval().saturating_mul(2);
        let now = ctx.now();
        let Some(run) = self.sync.run.as_mut() else {
            return;
        };
        if now.since(run.last_activity) >= retry_after {
            // Ask again for whatever the exchange waits on: its missing
            // chunks, or else a manifest or tail.
            run.retry(now);
            if matches!(run.phase, SyncPhase::Chunks { .. }) {
                self.pump_chunk_requests(ctx);
            } else {
                self.send_sync_request(ctx);
            }
        }
        ctx.set_timer(self.sync_retry_interval(), TIMER_SYNC);
    }

    // ---------- state sync: server side ----------

    /// `requester` is the sender's own group index (checked at dispatch).
    pub(super) fn on_sync_request(
        &mut self,
        requester: usize,
        have_seq: u64,
        full: bool,
        old_roots: Vec<Hash>,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        self.charge(ctx, SimDuration::from_micros(20));
        let to = self.group[requester];
        // A transitioning node serves manifests and chunks (its certified
        // snapshot stays valid) but never a block tail: everything it
        // executed above the certificate belongs to the old shard's
        // timeline, which the transition discards. Serving it would fork a
        // swap-all committee between old and re-ordered history.
        if !full && !self.sync.paused {
            if self.exec_seq <= have_seq {
                ctx.send(to, PbftMsg::SyncNack { have_seq });
                return;
            }
            // Recent gap: serve the committed blocks directly (executed
            // instances are retained above the previous stable checkpoint).
            if have_seq >= self.insts_floor {
                let blocks: Option<Vec<(Arc<PbftBlock>, QuorumCert)>> = (have_seq + 1
                    ..=self.exec_seq)
                    .map(|s| {
                        let inst = self.insts.get(&s).filter(|i| i.executed)?;
                        Some((inst.block.clone()?, inst.cert.clone()?))
                    })
                    .collect();
                if let Some(mut blocks) = blocks {
                    if self.attack() == Some(Attack::ForgeTail) {
                        forge_tail(&mut blocks);
                    }
                    let bytes: usize = blocks.iter().map(|(b, _)| b.wire_size()).sum();
                    self.charge(ctx, SimDuration::from_nanos((bytes / 8) as u64));
                    ctx.send(
                        to,
                        PbftMsg::SyncTail {
                            blocks,
                            view: self.view,
                        },
                    );
                    return;
                }
            }
        }
        // Deep gap or forced full fetch: anchor a chunked transfer at the
        // latest certified snapshot.
        match self.ckpt.newest_served() {
            Some((cert, snap)) if full || cert.seq > have_seq => {
                let bits = chunk_bits_for(snap.snap.len(), self.cfg.sync_chunk_target);
                // Incremental plan: if *any* advertised root (newest
                // first) is one this node still retains a snapshot of,
                // report only the chunks that changed since. Retention
                // covers the serving window (`snapshot_retention` certs)
                // plus the durable checkpoint; no shared root falls back
                // to a full plan.
                let shared = old_roots
                    .iter()
                    .filter(|_| self.cfg.diff_sync)
                    .find_map(|r| Some((*r, self.ckpt.retained_snapshot(r)?)));
                let (diff, diff_base): (Option<Arc<Vec<u32>>>, Option<Hash>) = match shared {
                    Some((root, old)) => (
                        Some(Arc::new(old.smt().diff_chunks(snap.snap.smt(), bits))),
                        Some(root),
                    ),
                    None => (None, None),
                };
                let sidecar = Arc::new(snap.snap.sidecar().clone());
                // Diff computation walks both trees' chunk roots (hash
                // compares only — shared subtrees never hash again).
                let serve_cost = SimDuration::from_micros(50)
                    + SimDuration::from_nanos(diff.as_ref().map_or(0, |_| (1u64 << bits) * 50));
                self.charge(ctx, serve_cost);
                ctx.send(
                    to,
                    PbftMsg::SyncManifest {
                        cert: cert.clone(),
                        bits,
                        leaves: snap.snap.len() as u64,
                        sidecar,
                        executed: snap.executed.clone(),
                        view: self.view,
                        diff,
                        diff_base,
                    },
                );
            }
            _ => ctx.send(to, PbftMsg::SyncNack { have_seq }),
        }
    }

    /// `requester` is the sender's own group index (checked at dispatch).
    pub(super) fn on_chunk_request(
        &mut self,
        requester: usize,
        seq: u64,
        chunk: u32,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        let to = self.group[requester];
        match self.ckpt.served_at(seq) {
            Some(snap) => {
                let bits = chunk_bits_for(snap.snap.len(), self.cfg.sync_chunk_target);
                if chunk >= 1u32 << bits {
                    ctx.send(to, PbftMsg::SyncNack { have_seq: seq });
                    return;
                }
                // The frozen snapshot carries keys *and* values: the chunk
                // is cut straight from the certified tree.
                let mut entries: Vec<(Key, Value)> = snap.snap.chunk_entries(chunk, bits);
                if self.byz.is_some() {
                    corrupt_chunk(&mut entries);
                }
                let proof = snap.snap.chunk_proof(chunk, bits);
                let bytes: usize = entries.iter().map(|(k, v)| chunk_entry_bytes(k, v)).sum();
                // Read + serialization cost for the served chunk.
                self.charge(
                    ctx,
                    SimDuration::from_micros(20) + SimDuration::from_nanos((bytes / 8) as u64),
                );
                ctx.stats().inc_scoped(
                    stat::SYNC_CHUNKS_SERVED,
                    Scope::committee(self.cfg.committee_id),
                    1,
                );
                ctx.send(
                    to,
                    PbftMsg::ChunkData {
                        seq,
                        chunk,
                        entries: Arc::new(entries),
                        proof: Arc::new(proof),
                    },
                );
            }
            // Snapshot rotated away (a newer cert formed): the requester
            // must re-anchor.
            _ => ctx.send(to, PbftMsg::SyncNack { have_seq: seq }),
        }
    }

    /// §5.3 shard transition: pause consensus participation and re-fetch
    /// the (new) shard's entire state through the certified chunk protocol.
    /// The old state is kept for *serving* — departing committee members
    /// keep answering chunk requests while they transfer, as in the paper.
    pub(super) fn on_transition(
        &mut self,
        controller: Option<NodeId>,
        rejoin: bool,
        ctx: &mut Ctx<'_, PbftMsg>,
    ) {
        match &mut self.sync.run {
            // Already transitioning: the in-flight full fetch serves this
            // request too — attach the new controller rather than dropping
            // it (a batch scheduler waiting on TransitionDone would
            // otherwise deadlock).
            Some(run) if run.full => {
                if let Some(c) = controller {
                    if !run.notify.contains(&c) {
                        run.notify.push(c);
                    }
                }
                return;
            }
            // A gap catch-up is superseded — the transition re-fetches
            // everything anyway, and dropping the Transition instead would
            // deadlock the reshard controller waiting on TransitionDone.
            Some(_) => self.sync.run = None,
            None => {}
        }
        ctx.stats().inc("sync.transitions", 1);
        self.sync.paused = true;
        self.begin_sync(true, rejoin, controller, ctx);
    }
}
