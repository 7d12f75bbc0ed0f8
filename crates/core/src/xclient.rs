//! The cross-shard transaction driver (paper §6.3).
//!
//! Implements the client-relay optimization the paper uses in the normal
//! case: "we let the clients collect and relay messages between R and
//! tx-committees. We directly exploit the blockchain's ledger to record
//! the progress of the commit protocol." Every protocol step is an
//! ordinary transaction ordered by a committee's consensus:
//!
//! 1. **BeginTx** — a guarded op on the reference committee R's ledger
//!    recording the transaction and initializing the Figure 6 counter `c`
//!    (the chaincode is `ahl_txn::coordinator`, Figure 6's one statement).
//! 2. **PrepareTx** — an `Op::Prepare` at each involved shard (2PL lock
//!    acquisition + pending write-set). The execution receipt is the
//!    shard's PrepareOK / PrepareNotOK.
//! 3. **Votes** — guarded ops on R's ledger implementing the Figure 6
//!    transitions (duplicate-proof: each shard's vote key can be written
//!    once; the counter `c` decrements on OK; an abort flag latches NotOK).
//! 4. **CommitTx / AbortTx** — `Op::Commit`/`Op::Abort` at every involved
//!    shard.
//!
//! Safety does not depend on the client: the on-chain guards make R's
//! state machine follow Figure 6 no matter what a malicious client sends
//! (up to the vote-binding gap documented in `ahl_txn::coordinator`), and
//! `ahl-txn` proves those state machines safe: its property tests and
//! adversary battery run these same ops. A crashed client only
//! delays its own transaction (liveness for the *locks* comes from R's
//! ability to abort, exercised in the stall path below).

use std::collections::HashMap;

use ahl_consensus::clients::AimdWindow;
use ahl_consensus::common::Request;
use ahl_consensus::pbft::PbftMsg;

// One shared backpressure-policy implementation across all drivers (the
// closed-loop request client and this transaction driver must not drift).
pub use ahl_consensus::clients::RateControl;
use ahl_ledger::{Op, StateOp, TxId};
use ahl_simkit::{Actor, Ctx, NodeId, SimDuration, SimTime};
use ahl_telemetry::Profiler;
use ahl_txn::coordinator::{begin_op, vote_not_ok_op, vote_ok_op};
use ahl_txn::ShardMap;
use rand::rngs::SmallRng;

/// Stat keys recorded by the cross-shard driver.
pub mod sysstat {
    /// Counter: logical transactions committed.
    pub const SYS_COMMITTED: &str = "sys.txn_committed";
    /// Counter: logical transactions aborted.
    pub const SYS_ABORTED: &str = "sys.txn_aborted";
    /// Series: logical commits over time.
    pub const SYS_COMMIT_SERIES: &str = "sys.commit_series";
    /// Histogram: logical transaction latency.
    pub const SYS_LATENCY: &str = "sys.txn_latency";
    /// Counter: transactions that were cross-shard.
    pub const SYS_CROSS_SHARD: &str = "sys.cross_shard";
    /// Counter: stalled transactions abandoned by the driver.
    pub const SYS_STALLED: &str = "sys.stalled";
    /// Counter: protocol steps bounced by pool admission control
    /// (each is retried after a backoff).
    pub const SYS_REJECTED: &str = "sys.rejected";
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Begin,
    Prepare(usize),
    Vote(usize),
    Decide(usize),
    SingleShard,
}

#[derive(Debug)]
struct InFlight {
    parts: Vec<(usize, StateOp)>,
    started: SimTime,
    prepare_replies: usize,
    any_not_ok: bool,
    vote_replies: usize,
    decide_replies: usize,
    decided: bool,
    last_activity: SimTime,
}

/// Generates the next transaction body for the driver.
pub type StateOpFactory = Box<dyn FnMut(&mut SmallRng) -> StateOp + Send>;

const TIMER_WATCHDOG: u64 = 1;
const TIMER_RETRY: u64 = 2;

/// Backoff before resubmitting a step the pool rejected.
const REJECT_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// A closed-loop cross-shard transaction driver.
pub struct CrossShardClient {
    /// One entry replica per shard committee.
    shard_targets: Vec<NodeId>,
    /// One entry replica in the reference committee.
    ref_target: NodeId,
    map: ShardMap,
    /// Open-transaction budget (fixed, or AIMD over pool rejections).
    window: AimdWindow,
    stop_at: SimTime,
    stall_timeout: SimDuration,
    factory: StateOpFactory,

    next_tx: u64,
    next_req: u32,
    inflight: HashMap<TxId, InFlight>,
    req_index: HashMap<u64, Pending>,
    /// Steps bounced by pool backpressure, waiting out the backoff.
    retry_buf: Vec<Pending>,
    /// Byzantine driver mode: replay every protocol step and deliver
    /// decisions duplicated and in reverse shard order. The on-chain
    /// Figure 6 guards plus replica-side request dedup must mask all of
    /// it — exercised by the byzantine test battery.
    sabotage: bool,
}

/// An outstanding protocol step (kept so rejected steps can be retried).
#[derive(Debug, Clone)]
struct Pending {
    req_id: u64,
    txid: TxId,
    step: Step,
    target: NodeId,
    op: Op,
    /// First-submission time. Same-id retries MUST reuse it: the
    /// replicas' replay horizon (`request_ttl`) is anchored at the
    /// original submission, so a request id can only be admitted while
    /// the executed-id cache is still guaranteed to remember it.
    /// Refreshing the timestamp on retry would re-open the
    /// replay-after-prune window the Byzantine battery closed.
    submitted: SimTime,
}

impl CrossShardClient {
    /// Create a driver with `window` concurrently open transactions.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        client_id: usize,
        shard_targets: Vec<NodeId>,
        ref_target: NodeId,
        map: ShardMap,
        window: usize,
        stop_at: SimTime,
        stall_timeout: SimDuration,
        factory: StateOpFactory,
    ) -> Self {
        CrossShardClient {
            shard_targets,
            ref_target,
            map,
            window: AimdWindow::new(RateControl::Fixed, window),
            stop_at,
            stall_timeout,
            factory,
            next_tx: (client_id as u64) << 40,
            next_req: 0,
            inflight: HashMap::new(),
            req_index: HashMap::new(),
            retry_buf: Vec::new(),
            sabotage: false,
        }
    }

    fn send_request(
        &mut self,
        ctx: &mut Ctx<'_, PbftMsg>,
        target: NodeId,
        op: Op,
        txid: TxId,
        step: Step,
    ) {
        let req_id = Request::make_id(ctx.id(), self.next_req);
        self.next_req = self.next_req.wrapping_add(1);
        let submitted = ctx.now();
        self.req_index.insert(
            req_id,
            Pending {
                req_id,
                txid,
                step,
                target,
                op: op.clone(),
                submitted,
            },
        );
        let req = Request {
            id: req_id,
            client: ctx.id(),
            op,
            submitted,
        };
        ctx.trace(req_id, ahl_simkit::Phase::Submit);
        if self.sabotage {
            // Replay attack: every step goes out twice under the same
            // request id. Replica-side dedup + the on-chain vote/decision
            // guards must make the copy a no-op.
            ctx.send(target, PbftMsg::Request(req.clone()));
        }
        ctx.send(target, PbftMsg::Request(req));
    }

    /// Lock-releasing decisions must reach the shard even after the
    /// driver has forgotten the transaction (the watchdog `finish`es a
    /// stalled tx right after resending its decision): a dropped
    /// Commit/Abort would leak the 2PL locks forever, since only they
    /// release locks.
    fn must_deliver(op: &Op) -> bool {
        matches!(op, Op::Abort { .. } | Op::Commit { .. })
    }

    /// Select this driver's backpressure policy (builder-style; the
    /// default is [`RateControl::Fixed`]).
    pub fn with_rate_control(mut self, rc: RateControl) -> Self {
        self.window = AimdWindow::new(rc, self.window.max_size());
        self
    }

    /// Turn this driver into a Byzantine 2PC participant (builder-style):
    /// replays every step, delivers decisions duplicated and reordered.
    pub fn with_sabotage(mut self, on: bool) -> Self {
        self.sabotage = on;
        self
    }

    /// Pool backpressure on one of our steps: buffer it and retry after a
    /// backoff. Under AIMD the rejection also halves the open-transaction
    /// window — the pool said "too much", so the driver offers less. A
    /// transaction whose steps keep bouncing is eventually reaped by the
    /// stall watchdog, so overload cannot wedge the driver.
    fn on_rejected(&mut self, req_id: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(pending) = self.req_index.remove(&req_id) else {
            return;
        };
        if !self.inflight.contains_key(&pending.txid) && !Self::must_deliver(&pending.op) {
            return; // transaction already finished or reaped
        }
        ctx.stats().inc(sysstat::SYS_REJECTED, 1);
        self.window.on_reject();
        if self.retry_buf.is_empty() {
            ctx.set_timer(REJECT_BACKOFF, TIMER_RETRY);
        }
        self.retry_buf.push(pending);
    }

    fn drain_retries(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let pending = std::mem::take(&mut self.retry_buf);
        for p in pending {
            if !self.inflight.contains_key(&p.txid) && !Self::must_deliver(&p.op) {
                continue;
            }
            if Self::must_deliver(&p.op) {
                // Lock-releasing decisions are idempotent at the shard
                // (pending/resolved bookkeeping), so they need no dedup —
                // re-issue them as *fresh* requests, which keeps them
                // deliverable past the replay horizon (a refused late
                // abort would leak 2PL locks forever).
                self.send_request(ctx, p.target, p.op, p.txid, p.step);
                continue;
            }
            // Retry under the ORIGINAL request id *and* the original
            // submission time: the id guarantees at-most-once execution
            // through replica-side dedup, and the unchanged timestamp
            // keeps the retry inside the replay horizon that dedup is
            // guaranteed to cover. A step still bouncing when the horizon
            // expires is refused by the replicas; the stall watchdog then
            // reaps the transaction.
            let req = Request {
                id: p.req_id,
                client: ctx.id(),
                op: p.op.clone(),
                submitted: p.submitted,
            };
            ctx.send(p.target, PbftMsg::Request(req));
            self.req_index.insert(p.req_id, p);
        }
    }

    fn start_tx(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let body = (self.factory)(ctx.rng());
        self.next_tx += 1;
        let txid = TxId(self.next_tx);
        let parts = self.map.split_op(&body);
        let entry = InFlight {
            parts: parts.clone(),
            started: ctx.now(),
            prepare_replies: 0,
            any_not_ok: false,
            vote_replies: 0,
            decide_replies: 0,
            decided: false,
            last_activity: ctx.now(),
        };
        self.inflight.insert(txid, entry);
        match parts.len() {
            0 => {
                self.finish(txid, true, ctx);
            }
            1 => {
                let (shard, sub) = &parts[0];
                let target = self.shard_targets[*shard];
                self.send_request(
                    ctx,
                    target,
                    Op::Direct {
                        txid,
                        op: sub.clone(),
                    },
                    txid,
                    Step::SingleShard,
                );
            }
            n_parts => {
                ctx.stats().inc(sysstat::SYS_CROSS_SHARD, 1);
                ctx.trace(txid.0, ahl_simkit::Phase::TwoPcBegin);
                self.send_request(
                    ctx,
                    self.ref_target,
                    Op::Direct {
                        txid,
                        op: begin_op(txid, n_parts),
                    },
                    txid,
                    Step::Begin,
                );
            }
        }
    }

    fn finish(&mut self, txid: TxId, committed: bool, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(entry) = self.inflight.remove(&txid) else {
            return;
        };
        let now = ctx.now();
        ctx.stats()
            .record_latency(sysstat::SYS_LATENCY, now.since(entry.started));
        if committed {
            ctx.stats().inc(sysstat::SYS_COMMITTED, 1);
            ctx.stats()
                .record_point(sysstat::SYS_COMMIT_SERIES, now, 1.0);
            self.window.on_success();
        } else {
            ctx.stats().inc(sysstat::SYS_ABORTED, 1);
        }
        if self.inflight.len() < self.window.effective() {
            self.start_tx(ctx);
        }
    }

    fn on_reply(&mut self, req_id: u64, committed: bool, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(Pending { txid, step, .. }) = self.req_index.remove(&req_id) else {
            return;
        };
        let Some(entry) = self.inflight.get_mut(&txid) else {
            return;
        };
        entry.last_activity = ctx.now();
        match step {
            Step::SingleShard => {
                self.finish(txid, committed, ctx);
            }
            Step::Begin => {
                if !committed {
                    // Duplicate txid or R overload: abandon.
                    self.finish(txid, false, ctx);
                    return;
                }
                // Send PrepareTx to every involved shard.
                let sends: Vec<(NodeId, Op, usize)> = entry
                    .parts
                    .iter()
                    .map(|(shard, sub)| {
                        (
                            self.shard_targets[*shard],
                            Op::Prepare {
                                txid,
                                op: sub.clone(),
                            },
                            *shard,
                        )
                    })
                    .collect();
                for (target, op, shard) in sends {
                    self.send_request(ctx, target, op, txid, Step::Prepare(shard));
                }
            }
            Step::Prepare(shard) => {
                entry.prepare_replies += 1;
                if !committed {
                    entry.any_not_ok = true;
                }
                // Relay the shard's vote to R (recorded on R's chain).
                let vote = if committed {
                    vote_ok_op(txid, shard)
                } else {
                    vote_not_ok_op(txid, shard)
                };
                let target = self.ref_target;
                self.send_request(
                    ctx,
                    target,
                    Op::Direct { txid, op: vote },
                    txid,
                    Step::Vote(shard),
                );
            }
            Step::Vote(_) => {
                entry.vote_replies += 1;
                ctx.trace(txid.0, ahl_simkit::Phase::TwoPcVote);
                if entry.vote_replies == entry.parts.len() && !entry.decided {
                    entry.decided = true;
                    // The decision is now recorded on R's chain; deliver it.
                    let commit = !entry.any_not_ok;
                    let mut sends: Vec<(NodeId, Op, usize)> = entry
                        .parts
                        .iter()
                        .map(|(shard, _)| {
                            let op = if commit {
                                Op::Commit { txid }
                            } else {
                                Op::Abort { txid }
                            };
                            (self.shard_targets[*shard], op, *shard)
                        })
                        .collect();
                    if self.sabotage {
                        // Selective-order delivery: last shard first. The
                        // decision is the same everywhere (it comes off
                        // R's chain), so ordering must not matter.
                        sends.reverse();
                    }
                    for (target, op, shard) in sends {
                        self.send_request(ctx, target, op, txid, Step::Decide(shard));
                    }
                }
            }
            Step::Decide(_) => {
                entry.decide_replies += 1;
                if entry.decide_replies == entry.parts.len() {
                    let committed_tx = !entry.any_not_ok;
                    self.finish(txid, committed_tx, ctx);
                }
            }
        }
    }

    fn watchdog(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        // Abandon transactions that stalled (lost replies, view changes);
        // resend the decision so shard locks are released, then refill
        // the window. A transaction whose commit was already decided on
        // R's chain gets its *commit* resent, never an abort: aborting a
        // decided-commit transaction whose deliveries were partially
        // applied would discard one shard's write set after another
        // shard applied its half — a cross-shard atomicity break the
        // SafetyChecker flags.
        let now = ctx.now();
        let stalled: Vec<TxId> = self
            .inflight
            .iter()
            .filter(|(_, e)| now.since(e.last_activity) > self.stall_timeout)
            .map(|(id, _)| *id)
            .collect();
        for txid in stalled {
            let mut committed = false;
            if let Some(entry) = self.inflight.get(&txid) {
                committed = entry.decided && !entry.any_not_ok;
                let sends: Vec<(NodeId, Op)> = entry
                    .parts
                    .iter()
                    .map(|(shard, _)| {
                        let op = if committed {
                            Op::Commit { txid }
                        } else {
                            Op::Abort { txid }
                        };
                        (self.shard_targets[*shard], op)
                    })
                    .collect();
                for (target, op) in sends {
                    self.send_request(ctx, target, op, txid, Step::Decide(usize::MAX));
                }
            }
            ctx.stats().inc(sysstat::SYS_STALLED, 1);
            self.finish(txid, committed, ctx);
        }
        while self.inflight.len() < self.window.effective() && ctx.now() < self.stop_at {
            let before = self.inflight.len();
            self.start_tx(ctx);
            if self.inflight.len() <= before {
                break; // start_tx completed instantly or stop reached
            }
        }
        ctx.set_timer(self.stall_timeout, TIMER_WATCHDOG);
    }
}

impl Actor for CrossShardClient {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = Profiler::span("xclient.on_start");
        for _ in 0..self.window.effective() {
            self.start_tx(ctx);
        }
        ctx.set_timer(self.stall_timeout, TIMER_WATCHDOG);
    }

    fn on_message(&mut self, _from: NodeId, msg: PbftMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = Profiler::span("xclient.on_message");
        match msg {
            PbftMsg::Reply { req_id, committed } => self.on_reply(req_id, committed, ctx),
            PbftMsg::Rejected { req_id } => self.on_rejected(req_id, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        let _prof = Profiler::span("xclient.on_timer");
        match kind {
            TIMER_WATCHDOG => self.watchdog(ctx),
            TIMER_RETRY => self.drain_retries(ctx),
            _ => {}
        }
    }
}
