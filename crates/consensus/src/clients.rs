//! Benchmark client drivers (BLOCKBENCH-style, §7).
//!
//! * [`OpenLoopClient`] — submits at a fixed rate regardless of completion
//!   (the paper's single-shard driver).
//! * [`ClosedLoopClient`] — maintains a window of outstanding requests and
//!   issues a new one per completion (the paper's multi-shard driver, with
//!   128 outstanding requests per client).
//!
//! Clients are generic over the protocol message type through
//! [`ClientProtocol`], so every consensus implementation reuses them.

use ahl_simkit::{Actor, Ctx, NodeId, SimDuration, SimTime};
use std::collections::HashSet;

use crate::common::{stat, OpFactory, Request};

/// Adapter between generic clients and a concrete protocol message type.
pub trait ClientProtocol: Clone {
    /// Wrap a request for submission to a replica.
    fn make_request(req: Request) -> Self;
    /// If this message is a reply to a request, its request id.
    fn reply_id(&self) -> Option<u64>;
    /// If this message is an admission-control rejection (pool
    /// backpressure), the refused request's id. Protocols without a
    /// mempool rejection signal keep the default.
    fn reject_id(&self) -> Option<u64> {
        None
    }
}

const TIMER_SEND: u64 = 1;

/// Open-loop driver: issues one request every `interval`, round-robin over
/// `targets`, without waiting for completions.
pub struct OpenLoopClient<M> {
    targets: Vec<NodeId>,
    interval: SimDuration,
    factory: OpFactory,
    stop_at: SimTime,
    seq: u32,
    next_target: usize,
    _marker: std::marker::PhantomData<M>,
}

impl<M> OpenLoopClient<M> {
    /// Create a driver submitting to `targets` every `interval` until
    /// `stop_at`, generating operations from `factory`.
    pub fn new(
        targets: Vec<NodeId>,
        interval: SimDuration,
        stop_at: SimTime,
        factory: OpFactory,
    ) -> Self {
        assert!(!targets.is_empty(), "need at least one target replica");
        OpenLoopClient {
            targets,
            interval,
            factory,
            stop_at,
            seq: 0,
            next_target: 0,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M: ClientProtocol + 'static> Actor for OpenLoopClient<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        // Stagger client start within one interval to avoid phase lock.
        let jitter = SimDuration::from_nanos(
            (ctx.id() as u64).wrapping_mul(7_919) % self.interval.as_nanos().max(1),
        );
        ctx.set_timer(jitter, TIMER_SEND);
    }

    fn on_message(&mut self, _from: NodeId, _msg: M, ctx: &mut Ctx<'_, M>) {
        // Open-loop: replies (if any) are ignored beyond accounting.
        ctx.stats().inc("client.replies", 1);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, M>) {
        if kind != TIMER_SEND || ctx.now() >= self.stop_at {
            return;
        }
        let op = (self.factory)(ctx.rng());
        let req = Request {
            id: Request::make_id(ctx.id(), self.seq),
            client: ctx.id(),
            op,
            submitted: ctx.now(),
        };
        self.seq = self.seq.wrapping_add(1);
        let target = self.targets[self.next_target % self.targets.len()];
        self.next_target += 1;
        ctx.trace(req.id, ahl_simkit::Phase::Submit);
        ctx.send(target, M::make_request(req));
        ctx.stats().inc("client.submitted", 1);
        ctx.set_timer(self.interval, TIMER_SEND);
    }
}

const TIMER_RETRY: u64 = 2;

/// How a driver reacts to pool backpressure (`Rejected` notices). Shared
/// by every client flavour (closed-loop, cross-shard) through
/// [`AimdWindow`], so the policy semantics cannot drift between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RateControl {
    /// Keep the window fixed; rejected slots refill on the retry timer
    /// (an implicit one-interval backoff). Under sustained overload the
    /// driver keeps offering the same load and eats rejections.
    #[default]
    Fixed,
    /// Pool-aware AIMD: a rejection halves the effective window
    /// (multiplicative decrease), a completion grows it by `1/window`
    /// (additive increase, ≈ +1 per window per round trip) back toward
    /// the configured maximum — the offered load converges onto what the
    /// pools admit instead of hammering them.
    Aimd,
}

/// The one AIMD window implementation (see [`RateControl`]): tracks the
/// congestion window and answers "how many may be in flight right now".
#[derive(Clone, Copy, Debug)]
pub struct AimdWindow {
    rc: RateControl,
    max: usize,
    cwnd: f64,
}

impl AimdWindow {
    /// A window capped at `max` in-flight items under policy `rc`.
    pub fn new(rc: RateControl, max: usize) -> Self {
        let max = max.max(1);
        AimdWindow {
            rc,
            max,
            cwnd: max as f64,
        }
    }

    /// The configured maximum (policy changes rebuild from this).
    pub fn max_size(&self) -> usize {
        self.max
    }

    /// The in-flight budget right now.
    pub fn effective(&self) -> usize {
        match self.rc {
            RateControl::Fixed => self.max,
            RateControl::Aimd => (self.cwnd.floor() as usize).clamp(1, self.max),
        }
    }

    /// One item was rejected by backpressure: multiplicative decrease.
    pub fn on_reject(&mut self) {
        if self.rc == RateControl::Aimd {
            self.cwnd = (self.cwnd / 2.0).max(1.0);
        }
    }

    /// One item completed: additive increase toward the cap.
    pub fn on_success(&mut self) {
        if self.rc == RateControl::Aimd {
            self.cwnd = (self.cwnd + 1.0 / self.cwnd.max(1.0)).min(self.max as f64);
        }
    }
}

/// Closed-loop driver: keeps `window` requests outstanding; issues a new
/// request whenever one completes. Retransmits round-robin on timeout
/// (needed for liveness across view changes).
pub struct ClosedLoopClient<M> {
    targets: Vec<NodeId>,
    window: AimdWindow,
    factory: OpFactory,
    stop_at: SimTime,
    retry_after: SimDuration,
    seq: u32,
    next_target: usize,
    outstanding: HashSet<u64>,
    last_progress: SimTime,
    _marker: std::marker::PhantomData<M>,
}

impl<M> ClosedLoopClient<M> {
    /// Create a closed-loop driver with `window` outstanding requests.
    pub fn new(
        targets: Vec<NodeId>,
        window: usize,
        stop_at: SimTime,
        retry_after: SimDuration,
        factory: OpFactory,
    ) -> Self {
        assert!(!targets.is_empty(), "need at least one target replica");
        ClosedLoopClient {
            targets,
            window: AimdWindow::new(RateControl::Fixed, window),
            factory,
            stop_at,
            retry_after,
            seq: 0,
            next_target: 0,
            outstanding: HashSet::new(),
            last_progress: SimTime::ZERO,
            _marker: std::marker::PhantomData,
        }
    }

    /// Select the backpressure policy (builder-style; default `Fixed`).
    pub fn with_rate_control(mut self, rc: RateControl) -> Self {
        self.window = AimdWindow::new(rc, self.window.max_size());
        self
    }

    fn submit_one(&mut self, ctx: &mut Ctx<'_, M>)
    where
        M: ClientProtocol + 'static,
    {
        let op = (self.factory)(ctx.rng());
        let req = Request {
            id: Request::make_id(ctx.id(), self.seq),
            client: ctx.id(),
            op,
            submitted: ctx.now(),
        };
        self.seq = self.seq.wrapping_add(1);
        self.outstanding.insert(req.id);
        let target = self.targets[self.next_target % self.targets.len()];
        self.next_target += 1;
        ctx.trace(req.id, ahl_simkit::Phase::Submit);
        ctx.send(target, M::make_request(req));
        ctx.stats().inc("client.submitted", 1);
    }
}

impl<M: ClientProtocol + 'static> Actor for ClosedLoopClient<M> {
    type Msg = M;

    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        for _ in 0..self.window.effective() {
            self.submit_one(ctx);
        }
        ctx.set_timer(self.retry_after, TIMER_RETRY);
    }

    fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        if let Some(id) = msg.reject_id() {
            // Backpressure: the pool refused the request. Honor it — free
            // the in-flight slot, and under AIMD multiplicatively shrink
            // the window (the retry timer re-grows toward it).
            if self.outstanding.remove(&id) {
                ctx.stats().inc(stat::CLIENT_REJECTED, 1);
                self.window.on_reject();
            }
            return;
        }
        let Some(id) = msg.reply_id() else { return };
        if self.outstanding.remove(&id) {
            self.last_progress = ctx.now();
            ctx.stats().inc(stat::CLIENT_COMPLETED, 1);
            self.window.on_success();
            if ctx.now() < self.stop_at && self.outstanding.len() < self.window.effective() {
                self.submit_one(ctx);
            }
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, M>) {
        if kind != TIMER_RETRY || ctx.now() >= self.stop_at {
            return;
        }
        // Nothing completed for a full retry interval: presume the
        // in-flight requests lost (queue drops, a faulty leader, or a pool
        // that dropped them without a rejection signal) and free their
        // window slots so the top-up below actually retransmits work.
        if ctx.now().since(self.last_progress) >= self.retry_after && !self.outstanding.is_empty() {
            self.outstanding.clear();
            ctx.stats().inc("client.retries", 1);
        }
        // Top the window back up — replaces both presumed-lost requests
        // and rejected ones (after a backoff of one retry interval). The
        // budget is the effective window: AIMD keeps it near what the
        // pool admits.
        let budget = self.window.effective();
        if self.outstanding.len() < budget {
            for _ in 0..(budget - self.outstanding.len()) {
                self.submit_one(ctx);
            }
        }
        ctx.set_timer(self.retry_after, TIMER_RETRY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_ledger::Op;
    use ahl_simkit::{QueueConfig, Sim, SimConfig};

    #[derive(Clone, Debug)]
    enum EchoMsg {
        Req(Request),
        Reply(u64),
        Reject(u64),
    }

    impl ClientProtocol for EchoMsg {
        fn make_request(req: Request) -> Self {
            EchoMsg::Req(req)
        }
        fn reply_id(&self) -> Option<u64> {
            match self {
                EchoMsg::Reply(id) => Some(*id),
                _ => None,
            }
        }
        fn reject_id(&self) -> Option<u64> {
            match self {
                EchoMsg::Reject(id) => Some(*id),
                _ => None,
            }
        }
    }

    /// A replica that immediately acknowledges every request.
    struct EchoServer;
    impl Actor for EchoServer {
        type Msg = EchoMsg;
        fn on_message(&mut self, from: NodeId, msg: EchoMsg, ctx: &mut Ctx<'_, EchoMsg>) {
            if let EchoMsg::Req(r) = msg {
                ctx.consume_cpu(SimDuration::from_micros(100));
                ctx.send(from, EchoMsg::Reply(r.id));
            }
        }
    }

    fn noop_factory() -> OpFactory {
        Box::new(|_rng| Op::Noop)
    }

    #[test]
    fn open_loop_sends_at_rate() {
        let mut sim: Sim<EchoMsg> = Sim::new(SimConfig::new(1));
        sim.add_actor(Box::new(EchoServer), QueueConfig::unbounded());
        let client = OpenLoopClient::new(
            vec![0],
            SimDuration::from_millis(10),
            SimTime::ZERO + SimDuration::from_secs(1),
            noop_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let submitted = sim.stats().counter("client.submitted");
        // 1 second at 100/s, ±1 for phase.
        assert!((99..=101).contains(&submitted), "submitted {submitted}");
    }

    #[test]
    fn closed_loop_keeps_window() {
        let mut sim: Sim<EchoMsg> = Sim::new(SimConfig::new(2));
        sim.add_actor(Box::new(EchoServer), QueueConfig::unbounded());
        let client = ClosedLoopClient::new(
            vec![0],
            8,
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_millis(500),
            noop_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let completed = sim.stats().counter(stat::CLIENT_COMPLETED);
        // RTT ≈ 2 ms + 100 µs service; window 8 → ~8 / 2.1 ms ≈ 3800/s.
        assert!(completed > 2_000, "completed {completed}");
        // Submissions track completions + initial window.
        let submitted = sim.stats().counter("client.submitted");
        assert!(submitted >= completed && submitted <= completed + 16);
    }

    /// A server with a hard admission budget: requests beyond `capacity`
    /// in any 100 ms accounting window are rejected — a stand-in for a
    /// full mempool.
    struct CappedServer {
        capacity: u32,
        admitted: u32,
        window_start: SimTime,
    }

    impl Actor for CappedServer {
        type Msg = EchoMsg;
        fn on_message(&mut self, from: NodeId, msg: EchoMsg, ctx: &mut Ctx<'_, EchoMsg>) {
            if let EchoMsg::Req(r) = msg {
                if ctx.now().since(self.window_start) >= SimDuration::from_millis(100) {
                    self.window_start = ctx.now();
                    self.admitted = 0;
                }
                if self.admitted >= self.capacity {
                    ctx.send(from, EchoMsg::Reject(r.id));
                    return;
                }
                self.admitted += 1;
                ctx.consume_cpu(SimDuration::from_micros(200));
                ctx.send(from, EchoMsg::Reply(r.id));
            }
        }
    }

    fn run_capped(rc: RateControl, seed: u64) -> (u64, u64) {
        let mut sim: Sim<EchoMsg> = Sim::new(SimConfig::new(seed));
        let server = CappedServer {
            capacity: 40,
            admitted: 0,
            window_start: SimTime::ZERO,
        };
        sim.add_actor(Box::new(server), QueueConfig::unbounded());
        let client = ClosedLoopClient::new(
            vec![0],
            64, // far above the server's admission budget
            SimTime::ZERO + SimDuration::from_secs(5),
            SimDuration::from_millis(100),
            noop_factory(),
        )
        .with_rate_control(rc);
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));
        (
            sim.stats().counter(stat::CLIENT_COMPLETED),
            sim.stats().counter(stat::CLIENT_REJECTED),
        )
    }

    /// AIMD converges onto the server's admission budget: goodput stays
    /// comparable to the fixed-window driver while rejection churn drops
    /// by a large factor.
    #[test]
    fn aimd_cuts_rejections_without_losing_goodput() {
        let (fixed_done, fixed_rej) = run_capped(RateControl::Fixed, 7);
        let (aimd_done, aimd_rej) = run_capped(RateControl::Aimd, 7);
        assert!(
            fixed_rej > 500,
            "fixed backoff keeps hammering: {fixed_rej}"
        );
        assert!(
            aimd_rej * 4 < fixed_rej,
            "AIMD must cut rejections: {aimd_rej} vs {fixed_rej}"
        );
        assert!(
            aimd_done * 10 >= fixed_done * 8,
            "AIMD goodput within 20% of fixed: {aimd_done} vs {fixed_done}"
        );
    }

    #[test]
    fn closed_loop_retries_when_server_dead() {
        /// A server that drops everything.
        struct BlackHole;
        impl Actor for BlackHole {
            type Msg = EchoMsg;
            fn on_message(&mut self, _f: NodeId, _m: EchoMsg, _c: &mut Ctx<'_, EchoMsg>) {}
        }
        let mut sim: Sim<EchoMsg> = Sim::new(SimConfig::new(3));
        sim.add_actor(Box::new(BlackHole), QueueConfig::unbounded());
        let client = ClosedLoopClient::new(
            vec![0],
            4,
            SimTime::ZERO + SimDuration::from_secs(5),
            SimDuration::from_millis(200),
            noop_factory(),
        );
        sim.add_actor(Box::new(client), QueueConfig::unbounded());
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(sim.stats().counter("client.retries") >= 5);
    }
}
