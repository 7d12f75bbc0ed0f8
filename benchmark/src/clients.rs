//! Benchmark-owned load generators.
//!
//! The shipped `ClosedLoopClient` counts completions but keeps no latency,
//! and the shipped `OpenLoopClient` re-arms a *relative* timer after each
//! send, so its schedule drifts by every handler's run time. These two
//! actors replace them for measurement:
//!
//! * [`WindowClient`] — closed loop: keeps `window` requests outstanding
//!   and logs one raw latency sample per reply.
//! * [`PacedClient`] — open loop: request `k` is *due* at
//!   `start + k × interval` on an absolute schedule; it is sent as soon as
//!   the generator runs at or after that instant, its latency is counted
//!   from the due time, and how late the generator ran is logged.
//!
//! Both run as ordinary [`Actor`]s on a `NodeRuntime`, next to (or across a
//! socket from) the replicas they load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ahl_consensus::pbft::PbftMsg;
use ahl_simkit::{Actor, Ctx, NodeId, SimDuration};

use crate::ops::kv_request;
use crate::stats::Sample;

/// The run's monotonic clock: every sample, slice boundary and due time
/// is a nanosecond offset from one shared origin.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// An open-loop reply later than this after its due time counts as failed:
/// as long as a view change takes (`vc_timeout`), by which time the client
/// of a real deployment would have given up. The leader persists each
/// checkpoint synchronously, and on a shared disk its sync barrier now and
/// then holds everything up for a few hundred milliseconds to a second — a
/// tail the latency figures show, not a lost operation.
pub const LATE_NS: u64 = 2_000_000_000;

/// What a group of clients observed. Shared behind a mutex because the
/// driver reads it while the runtime owns the actors; the lock is
/// uncontended on the hot path (one event-loop thread).
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One entry per reply.
    pub samples: Vec<Sample>,
    /// Operations submitted (a retransmission is not a new operation).
    pub submitted: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Open-loop replies that arrived more than [`LATE_NS`] after due.
    pub late: u64,
    /// Times a client found requests unanswered past the retransmission
    /// timeout and sent them again.
    pub retries: u64,
    /// Open loop: how far behind its due time each request was sent (ns).
    pub lag_ns: Vec<u64>,
}

impl ClientLog {
    /// Replies received.
    pub fn completed(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Requests neither answered nor refused (yet).
    pub fn unanswered(&self) -> u64 {
        self.submitted - self.completed() - self.rejected
    }
}

/// Shared handle to a [`ClientLog`].
pub type SharedLog = Arc<Mutex<ClientLog>>;

/// A fresh empty log.
pub fn new_log() -> SharedLog {
    Arc::new(Mutex::new(ClientLog::default()))
}

/// Start/stop signal from the driver to its load clients: they idle until
/// the gate opens (after warm-up) and stop submitting once it closes.
#[derive(Debug, Default)]
pub struct Gate {
    /// Clock instant (ns) at which load starts; 0 = not yet decided.
    start_ns: AtomicU64,
    stopped: AtomicBool,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Arc<Self> {
        Arc::new(Gate::default())
    }

    /// Open the gate: load starts at clock instant `at_ns` (nonzero).
    pub fn open(&self, at_ns: u64) {
        self.start_ns.store(at_ns.max(1), Ordering::SeqCst);
    }

    /// Stop new submissions.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    fn start(&self) -> Option<u64> {
        match self.start_ns.load(Ordering::SeqCst) {
            0 => None,
            t => Some(t),
        }
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }
}

/// How often a client waiting on a closed [`Gate`] looks again.
const GATE_POLL: SimDuration = SimDuration::from_millis(1);
/// A request unanswered for this long is sent again under a fresh id, as
/// a PBFT client does on its retransmission timeout. The operation keeps
/// its original start instant, so the wait shows up in its latency.
const RESEND_AFTER_NS: u64 = 1_000_000_000;
/// How often a client looks for requests to resend.
const RESEND_SCAN: SimDuration = SimDuration::from_millis(100);

const TIMER_GATE: u64 = 1;
const TIMER_RESEND: u64 = 2;
const TIMER_SEND: u64 = 3;

/// Key source of a client: `None` ends the client's run (warm-up shares
/// are finite, measured streams are not).
pub type Keys = Box<dyn Iterator<Item = u64> + Send>;

/// One operation awaiting its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pending {
    key: u64,
    /// Where its latency counts from: first submission (closed loop) or
    /// due instant (open loop).
    since_ns: u64,
    /// When it was last transmitted.
    sent_ns: u64,
}

/// Operations in flight, by the request id of their latest transmission.
/// A reply to a superseded id finds nothing and is ignored.
#[derive(Default)]
struct InFlight(HashMap<u64, Pending>);

impl InFlight {
    /// Remove and return every operation last transmitted at least
    /// [`RESEND_AFTER_NS`] before `now_ns`.
    fn take_stale(&mut self, now_ns: u64) -> Vec<Pending> {
        let stale: Vec<u64> = self
            .0
            .iter()
            .filter(|(_, p)| now_ns.saturating_sub(p.sent_ns) >= RESEND_AFTER_NS)
            .map(|(id, _)| *id)
            .collect();
        stale.iter().filter_map(|id| self.0.remove(id)).collect()
    }
}

/// Transmit `p` from actor `ctx.id()` to `target` under the next request id.
fn transmit(
    mut p: Pending,
    target: NodeId,
    seq: &mut u32,
    clock: Clock,
    in_flight: &mut InFlight,
    ctx: &mut Ctx<'_, PbftMsg>,
) {
    let req = kv_request(ctx.id(), *seq, p.key, ctx.now());
    *seq = seq.wrapping_add(1);
    p.sent_ns = clock.now_ns();
    in_flight.0.insert(req.id, p);
    ctx.send(target, PbftMsg::Request(req));
}

/// Closed-loop client: `window` requests outstanding against one replica.
pub struct WindowClient {
    target: NodeId,
    window: usize,
    keys: Keys,
    gate: Arc<Gate>,
    clock: Clock,
    log: SharedLog,
    seq: u32,
    in_flight: InFlight,
    /// Operations waiting to be sent again, ahead of anything new.
    resend: Vec<Pending>,
    running: bool,
}

impl WindowClient {
    /// A client that starts when `gate` opens and submits keys from `keys`
    /// until they run out or the gate stops.
    pub fn new(
        target: NodeId,
        window: usize,
        keys: Keys,
        gate: Arc<Gate>,
        clock: Clock,
        log: SharedLog,
    ) -> Self {
        WindowClient {
            target,
            window,
            keys,
            gate,
            clock,
            log,
            seq: 0,
            in_flight: InFlight::default(),
            resend: Vec::new(),
            running: false,
        }
    }

    /// Top the window up: resends first, then — unless the gate has
    /// stopped — new operations.
    fn refill(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let mut fresh = 0;
        while self.in_flight.0.len() < self.window {
            let p = match self.resend.pop() {
                Some(p) => p,
                None if self.gate.stopped() => break,
                None => {
                    let Some(key) = self.keys.next() else { break };
                    fresh += 1;
                    let now = self.clock.now_ns();
                    Pending {
                        key,
                        since_ns: now,
                        sent_ns: now,
                    }
                }
            };
            transmit(
                p,
                self.target,
                &mut self.seq,
                self.clock,
                &mut self.in_flight,
                ctx,
            );
        }
        if fresh > 0 {
            self.log.lock().expect("client log").submitted += fresh;
        }
    }

    fn try_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        match self.gate.start() {
            Some(at) if self.clock.now_ns() >= at => {
                self.running = true;
                self.refill(ctx);
                ctx.set_timer(RESEND_SCAN, TIMER_RESEND);
            }
            _ => ctx.set_timer(GATE_POLL, TIMER_GATE),
        }
    }
}

impl Actor for WindowClient {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        self.try_start(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: PbftMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        match msg {
            PbftMsg::Reply { req_id, .. } => {
                let Some(p) = self.in_flight.0.remove(&req_id) else {
                    return;
                };
                let now = self.clock.now_ns();
                self.log.lock().expect("client log").samples.push(Sample {
                    done_ns: now,
                    latency_ns: now - p.since_ns,
                });
                self.refill(ctx);
            }
            // Backpressure: the slot stays empty until the next scan, so a
            // full pool is not hammered.
            PbftMsg::Rejected { req_id } if self.in_flight.0.remove(&req_id).is_some() => {
                self.log.lock().expect("client log").rejected += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        match kind {
            TIMER_GATE if !self.running => self.try_start(ctx),
            TIMER_RESEND => {
                let stale = self.in_flight.take_stale(self.clock.now_ns());
                if !stale.is_empty() {
                    self.log.lock().expect("client log").retries += 1;
                    self.resend.extend(stale);
                }
                self.refill(ctx);
                if !(self.gate.stopped() && self.in_flight.0.is_empty()) {
                    ctx.set_timer(RESEND_SCAN, TIMER_RESEND);
                }
            }
            _ => {}
        }
    }
}

/// Open-loop client on an absolute schedule.
pub struct PacedClient {
    target: NodeId,
    interval_ns: u64,
    /// Offset of this client's schedule inside one interval, so several
    /// clients interleave instead of sending in lock step.
    phase_ns: u64,
    keys: Keys,
    gate: Arc<Gate>,
    clock: Clock,
    log: SharedLog,
    seq: u32,
    /// Index of the next request on the schedule.
    next_k: u64,
    in_flight: InFlight,
    last_scan_ns: u64,
}

impl PacedClient {
    /// A client sending `rate` requests per second from `gate`'s start
    /// instant on. `phase` in `[0, 1)` shifts its schedule by that share
    /// of one interval.
    pub fn new(
        target: NodeId,
        rate: f64,
        phase: f64,
        keys: Keys,
        gate: Arc<Gate>,
        clock: Clock,
        log: SharedLog,
    ) -> Self {
        let interval_ns = (1e9 / rate).round() as u64;
        PacedClient {
            target,
            interval_ns,
            phase_ns: (phase * interval_ns as f64) as u64,
            keys,
            gate,
            clock,
            log,
            seq: 0,
            next_k: 0,
            in_flight: InFlight::default(),
            last_scan_ns: 0,
        }
    }

    /// Due time of request `k` given the schedule origin.
    pub fn due_ns(&self, start_ns: u64, k: u64) -> u64 {
        start_ns + self.phase_ns + k * self.interval_ns
    }

    /// Send again whatever has gone unanswered too long (looked for once
    /// per [`RESEND_SCAN`]).
    fn resend_stale(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let now = self.clock.now_ns();
        if now.saturating_sub(self.last_scan_ns) < RESEND_SCAN.as_nanos() {
            return;
        }
        self.last_scan_ns = now;
        let stale = self.in_flight.take_stale(now);
        if stale.is_empty() {
            return;
        }
        self.log.lock().expect("client log").retries += 1;
        for p in stale {
            transmit(
                p,
                self.target,
                &mut self.seq,
                self.clock,
                &mut self.in_flight,
                ctx,
            );
        }
    }

    /// Send everything that is due, then sleep until the next due time.
    /// Once the gate has stopped only resends go out, until every
    /// operation is answered.
    fn pump(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let Some(start) = self.gate.start() else {
            ctx.set_timer(GATE_POLL, TIMER_GATE);
            return;
        };
        self.resend_stale(ctx);
        if self.gate.stopped() {
            if !self.in_flight.0.is_empty() {
                ctx.set_timer(RESEND_SCAN, TIMER_SEND);
            }
            return;
        }
        let now = self.clock.now_ns();
        let mut lags = Vec::new();
        while self.due_ns(start, self.next_k) <= now {
            let Some(key) = self.keys.next() else { return };
            let due = self.due_ns(start, self.next_k);
            self.next_k += 1;
            let p = Pending {
                key,
                since_ns: due,
                sent_ns: now,
            };
            transmit(
                p,
                self.target,
                &mut self.seq,
                self.clock,
                &mut self.in_flight,
                ctx,
            );
            lags.push(now - due);
        }
        if !lags.is_empty() {
            let mut log = self.log.lock().expect("client log");
            log.submitted += lags.len() as u64;
            log.lag_ns.extend(lags);
        }
        let wait = self
            .due_ns(start, self.next_k)
            .saturating_sub(self.clock.now_ns());
        ctx.set_timer(SimDuration::from_nanos(wait), TIMER_SEND);
    }
}

impl Actor for PacedClient {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: PbftMsg, _ctx: &mut Ctx<'_, PbftMsg>) {
        match msg {
            PbftMsg::Reply { req_id, .. } => {
                let Some(p) = self.in_flight.0.remove(&req_id) else {
                    return;
                };
                let now = self.clock.now_ns();
                let latency_ns = now.saturating_sub(p.since_ns);
                let mut log = self.log.lock().expect("client log");
                log.samples.push(Sample {
                    done_ns: now,
                    latency_ns,
                });
                if latency_ns > LATE_NS {
                    log.late += 1;
                }
            }
            PbftMsg::Rejected { req_id } if self.in_flight.0.remove(&req_id).is_some() => {
                self.log.lock().expect("client log").rejected += 1;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        if kind == TIMER_GATE || kind == TIMER_SEND {
            self.pump(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::KeyStream;

    #[test]
    fn schedule_is_absolute_not_relative() {
        let c = PacedClient::new(
            0,
            4000.0,
            0.5,
            Box::new(KeyStream::new(1, 0)),
            Gate::new(),
            Clock::start(),
            new_log(),
        );
        assert_eq!(c.interval_ns, 250_000);
        // Request k is due at start + phase + k × interval regardless of
        // when earlier requests were actually sent.
        assert_eq!(c.due_ns(1_000, 0), 1_000 + 125_000);
        assert_eq!(c.due_ns(1_000, 4000), 1_000 + 125_000 + 1_000_000_000);
    }

    #[test]
    fn only_requests_past_the_timeout_are_resent() {
        let mut f = InFlight::default();
        let p = |sent_ns| Pending {
            key: sent_ns,
            since_ns: 0,
            sent_ns,
        };
        f.0.insert(1, p(0));
        f.0.insert(2, p(RESEND_AFTER_NS / 2));
        let stale = f.take_stale(RESEND_AFTER_NS);
        assert_eq!(stale, vec![p(0)]);
        assert_eq!(f.0.len(), 1, "the younger request stays in flight");
        assert!(f.take_stale(RESEND_AFTER_NS).is_empty());
    }

    #[test]
    fn gate_opens_once_and_stops() {
        let g = Gate::new();
        assert_eq!(g.start(), None);
        g.open(0);
        assert_eq!(g.start(), Some(1), "zero is reserved for 'closed'");
        g.open(77);
        assert_eq!(g.start(), Some(77));
        assert!(!g.stopped());
        g.stop();
        assert!(g.stopped());
    }

    #[test]
    fn log_accounts_for_every_request() {
        let mut log = ClientLog {
            submitted: 10,
            rejected: 2,
            ..ClientLog::default()
        };
        log.samples.extend((0..5).map(|i| Sample {
            done_ns: i,
            latency_ns: 1,
        }));
        assert_eq!(log.completed(), 5);
        assert_eq!(log.unanswered(), 3);
    }
}
