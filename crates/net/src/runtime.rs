//! [`NodeRuntime`] — drives unmodified simkit [`Actor`]s over a real
//! [`Transport`].
//!
//! The runtime is the deployment-side implementation of the simulator's
//! event loop: it owns one or more local actors (a replica, or a fleet of
//! clients in a driver process), delivers inbound transport packets to
//! `on_message`, fires `on_timer` callbacks from a wall-clock timer heap,
//! and routes every `Ctx::send` either to another local actor (loopback)
//! or out through the transport. Actors observe the environment only
//! through [`Ctx`], whose [`ahl_simkit::Host`] backend this module
//! provides — so the exact code the deterministic simulator exercises
//! runs here unmodified.
//!
//! Sends to other processes leave once per drained batch. The loop runs
//! loopback deliveries, due timers and the inbound events it drained from
//! the transport ([`Transport::recv_all`]) until none is left, holding
//! every send those callbacks produce; only then, before it waits for
//! more, does it hand them to the transport in one
//! [`Transport::send_all`]. Nothing waits on a timer to coalesce, and
//! `run_for` flushes before it returns, so outside it nothing is held.
//! A leader answering a 64-request block thus pays one queue lock and one
//! sender wake for its 64 replies, not 64.
//!
//! Time is wall-clock nanoseconds since the UNIX epoch encoded as
//! [`SimTime`]: monotone enough for timers, and comparable across
//! processes on one host, which keeps request-TTL and latency math
//! working in a localhost cluster.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::cmp::Reverse;
use std::time::Duration;

use ahl_crypto::Hash;
use ahl_simkit::rng::derive_seed;
use ahl_simkit::{Actor, Ctx, Host, NodeId, SimDuration, SimTime, Stats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::transport::{NetEvent, Outgoing, Transport};
use crate::wire::{Control, Packet};

/// Wall-clock now as a [`SimTime`] (nanoseconds since the UNIX epoch).
pub fn wall_now() -> SimTime {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before UNIX epoch")
        .as_nanos() as u64;
    SimTime::ZERO + SimDuration::from_nanos(nanos)
}

/// Answer to a [`Control::Status`] probe, extracted from a local actor by
/// the status hook ([`NodeRuntime::set_status_fn`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusReport {
    /// Highest executed sequence/height.
    pub height: u64,
    /// State digest at that height.
    pub digest: Hash,
    /// Transactions committed so far.
    pub committed: u64,
}

type StatusFn<M> = Box<dyn FnMut(&dyn Actor<Msg = M>) -> Option<StatusReport>>;

/// [`Host`] state shared with actors through `Ctx::for_host`.
struct HostCore {
    num_nodes: usize,
    master_seed: u64,
    stats: Stats,
    rngs: HashMap<NodeId, SmallRng>,
    /// Timers requested during the current callback; the runtime drains
    /// them into its heap after the callback returns.
    pending_timers: Vec<(NodeId, SimDuration, u64)>,
    halted: bool,
}

impl Host for HostCore {
    fn now(&self) -> SimTime {
        wall_now()
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn set_timer(&mut self, node: NodeId, delay: SimDuration, kind: u64) {
        self.pending_timers.push((node, delay, kind));
    }

    fn rng(&mut self, node: NodeId) -> &mut SmallRng {
        let seed = derive_seed(self.master_seed, node as u64);
        self.rngs.entry(node).or_insert_with(|| SmallRng::seed_from_u64(seed))
    }

    fn stats(&mut self) -> &mut Stats {
        &mut self.stats
    }

    fn halt(&mut self) {
        self.halted = true;
    }
}

/// Heap entry ordered by (fire time, insertion sequence).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    node: NodeId,
    kind: u64,
}

/// Why [`NodeRuntime::run_for`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stopped {
    /// The wall-clock budget elapsed.
    Deadline,
    /// An actor called `Ctx::halt` or a [`Control::Shutdown`] arrived.
    Halted,
}

/// The real-node event loop: local actors + a transport + a timer heap.
pub struct NodeRuntime<M: Clone> {
    transport: Box<dyn Transport<M>>,
    actors: BTreeMap<NodeId, Box<dyn Actor<Msg = M>>>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    core: HostCore,
    /// Loopback deliveries between local actors, drained before any
    /// transport receive (matches the simulator's same-instant ordering
    /// closely enough for correctness — actors tolerate reordering).
    local_queue: VecDeque<(NodeId, NodeId, M)>,
    /// Inbound events drained from the transport in one go, delivered one
    /// per loop turn.
    inbound: VecDeque<NetEvent<M>>,
    /// Sends to other processes, held until the drained batch is done.
    outbox: Vec<Outgoing<M>>,
    status_fn: Option<StatusFn<M>>,
    status_replies: HashMap<NodeId, StatusReport>,
    started: bool,
}

impl<M: Clone + 'static> NodeRuntime<M> {
    /// Build a runtime over `transport`. `num_nodes` is the cluster-wide
    /// actor count (what `Ctx::num_nodes` reports); `seed` derives the
    /// per-actor RNG streams exactly as the simulator does.
    pub fn new(transport: Box<dyn Transport<M>>, num_nodes: usize, seed: u64) -> Self {
        NodeRuntime {
            transport,
            actors: BTreeMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            core: HostCore {
                num_nodes,
                master_seed: seed,
                stats: Stats::new(),
                rngs: HashMap::new(),
                pending_timers: Vec::new(),
                halted: false,
            },
            local_queue: VecDeque::new(),
            inbound: VecDeque::new(),
            outbox: Vec::new(),
            status_fn: None,
            status_replies: HashMap::new(),
            started: false,
        }
    }

    /// Host actor `id` in this process.
    pub fn add_actor(&mut self, id: NodeId, actor: Box<dyn Actor<Msg = M>>) {
        self.actors.insert(id, actor);
    }

    /// Install the hook answering [`Control::Status`] probes (typically a
    /// downcast through [`Actor::as_any`] to the concrete replica type).
    pub fn set_status_fn(&mut self, f: StatusFn<M>) {
        self.status_fn = Some(f);
    }

    /// The lowest-numbered local actor id (this process's identity on the
    /// control plane).
    pub fn primary(&self) -> Option<NodeId> {
        self.actors.keys().next().copied()
    }

    /// Immutable access to a hosted actor (post-run inspection).
    pub fn actor(&self, id: NodeId) -> Option<&dyn Actor<Msg = M>> {
        self.actors.get(&id).map(|a| a.as_ref())
    }

    /// The runtime's statistics store (actors record into it via
    /// `Ctx::stats`, exactly as in the simulator).
    pub fn stats(&self) -> &Stats {
        &self.core.stats
    }

    /// Transport backend (for counter snapshots).
    pub fn transport(&self) -> &dyn Transport<M> {
        self.transport.as_ref()
    }

    /// Status replies received so far, keyed by the reporting process's
    /// primary node id.
    pub fn status_replies(&self) -> &HashMap<NodeId, StatusReport> {
        &self.status_replies
    }

    /// Forget previously collected status replies.
    pub fn clear_status_replies(&mut self) {
        self.status_replies.clear();
    }

    /// Send a control message from this process's primary actor id (at
    /// once: outside `run_for` no send is held back).
    pub fn send_control(&mut self, to: NodeId, ctl: Control) {
        let from = self.primary().unwrap_or(0);
        self.transport.send(from, to, Packet::Control(ctl));
    }

    /// True once an actor halted or a shutdown was received.
    pub fn halted(&self) -> bool {
        self.core.halted
    }

    /// Run each actor's `on_start` once (idempotent).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let ids: Vec<NodeId> = self.actors.keys().copied().collect();
        for id in ids {
            self.dispatch(id, |actor, ctx| actor.on_start(ctx));
        }
        self.flush();
    }

    /// Pump the event loop for `budget` of wall-clock time (or until
    /// halted). Calls [`NodeRuntime::start`] first if needed.
    pub fn run_for(&mut self, budget: Duration) -> Stopped {
        self.start();
        let deadline = std::time::Instant::now() + budget;
        loop {
            if self.core.halted {
                self.flush();
                return Stopped::Halted;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                self.flush();
                return Stopped::Deadline;
            }

            // Local loopback deliveries first.
            if let Some((from, to, msg)) = self.local_queue.pop_front() {
                self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
                continue;
            }

            // Fire due timers.
            let wall = wall_now();
            if let Some(Reverse(top)) = self.timers.peek() {
                if top.at <= wall {
                    let Reverse(t) = self.timers.pop().expect("peeked");
                    if self.actors.contains_key(&t.node) {
                        self.dispatch(t.node, |actor, ctx| actor.on_timer(t.kind, ctx));
                    }
                    continue;
                }
            }

            // Then the next event of the drained batch.
            if let Some(ev) = self.inbound.pop_front() {
                match ev {
                    NetEvent::Packet { from, to, body } => self.deliver(from, to, body),
                    NetEvent::PeerUp(_) => self.core.stats.inc("net.peer_up", 1),
                    NetEvent::PeerDown(_) => self.core.stats.inc("net.peer_down", 1),
                }
                continue;
            }

            // Nothing local, due or inbound is left: the batch is done, so
            // its sends go out before the loop waits for more.
            self.flush();

            // Sleep until the next timer, capped for responsiveness.
            let until_timer = match self.timers.peek() {
                Some(Reverse(t)) => Duration::from_nanos(t.at.since(wall).as_nanos()),
                None => Duration::from_millis(50),
            };
            let wait = until_timer.min(deadline - now).min(Duration::from_millis(50));
            self.transport.recv_all(wait, &mut self.inbound);
        }
    }

    /// Hand every held send to the transport at once.
    fn flush(&mut self) {
        if !self.outbox.is_empty() {
            self.transport.send_all(&mut self.outbox);
        }
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, body: Packet<M>) {
        match body {
            Packet::App(msg) => {
                if self.actors.contains_key(&to) {
                    self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
                } else {
                    self.core.stats.inc("net.misrouted", 1);
                }
            }
            Packet::Control(ctl) => self.handle_control(from, ctl),
        }
    }

    fn handle_control(&mut self, from: NodeId, ctl: Control) {
        match ctl {
            Control::Status => {
                let Some(primary) = self.primary() else { return };
                let report = self
                    .status_fn
                    .as_mut()
                    .and_then(|f| self.actors.get(&primary).and_then(|a| f(a.as_ref())));
                if let Some(r) = report {
                    self.outbox.push((
                        primary,
                        from,
                        Packet::Control(Control::StatusReply {
                            height: r.height,
                            digest: r.digest,
                            committed: r.committed,
                        }),
                    ));
                }
            }
            Control::StatusReply { height, digest, committed } => {
                self.status_replies.insert(from, StatusReport { height, digest, committed });
            }
            Control::Shutdown => {
                self.core.halted = true;
            }
        }
    }

    /// Run one actor callback, then route its outbox (loopback now, the
    /// rest held for the batch's flush) and arm its timers.
    fn dispatch(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Box<dyn Actor<Msg = M>>, &mut Ctx<'_, M>),
    ) {
        let Some(mut actor) = self.actors.remove(&node) else { return };
        let mut ctx = Ctx::for_host(&mut self.core, node);
        f(&mut actor, &mut ctx);
        let (_cpu, outbox) = ctx.finish();
        self.actors.insert(node, actor);
        for (to, msg) in outbox {
            if self.actors.contains_key(&to) {
                self.local_queue.push_back((node, to, msg));
            } else {
                self.outbox.push((node, to, Packet::App(msg)));
            }
        }
        for (n, delay, kind) in std::mem::take(&mut self.core.pending_timers) {
            let at = wall_now() + delay;
            let seq = self.timer_seq;
            self.timer_seq += 1;
            self.timers.push(Reverse(TimerEntry { at, seq, node: n, kind }));
        }
    }

    /// Shut the transport down (joins its threads).
    pub fn shutdown_transport(&self) {
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemHub;
    use crate::wire::Wire;
    use ahl_wal::codec::{Reader, Writer};
    use std::sync::Arc;

    #[derive(Clone, Debug, PartialEq)]
    struct Echo(u64);

    impl Wire for Echo {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.0);
        }
        fn decode(r: &mut Reader<'_>) -> Option<Self> {
            r.u64().map(Echo)
        }
    }

    /// Replies to every message, adding one; counts into stats.
    struct Bouncer;

    impl Actor for Bouncer {
        type Msg = Echo;
        fn on_message(&mut self, from: NodeId, msg: Echo, ctx: &mut Ctx<'_, Echo>) {
            ctx.stats().inc("bounced", 1);
            if msg.0 < 5 {
                ctx.send(from, Echo(msg.0 + 1));
            } else {
                ctx.halt();
            }
        }
    }

    struct Kickoff {
        peer: NodeId,
    }

    impl Actor for Kickoff {
        type Msg = Echo;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Echo>) {
            ctx.send(self.peer, Echo(0));
        }
        fn on_message(&mut self, from: NodeId, msg: Echo, ctx: &mut Ctx<'_, Echo>) {
            ctx.send(from, msg);
        }
    }

    #[test]
    fn runtime_ping_pong_over_mem_transport() {
        let hub: Arc<MemHub<Echo>> = Arc::new(MemHub::new());
        let mut a = NodeRuntime::new(Box::new(hub.endpoint(vec![0])), 2, 1);
        let mut b = NodeRuntime::new(Box::new(hub.endpoint(vec![1])), 2, 1);
        a.add_actor(0, Box::new(Kickoff { peer: 1 }));
        b.add_actor(1, Box::new(Bouncer));
        a.start();
        // Pump both runtimes until the bouncer halts.
        for _ in 0..100 {
            a.run_for(Duration::from_millis(10));
            if b.run_for(Duration::from_millis(10)) == Stopped::Halted {
                break;
            }
        }
        assert!(b.halted());
        assert_eq!(b.stats().counter("bounced"), 6, "0..=5 inclusive");
    }

    #[test]
    fn local_actors_loop_back_without_transport() {
        let hub: Arc<MemHub<Echo>> = Arc::new(MemHub::new());
        let mut rt = NodeRuntime::new(Box::new(hub.endpoint(vec![0, 1])), 2, 1);
        rt.add_actor(0, Box::new(Kickoff { peer: 1 }));
        rt.add_actor(1, Box::new(Bouncer));
        rt.run_for(Duration::from_millis(200));
        assert!(rt.halted());
        // Nothing crossed the transport: sends were loopback.
        assert_eq!(rt.transport().stats().sent, 0);
    }

    struct TimerCounter;

    impl Actor for TimerCounter {
        type Msg = Echo;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Echo>) {
            ctx.set_timer(SimDuration::from_millis(5), 7);
        }
        fn on_message(&mut self, _f: NodeId, _m: Echo, _c: &mut Ctx<'_, Echo>) {}
        fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, Echo>) {
            ctx.stats().inc("fired", kind);
            if ctx.stats().counter("fired") < 21 {
                ctx.set_timer(SimDuration::from_millis(2), 7);
            }
        }
    }

    #[test]
    fn timers_fire_on_wall_clock() {
        let hub: Arc<MemHub<Echo>> = Arc::new(MemHub::new());
        let mut rt = NodeRuntime::new(Box::new(hub.endpoint(vec![0])), 1, 3);
        rt.add_actor(0, Box::new(TimerCounter));
        rt.run_for(Duration::from_millis(500));
        assert!(rt.stats().counter("fired") >= 21);
    }

    #[test]
    fn control_status_round_trip() {
        let hub: Arc<MemHub<Echo>> = Arc::new(MemHub::new());
        let mut node = NodeRuntime::new(Box::new(hub.endpoint(vec![0])), 2, 1);
        let mut driver = NodeRuntime::new(Box::new(hub.endpoint(vec![9])), 2, 1);
        node.add_actor(0, Box::new(Bouncer));
        node.set_status_fn(Box::new(|_| {
            Some(StatusReport { height: 11, digest: ahl_crypto::sha256(b"d"), committed: 40 })
        }));
        driver.add_actor(9, Box::new(Bouncer));
        driver.send_control(0, Control::Status);
        node.run_for(Duration::from_millis(50));
        driver.run_for(Duration::from_millis(50));
        let r = driver.status_replies().get(&0).expect("reply recorded");
        assert_eq!(r.height, 11);
        assert_eq!(r.committed, 40);
        // Shutdown control halts the node's loop.
        driver.send_control(0, Control::Shutdown);
        assert_eq!(node.run_for(Duration::from_millis(200)), Stopped::Halted);
    }

    /// A [`MemTransport`] that records the size of every `send_all` batch.
    struct Batches {
        inner: crate::transport::MemTransport<Echo>,
        sizes: Arc<std::sync::Mutex<Vec<usize>>>,
    }

    impl Transport<Echo> for Batches {
        fn send(&self, from: NodeId, to: NodeId, body: Packet<Echo>) {
            self.sizes.lock().expect("sizes").push(1);
            self.inner.send(from, to, body);
        }
        fn send_all(&self, batch: &mut Vec<Outgoing<Echo>>) {
            self.sizes.lock().expect("sizes").push(batch.len());
            for (from, to, body) in batch.drain(..) {
                self.inner.send(from, to, body);
            }
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<Echo>> {
            self.inner.recv_timeout(timeout)
        }
        fn known_nodes(&self) -> Vec<NodeId> {
            self.inner.known_nodes()
        }
        fn stats(&self) -> crate::transport::TransportStats {
            self.inner.stats()
        }
        fn shutdown(&self) {}
    }

    /// Answers each message with 64 messages to node 2.
    struct Fanout;

    impl Actor for Fanout {
        type Msg = Echo;
        fn on_message(&mut self, _from: NodeId, msg: Echo, ctx: &mut Ctx<'_, Echo>) {
            for i in 0..64 {
                ctx.send(2, Echo(msg.0 * 100 + i));
            }
        }
    }

    #[test]
    fn sends_leave_once_per_drained_batch() {
        let hub: Arc<MemHub<Echo>> = Arc::new(MemHub::new());
        let client = hub.endpoint(vec![0]);
        let sink = hub.endpoint(vec![2]);
        let sizes = Arc::new(std::sync::Mutex::new(Vec::new()));
        let t = Batches { inner: hub.endpoint(vec![1]), sizes: sizes.clone() };
        let mut rt = NodeRuntime::new(Box::new(t), 3, 1);
        rt.add_actor(1, Box::new(Fanout));
        client.send(0, 1, Packet::App(Echo(1)));
        client.send(0, 1, Packet::App(Echo(2)));
        rt.run_for(Duration::from_millis(100));
        // The default `recv_all` drains one event per wake, so each inbound
        // message is its own batch: 64 sends, one hand-off each.
        assert_eq!(*sizes.lock().expect("sizes"), vec![64, 64]);
        let mut got = Vec::new();
        while let Some(NetEvent::Packet { body: Packet::App(Echo(n)), .. }) =
            sink.recv_timeout(Duration::from_millis(10))
        {
            got.push(n);
        }
        let want: Vec<u64> = (100..164).chain(200..264).collect();
        assert_eq!(got, want, "FIFO across the flush");
    }
}
