//! The discrete-event simulation engine.
//!
//! A simulation is a set of [`Actor`]s (consensus replicas, clients, beacon
//! participants, ...) exchanging messages through a [`Network`] model. The
//! engine provides the three resources whose contention the paper's
//! evaluation measures:
//!
//! * **CPU** — each node is a single-threaded server. Handling a message
//!   starts no earlier than the node's `busy_until` and advances it by the
//!   CPU cost the handler declares via [`Ctx::consume_cpu`] (e.g. the
//!   Table 2 enclave-operation latencies). This is what makes O(N²)
//!   communication visible as a throughput collapse.
//! * **Network** — the [`Network`] implementation maps every send to a
//!   delivery latency (or a drop), modelling LAN/WAN topologies.
//! * **Queues** — each node has bounded inbound queues keyed by
//!   [`MsgClass`]. Hyperledger v0.6 uses one shared queue for consensus and
//!   request traffic; the paper's optimization 1 splits them. Overflowing
//!   queues drop messages, which is precisely the livelock mechanism the
//!   paper observed.
//!
//! Scheduling: pending events sit in one binary heap ordered by
//! `(time, seq)`, where `seq` is the order they were scheduled in, so ties
//! resolve the same way in every run. The heap holds only 32-byte keys
//! (`time`, `seq`, node, and a handle). A delivery's payload — sender,
//! message and class — is parked in a slab slot that the key's handle
//! names; popping the delivery takes the payload out and frees the slot,
//! whether the receiver's queue then accepts or drops the message. A sift
//! therefore never moves a message, however large `M` is, and the slab
//! never holds more slots than deliveries were in flight at once.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::{Interpose, Verdict};
use crate::rng::derive_seed;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};

/// Index of a node (actor) in the simulation.
pub type NodeId = usize;

/// Classification of a message for queueing purposes.
///
/// The engine routes each inbound message to one of the node's queues based
/// on its class; see [`QueueConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MsgClass(pub u8);

impl MsgClass {
    /// Consensus-protocol messages (pre-prepare/prepare/commit/view-change...).
    pub const CONSENSUS: MsgClass = MsgClass(0);
    /// Client request messages.
    pub const REQUEST: MsgClass = MsgClass(1);
}

/// How a node's inbound queues are organised.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Capacity of each queue. `route` indexes into this vector.
    pub capacities: Vec<usize>,
    /// Maps a message class to a queue index.
    pub route: fn(MsgClass) -> usize,
    /// Served round-robin across queues (true) or strictly by queue index
    /// priority (false).
    pub round_robin: bool,
}

fn route_shared(_c: MsgClass) -> usize {
    0
}

fn route_split(c: MsgClass) -> usize {
    if c == MsgClass::CONSENSUS {
        0
    } else {
        1
    }
}

impl QueueConfig {
    /// One shared bounded queue for all traffic — Hyperledger v0.6 behaviour
    /// ("HL" and "AHL" in the paper).
    pub fn shared(capacity: usize) -> Self {
        QueueConfig {
            capacities: vec![capacity],
            route: route_shared,
            round_robin: true,
        }
    }

    /// Separate consensus/request channels — the paper's optimization 1
    /// ("AHL+"). Queue 0 carries consensus traffic, queue 1 requests.
    pub fn split(consensus_capacity: usize, request_capacity: usize) -> Self {
        QueueConfig {
            capacities: vec![consensus_capacity, request_capacity],
            route: route_split,
            round_robin: true,
        }
    }

    /// Effectively unbounded single queue (for protocols where queueing is
    /// not the phenomenon under study, e.g. the beacon or PoET experiments).
    pub fn unbounded() -> Self {
        QueueConfig::shared(usize::MAX)
    }
}

/// Network model: decides latency (or drop) for each message.
pub trait Network {
    /// Latency from `from` to `to` for a message of `bytes` size sent at
    /// `now`, or `None` if the message is lost in transit.
    fn transit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<SimDuration>;
}

/// A zero-configuration network with one fixed latency for every link.
#[derive(Clone, Debug)]
pub struct UniformNetwork {
    /// One-way delay applied to every message.
    pub latency: SimDuration,
}

impl UniformNetwork {
    /// Create a uniform network with the given one-way latency.
    pub fn new(latency: SimDuration) -> Self {
        UniformNetwork { latency }
    }
}

impl Network for UniformNetwork {
    fn transit(
        &mut self,
        _from: NodeId,
        _to: NodeId,
        _bytes: usize,
        _now: SimTime,
        _rng: &mut SmallRng,
    ) -> Option<SimDuration> {
        Some(self.latency)
    }
}

/// A simulation actor: one logical node (replica, client, enclave host...).
pub trait Actor {
    /// The message type exchanged in this simulation.
    type Msg: Clone;

    /// Called once at simulation start (time zero) before any deliveries.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Handle a message delivered from `from`.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Handle a timer previously set with [`Ctx::set_timer`]. `kind` is the
    /// caller-chosen discriminant.
    fn on_timer(&mut self, _kind: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Opt-in downcasting hook for post-run inspection (override with
    /// `Some(self)` to allow harnesses to read actor state after a run).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable counterpart of [`Actor::as_any`] (for fault injection).
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// What a popped event asks of its node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EventKind {
    /// Enqueue the delivery parked in slab slot `handle`.
    Deliver,
    /// Serve the node's next queued message.
    ProcessNext,
    /// Call `on_timer(handle)`.
    Timer,
}

/// One scheduled event as the heap holds it: its key and a handle, never
/// the message. A delivery's `(from, msg, class)` waits in the kernel's
/// [`Parked`] slab, so a sift moves these 32 bytes whatever the size of
/// `M`. Pop order is `(time, seq)`, and `seq` is unique.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    node: u32,
    kind: EventKind,
    /// The parked slot of a `Deliver`, the caller's kind of a `Timer`.
    handle: u64,
}

const _: () = assert!(std::mem::size_of::<Event>() == 32);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduled deliveries' payloads, in slots that a popped delivery frees
/// for the next one (last freed, first reused). The slab holds at most as
/// many slots as deliveries were ever in flight at once.
struct Parked<M> {
    slots: Vec<Option<(NodeId, M, MsgClass)>>,
    free: Vec<usize>,
}

impl<M> Parked<M> {
    fn park(&mut self, delivery: (NodeId, M, MsgClass)) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(delivery);
                slot as u64
            }
            None => {
                self.slots.push(Some(delivery));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn take(&mut self, handle: u64) -> (NodeId, M, MsgClass) {
        let slot = handle as usize;
        let delivery = self.slots[slot]
            .take()
            .expect("event names a parked delivery");
        self.free.push(slot);
        delivery
    }
}

struct NodeRt<M> {
    queues: Vec<VecDeque<(NodeId, M)>>,
    queue_cfg: QueueConfig,
    busy_until: SimTime,
    processing_scheduled: bool,
    rr_cursor: usize,
    rng: SmallRng,
}

impl<M> NodeRt<M> {
    fn total_queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Pop the next message respecting the service discipline.
    fn pop_next(&mut self) -> Option<(NodeId, M)> {
        let n = self.queues.len();
        if self.queue_cfg.round_robin {
            for i in 0..n {
                let q = (self.rr_cursor + i) % n;
                if let Some(item) = self.queues[q].pop_front() {
                    self.rr_cursor = (q + 1) % n;
                    return Some(item);
                }
            }
            None
        } else {
            self.queues.iter_mut().find_map(VecDeque::pop_front)
        }
    }
}

/// The engine internals shared with actors through [`Ctx`].
struct Kernel<M> {
    now: SimTime,
    master_seed: u64,
    next_seq: u64,
    events: BinaryHeap<Event>,
    parked: Parked<M>,
    nodes: Vec<NodeRt<M>>,
    network: Box<dyn Network>,
    /// Adversarial interposition hook consulted before the network model
    /// (drop/delay/duplicate, scripted partitions). `None` = honest bus.
    interposer: Option<Box<dyn Interpose<M>>>,
    net_rng: SmallRng,
    classify: fn(&M) -> MsgClass,
    size_of: fn(&M) -> usize,
    /// Sender uplink bandwidth in bits/s; `None` = infinite. Each outgoing
    /// message occupies the sender's uplink for `bytes * 8 / uplink_bps`,
    /// delaying both later messages and the node's next processing step.
    /// This is what makes an N-way broadcast of large messages expensive
    /// *for the sender* — the mechanism behind the paper's optimization 2.
    uplink_bps: Option<f64>,
    stats: Stats,
    halted: bool,
    events_processed: u64,
    /// Safety valve: abort runs that exceed this many events.
    max_events: u64,
}

impl<M: Clone> Kernel<M> {
    fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind, handle: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event {
            time,
            seq,
            node: u32::try_from(node).expect("node ids fit an event's u32"),
            kind,
            handle,
        });
    }

    /// Schedule the delivery of `msg` from `from` to `to` at `time`.
    fn push_delivery(&mut self, time: SimTime, from: NodeId, to: NodeId, msg: M) {
        let class = (self.classify)(&msg);
        let handle = self.parked.park((from, msg, class));
        self.push(time, to, EventKind::Deliver, handle);
    }

    /// Dispatch an outbox: messages depart sequentially, each occupying the
    /// sender's uplink for its serialization time. Returns the time the last
    /// byte left the node.
    fn flush_outbox(&mut self, from: NodeId, outbox: Vec<(NodeId, M)>, start: SimTime) -> SimTime {
        let mut depart = start;
        for (to, msg) in outbox {
            if let Some(bw) = self.uplink_bps {
                let bytes = (self.size_of)(&msg);
                depart += SimDuration::from_secs_f64(bytes as f64 * 8.0 / bw);
            }
            self.send(from, to, msg, depart);
        }
        depart
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M, depart: SimTime) {
        let verdict = match self.interposer.as_mut() {
            Some(hook) => hook.intercept(from, to, &msg, depart, &mut self.net_rng),
            None => Verdict::Deliver,
        };
        match verdict {
            Verdict::Deliver => self.transmit(from, to, msg, depart, SimDuration::ZERO),
            Verdict::Drop => {
                self.stats.inc("adv.dropped", 1);
            }
            Verdict::Delay(extra) => {
                self.stats.inc("adv.delayed", 1);
                self.transmit(from, to, msg, depart, extra);
            }
            Verdict::Duplicate { copies, gap } => {
                self.stats.inc("adv.duplicated", copies as u64);
                for i in 0..=copies {
                    let extra = SimDuration::from_nanos(gap.as_nanos().saturating_mul(i as u64));
                    self.transmit(from, to, msg.clone(), depart, extra);
                }
            }
        }
    }

    /// Hand one message to the network model and schedule its delivery
    /// (`extra` is adversarial delay on top of the modelled latency).
    /// Traffic stats count here — per message the network actually
    /// carries — so adversary-dropped messages are not counted as sent
    /// and adversary-duplicated copies are.
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M, depart: SimTime, extra: SimDuration) {
        let bytes = (self.size_of)(&msg);
        self.stats.inc("net.messages_sent", 1);
        self.stats.inc("net.bytes_sent", bytes as u64);
        match self
            .network
            .transit(from, to, bytes, depart, &mut self.net_rng)
        {
            Some(latency) => self.push_delivery(depart + latency + extra, from, to, msg),
            None => {
                self.stats.inc("net.messages_lost", 1);
            }
        }
    }
}

/// Runtime services an actor needs when it runs *outside* the simulation
/// kernel — the seam that lets the same replica code drive real sockets.
///
/// The simulator provides these services through its internal kernel; a real
/// deployment (e.g. `ahl-net`'s `NodeRuntime`) implements this trait over
/// wall-clock time, OS threads, and a TCP transport. An actor cannot tell
/// the difference: every [`Ctx`] method behaves identically, which is the
/// "production code runs unmodified" contract.
pub trait Host {
    /// Current time. In a real deployment this is wall-clock time encoded
    /// as a [`SimTime`] (nanoseconds since an epoch the host chooses).
    fn now(&self) -> SimTime;
    /// Number of logical nodes known to the host (committee + clients).
    fn num_nodes(&self) -> usize;
    /// Schedule an `on_timer(kind)` callback for `node` after `delay`.
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, kind: u64);
    /// Deterministic per-node random number generator.
    fn rng(&mut self, node: NodeId) -> &mut SmallRng;
    /// The host's statistics store.
    fn stats(&mut self) -> &mut Stats;
    /// Request shutdown of the hosting runtime.
    fn halt(&mut self);
}

/// Where a [`Ctx`] routes its backend calls: the simulation kernel, or an
/// external [`Host`] runtime.
enum CtxBackend<'a, M> {
    Sim(&'a mut Kernel<M>),
    Host(&'a mut dyn Host),
}

/// Handle passed to actor callbacks for interacting with the simulation
/// (or, via [`Host`], with a real node runtime).
pub struct Ctx<'a, M> {
    backend: CtxBackend<'a, M>,
    node: NodeId,
    cpu_used: SimDuration,
    outbox: Vec<(NodeId, M)>,
}

impl<'a, M: Clone> Ctx<'a, M> {
    fn for_sim(kernel: &'a mut Kernel<M>, node: NodeId) -> Self {
        Ctx {
            backend: CtxBackend::Sim(kernel),
            node,
            cpu_used: SimDuration::ZERO,
            outbox: Vec::new(),
        }
    }

    /// Build a context backed by an external [`Host`] runtime, for driving
    /// an actor outside the simulator. Collect the effects with
    /// [`Ctx::finish`] after the actor callback returns.
    pub fn for_host(host: &'a mut dyn Host, node: NodeId) -> Self {
        Ctx {
            backend: CtxBackend::Host(host),
            node,
            cpu_used: SimDuration::ZERO,
            outbox: Vec::new(),
        }
    }

    /// Consume the context, returning the CPU time the handler charged and
    /// the messages it queued for sending (host runtimes deliver these
    /// through their transport).
    pub fn finish(self) -> (SimDuration, Vec<(NodeId, M)>) {
        (self.cpu_used, self.outbox)
    }

    /// Current simulation time (start of this handler invocation).
    pub fn now(&self) -> SimTime {
        match &self.backend {
            CtxBackend::Sim(k) => k.now,
            CtxBackend::Host(h) => h.now(),
        }
    }

    /// This actor's node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the simulation.
    pub fn num_nodes(&self) -> usize {
        match &self.backend {
            CtxBackend::Sim(k) => k.nodes.len(),
            CtxBackend::Host(h) => h.num_nodes(),
        }
    }

    /// Send `msg` to `to`. The message departs when this handler finishes
    /// (i.e. after the CPU time consumed so far) and arrives after the
    /// network latency; it may be dropped by the network or by the
    /// receiver's bounded queue.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Send `msg` to every node in `targets` except self.
    pub fn multicast(&mut self, targets: impl IntoIterator<Item = NodeId>, msg: M) {
        for t in targets {
            if t != self.node {
                self.outbox.push((t, msg.clone()));
            }
        }
    }

    /// Charge `d` of CPU time to this node. Subsequent messages will not be
    /// processed until the accumulated cost has elapsed.
    pub fn consume_cpu(&mut self, d: SimDuration) {
        self.cpu_used += d;
    }

    /// Schedule [`Actor::on_timer`] with `kind` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, kind: u64) {
        match &mut self.backend {
            CtxBackend::Sim(k) => {
                let at = k.now + delay;
                k.push(at, self.node, EventKind::Timer, kind);
            }
            CtxBackend::Host(h) => h.set_timer(self.node, delay, kind),
        }
    }

    /// Deterministic per-node random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        match &mut self.backend {
            CtxBackend::Sim(k) => &mut k.nodes[self.node].rng,
            CtxBackend::Host(h) => h.rng(self.node),
        }
    }

    /// Mutable access to the run's statistics store.
    pub fn stats(&mut self) -> &mut Stats {
        match &mut self.backend {
            CtxBackend::Sim(k) => &mut k.stats,
            CtxBackend::Host(h) => h.stats(),
        }
    }

    /// Stamp a flight-recorder event for this node at the current time.
    /// `id` identifies the request / transaction / session; see
    /// [`crate::trace::Phase`] for the chain semantics.
    pub fn trace(&mut self, id: u64, phase: crate::trace::Phase) {
        let now = self.now();
        let node = self.node;
        self.stats().trace(now, node, id, phase);
    }

    /// Stop the simulation after the current event.
    pub fn halt(&mut self) {
        match &mut self.backend {
            CtxBackend::Sim(k) => k.halted = true,
            CtxBackend::Host(h) => h.halt(),
        }
    }
}

/// Builder/owner of a simulation run.
pub struct Sim<M: Clone> {
    actors: Vec<Box<dyn Actor<Msg = M>>>,
    kernel: Kernel<M>,
    started: bool,
}

/// Everything needed to construct a [`Sim`].
pub struct SimConfig<M> {
    /// Master seed; all per-node and network RNG streams derive from it.
    pub seed: u64,
    /// Network model shared by all nodes.
    pub network: Box<dyn Network>,
    /// Queue layout used for nodes that do not pass their own
    /// [`QueueConfig`] to [`Sim::add_actor`].
    pub default_queues: QueueConfig,
    /// Message classifier for queue routing.
    pub classify: fn(&M) -> MsgClass,
    /// Serialized size of a message in bytes (for bandwidth modelling and
    /// traffic stats).
    pub size_of: fn(&M) -> usize,
    /// Sender uplink bandwidth (bits/s); `None` disables sender-side
    /// serialization occupancy.
    pub uplink_bps: Option<f64>,
    /// Abort threshold on total processed events (guards against livelock in
    /// buggy experiments; generous default).
    pub max_events: u64,
    /// Per-node flight-recorder ring capacity (`0` keeps no events; phase
    /// histograms still accumulate). See [`crate::trace::FlightRecorder`].
    pub trace_capacity: usize,
}

impl<M> SimConfig<M> {
    /// Reasonable defaults: uniform 1 ms network, unbounded shared queue,
    /// everything classified as consensus, 256-byte messages.
    pub fn new(seed: u64) -> Self {
        SimConfig {
            seed,
            network: Box::new(UniformNetwork::new(SimDuration::from_millis(1))),
            default_queues: QueueConfig::unbounded(),
            classify: |_| MsgClass::CONSENSUS,
            size_of: |_| 256,
            uplink_bps: None,
            max_events: 500_000_000,
            trace_capacity: crate::trace::FlightRecorder::DEFAULT_CAPACITY,
        }
    }
}

impl<M: Clone> Sim<M> {
    /// Create a simulation from `config`.
    pub fn new(config: SimConfig<M>) -> Self {
        Sim {
            actors: Vec::new(),
            kernel: Kernel {
                now: SimTime::ZERO,
                master_seed: config.seed,
                next_seq: 0,
                events: BinaryHeap::new(),
                parked: Parked {
                    slots: Vec::new(),
                    free: Vec::new(),
                },
                nodes: Vec::new(),
                network: config.network,
                interposer: None,
                net_rng: SmallRng::seed_from_u64(derive_seed(config.seed, u64::MAX)),
                classify: config.classify,
                size_of: config.size_of,
                uplink_bps: config.uplink_bps,
                stats: {
                    let mut s = Stats::new();
                    s.set_trace_capacity(config.trace_capacity);
                    s
                },
                halted: false,
                events_processed: 0,
                max_events: config.max_events,
            },
            started: false,
        }
    }

    /// Add an actor; returns its [`NodeId`]. Uses the default queue config.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<Msg = M>>, queues: QueueConfig) -> NodeId {
        let id = self.actors.len();
        let nqueues = queues.capacities.len();
        self.actors.push(actor);
        self.kernel.nodes.push(NodeRt {
            queues: (0..nqueues).map(|_| VecDeque::new()).collect(),
            queue_cfg: queues,
            busy_until: SimTime::ZERO,
            processing_scheduled: false,
            rr_cursor: 0,
            rng: SmallRng::seed_from_u64(derive_seed(self.kernel.master_seed, id as u64)),
        });
        id
    }

    /// Install an adversarial interposition hook on the message bus
    /// (consulted for every send before the network model; see
    /// [`crate::adversary`]). Replaces any previous hook.
    pub fn set_interposer(&mut self, hook: Box<dyn Interpose<M>>) {
        self.kernel.interposer = Some(hook);
    }

    /// Inject a message from outside the actor set (e.g. a test harness).
    pub fn inject(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        self.kernel.push_delivery(at, from, to, msg);
    }

    /// Immutable access to collected statistics.
    pub fn stats(&self) -> &Stats {
        &self.kernel.stats
    }

    /// Mutable access to collected statistics (for harness annotations).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.kernel.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Number of actors added so far (the next `add_actor` returns this id).
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Borrow an actor back (for post-run inspection). Panics on bad id.
    pub fn actor(&self, id: NodeId) -> &dyn Actor<Msg = M> {
        self.actors[id].as_ref()
    }

    /// Mutably borrow an actor (for test instrumentation).
    pub fn actor_mut(&mut self, id: NodeId) -> &mut (dyn Actor<Msg = M> + 'static) {
        self.actors[id].as_mut()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.actors.len() {
            let mut ctx = Ctx::for_sim(&mut self.kernel, id);
            self.actors[id].on_start(&mut ctx);
            let (cpu, outbox) = ctx.finish();
            let done = self.kernel.now + cpu;
            let sent = self.kernel.flush_outbox(id, outbox, done);
            self.kernel.nodes[id].busy_until = sent;
        }
    }

    /// Run until the event queue is exhausted, `until` is reached, or an
    /// actor halts the simulation. Returns the time the run stopped.
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.start_if_needed();
        while !self.kernel.halted {
            let Some(ev) = self.kernel.events.peek() else {
                break;
            };
            if ev.time > until {
                self.kernel.now = until;
                break;
            }
            let ev = self.kernel.events.pop().expect("peeked event exists");
            self.kernel.now = ev.time;
            self.kernel.events_processed += 1;
            assert!(
                self.kernel.events_processed <= self.kernel.max_events,
                "simulation exceeded max_events = {} (possible livelock)",
                self.kernel.max_events
            );
            self.dispatch(ev);
        }
        self.kernel.now
    }

    /// Run to quiescence (no events left).
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(&mut self, ev: Event) {
        let node = ev.node as usize;
        match ev.kind {
            EventKind::Deliver => {
                // Taking the payload frees its slot, delivered or dropped.
                let (from, msg, class) = self.kernel.parked.take(ev.handle);
                let rt = &mut self.kernel.nodes[node];
                let q = (rt.queue_cfg.route)(class);
                debug_assert!(q < rt.queues.len(), "queue route out of range");
                if rt.queues[q].len() >= rt.queue_cfg.capacities[q] {
                    self.kernel.stats.inc("queue.dropped", 1);
                    if class == MsgClass::CONSENSUS {
                        self.kernel.stats.inc("queue.dropped_consensus", 1);
                    } else {
                        self.kernel.stats.inc("queue.dropped_request", 1);
                    }
                    return;
                }
                rt.queues[q].push_back((from, msg));
                if !rt.processing_scheduled {
                    rt.processing_scheduled = true;
                    let at = rt.busy_until.max(self.kernel.now);
                    self.kernel.push(at, node, EventKind::ProcessNext, 0);
                }
            }
            EventKind::ProcessNext => {
                let rt = &mut self.kernel.nodes[node];
                let Some((from, msg)) = rt.pop_next() else {
                    rt.processing_scheduled = false;
                    return;
                };
                let mut ctx = Ctx::for_sim(&mut self.kernel, node);
                self.actors[node].on_message(from, msg, &mut ctx);
                let (cpu, outbox) = ctx.finish();
                let done = self.kernel.now + cpu;
                let sent = self.kernel.flush_outbox(node, outbox, done);
                let rt = &mut self.kernel.nodes[node];
                rt.busy_until = sent;
                if rt.total_queued() > 0 {
                    self.kernel.push(sent, node, EventKind::ProcessNext, 0);
                } else {
                    rt.processing_scheduled = false;
                }
            }
            EventKind::Timer => {
                let mut ctx = Ctx::for_sim(&mut self.kernel, node);
                self.actors[node].on_timer(ev.handle, &mut ctx);
                let (cpu, outbox) = ctx.finish();
                let done = self.kernel.now + cpu;
                let sent = self.kernel.flush_outbox(node, outbox, done);
                let rt = &mut self.kernel.nodes[node];
                rt.busy_until = rt.busy_until.max(sent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Ping {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: NodeId,
        rounds: u32,
        got: Vec<u32>,
    }

    impl Actor for Pinger {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            if ctx.id() == 0 {
                ctx.send(self.peer, Ping::Ping(0));
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
            match msg {
                Ping::Ping(i) => {
                    ctx.consume_cpu(SimDuration::from_micros(100));
                    ctx.send(from, Ping::Pong(i));
                }
                Ping::Pong(i) => {
                    self.got.push(i);
                    if i + 1 < self.rounds {
                        ctx.send(from, Ping::Ping(i + 1));
                    } else {
                        ctx.stats().inc("done", 1);
                    }
                }
            }
        }
    }

    fn two_pingers(rounds: u32) -> Sim<Ping> {
        let mut sim = Sim::new(SimConfig::new(7));
        sim.add_actor(
            Box::new(Pinger {
                peer: 1,
                rounds,
                got: vec![],
            }),
            QueueConfig::unbounded(),
        );
        sim.add_actor(
            Box::new(Pinger {
                peer: 0,
                rounds,
                got: vec![],
            }),
            QueueConfig::unbounded(),
        );
        sim
    }

    #[test]
    fn ping_pong_completes_and_time_advances() {
        let mut sim = two_pingers(10);
        let end = sim.run();
        assert_eq!(sim.stats().counter("done"), 1);
        // 10 round trips at 2 ms RTT + 100 us server CPU each.
        let expected_ns = 10 * (2_000_000 + 100_000);
        assert_eq!(end.as_nanos(), expected_ns);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = two_pingers(50);
        let mut b = two_pingers(50);
        assert_eq!(a.run(), b.run());
        assert_eq!(a.events_processed(), b.events_processed());
    }

    #[test]
    fn run_until_stops_early() {
        let mut sim = two_pingers(1000);
        let t = sim.run_until(SimTime(5_000_000));
        assert!(t.as_nanos() <= 5_000_000);
        assert_eq!(sim.stats().counter("done"), 0);
    }

    /// A sender that floods its peer faster than the peer can process.
    struct Flooder {
        peer: NodeId,
        n: u32,
    }
    struct SlowSink;

    impl Actor for Flooder {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for i in 0..self.n {
                ctx.send(self.peer, Ping::Ping(i));
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: Ping, _ctx: &mut Ctx<'_, Ping>) {}
    }
    impl Actor for SlowSink {
        type Msg = Ping;
        fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Ctx<'_, Ping>) {
            ctx.consume_cpu(SimDuration::from_millis(10));
            ctx.stats().inc("sink.processed", 1);
        }
    }

    #[test]
    fn bounded_queue_drops_overflow() {
        let mut sim: Sim<Ping> = Sim::new(SimConfig::new(1));
        sim.add_actor(
            Box::new(Flooder { peer: 1, n: 100 }),
            QueueConfig::unbounded(),
        );
        sim.add_actor(Box::new(SlowSink), QueueConfig::shared(8));
        sim.run();
        // All messages arrive at the same instant; the queue keeps exactly
        // its capacity of 8 (the first arrival schedules processing but
        // remains queued until the ProcessNext event runs).
        assert_eq!(sim.stats().counter("sink.processed"), 8);
        assert_eq!(sim.stats().counter("queue.dropped"), 92);
        // Every delivery, dropped ones included, freed its parked slot.
        assert!(sim.kernel.parked.slots.iter().all(Option::is_none));
        assert_eq!(sim.kernel.parked.free.len(), sim.kernel.parked.slots.len());

        // A long flood: a burst every millisecond for 200 ms into the same
        // 8-slot queue. Dropped deliveries free their slots too, so the
        // slab stays at the two bursts in flight at a tick (the next burst
        // is parked before the current one is delivered), not the 20 000
        // messages sent.
        struct Burster {
            peer: NodeId,
            burst: u32,
            ticks: u64,
        }
        impl Actor for Burster {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_message(&mut self, _f: NodeId, _m: Ping, _ctx: &mut Ctx<'_, Ping>) {}
            fn on_timer(&mut self, tick: u64, ctx: &mut Ctx<'_, Ping>) {
                for i in 0..self.burst {
                    ctx.send(self.peer, Ping::Ping(i));
                }
                if tick + 1 < self.ticks {
                    ctx.set_timer(SimDuration::from_millis(1), tick + 1);
                }
            }
        }
        let mut sim: Sim<Ping> = Sim::new(SimConfig::new(1));
        sim.add_actor(
            Box::new(Burster {
                peer: 1,
                burst: 100,
                ticks: 200,
            }),
            QueueConfig::unbounded(),
        );
        sim.add_actor(Box::new(SlowSink), QueueConfig::shared(8));
        sim.run();
        let dropped = sim.stats().counter("queue.dropped");
        assert_eq!(dropped + sim.stats().counter("sink.processed"), 20_000);
        assert!(dropped > 19_000, "the flood overflows the queue: {dropped}");
        assert!(
            sim.kernel.parked.slots.len() <= 200,
            "slab grew to {} slots",
            sim.kernel.parked.slots.len()
        );
        assert!(sim.kernel.parked.slots.iter().all(Option::is_none));
    }

    #[test]
    fn same_instant_events_pop_in_seq_order_across_slot_reuse() {
        let mut sim = two_pingers(1);
        let k = &mut sim.kernel;
        // Park three deliveries and pop them: slots 0, 1 and 2 are free
        // again, and the next deliveries reuse them last-freed first.
        for i in 0..3 {
            k.push_delivery(SimTime(1), 0, 1, Ping::Ping(i));
        }
        while let Some(ev) = k.events.pop() {
            k.parked.take(ev.handle);
        }
        // Deliveries, timers and queue drains due at one instant, pushed
        // in this order.
        let at = SimTime(5);
        k.push_delivery(at, 0, 1, Ping::Ping(10));
        k.push(at, 1, EventKind::Timer, 7);
        k.push_delivery(at, 0, 1, Ping::Ping(11));
        k.push(at, 0, EventKind::ProcessNext, 0);
        k.push_delivery(at, 1, 0, Ping::Pong(12));
        k.push(at, 1, EventKind::Timer, 3);
        k.push_delivery(at, 1, 0, Ping::Pong(13));
        let mut popped = Vec::new();
        let mut handles = Vec::new();
        let mut last_seq = None;
        while let Some(ev) = k.events.pop() {
            assert_eq!(ev.time, at);
            assert!(last_seq < Some(ev.seq), "events pop in seq order");
            last_seq = Some(ev.seq);
            popped.push(match ev.kind {
                EventKind::Deliver => {
                    handles.push(ev.handle);
                    let (from, msg, _) = k.parked.take(ev.handle);
                    format!("deliver {from}->{} {msg:?}", ev.node)
                }
                EventKind::Timer => format!("timer {} at {}", ev.handle, ev.node),
                EventKind::ProcessNext => format!("process {}", ev.node),
            });
        }
        assert_eq!(
            popped,
            [
                "deliver 0->1 Ping(10)",
                "timer 7 at 1",
                "deliver 0->1 Ping(11)",
                "process 0",
                "deliver 1->0 Pong(12)",
                "timer 3 at 1",
                "deliver 1->0 Pong(13)",
            ]
        );
        // The slots really were reused, in an order unlike the pops'.
        assert_eq!(handles, [2, 1, 0, 3]);
    }

    #[test]
    fn split_queues_isolate_consensus_from_request_flood() {
        fn classify(m: &Ping) -> MsgClass {
            match m {
                Ping::Ping(_) => MsgClass::REQUEST,
                Ping::Pong(_) => MsgClass::CONSENSUS,
            }
        }
        let mut cfg = SimConfig::new(1);
        cfg.classify = classify;
        let mut sim: Sim<Ping> = Sim::new(cfg);
        struct Mixed {
            peer: NodeId,
        }
        impl Actor for Mixed {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                for i in 0..100 {
                    ctx.send(self.peer, Ping::Ping(i)); // request flood
                }
                for i in 0..4 {
                    ctx.send(self.peer, Ping::Pong(i)); // consensus traffic
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Ping, _c: &mut Ctx<'_, Ping>) {}
        }
        struct Counter;
        impl Actor for Counter {
            type Msg = Ping;
            fn on_message(&mut self, _f: NodeId, m: Ping, ctx: &mut Ctx<'_, Ping>) {
                ctx.consume_cpu(SimDuration::from_millis(1));
                match m {
                    Ping::Ping(_) => ctx.stats().inc("got.request", 1),
                    Ping::Pong(_) => ctx.stats().inc("got.consensus", 1),
                }
            }
        }
        sim.add_actor(Box::new(Mixed { peer: 1 }), QueueConfig::unbounded());
        sim.add_actor(Box::new(Counter), QueueConfig::split(64, 8));
        sim.run();
        // Consensus queue never overflows even though requests flood.
        assert_eq!(sim.stats().counter("got.consensus"), 4);
        assert_eq!(sim.stats().counter("got.request"), 8);
        assert_eq!(sim.stats().counter("queue.dropped_request"), 92);
        assert_eq!(sim.stats().counter("queue.dropped_consensus"), 0);
    }

    struct TimerActor {
        fired: Vec<u64>,
    }
    impl Actor for TimerActor {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(5), 42);
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired.push(kind);
            let now = ctx.now();
            ctx.stats().record_point("fired", now, kind as f64);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim: Sim<()> = Sim::new(SimConfig::new(3));
        sim.add_actor(
            Box::new(TimerActor { fired: vec![] }),
            QueueConfig::unbounded(),
        );
        sim.run();
        let pts = sim.stats().series("fired");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].1 as u64, 7);
        assert_eq!(pts[1].1 as u64, 42);
        assert_eq!(pts[0].0.as_millis(), 1);
        assert_eq!(pts[1].0.as_millis(), 5);
    }

    #[test]
    fn cpu_serializes_processing() {
        // Two messages arriving together at a node with 10 ms CPU cost each
        // finish 10 ms apart.
        struct Stamp;
        impl Actor for Stamp {
            type Msg = Ping;
            fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Ctx<'_, Ping>) {
                ctx.consume_cpu(SimDuration::from_millis(10));
                let t = ctx.now();
                ctx.stats().record_point("start", t, 0.0);
            }
        }
        let mut sim: Sim<Ping> = Sim::new(SimConfig::new(9));
        sim.add_actor(
            Box::new(Flooder { peer: 1, n: 2 }),
            QueueConfig::unbounded(),
        );
        sim.add_actor(Box::new(Stamp), QueueConfig::unbounded());
        sim.run();
        let pts = sim.stats().series("start");
        assert_eq!(pts.len(), 2);
        let gap = pts[1].0.since(pts[0].0);
        assert_eq!(gap.as_millis(), 10);
    }

    #[test]
    fn inject_delivers() {
        let mut sim = two_pingers(1);
        sim.inject(SimTime(100), 1, 0, Ping::Pong(0));
        sim.run();
        // One completion from the natural ping-pong plus one from the
        // injected pong.
        assert_eq!(sim.stats().counter("done"), 2);
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn max_events_guard_trips() {
        struct Loopy;
        impl Actor for Loopy {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _k: u64, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_nanos(1), 0);
            }
        }
        let mut cfg = SimConfig::new(0);
        cfg.max_events = 1000;
        let mut sim: Sim<()> = Sim::new(cfg);
        sim.add_actor(Box::new(Loopy), QueueConfig::unbounded());
        sim.run();
    }

    #[test]
    fn uplink_serializes_broadcast() {
        // A node broadcasting 1 KB messages at 1 Mbps uplink delivers them
        // 8 ms apart (plus the 0 network latency configured here).
        struct Bcast;
        impl Actor for Bcast {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                if ctx.id() == 0 {
                    for peer in 1..ctx.num_nodes() {
                        ctx.send(peer, Ping::Ping(0));
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Ctx<'_, Ping>) {
                let now = ctx.now();
                ctx.stats().record_point("arrive", now, 0.0);
            }
        }
        let mut cfg = SimConfig::new(5);
        cfg.uplink_bps = Some(1e6);
        cfg.size_of = |_| 1_000;
        cfg.network = Box::new(UniformNetwork::new(SimDuration::ZERO));
        let mut sim: Sim<Ping> = Sim::new(cfg);
        for _ in 0..4 {
            sim.add_actor(Box::new(Bcast), QueueConfig::unbounded());
        }
        sim.run();
        let pts = sim.stats().series("arrive");
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].0.as_millis(), 8);
        assert_eq!(pts[1].0.as_millis(), 16);
        assert_eq!(pts[2].0.as_millis(), 24);
    }

    #[test]
    fn partition_drops_cross_cut_messages_then_heals() {
        use crate::adversary::{FaultRule, ScriptedFaults};
        // Pingers 0 <-> 1 partitioned for the first 3 ms: the opening ping
        // is dropped; an injected restart after the heal completes rounds.
        let mut sim = two_pingers(3);
        sim.set_interposer(Box::new(ScriptedFaults::new(vec![FaultRule::partition(
            SimTime::ZERO,
            SimTime(3_000_000),
            vec![0],
            vec![1],
        )])));
        sim.inject(SimTime(5_000_000), 1, 0, Ping::Pong(0));
        sim.run();
        assert_eq!(
            sim.stats().counter("adv.dropped"),
            1,
            "opening ping dropped"
        );
        // The injected pong restarts the exchange post-heal; rounds finish.
        assert_eq!(sim.stats().counter("done"), 1);
    }

    #[test]
    fn duplicates_are_delivered_and_counted() {
        use crate::adversary::{FaultMatch, FaultRule, ScriptedFaults};
        let mut sim: Sim<Ping> = Sim::new(SimConfig::new(4));
        sim.add_actor(
            Box::new(Flooder { peer: 1, n: 5 }),
            QueueConfig::unbounded(),
        );
        struct Count;
        impl Actor for Count {
            type Msg = Ping;
            fn on_message(&mut self, _f: NodeId, _m: Ping, ctx: &mut Ctx<'_, Ping>) {
                ctx.stats().inc("got", 1);
            }
        }
        sim.add_actor(Box::new(Count), QueueConfig::unbounded());
        sim.set_interposer(Box::new(ScriptedFaults::new(vec![FaultRule::duplicate(
            SimTime::ZERO,
            SimTime::MAX,
            FaultMatch::any(),
            2,
            SimDuration::from_millis(1),
        )])));
        sim.run();
        assert_eq!(sim.stats().counter("adv.duplicated"), 10);
        assert_eq!(sim.stats().counter("got"), 15, "5 originals + 10 copies");
    }

    #[test]
    fn delay_window_reorders_but_loses_nothing() {
        use crate::adversary::{FaultMatch, FaultRule, ScriptedFaults};
        let mut sim: Sim<Ping> = Sim::new(SimConfig::new(8));
        sim.add_actor(
            Box::new(Flooder { peer: 1, n: 20 }),
            QueueConfig::unbounded(),
        );
        struct Sink;
        impl Actor for Sink {
            type Msg = Ping;
            fn on_message(&mut self, _f: NodeId, m: Ping, ctx: &mut Ctx<'_, Ping>) {
                if let Ping::Ping(i) = m {
                    let now = ctx.now();
                    ctx.stats().record_point("order", now, i as f64);
                }
            }
        }
        sim.add_actor(Box::new(Sink), QueueConfig::unbounded());
        // Delay only even-numbered pings: odd ones overtake them.
        sim.set_interposer(Box::new(ScriptedFaults::new(vec![FaultRule::delay(
            SimTime::ZERO,
            SimTime::MAX,
            FaultMatch::msgs(|m: &Ping| matches!(m, Ping::Ping(i) if i % 2 == 0)),
            SimDuration::from_millis(5),
            SimDuration::from_millis(5),
        )])));
        sim.run();
        let pts = sim.stats().series("order");
        assert_eq!(pts.len(), 20, "delays lose nothing");
        // Every odd ping arrived before every even one (5 ms > spread).
        let first_even = pts
            .iter()
            .position(|(_, v)| (*v as u64).is_multiple_of(2))
            .unwrap();
        assert!(
            pts[..first_even]
                .iter()
                .all(|(_, v)| !(*v as u64).is_multiple_of(2)),
            "odd pings overtake delayed evens: {pts:?}"
        );
        assert_eq!(sim.stats().counter("adv.delayed"), 10);
    }

    #[test]
    fn halt_stops_run() {
        struct Halter;
        impl Actor for Halter {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
                ctx.set_timer(SimDuration::from_millis(2), 1);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, ()>) {
                if kind == 0 {
                    ctx.halt();
                } else {
                    ctx.stats().inc("should_not_run", 1);
                }
            }
        }
        let mut sim: Sim<()> = Sim::new(SimConfig::new(0));
        sim.add_actor(Box::new(Halter), QueueConfig::unbounded());
        sim.run();
        assert_eq!(sim.stats().counter("should_not_run"), 0);
    }
}
