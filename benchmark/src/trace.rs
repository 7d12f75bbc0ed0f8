//! Tracing from the outside: wrappers around every [`Actor`] and around the
//! [`Transport`] trait object record a span at each layer boundary (name,
//! start, end, causing span, request id when the message carries one) and
//! count what crosses it. Nothing inside any crate is touched; the spans
//! the crates already emit through `ahl_telemetry::Profiler` are harvested
//! beside these.
//!
//! Spans stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ahl_bench::json::JsonValue;
use ahl_consensus::pbft::{PbftBlock, PbftMsg};
use ahl_net::wire::encode_payload;
use ahl_net::{NetEvent, Packet, Transport, TransportStats};
use ahl_simkit::{Actor, Ctx, NodeId};

use crate::clients::Clock;

/// Which side of the system an actor is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// A committee member.
    Replica,
    /// A load generator.
    Client,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Replica => "replica",
            Role::Client => "client",
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Boundary crossed: a message kind, `timer`, `start`, or `send`.
    pub name: &'static str,
    /// Actor side, or `None` for a transport send.
    pub role: Option<Role>,
    /// Start on the run clock (ns).
    pub start_ns: u64,
    /// End on the run clock (ns).
    pub end_ns: u64,
    /// Index (within this host's spans) of the actor callback that caused
    /// this span: a send is caused by the callback that queued it.
    pub parent: Option<u32>,
    /// Request id shared by every span of one request, when known.
    pub req: Option<u64>,
}

/// Count and total time of one `(role, name)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Their total duration (ns).
    pub total_ns: u64,
}

/// Raw spans kept per host for `trace.json`; totals cover every span.
const RAW_SPANS_PER_HOST: usize = 10_000;
/// Every n-th delivered message is kept for the layer replays...
const SAMPLE_EVERY: u64 = 16;
/// ...up to this many,
const MAX_SAMPLED_MSGS: usize = 4_096;
/// and up to this many proposed blocks.
const MAX_SAMPLED_BLOCKS: usize = 128;

#[derive(Default)]
struct HostInner {
    spans: Vec<Span>,
    agg: BTreeMap<(Option<Role>, &'static str), Agg>,
    /// Index of the latest actor callback span, if it was kept raw.
    current: Option<u32>,
    delivered: u64,
    msgs: Vec<(NodeId, NodeId, PbftMsg)>,
    blocks: Vec<Arc<PbftBlock>>,
    frames: u64,
    sampled_frames: u64,
    sampled_frame_bytes: u64,
}

/// Everything traced on one event-loop thread ("host"). Its lock is only
/// ever taken by that thread while the run is on, so it is uncontended.
pub struct HostTrace {
    on: Arc<AtomicBool>,
    clock: Clock,
    inner: Mutex<HostInner>,
}

/// What one host recorded, taken out when the run is over.
#[derive(Default)]
pub struct HostSummary {
    /// The first [`RAW_SPANS_PER_HOST`] spans.
    pub spans: Vec<Span>,
    /// Totals per `(role, name)`, over every span.
    pub agg: BTreeMap<(Option<Role>, &'static str), Agg>,
    /// Sampled delivered messages `(from, to, message)`.
    pub msgs: Vec<(NodeId, NodeId, PbftMsg)>,
    /// Sampled proposed blocks.
    pub blocks: Vec<Arc<PbftBlock>>,
    /// Frames handed to the transport for a remote destination.
    pub frames: u64,
    /// Mean encoded size of those frames (bytes, header included),
    /// estimated from a 1-in-16 sample.
    pub mean_frame_bytes: f64,
}

impl HostSummary {
    /// Total time of the spans of `role` (ns).
    pub fn role_ns(&self, role: Role) -> u64 {
        self.agg
            .iter()
            .filter(|((r, _), _)| *r == Some(role))
            .map(|(_, a)| a.total_ns)
            .sum()
    }

    /// Callbacks of `role` that delivered a message.
    pub fn role_msgs(&self, role: Role) -> u64 {
        self.agg
            .iter()
            .filter(|((r, n), _)| *r == Some(role) && *n != "timer" && *n != "start")
            .map(|(_, a)| a.count)
            .sum()
    }

    /// The `(role, name)` total.
    pub fn get(&self, role: Option<Role>, name: &'static str) -> Agg {
        self.agg.get(&(role, name)).copied().unwrap_or_default()
    }
}

/// The run-wide tracing switch and clock, handing out per-host recorders.
pub struct Tracer {
    on: Arc<AtomicBool>,
    clock: Clock,
}

impl Tracer {
    /// A tracer that is off.
    pub fn new() -> Self {
        Tracer {
            on: Arc::new(AtomicBool::new(false)),
            clock: Clock::start(),
        }
    }

    /// Switch recording on or off on every host at once.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Is recording on?
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    /// A recorder for one more event-loop thread.
    pub fn host(&self) -> Arc<HostTrace> {
        Arc::new(HostTrace {
            on: self.on.clone(),
            clock: self.clock,
            inner: Mutex::new(HostInner::default()),
        })
    }
}

impl HostTrace {
    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn record(&self, span: Span, is_callback: bool) {
        let mut h = self.inner.lock().expect("host trace");
        let a = h.agg.entry((span.role, span.name)).or_default();
        a.count += 1;
        a.total_ns += span.end_ns - span.start_ns;
        let kept = h.spans.len() < RAW_SPANS_PER_HOST;
        if is_callback {
            h.current = kept.then_some(h.spans.len() as u32);
        }
        if kept {
            h.spans.push(span);
        }
    }

    /// Take out what was recorded.
    pub fn summary(&self) -> HostSummary {
        let mut h = self.inner.lock().expect("host trace");
        HostSummary {
            spans: std::mem::take(&mut h.spans),
            agg: std::mem::take(&mut h.agg),
            msgs: std::mem::take(&mut h.msgs),
            blocks: std::mem::take(&mut h.blocks),
            frames: h.frames,
            mean_frame_bytes: if h.sampled_frames == 0 {
                0.0
            } else {
                h.sampled_frame_bytes as f64 / h.sampled_frames as f64
            },
        }
    }
}

/// Message kind and the request id it carries, if any.
pub fn classify(msg: &PbftMsg) -> (&'static str, Option<u64>) {
    match msg {
        PbftMsg::Request(r) => ("Request", Some(r.id)),
        PbftMsg::Relay(r) => ("Relay", Some(r.id)),
        PbftMsg::Gossip(r) => ("Gossip", Some(r.id)),
        PbftMsg::PrePrepare { .. } => ("PrePrepare", None),
        PbftMsg::Prepare(_) => ("Prepare", None),
        PbftMsg::Commit(_) => ("Commit", None),
        PbftMsg::RelayPrepare(_) => ("RelayPrepare", None),
        PbftMsg::RelayCommit(_) => ("RelayCommit", None),
        PbftMsg::AggPrepare(_) => ("AggPrepare", None),
        PbftMsg::AggCommit(_) => ("AggCommit", None),
        PbftMsg::Checkpoint { .. } => ("Checkpoint", None),
        PbftMsg::ViewChange(_) => ("ViewChange", None),
        PbftMsg::PoolPull { .. } => ("PoolPull", None),
        PbftMsg::NewView { .. } => ("NewView", None),
        PbftMsg::Reply { req_id, .. } => ("Reply", Some(*req_id)),
        PbftMsg::Rejected { req_id } => ("Rejected", Some(*req_id)),
        PbftMsg::RelayRejected { req_id } => ("RelayRejected", Some(*req_id)),
        PbftMsg::Heartbeat { .. } => ("Heartbeat", None),
        PbftMsg::SyncRequest { .. } => ("SyncRequest", None),
        PbftMsg::SyncManifest { .. } => ("SyncManifest", None),
        PbftMsg::ChunkRequest { .. } => ("ChunkRequest", None),
        PbftMsg::ChunkData { .. } => ("ChunkData", None),
        PbftMsg::SyncTail { .. } => ("SyncTail", None),
        PbftMsg::SyncNack { .. } => ("SyncNack", None),
        PbftMsg::Transition { .. } => ("Transition", None),
        PbftMsg::TransitionDone { .. } => ("TransitionDone", None),
        PbftMsg::Crash => ("Crash", None),
        PbftMsg::Restart => ("Restart", None),
    }
}

/// Message kinds that carry one signature or attestation to verify.
pub const SIGNED_KINDS: &[&str] = &["PrePrepare", "Prepare", "Commit", "Checkpoint"];

/// Span recorder around an actor: one span per callback.
pub struct TracedActor {
    inner: Box<dyn Actor<Msg = PbftMsg>>,
    trace: Arc<HostTrace>,
    role: Role,
}

impl TracedActor {
    /// Wrap `inner`, recording into `trace`.
    pub fn wrap(
        inner: Box<dyn Actor<Msg = PbftMsg>>,
        trace: Arc<HostTrace>,
        role: Role,
    ) -> Box<dyn Actor<Msg = PbftMsg>> {
        Box::new(TracedActor { inner, trace, role })
    }

    fn span(&self, name: &'static str, req: Option<u64>, start_ns: u64) {
        let end_ns = self.trace.clock.now_ns();
        self.trace.record(
            Span {
                name,
                role: Some(self.role),
                start_ns,
                end_ns,
                parent: None,
                req,
            },
            true,
        );
    }
}

impl Actor for TracedActor {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PbftMsg>) {
        let t0 = self.trace.clock.now_ns();
        self.inner.on_start(ctx);
        if self.trace.on() {
            self.span("start", None, t0);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<'_, PbftMsg>) {
        if !self.trace.on() {
            return self.inner.on_message(from, msg, ctx);
        }
        let (kind, req) = classify(&msg);
        {
            let mut h = self.trace.inner.lock().expect("host trace");
            h.delivered += 1;
            if h.delivered.is_multiple_of(SAMPLE_EVERY) && h.msgs.len() < MAX_SAMPLED_MSGS {
                h.msgs.push((from, ctx.id(), msg.clone()));
            }
            if let PbftMsg::PrePrepare { block, .. } = &msg {
                if h.blocks.len() < MAX_SAMPLED_BLOCKS {
                    h.blocks.push(block.clone());
                }
            }
        }
        let t0 = self.trace.clock.now_ns();
        self.inner.on_message(from, msg, ctx);
        self.span(kind, req, t0);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, PbftMsg>) {
        if !self.trace.on() {
            return self.inner.on_timer(kind, ctx);
        }
        let t0 = self.trace.clock.now_ns();
        self.inner.on_timer(kind, ctx);
        self.span("timer", None, t0);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

/// Span recorder around a transport: one span per frame sent to another
/// process, parented on the callback that queued it.
pub struct TracedTransport {
    inner: Box<dyn Transport<PbftMsg>>,
    trace: Arc<HostTrace>,
    local: Vec<NodeId>,
}

impl TracedTransport {
    /// Wrap `inner`, which hosts the `local` actor ids.
    pub fn wrap(
        inner: Box<dyn Transport<PbftMsg>>,
        trace: Arc<HostTrace>,
        local: Vec<NodeId>,
    ) -> Box<dyn Transport<PbftMsg>> {
        Box::new(TracedTransport {
            inner,
            trace,
            local,
        })
    }
}

impl Transport<PbftMsg> for TracedTransport {
    fn send(&self, from: NodeId, to: NodeId, body: Packet<PbftMsg>) {
        if !self.trace.on() || self.local.contains(&to) {
            return self.inner.send(from, to, body);
        }
        let (req, parent) = {
            let mut h = self.trace.inner.lock().expect("host trace");
            h.frames += 1;
            if h.frames.is_multiple_of(SAMPLE_EVERY) {
                h.sampled_frames += 1;
                // [len u32][crc u32] frame header + payload.
                h.sampled_frame_bytes += 8 + encode_payload(from, to, &body).len() as u64;
            }
            let req = match &body {
                Packet::App(m) => classify(m).1,
                Packet::Control(_) => None,
            };
            (req, h.current)
        };
        let start_ns = self.trace.clock.now_ns();
        self.inner.send(from, to, body);
        let end_ns = self.trace.clock.now_ns();
        self.trace.record(
            Span {
                name: "send",
                role: None,
                start_ns,
                end_ns,
                parent,
                req,
            },
            false,
        );
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent<PbftMsg>> {
        self.inner.recv_timeout(timeout)
    }

    fn known_nodes(&self) -> Vec<NodeId> {
        self.inner.known_nodes()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// Render `hosts` (summaries by host label) as the `trace.json` document:
/// per-host span totals, the crates' profiler totals `(name, count,
/// total_ns, self_ns)`, then the raw spans.
pub fn render_json(
    workload: &str,
    hosts: &[(String, &HostSummary)],
    profiler: &[(String, u64, u64, u64)],
) -> String {
    use JsonValue::{Array, Str, UInt};
    let object = |pairs: Vec<(&str, JsonValue)>| {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let layer = |role: Option<Role>| Str(role.map_or("transport", Role::name).into());
    let totals = hosts.iter().flat_map(|(label, h)| {
        h.agg.iter().map(move |((role, name), a)| {
            object(vec![
                ("host", Str(label.clone())),
                ("layer", layer(*role)),
                ("name", Str(name.to_string())),
                ("count", UInt(a.count)),
                ("total_ns", UInt(a.total_ns)),
            ])
        })
    });
    let profiled = profiler.iter().map(|(name, count, total_ns, self_ns)| {
        object(vec![
            ("name", Str(name.clone())),
            ("count", UInt(*count)),
            ("total_ns", UInt(*total_ns)),
            ("self_ns", UInt(*self_ns)),
        ])
    });
    let spans = hosts.iter().flat_map(|(label, h)| {
        h.spans.iter().map(move |s| {
            let mut pairs = vec![
                ("host", Str(label.clone())),
                ("layer", layer(s.role)),
                ("name", Str(s.name.into())),
                ("start_ns", UInt(s.start_ns)),
                ("end_ns", UInt(s.end_ns)),
            ];
            pairs.extend(s.parent.map(|p| ("parent", UInt(p.into()))));
            pairs.extend(s.req.map(|r| ("req", UInt(r))));
            object(pairs)
        })
    });
    object(vec![
        ("workload", Str(workload.into())),
        ("totals", Array(totals.collect())),
        ("profiler", Array(profiled.collect())),
        ("spans", Array(spans.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_cover_every_span_but_raw_spans_are_capped() {
        let t = Tracer::new();
        t.set(true);
        let h = t.host();
        for i in 0..(RAW_SPANS_PER_HOST as u64 + 5) {
            h.record(
                Span {
                    name: "Request",
                    role: Some(Role::Replica),
                    start_ns: i,
                    end_ns: i + 2,
                    parent: None,
                    req: Some(i),
                },
                true,
            );
        }
        let s = h.summary();
        assert_eq!(s.spans.len(), RAW_SPANS_PER_HOST);
        let a = s.get(Some(Role::Replica), "Request");
        assert_eq!(a.count, RAW_SPANS_PER_HOST as u64 + 5);
        assert_eq!(a.total_ns, 2 * a.count);
        assert_eq!(s.role_ns(Role::Replica), a.total_ns);
        assert_eq!(s.role_ns(Role::Client), 0);
    }

    #[test]
    fn sends_are_parented_on_the_latest_callback() {
        let t = Tracer::new();
        let h = t.host();
        let cb = |n| Span {
            name: n,
            role: Some(Role::Replica),
            start_ns: 0,
            end_ns: 1,
            parent: None,
            req: None,
        };
        h.record(cb("Request"), true);
        h.record(cb("Prepare"), true);
        let parent = h.inner.lock().unwrap().current;
        assert_eq!(parent, Some(1));
        h.record(
            Span {
                name: "send",
                role: None,
                start_ns: 1,
                end_ns: 2,
                parent,
                req: None,
            },
            false,
        );
        assert_eq!(
            h.inner.lock().unwrap().current,
            Some(1),
            "a send is not a callback"
        );
    }

    #[test]
    fn trace_document_is_valid_json() {
        let t = Tracer::new();
        let h = t.host();
        h.record(
            Span {
                name: "Reply",
                role: Some(Role::Client),
                start_ns: 5,
                end_ns: 9,
                parent: None,
                req: Some(77),
            },
            true,
        );
        h.record(
            Span {
                name: "send",
                role: None,
                start_ns: 9,
                end_ns: 10,
                parent: Some(0),
                req: None,
            },
            false,
        );
        let s = h.summary();
        let doc = render_json(
            "w",
            &[("driver".into(), &s)],
            &[("smt.update".into(), 3, 30, 20)],
        );
        let v = JsonValue::parse(doc.trim()).expect("valid JSON");
        let JsonValue::Array(spans) = v.get("spans").unwrap() else {
            panic!("array")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("req").and_then(JsonValue::as_u64), Some(77));
        assert_eq!(spans[1].get("parent").and_then(JsonValue::as_u64), Some(0));
        assert!(v.path("profiler").is_some());
    }

    #[test]
    fn classify_names_requests_and_replies() {
        assert_eq!(
            classify(&PbftMsg::Reply {
                req_id: 9,
                committed: true
            }),
            ("Reply", Some(9))
        );
        assert_eq!(classify(&PbftMsg::Restart), ("Restart", None));
    }
}
