//! # ahl-simkit — deterministic discrete-event simulation kernel
//!
//! This crate is the testbed substrate for the AHL reproduction: it stands in
//! for the paper's 100-server local cluster and 1400-instance Google Cloud
//! deployment. A simulation is a collection of [`Actor`]s exchanging messages
//! over a pluggable [`Network`] model under a virtual clock.
//!
//! The kernel models the three contended resources the paper's evaluation
//! measures:
//!
//! 1. **CPU** — message handling is serialized per node and charged the
//!    declared cost of the cryptographic / enclave operations it performs
//!    ([`Ctx::consume_cpu`]).
//! 2. **Network** — every send passes through the [`Network`] model, which
//!    assigns latency (possibly with jitter and bandwidth-dependent
//!    serialization delay) or drops the message.
//! 3. **Bounded queues** — inbound messages are routed by [`MsgClass`] into
//!    per-node bounded queues ([`QueueConfig`]); overflow drops are counted.
//!    Shared vs split queues is exactly the paper's optimization 1.
//!
//! Runs are deterministic: one master seed derives every per-node and
//! network RNG stream, and event ties are broken by insertion order.
//!
//! ```
//! use ahl_simkit::{Actor, Ctx, NodeId, QueueConfig, Sim, SimConfig, SimDuration};
//!
//! #[derive(Clone)]
//! struct Hello;
//!
//! struct Greeter { peer: NodeId }
//! impl Actor for Greeter {
//!     type Msg = Hello;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Hello>) {
//!         if ctx.id() == 0 { ctx.send(self.peer, Hello); }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _m: Hello, ctx: &mut Ctx<'_, Hello>) {
//!         ctx.consume_cpu(SimDuration::from_micros(5));
//!         ctx.stats().inc("greetings", 1);
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::new(42));
//! sim.add_actor(Box::new(Greeter { peer: 1 }), QueueConfig::unbounded());
//! sim.add_actor(Box::new(Greeter { peer: 0 }), QueueConfig::unbounded());
//! sim.run();
//! assert_eq!(sim.stats().counter("greetings"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
mod engine;
#[cfg(test)]
mod model;
pub mod rng;
pub mod stats;
mod time;
pub mod trace;

pub use engine::{
    Actor, Ctx, Host, MsgClass, Network, NodeId, QueueConfig, Sim, SimConfig, UniformNetwork,
};
pub use stats::{Histogram, Scope, Stats, TRACE_DROPPED};
pub use time::{SimDuration, SimTime};
pub use trace::{FlightRecorder, Phase, TraceEvent, TraceSink};
