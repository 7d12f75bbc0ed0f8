//! # ahl-telemetry — run-time oracles and instrumentation
//!
//! Two companions to the safety oracle in `ahl-consensus`:
//!
//! * [`LivenessChecker`] — an online [`ahl_simkit::TraceSink`] that watches
//!   the flight-recorder stream for commit stalls, mempool starvation,
//!   view-change storms, and sync livelocks: the failure classes that never
//!   violate safety but stop the system from making progress. Wire it into
//!   a run through `SystemConfig::liveness` (which installs the tee, calls
//!   [`LivenessChecker::finish`], and dumps the implicated committee's
//!   causal trace on a violation).
//! * [`Profiler`] — thread-local hierarchical wall-clock span timing for
//!   the hot paths (consensus exec and checkpoints, SMT update, WAL group
//!   commit, sync chunk verify). Disabled by default; `run_system`
//!   enables it per-run when `SystemConfig::profile` is set and returns
//!   the sorted self/total attribution in the report.
//!
//! This crate depends only on `ahl-simkit` (for the trace vocabulary), so
//! every subsystem crate can instrument itself without dependency cycles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod liveness;
pub mod profiler;

pub use liveness::{LivenessChecker, LivenessConfig, LivenessViolation};
pub use profiler::{ProfileReport, Profiler, SpanGuard, SpanStat};
