//! The measuring protocol shared by the three kv workloads, whatever hosts
//! the replicas: time set-up with a one-request probe, write every key
//! once, open the load gate, let the system settle, then measure a window
//! cut into slices (every timing is reported as the *median slice*, which
//! a single checkpoint stall or scheduler hiccup cannot move), stop, and
//! drain.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ahl_consensus::pbft::PbftMsg;
use ahl_net::NodeRuntime;
use ahl_simkit::{Actor, NodeId};

use crate::clients::{new_log, Clock, Gate, PacedClient, SharedLog, WindowClient};
use crate::committee::{LOAD0, LOAD_CLIENTS, PROBE, WARM0, WINDOW};
use crate::ops::{warmup_keys, KeyStream, KEYS};
use crate::procfs::CpuTime;
use crate::stats::{median_over, percentile, slice_samples, Sample};
use crate::trace::Role;

/// How the measured clients offer load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// [`LOAD_CLIENTS`] closed-loop clients × [`WINDOW`] outstanding.
    Closed,
    /// Open loop at `rate` requests per second in total.
    Open {
        /// Requests per second over all clients.
        rate: f64,
    },
}

/// The replica every client submits to: the view-0 leader. With clients
/// spread over replicas 0 and 1 (as `experiments -- cluster` attaches
/// them) about one multi-process run in five on the development host lost
/// replies for good — a whole 64-request window, or several hundred
/// open-loop requests — with every transport counter clean. A request is
/// answered by the replica that ingested it, once *that* replica executes
/// the block, so a follower that skips execution (state sync) would
/// explain it, but the cause was not established. With every client on
/// the leader losses are rare (about one run in ten still lost a few
/// hundred replies), and the clients' own retransmission covers those.
const TARGET: NodeId = 0;

/// Slices per measured window, at most.
pub const SLICES: usize = 10;
/// ...but no slice shorter than this: at the open loop's 4000 tx/s a
/// slice needs 1000 replies to carry a 99th percentile.
const MIN_SLICE_SECS: f64 = 0.5;

/// Slices a window of `seconds` is cut into.
pub fn slices_for(seconds: f64) -> usize {
    ((seconds / MIN_SLICE_SECS) as usize).clamp(1, SLICES)
}
/// The window opens this long after the first warm-up write. Replicas
/// remember executed request ids for `request_ttl` (10 s) before pruning
/// them, so until then the replay cache — and the per-checkpoint work over
/// it — is still growing and throughput has not reached its plateau.
const RAMP: Duration = Duration::from_millis(10_500);
/// ...and no sooner than this after the measured clients start (queues
/// and batches reach their steady shape).
const SETTLE: Duration = Duration::from_millis(500);
/// A window shorter than this is a sanity pass (`--smoke`), not a
/// measurement: it skips the ramp.
const MIN_MEASURED_SECS: f64 = 5.0;
/// After the gate closes, replies still in flight get this long.
const DRAIN: Duration = Duration::from_secs(3);

/// Handles to the driver-hosted client actors of one launch.
pub struct Clients {
    clock: Clock,
    probe_log: SharedLog,
    warm_log: SharedLog,
    warm_gate: Arc<Gate>,
    /// Log of the measured load clients.
    pub load_log: SharedLog,
    load_gate: Arc<Gate>,
}

/// A boxed actor of the kv workloads.
pub type BoxedActor = Box<dyn Actor<Msg = PbftMsg>>;

/// The `wrap` of untraced runs: actors go to the runtime as they are.
pub fn unwrapped(_: Role, actor: BoxedActor) -> BoxedActor {
    actor
}

/// Add the probe, warm-up and load clients to the driver's runtime, each
/// passed through `wrap` first (the traced runs wrap them in span
/// recorders; everyone else passes them through).
pub fn add_clients(
    rt: &mut NodeRuntime<PbftMsg>,
    seed: u64,
    load: Load,
    wrap: &dyn Fn(Role, BoxedActor) -> BoxedActor,
) -> Clients {
    let clock = Clock::start();
    let (probe_log, warm_log, load_log) = (new_log(), new_log(), new_log());
    let (probe_gate, warm_gate, load_gate) = (Gate::new(), Gate::new(), Gate::new());
    probe_gate.open(1);
    rt.add_actor(
        PROBE,
        wrap(
            Role::Client,
            Box::new(WindowClient::new(
                TARGET,
                1,
                Box::new(std::iter::once(0)),
                probe_gate,
                clock,
                probe_log.clone(),
            )),
        ),
    );
    for c in 0..LOAD_CLIENTS {
        rt.add_actor(
            WARM0 + c,
            wrap(
                Role::Client,
                Box::new(WindowClient::new(
                    TARGET,
                    WINDOW,
                    Box::new(warmup_keys(c, LOAD_CLIENTS)),
                    warm_gate.clone(),
                    clock,
                    warm_log.clone(),
                )),
            ),
        );
        let keys = Box::new(KeyStream::new(seed, c as u64));
        let loader: BoxedActor = match load {
            Load::Closed => Box::new(WindowClient::new(
                TARGET,
                WINDOW,
                keys,
                load_gate.clone(),
                clock,
                load_log.clone(),
            )),
            Load::Open { rate } => Box::new(PacedClient::new(
                TARGET,
                rate / LOAD_CLIENTS as f64,
                c as f64 / LOAD_CLIENTS as f64,
                keys,
                load_gate.clone(),
                clock,
                load_log.clone(),
            )),
        };
        rt.add_actor(LOAD0 + c, wrap(Role::Client, loader));
    }
    Clients {
        clock,
        probe_log,
        warm_log,
        warm_gate,
        load_log,
        load_gate,
    }
}

/// Pump `rt` in `step`s until `done()` or `limit` elapses.
fn pump_until(
    rt: &mut NodeRuntime<PbftMsg>,
    step: Duration,
    limit: Duration,
    mut done: impl FnMut() -> bool,
) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        rt.run_for(step);
    }
    true
}

/// Run until the probe's one request is answered: the end of set-up.
pub fn await_first_reply(rt: &mut NodeRuntime<PbftMsg>, c: &Clients) -> Result<(), String> {
    rt.start();
    let log = c.probe_log.clone();
    let ok = pump_until(
        rt,
        Duration::from_millis(1),
        Duration::from_secs(30),
        || log.lock().expect("client log").completed() == 1,
    );
    ok.then_some(())
        .ok_or_else(|| "no committed reply within 30 s of launch".to_string())
}

/// Slice boundaries of one measured window, with the CPU clock of the
/// replica-hosting processes read at each.
pub struct Window {
    /// Boundaries on the run clock (ns), one more than slices.
    pub bounds: Vec<u64>,
    /// CPU time of the replica-hosting processes at each boundary.
    pub cpu: Vec<CpuTime>,
}

impl Window {
    /// CPU time spent between the first and the last boundary.
    pub fn cpu_total(&self) -> CpuTime {
        self.cpu[self.cpu.len() - 1].minus(self.cpu[0])
    }
}

/// What the load clients saw over their whole life (settle, every window,
/// drain).
pub struct Tally {
    /// Every reply.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Refused by admission control.
    pub rejected: u64,
    /// Still unanswered when the drain ended.
    pub unanswered: u64,
    /// Open loop: answered later than the limit after due.
    pub late: u64,
    /// Closed-loop window refills after a presumed loss (warm-up and
    /// measured clients together).
    pub retries: u64,
    /// Open loop: generator lag per request (ns), sorted.
    pub lag_ns: Vec<u64>,
}

impl Tally {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        self.rejected + self.unanswered + self.late
    }
}

/// Write every key once, start the measured clients, and let the system
/// reach its plateau before a window of `seconds` opens.
pub fn warm_up(rt: &mut NodeRuntime<PbftMsg>, c: &Clients, seconds: f64) -> Result<(), String> {
    let ramp_start = Instant::now();
    c.warm_gate.open(c.clock.now_ns());
    let warm = c.warm_log.clone();
    if !pump_until(
        rt,
        Duration::from_millis(5),
        Duration::from_secs(90),
        || warm.lock().expect("client log").completed() == KEYS,
    ) {
        let log = warm.lock().expect("client log");
        return Err(format!(
            "warm-up stalled: {} of {KEYS} keys written, {} rejected",
            log.completed(),
            log.rejected
        ));
    }
    c.load_gate.open(c.clock.now_ns());
    let ramp = if seconds < MIN_MEASURED_SECS {
        Duration::ZERO
    } else {
        RAMP
    };
    rt.run_for(SETTLE.max(ramp.saturating_sub(ramp_start.elapsed())));
    Ok(())
}

/// Measure `seconds` of load in [`slices_for`] slices, reading `cpu` at
/// every boundary. Call after [`warm_up`]; may be called again for a
/// second window over the same clients.
pub fn window(
    rt: &mut NodeRuntime<PbftMsg>,
    c: &Clients,
    seconds: f64,
    cpu: &dyn Fn() -> CpuTime,
) -> Window {
    let slices = slices_for(seconds);
    let slice = Duration::from_secs_f64(seconds / slices as f64);
    let mut w = Window {
        bounds: vec![c.clock.now_ns()],
        cpu: vec![cpu()],
    };
    for _ in 0..slices {
        rt.run_for(slice);
        w.bounds.push(c.clock.now_ns());
        w.cpu.push(cpu());
    }
    w
}

/// Stop the load, drain replies still in flight, and collect what the
/// clients saw.
pub fn finish(rt: &mut NodeRuntime<PbftMsg>, c: &Clients) -> Tally {
    c.load_gate.stop();
    let load = c.load_log.clone();
    pump_until(rt, Duration::from_millis(10), DRAIN, || {
        load.lock().expect("client log").unanswered() == 0
    });
    let mut log = c.load_log.lock().expect("client log");
    let mut lag_ns = std::mem::take(&mut log.lag_ns);
    lag_ns.sort_unstable();
    Tally {
        attempted: log.submitted,
        rejected: log.rejected,
        unanswered: log.unanswered(),
        late: log.late,
        retries: log.retries + c.warm_log.lock().expect("client log").retries,
        samples: std::mem::take(&mut log.samples),
        lag_ns,
    }
}

/// The client-side end-to-end figures of one window: each is the median
/// over slices of the slice's own figure.
#[derive(Clone, Debug)]
pub struct ClientFigures {
    /// Completions per second.
    pub committed_tps: f64,
    /// Median latency (ms).
    pub latency_p50_ms: f64,
    /// CPU of the replica-hosting processes per completion (µs).
    pub cpu_us_per_txn: f64,
    /// Replies inside the window.
    pub samples: u64,
    /// Completions per second of each slice, for the run's notes.
    pub slice_tps: Vec<f64>,
    /// Median latency of each slice (ms), for the run's notes.
    pub slice_p50_ms: Vec<f64>,
}

/// Reduce a window to its figures. Errors when no slice holds the
/// twenty replies a median needs (ten samples beyond it).
pub fn summarize(w: &Window, t: &Tally) -> Result<ClientFigures, String> {
    let slices = slice_samples(&t.samples, &w.bounds);
    let ms = |ns: u64| ns as f64 / 1e6;
    let need = |name: &str, v: Option<f64>| {
        v.ok_or_else(|| format!("{name}: no slice has enough samples"))
    };
    let cpu_per: Vec<Option<f64>> = slices
        .iter()
        .zip(w.cpu.windows(2))
        .map(|(s, c)| {
            (s.completed > 0).then(|| c[1].minus(c[0]).total_us() as f64 / s.completed as f64)
        })
        .collect();
    Ok(ClientFigures {
        committed_tps: need("committed_tps", median_over(&slices, |s| Some(s.tps())))?,
        latency_p50_ms: need(
            "latency_p50_ms",
            median_over(&slices, |s| percentile(&s.latencies, 50.0).map(ms)),
        )?,
        cpu_us_per_txn: need("cpu_us_per_txn", median_over(&cpu_per, |c| *c))?,
        samples: slices.iter().map(|s| s.completed).sum(),
        slice_tps: slices.iter().map(|s| s.tps().round()).collect(),
        slice_p50_ms: slices
            .iter()
            .map(|s| {
                percentile(&s.latencies, 50.0).map_or(0.0, |ns| (ms(ns) * 10.0).round() / 10.0)
            })
            .collect(),
    })
}
