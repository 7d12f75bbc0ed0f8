//! The traced runs (`--trace 1`): the same workloads with the replicas
//! hosted where the benchmark can measure each layer from outside, the
//! layer replays, and the reconciliation of the layer table against the
//! CPU actually spent per transaction.
//!
//! A traced window is split in two: a first part with every recorder off
//! (the reference), then the rest with the recorders and the crates' own
//! profiler on. The difference in CPU per transaction between the parts
//! is the tracing overhead, reported beside the table it distorts.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ahl_consensus::pbft::{PbftConfig, PbftMsg};
use ahl_consensus::stat as cstat;
use ahl_core::sysstat;
use ahl_mempool::stat as mstat;
use ahl_net::{Control, NodeRuntime, TransportStats};
use ahl_simkit::Stats;
use ahl_telemetry::{ProfileReport, Profiler};

use crate::committee::{cluster_file, N};
use crate::drive::{
    add_clients, await_first_reply, finish, warm_up, window, BoxedActor, Load, Tally, Window,
};
use crate::hosted::{HostReport, ReplicaThread};
use crate::inproc::{self, check_digests};
use crate::layers;
use crate::procfs::{self, CpuTime};
use crate::report::RunResult;
use crate::sim;
use crate::spec::PER_LAYER;
use crate::stats::percentile;
use crate::tcp::{self, RunDir, RUN_ROOT};
use crate::trace::{
    render_json, HostSummary, Role, TracedActor, TracedTransport, Tracer, SIGNED_KINDS,
};

/// Share of `--seconds` measured with the recorders off.
const OFF_SHARE: f64 = 0.3;
/// How long the committee runs without the killed follower.
const DOWN: Duration = Duration::from_secs(2);

/// Profiler totals of one span name, summed over threads.
#[derive(Clone, Copy, Debug, Default)]
struct SpanTotal {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn merge_profiles<'a>(
    profiles: impl IntoIterator<Item = &'a ProfileReport>,
) -> BTreeMap<&'static str, SpanTotal> {
    let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for s in profiles.into_iter().flat_map(|p| &p.spans) {
        let t = out.entry(s.name).or_default();
        t.count += s.count;
        t.total_ns += s.total_ns;
        t.self_ns += s.self_ns;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replies that arrived inside `w`.
fn completions(w: &Window, t: &Tally) -> u64 {
    let (lo, hi) = (w.bounds[0], w.bounds[w.bounds.len() - 1]);
    t.samples
        .iter()
        .filter(|s| s.done_ns >= lo && s.done_ns < hi)
        .count() as u64
}

/// Every per-layer metric starts at zero: a layer a workload bypasses
/// reports no work.
fn zeroed() -> RunResult {
    let mut r = RunResult::default();
    for (name, _) in PER_LAYER {
        r.metrics.set(name, 0.0);
    }
    r
}

/// Write the spans to `RUN_ROOT/trace-<workload>.json`.
fn write_trace(
    workload: &str,
    hosts: &[(String, &HostSummary)],
    prof: &BTreeMap<&'static str, SpanTotal>,
) -> Result<String, String> {
    let rows: Vec<(String, u64, u64, u64)> = prof
        .iter()
        .map(|(n, t)| (n.to_string(), t.count, t.total_ns, t.self_ns))
        .collect();
    std::fs::create_dir_all(RUN_ROOT).map_err(|e| format!("create {RUN_ROOT}: {e}"))?;
    let path = format!("{RUN_ROOT}/trace-{workload}.json");
    std::fs::write(&path, render_json(workload, hosts, &rows))
        .map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

/// Figures of the kill / restart phase.
struct Restart {
    catchup_s: f64,
    bytes_synced: u64,
    replayed_batches: u64,
}

/// What one event-loop thread did while tracing was on.
struct HostObs {
    label: String,
    /// Spans recorded by the wrappers.
    trace: HostSummary,
    /// The crates' own profiler spans on that thread.
    profile: ProfileReport,
    /// CPU time of the thread.
    cpu: CpuTime,
}

impl HostObs {
    /// Spans are wall-clock. On a host with more runnable threads than
    /// cores a span also covers the time its thread sat preempted, so
    /// each thread's spans are scaled to the CPU time the thread really
    /// got. (An idle thread has less span time than CPU time; it is not
    /// scaled up.)
    fn cpu_scale(&self) -> f64 {
        let wall = self.trace.role_ns(Role::Replica)
            + self.trace.role_ns(Role::Client)
            + self.trace.get(None, "send").total_ns;
        ratio(self.cpu.total_us() as f64 * 1e3, wall as f64).min(1.0)
    }
}

/// Everything a traced kv run observed.
struct KvObserved<'a> {
    workload: &'a str,
    pbft: PbftConfig,
    /// Per event-loop thread: the replicas, then the driver.
    hosts: Vec<HostObs>,
    /// Statistics of the runtimes that ran replicas.
    stats: Vec<Stats>,
    /// Counters of every TCP endpoint.
    net: Vec<TransportStats>,
    off: Window,
    on: Window,
    tally: Tally,
    /// Read+write syscalls of the process during `on`.
    syscalls: u64,
    /// Growth of the node data dirs during `on`.
    disk_bytes: u64,
    restart: Option<Restart>,
    /// Scratch space for the `net`/`wal` replays; `None` when the
    /// workload bypasses both layers.
    replay_dir: Option<&'a Path>,
    checks: Vec<String>,
}

fn kv_result(o: KvObserved<'_>) -> Result<RunResult, String> {
    let txns = completions(&o.on, &o.tally) as f64;
    let txns_off = completions(&o.off, &o.tally) as f64;
    if txns == 0.0 || txns_off == 0.0 {
        return Err("no transaction completed inside a traced window".into());
    }
    let prof = merge_profiles(o.hosts.iter().map(|h| &h.profile));
    let span = |name: &str| prof.get(name).copied().unwrap_or_default();
    let counter = |name: &str| o.stats.iter().map(|s| s.counter(name)).sum::<u64>() as f64;
    let (exec, smt, walc) = (
        span("pbft.exec"),
        span("smt.update"),
        span("wal.group_commit"),
    );

    let frames: u64 = o.hosts.iter().map(|h| h.trace.frames).sum();
    let wire_bytes: f64 = o
        .hosts
        .iter()
        .map(|h| h.trace.frames as f64 * h.trace.mean_frame_bytes)
        .sum();
    let replica_msgs: u64 = o
        .hosts
        .iter()
        .map(|h| h.trace.role_msgs(Role::Replica))
        .sum();
    let signed: u64 = o
        .hosts
        .iter()
        .flat_map(|h| {
            SIGNED_KINDS
                .iter()
                .map(|k| h.trace.get(Some(Role::Replica), k).count)
        })
        .sum();

    // The layer table, CPU µs per committed transaction. Per thread its
    // rows partition the time inside actor callbacks and transport sends
    // exactly: pbft.exec nests smt.update and wal.group_commit, the rest
    // of a replica callback is consensus (with the mempool and crypto
    // calls it makes), and client callbacks and sends are their own rows.
    // What the process spent outside its event-loop threads is the
    // transport's reader and sender threads.
    let us = |ns: f64| ns / 1e3 / txns;
    let scaled = |f: &dyn Fn(&HostObs) -> u64| -> f64 {
        o.hosts.iter().map(|h| f(h) as f64 * h.cpu_scale()).sum()
    };
    let own = |h: &HostObs, name: &str| -> (u64, u64) {
        h.profile
            .spans
            .iter()
            .find(|s| s.name == name)
            .map_or((0, 0), |s| (s.total_ns, s.self_ns))
    };
    let smt_ns = scaled(&|h| own(h, "smt.update").1);
    let exec_ns = scaled(&|h| own(h, "pbft.exec").1);
    let wal_ns = scaled(&|h| own(h, "wal.group_commit").1);
    let consensus_ns = scaled(&|h| {
        h.trace
            .role_ns(Role::Replica)
            .saturating_sub(own(h, "pbft.exec").0)
    });
    let nested_ns = scaled(&|h| {
        let (total, own_self) = own(h, "pbft.exec");
        total.saturating_sub(own_self + own(h, "smt.update").1 + own(h, "wal.group_commit").1)
    });
    let client_ns = scaled(&|h| h.trace.role_ns(Role::Client));
    let send_ns = scaled(&|h| h.trace.get(None, "send").total_ns);
    let cpu_on = o.on.cpu_total();
    let loops_us: u64 = o.hosts.iter().map(|h| h.cpu.total_us()).sum();
    let net_threads_us = cpu_on.total_us().saturating_sub(loops_us) as f64 / txns;
    let rows = [
        ("store (smt.update)", us(smt_ns)),
        ("ledger (pbft.exec self)", us(exec_ns)),
        ("wal (group_commit)", us(wal_ns)),
        ("other spans inside pbft.exec", us(nested_ns)),
        ("consensus+mempool+crypto", us(consensus_ns)),
        ("clients", us(client_ns)),
        ("net (transport send)", us(send_ns)),
        ("net (reader+sender threads)", net_threads_us),
    ];
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    let cpu_us_per_txn = cpu_on.total_us() as f64 / txns;
    let cpu_off_per_txn = o.off.cpu_total().total_us() as f64 / txns_off;

    let mut r = zeroed();
    r.attempted = o.tally.attempted;
    r.failed = o.tally.failed();
    r.correct = o.checks.is_empty();
    r.notes
        .extend(o.checks.iter().cloned().map(|e| ("check_failed", e)));
    let m = &mut r.metrics;

    // Captured stream → layer replays.
    let msgs: Vec<_> = o
        .hosts
        .iter()
        .flat_map(|h| h.trace.msgs.iter().cloned())
        .collect();
    let blocks = o
        .hosts
        .iter()
        .map(|h| &h.trace.blocks)
        .max_by_key(|b| b.len())
        .cloned()
        .unwrap_or_default();
    if blocks.is_empty() {
        return Err("the traced run captured no proposed block".into());
    }
    let cry = layers::crypto();
    let pool = layers::mempool(&blocks, o.pbft.batch_size);
    let mut state = layers::warm_state();
    let ex = layers::exec(&mut state, &blocks);
    if let Some(dir) = o.replay_dir {
        let w = layers::wire(&msgs);
        m.set("net.wire.encode_ns_per_msg", w.encode_ns_per_msg);
        m.set("net.wire.decode_ns_per_msg", w.decode_ns_per_msg);
        m.set("net.transport.rtt_us", layers::transport_rtt_us()?);
        let wc = layers::wal(
            dir,
            &mut state,
            &blocks,
            o.pbft.checkpoint_interval as usize,
        )?;
        m.set("wal.append_ns_per_rec", wc.append_ns_per_rec);
        m.set(
            "wal.fsyncs_per_block",
            wc.fsyncs_per_commit * ratio(walc.count as f64, exec.count as f64),
        );
        m.set("wal.ckpt_persist_ms_per_ckpt", wc.ckpt_persist_ms);
    }

    m.set("net.wire.bytes_per_txn", wire_bytes / txns);
    m.set("net.transport.frames_per_txn", frames as f64 / txns);
    m.set(
        "net.transport.send_ns_per_frame",
        ratio(send_ns, frames as f64),
    );
    m.set(
        "net.transport.tx_dropped",
        o.net
            .iter()
            .map(|n| n.tx_dropped + n.tx_failed)
            .sum::<u64>() as f64,
    );
    m.set(
        "net.transport.rx_rejected",
        o.net.iter().map(|n| n.rx_rejected).sum::<u64>() as f64,
    );
    m.set("net.syscalls_per_txn", o.syscalls as f64 / txns);
    m.set(
        "net.sys_cpu_frac",
        ratio(cpu_on.sys_us as f64, cpu_on.total_us() as f64),
    );

    m.set("consensus.msgs_per_txn", replica_msgs as f64 / txns);
    m.set(
        "consensus.txs_per_block",
        ratio(
            counter(cstat::TXN_COMMITTED),
            counter(cstat::BLOCKS_COMMITTED),
        ),
    );
    m.set("consensus.replica_self_us_per_txn", us(consensus_ns));
    m.set("consensus.view_changes", counter(cstat::VIEW_CHANGES));
    m.set("consensus.ckpt_certs", counter(cstat::CKPT_CERTS));

    m.set("mempool.admit_ns_per_tx", pool.admit_ns_per_tx);
    m.set("mempool.batch_ns_per_tx", pool.batch_ns_per_tx);
    let queue = o
        .stats
        .iter()
        .filter_map(|s| s.histogram(mstat::QUEUE_LATENCY))
        .max_by_key(|h| h.count());
    m.set(
        "mempool.queue_wait_p50_ms",
        queue.map_or(0.0, |h| h.quantile(0.5).as_nanos() as f64 / 1e6),
    );
    m.set(
        "mempool.timeout_flush_frac",
        ratio(counter(mstat::TIMEOUT_FLUSHES), counter(mstat::BATCHES)),
    );
    m.set("mempool.rejected", counter(mstat::REJECTED_FULL));

    m.set("ledger.exec_self_us_per_txn", us(exec_ns));
    m.set("ledger.exec_ns_per_op", ex.exec_ns_per_op);
    m.set(
        "store.smt_update_ns_per_op",
        ratio(smt.total_ns as f64, smt.count as f64),
    );
    m.set("store.smt_updates_per_txn", smt.count as f64 / txns);
    m.set(
        "store.smt_batch_apply_ns_per_op",
        ex.smt_batch_apply_ns_per_op,
    );
    m.set(
        "store.smt_busy_frac",
        ratio(smt_ns / 1e3, cpu_on.total_us() as f64),
    );

    m.set("crypto.sha256_ns_per_kib", cry.sha256_ns_per_kib);
    m.set("crypto.sign_ns_per_op", cry.sign_ns_per_op);
    m.set(
        "crypto.verify_batch_ns_per_sig",
        cry.verify_batch_ns_per_sig,
    );
    m.set("crypto.sigs_per_txn", signed as f64 / txns);

    m.set(
        "wal.fsync_us_per_commit",
        ratio(walc.total_ns as f64 / 1e3, walc.count as f64),
    );
    m.set("wal.disk_bytes_per_txn", o.disk_bytes as f64 / txns);
    m.set(
        "wal.pages_written_per_ckpt",
        ratio(
            counter(cstat::WAL_PAGES_WRITTEN),
            counter(cstat::WAL_CHECKPOINTS),
        ),
    );
    m.set("wal.gc_runs", counter(cstat::WAL_GC_RUNS));

    if let Some(rs) = &o.restart {
        m.set("sync.restart_catchup_s", rs.catchup_s);
        m.set("sync.bytes_synced", rs.bytes_synced as f64);
        m.set("sync.replayed_batches", rs.replayed_batches as f64);
    }

    let mut window_latencies: Vec<u64> = {
        let (lo, hi) = (o.on.bounds[0], o.on.bounds[o.on.bounds.len() - 1]);
        let inside = o
            .tally
            .samples
            .iter()
            .filter(|s| s.done_ns >= lo && s.done_ns < hi);
        inside.map(|s| s.latency_ns).collect()
    };
    window_latencies.sort_unstable();
    for (name, p) in [
        ("clients.latency_p50_ms", 50.0),
        ("clients.latency_p99_ms", 99.0),
    ] {
        m.set(
            name,
            percentile(&window_latencies, p).map_or(0.0, |ns| ns as f64 / 1e6),
        );
    }
    m.set(
        "clients.generator_lag_p99_ms",
        percentile(&o.tally.lag_ns, 99.0).map_or(0.0, |ns| ns as f64 / 1e6),
    );
    m.set("clients.retries", o.tally.retries as f64);
    m.set("layers.attributed_frac", attributed / cpu_us_per_txn);
    m.set(
        "layers.unattributed_us_per_txn",
        cpu_us_per_txn - attributed,
    );
    m.set(
        "trace.overhead_frac",
        cpu_us_per_txn / cpu_off_per_txn - 1.0,
    );
    m.set("trace.cpu_us_per_txn", cpu_us_per_txn);

    let host_refs: Vec<(String, &HostSummary)> = o
        .hosts
        .iter()
        .map(|h| (h.label.clone(), &h.trace))
        .collect();
    let path = write_trace(o.workload, &host_refs, &prof)?;
    r.notes.push(("trace_file", path));
    r.notes.push(("traced_txns", format!("{txns}")));
    r.notes.push((
        "state_syncs",
        format!(
            "chunked={} tail_catchups={} heartbeat_triggered={}",
            counter(cstat::SYNC_COMPLETED),
            counter(cstat::SYNC_TAILS),
            counter("consensus.heartbeat_syncs")
        ),
    ));
    for (name, v) in rows {
        r.notes
            .push(("layer_cpu_us_per_txn", format!("{name:<28} {v:>9.2}")));
    }
    let row = |name: &str, v: f64| ("layer_cpu_us_per_txn", format!("{name:<28} {v:>9.2}"));
    r.notes.push(row(
        "unattributed (event loops)",
        cpu_us_per_txn - attributed,
    ));
    r.notes
        .push(row("= cpu_us_per_txn (traced)", cpu_us_per_txn));
    Ok(r)
}

/// Traced `inproc_kv_sat`: one runtime, every actor wrapped.
pub fn run_inproc(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let host = tracer.host();
    let wrap = |role: Role, a: BoxedActor| TracedActor::wrap(a, host.clone(), role);
    let mut l = inproc::launch(seed, &wrap)?;
    let me = std::process::id();
    let cpu = || procfs::cpu_time(me).unwrap_or_default();
    warm_up(&mut l.rt, &l.clients, seconds)?;
    let off = window(&mut l.rt, &l.clients, seconds * OFF_SHARE, &cpu);
    tracer.set(true);
    Profiler::enable();
    let io0 = procfs::io_syscalls(me).unwrap_or(0);
    let on = window(&mut l.rt, &l.clients, seconds * (1.0 - OFF_SHARE), &cpu);
    tracer.set(false);
    let profile = Profiler::take();
    let syscalls = procfs::io_syscalls(me).unwrap_or(0) - io0;
    // One thread does everything here, so its CPU is the window's.
    let thread_cpu = on.cpu_total();
    let tally = finish(&mut l.rt, &l.clients);
    l.rt.run_for(Duration::from_millis(200));
    let pbft = inproc::config(seed);
    let checks = check_digests(&inproc::replica_states(&l.rt)?, pbft.quorum()).err();
    kv_result(KvObserved {
        workload: "inproc_kv_sat",
        pbft,
        hosts: vec![HostObs {
            label: "runtime".into(),
            trace: host.summary(),
            profile,
            cpu: thread_cpu,
        }],
        stats: vec![l.rt.stats().clone()],
        net: Vec::new(),
        off,
        on,
        tally,
        syscalls,
        disk_bytes: 0,
        restart: None,
        replay_dir: None,
        checks: checks.into_iter().collect(),
    })
}

/// Ask replica `r` for its height until it reports at least `target`.
fn await_height(rt: &mut NodeRuntime<PbftMsg>, r: usize, target: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        rt.clear_status_replies();
        rt.send_control(r, Control::Status);
        rt.run_for(Duration::from_millis(20));
        let seen = rt.status_replies().get(&r).map(|s| s.height);
        if seen.is_some_and(|h| h >= target) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "replica {r} did not catch up to height {target} within 60 s (at {seen:?})"
            ));
        }
    }
}

/// Traced `tcp_kv_*`: one thread and runtime per replica over real TCP
/// inside this process. With `restart`, the highest-index follower is
/// killed after the window, the committee runs on without it, and its
/// recovery is timed.
pub fn run_tcp(
    label: &str,
    seed: u64,
    seconds: f64,
    load: Load,
    restart: bool,
) -> Result<RunResult, String> {
    let dir = RunDir::create(label)?;
    let addrs = tcp::free_addrs(N + 1)?;
    let data = dir.path().join("data");
    let cf = cluster_file(seed, Some(data.clone()), &addrs[..N], addrs[N]);
    let tracer = Arc::new(Tracer::new());
    let mut threads: Vec<Option<ReplicaThread>> = (0..N)
        .map(|me| Some(ReplicaThread::spawn(&cf, me, false, &tracer)))
        .collect();

    let driver_trace = tracer.host();
    let (transport, ids) = tcp::driver_transport(&cf)?;
    let transport = TracedTransport::wrap(Box::new(transport), driver_trace.clone(), ids);
    let mut rt = NodeRuntime::new(transport, cf.num_nodes(), seed);
    let wrap = |role: Role, a: BoxedActor| TracedActor::wrap(a, driver_trace.clone(), role);
    let clients = add_clients(&mut rt, seed, load, &wrap);
    await_first_reply(&mut rt, &clients)?;

    let me = std::process::id();
    let cpu = || procfs::cpu_time(me).unwrap_or_default();
    warm_up(&mut rt, &clients, seconds)?;
    let off = window(&mut rt, &clients, seconds * OFF_SHARE, &cpu);
    tracer.set(true);
    let (io0, disk0) = (
        procfs::io_syscalls(me).unwrap_or(0),
        procfs::dir_bytes(&data),
    );
    let driver_cpu0 = procfs::thread_cpu_time().unwrap_or_default();
    let on = window(&mut rt, &clients, seconds * (1.0 - OFF_SHARE), &cpu);
    tracer.set(false);
    let driver_cpu = procfs::thread_cpu_time()
        .unwrap_or_default()
        .minus(driver_cpu0);
    let syscalls = procfs::io_syscalls(me).unwrap_or(0) - io0;
    let disk_bytes = procfs::dir_bytes(&data).saturating_sub(disk0);

    let mut reports: Vec<(String, HostReport)> = Vec::new();
    let mut catchup_s = None;
    if restart {
        let victim = N - 1;
        let at_kill = tcp::status_sweep(&mut rt)?
            .iter()
            .map(|(h, _)| *h)
            .max()
            .unwrap_or(0);
        let first_life = threads[victim].take().expect("running").stop()?;
        reports.push((format!("replica-{victim}-killed"), first_life));
        rt.run_for(DOWN);
        threads[victim] = Some(ReplicaThread::spawn(&cf, victim, true, &tracer));
        let t0 = Instant::now();
        await_height(&mut rt, victim, at_kill)?;
        catchup_s = Some(t0.elapsed().as_secs_f64());
    }

    let tally = finish(&mut rt, &clients);
    rt.run_for(Duration::from_millis(200));
    let pbft = cf.pbft_config();
    let mut checks: Vec<String> = tcp::status_sweep(&mut rt)
        .and_then(|s| check_digests(&s, pbft.quorum()))
        .err()
        .into_iter()
        .collect();
    let driver_net = rt.transport().stats();
    for (me, t) in threads.into_iter().enumerate() {
        reports.push((format!("replica-{me}"), t.expect("running").stop()?));
    }
    rt.shutdown_transport();
    // The last report is the victim's second life.
    let restart_figures = catchup_s.map(|catchup_s| {
        let reborn = &reports[reports.len() - 1].1.stats;
        Restart {
            catchup_s,
            bytes_synced: reborn.counter(cstat::SYNC_BYTES),
            replayed_batches: reborn.counter(cstat::WAL_REPLAYED),
        }
    });
    if reports
        .iter()
        .any(|(_, h)| h.stats.counter(cstat::WAL_IO_CRASHES) > 0)
    {
        checks.push("a replica hit a WAL I/O failure".into());
    }

    let mut hosts = Vec::new();
    let (mut stats, mut net) = (Vec::new(), vec![driver_net]);
    for (label, h) in reports {
        hosts.push(HostObs {
            label,
            trace: h.trace,
            profile: h.profile,
            cpu: h.cpu,
        });
        stats.push(h.stats);
        net.push(h.net);
    }
    hosts.push(HostObs {
        label: "driver".into(),
        trace: driver_trace.summary(),
        profile: ProfileReport::default(),
        cpu: driver_cpu,
    });
    kv_result(KvObserved {
        workload: label,
        pbft,
        hosts,
        stats,
        net,
        off,
        on,
        tally,
        syscalls,
        disk_bytes,
        restart: restart_figures,
        replay_dir: Some(dir.path()),
        checks,
    })
}

/// Traced `sim_xshard`: the same simulation once as shipped and once with
/// the crates' profiler on; outputs must agree exactly.
pub fn run_sim(seed: u64) -> Result<RunResult, String> {
    let plain = sim::timed(sim::config(seed, true, false));
    let traced = sim::timed(sim::config(seed, true, true));
    let mt = &traced.report.metrics;
    let mut r = zeroed();
    let checks: Vec<String> = [&plain, &traced]
        .iter()
        .filter_map(|rep| sim::check(&rep.report.metrics, &plain.report.metrics).err())
        .collect();
    r.correct = checks.is_empty();
    r.notes
        .extend(checks.into_iter().map(|e| ("check_failed", e)));
    r.attempted = mt.committed + mt.aborted + mt.stalled;
    r.failed = mt.stalled + mt.rejected;

    let profile = traced
        .report
        .profile
        .clone()
        .ok_or("the simulator returned no profile")?;
    let prof = merge_profiles([&profile]);
    let span = |name: &str| prof.get(name).copied().unwrap_or_default();
    let st = &traced.report.stats;
    let counter = |name: &str| st.counter(name) as f64;
    let txns = mt.committed as f64;
    let finished = (mt.committed + mt.aborted) as f64;
    let (exec, smt, coord) = (
        span("pbft.exec"),
        span("smt.update"),
        span("txn.coordinator"),
    );
    let cpu_us = traced.cpu.total_us() as f64;
    let cpu_us_per_txn = cpu_us / txns;
    let messages = counter("net.messages_sent");
    let attributed_us = profile.self_total_ns() as f64 / 1e3;

    let m = &mut r.metrics;
    m.set("consensus.msgs_per_txn", messages / txns);
    m.set(
        "consensus.txs_per_block",
        ratio(
            counter(cstat::TXN_COMMITTED),
            counter(cstat::BLOCKS_COMMITTED),
        ),
    );
    m.set("consensus.view_changes", mt.view_changes as f64);
    m.set("consensus.ckpt_certs", counter(cstat::CKPT_CERTS));
    m.set(
        "mempool.queue_wait_p50_ms",
        st.histogram(mstat::QUEUE_LATENCY)
            .map_or(0.0, |h| h.quantile(0.5).as_nanos() as f64 / 1e6),
    );
    m.set(
        "mempool.timeout_flush_frac",
        ratio(counter(mstat::TIMEOUT_FLUSHES), counter(mstat::BATCHES)),
    );
    m.set("mempool.rejected", mt.pool_rejections as f64);
    m.set(
        "ledger.exec_self_us_per_txn",
        exec.self_ns as f64 / 1e3 / txns,
    );
    m.set("ledger.lock_conflict_frac", mt.abort_rate);
    m.set(
        "store.smt_update_ns_per_op",
        ratio(smt.total_ns as f64, smt.count as f64),
    );
    m.set("store.smt_updates_per_txn", smt.count as f64 / txns);
    m.set(
        "store.smt_busy_frac",
        ratio(smt.self_ns as f64 / 1e3, cpu_us),
    );
    m.set(
        "txn.coordinator_ns_per_step",
        ratio(coord.total_ns as f64, coord.count as f64),
    );
    m.set(
        "txn.steps_per_xtxn",
        ratio(coord.count as f64, counter(sysstat::SYS_CROSS_SHARD)),
    );
    m.set("txn.abort_frac", ratio(mt.aborted as f64, finished));
    m.set("txn.cross_shard_frac", mt.cross_shard_fraction);
    m.set("core.xclient_stalled", mt.stalled as f64);
    m.set(
        "clients.latency_p50_ms",
        mt.latency_p50.as_nanos() as f64 / 1e6,
    );
    m.set(
        "clients.latency_p99_ms",
        mt.latency_p99.as_nanos() as f64 / 1e6,
    );
    // The engine exposes no event count through `run_system_report`; a
    // message handed to the simulated network is the countable event
    // (each becomes one delivery; timers and queue drains ride along).
    m.set("simkit.events_per_txn", messages / txns);
    m.set(
        "simkit.dispatch_ns_per_event",
        ratio(
            (profile.wall_ns as f64 - profile.self_total_ns() as f64).max(0.0),
            messages,
        ),
    );
    m.set("layers.attributed_frac", attributed_us / cpu_us);
    m.set(
        "layers.unattributed_us_per_txn",
        (cpu_us - attributed_us) / txns,
    );
    m.set(
        "trace.overhead_frac",
        cpu_us / plain.cpu.total_us() as f64 - 1.0,
    );
    m.set("trace.cpu_us_per_txn", cpu_us_per_txn);

    let path = write_trace("sim_xshard", &[], &prof)?;
    r.notes.push(("trace_file", path));
    r.notes.push(("profile", format!("\n{}", profile.render())));
    Ok(r)
}
