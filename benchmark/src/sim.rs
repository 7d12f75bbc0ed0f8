//! `sim_xshard`: the full sharded system on the simulator — 4 shards × 4
//! replicas plus the reference committee, Smallbank over 20 000 accounts,
//! 16 cross-shard clients × 32 outstanding — through the shipped
//! [`run_system_report`]. The only workload where the 2PC coordinator,
//! 2PL locks, the cross-shard client and the simkit engine run.
//!
//! Simulated outputs (throughput, latency, commit and abort counts) are a
//! pure function of the seed, so one invocation repeats the *same*
//! simulation until `--seconds` of host time are used: every repetition
//! must reproduce the first one's outputs exactly, and the host-time
//! figures are medians over the repetitions. Repetitions run two at a
//! time on two threads, for the reason `inproc_kv_sat` runs two copies: a
//! lone busy thread's speed swings with the state of its sibling hardware
//! thread, two busy ones hold the host in one known state.
//!
//! One round is a set-up probe followed by a repetition on each thread, so
//! the probes sample the host at the same moments as the repetitions they
//! are subtracted from. The first round is a warm-up and is not counted:
//! it runs on a fresh heap and is a tenth to a third slower than every
//! later one. A single repetition's host time swings by ±15 % on a shared
//! host whatever runs beside it, so the window has to hold many of them:
//! the figures are medians over every repetition the window holds.
//!
//! Before, between and after the probe and the repetition each thread
//! takes a sample of the [`hostref`] kernel, and each CPU time is scaled
//! to the reference host by the two samples that bracket it: the host's
//! memory system changes speed in modes that outlast a run, and this
//! workload, a few hundred MiB of hash maps and Merkle nodes, follows it.

use std::time::Instant;

use ahl_core::{run_system_report, SystemConfig, SystemMetrics, SystemReport, SystemWorkload};
use ahl_simkit::SimDuration;

use crate::hostref;
use crate::procfs::{self, CpuTime};
use crate::report::RunResult;
use crate::stats::median;

/// Simulated seconds before the measured window.
const WARMUP_SIM_S: u64 = 1;
/// Simulated seconds measured per repetition.
const MEASURE_SIM_S: u64 = 5;
/// Simulations run side by side.
const PARALLEL: usize = 2;
/// Account population; the genesis balance of each of its two tables.
const ACCOUNTS: usize = 20_000;

/// The system under test. `measure = false` gives the set-up probe: the
/// same committees, ledgers and clients, stopped after one simulated
/// millisecond of load.
pub fn config(seed: u64, measure: bool, profile: bool) -> SystemConfig {
    let mut cfg = SystemConfig::new(4, 4);
    cfg.clients = 16;
    cfg.outstanding = 32;
    cfg.workload = SystemWorkload::SmallBank {
        accounts: ACCOUNTS,
        theta: 0.0,
    };
    cfg.batch_size = 64;
    cfg.exec_workers = 1;
    cfg.seed = seed;
    cfg.profile = profile;
    if measure {
        cfg.warmup = SimDuration::from_secs(WARMUP_SIM_S);
        cfg.duration = SimDuration::from_secs(MEASURE_SIM_S);
    } else {
        cfg.warmup = SimDuration::ZERO;
        cfg.duration = SimDuration::from_millis(1);
    }
    cfg
}

/// One timed call of the simulator.
pub struct Rep {
    /// What the simulation reported.
    pub report: SystemReport,
    /// Host wall time of the call.
    pub wall_s: f64,
    /// Host CPU time of the call (the calling thread: with one execution
    /// worker the simulator runs on it alone).
    pub cpu: CpuTime,
}

/// Run `cfg` once under a wall clock and a CPU clock.
pub fn timed(cfg: SystemConfig) -> Rep {
    let cpu0 = procfs::thread_cpu_time().unwrap_or_default();
    let t0 = Instant::now();
    let report = run_system_report(cfg);
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu: procfs::thread_cpu_time().unwrap_or_default().minus(cpu0),
        report,
    }
}

/// One set-up probe and one full repetition, with a sample of the host
/// reference before, between and after them.
struct Round {
    host_ns: [f64; 3],
    probe: Rep,
    rep: Rep,
}

impl Round {
    /// CPU µs of the measured load alone — the repetition minus the
    /// set-up probe — each first scaled to the reference host by the two
    /// samples that bracket it.
    fn load_cpu_us(&self) -> f64 {
        let [before, between, after] = self.host_ns;
        let scaled = |rep: &Rep, a: f64, b: f64| {
            rep.cpu.total_us() as f64 * hostref::NOMINAL_NS_PER_ACCESS / ((a + b) / 2.0)
        };
        scaled(&self.rep, between, after) - scaled(&self.probe, before, between)
    }

    /// The same difference as the clock read it.
    fn unscaled_load_cpu_us(&self) -> f64 {
        self.rep.cpu.total_us() as f64 - self.probe.cpu.total_us() as f64
    }
}

/// [`PARALLEL`] rounds side by side. `reference = false` skips the host
/// reference (its samples read as nominal).
fn round(seed: u64, reference: bool) -> Result<Vec<Round>, String> {
    let sample = move || {
        if reference {
            hostref::sample()
        } else {
            hostref::NOMINAL_NS_PER_ACCESS
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..PARALLEL)
            .map(|_| {
                s.spawn(move || {
                    let before = sample();
                    let probe = timed(config(seed, false, false));
                    let between = sample();
                    let rep = timed(config(seed, true, false));
                    Round {
                        host_ns: [before, between, sample()],
                        probe,
                        rep,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a simulator thread panicked".to_string())
            })
            .collect()
    })
}

/// The outputs that must repeat exactly for one seed.
fn fingerprint(m: &SystemMetrics) -> (u64, u64, u64, u64, Option<i64>) {
    (
        m.committed,
        m.aborted,
        m.tps.to_bits(),
        m.latency_p50.as_nanos(),
        m.final_balance,
    )
}

/// Output checks on one repetition; `first` is the repetition every later
/// one must equal.
pub fn check(m: &SystemMetrics, first: &SystemMetrics) -> Result<(), String> {
    if m.committed == 0 {
        return Err("no transaction committed".into());
    }
    // Smallbank moves money, it never mints it: the checking and savings
    // balances still sum to their genesis total.
    let genesis = smallbank_genesis_total();
    if m.final_balance != Some(genesis) {
        return Err(format!(
            "balance not conserved: {:?} != genesis {genesis}",
            m.final_balance
        ));
    }
    if m.proof_failures != 0 {
        return Err(format!("{} state-sync proof failures", m.proof_failures));
    }
    if fingerprint(m) != fingerprint(first) {
        return Err(format!(
            "same seed, different outputs: committed {} vs {}, aborted {} vs {}",
            m.committed, first.committed, m.aborted, first.aborted
        ));
    }
    Ok(())
}

/// Sum of all genesis balances of the workload.
fn smallbank_genesis_total() -> i64 {
    ahl_workload::SmallBankWorkload::paper(ACCOUNTS, 0.0)
        .genesis()
        .iter()
        .filter_map(|(_, v)| v.as_int())
        .sum()
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<RunResult, String> {
    // Warm-up round, not counted. Its repetition still has to reproduce
    // the outputs of the counted ones. Peak memory is read after it and
    // before the first reference sample: every round peaks alike, and the
    // reference's array is the benchmark's memory, not the program's.
    let warmup = round(seed, false)?;
    let peak_rss_mib = procfs::peak_rss_mib(std::process::id()).ok_or("cannot read own VmHWM")?;

    // At least one round (the repeat check needs a pair), then another
    // while more than half of it still fits the window.
    let window = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let t0 = Instant::now();
        rounds.extend(round(seed, true)?);
        if window.elapsed().as_secs_f64() + t0.elapsed().as_secs_f64() / 2.0 > seconds {
            break;
        }
    }
    let median_of = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).expect("a round")
    };
    let setup_s = median_of(&|r| r.probe.wall_s);
    let load_cpu_us = median_of(&Round::load_cpu_us);
    let unscaled_load_cpu_us = median_of(&Round::unscaled_load_cpu_us);
    let host_ns = median_of(&|r| r.host_ns[1]);

    let first = rounds[0].rep.report.metrics.clone();
    let checks: Vec<String> = rounds
        .iter()
        .chain(&warmup)
        .filter_map(|r| check(&r.rep.report.metrics, &first).err())
        .collect();

    let finished = first.committed + first.aborted;
    let mut r = RunResult {
        correct: checks.is_empty(),
        attempted: finished + first.stalled,
        failed: first.stalled + first.rejected,
        ..Default::default()
    };
    r.notes
        .extend(checks.into_iter().map(|e| ("check_failed", e)));
    let committed = first.committed as f64;
    r.metrics.set("committed_tps", first.tps);
    r.metrics
        .set("cpu_us_per_txn", load_cpu_us / committed);
    r.metrics.set("peak_rss_mb", peak_rss_mib);
    r.metrics.set("setup_s", setup_s);
    r.notes.push((
        "latency_p50_ms",
        format!(
            "{:.3} (simulated clock, not gated)",
            first.latency_p50.as_nanos() as f64 / 1e6
        ),
    ));
    r.notes.push((
        "clock",
        "committed_tps and latencies are on the simulated clock".into(),
    ));
    r.notes.push((
        "host",
        format!(
            "reference kernel {host_ns:.1} ns/access (nominal {:.0}); cpu_us_per_txn unscaled: {:.1} us",
            hostref::NOMINAL_NS_PER_ACCESS,
            unscaled_load_cpu_us / committed
        ),
    ));
    r.notes.push(("repetitions", rounds.len().to_string()));
    r.notes.push((
        "outputs",
        format!(
            "committed={} aborted={} cross_shard={:.3} host_s_per_rep={:?}",
            first.committed,
            first.aborted,
            first.cross_shard_fraction,
            rounds
                .iter()
                .map(|r| (r.rep.wall_s * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        ),
    ));
    Ok(r)
}
