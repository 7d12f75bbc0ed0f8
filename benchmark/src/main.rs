//! Host-time benchmark for the real path. See `README.md` beside this
//! package for what each workload and metric means.
//!
//! Contract form (one workload, one JSON result line last on stdout):
//!
//! ```text
//! benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! For people:
//!
//! ```text
//! benchmark run   [--seed <u64>] [--seconds <n>] [--smoke]   every workload, end-to-end table
//! benchmark trace [--seed <u64>] [--seconds <n>] [--smoke]   every workload, per-layer table
//! benchmark check-repeat [--seed <u64>] [--seconds <n>]      the full set twice, compared to the bounds
//! ```

mod clients;
mod committee;
mod drive;
mod hosted;
mod hostref;
mod inproc;
mod layers;
mod ops;
mod procfs;
mod report;
mod sim;
mod spec;
mod stats;
mod tcp;
mod trace;
mod traced;

use std::process::ExitCode;

use report::RunResult;

/// Window of `--smoke` runs.
const SMOKE_SECONDS: f64 = 2.0;

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    use drive::Load;
    let open = Load::Open {
        rate: tcp::OPEN_RATE,
    };
    match (name, traced) {
        ("tcp_kv_sat", false) => tcp::run(name, seed, seconds, Load::Closed),
        ("tcp_kv_rate", false) => tcp::run(name, seed, seconds, open),
        ("inproc_kv_sat", false) => inproc::run(seed, seconds),
        ("sim_xshard", false) => sim::run(seed, seconds),
        ("tcp_kv_sat", true) => traced::run_tcp(name, seed, seconds, Load::Closed, true),
        ("tcp_kv_rate", true) => traced::run_tcp(name, seed, seconds, open, false),
        ("inproc_kv_sat", true) => traced::run_inproc(seed, seconds),
        ("sim_xshard", true) => traced::run_sim(seed),
        _ => Err(format!(
            "unknown workload {name:?}; known: {}",
            spec::WORKLOADS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// Run every workload, printing each table; the results, or the first
/// failure.
fn run_all(
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Vec<(&'static str, RunResult)>, String> {
    let declared = if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut out = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let r = run_workload(name, seed, seconds, traced).map_err(|e| format!("{name}: {e}"))?;
        print!("{}", report::table(name, &r, declared));
        if !r.correct {
            return Err(format!("{name}: an output check failed"));
        }
        report::json_line(&r, declared).map_err(|e| format!("{name}: {e}"))?;
        out.push((*name, r));
    }
    Ok(out)
}

/// `check-repeat`: the full set twice back to back; every end-to-end
/// metric of the second set must be within its bound of the first.
fn check_repeat(seed: u64, seconds: f64) -> Result<(), String> {
    let bounds = spec::declared_bounds()?;
    let first = run_all(seed, seconds, false)?;
    let second = run_all(seed, seconds, false)?;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut breaches = 0;
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for (metric, higher_is_better, bound) in &bounds {
            let value =
                |r: &RunResult| r.metrics.get(metric).expect("run_all checked every metric");
            let (x, y) = (value(a), value(b));
            let worse = if *higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let breach = worse > *bound;
            breaches += usize::from(breach);
            println!(
                "{name:<14} {metric:<16} {x:>14.4} {y:>14.4} {:>8.1}% {:>6.0}%{}",
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    if breaches > 0 {
        return Err(format!(
            "{breaches} metric(s) moved by more than their bound between two runs of the same code"
        ));
    }
    Ok(())
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--smoke" => a.smoke = true,
            cmd if !cmd.starts_with('-') && a.command.is_none() => a.command = Some(cmd.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  benchmark run   [--seed <u64>] [--seconds <n>] [--smoke]
  benchmark trace [--seed <u64>] [--seconds <n>] [--smoke]
  benchmark check-repeat [--seed <u64>] [--seconds <n>]";

fn main_inner() -> Result<(), String> {
    let a = parse_args()?;
    let seconds = match (a.seconds, a.smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => spec::declared_run_seconds()?,
    };
    match (a.command.as_deref(), a.workload.as_deref()) {
        (None, Some(w)) => {
            let declared = if a.trace {
                spec::PER_LAYER
            } else {
                spec::END_TO_END
            };
            let r = run_workload(w, a.seed, seconds, a.trace)?;
            eprint!("{}", report::table(w, &r, declared));
            if !r.correct {
                return Err(format!("{w}: an output check failed"));
            }
            println!("{}", report::json_line(&r, declared)?);
            Ok(())
        }
        (Some("run"), None) => run_all(a.seed, seconds, false).map(drop),
        (Some("trace"), None) => run_all(a.seed, seconds, true).map(drop),
        (Some("check-repeat"), None) => check_repeat(a.seed, seconds),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
