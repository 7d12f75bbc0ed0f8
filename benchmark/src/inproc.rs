//! `inproc_kv_sat`: the committee and its clients in **one**
//! [`NodeRuntime`] on one thread. Every send is a loopback delivery — no
//! codec, no sockets, no data dir — and MACs are real, so `store`,
//! `ledger`, `consensus`, `mempool` and `crypto` do all the work while
//! `net` and `wal` do none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ahl_consensus::pbft::{PbftConfig, PbftMsg, Replica};
use ahl_consensus::CryptoMode;
use ahl_net::{MemHub, NodeRuntime};

use crate::committee::{build_replica, cluster_file, crypto_name, N, NUM_NODES};
use crate::drive::{
    add_clients, await_first_reply, finish, summarize, unwrapped, warm_up, window, BoxedActor,
    ClientFigures, Clients, Load,
};
use crate::procfs;
use crate::report::RunResult;
use crate::stats::median;
use crate::trace::Role;

/// Set-ups timed per run (the run's `setup_s` is their median).
const SETUPS: usize = 5;

/// Replica settings of this workload.
pub fn config(seed: u64) -> PbftConfig {
    let any = "127.0.0.1:1".parse().expect("literal address");
    let mut pbft = cluster_file(seed, None, &[any; N], any).pbft_config();
    pbft.crypto = CryptoMode::Real;
    pbft
}

/// A launched in-process committee.
pub struct Launched {
    /// The one runtime hosting replicas and clients.
    pub rt: NodeRuntime<PbftMsg>,
    /// Client handles.
    pub clients: Clients,
    /// Launch start → first committed reply.
    pub setup: Duration,
}

/// Build the committee and its clients and run until the first reply.
/// Every actor passes through `wrap` before it is handed to the runtime
/// (the traced run wraps them in span recorders).
pub fn launch(
    seed: u64,
    wrap: &dyn Fn(Role, BoxedActor) -> BoxedActor,
) -> Result<Launched, String> {
    let t0 = Instant::now();
    let pbft = config(seed);
    let hub: Arc<MemHub<PbftMsg>> = Arc::new(MemHub::new());
    let mut rt = NodeRuntime::new(
        Box::new(hub.endpoint((0..NUM_NODES).collect())),
        NUM_NODES,
        seed,
    );
    for me in 0..N {
        rt.add_actor(
            me,
            wrap(Role::Replica, Box::new(build_replica(&pbft, seed, me))),
        );
    }
    let clients = add_clients(&mut rt, seed, Load::Closed, wrap);
    await_first_reply(&mut rt, &clients)?;
    Ok(Launched {
        rt,
        clients,
        setup: t0.elapsed(),
    })
}

/// Replicas at equal heights must hold equal state digests, and a quorum
/// must have reached the highest height once the committee is idle.
pub fn check_digests(states: &[(u64, ahl_crypto::Hash)], quorum: usize) -> Result<(), String> {
    for (i, (h, d)) in states.iter().enumerate() {
        if let Some((j, _)) = states
            .iter()
            .enumerate()
            .find(|(_, (h2, d2))| h2 == h && d2 != d)
        {
            return Err(format!(
                "replicas {i} and {j} disagree on the state digest at height {h}"
            ));
        }
    }
    let top = states.iter().map(|(h, _)| *h).max().unwrap_or(0);
    let at_top = states.iter().filter(|(h, _)| *h == top).count();
    if top == 0 || at_top < quorum {
        return Err(format!(
            "only {at_top} replicas reached height {top} (quorum {quorum})"
        ));
    }
    Ok(())
}

/// `(height, digest)` of every in-process replica (span wrappers forward
/// `as_any`, so traced replicas are inspectable too).
pub fn replica_states(rt: &NodeRuntime<PbftMsg>) -> Result<Vec<(u64, ahl_crypto::Hash)>, String> {
    (0..N)
        .map(|id| {
            let r = rt
                .actor(id)
                .and_then(|a| a.as_any()?.downcast_ref::<Replica>())
                .ok_or(format!("replica {id} not inspectable"))?;
            Ok((r.exec_seq(), r.state().state_digest()))
        })
        .collect()
}

/// Identical, independent copies of the workload run side by side, one
/// per thread. A lone busy thread on a two-way SMT host runs up to a third
/// faster or slower depending on what its sibling hardware thread happens
/// to be doing; with both kept busy by the same work the host is in one
/// known state, as it is under the multi-process workloads, and run-to-run
/// spread halves. Every figure is the mean over the copies.
const INSTANCES: usize = 2;

/// What one copy measured.
struct Instance {
    fig: ClientFigures,
    attempted: u64,
    failed: u64,
    setup_s: f64,
    agree: Result<(), String>,
}

/// One copy: the committee and its clients on the calling thread.
fn instance(seed: u64, seconds: f64) -> Result<Instance, String> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        setups.push(launch(seed, &unwrapped)?.setup.as_secs_f64());
    }
    let mut l = launch(seed, &unwrapped)?;
    setups.push(l.setup.as_secs_f64());

    // One thread runs everything, so its CPU clock is the copy's.
    let cpu = || procfs::thread_cpu_time().unwrap_or_default();
    warm_up(&mut l.rt, &l.clients, seconds)?;
    let w = window(&mut l.rt, &l.clients, seconds, &cpu);
    let t = finish(&mut l.rt, &l.clients);
    let fig = summarize(&w, &t)?;
    // Let the last commits reach every replica, then compare.
    l.rt.run_for(Duration::from_millis(200));
    let agree = check_digests(&replica_states(&l.rt)?, config(seed).quorum());
    Ok(Instance {
        fig,
        attempted: t.attempted,
        failed: t.failed(),
        setup_s: median(&setups).expect("at least one set-up"),
        agree,
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let copies: Vec<Instance> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..INSTANCES)
            .map(|_| s.spawn(|| instance(seed, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a workload thread panicked".to_string())?
            })
            .collect::<Result<_, String>>()
    })?;
    let mean =
        |f: &dyn Fn(&Instance) -> f64| copies.iter().map(f).sum::<f64>() / copies.len() as f64;

    let mut r = RunResult {
        attempted: copies.iter().map(|c| c.attempted).sum(),
        failed: copies.iter().map(|c| c.failed).sum(),
        ..Default::default()
    };
    r.correct = copies.iter().all(|c| c.agree.is_ok() && c.fig.samples > 0);
    r.notes.extend(
        copies
            .iter()
            .filter_map(|c| c.agree.clone().err())
            .map(|e| ("check_failed", e)),
    );
    r.metrics
        .set("committed_tps", mean(&|c| c.fig.committed_tps));
    r.metrics
        .set("cpu_us_per_txn", mean(&|c| c.fig.cpu_us_per_txn));
    r.metrics.set(
        "peak_rss_mb",
        procfs::peak_rss_mib(std::process::id()).ok_or("cannot read own VmHWM")?,
    );
    r.metrics.set("setup_s", mean(&|c| c.setup_s));
    r.notes.push((
        "latency_p50_ms",
        format!("{:.3} (not gated)", mean(&|c| c.fig.latency_p50_ms)),
    ));
    r.notes
        .push(("crypto_mode", crypto_name(config(seed).crypto).into()));
    r.notes.push((
        "copies",
        format!("{INSTANCES} side by side; committed_tps is per copy"),
    ));
    r.notes.push((
        "latency_samples",
        copies
            .iter()
            .map(|c| c.fig.samples)
            .sum::<u64>()
            .to_string(),
    ));
    for c in &copies {
        r.notes
            .push(("slice_tps", format!("{:?}", c.fig.slice_tps)));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256;

    #[test]
    fn digest_check_flags_divergence_and_thin_quorum() {
        let (a, b) = (sha256(b"a"), sha256(b"b"));
        assert!(check_digests(&[(5, a), (5, a), (5, a), (4, b)], 3).is_ok());
        assert!(
            check_digests(&[(5, a), (5, b), (5, a), (5, a)], 3).is_err(),
            "divergence"
        );
        assert!(
            check_digests(&[(5, a), (4, b), (4, b), (3, a)], 3).is_err(),
            "no quorum at top"
        );
        assert!(check_digests(&[(0, a); 4], 3).is_err(), "nothing executed");
    }
}
