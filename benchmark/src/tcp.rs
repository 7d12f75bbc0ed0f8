//! `tcp_kv_sat` and `tcp_kv_rate`: four shipped `node` processes over
//! localhost [`TcpTransport`] with a data dir, loaded from this process.
//! The whole real path: client submit → TCP → mempool → PBFT → execute →
//! WAL → reply.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ahl_bench::cluster::ClusterFile;
use ahl_consensus::pbft::PbftMsg;
use ahl_crypto::Hash;
use ahl_net::{Control, NodeRuntime, TcpConfig, TcpTransport};
use ahl_simkit::NodeId;

use crate::committee::{cluster_file, crypto_name, N};
use crate::drive::{
    add_clients, await_first_reply, finish, summarize, unwrapped, warm_up, window, Clients, Load,
};
use crate::inproc::check_digests;
use crate::procfs;
use crate::report::RunResult;
use crate::stats::median;

/// Set-ups timed per run (the run's `setup_s` is their median).
const SETUPS: usize = 3;
/// Fixed offered load of `tcp_kv_rate`, requests per second.
pub const OPEN_RATE: f64 = 4000.0;

/// Everything a run leaves on disk lives under this directory of the
/// working directory, one subdirectory per launch, removed afterwards.
pub const RUN_ROOT: &str = ".bench_run";

/// A per-launch scratch directory, removed when dropped — on success and
/// on every failure path alike.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Create a fresh directory `RUN_ROOT/<label>-<pid>-<n>` (relative to
    /// the working directory, so the path never contains the spaces a
    /// checkout's absolute path might).
    pub fn create(label: &str) -> Result<RunDir, String> {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = Path::new(RUN_ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The root goes too once the last launch is gone (fails, harmlessly,
        // while another launch or a trace file still lives there).
        let _ = std::fs::remove_dir(RUN_ROOT);
    }
}

/// Reserve `count` distinct localhost ports by binding ephemeral
/// listeners and releasing them.
pub fn free_addrs(count: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserve ports: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .collect()
}

/// The shipped `node` binary: built into the same directory as this
/// executable.
pub fn node_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let node = exe.with_file_name("node");
    node.is_file().then_some(node).ok_or_else(|| {
        format!(
            "no `node` binary beside {exe:?}; build it first: \
             cargo build --release -p ahl-bench --bin node"
        )
    })
}

/// The spawned committee. Whatever still runs when this drops is killed
/// and reaped: no orphan `node` processes, whichever way a run ends.
pub struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    /// Spawn replica processes `0..N` on `cfg_path`, logging into `dir`.
    pub fn spawn(node: &Path, cfg_path: &Path, dir: &Path) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            children: Vec::new(),
        };
        for i in 0..N {
            let log = std::fs::File::create(dir.join(format!("node-{i}.log")))
                .map_err(|e| format!("create node log: {e}"))?;
            let child = Command::new(node)
                .arg(cfg_path)
                .arg(i.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::from(log.try_clone().map_err(|e| e.to_string())?))
                .stderr(Stdio::from(log))
                .spawn()
                .map_err(|e| format!("spawn {node:?}: {e}"))?;
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// Process ids of the replicas.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Wait for every node to exit on its own (after `Control::Shutdown`);
    /// each must exit with status 0 within `limit`.
    pub fn wait_clean_exit(&mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        for (i, child) in self.children.iter_mut().enumerate() {
            loop {
                match child
                    .try_wait()
                    .map_err(|e| format!("wait node {i}: {e}"))?
                {
                    Some(status) if status.success() => break,
                    Some(status) => return Err(format!("node {i} exited uncleanly: {status}")),
                    None if Instant::now() > deadline => {
                        return Err(format!("node {i} did not shut down within {limit:?}"))
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        self.children.clear();
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The driver's transport endpoint (hosting every client actor id) and
/// those ids.
pub fn driver_transport(cf: &ClusterFile) -> Result<(TcpTransport<PbftMsg>, Vec<NodeId>), String> {
    let driver_addr = cf.clients[0].1;
    let ids: Vec<NodeId> = cf.clients.iter().map(|(id, _)| *id).collect();
    let mut tcp = TcpConfig::new(driver_addr, ids.clone(), cf.replicas.clone());
    tcp.cluster = cf.digest();
    let transport =
        TcpTransport::<PbftMsg>::start(tcp).map_err(|e| format!("driver transport: {e}"))?;
    Ok((transport, ids))
}

/// Ask every replica for `(height, digest)` over the control plane.
pub fn status_sweep(rt: &mut NodeRuntime<PbftMsg>) -> Result<Vec<(u64, Hash)>, String> {
    rt.clear_status_replies();
    for r in 0..N {
        rt.send_control(r, Control::Status);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while rt.status_replies().len() < N {
        if Instant::now() > deadline {
            return Err(format!(
                "only {} of {N} replicas answered a status probe",
                rt.status_replies().len()
            ));
        }
        rt.run_for(Duration::from_millis(5));
    }
    Ok((0..N)
        .map(|r| {
            let s = &rt.status_replies()[&r];
            (s.height, s.digest)
        })
        .collect())
}

/// A launched multi-process committee. Field order is drop order: the
/// fleet is killed before its directory is removed.
pub struct Launched {
    /// Driver runtime hosting the clients.
    pub rt: NodeRuntime<PbftMsg>,
    /// Client handles.
    pub clients: Clients,
    /// The replica processes.
    pub fleet: Fleet,
    /// Cluster description.
    pub cf: ClusterFile,
    /// Launch start → first committed reply.
    pub setup: Duration,
    /// Scratch directory (config, logs, node data dirs); held so that it
    /// is removed when the launch is dropped.
    _dir: RunDir,
}

/// Write the config, spawn the nodes, start the driver, and run until the
/// first committed reply.
pub fn launch(label: &str, seed: u64, load: Load) -> Result<Launched, String> {
    let node = node_binary()?;
    let t0 = Instant::now();
    let dir = RunDir::create(label)?;
    let addrs = free_addrs(N + 1)?;
    let cf = cluster_file(seed, Some(dir.path().join("data")), &addrs[..N], addrs[N]);
    let cfg_path = dir.path().join("cluster.cfg");
    std::fs::File::create(&cfg_path)
        .and_then(|mut f| f.write_all(cf.render().as_bytes()))
        .map_err(|e| format!("write {cfg_path:?}: {e}"))?;
    let fleet = Fleet::spawn(&node, &cfg_path, dir.path())?;
    let (transport, _) = driver_transport(&cf)?;
    let mut rt = NodeRuntime::new(Box::new(transport), cf.num_nodes(), seed);
    let clients = add_clients(&mut rt, seed, load, &unwrapped);
    await_first_reply(&mut rt, &clients)?;
    Ok(Launched {
        rt,
        clients,
        fleet,
        cf,
        setup: t0.elapsed(),
        _dir: dir,
    })
}

impl Launched {
    /// Stop the committee: every node must exit 0 after `Shutdown`.
    pub fn shutdown(mut self) -> Result<(), String> {
        for r in 0..N {
            self.rt.send_control(r, Control::Shutdown);
        }
        self.rt.run_for(Duration::from_millis(20));
        let exited = self.fleet.wait_clean_exit(Duration::from_secs(15));
        self.rt.shutdown_transport();
        exited
    }
}

/// The untraced run of either TCP workload: end-to-end metrics.
pub fn run(label: &str, seed: u64, seconds: f64, load: Load) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let l = launch(label, seed, load)?;
        setups.push(l.setup.as_secs_f64());
        l.shutdown()?;
    }
    let mut l = launch(label, seed, load)?;
    setups.push(l.setup.as_secs_f64());

    let pids = l.fleet.pids();
    let cpu = || procfs::cpu_time_sum(&pids);
    warm_up(&mut l.rt, &l.clients, seconds)?;
    let w = window(&mut l.rt, &l.clients, seconds, &cpu);
    let t = finish(&mut l.rt, &l.clients);
    let fig = summarize(&w, &t)?;
    let rss = procfs::peak_rss_mib_max(&pids).ok_or("cannot read the nodes' VmHWM")?;
    // Idle now: every replica that reports the same height must report
    // the same digest.
    l.rt.run_for(Duration::from_millis(200));
    let pbft = l.cf.pbft_config();
    let agree = status_sweep(&mut l.rt).and_then(|s| check_digests(&s, pbft.quorum()));
    let driver_net = l.rt.transport().stats();
    let exited = l.shutdown();

    let mut r = RunResult {
        attempted: t.attempted,
        failed: t.failed(),
        ..Default::default()
    };
    r.correct = agree.is_ok() && exited.is_ok() && fig.samples > 0;
    for e in [agree.err(), exited.err()].into_iter().flatten() {
        r.notes.push(("check_failed", e));
    }
    r.metrics.set("committed_tps", fig.committed_tps);
    r.notes.push((
        "latency_p50_ms",
        format!("{:.3} (not gated)", fig.latency_p50_ms),
    ));
    r.metrics.set("cpu_us_per_txn", fig.cpu_us_per_txn);
    r.metrics.set("peak_rss_mb", rss);
    r.metrics
        .set("setup_s", median(&setups).expect("at least one set-up"));
    r.notes
        .push(("driver_transport", format!("{driver_net:?}")));
    r.notes
        .push(("crypto_mode", crypto_name(pbft.crypto).into()));
    r.notes.push(("latency_samples", fig.samples.to_string()));
    r.notes.push(("slice_tps", format!("{:?}", fig.slice_tps)));
    r.notes
        .push(("slice_p50_ms", format!("{:?}", fig.slice_p50_ms)));
    r.notes.push((
        "failed_breakdown",
        format!(
            "rejected={} unanswered={} late={} (client retries: {}, slowest reply {:.0} ms)",
            t.rejected,
            t.unanswered,
            t.late,
            t.retries,
            t.samples.iter().map(|s| s.latency_ns).max().unwrap_or(0) as f64 / 1e6
        ),
    ));
    Ok(r)
}
