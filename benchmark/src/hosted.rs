//! Replicas hosted *inside* the benchmark process for the traced TCP runs:
//! one thread and one [`NodeRuntime`] per replica over a real
//! [`TcpTransport`], exactly what the `node` binary does, but with the
//! actor and the transport wrapped in span recorders and the runtime's
//! statistics readable afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ahl_bench::cluster::ClusterFile;
use ahl_consensus::pbft::{PbftMsg, Replica};
use ahl_net::{
    NodeRuntime, Packet, StatusReport, Stopped, TcpConfig, TcpTransport, TransportStats,
};
use ahl_simkit::{Actor, Stats};
use ahl_telemetry::{ProfileReport, Profiler};

use crate::committee::build_replica;
use crate::procfs::{self, CpuTime};
use crate::trace::{HostSummary, HostTrace, Role, TracedActor, TracedTransport, Tracer};

/// What one replica thread hands back when it stops.
pub struct HostReport {
    /// The crates' own profiler spans on that thread.
    pub profile: ProfileReport,
    /// CPU time of that thread while tracing was on.
    pub cpu: CpuTime,
    /// The runtime's statistics (what the replica recorded via `Ctx`).
    pub stats: Stats,
    /// Transport counters.
    pub net: TransportStats,
    /// Spans recorded by the wrappers.
    pub trace: HostSummary,
}

/// A running replica thread.
pub struct ReplicaThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Result<HostReport, String>>,
}

/// The status hook of the `node` binary; the span wrapper forwards
/// `as_any`, so the replica is reachable through it.
fn status_of(a: &dyn Actor<Msg = PbftMsg>) -> Option<StatusReport> {
    let r = a.as_any()?.downcast_ref::<Replica>()?;
    Some(StatusReport {
        height: r.exec_seq(),
        digest: r.state().state_digest(),
        committed: r.executed_len() as u64,
    })
}

fn host(
    cf: ClusterFile,
    me: usize,
    restart: bool,
    tracer: Arc<Tracer>,
    trace: Arc<HostTrace>,
    stop: Arc<AtomicBool>,
) -> Result<HostReport, String> {
    let replica = build_replica(&cf.pbft_config(), cf.seed, me);
    let (my_id, listen) = cf.replicas[me];
    let peers: Vec<_> = cf
        .replicas
        .iter()
        .filter(|(id, _)| *id != my_id)
        .chain(cf.clients.iter())
        .cloned()
        .collect();
    let mut tcp = TcpConfig::new(listen, vec![my_id], peers);
    tcp.cluster = cf.digest();
    let transport = TcpTransport::<PbftMsg>::start(tcp)
        .map_err(|e| format!("replica {me}: listen on {listen}: {e}"))?;
    let transport = TracedTransport::wrap(Box::new(transport), trace.clone(), vec![my_id]);
    let mut rt: NodeRuntime<PbftMsg> = NodeRuntime::new(transport, cf.num_nodes(), cf.seed);
    rt.add_actor(
        my_id,
        TracedActor::wrap(Box::new(replica), trace.clone(), Role::Replica),
    );
    rt.set_status_fn(Box::new(status_of));
    rt.start();
    if restart {
        // What `node` does on a non-empty data dir: recover from disk,
        // then state-sync the remainder from the peers.
        rt.transport()
            .send(my_id, my_id, Packet::App(PbftMsg::Restart));
    }
    // The thread-local profiler follows the run-wide tracing switch, so
    // its totals cover the same interval as the wrappers' spans.
    let mut profile = ProfileReport::default();
    let (mut cpu0, mut cpu) = (CpuTime::default(), CpuTime::default());
    let thread_cpu = || procfs::thread_cpu_time().unwrap_or_default();
    while !stop.load(Ordering::SeqCst) {
        match (tracer.is_on(), Profiler::is_enabled()) {
            (true, false) => {
                Profiler::enable();
                cpu0 = thread_cpu();
            }
            (false, true) => {
                profile = Profiler::take();
                cpu = thread_cpu().minus(cpu0);
            }
            _ => {}
        }
        if rt.run_for(Duration::from_millis(20)) == Stopped::Halted {
            break;
        }
    }
    if Profiler::is_enabled() {
        profile = Profiler::take();
        cpu = thread_cpu().minus(cpu0);
    }
    let net = rt.transport().stats();
    rt.shutdown_transport();
    Ok(HostReport {
        profile,
        cpu,
        stats: rt.stats().clone(),
        net,
        trace: trace.summary(),
    })
}

impl ReplicaThread {
    /// Start replica `me` of `cf` on its own thread. `restart` makes it
    /// recover from its existing data dir instead of starting at genesis.
    pub fn spawn(
        cf: &ClusterFile,
        me: usize,
        restart: bool,
        tracer: &Arc<Tracer>,
    ) -> ReplicaThread {
        let stop = Arc::new(AtomicBool::new(false));
        let (cf, tracer, trace, stop2) = (cf.clone(), tracer.clone(), tracer.host(), stop.clone());
        let handle = std::thread::Builder::new()
            .name(format!("replica-{me}"))
            .spawn(move || host(cf, me, restart, tracer, trace, stop2))
            .expect("spawn replica thread");
        ReplicaThread { stop, handle }
    }

    /// Stop the event loop (the stand-in for killing the process: sockets
    /// close, file handles drop, nothing is flushed that a dying process
    /// would not have written already) and collect its report.
    pub fn stop(self) -> Result<HostReport, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "a replica thread panicked".to_string())?
    }
}
