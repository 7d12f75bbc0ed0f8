//! One real replica process: `node <cluster.cfg> <replica-index>`.
//!
//! Reads the cluster config, derives the committee's key material through
//! [`derive_committee`] exactly as the simulator does (so every process
//! agrees on every replica's keys without any key exchange), and runs the
//! unmodified [`Replica`] on a [`NodeRuntime`] over [`TcpTransport`]. If
//! the replica's data directory already holds a journal, the process
//! self-delivers [`PbftMsg::Restart`] after startup: the replica then
//! recovers from disk and state-syncs the remainder from its peers —
//! exactly the crash/restart path the simulator batteries exercise.
//!
//! Exit status: 0 after a clean [`ahl_net::Control::Shutdown`]; any panic
//! (internal invariant violation) aborts nonzero.

use std::process::ExitCode;
use std::time::Duration;

use ahl_bench::cluster::ClusterFile;
use ahl_consensus::pbft::{derive_committee, PbftMsg, Replica};
use ahl_net::{NodeRuntime, StatusReport, Stopped, TcpConfig, TcpTransport};
use ahl_simkit::Actor;

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let (Some(cfg_path), Some(index)) = (args.next(), args.next()) else {
        return Err("usage: node <cluster.cfg> <replica-index>".into());
    };
    let me: usize = index.parse().map_err(|e| format!("bad replica index {index:?}: {e}"))?;
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("read {cfg_path:?}: {e}"))?;
    let cf = ClusterFile::parse(&text)?;
    if me >= cf.replicas.len() {
        return Err(format!("replica index {me} out of range (committee of {})", cf.replicas.len()));
    }

    let pbft = cf.pbft_config();
    let seed = cf.seed;

    // Restart detection must precede building the replica (which creates
    // the node directory when absent).
    let node_dir = pbft.data_dir.as_ref().map(|d| d.join(format!("node-{me}")));
    let restarting = node_dir.as_ref().is_some_and(|d| {
        std::fs::read_dir(d).map(|mut it| it.next().is_some()).unwrap_or(false)
    });

    // Key material, pool seed and reporter flag: the simulator's own
    // derivation, so key ids and public keys agree across every process.
    let member = derive_committee(pbft.n, seed).swap_remove(me);
    let group = (0..pbft.n).collect();
    let replica = Replica::from_genesis(pbft.clone(), group, member, &Default::default());

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
    let transport =
        TcpTransport::start(tcp).map_err(|e| format!("listen on {listen}: {e}"))?;
    let mut rt: NodeRuntime<PbftMsg> =
        NodeRuntime::new(Box::new(transport), cf.num_nodes(), seed);
    rt.add_actor(my_id, Box::new(replica));
    rt.set_status_fn(Box::new(|a: &dyn Actor<Msg = PbftMsg>| {
        let r = a.as_any()?.downcast_ref::<Replica>()?;
        Some(StatusReport {
            height: r.exec_seq(),
            digest: r.state().state_digest(),
            committed: r.executed_len() as u64,
        })
    }));
    rt.start();
    if restarting {
        eprintln!("node {me}: non-empty data dir, recovering from disk");
        rt.transport().send(my_id, my_id, ahl_net::Packet::App(PbftMsg::Restart));
    }
    eprintln!("node {me}: listening on {listen}");

    loop {
        if rt.run_for(Duration::from_millis(500)) == Stopped::Halted {
            break;
        }
    }
    rt.shutdown_transport();
    eprintln!("node {me}: shut down cleanly");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("node: {e}");
            ExitCode::FAILURE
        }
    }
}
