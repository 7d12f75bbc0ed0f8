//! Helpers shared by the tier-1 integration tests.

use ahl::consensus::pbft::{PbftMsg, Replica};
use ahl::consensus::Request;
use ahl::ledger::{Mutation, Op, StateOp, TxId};
use ahl::simkit::{Sim, SimDuration};

fn replica(sim: &Sim<PbftMsg>, id: usize) -> &Replica {
    sim.actor(id)
        .as_any()
        .and_then(|a| a.downcast_ref::<Replica>())
        .expect("replica actor")
}

/// Replay protection at a recovered replica, on an idle committee whose
/// one open-loop client (actor `client`) issued ids `0..sent` and saw all
/// of them executed, none yet old enough to prune. Every one of those ids
/// is re-submitted to `node` — with a fresh timestamp, so only the
/// executed-id window can stop it — and must be neither pooled nor
/// executed: `executed_len`, the execution point and the state digest do
/// not move. The same probe under an unseen id is then ordered and
/// executed exactly once on `node` and `peer`, which shows the silence was
/// the window's doing and not a dead committee's.
pub fn assert_resubmissions_refused(
    sim: &mut Sim<PbftMsg>,
    node: usize,
    peer: usize,
    client: usize,
    sent: u64,
) {
    let probe = |seq: u32, now| {
        let op = StateOp { conditions: vec![], mutations: vec![("replayed".into(), Mutation::Add(1))] };
        PbftMsg::Request(Request {
            id: Request::make_id(client, seq),
            client,
            op: Op::Direct { txid: TxId(u64::MAX - seq as u64), op },
            submitted: now,
        })
    };
    let exec_seq = replica(sim, node).exec_seq();
    assert_eq!(exec_seq, replica(sim, peer).exec_seq());
    assert_eq!(replica(sim, peer).executed_len() as u64, sent, "the window is every id");
    assert_eq!(replica(sim, node).executed_len() as u64, sent, "on the recovered replica too");
    let digest = replica(sim, node).state().state_digest();

    let now = sim.now();
    for seq in 0..sent as u32 {
        sim.inject(now, client, node, probe(seq, now));
    }
    sim.run_until(now + SimDuration::from_secs(1));
    let r = replica(sim, node);
    assert_eq!(r.pool().len(), 0, "no executed id was pooled again");
    assert_eq!((r.exec_seq(), r.executed_len() as u64), (exec_seq, sent), "or executed again");
    assert_eq!(r.state().state_digest(), digest);

    let now = sim.now();
    sim.inject(now, client, node, probe(sent as u32 + 1_000, now));
    sim.run_until(now + SimDuration::from_secs(1));
    for id in [node, peer] {
        let r = replica(sim, id);
        assert_eq!((r.exec_seq(), r.executed_len() as u64), (exec_seq + 1, sent + 1));
        assert_eq!(r.state().get_int("replayed"), 1, "once");
    }
}
