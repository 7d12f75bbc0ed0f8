//! Transaction flight recorder: per-node bounded ring buffers of structured
//! lifecycle events, plus online phase-latency derivation.
//!
//! Every actor can stamp `(sim_time, node, id, phase)` events through
//! [`crate::Ctx::trace`]. The recorder keeps the last `capacity` events per
//! node (a ring — memory is bounded no matter how long the run), and
//! simultaneously tracks each transaction's *phase chain* so the harness can
//! answer "where does latency live": the hop from client submit to pool
//! admission, admission to proposal, proposal to commit quorum, commit to
//! execution, and each 2PC hop, all as histograms with p50/p99/p999.
//!
//! Determinism: recording is driven entirely by simulation events, so the
//! full event sequence is a pure function of the run seed. The chain-tracking
//! map is bounded ([`FlightRecorder::OPEN_CAP`]); when full, new chains are
//! refused and counted, never silently grown. It is hashed and never
//! iterated, so its order cannot reach an output.
//!
//! Cost: a stamp indexes its node's ring and eviction count in
//! node-indexed vectors and makes one hashed chain lookup; it writes no
//! ordered map. [`crate::Stats`] reads `trace.dropped` back from the
//! per-node eviction counts instead of counting each eviction itself.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A lifecycle phase stamped into the flight recorder.
///
/// The consensus chain (`Submit → Ingest → Admit → Propose → Commit → Exec`)
/// is keyed by request id; the cross-shard chain
/// (`TwoPcBegin → TwoPcPrepare → TwoPcVote → TwoPcDecide`) by transaction id.
/// The remaining phases are standalone markers (no chain, ring-buffer only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Phase {
    /// Client handed the request to the network.
    Submit,
    /// Replica received the request.
    Ingest,
    /// Mempool admitted the request.
    Admit,
    /// Request placed into a proposed block.
    Propose,
    /// Commit quorum reached for the containing block.
    Commit,
    /// Request executed against the state machine (terminal).
    Exec,
    /// Coordinator started a cross-shard transaction.
    TwoPcBegin,
    /// A shard executed the 2PC prepare (lock acquisition).
    TwoPcPrepare,
    /// Coordinator observed a shard's prepare vote.
    TwoPcVote,
    /// A shard executed the final commit/abort decision (terminal).
    TwoPcDecide,
    /// Replica installed a new view after a view change.
    ViewChange,
    /// Replica began a state-sync session.
    SyncStart,
    /// Replica finished a state-sync session.
    SyncDone,
    /// WAL group commit flushed a batch.
    WalCommit,
    /// Replica produced a signed checkpoint.
    Checkpoint,
}

/// Which phase chain a phase belongs to, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Chain {
    Consensus,
    TwoPc,
}

impl Phase {
    /// Short lowercase label used in dumps and determinism fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Submit => "submit",
            Phase::Ingest => "ingest",
            Phase::Admit => "admit",
            Phase::Propose => "propose",
            Phase::Commit => "commit",
            Phase::Exec => "exec",
            Phase::TwoPcBegin => "2pc_begin",
            Phase::TwoPcPrepare => "2pc_prepare",
            Phase::TwoPcVote => "2pc_vote",
            Phase::TwoPcDecide => "2pc_decide",
            Phase::ViewChange => "view_change",
            Phase::SyncStart => "sync_start",
            Phase::SyncDone => "sync_done",
            Phase::WalCommit => "wal_commit",
            Phase::Checkpoint => "checkpoint",
        }
    }

    /// (chain, rank) for chain phases. Rank orders phases within a chain; a
    /// chain only advances to a strictly higher rank, so N replicas all
    /// stamping `Commit` contribute one transition (the earliest in sim
    /// time — deterministic, since event order is deterministic).
    fn chain_rank(self) -> Option<(Chain, u8)> {
        match self {
            Phase::Submit => Some((Chain::Consensus, 0)),
            Phase::Ingest => Some((Chain::Consensus, 1)),
            Phase::Admit => Some((Chain::Consensus, 2)),
            Phase::Propose => Some((Chain::Consensus, 3)),
            Phase::Commit => Some((Chain::Consensus, 4)),
            Phase::Exec => Some((Chain::Consensus, 5)),
            Phase::TwoPcBegin => Some((Chain::TwoPc, 0)),
            Phase::TwoPcPrepare => Some((Chain::TwoPc, 1)),
            Phase::TwoPcVote => Some((Chain::TwoPc, 2)),
            Phase::TwoPcDecide => Some((Chain::TwoPc, 3)),
            _ => None,
        }
    }

    /// Histogram name for the hop that *arrives at* this phase, or `None`
    /// for phases that open a chain or are not chained. In a healthy run the
    /// chain passes through every phase in order, so each name measures
    /// exactly the hop it says; if an intermediate phase is unobserved the
    /// hop from the last observed phase is attributed to the arriving one.
    pub fn transition_name(self) -> Option<&'static str> {
        self.hop().map(|hop| Phase::TRANSITIONS[hop])
    }

    /// Index into [`Phase::TRANSITIONS`] of the hop arriving at this phase.
    pub(crate) fn hop(self) -> Option<usize> {
        match self {
            Phase::Ingest => Some(0),
            Phase::Admit => Some(1),
            Phase::Propose => Some(2),
            Phase::Commit => Some(3),
            Phase::Exec => Some(4),
            Phase::TwoPcPrepare => Some(5),
            Phase::TwoPcVote => Some(6),
            Phase::TwoPcDecide => Some(7),
            _ => None,
        }
    }

    /// All hop-histogram names, in pipeline order (for reports).
    pub const TRANSITIONS: [&'static str; 8] = [
        "phase.submit_ingest",
        "phase.ingest_admit",
        "phase.admit_propose",
        "phase.propose_commit",
        "phase.commit_exec",
        "phase.2pc_begin_prepare",
        "phase.2pc_prepare_vote",
        "phase.2pc_vote_decide",
    ];
}

/// One flight-recorder entry: who stamped what, when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the stamp.
    pub at: SimTime,
    /// Node that recorded the event.
    pub node: usize,
    /// Request id (consensus chain), transaction id (2PC chain), or a
    /// context-dependent discriminant (view number, sync session, batch id)
    /// for standalone phases.
    pub id: u64,
    /// Lifecycle phase.
    pub phase: Phase,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}ns n{:<4} {:<12} id={}",
            self.at.as_nanos(),
            self.node,
            self.phase.label(),
            self.id
        )
    }
}

/// A completed phase transition, handed back to [`crate::Stats`] so the hop
/// latency lands in its histogram.
pub(crate) struct Transition {
    /// Index into [`Phase::TRANSITIONS`].
    pub hop: usize,
    pub delta: SimDuration,
}

/// An online consumer of the flight-recorder event stream.
///
/// [`crate::Stats::set_trace_sink`] tees every [`crate::Stats::trace`] stamp
/// into one installed sink *in addition to* the normal recorder/histogram
/// path. This is how out-of-crate oracles (e.g. a liveness checker) observe
/// the run without the simulator depending on them: the sink sees the exact
/// deterministic event sequence, in order, as it happens.
pub trait TraceSink {
    /// Observe one lifecycle stamp (same arguments as [`crate::Ctx::trace`]).
    fn on_trace(&mut self, at: SimTime, node: usize, id: u64, phase: Phase);
}

/// Add one to `counts[node]`, growing the node-indexed vector as needed.
fn bump(counts: &mut Vec<u64>, node: usize) {
    if node >= counts.len() {
        counts.resize(node + 1, 0);
    }
    counts[node] += 1;
}

/// Per-node bounded ring buffers of [`TraceEvent`]s plus the chain tracker
/// that derives phase-hop latencies. Owned by [`crate::Stats`]; actors write
/// through [`crate::Ctx::trace`].
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    capacity: usize,
    /// Rings indexed by node id; a node that never stamped has an empty one.
    rings: Vec<VecDeque<TraceEvent>>,
    /// Open chains: (id, chain discriminant) → (last rank, last stamp time).
    /// Ids can come from outside the program (a real node's clients), so
    /// the map keeps std's seeded hasher; it is never iterated, so its
    /// per-process seed cannot reach an output.
    open: HashMap<(u64, u8), (u8, SimTime)>,
    /// Chains refused because `open` was at capacity.
    overflow: u64,
    /// Stamps that evicted the oldest event of a full ring, per node.
    evicted: Vec<u64>,
    /// Events [`FlightRecorder::set_capacity`] trimmed, per node.
    trimmed: Vec<u64>,
}

impl FlightRecorder {
    /// Default per-node ring capacity.
    pub const DEFAULT_CAPACITY: usize = 2048;
    /// Bound on concurrently-open phase chains. At capacity, new chains are
    /// refused (and counted in [`FlightRecorder::overflow`]) so a pathological
    /// run cannot grow the tracker without bound.
    pub const OPEN_CAP: usize = 65_536;

    /// Create a recorder with the given per-node ring capacity
    /// (`0` disables event retention; phase histograms still accumulate).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity,
            ..Default::default()
        }
    }

    /// Per-node ring capacity currently in force.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the per-node ring capacity (existing rings are trimmed; trimmed
    /// events count as drops).
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for (node, ring) in self.rings.iter_mut().enumerate() {
            while ring.len() > capacity {
                ring.pop_front();
                bump(&mut self.trimmed, node);
            }
        }
    }

    /// Number of chain-open refusals due to the [`Self::OPEN_CAP`] bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Events evicted from `node`'s full ring (oldest-first) over the run,
    /// by stamps and by capacity trims.
    pub fn dropped(&self, node: usize) -> u64 {
        let count = |v: &Vec<u64>| v.get(node).copied().unwrap_or(0);
        count(&self.evicted) + count(&self.trimmed)
    }

    /// Total events evicted from full rings across all nodes.
    pub fn total_dropped(&self) -> u64 {
        self.evicted.iter().chain(&self.trimmed).sum()
    }

    /// Stamps that evicted the oldest event of a full ring, indexed by node
    /// (capacity trims not included): what [`crate::Stats`] reports as
    /// `trace.dropped`.
    pub(crate) fn evicted(&self) -> &[u64] {
        &self.evicted
    }

    /// Total events currently retained across all rings (occupancy).
    pub fn occupancy(&self) -> usize {
        self.rings.iter().map(VecDeque::len).sum()
    }

    /// Record one event, evicting the oldest event of the node's ring when
    /// it is full. Reports the phase transition it completed, if any.
    pub(crate) fn record(
        &mut self,
        at: SimTime,
        node: usize,
        id: u64,
        phase: Phase,
    ) -> Option<Transition> {
        if self.capacity > 0 {
            if node >= self.rings.len() {
                self.rings.resize_with(node + 1, VecDeque::new);
            }
            let ring = &mut self.rings[node];
            if ring.len() >= self.capacity {
                ring.pop_front();
                bump(&mut self.evicted, node);
            }
            ring.push_back(TraceEvent {
                at,
                node,
                id,
                phase,
            });
        }
        self.track_chain(at, id, phase)
    }

    fn track_chain(&mut self, at: SimTime, id: u64, phase: Phase) -> Option<Transition> {
        let (chain, rank) = phase.chain_rank()?;
        let key = (id, chain as u8);
        match self.open.get_mut(&key) {
            Some((prev_rank, prev_at)) => {
                if rank <= *prev_rank {
                    return None; // duplicate stamp from another replica
                }
                let delta = at.since(*prev_at);
                *prev_rank = rank;
                *prev_at = at;
                let terminal = matches!(phase, Phase::Exec | Phase::TwoPcDecide);
                if terminal {
                    self.open.remove(&key);
                }
                phase.hop().map(|hop| Transition { hop, delta })
            }
            None => {
                // Only chain-opening phases may start tracking; a late
                // straggler after the terminal phase must not re-open.
                if rank == 0 {
                    if self.open.len() >= Self::OPEN_CAP {
                        self.overflow += 1;
                    } else {
                        self.open.insert(key, (rank, at));
                    }
                }
                None
            }
        }
    }

    /// Events currently retained for `node`, oldest first.
    pub fn node_events(&self, node: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.rings.get(node).into_iter().flatten()
    }

    /// All retained events across nodes, grouped by node id (node order, then
    /// chronological within a node).
    pub fn all_events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.rings.iter().flatten()
    }

    /// Reconstruct a transaction/request lifecycle: every retained event with
    /// this `id`, across all nodes, sorted by time (ties by node id).
    pub fn lifecycle(&self, id: u64) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = self.all_events().filter(|e| e.id == id).copied().collect();
        evs.sort_by_key(|e| (e.at, e.node));
        evs
    }

    /// A deterministic textual fingerprint of the full retained event log —
    /// two runs with the same seed must produce byte-identical output.
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for ev in self.all_events() {
            out.push_str(&format!(
                "{} {} {} {}\n",
                ev.at.as_nanos(),
                ev.node,
                ev.phase.label(),
                ev.id
            ));
        }
        out
    }

    /// Render the last `limit` events of each node in `nodes` as a bounded,
    /// human-readable post-mortem dump.
    pub fn dump(&self, nodes: impl IntoIterator<Item = usize>, limit: usize) -> String {
        let mut out = String::new();
        for node in nodes {
            let ring = match self.rings.get(node) {
                Some(r) if !r.is_empty() => r,
                _ => continue,
            };
            let skip = ring.len().saturating_sub(limit);
            out.push_str(&format!(
                "--- node {node} (last {} of {} events)\n",
                ring.len() - skip,
                ring.len()
            ));
            for ev in ring.iter().skip(skip) {
                out.push_str(&format!("{ev}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(flight recorder empty)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn ring_is_bounded() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..100 {
            fr.record(t(i), 0, i, Phase::WalCommit);
        }
        let evs: Vec<_> = fr.node_events(0).collect();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].id, 96, "oldest retained event");
        assert_eq!(evs[3].id, 99);
    }

    #[test]
    fn chain_transitions_land_in_order() {
        let mut fr = FlightRecorder::new(16);
        assert!(fr.record(t(0), 0, 7, Phase::Submit).is_none());
        let tr = fr.record(t(2), 1, 7, Phase::Ingest).expect("hop");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.submit_ingest");
        assert_eq!(tr.delta.as_millis(), 2);
        let tr = fr.record(t(3), 1, 7, Phase::Admit).expect("hop");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.ingest_admit");
        assert_eq!(tr.delta.as_millis(), 1);
        // A second replica stamping Admit later must not re-measure.
        assert!(fr.record(t(4), 2, 7, Phase::Admit).is_none());
        let tr = fr.record(t(9), 1, 7, Phase::Commit).expect("skip propose");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.propose_commit");
        assert_eq!(tr.delta.as_millis(), 6);
        let tr = fr.record(t(10), 1, 7, Phase::Exec).expect("terminal");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.commit_exec");
        // Chain closed: stragglers neither measure nor re-open.
        assert!(fr.record(t(11), 2, 7, Phase::Exec).is_none());
        assert!(fr.record(t(12), 2, 7, Phase::Commit).is_none());
    }

    #[test]
    fn consensus_and_twopc_chains_are_independent() {
        let mut fr = FlightRecorder::new(16);
        fr.record(t(0), 0, 5, Phase::Submit);
        fr.record(t(0), 0, 5, Phase::TwoPcBegin);
        let tr = fr.record(t(4), 1, 5, Phase::TwoPcPrepare).expect("2pc hop");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.2pc_begin_prepare");
        let tr = fr.record(t(5), 1, 5, Phase::Ingest).expect("consensus hop");
        assert_eq!(Phase::TRANSITIONS[tr.hop], "phase.submit_ingest");
        assert_eq!(tr.delta.as_millis(), 5);
    }

    #[test]
    fn open_chains_are_bounded() {
        let mut fr = FlightRecorder::new(0);
        for i in 0..(FlightRecorder::OPEN_CAP as u64 + 10) {
            fr.record(t(0), 0, i, Phase::Submit);
        }
        assert_eq!(fr.overflow(), 10);
        assert!(fr.open.len() <= FlightRecorder::OPEN_CAP);
    }

    #[test]
    fn zero_capacity_still_measures_phases() {
        let mut fr = FlightRecorder::new(0);
        fr.record(t(0), 0, 1, Phase::Submit);
        assert!(fr.record(t(1), 0, 1, Phase::Ingest).is_some());
        assert_eq!(fr.all_events().count(), 0);
    }

    #[test]
    fn lifecycle_merges_across_nodes_sorted() {
        let mut fr = FlightRecorder::new(16);
        fr.record(t(5), 3, 9, Phase::Exec);
        fr.record(t(1), 0, 9, Phase::Submit);
        fr.record(t(3), 2, 9, Phase::Commit);
        fr.record(t(2), 1, 8, Phase::Submit);
        let life = fr.lifecycle(9);
        assert_eq!(life.len(), 3);
        assert!(life.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn dump_is_bounded() {
        let mut fr = FlightRecorder::new(64);
        for i in 0..50 {
            fr.record(t(i), 0, i, Phase::WalCommit);
        }
        let d = fr.dump([0], 5);
        assert_eq!(d.lines().count(), 6, "header + 5 events");
        assert!(d.contains("wal_commit"));
    }
}
