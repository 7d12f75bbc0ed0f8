//! Test-only reference model of the flight recorder and of the
//! `trace.dropped` counters, kept in ordered maps: rings, open chains and
//! drop counts in `BTreeMap`s, each eviction counted into the counter maps
//! as it happens and each hop into a histogram map. Random stamps drive it
//! and [`Stats`] side by side; every reader must agree.

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{Histogram, Scope, Stats, TRACE_DROPPED};
use crate::time::SimTime;
use crate::trace::{FlightRecorder, Phase, TraceEvent};

/// The recorder over `BTreeMap` rings, open chains and drop counts.
#[derive(Default)]
struct ModelRecorder {
    capacity: usize,
    rings: BTreeMap<usize, VecDeque<TraceEvent>>,
    open: BTreeMap<(u64, u8), (u8, SimTime)>,
    overflow: u64,
    dropped: BTreeMap<usize, u64>,
}

impl ModelRecorder {
    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        for (&node, ring) in self.rings.iter_mut() {
            while ring.len() > capacity {
                ring.pop_front();
                *self.dropped.entry(node).or_insert(0) += 1;
            }
        }
    }

    fn dropped(&self, node: usize) -> u64 {
        self.dropped.get(&node).copied().unwrap_or(0)
    }

    fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }

    fn occupancy(&self) -> usize {
        self.rings.values().map(VecDeque::len).sum()
    }

    /// Returns the completed hop (name, delta) and whether the ring evicted.
    fn record(
        &mut self,
        at: SimTime,
        node: usize,
        id: u64,
        phase: Phase,
    ) -> (Option<(&'static str, crate::SimDuration)>, bool) {
        let mut evicted = false;
        if self.capacity > 0 {
            let ring = self.rings.entry(node).or_default();
            if ring.len() >= self.capacity {
                ring.pop_front();
                *self.dropped.entry(node).or_insert(0) += 1;
                evicted = true;
            }
            ring.push_back(TraceEvent {
                at,
                node,
                id,
                phase,
            });
        }
        (self.track_chain(at, id, phase), evicted)
    }

    fn track_chain(
        &mut self,
        at: SimTime,
        id: u64,
        phase: Phase,
    ) -> Option<(&'static str, crate::SimDuration)> {
        let rank = chain_rank(phase)?;
        let key = (id, rank.0);
        match self.open.get_mut(&key) {
            Some((prev_rank, prev_at)) => {
                if rank.1 <= *prev_rank {
                    return None;
                }
                let delta = at.since(*prev_at);
                *prev_rank = rank.1;
                *prev_at = at;
                if matches!(phase, Phase::Exec | Phase::TwoPcDecide) {
                    self.open.remove(&key);
                }
                phase.transition_name().map(|name| (name, delta))
            }
            None => {
                if rank.1 == 0 {
                    if self.open.len() >= FlightRecorder::OPEN_CAP {
                        self.overflow += 1;
                    } else {
                        self.open.insert(key, (rank.1, at));
                    }
                }
                None
            }
        }
    }

    fn all_events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.rings.values().flatten()
    }

    fn fingerprint(&self) -> String {
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

    fn dump(&self, nodes: impl IntoIterator<Item = usize>, limit: usize) -> String {
        let mut out = String::new();
        for node in nodes {
            let ring = match self.rings.get(&node) {
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

/// (chain discriminant, rank), as the recorder ranks chain phases.
fn chain_rank(phase: Phase) -> Option<(u8, u8)> {
    let consensus = [
        Phase::Submit,
        Phase::Ingest,
        Phase::Admit,
        Phase::Propose,
        Phase::Commit,
        Phase::Exec,
    ];
    let two_pc = [
        Phase::TwoPcBegin,
        Phase::TwoPcPrepare,
        Phase::TwoPcVote,
        Phase::TwoPcDecide,
    ];
    if let Some(r) = consensus.iter().position(|p| *p == phase) {
        return Some((0, r as u8));
    }
    two_pc
        .iter()
        .position(|p| *p == phase)
        .map(|r| (1, r as u8))
}

/// The `Stats` trace path over maps: every eviction written into the
/// counter maps as it happens, every hop into the histogram map.
#[derive(Default)]
struct ModelStats {
    counters: BTreeMap<&'static str, u64>,
    scoped_counters: BTreeMap<(&'static str, Scope), u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    recorder: ModelRecorder,
    topology: Option<(usize, usize)>,
}

impl ModelStats {
    fn inc(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn inc_scoped(&mut self, name: &'static str, scope: Scope, delta: u64) {
        *self.scoped_counters.entry((name, scope)).or_insert(0) += delta;
        self.inc(name, delta);
    }

    fn trace(&mut self, at: SimTime, node: usize, id: u64, phase: Phase) {
        let (hop, evicted) = self.recorder.record(at, node, id, phase);
        if let Some((name, delta)) = hop {
            self.histograms.entry(name).or_default().record(delta);
        }
        if evicted {
            match self.scope_of(node) {
                Some(scope) => self.inc_scoped(TRACE_DROPPED, scope, 1),
                None => self.inc(TRACE_DROPPED, 1),
            }
        }
    }

    fn scope_of(&self, node: usize) -> Option<Scope> {
        let (committees, size) = self.topology?;
        if size == 0 || node >= committees * size {
            return None;
        }
        Some(Scope::replica(node / size, node % size))
    }
}

/// One random step applied to both sides.
#[derive(Debug, Clone, Copy)]
enum Step {
    Trace(SimTime, usize, u64, Phase),
    SetCapacity(usize),
    SetTopology(usize, usize),
    Inc(u64),
    IncScoped(Scope, u64),
}

const PHASES: [Phase; 15] = [
    Phase::Submit,
    Phase::Ingest,
    Phase::Admit,
    Phase::Propose,
    Phase::Commit,
    Phase::Exec,
    Phase::TwoPcBegin,
    Phase::TwoPcPrepare,
    Phase::TwoPcVote,
    Phase::TwoPcDecide,
    Phase::ViewChange,
    Phase::SyncStart,
    Phase::SyncDone,
    Phase::WalCommit,
    Phase::Checkpoint,
];

/// Nodes the steps stamp for; with topologies of at most 3 × 3 some of
/// them are always clients.
const NODES: usize = 12;

fn random_step(rng: &mut SmallRng, now: &mut u64) -> Step {
    match rng.gen_range(0..100) {
        0 => Step::SetCapacity(rng.gen_range(0..6)),
        1 => Step::SetTopology(rng.gen_range(0..4), rng.gen_range(0..4)),
        2 => Step::Inc(rng.gen_range(0..3)),
        3 => Step::IncScoped(
            Scope::replica(rng.gen_range(0..3), rng.gen_range(0..3)),
            rng.gen_range(0..3),
        ),
        _ => {
            *now += rng.gen_range(0..3_000u64);
            Step::Trace(
                SimTime(*now),
                rng.gen_range(0..NODES),
                rng.gen_range(0..24),
                PHASES[rng.gen_range(0..PHASES.len())],
            )
        }
    }
}

fn apply(step: Step, stats: &mut Stats, model: &mut ModelStats) {
    match step {
        Step::Trace(at, node, id, phase) => {
            stats.trace(at, node, id, phase);
            model.trace(at, node, id, phase);
        }
        Step::SetCapacity(c) => {
            stats.set_trace_capacity(c);
            model.recorder.set_capacity(c);
        }
        Step::SetTopology(c, s) => {
            stats.set_topology(c, s);
            model.topology = Some((c, s));
        }
        Step::Inc(d) => {
            stats.inc(TRACE_DROPPED, d);
            model.inc(TRACE_DROPPED, d);
        }
        Step::IncScoped(scope, d) => {
            stats.inc_scoped(TRACE_DROPPED, scope, d);
            model.inc_scoped(TRACE_DROPPED, scope, d);
        }
    }
}

/// Every reader of the recorder, its phase histograms and `trace.dropped`.
fn assert_agree(stats: &Stats, model: &ModelStats, context: &str) {
    let rec = stats.recorder();
    let m = &model.recorder;
    assert_eq!(rec.fingerprint(), m.fingerprint(), "fingerprint {context}");
    for limit in [0, 1, 3, usize::MAX] {
        assert_eq!(
            rec.dump(0..NODES + 2, limit),
            m.dump(0..NODES + 2, limit),
            "dump {context}"
        );
    }
    for node in 0..NODES + 2 {
        assert_eq!(
            rec.dropped(node),
            m.dropped(node),
            "dropped({node}) {context}"
        );
    }
    assert_eq!(
        rec.total_dropped(),
        m.total_dropped(),
        "total_dropped {context}"
    );
    assert_eq!(rec.occupancy(), m.occupancy(), "occupancy {context}");
    assert_eq!(rec.overflow(), m.overflow, "overflow {context}");
    for name in Phase::TRANSITIONS {
        assert_eq!(
            stats.histogram(name).map(|h| format!("{h:?}")),
            model.histograms.get(name).map(|h| format!("{h:?}")),
            "histogram {name} {context}"
        );
    }
    assert_eq!(
        stats.counter(TRACE_DROPPED),
        model.counters.get(TRACE_DROPPED).copied().unwrap_or(0),
        "counter {context}"
    );
    for c in 0..4 {
        for r in (0..4).chain([Scope::ALL as usize]) {
            let scope = if r == Scope::ALL as usize {
                Scope::committee(c)
            } else {
                Scope::replica(c, r)
            };
            assert_eq!(
                stats.scoped_counter(TRACE_DROPPED, scope),
                model
                    .scoped_counters
                    .get(&(TRACE_DROPPED, scope))
                    .copied()
                    .unwrap_or(0),
                "scoped_counter {scope:?} {context}"
            );
        }
    }
    let counters: Vec<_> = stats.counters().collect();
    let model_counters: Vec<_> = model.counters.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(counters, model_counters, "counters() {context}");
    let scoped: Vec<_> = stats.scoped_counters().collect();
    let model_scoped: Vec<_> = model
        .scoped_counters
        .iter()
        .map(|(&(n, s), &v)| (n, s, v))
        .collect();
    assert_eq!(scoped, model_scoped, "scoped_counters() {context}");
}

fn fresh(capacity: usize) -> (Stats, ModelStats) {
    let mut stats = Stats::new();
    stats.set_trace_capacity(capacity);
    let mut model = ModelStats::default();
    model.recorder.set_capacity(capacity);
    (stats, model)
}

#[test]
fn recorder_and_counters_match_the_map_model() {
    for seed in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Small rings (0 included) so stamps evict early and often.
        let (mut stats, mut model) = fresh(rng.gen_range(0..5));
        // Half the cases set a topology before any stamp; the random
        // steps set (and change) it after evictions too.
        if seed % 2 == 0 {
            let topo = (rng.gen_range(1..4), rng.gen_range(1..4));
            stats.set_topology(topo.0, topo.1);
            model.topology = Some(topo);
        }
        let mut now = 0;
        for i in 0..400 {
            let step = random_step(&mut rng, &mut now);
            apply(step, &mut stats, &mut model);
            if i % 50 == 49 {
                assert_agree(&stats, &model, &format!("seed {seed} step {i} ({step:?})"));
            }
        }
        assert_agree(&stats, &model, &format!("seed {seed} end"));
    }
}

#[test]
fn open_chain_overflow_matches_the_map_model() {
    let (mut stats, mut model) = fresh(2);
    stats.set_topology(1, 4);
    model.topology = Some((1, 4));
    // Fill the open-chain map to its bound, then open a few more chains
    // (refused and counted), close some and open others in their place.
    let cap = FlightRecorder::OPEN_CAP as u64;
    let mut steps = Vec::new();
    for id in 0..cap + 5 {
        steps.push(Step::Trace(
            SimTime(id),
            (id % 6) as usize,
            id,
            Phase::Submit,
        ));
    }
    for id in 0..10 {
        steps.push(Step::Trace(SimTime(cap + id), 1, id, Phase::Exec));
    }
    for id in 0..20 {
        steps.push(Step::Trace(
            SimTime(cap + 20 + id),
            2,
            cap + 100 + id,
            Phase::TwoPcBegin,
        ));
    }
    for step in steps {
        apply(step, &mut stats, &mut model);
    }
    assert_eq!(stats.recorder().overflow(), 5 + 10);
    assert_agree(&stats, &model, "after overflow");
}
