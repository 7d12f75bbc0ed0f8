//! The liveness oracle: an online [`TraceSink`] that watches the
//! flight-recorder event stream for the ways a run can stop making
//! progress *without* ever violating safety.
//!
//! Four detectors, all per-committee (node ids map to committees through
//! the installed topology, exactly like `run_system` lays them out):
//!
//! 1. **Commit stall** — demand was admitted (`Admit` stamps) and the
//!    committee proposed since, but no `Commit`/`Exec` progress landed
//!    within [`LivenessConfig::stall_budget`]. The classic partition /
//!    leader-withholding symptom.
//! 2. **Mempool starvation** — demand was admitted but *no proposal*
//!    picked it up within [`LivenessConfig::starvation_budget`]: the pool
//!    has work and the proposer ignores it.
//! 3. **View-change storm** — more than
//!    [`LivenessConfig::view_change_storm`] view changes inside a sliding
//!    [`LivenessConfig::view_change_window`]: the committee churns views
//!    instead of committing.
//! 4. **Sync livelock** — a node starts
//!    [`LivenessConfig::sync_livelock`] consecutive sync sessions without
//!    ever finishing one (re-anchor loop).
//!
//! Detection is driven entirely by simulation events (the sweep piggybacks
//! on other committees' stamps plus a final [`LivenessChecker::finish`]
//! call), so verdicts are deterministic in the run seed. Each violation
//! carries the implicated committee and a representative stuck request id
//! so the harness can print the bounded causal trace for exactly the right
//! nodes.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use ahl_simkit::{Phase, SimDuration, SimTime, TraceSink};

/// Detection budgets and thresholds. Defaults are an order of magnitude
/// above healthy steady-state numbers (commits land every few hundred ms
/// in the slowest honest configurations), so a clean run never trips them.
#[derive(Clone, Debug)]
pub struct LivenessConfig {
    /// Max time admitted demand may wait without a commit/exec landing on
    /// its committee (given that proposals are still happening).
    pub stall_budget: SimDuration,
    /// Max time admitted demand may wait for *any* proposal.
    pub starvation_budget: SimDuration,
    /// Sliding window for view-change counting.
    pub view_change_window: SimDuration,
    /// View changes within the window that constitute a storm (strictly
    /// more than this fires).
    pub view_change_storm: usize,
    /// Consecutive sync-session starts without a completion that
    /// constitute a livelock (reaching this count fires).
    pub sync_livelock: u32,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            stall_budget: SimDuration::from_secs(5),
            starvation_budget: SimDuration::from_secs(5),
            view_change_window: SimDuration::from_secs(10),
            view_change_storm: 8,
            sync_livelock: 5,
        }
    }
}

/// One detected liveness violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LivenessViolation {
    /// Committee admitted demand and kept proposing but stopped committing.
    CommitStall {
        /// The stalled committee.
        committee: usize,
        /// How long the oldest waiting demand had been stuck when detected.
        stalled_for: SimDuration,
        /// Admit stamps seen since the last progress.
        pending: u64,
        /// Detection time.
        at: SimTime,
        /// Request id of the first stuck admission (trace probe).
        probe: u64,
    },
    /// Committee admitted demand but never proposed it.
    MempoolStarvation {
        /// The starved committee.
        committee: usize,
        /// How long the oldest waiting demand had been ignored.
        waiting_for: SimDuration,
        /// Admit stamps seen since the last progress.
        pending: u64,
        /// Detection time.
        at: SimTime,
        /// Request id of the first stuck admission (trace probe).
        probe: u64,
    },
    /// Committee churned views faster than it committed.
    ViewChangeStorm {
        /// The storming committee.
        committee: usize,
        /// View changes inside the window when the storm fired.
        count: usize,
        /// The sliding window the count was measured over.
        window: SimDuration,
        /// Detection time.
        at: SimTime,
    },
    /// A node looped sync sessions without ever completing one.
    SyncLivelock {
        /// The looping node.
        node: usize,
        /// Its committee.
        committee: usize,
        /// Consecutive sync starts without a completion.
        restarts: u32,
        /// Detection time.
        at: SimTime,
    },
}

impl LivenessViolation {
    /// The implicated committee.
    pub fn committee(&self) -> Option<usize> {
        match self {
            LivenessViolation::CommitStall { committee, .. }
            | LivenessViolation::MempoolStarvation { committee, .. }
            | LivenessViolation::ViewChangeStorm { committee, .. }
            | LivenessViolation::SyncLivelock { committee, .. } => Some(*committee),
        }
    }

    /// A representative stuck request id, when the violation has one.
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            LivenessViolation::CommitStall { probe, .. }
            | LivenessViolation::MempoolStarvation { probe, .. } => Some(*probe),
            _ => None,
        }
    }

    /// One-line human-readable description (dump-on-anomaly header).
    pub fn summary(&self) -> String {
        match self {
            LivenessViolation::CommitStall {
                committee,
                stalled_for,
                pending,
                at,
                probe,
            } => {
                format!(
                    "commit stall: committee {committee} has {pending} admitted txns waiting \
                     {:.1}s with no commit (t={:.1}s, probe id={probe})",
                    stalled_for.as_secs_f64(),
                    at.as_nanos() as f64 / 1e9,
                )
            }
            LivenessViolation::MempoolStarvation {
                committee,
                waiting_for,
                pending,
                at,
                probe,
            } => {
                format!(
                    "mempool starvation: committee {committee} admitted {pending} txns but \
                     proposed none for {:.1}s (t={:.1}s, probe id={probe})",
                    waiting_for.as_secs_f64(),
                    at.as_nanos() as f64 / 1e9,
                )
            }
            LivenessViolation::ViewChangeStorm {
                committee,
                count,
                window,
                at,
            } => {
                format!(
                    "view-change storm: committee {committee} installed {count} views within \
                     {:.1}s (t={:.1}s)",
                    window.as_secs_f64(),
                    at.as_nanos() as f64 / 1e9,
                )
            }
            LivenessViolation::SyncLivelock {
                node,
                committee,
                restarts,
                at,
            } => {
                format!(
                    "sync livelock: node {node} (committee {committee}) started {restarts} \
                     sync sessions without finishing one (t={:.1}s)",
                    at.as_nanos() as f64 / 1e9,
                )
            }
        }
    }
}

impl fmt::Display for LivenessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Per-committee progress bookkeeping.
#[derive(Clone, Debug, Default)]
struct CommitteeState {
    /// Last commit/exec stamp (or observation start).
    last_progress: SimTime,
    /// Admit stamps since the last progress.
    pending: u64,
    /// When the oldest still-pending admission arrived.
    first_pending: SimTime,
    /// Request id of that oldest pending admission.
    probe: u64,
    /// Last proposal stamp.
    last_propose: SimTime,
    /// View-change stamp times inside the sliding window.
    view_changes: VecDeque<SimTime>,
    /// A stall/starvation violation already fired for the current episode
    /// (re-arms on the next progress).
    stall_fired: bool,
    /// A storm violation already fired (one per committee per run).
    storm_fired: bool,
}

#[derive(Debug, Default)]
struct Inner {
    cfg: LivenessConfig,
    /// (committees, committee_size); node ids beyond are clients.
    topology: Option<(usize, usize)>,
    per: Vec<CommitteeState>,
    /// Consecutive sync starts without completion, per node (dense by
    /// replica node id).
    sync_starts: Vec<u32>,
    sync_fired: Vec<bool>,
    last_sweep: SimTime,
    violations: Vec<LivenessViolation>,
}

/// The liveness oracle. A cheaply cloneable handle (all clones observe and
/// report the same state) that implements [`TraceSink`]: install it with
/// `sim.stats_mut().set_trace_sink(...)` — or hand it to
/// `SystemConfig::liveness`, which does that and calls
/// [`LivenessChecker::finish`] for you.
#[derive(Clone, Debug, Default)]
pub struct LivenessChecker {
    inner: Arc<Mutex<Inner>>,
}

impl LivenessChecker {
    /// A checker with the given budgets. Topology must be installed (by
    /// the harness) before events mean anything.
    pub fn new(cfg: LivenessConfig) -> Self {
        LivenessChecker {
            inner: Arc::new(Mutex::new(Inner {
                cfg,
                ..Default::default()
            })),
        }
    }

    /// Declare the committee layout: `committees` committees of
    /// `committee_size` nodes, node id = `committee * committee_size +
    /// replica`, clients after. Resets all detector state.
    pub fn install_topology(&self, committees: usize, committee_size: usize) {
        let mut g = self.inner.lock().expect("liveness checker poisoned");
        g.topology = Some((committees, committee_size));
        g.per = vec![CommitteeState::default(); committees];
        g.sync_starts = vec![0; committees * committee_size];
        g.sync_fired = vec![false; committees * committee_size];
    }

    /// Run the final sweep at end-of-run time `at`: demand still waiting
    /// past its budget with the run over is a stall/starvation even if no
    /// further event triggered a periodic sweep.
    pub fn finish(&self, at: SimTime) {
        let mut g = self.inner.lock().expect("liveness checker poisoned");
        g.sweep(at);
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> Vec<LivenessViolation> {
        self.inner
            .lock()
            .expect("liveness checker poisoned")
            .violations
            .clone()
    }

    /// `true` when no violation has been recorded.
    pub fn ok(&self) -> bool {
        self.inner
            .lock()
            .expect("liveness checker poisoned")
            .violations
            .is_empty()
    }
}

impl TraceSink for LivenessChecker {
    fn on_trace(&mut self, at: SimTime, node: usize, id: u64, phase: Phase) {
        let mut g = self.inner.lock().expect("liveness checker poisoned");
        g.observe(at, node, id, phase);
    }
}

impl Inner {
    fn committee_of(&self, node: usize) -> Option<usize> {
        let (committees, size) = self.topology?;
        if size == 0 || node >= committees * size {
            return None; // client or unknown node
        }
        Some(node / size)
    }

    fn observe(&mut self, at: SimTime, node: usize, id: u64, phase: Phase) {
        if let Some(c) = self.committee_of(node) {
            let cfg_window = self.cfg.view_change_window;
            let st = &mut self.per[c];
            match phase {
                Phase::Commit | Phase::Exec | Phase::TwoPcDecide => {
                    st.last_progress = at;
                    st.pending = 0;
                    st.stall_fired = false;
                }
                Phase::Admit => {
                    if st.pending == 0 {
                        st.first_pending = at;
                        st.probe = id;
                    }
                    st.pending += 1;
                }
                Phase::Propose => st.last_propose = at,
                Phase::ViewChange => {
                    st.view_changes.push_back(at);
                    while st
                        .view_changes
                        .front()
                        .is_some_and(|&t| at.since(t) > cfg_window)
                    {
                        st.view_changes.pop_front();
                    }
                    if st.view_changes.len() > self.cfg.view_change_storm && !st.storm_fired {
                        st.storm_fired = true;
                        let count = st.view_changes.len();
                        self.violations.push(LivenessViolation::ViewChangeStorm {
                            committee: c,
                            count,
                            window: cfg_window,
                            at,
                        });
                    }
                }
                Phase::SyncStart => {
                    self.sync_starts[node] += 1;
                    if self.sync_starts[node] >= self.cfg.sync_livelock && !self.sync_fired[node] {
                        self.sync_fired[node] = true;
                        let restarts = self.sync_starts[node];
                        self.violations.push(LivenessViolation::SyncLivelock {
                            node,
                            committee: c,
                            restarts,
                            at,
                        });
                    }
                }
                Phase::SyncDone => {
                    self.sync_starts[node] = 0;
                    self.sync_fired[node] = false;
                }
                _ => {}
            }
        }
        // Sweep on a fraction of the smaller budget so a fully silent
        // (partitioned) committee is still checked by everyone else's
        // events within a quarter budget of the deadline.
        let tick = self
            .cfg
            .stall_budget
            .min(self.cfg.starvation_budget)
            .as_nanos()
            / 4;
        if at.as_nanos().saturating_sub(self.last_sweep.as_nanos()) >= tick {
            self.sweep(at);
        }
    }

    fn sweep(&mut self, at: SimTime) {
        self.last_sweep = at;
        let (stall, starve) = (self.cfg.stall_budget, self.cfg.starvation_budget);
        for (c, st) in self.per.iter_mut().enumerate() {
            if st.pending == 0 || st.stall_fired {
                continue;
            }
            let waiting = at.since(st.first_pending.max(st.last_progress));
            // Proposals since the demand arrived ⇒ the pipeline moves but
            // commits don't (stall); no proposal at all ⇒ starvation.
            let proposed = st.last_propose >= st.first_pending;
            if proposed && waiting > stall {
                st.stall_fired = true;
                self.violations.push(LivenessViolation::CommitStall {
                    committee: c,
                    stalled_for: waiting,
                    pending: st.pending,
                    at,
                    probe: st.probe,
                });
            } else if !proposed && waiting > starve {
                st.stall_fired = true;
                self.violations.push(LivenessViolation::MempoolStarvation {
                    committee: c,
                    waiting_for: waiting,
                    pending: st.pending,
                    at,
                    probe: st.probe,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    fn checker() -> LivenessChecker {
        let c = LivenessChecker::new(LivenessConfig::default());
        c.install_topology(2, 3); // nodes 0..6 replicas, rest clients
        c
    }

    #[test]
    fn healthy_stream_is_silent() {
        let mut c = checker();
        for i in 0..200u64 {
            let t = SimTime(i * 100_000_000); // one txn per 100 ms
            c.on_trace(t, 0, i, Phase::Admit);
            c.on_trace(t, 0, i, Phase::Propose);
            c.on_trace(t, 1, i, Phase::Commit);
            c.on_trace(t, 1, i, Phase::Exec);
        }
        c.finish(secs(21));
        assert!(c.ok(), "{:?}", c.violations());
    }

    #[test]
    fn commit_stall_fires_once_and_rearms() {
        let mut c = checker();
        // Demand admitted and proposed on committee 0, then silence; a
        // different committee's heartbeat drives the sweep.
        c.on_trace(secs(1), 0, 77, Phase::Admit);
        c.on_trace(secs(1), 0, 77, Phase::Propose);
        for s in 2..20 {
            c.on_trace(secs(s), 3, 1000 + s, Phase::Exec);
        }
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        match &v[0] {
            LivenessViolation::CommitStall {
                committee,
                probe,
                stalled_for,
                ..
            } => {
                assert_eq!(*committee, 0);
                assert_eq!(*probe, 77);
                assert!(stalled_for.as_secs_f64() > 5.0);
            }
            other => panic!("wrong violation: {other:?}"),
        }
        assert_eq!(v[0].committee(), Some(0));
        assert_eq!(v[0].trace_id(), Some(77));
        // Progress re-arms the detector; a second stall episode fires again.
        c.on_trace(secs(20), 1, 77, Phase::Exec);
        c.on_trace(secs(21), 0, 88, Phase::Admit);
        c.on_trace(secs(21), 0, 88, Phase::Propose);
        for s in 22..40 {
            c.on_trace(secs(s), 3, 2000 + s, Phase::Exec);
        }
        assert_eq!(c.violations().len(), 2);
    }

    #[test]
    fn starvation_when_nothing_proposed() {
        let mut c = checker();
        c.on_trace(secs(1), 4, 9, Phase::Admit);
        c.finish(secs(10));
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            matches!(
                v[0],
                LivenessViolation::MempoolStarvation {
                    committee: 1,
                    probe: 9,
                    ..
                }
            ),
            "{v:?}"
        );
    }

    #[test]
    fn view_change_storm_counts_in_window() {
        let mut c = checker();
        // 8 view changes in 10 s is the budget; the 9th fires.
        for i in 0..9u64 {
            c.on_trace(SimTime(i * 1_000_000_000), 2, i, Phase::ViewChange);
        }
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            LivenessViolation::ViewChangeStorm {
                committee: 0,
                count: 9,
                ..
            }
        ));
        // Spread far apart, the window forgets them: no second storm.
        for i in 0..20u64 {
            c.on_trace(secs(100 + i * 20), 2, i, Phase::ViewChange);
        }
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn sync_livelock_needs_consecutive_starts() {
        let mut c = checker();
        // Four starts each followed by a done: healthy re-syncs.
        for i in 0..4u64 {
            c.on_trace(secs(i), 5, i, Phase::SyncStart);
            c.on_trace(secs(i), 5, i, Phase::SyncDone);
        }
        assert!(c.ok());
        // Five consecutive starts without a done: livelock.
        for i in 0..5u64 {
            c.on_trace(secs(10 + i), 5, i, Phase::SyncStart);
        }
        let v = c.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            v[0],
            LivenessViolation::SyncLivelock {
                node: 5,
                committee: 1,
                restarts: 5,
                ..
            }
        ));
    }

    #[test]
    fn client_stamps_are_ignored() {
        let mut c = checker();
        c.on_trace(secs(1), 42, 7, Phase::Admit); // node 42 = client
        c.finish(secs(30));
        assert!(c.ok());
    }

    #[test]
    fn summaries_name_the_committee() {
        let mut c = checker();
        c.on_trace(secs(1), 0, 7, Phase::Admit);
        c.finish(secs(10));
        let v = c.violations();
        assert!(v[0].summary().contains("committee 0"), "{}", v[0].summary());
    }
}
