//! Metric collection for simulation runs.
//!
//! All experiment outputs (throughput, latency, drop counts, view changes,
//! stale blocks, ...) are recorded here by actors through [`crate::Ctx`] and
//! read back by the harness after the run.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::time::{SimDuration, SimTime};
use crate::trace::{FlightRecorder, Phase, TraceSink};

/// A log-bucketed latency histogram covering 1 µs .. ~17 minutes.
///
/// Buckets are half-open ranges `[2^k µs, 2^(k+1) µs)`; values outside the
/// range clamp into the first/last bucket. This resolution is plenty for
/// consensus latencies which span ~100 µs (LAN crypto) to ~150 s (the paper's
/// Figure 15 worst case).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 31],
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 31],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            (63 - us.leading_zeros() as usize).min(30)
        }
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.buckets[Self::bucket_index(d.as_micros())] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Smallest recorded sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Approximate quantile (0.0 ..= 1.0), interpolated within the winning
    /// power-of-two bucket by cumulative position. Returns zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // Interpolate within [2^i, 2^(i+1)) µs: the target is the
                // (target - seen)'th of this bucket's c samples, assumed
                // uniformly spread across the bucket's width (= lo).
                let lo = 1u64 << i;
                let frac = (target - seen) as f64 / c as f64;
                let us = lo as f64 + frac * lo as f64;
                return SimDuration::from_nanos((us * 1_000.0) as u64)
                    .min(self.max())
                    .max(self.min());
            }
            seen += c;
        }
        self.max()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A metric label: which committee (shard) and which replica within it a
/// sample is attributable to.
///
/// Two granularities share one type: [`Scope::committee`] aggregates across a
/// committee (replica field holds [`Scope::ALL`]), [`Scope::replica`] pins a
/// single node. `Copy + Ord` and two small integers — using a `Scope` as a
/// map key costs no allocation on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Scope {
    /// Committee / shard index.
    pub committee: u32,
    /// Replica index within the committee, or [`Scope::ALL`].
    pub replica: u32,
}

impl Scope {
    /// Sentinel replica value meaning "whole committee".
    pub const ALL: u32 = u32::MAX;

    /// A committee-wide scope.
    pub fn committee(committee: usize) -> Self {
        Scope {
            committee: committee as u32,
            replica: Scope::ALL,
        }
    }

    /// A single-replica scope.
    pub fn replica(committee: usize, replica: usize) -> Self {
        Scope {
            committee: committee as u32,
            replica: replica as u32,
        }
    }

    /// Stable textual form: `c3` for a committee scope, `c3/r1` per replica.
    pub fn render(&self) -> String {
        if self.replica == Scope::ALL {
            format!("c{}", self.committee)
        } else {
            format!("c{}/r{}", self.committee, self.replica)
        }
    }
}

/// Global run statistics: named counters, named latency histograms, named
/// time series, scope-labeled variants of the first two, and the transaction
/// [`FlightRecorder`].
///
/// Keys are `&'static str` so recording is allocation-free on the hot path;
/// `BTreeMap` keeps report output deterministically ordered. Scoped writes
/// ([`Stats::inc_scoped`], [`Stats::record_latency_scoped`]) roll up into the
/// same global name, so readers of the unlabeled counters see identical
/// totals whether or not call sites attribute their samples.
///
/// A flight-recorder stamp ([`Stats::trace`]) writes none of these maps.
/// Its hop lands in an array of the `phase.*` histograms, and its ring
/// eviction is counted per node inside the [`FlightRecorder`]. The
/// readers — [`Stats::counter`], [`Stats::scoped_counter`],
/// [`Stats::counters`] and [`Stats::scoped_counters`] for
/// [`TRACE_DROPPED`], [`Stats::histogram`] for the hops — add those back
/// in, so every reader is exact at any point of a run.
#[derive(Default, Debug, Clone)]
pub struct Stats {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// The `phase.*` hop histograms, indexed like [`Phase::TRANSITIONS`].
    phases: [Histogram; 8],
    series: BTreeMap<&'static str, Vec<(SimTime, f64)>>,
    scoped_counters: BTreeMap<(&'static str, Scope), u64>,
    scoped_histograms: BTreeMap<(&'static str, Scope), Histogram>,
    recorder: FlightRecorder,
    sink: SinkHandle,
    /// `(committees, committee_size)` hint: lets trace-derived counters
    /// attribute a node id to a [`Scope`] (nodes past the committees are
    /// clients and stay unscoped).
    topology: Option<(usize, usize)>,
    /// Each node's ring evictions when the topology was last set: those
    /// before belong to earlier scopes (already in `scoped_counters`),
    /// those after to `topology`'s.
    evicted_at_topology: Vec<u64>,
}

/// Counter name for flight-recorder ring evictions: one per stamp that
/// evicted the oldest event of its node's full ring. The count lives in
/// the [`FlightRecorder`] (per node) and the counter readers add it in;
/// it is scoped per replica once [`Stats::set_topology`] is set.
pub const TRACE_DROPPED: &str = "trace.dropped";

/// Index into [`Phase::TRANSITIONS`] of a `phase.*` histogram name.
fn phase_hop(name: &str) -> Option<usize> {
    if !name.starts_with("phase.") {
        return None;
    }
    Phase::TRANSITIONS.iter().position(|n| *n == name)
}

/// Shared handle to an installed [`TraceSink`] (`None` = no tee). A newtype
/// so `Stats` keeps its derived `Clone`/`Default` and a readable `Debug`
/// without requiring sinks to implement either.
#[derive(Clone, Default)]
struct SinkHandle(Option<Arc<Mutex<dyn TraceSink + Send>>>);

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("TraceSink(installed)"),
            None => f.write_str("TraceSink(none)"),
        }
    }
}

impl Stats {
    /// Create an empty statistics store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by `delta`.
    pub fn inc(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Increment the `(name, scope)` labeled counter by `delta` *and* roll it
    /// up into the global counter `name`, so unlabeled readers are unaffected.
    pub fn inc_scoped(&mut self, name: &'static str, scope: Scope, delta: u64) {
        *self.scoped_counters.entry((name, scope)).or_insert(0) += delta;
        self.inc(name, delta);
    }

    /// Read counter `name` (zero if never written).
    pub fn counter(&self, name: &str) -> u64 {
        let written = self.counters.get(name).copied().unwrap_or(0);
        if name == TRACE_DROPPED {
            written + self.recorder.evicted().iter().sum::<u64>()
        } else {
            written
        }
    }

    /// Read the `(name, scope)` labeled counter (zero if never written).
    pub fn scoped_counter(&self, name: &'static str, scope: Scope) -> u64 {
        let written = self
            .scoped_counters
            .get(&(name, scope))
            .copied()
            .unwrap_or(0);
        match self.node_of(scope) {
            Some(node) if name == TRACE_DROPPED => written + self.evicted_since_topology(node),
            _ => written,
        }
    }

    /// Iterate all labeled counters in (name, scope) order.
    pub fn scoped_counters(&self) -> impl Iterator<Item = (&'static str, Scope, u64)> + '_ {
        let mut all: Vec<_> = self
            .scoped_counters
            .iter()
            .map(|(&(n, s), &v)| (n, s, v))
            .collect();
        for node in 0..self.recorder.evicted().len() {
            let evicted = self.evicted_since_topology(node);
            let Some(scope) = self.scope_of(node).filter(|_| evicted > 0) else {
                continue;
            };
            match all.binary_search_by(|&(n, s, _)| (n, s).cmp(&(TRACE_DROPPED, scope))) {
                Ok(i) => all[i].2 += evicted,
                Err(i) => all.insert(i, (TRACE_DROPPED, scope, evicted)),
            }
        }
        all.into_iter()
    }

    /// Record a duration sample in histogram `name`.
    pub fn record_latency(&mut self, name: &'static str, d: SimDuration) {
        match phase_hop(name) {
            Some(hop) => self.phases[hop].record(d),
            None => self.histograms.entry(name).or_default().record(d),
        }
    }

    /// Record a duration sample in the `(name, scope)` labeled histogram
    /// *and* in the global histogram `name` (roll-up).
    pub fn record_latency_scoped(&mut self, name: &'static str, scope: Scope, d: SimDuration) {
        self.scoped_histograms
            .entry((name, scope))
            .or_default()
            .record(d);
        self.record_latency(name, d);
    }

    /// Read histogram `name` if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match phase_hop(name) {
            Some(hop) => Some(&self.phases[hop]).filter(|h| h.count() > 0),
            None => self.histograms.get(name),
        }
    }

    /// Read the `(name, scope)` labeled histogram if any samples were recorded.
    pub fn scoped_histogram(&self, name: &'static str, scope: Scope) -> Option<&Histogram> {
        self.scoped_histograms.get(&(name, scope))
    }

    /// Iterate all labeled histograms in (name, scope) order.
    pub fn scoped_histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, Scope, &Histogram)> + '_ {
        self.scoped_histograms.iter().map(|(&(n, s), h)| (n, s, h))
    }

    /// Stamp a flight-recorder event at `at` on behalf of `node`. Completed
    /// phase transitions land in the `phase.*` histograms (see
    /// [`Phase::TRANSITIONS`]); ring evictions are counted under
    /// [`TRACE_DROPPED`] (scoped per replica when a topology hint is set),
    /// and the stamp is teed into the installed [`TraceSink`], if any.
    /// Actors normally call [`crate::Ctx::trace`], which fills in the clock
    /// and node id.
    pub fn trace(&mut self, at: SimTime, node: usize, id: u64, phase: Phase) {
        if let Some(tr) = self.recorder.record(at, node, id, phase) {
            self.phases[tr.hop].record(tr.delta);
        }
        if let Some(sink) = &self.sink.0 {
            sink.lock()
                .expect("trace sink poisoned")
                .on_trace(at, node, id, phase);
        }
    }

    /// Install a [`TraceSink`] tee: every subsequent [`Stats::trace`] stamp
    /// is forwarded to `sink` after normal recording. One sink at a time;
    /// installing replaces the previous one.
    pub fn set_trace_sink(&mut self, sink: Arc<Mutex<dyn TraceSink + Send>>) {
        self.sink = SinkHandle(Some(sink));
    }

    /// Remove the installed [`TraceSink`], if any.
    pub fn clear_trace_sink(&mut self) {
        self.sink = SinkHandle(None);
    }

    /// Declare the run's committee layout (`committees` committees of
    /// `committee_size` nodes, ids `committee * committee_size + replica`,
    /// clients after) so trace-derived counters can be scope-labeled.
    pub fn set_topology(&mut self, committees: usize, committee_size: usize) {
        // Evictions so far keep the scopes the old topology gave them.
        for node in 0..self.recorder.evicted().len() {
            let evicted = self.evicted_since_topology(node);
            if let Some(scope) = self.scope_of(node).filter(|_| evicted > 0) {
                *self
                    .scoped_counters
                    .entry((TRACE_DROPPED, scope))
                    .or_insert(0) += evicted;
            }
        }
        self.evicted_at_topology = self.recorder.evicted().to_vec();
        self.topology = Some((committees, committee_size));
    }

    fn scope_of(&self, node: usize) -> Option<Scope> {
        let (committees, size) = self.topology?;
        if size == 0 || node >= committees * size {
            return None;
        }
        Some(Scope::replica(node / size, node % size))
    }

    /// The node a replica scope names under the current topology.
    fn node_of(&self, scope: Scope) -> Option<usize> {
        let (committees, size) = self.topology?;
        let (committee, replica) = (scope.committee as usize, scope.replica as usize);
        (scope.replica != Scope::ALL && committee < committees && replica < size)
            .then_some(committee * size + replica)
    }

    /// `node`'s ring evictions since the topology was last set.
    fn evicted_since_topology(&self, node: usize) -> u64 {
        let count = |v: &[u64]| v.get(node).copied().unwrap_or(0);
        count(self.recorder.evicted()) - count(&self.evicted_at_topology)
    }

    /// The transaction flight recorder (post-run inspection, dumps).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Change the flight recorder's per-node ring capacity (see
    /// [`FlightRecorder::set_capacity`]). The recorder is lent out
    /// read-only otherwise: it holds the eviction counts [`TRACE_DROPPED`]
    /// reads, so it is never swapped out from under them.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.recorder.set_capacity(capacity);
    }

    /// Append a (time, value) point to series `name`.
    pub fn record_point(&mut self, name: &'static str, t: SimTime, v: f64) {
        self.series.entry(name).or_default().push((t, v));
    }

    /// Read time series `name` (empty slice if never written).
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate counters in key order (for reports).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut all: Vec<_> = self.counters.iter().map(|(k, v)| (*k, *v)).collect();
        let evicted: u64 = self.recorder.evicted().iter().sum();
        if evicted > 0 {
            match all.binary_search_by(|&(n, _)| n.cmp(TRACE_DROPPED)) {
                Ok(i) => all[i].1 += evicted,
                Err(i) => all.insert(i, (TRACE_DROPPED, evicted)),
            }
        }
        all.into_iter()
    }

    /// Compute the event rate of series `name` interpreted as per-point
    /// counts, over the window `[from, to)`, in events per second.
    pub fn rate_in_window(&self, name: &str, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let total: f64 = self
            .series(name)
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .sum();
        total / to.since(from).as_secs_f64()
    }

    /// Bucket series `name` into fixed-width windows and return
    /// (window_start, events/sec) pairs — used for throughput-over-time plots
    /// such as the paper's Figure 12 (right).
    pub fn rate_series(
        &self,
        name: &str,
        window: SimDuration,
        until: SimTime,
    ) -> Vec<(SimTime, f64)> {
        if window == SimDuration::ZERO {
            return Vec::new();
        }
        let w = window.as_nanos();
        let nwin = (until.as_nanos() / w + 1) as usize;
        let mut sums = vec![0.0f64; nwin];
        for (t, v) in self.series(name) {
            let idx = (t.as_nanos() / w) as usize;
            if idx < nwin {
                sums[idx] += v;
            }
        }
        sums.into_iter()
            .enumerate()
            .map(|(i, s)| (SimTime(i as u64 * w), s / window.as_secs_f64()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.inc("commits", 3);
        s.inc("commits", 4);
        assert_eq!(s.counter("commits"), 7);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn histogram_basic_moments() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(100));
        h.record(SimDuration::from_micros(300));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean().as_micros(), 200);
        assert_eq!(h.min().as_micros(), 100);
        assert_eq!(h.max().as_micros(), 300);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!(p50.as_micros() >= 256 && p50.as_micros() <= 1024);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // Uniform 1..=1000 µs: interpolation must land near the true
        // quantiles instead of the old fixed bucket midpoint (384 µs for
        // p50, 768 µs for p99).
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_micros(i));
        }
        let p50 = h.quantile(0.5).as_micros();
        let p99 = h.quantile(0.99).as_micros();
        let p999 = h.quantile(0.999).as_micros();
        assert!((450..=550).contains(&p50), "p50 = {p50} µs, want ~500");
        assert!((940..=1000).contains(&p99), "p99 = {p99} µs, want ~990");
        assert!(p99 <= p999 && p999 <= 1000, "p999 = {p999} µs");
        // Quantiles never escape the observed range.
        assert!(h.quantile(0.0001).as_micros() >= 1);
        assert!(h.quantile(1.0).as_micros() <= 1000);
    }

    #[test]
    fn scoped_counters_roll_up() {
        let mut s = Stats::new();
        s.inc_scoped("txn.committed", Scope::committee(0), 5);
        s.inc_scoped("txn.committed", Scope::committee(1), 7);
        s.inc_scoped("wal.batches", Scope::replica(1, 2), 3);
        assert_eq!(s.counter("txn.committed"), 12, "global roll-up");
        assert_eq!(s.scoped_counter("txn.committed", Scope::committee(0)), 5);
        assert_eq!(s.scoped_counter("txn.committed", Scope::committee(1)), 7);
        assert_eq!(s.counter("wal.batches"), 3);
        assert_eq!(s.scoped_counter("wal.batches", Scope::replica(1, 2)), 3);
        assert_eq!(s.scoped_counter("wal.batches", Scope::replica(1, 0)), 0);
        let all: Vec<_> = s.scoped_counters().collect();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn scoped_histograms_roll_up() {
        let mut s = Stats::new();
        s.record_latency_scoped(
            "txn.latency",
            Scope::committee(0),
            SimDuration::from_micros(100),
        );
        s.record_latency_scoped(
            "txn.latency",
            Scope::committee(1),
            SimDuration::from_micros(300),
        );
        assert_eq!(s.histogram("txn.latency").unwrap().count(), 2);
        assert_eq!(
            s.scoped_histogram("txn.latency", Scope::committee(1))
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn trace_derives_phase_histograms() {
        use crate::trace::Phase;
        let mut s = Stats::new();
        s.trace(SimTime(0), 0, 42, Phase::Submit);
        s.trace(SimTime(2_000_000), 1, 42, Phase::Ingest);
        s.trace(SimTime(3_000_000), 1, 42, Phase::Admit);
        let h = s.histogram("phase.submit_ingest").expect("hop recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean().as_millis(), 2);
        assert_eq!(s.histogram("phase.ingest_admit").unwrap().count(), 1);
    }

    #[test]
    fn ring_eviction_is_counted_and_scoped() {
        let mut s = Stats::new();
        s.set_trace_capacity(4);
        s.set_topology(1, 2); // nodes 0,1 are c0/r0,c0/r1; node 2+ clients
        for i in 0..10u64 {
            s.trace(SimTime(i), 1, i, Phase::WalCommit);
        }
        // 10 events into a 4-slot ring: 6 evictions, attributed to c0/r1.
        assert_eq!(s.counter(TRACE_DROPPED), 6);
        assert_eq!(s.scoped_counter(TRACE_DROPPED, Scope::replica(0, 1)), 6);
        assert_eq!(s.recorder().dropped(1), 6);
        assert_eq!(s.recorder().occupancy(), 4);
        // A client node's evictions land in the global counter only.
        for i in 0..5u64 {
            s.trace(SimTime(i), 7, 100 + i, Phase::WalCommit);
        }
        assert_eq!(s.counter(TRACE_DROPPED), 7);
        assert_eq!(s.recorder().total_dropped(), 7);
    }

    #[test]
    fn trace_sink_sees_every_stamp() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Tape(Vec<(SimTime, usize, u64, Phase)>);
        impl crate::trace::TraceSink for Tape {
            fn on_trace(&mut self, at: SimTime, node: usize, id: u64, phase: Phase) {
                self.0.push((at, node, id, phase));
            }
        }
        let tape = Arc::new(Mutex::new(Tape::default()));
        let mut s = Stats::new();
        s.set_trace_sink(tape.clone());
        s.trace(SimTime(1), 0, 9, Phase::Submit);
        s.trace(SimTime(2), 1, 9, Phase::Ingest);
        s.clear_trace_sink();
        s.trace(SimTime(3), 1, 9, Phase::Admit);
        let seen = &tape.lock().unwrap().0;
        assert_eq!(seen.len(), 2, "tee stops after clear");
        assert_eq!(seen[0], (SimTime(1), 0, 9, Phase::Submit));
        // The normal recording path still ran for all three stamps.
        assert_eq!(s.histogram("phase.ingest_admit").unwrap().count(), 1);
    }

    #[test]
    fn scope_render_is_stable() {
        assert_eq!(Scope::committee(3).render(), "c3");
        assert_eq!(Scope::replica(3, 1).render(), "c3/r1");
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.9), SimDuration::ZERO);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min().as_micros(), 10);
        assert_eq!(a.max().as_micros(), 1000);
    }

    #[test]
    fn rate_window() {
        let mut s = Stats::new();
        for i in 0..10 {
            s.record_point("commit", SimTime(i * 100_000_000), 1.0); // every 100 ms
        }
        let rate = s.rate_in_window("commit", SimTime::ZERO, SimTime(1_000_000_000));
        assert!((rate - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rate_series_buckets() {
        let mut s = Stats::new();
        for i in 0..20 {
            s.record_point("commit", SimTime(i * 50_000_000), 1.0); // 20 evts in 1 s
        }
        let series = s.rate_series(
            "commit",
            SimDuration::from_millis(500),
            SimTime(1_000_000_000),
        );
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 20.0).abs() < 1e-9);
        assert!((series[1].1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_index_clamps() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), 30);
    }
}
