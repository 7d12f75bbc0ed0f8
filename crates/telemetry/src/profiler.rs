//! Wall-clock span profiler: where does *host CPU time* go?
//!
//! The simulator's virtual clock says where modeled latency lives; this
//! profiler answers the complementary question — which components burn
//! real time running the simulation (consensus execution and checkpoints,
//! SMT updates, WAL group commit, sync chunk verification).
//!
//! Usage is guard-based and hierarchical:
//!
//! ```
//! use ahl_telemetry::Profiler;
//! Profiler::enable();
//! {
//!     let _outer = Profiler::span("pbft.exec");
//!     let _inner = Profiler::span("smt.update"); // child of pbft.exec
//! } // guards drop: total/self attribution recorded
//! let report = Profiler::take();
//! assert!(report.self_total_ns() <= report.wall_ns);
//! ```
//!
//! State is **thread-local** and **disabled by default**: a span at a hot
//! path costs one thread-local read and a branch when profiling is off, so
//! instrumented crates pay nothing in normal runs, and parallel bench
//! cells (one simulation per thread) never mix attributions. `total` is
//! inclusive time, `self` excludes enclosed spans; recursive spans of the
//! same name double-count `total` but keep `self` exact, so the acceptance
//! invariant is Σ self ≤ wall.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct ProfState {
    enabled: bool,
    epoch: Option<Instant>,
    stack: Vec<Frame>,
    agg: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static PROF: RefCell<ProfState> = RefCell::new(ProfState::default());
}

/// Aggregated timing of one span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// The span name passed to [`Profiler::span`].
    pub name: &'static str,
    /// Completed activations.
    pub count: u64,
    /// Inclusive host time (children counted).
    pub total_ns: u64,
    /// Exclusive host time (children subtracted).
    pub self_ns: u64,
}

/// A harvested profile: spans sorted by self time, plus the wall time the
/// profiler was enabled for.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Host wall time between [`Profiler::enable`] and [`Profiler::take`].
    pub wall_ns: u64,
    /// Per-span attribution, sorted by `self_ns` descending.
    pub spans: Vec<SpanStat>,
}

impl ProfileReport {
    /// No spans fired (profiling was off, or nothing instrumented ran).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of exclusive times — must not exceed [`ProfileReport::wall_ns`].
    pub fn self_total_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }

    /// Render the sorted attribution table (the `experiments` text output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let wall_ms = self.wall_ns as f64 / 1e6;
        out.push_str(&format!(
            "host-time attribution (wall {wall_ms:.1} ms, attributed {:.1} ms):\n",
            self.self_total_ns() as f64 / 1e6
        ));
        out.push_str(&format!(
            "  {:<24} {:>10} {:>12} {:>12} {:>7}\n",
            "span", "count", "self (ms)", "total (ms)", "self %"
        ));
        for s in &self.spans {
            out.push_str(&format!(
                "  {:<24} {:>10} {:>12.2} {:>12.2} {:>6.1}%\n",
                s.name,
                s.count,
                s.self_ns as f64 / 1e6,
                s.total_ns as f64 / 1e6,
                if self.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * s.self_ns as f64 / self.wall_ns as f64
                },
            ));
        }
        out
    }
}

/// RAII guard returned by [`Profiler::span`]; dropping it records the
/// elapsed time. Inert (and nearly free) when profiling is disabled.
pub struct SpanGuard {
    live: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let Some(frame) = p.stack.pop() else { return };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            let agg = p.agg.entry(frame.name).or_default();
            agg.count += 1;
            agg.total_ns += elapsed;
            agg.self_ns += self_ns;
            if let Some(parent) = p.stack.last_mut() {
                parent.child_ns += elapsed;
            }
        });
    }
}

/// The thread-local profiler front end. All methods act on the calling
/// thread's state only.
pub struct Profiler;

impl Profiler {
    /// Turn profiling on for this thread, discarding any prior state.
    pub fn enable() {
        PROF.with(|p| {
            *p.borrow_mut() = ProfState {
                enabled: true,
                epoch: Some(Instant::now()),
                ..Default::default()
            };
        });
    }

    /// Is profiling currently enabled on this thread?
    pub fn is_enabled() -> bool {
        PROF.with(|p| p.borrow().enabled)
    }

    /// Open a span. Must be dropped in LIFO order (scopes do this
    /// naturally). A no-op guard when profiling is disabled.
    pub fn span(name: &'static str) -> SpanGuard {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            if !p.enabled {
                return SpanGuard { live: false };
            }
            p.stack.push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
            SpanGuard { live: true }
        })
    }

    /// Harvest the profile and disable profiling on this thread. Open
    /// spans (guards not yet dropped) are discarded.
    pub fn take() -> ProfileReport {
        PROF.with(|p| {
            let mut p = p.borrow_mut();
            let wall_ns = p.epoch.map(|e| e.elapsed().as_nanos() as u64).unwrap_or(0);
            let mut spans: Vec<SpanStat> = p
                .agg
                .iter()
                .map(|(&name, a)| SpanStat {
                    name,
                    count: a.count,
                    total_ns: a.total_ns,
                    self_ns: a.self_ns,
                })
                .collect();
            spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
            *p = ProfState::default();
            ProfileReport { wall_ns, spans }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < us * 1_000 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _ = Profiler::take(); // reset
        {
            let _g = Profiler::span("noop");
            spin(50);
        }
        let r = Profiler::take();
        assert!(r.is_empty());
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        Profiler::enable();
        {
            let _outer = Profiler::span("outer");
            spin(400);
            {
                let _inner = Profiler::span("inner");
                spin(400);
            }
            spin(400);
        }
        let r = Profiler::take();
        assert_eq!(r.spans.len(), 2);
        let outer = r.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = r.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Outer total covers all three spins; its self time excludes the
        // inner span entirely.
        assert!(outer.total_ns >= inner.total_ns + 700_000, "{r:?}");
        assert!(outer.self_ns >= 700_000 && outer.self_ns <= outer.total_ns - inner.total_ns);
        // The acceptance invariant: attributed self time ≤ wall time.
        assert!(r.self_total_ns() <= r.wall_ns, "{r:?}");
        // And the wall clock covers the whole enabled window.
        assert!(r.wall_ns >= 1_200_000);
    }

    #[test]
    fn sibling_spans_accumulate_counts() {
        Profiler::enable();
        for _ in 0..10 {
            let _g = Profiler::span("hot");
            spin(20);
        }
        let r = Profiler::take();
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].count, 10);
        assert!(r.self_total_ns() <= r.wall_ns);
        assert!(!Profiler::is_enabled(), "take() disables");
    }

    #[test]
    fn report_renders_sorted_table() {
        Profiler::enable();
        {
            let _a = Profiler::span("minor");
            spin(30);
        }
        {
            let _b = Profiler::span("major");
            spin(900);
        }
        let r = Profiler::take();
        assert_eq!(r.spans[0].name, "major", "sorted by self time");
        let table = r.render();
        assert!(table.contains("major"), "{table}");
        assert!(table.contains("self %"), "{table}");
        let major_line = table.lines().find(|l| l.contains("major")).unwrap();
        let minor_line = table.lines().find(|l| l.contains("minor")).unwrap();
        assert!(
            table.find(major_line.trim()).unwrap() < table.find(minor_line.trim()).unwrap(),
            "major first"
        );
    }
}
