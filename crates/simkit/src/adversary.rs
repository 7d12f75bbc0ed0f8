//! Message-bus interposition: the adversary's grip on the network.
//!
//! Every send passes through an optional [`Interpose`] hook *before* the
//! [`crate::Network`] model assigns its latency. The hook returns a
//! [`Verdict`] — deliver, drop, delay, or duplicate — which lets tests
//! script exactly the adversarial schedules that break sharded designs in
//! the literature: partitions that isolate a quorum, heal-time message
//! storms, selective drops of one protocol phase, duplicated/reordered
//! votes. Because the hook runs inside the deterministic event loop (and
//! only draws randomness from the engine's seeded network RNG), every
//! attack schedule is bit-for-bit reproducible from the run seed.
//!
//! [`ScriptedFaults`] is the batteries-included implementation: a list of
//! [`FaultRule`]s, each active in a time window, matching messages by
//! source/destination sets and an optional payload predicate. The first
//! matching rule decides. A partition is one rule:
//!
//! ```
//! use ahl_simkit::adversary::{FaultRule, ScriptedFaults};
//! use ahl_simkit::{SimDuration, SimTime};
//!
//! let t0 = SimTime::ZERO;
//! // Nodes {0,1} and {2,3} cannot talk for the first two seconds.
//! let faults: ScriptedFaults<()> = ScriptedFaults::new(vec![FaultRule::partition(
//!     t0,
//!     t0 + SimDuration::from_secs(2),
//!     vec![0, 1],
//!     vec![2, 3],
//! )]);
//! # let _ = faults;
//! ```

use rand::rngs::SmallRng;
use rand::Rng;

use crate::engine::NodeId;
use crate::time::{SimDuration, SimTime};

/// What the interposer decides for one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Hand the message to the network model unchanged.
    Deliver,
    /// Silently drop it (counted as `adv.dropped`).
    Drop,
    /// Deliver after an extra delay on top of the network latency
    /// (reordering attack: the delayed message is overtaken by later,
    /// undelayed ones).
    Delay(SimDuration),
    /// Deliver the original plus `copies` duplicates, each `gap` apart
    /// (replay attack against idempotence/dedup layers).
    Duplicate {
        /// Extra copies beyond the original.
        copies: u32,
        /// Spacing between consecutive copies.
        gap: SimDuration,
    },
}

/// Adversarial interposition hook on the message bus. Implementations must
/// be deterministic given the same call sequence and RNG stream.
pub trait Interpose<M> {
    /// Decide the fate of one message about to enter the network.
    fn intercept(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Verdict;
}

/// A boxed payload predicate used by [`FaultMatch`].
pub type MsgPredicate<M> = Box<dyn FnMut(&M) -> bool>;

/// Which messages a [`FaultRule`] applies to: source/destination sets and
/// an optional payload predicate, all of which must match.
pub struct FaultMatch<M> {
    /// Source nodes the rule covers (`None` = every source).
    pub from: Option<Vec<NodeId>>,
    /// Destination nodes the rule covers (`None` = every destination).
    pub to: Option<Vec<NodeId>>,
    /// Payload predicate (`None` = every message).
    pub predicate: Option<MsgPredicate<M>>,
}

impl<M> FaultMatch<M> {
    /// Match every message.
    pub fn any() -> Self {
        FaultMatch {
            from: None,
            to: None,
            predicate: None,
        }
    }

    /// Match messages satisfying `p` (any source/destination).
    pub fn msgs(p: impl FnMut(&M) -> bool + 'static) -> Self {
        FaultMatch {
            from: None,
            to: None,
            predicate: Some(Box::new(p)),
        }
    }

    fn matches(&mut self, from: NodeId, to: NodeId, msg: &M) -> bool {
        if let Some(f) = &self.from {
            if !f.contains(&from) {
                return false;
            }
        }
        if let Some(t) = &self.to {
            if !t.contains(&to) {
                return false;
            }
        }
        match &mut self.predicate {
            Some(p) => p(msg),
            None => true,
        }
    }
}

/// The fault a matching rule injects.
pub enum FaultKind {
    /// Drop with probability `p` (1.0 = always).
    Drop {
        /// Drop probability in `[0, 1]`.
        p: f64,
    },
    /// Add a delay drawn uniformly from `[min, max]`.
    Delay {
        /// Minimum extra delay.
        min: SimDuration,
        /// Maximum extra delay.
        max: SimDuration,
    },
    /// Duplicate each message.
    Duplicate {
        /// Extra copies.
        copies: u32,
        /// Spacing between copies.
        gap: SimDuration,
    },
}

/// One scripted fault: a time window, a message matcher, and the fault to
/// inject while active. `cross_cut`, when set, replaces the matcher's
/// from/to logic with a symmetric "crosses the partition" test.
pub struct FaultRule<M> {
    /// Rule becomes active at this time (inclusive).
    pub from_time: SimTime,
    /// Rule deactivates — "heals" — at this time (exclusive). Use
    /// [`SimTime::MAX`] for a fault that never heals.
    pub until: SimTime,
    /// Which messages the rule covers.
    pub matcher: FaultMatch<M>,
    /// What happens to covered messages.
    pub kind: FaultKind,
    /// Symmetric partition test (set by [`FaultRule::partition`]): the
    /// rule covers messages for which this returns true, regardless of
    /// the matcher's from/to sets.
    cross_cut: Option<Box<dyn Fn(NodeId, NodeId) -> bool>>,
}

impl<M> FaultRule<M> {
    /// A full partition between node sets `a` and `b` during
    /// `[from_time, until)`: every message crossing the cut (either
    /// direction) is dropped. Traffic inside each side flows normally.
    pub fn partition(from_time: SimTime, until: SimTime, a: Vec<NodeId>, b: Vec<NodeId>) -> Self {
        FaultRule {
            from_time,
            until,
            matcher: FaultMatch::any(),
            kind: FaultKind::Drop { p: 1.0 },
            cross_cut: Some(Box::new(move |from, to| {
                (a.contains(&from) && b.contains(&to)) || (b.contains(&from) && a.contains(&to))
            })),
        }
    }

    /// Drop every message from any of `from` to any of `to` during the
    /// window (one-directional link cut).
    pub fn drop_link(
        from_time: SimTime,
        until: SimTime,
        from: Vec<NodeId>,
        to: Vec<NodeId>,
    ) -> Self {
        FaultRule {
            from_time,
            until,
            matcher: FaultMatch {
                from: Some(from),
                to: Some(to),
                predicate: None,
            },
            kind: FaultKind::Drop { p: 1.0 },
            cross_cut: None,
        }
    }

    /// Delay matching messages by a uniform draw from `[min, max]`.
    pub fn delay(
        from_time: SimTime,
        until: SimTime,
        matcher: FaultMatch<M>,
        min: SimDuration,
        max: SimDuration,
    ) -> Self {
        FaultRule {
            from_time,
            until,
            matcher,
            kind: FaultKind::Delay { min, max },
            cross_cut: None,
        }
    }

    /// Duplicate matching messages (`copies` extras, `gap` apart).
    pub fn duplicate(
        from_time: SimTime,
        until: SimTime,
        matcher: FaultMatch<M>,
        copies: u32,
        gap: SimDuration,
    ) -> Self {
        FaultRule {
            from_time,
            until,
            matcher,
            kind: FaultKind::Duplicate { copies, gap },
            cross_cut: None,
        }
    }

    /// Drop matching messages with probability `p`.
    pub fn lossy(from_time: SimTime, until: SimTime, matcher: FaultMatch<M>, p: f64) -> Self {
        FaultRule {
            from_time,
            until,
            matcher,
            kind: FaultKind::Drop { p },
            cross_cut: None,
        }
    }
}

/// Scripted fault schedule: the first active matching rule decides; no
/// match means [`Verdict::Deliver`].
pub struct ScriptedFaults<M> {
    rules: Vec<FaultRule<M>>,
}

impl<M> ScriptedFaults<M> {
    /// Build a schedule from rules (priority = list order).
    pub fn new(rules: Vec<FaultRule<M>>) -> Self {
        ScriptedFaults { rules }
    }
}

impl<M> Interpose<M> for ScriptedFaults<M> {
    fn intercept(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &M,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Verdict {
        for rule in &mut self.rules {
            if now < rule.from_time || now >= rule.until {
                continue;
            }
            let hit = match &rule.cross_cut {
                Some(cut) => cut(from, to),
                None => rule.matcher.matches(from, to, msg),
            };
            if !hit {
                continue;
            }
            return match &rule.kind {
                FaultKind::Drop { p } => {
                    if *p >= 1.0 || rng.gen_range(0.0..1.0) < *p {
                        Verdict::Drop
                    } else {
                        Verdict::Deliver
                    }
                }
                FaultKind::Delay { min, max } => {
                    let span = max.as_nanos().saturating_sub(min.as_nanos());
                    let extra = if span == 0 {
                        0
                    } else {
                        rng.gen_range(0..=span)
                    };
                    Verdict::Delay(*min + SimDuration::from_nanos(extra))
                }
                FaultKind::Duplicate { copies, gap } => Verdict::Duplicate {
                    copies: *copies,
                    gap: *gap,
                },
            };
        }
        Verdict::Deliver
    }
}
