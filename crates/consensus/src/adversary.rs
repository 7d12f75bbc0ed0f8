//! The Byzantine adversary model and the global safety oracle.
//!
//! ## Attack catalogue
//!
//! [`Attack`] selects what the Byzantine replicas of a committee do.
//! Both BFT engines (PBFT and its variants; the lockstep engine, hence
//! IBFT and Tendermint) interpret the same catalogue at their own attack
//! surfaces:
//!
//! | Attack | Leader/proposer | Voter |
//! |--------|-----------------|-------|
//! | [`Attack::PaperFlood`] | equivocate (HL) / withhold (attested) | conflicting digests per half + junk-seq flood (§7.2) |
//! | [`Attack::Equivocate`] | two conflicting blocks for the *same* slot, one per committee half; colluders get both | echo per-half votes for every proposal seen (double-sign) |
//! | [`Attack::WithholdVotes`] | propose honestly | send no votes at all |
//! | [`Attack::StaleReplay`] | propose honestly | replay the previous slot's vote instead of the current one |
//! | [`Attack::BogusCheckpoint`] | propose honestly | vote a corrupted checkpoint root (PBFT) / a corrupted block digest (IBFT, Tendermint) |
//!
//! `Equivocate` is the canonical safety attack: at `f ≤ ⌊(n−1)/3⌋` quorum
//! intersection defeats it, and at `f > ⌊(n−1)/3⌋` it *forks the chain* —
//! the canary that proves the [`SafetyChecker`] is live. The halves are
//! deterministic (group-index parity), so runs reproduce exactly.
//!
//! ## Scripting a new attack
//!
//! 1. Add a variant to [`Attack`].
//! 2. Teach the two engines' attack sites about it — proposals go through
//!    `propose_batch` (PBFT) / `propose` (the lockstep engine behind IBFT
//!    and Tendermint), votes through each engine's `byzantine_vote`,
//!    checkpoints through PBFT's `send_checkpoint`.
//! 3. Add a cell to `tests/byzantine.rs`: run the protocol with the
//!    attack at `f ≤ ⌊(n−1)/3⌋` and assert `checker.assert_clean()` plus
//!    progress. Network-level misbehaviour (partitions, message
//!    drops/delays/duplicates) does not need protocol changes at all —
//!    script it with [`ahl_simkit::adversary::ScriptedFaults`].
//!
//! ## What the checker guarantees
//!
//! [`SafetyChecker`] is a process-global observer every honest replica
//! reports into. It checks, across all committees of a run:
//!
//! * **Agreement** — no two honest replicas commit different block
//!   digests at the same (committee, height) within one state lineage.
//! * **Cross-shard atomicity** — no transaction whose prepared write set
//!   was *applied* (committed) in one shard and *discarded* (aborted) in
//!   another.
//! * **Exactly-once execution** — no honest replica executes the same
//!   request id twice within one state lineage (double-spend guard; a
//!   lineage resets when a replica restarts or installs a full state
//!   transfer, which legitimately re-executes history).
//!
//! Violations are *recorded*, not panicked, so tests can assert both
//! directions: clean runs stay clean, and over-threshold runs provably
//! trip the checker.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ahl_crypto::Hash;

/// The scripted misbehaviour of a committee's Byzantine members.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Attack {
    /// The paper's §7.2 composite attack (the historical default):
    /// equivocating conflicting *sequence numbers* when unattested,
    /// withholding when attested, plus a junk-vote flood that loads
    /// honest verification queues.
    #[default]
    PaperFlood,
    /// Classic double-sign equivocation: the Byzantine leader/proposer
    /// sends two conflicting blocks for the same slot to disjoint halves
    /// of the committee (colluding Byzantine voters echo per-half votes).
    Equivocate,
    /// Byzantine members send no votes at all (silent stall).
    WithholdVotes,
    /// Byzantine members replay their stale previous-slot votes instead
    /// of voting the current slot.
    StaleReplay,
    /// Byzantine members vote for corrupted checkpoint roots (PBFT) or
    /// corrupted block digests (IBFT/Tendermint).
    BogusCheckpoint,
    /// PBFT only, and kept out of [`Attack::ALL`]: a Byzantine member
    /// votes honestly but rewrites one request of every block tail it
    /// serves a syncing peer (the lockstep engine serves no tails, so it
    /// treats this as [`Attack::WithholdVotes`]).
    ForgeTail,
}

impl Attack {
    /// Display name for tables and logs.
    pub fn name(self) -> &'static str {
        match self {
            Attack::PaperFlood => "paper-flood",
            Attack::Equivocate => "equivocate",
            Attack::WithholdVotes => "withhold",
            Attack::StaleReplay => "stale-replay",
            Attack::BogusCheckpoint => "bogus-ckpt",
            Attack::ForgeTail => "forge-tail",
        }
    }

    /// The catalogue, in matrix order.
    pub const ALL: [Attack; 4] = [
        Attack::Equivocate,
        Attack::WithholdVotes,
        Attack::StaleReplay,
        Attack::BogusCheckpoint,
    ];
}

/// The committee half a peer belongs to under the equivocation attack:
/// deterministic group-index parity, shared by the equivocating leader
/// and its colluding voters so their stories line up.
pub fn equivocation_half(group_index: usize) -> usize {
    group_index % 2
}

/// The bookkeeping a colluding equivocator keeps per consensus slot:
/// which conflicting proposals it has seen, and which committee half each
/// one's votes target. Shared by the PBFT and lockstep colluders so the
/// double-signing logic cannot drift between engines.
#[derive(Clone, Debug, Default)]
pub struct EquivocationTracker {
    seen: HashMap<u128, Vec<Hash>>,
}

impl EquivocationTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `digest` as proposed at `slot` (the protocol's
    /// height/round or sequence, packed by the caller). Returns `None`
    /// for a duplicate; otherwise `(half, split)` — the committee half
    /// this digest's votes target (its rank among the slot's sorted
    /// digests) and whether a conflicting proposal exists yet. While
    /// `split` is false the colluder votes to *everyone* (covert mode:
    /// an honest-looking vote keeps the committee live and the colluder
    /// unsuspected); once a second digest shows up, votes go per half.
    pub fn observe(&mut self, slot: u128, digest: Hash) -> Option<(usize, bool)> {
        if self.seen.len() > 1024 && !self.seen.contains_key(&slot) {
            self.seen.clear(); // bounded bookkeeping; attacks are bursty
        }
        let seen = self.seen.entry(slot).or_default();
        if seen.contains(&digest) {
            return None;
        }
        seen.push(digest);
        let mut sorted = seen.clone();
        sorted.sort_by_key(|d| d.0);
        let half = sorted.iter().position(|d| *d == digest).unwrap_or(0) % 2;
        Some((half, sorted.len() > 1))
    }
}

/// Content-addressed identity of a committed batch: the ordered request
/// ids, independent of the view/round the protocol wrapped them in. The
/// [`SafetyChecker`] compares *these* across honest replicas — a
/// legitimate re-proposal of the same batch in a later view must not read
/// as a fork, while any divergence in the ordered content must.
pub fn commit_digest(req_ids: impl IntoIterator<Item = u64>) -> Hash {
    let parts: Vec<Vec<u8>> = std::iter::once(b"commit-digest".to_vec())
        .chain(req_ids.into_iter().map(|id| id.to_be_bytes().to_vec()))
        .collect();
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    ahl_crypto::sha256_parts(&refs)
}

impl Violation {
    /// The committee (shard) whose flight-recorder trace explains this
    /// violation, when one is attributable; atomicity breaks name the shard
    /// that applied the write set.
    pub fn committee(&self) -> Option<usize> {
        match self {
            Violation::ConflictingCommit { committee, .. } => Some(*committee),
            Violation::AtomicityBreak { committed_in, .. } => Some(*committed_in),
            Violation::DoubleExecution { committee, .. } => Some(*committee),
        }
    }

    /// The request/transaction id to pull a lifecycle trace for, if any.
    pub fn trace_id(&self) -> Option<u64> {
        match self {
            Violation::ConflictingCommit { .. } => None,
            Violation::AtomicityBreak { txid, .. } => Some(*txid),
            Violation::DoubleExecution { req_id, .. } => Some(*req_id),
        }
    }

    /// One-line human-readable summary for anomaly dumps.
    pub fn summary(&self) -> String {
        match self {
            Violation::ConflictingCommit { committee, height, a, b } => format!(
                "conflicting commit: committee {committee} height {height} digests {:02x}{:02x}.. vs {:02x}{:02x}..",
                a.0[0], a.0[1], b.0[0], b.0[1]
            ),
            Violation::AtomicityBreak { txid, committed_in, aborted_in } => format!(
                "atomicity break: txn {txid} applied in shard {committed_in}, discarded in shard {aborted_in}"
            ),
            Violation::DoubleExecution { committee, replica, req_id } => format!(
                "double execution: committee {committee} replica {replica} request {req_id}"
            ),
        }
    }
}

/// One recorded safety violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two honest replicas committed different blocks at one height.
    ConflictingCommit {
        /// Committee the conflict happened in.
        committee: usize,
        /// The disputed height / sequence number.
        height: u64,
        /// First honest digest recorded.
        a: Hash,
        /// The conflicting honest digest.
        b: Hash,
    },
    /// A cross-shard transaction was applied in one shard and discarded
    /// in another.
    AtomicityBreak {
        /// The transaction.
        txid: u64,
        /// A shard that committed the prepared write set.
        committed_in: usize,
        /// A shard that aborted it.
        aborted_in: usize,
    },
    /// An honest replica executed the same request id twice.
    DoubleExecution {
        /// Committee of the offending replica.
        committee: usize,
        /// Replica group index.
        replica: usize,
        /// The request executed twice.
        req_id: u64,
    },
}

#[derive(Default)]
struct CheckerInner {
    /// (committee, height) → first honest commit digest.
    commits: HashMap<(usize, u64), Hash>,
    /// txid → per-shard decision (true = applied / false = discarded).
    twopc: HashMap<u64, HashMap<usize, bool>>,
    /// (committee, replica, lineage) → executed request ids.
    executed: HashMap<(usize, usize, u64), std::collections::HashSet<u64>>,
    /// (committee, replica) → current lineage (bumped on restart/install).
    lineage: HashMap<(usize, usize), u64>,
    violations: Vec<Violation>,
    /// Total honest commit records (liveness cross-check for tests).
    commit_records: u64,
}

/// Global safety oracle shared by every honest replica of a run (clone =
/// handle; the state is reference-counted). See the module docs for the
/// invariants.
#[derive(Clone, Default)]
pub struct SafetyChecker {
    inner: Arc<Mutex<CheckerInner>>,
}

impl std::fmt::Debug for SafetyChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("checker lock");
        write!(
            f,
            "SafetyChecker(commits: {}, violations: {})",
            inner.commit_records,
            inner.violations.len()
        )
    }
}

impl SafetyChecker {
    /// A fresh checker with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// An honest replica committed (executed) a block: `digest` at
    /// `height` in `committee`. Conflicting digests at one height are the
    /// fork the BFT protocols must make impossible at `f ≤ ⌊(n−1)/3⌋`.
    pub fn record_commit(&self, committee: usize, height: u64, digest: Hash) {
        let mut inner = self.inner.lock().expect("checker lock");
        inner.commit_records += 1;
        match inner.commits.get(&(committee, height)) {
            Some(first) if *first != digest => {
                let a = *first;
                inner.violations.push(Violation::ConflictingCommit {
                    committee,
                    height,
                    a,
                    b: digest,
                });
            }
            Some(_) => {}
            None => {
                inner.commits.insert((committee, height), digest);
            }
        }
    }

    /// An honest replica resolved a *prepared* cross-shard transaction:
    /// `applied = true` for a commit that applied the pending write set,
    /// `false` for an abort that discarded one. No-op deliveries (commit
    /// or abort of a transaction never prepared here) must not be
    /// reported.
    pub fn record_twopc(&self, shard: usize, txid: u64, applied: bool) {
        let mut inner = self.inner.lock().expect("checker lock");
        let decisions = inner.twopc.entry(txid).or_default();
        decisions.insert(shard, applied);
        // Deterministic representatives (lowest shard id per side), so a
        // re-reported decision dedups against the same violation value.
        let committed_in = decisions.iter().filter(|(_, a)| **a).map(|(s, _)| *s).min();
        let aborted_in = decisions
            .iter()
            .filter(|(_, a)| !**a)
            .map(|(s, _)| *s)
            .min();
        if let (Some(c), Some(a)) = (committed_in, aborted_in) {
            let v = Violation::AtomicityBreak {
                txid,
                committed_in: c,
                aborted_in: a,
            };
            if !inner.violations.contains(&v) {
                inner.violations.push(v);
            }
        }
    }

    /// An honest replica executed request `req_id`. Within one lineage a
    /// repeat is a double execution.
    pub fn record_exec(&self, committee: usize, replica: usize, req_id: u64) {
        let mut inner = self.inner.lock().expect("checker lock");
        let lineage = inner
            .lineage
            .get(&(committee, replica))
            .copied()
            .unwrap_or(0);
        if !inner
            .executed
            .entry((committee, replica, lineage))
            .or_default()
            .insert(req_id)
        {
            inner.violations.push(Violation::DoubleExecution {
                committee,
                replica,
                req_id,
            });
        }
    }

    /// One honest execution, fully observed: exactly-once bookkeeping plus
    /// the 2PC decision, when the executed op resolves a prepared
    /// cross-shard transaction. Every engine's exec path reports through
    /// here via [`crate::common::BlockExecutor`], which supplies
    /// `had_pending` (whether the shard held a prepared write set *before*
    /// executing, so no-op abort deliveries are not reported) and
    /// `committed` (whether a `Commit` op actually applied).
    pub fn observe_exec(
        &self,
        committee: usize,
        replica: usize,
        req_id: u64,
        op: &ahl_ledger::Op,
        had_pending: bool,
        committed: bool,
    ) {
        self.record_exec(committee, replica, req_id);
        match op {
            ahl_ledger::Op::Commit { txid } if committed => {
                self.record_twopc(committee, txid.0, true);
            }
            ahl_ledger::Op::Abort { txid } if had_pending => {
                self.record_twopc(committee, txid.0, false);
            }
            _ => {}
        }
    }

    /// A replica restarted or installed a full state transfer: it now
    /// legitimately re-executes history, so its exactly-once scope
    /// resets. (Agreement and atomicity records are content-addressed
    /// and survive resets.)
    pub fn record_reset(&self, committee: usize, replica: usize) {
        let mut inner = self.inner.lock().expect("checker lock");
        let lineage = inner.lineage.entry((committee, replica)).or_insert(0);
        *lineage += 1;
        let keep = *lineage;
        inner
            .executed
            .retain(|(c, r, l), _| !(*c == committee && *r == replica && *l < keep));
    }

    /// Every violation recorded so far.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().expect("checker lock").violations.clone()
    }

    /// Total honest commit records observed (a liveness cross-check:
    /// a "clean" checker that observed nothing proves nothing).
    pub fn commit_records(&self) -> u64 {
        self.inner.lock().expect("checker lock").commit_records
    }

    /// Panic with the full violation list if any invariant broke.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "safety violations recorded: {v:#?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(b: u8) -> Hash {
        let mut x = [0u8; 32];
        x[0] = b;
        Hash(x)
    }

    #[test]
    fn agreement_conflict_detected() {
        let c = SafetyChecker::new();
        c.record_commit(0, 5, h(1));
        c.record_commit(0, 5, h(1)); // agreeing replica
        c.record_commit(1, 5, h(2)); // other committee, fine
        assert!(c.violations().is_empty());
        c.record_commit(0, 5, h(3));
        assert!(matches!(
            c.violations()[0],
            Violation::ConflictingCommit {
                committee: 0,
                height: 5,
                ..
            }
        ));
        assert_eq!(c.commit_records(), 4);
    }

    #[test]
    fn atomicity_break_detected_once() {
        let c = SafetyChecker::new();
        c.record_twopc(0, 7, true);
        c.record_twopc(1, 7, true);
        assert!(c.violations().is_empty());
        c.record_twopc(2, 7, false);
        c.record_twopc(2, 7, false); // duplicate report, one violation
        assert_eq!(c.violations().len(), 1);
        assert!(matches!(
            c.violations()[0],
            Violation::AtomicityBreak { txid: 7, .. }
        ));
    }

    #[test]
    fn double_execution_detected_and_lineage_resets() {
        let c = SafetyChecker::new();
        c.record_exec(0, 1, 42);
        c.record_exec(0, 2, 42); // other replica, fine
        assert!(c.violations().is_empty());
        c.record_exec(0, 1, 42);
        assert!(matches!(
            c.violations()[0],
            Violation::DoubleExecution {
                committee: 0,
                replica: 1,
                req_id: 42
            }
        ));
        // A restart opens a fresh lineage: replay is not a double-spend.
        c.record_reset(0, 2);
        c.record_exec(0, 2, 42);
        assert_eq!(c.violations().len(), 1);
    }

    #[test]
    fn equivocation_halves_are_deterministic() {
        assert_eq!(equivocation_half(2), 0);
        assert_eq!(equivocation_half(3), 1);
    }
}
