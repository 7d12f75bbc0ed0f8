//! The shard-formation pipeline: beacon → committee sizing → assignment.

use ahl_shard::{min_committee_size, Assignment, LnFact, Resilience};

/// A fully formed network layout for one epoch.
#[derive(Clone, Debug)]
pub struct Formation {
    /// Committee size n.
    pub committee_size: usize,
    /// Number of shards k (committees excluding the reference committee).
    pub shards: usize,
    /// The node-to-committee assignment (k + 1 committees; the last one is
    /// the reference committee when present).
    pub assignment: Assignment,
    /// Whether the last committee is the reference committee.
    pub has_reference: bool,
}

/// Derive a formation for `total` nodes under adversary fraction `s`.
///
/// Committee size comes from Equation 1 at `security_bits` (paper: 2^-20);
/// the number of shards is `total / n` (minus one committee when a
/// reference committee is requested). Returns `None` when `total` cannot
/// host even one safe committee.
pub fn form(
    total: usize,
    s: f64,
    rule: Resilience,
    security_bits: f64,
    with_reference: bool,
    rnd: u64,
) -> Option<Formation> {
    let lf = LnFact::new(total.max(64) + 1);
    let n = min_committee_size(&lf, total, s, rule, security_bits)?;
    let committees = total / n;
    let needed = if with_reference { 2 } else { 1 };
    if committees < needed {
        return None;
    }
    let k = committees - usize::from(with_reference);
    let assignment = Assignment::derive(committees * n, committees, rnd);
    Some(Formation {
        committee_size: n,
        shards: k,
        assignment,
        has_reference: with_reference,
    })
}

impl Formation {
    /// Members of shard committee `c` (0-based, c < shards).
    pub fn shard_members(&self, c: usize) -> &[usize] {
        assert!(c < self.shards, "shard out of range");
        &self.assignment.committees[c]
    }

    /// Members of the reference committee (panics if absent).
    pub fn reference_members(&self) -> &[usize] {
        assert!(self.has_reference, "no reference committee");
        &self.assignment.committees[self.shards]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gcp_formation_25_percent() {
        // §7.3: 972 nodes at 25% → 79-node committees → 12 committees.
        let f = form(972, 0.25, Resilience::OneHalf, 20.0, false, 7).expect("formable");
        assert!(
            (70..=82).contains(&f.committee_size),
            "n = {}",
            f.committee_size
        );
        assert_eq!(f.shards, 972 / f.committee_size);
    }

    #[test]
    fn paper_gcp_formation_12_5_percent() {
        // §7.3: 12.5% → 27-node committees → 36 shards at 972 nodes.
        let f = form(972, 0.125, Resilience::OneHalf, 20.0, false, 7).expect("formable");
        assert!(
            (25..=29).contains(&f.committee_size),
            "n = {}",
            f.committee_size
        );
        assert!(f.shards >= 33, "k = {}", f.shards);
    }

    #[test]
    fn reference_committee_consumes_one() {
        let with = form(972, 0.125, Resilience::OneHalf, 20.0, true, 7).expect("formable");
        let without = form(972, 0.125, Resilience::OneHalf, 20.0, false, 7).expect("formable");
        assert_eq!(with.shards + 1, without.shards);
        assert_eq!(with.reference_members().len(), with.committee_size);
    }

    /// The sizes this pipeline actually deploys satisfy Equation 1 by an
    /// *independent* computation: the committee-compromise probability at
    /// the chosen size meets the 2^-20 budget per the direct-product
    /// reference, and one node fewer would not.
    #[test]
    fn formed_committee_sizes_meet_reference_budget() {
        use ahl_shard::{reference_tail, Resilience};
        let target = 2f64.powf(-20.0);
        for (total, s) in [(972, 0.25), (972, 0.125), (1000, 0.2)] {
            let f = form(total, s, Resilience::OneHalf, 20.0, true, 7).expect("formable");
            let n = f.committee_size;
            let byz = (total as f64 * s).floor() as usize;
            let threshold = Resilience::OneHalf.failure_threshold(n);
            assert!(
                reference_tail(total, byz, n, threshold) <= target,
                "deployed n = {n} violates the budget at total {total}, s {s}"
            );
            let smaller = Resilience::OneHalf.failure_threshold(n - 1);
            assert!(
                reference_tail(total, byz, n - 1, smaller) > target,
                "deployed n = {n} is not minimal at total {total}, s {s}"
            );
        }
    }

    #[test]
    fn too_small_network_unformable() {
        // At a 50% adversary no committee size is safe under the one-half
        // rule, so formation must fail.
        assert!(form(10, 0.5, Resilience::OneHalf, 20.0, false, 7).is_none());
    }

    #[test]
    fn members_disjoint() {
        let f = form(400, 0.2, Resilience::OneHalf, 20.0, true, 9).expect("formable");
        let mut seen = std::collections::HashSet::new();
        for c in 0..f.shards {
            for &m in f.shard_members(c) {
                assert!(seen.insert(m));
            }
        }
        for &m in f.reference_members() {
            assert!(seen.insert(m));
        }
    }
}
