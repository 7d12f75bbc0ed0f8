//! Node-to-committee assignment (paper §5.1): a random permutation of
//! `[0, N)` seeded by the beacon output `rnd`, cut into `k` near-equal
//! chunks.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A committee assignment: `committees[c]` lists the node indices of
/// committee `c`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Members per committee.
    pub committees: Vec<Vec<usize>>,
}

impl Assignment {
    /// Derive the assignment of `total` nodes into `k` committees from the
    /// beacon output `rnd`. All nodes compute this locally and agree.
    pub fn derive(total: usize, k: usize, rnd: u64) -> Assignment {
        assert!(k >= 1, "at least one committee");
        assert!(total >= k, "need at least one node per committee");
        let mut perm: Vec<usize> = (0..total).collect();
        let mut rng = SmallRng::seed_from_u64(rnd);
        perm.shuffle(&mut rng);
        // Cut into k chunks differing by at most one in size.
        let base = total / k;
        let extra = total % k;
        let mut committees = Vec::with_capacity(k);
        let mut it = perm.into_iter();
        for c in 0..k {
            let size = base + usize::from(c < extra);
            committees.push(it.by_ref().take(size).collect());
        }
        Assignment { committees }
    }

    /// Number of committees.
    pub fn k(&self) -> usize {
        self.committees.len()
    }

    /// Total nodes assigned.
    pub fn total(&self) -> usize {
        self.committees.iter().map(Vec::len).sum()
    }

    /// The committee index of `node`, if assigned.
    pub fn committee_of(&self, node: usize) -> Option<usize> {
        self.committees.iter().position(|c| c.contains(&node))
    }

    /// Nodes whose committee changes from `self` to `next` (the
    /// *transitioning nodes* of §5.3).
    pub fn transitioning(&self, next: &Assignment) -> Vec<usize> {
        (0..self.total())
            .filter(|&node| self.committee_of(node) != next.committee_of(node))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn assignment_is_partition() {
        let a = Assignment::derive(100, 7, 12345);
        assert_eq!(a.k(), 7);
        assert_eq!(a.total(), 100);
        let mut seen = HashSet::new();
        for c in &a.committees {
            for &n in c {
                assert!(seen.insert(n), "node {n} assigned twice");
                assert!(n < 100);
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn sizes_near_equal() {
        let a = Assignment::derive(100, 7, 99);
        let sizes: Vec<usize> = a.committees.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().expect("non-empty");
        let min = *sizes.iter().min().expect("non-empty");
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn deterministic_in_rnd() {
        assert_eq!(Assignment::derive(50, 5, 7), Assignment::derive(50, 5, 7));
        assert_ne!(Assignment::derive(50, 5, 7), Assignment::derive(50, 5, 8));
    }

    #[test]
    fn committee_of_finds_node() {
        let a = Assignment::derive(30, 3, 1);
        for node in 0..30 {
            let c = a.committee_of(node).expect("assigned");
            assert!(a.committees[c].contains(&node));
        }
        assert_eq!(a.committee_of(1000), None);
    }

    #[test]
    fn transition_fraction_matches_theory() {
        // Re-randomizing leaves each node in its committee with probability
        // ≈ 1/k, so ≈ (k-1)/k of nodes transition (§5.3).
        let a = Assignment::derive(400, 4, 1);
        let b = Assignment::derive(400, 4, 2);
        let t = a.transitioning(&b).len();
        // Expected 300; allow generous statistical slack.
        assert!((260..=340).contains(&t), "transitioning = {t}");
    }

    #[test]
    fn single_committee_trivial() {
        let a = Assignment::derive(10, 1, 3);
        assert_eq!(a.committees[0].len(), 10);
        let b = Assignment::derive(10, 1, 4);
        assert!(a.transitioning(&b).is_empty());
    }

    proptest::proptest! {
        #[test]
        fn always_a_partition(total in 2usize..300, k in 1usize..20, rnd: u64) {
            let k = k.min(total);
            let a = Assignment::derive(total, k, rnd);
            proptest::prop_assert_eq!(a.total(), total);
            let mut seen = HashSet::new();
            for c in &a.committees {
                proptest::prop_assert!(!c.is_empty());
                for &n in c {
                    proptest::prop_assert!(seen.insert(n));
                }
            }
        }
    }
}
