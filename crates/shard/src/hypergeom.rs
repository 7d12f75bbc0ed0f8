//! Hypergeometric committee-safety analysis (paper §5.2, Equation 1).
//!
//! Committee assignment by seeded random permutation is sampling without
//! replacement, so the number of Byzantine nodes landing in a committee of
//! size `n` follows the hypergeometric distribution. A committee is
//! *faulty* when that count reaches the consensus protocol's failure
//! threshold: `⌊(n-1)/3⌋ + 1` for PBFT, `⌊(n-1)/2⌋ + 1` for the attested
//! variants — the factor-of-two that shrinks the paper's committees from
//! 600+ nodes to 80 at a 25% adversary.

/// Consensus resilience rule determining the failure threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resilience {
    /// PBFT-style: tolerate up to ⌊(n-1)/3⌋ faults.
    OneThird,
    /// Attested (AHL) style: tolerate up to ⌊(n-1)/2⌋ faults.
    OneHalf,
}

impl Resilience {
    /// Maximum tolerated Byzantine members in a committee of `n`.
    pub fn max_faults(self, n: usize) -> usize {
        match self {
            Resilience::OneThird => (n.saturating_sub(1)) / 3,
            Resilience::OneHalf => (n.saturating_sub(1)) / 2,
        }
    }

    /// Smallest Byzantine count that breaks a committee of `n`.
    pub fn failure_threshold(self, n: usize) -> usize {
        self.max_faults(n) + 1
    }
}

/// Cached table of ln(k!) values.
#[derive(Debug, Clone)]
pub struct LnFact {
    table: Vec<f64>,
}

impl LnFact {
    /// Build a table supporting arguments up to `max`.
    pub fn new(max: usize) -> Self {
        let mut table = Vec::with_capacity(max + 1);
        table.push(0.0); // ln(0!) = 0
        let mut acc = 0.0f64;
        for i in 1..=max {
            acc += (i as f64).ln();
            table.push(acc);
        }
        LnFact { table }
    }

    /// ln(k!).
    pub fn ln_fact(&self, k: usize) -> f64 {
        self.table[k]
    }

    /// ln C(n, k); `-inf` when k > n.
    pub fn ln_choose(&self, n: usize, k: usize) -> f64 {
        if k > n {
            f64::NEG_INFINITY
        } else {
            self.ln_fact(n) - self.ln_fact(k) - self.ln_fact(n - k)
        }
    }
}

/// Equation 1: `Pr[X ≥ threshold]` where `X ~ Hypergeometric(total, byz, n)`
/// is the number of Byzantine nodes drawn into one committee of size `n`
/// out of `total` nodes of which `byz` are Byzantine.
pub fn hypergeom_tail(lf: &LnFact, total: usize, byz: usize, n: usize, threshold: usize) -> f64 {
    assert!(byz <= total, "byz exceeds total");
    assert!(n <= total, "committee exceeds network");
    if threshold == 0 {
        return 1.0;
    }
    let hi = n.min(byz);
    if threshold > hi {
        return 0.0;
    }
    let denom = lf.ln_choose(total, n);
    let mut sum = 0.0f64;
    for x in threshold..=hi {
        if n - x > total - byz {
            continue; // impossible draw
        }
        let ln_p = lf.ln_choose(byz, x) + lf.ln_choose(total - byz, n - x) - denom;
        sum += ln_p.exp();
    }
    sum.min(1.0)
}

/// Independently coded reference for [`hypergeom_tail`]: the same tail
/// probability computed by direct binomial-coefficient products (no log
/// tables, no shared code path). Exists so property tests can pin the
/// fast implementation — and through it the committee sizes
/// `formation.rs` derives — against a second derivation of Equation 1.
pub fn reference_tail(total: usize, byz: usize, n: usize, threshold: usize) -> f64 {
    fn choose(n: usize, k: usize) -> f64 {
        if k > n {
            return 0.0;
        }
        let mut acc = 1.0f64;
        for i in 0..k {
            acc *= (n - i) as f64 / (i + 1) as f64;
        }
        acc
    }
    if threshold == 0 {
        return 1.0;
    }
    let hi = n.min(byz);
    if threshold > hi {
        return 0.0;
    }
    let denom = choose(total, n);
    let mut sum = 0.0f64;
    for x in threshold..=hi {
        if n - x > total - byz {
            continue;
        }
        sum += choose(byz, x) * choose(total - byz, n - x) / denom;
    }
    sum.min(1.0)
}

/// Probability that a committee of `n` drawn from `total` nodes with a
/// fraction `s` Byzantine is faulty under `rule` (Equation 1 applied to the
/// rule's failure threshold).
pub fn faulty_committee_prob(lf: &LnFact, total: usize, s: f64, n: usize, rule: Resilience) -> f64 {
    let byz = (total as f64 * s).floor() as usize;
    hypergeom_tail(lf, total, byz, n, rule.failure_threshold(n))
}

/// Smallest committee size `n ≤ total` whose faulty probability is at most
/// `2^-security_bits` (paper uses 20 bits). Returns `None` if even `n =
/// total` is unsafe.
pub fn min_committee_size(
    lf: &LnFact,
    total: usize,
    s: f64,
    rule: Resilience,
    security_bits: f64,
) -> Option<usize> {
    let target = 2f64.powf(-security_bits);
    // The tail is monotonically decreasing in n for s below the threshold,
    // but stepwise (threshold jumps every 2 or 3 nodes); scan with stride 1.
    (1..=total).find(|&n| faulty_committee_prob(lf, total, s, n, rule) <= target)
}

/// Paper §5.3, Equation 2 (with the evident intent that the batch count is
/// the number of *batches*, `⌈n(k-1)/(kB)⌉`): probability that any
/// intermediate committee during one epoch transition is faulty, by Boole's
/// inequality over the swap batches.
pub fn reconfig_failure_prob(
    lf: &LnFact,
    total: usize,
    s: f64,
    n: usize,
    k: usize,
    batch: usize,
    rule: Resilience,
) -> f64 {
    assert!(k >= 1 && batch >= 1);
    let transitioning = n * (k - 1) / k;
    let batches = transitioning.div_ceil(batch).max(1);
    let per = faulty_committee_prob(lf, total, s, n, rule);
    (batches as f64 * per).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lf() -> LnFact {
        LnFact::new(4096)
    }

    #[test]
    fn ln_choose_small_values() {
        let lf = lf();
        assert!((lf.ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((lf.ln_choose(10, 0)).abs() < 1e-12);
        assert_eq!(lf.ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn tail_exact_small_case() {
        // Urn: 10 nodes, 4 Byzantine, committee of 5, threshold 3.
        // Pr[X>=3] = [C(4,3)C(6,2) + C(4,4)C(6,1)] / C(10,5)
        //          = (4*15 + 1*6) / 252 = 66/252.
        let lf = lf();
        let p = hypergeom_tail(&lf, 10, 4, 5, 3);
        assert!((p - 66.0 / 252.0).abs() < 1e-12, "{p}");
    }

    #[test]
    fn tail_edge_cases() {
        let lf = lf();
        assert_eq!(hypergeom_tail(&lf, 10, 4, 5, 0), 1.0);
        assert_eq!(hypergeom_tail(&lf, 10, 4, 5, 6), 0.0); // > committee size
        assert_eq!(hypergeom_tail(&lf, 10, 0, 5, 1), 0.0); // no byzantine
        assert_eq!(hypergeom_tail(&lf, 10, 10, 5, 5), 1.0); // all byzantine
    }

    #[test]
    fn paper_sizing_25_percent_attested() {
        // §5.2: at s = 25% with the attested rule, n = 80 keeps
        // Pr[faulty] ≤ 2^-20 (at the scale of the paper's GCP deployment).
        let lf = LnFact::new(2048);
        let n = min_committee_size(&lf, 1000, 0.25, Resilience::OneHalf, 20.0).expect("exists");
        assert!((70..=85).contains(&n), "n = {n}");
    }

    #[test]
    fn paper_sizing_25_percent_pbft() {
        // §5.2: the PBFT rule needs 600+ node committees at 25%.
        let lf = LnFact::new(4096);
        let n = min_committee_size(&lf, 2400, 0.25, Resilience::OneThird, 20.0).expect("exists");
        assert!(n >= 500, "n = {n}");
    }

    #[test]
    fn paper_sizing_12_5_percent() {
        // §7.3: 12.5% adversary → 27-node committees (attested).
        let lf = LnFact::new(2048);
        let n = min_committee_size(&lf, 972, 0.125, Resilience::OneHalf, 20.0).expect("exists");
        assert!((24..=31).contains(&n), "n = {n}");
    }

    #[test]
    fn attested_committees_much_smaller() {
        let lf = LnFact::new(4096);
        for s in [0.1, 0.2, 0.25] {
            let half = min_committee_size(&lf, 2400, s, Resilience::OneHalf, 20.0)
                .expect("attested size exists");
            let third = min_committee_size(&lf, 2400, s, Resilience::OneThird, 20.0)
                .expect("pbft size exists");
            assert!(third >= 2 * half, "s={s}: third={third} half={half}");
        }
    }

    #[test]
    fn size_grows_with_adversary() {
        let lf = LnFact::new(2048);
        let mut prev = 0;
        for s in [0.05, 0.1, 0.15, 0.2, 0.25] {
            let n = min_committee_size(&lf, 1600, s, Resilience::OneHalf, 20.0).expect("exists");
            assert!(n >= prev, "s={s}: {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn reconfig_probability_paper_example() {
        // §5.3: n = 80, f = (n-1)/2, k = 10, B = log(n) ≈ 6 →
        // Pr(faulty) ≈ 1e-5.
        let lf = LnFact::new(2048);
        let p = reconfig_failure_prob(&lf, 1000, 0.25, 80, 10, 6, Resilience::OneHalf);
        assert!(p < 1e-4, "p = {p}");
        assert!(p > 1e-7, "p = {p}");
    }

    #[test]
    fn reconfig_smaller_batches_more_exposure() {
        let lf = LnFact::new(2048);
        let p_small_batch = reconfig_failure_prob(&lf, 1000, 0.25, 80, 10, 2, Resilience::OneHalf);
        let p_big_batch = reconfig_failure_prob(&lf, 1000, 0.25, 80, 10, 36, Resilience::OneHalf);
        assert!(p_small_batch > p_big_batch);
    }

    /// The committee sizes the paper's table (and `formation.rs`) is
    /// built from: the log-factorial implementation must agree with the
    /// direct-product reference at every (total, s) the formation
    /// pipeline uses, and the chosen size must be *minimal* — one node
    /// fewer already violates the 2^-20 budget.
    #[test]
    fn formation_table_sizes_match_reference() {
        let target = 2f64.powf(-20.0);
        // (The direct-product reference runs out of f64 range beyond
        // ~1500-node networks — C(2400, 600) ≈ 10^600 — so the PBFT-rule
        // row uses a 600-node network; the log-factorial implementation
        // itself has no such limit.)
        for (total, s, rule) in [
            (972, 0.25, Resilience::OneHalf),  // §7.3 GCP, 25% adversary
            (972, 0.125, Resilience::OneHalf), // §7.3 GCP, 12.5% adversary
            (1000, 0.25, Resilience::OneHalf), // §5.2 running example
            (600, 0.25, Resilience::OneThird), // PBFT rule comparison
        ] {
            let lf = LnFact::new(total.max(64) + 1);
            let n = min_committee_size(&lf, total, s, rule, 20.0).expect("formable");
            let byz = (total as f64 * s).floor() as usize;
            let fast = faulty_committee_prob(&lf, total, s, n, rule);
            let exact = reference_tail(total, byz, n, rule.failure_threshold(n));
            assert!(
                (fast - exact).abs() <= 1e-9 * exact.max(1e-30),
                "total {total} s {s}: fast {fast} vs reference {exact}"
            );
            assert!(exact <= target, "chosen n = {n} must meet the budget");
            if n > 1 {
                let below = reference_tail(total, byz, n - 1, rule.failure_threshold(n - 1));
                assert!(
                    below > target,
                    "n = {n} must be minimal: n-1 gives {below:e} <= {target:e}"
                );
            }
        }
    }

    proptest::proptest! {
        /// The fast (log-factorial) Equation 1 agrees with the direct
        /// product-form reference across the whole parameter box.
        #[test]
        fn tail_matches_reference_computation(
            total in 10usize..220,
            byz_frac in 0.0f64..0.6,
            n_frac in 0.05f64..1.0,
            thr_frac in 0.0f64..1.2,
        ) {
            let lf = LnFact::new(256);
            let byz = (total as f64 * byz_frac) as usize;
            let n = ((total as f64 * n_frac) as usize).clamp(1, total);
            let threshold = (n as f64 * thr_frac) as usize;
            let fast = hypergeom_tail(&lf, total, byz, n, threshold);
            let exact = reference_tail(total, byz, n, threshold);
            proptest::prop_assert!(
                (fast - exact).abs() <= 1e-9 * exact.max(1e-30) + 1e-12,
                "total {} byz {} n {} thr {}: {} vs {}",
                total, byz, n, threshold, fast, exact
            );
        }

        /// Tail probabilities are valid probabilities and monotone in the
        /// threshold.
        #[test]
        fn tail_is_monotone_probability(
            total in 20usize..200,
            byz_frac in 0.0f64..0.5,
            n in 5usize..20,
        ) {
            let lf = LnFact::new(256);
            let byz = (total as f64 * byz_frac) as usize;
            let n = n.min(total);
            let mut prev = 1.0f64;
            for thr in 0..=n + 1 {
                let p = hypergeom_tail(&lf, total, byz, n, thr);
                proptest::prop_assert!((0.0..=1.0).contains(&p));
                proptest::prop_assert!(p <= prev + 1e-12);
                prev = p;
            }
        }

        /// Complement check: Pr[X ≥ 1] = 1 - C(total-byz, n)/C(total, n).
        #[test]
        fn at_least_one_matches_complement(
            total in 20usize..150,
            byz in 1usize..10,
            n in 2usize..15,
        ) {
            let lf = LnFact::new(256);
            let n = n.min(total - byz);
            let p = hypergeom_tail(&lf, total, byz, n, 1);
            let none = (lf.ln_choose(total - byz, n) - lf.ln_choose(total, n)).exp();
            proptest::prop_assert!((p - (1.0 - none)).abs() < 1e-9);
        }
    }
}
