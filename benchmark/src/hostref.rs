//! A reference kernel for the speed of the host's memory system.
//!
//! On a shared host the neighbours' use of the last-level cache and of
//! memory bandwidth moves the speed of memory-bound code by ±15 % in modes
//! that last from half a minute to several minutes — longer than a run, so
//! no amount of averaging inside a run removes them. `sim_xshard` is such
//! code (hash maps and Merkle nodes spread over a few hundred MiB), and it
//! is the one workload whose work is a pure function of its seed, so it can
//! run in lock-step with a fixed reference: a chain of dependent random
//! read-modify-writes over an array too large for any cache. The run's CPU
//! figure is scaled by how fast the reference ran beside it.
//!
//! The kernel is the benchmark's own and uses no program code, so a change
//! to the program moves the scaled figure exactly as it moves the raw one.

use std::time::Instant;

/// Words of the array the kernel walks: 64 MiB, well past the host's
/// last-level cache and, at 4 KiB a page, its TLBs.
const WORDS: usize = 1 << 23;
/// Accesses per sample: about 0.3 s.
const ACCESSES: u64 = 1_800_000;
/// The reference host: one on which an access of the kernel takes this
/// long (the development host when its neighbours are quiet).
pub const NOMINAL_NS_PER_ACCESS: f64 = 160.0;

/// One sample: nanoseconds per access of [`ACCESSES`] dependent random
/// read-modify-writes over a freshly filled array. The array lives only
/// for the call, so the kernel adds nothing to the memory a later
/// simulation peaks at.
pub fn sample() -> f64 {
    let mut words = vec![1u64; WORDS];
    let mask = WORDS as u64 - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    // `black_box` keeps the trip count opaque and the chain live.
    for _ in 0..std::hint::black_box(ACCESSES) {
        let i = (x & mask) as usize;
        let v = words[i];
        words[i] = v.wrapping_add(x);
        x = (x ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
            ^ (x >> 7);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(x);
    ns / ACCESSES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_a_plausible_memory_latency() {
        let ns = sample();
        assert!(ns.is_finite() && ns > 1.0 && ns < 100_000.0, "{ns}");
    }
}
