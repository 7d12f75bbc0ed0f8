//! The RandomnessBeacon enclave (paper §5.1 + Appendix A).
//!
//! At each epoch `e`, a node invokes its beacon enclave. The enclave draws
//! two independent random values `q` (l bits) and `rnd`, and returns a
//! signed certificate `⟨e, rnd⟩` **iff q == 0**. The enclave answers at most
//! once per epoch, so the host cannot selectively discard outputs to bias
//! the network-wide choice (nodes lock in the lowest received `rnd` after a
//! synchrony bound Δ).
//!
//! Rollback defense (Appendix A): restarting the enclave must not allow a
//! second draw for the same epoch. The enclave therefore refuses to serve
//! any epoch `e != 0` for a duration Δ after (re)instantiation, and the
//! genesis epoch is protected by a monotonic hardware counter.

use ahl_crypto::{sha256_parts, Hash, KeyRegistry, Signature, SigningKey};
use ahl_simkit::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A signed beacon certificate `⟨e, rnd⟩`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeaconCert {
    /// Epoch this randomness is valid for.
    pub epoch: u64,
    /// The random value. Nodes adopt the lowest `rnd` network-wide.
    pub rnd: u64,
    /// Enclave signature over (epoch, rnd).
    pub sig: Signature,
}

fn cert_digest(epoch: u64, rnd: u64) -> Hash {
    sha256_parts(&[b"ahl-beacon", &epoch.to_be_bytes(), &rnd.to_be_bytes()])
}

/// Verify a beacon certificate against the enclave key registry.
pub fn verify_cert(registry: &KeyRegistry, cert: &BeaconCert) -> bool {
    registry.verify(&cert_digest(cert.epoch, cert.rnd), &cert.sig)
}

/// Outcome of a beacon invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeaconOutcome {
    /// `q == 0`: the enclave released a certificate.
    Certified(BeaconCert),
    /// `q != 0`: no certificate this epoch (the common case; with l bits the
    /// release probability is 2^-l).
    Silent,
    /// The epoch was already served once — replay refused.
    AlreadyInvoked,
    /// Within Δ of (re)instantiation — refusal defeats restart attacks.
    TooSoonAfterRestart,
}

/// The RandomnessBeacon enclave state.
#[derive(Debug)]
pub struct RandomnessBeacon {
    key: SigningKey,
    /// Bit length of the release filter `q`.
    l_bits: u32,
    rng: SmallRng,
    /// Epochs already served (volatile; the Δ rule covers restarts).
    served_through: Option<u64>,
    /// Instantiation instant, for the Δ refusal window.
    instantiated_at: SimTime,
    /// The synchrony bound Δ.
    delta: SimDuration,
    /// Monotonic counter protecting the genesis epoch across restarts.
    genesis_served: bool,
}

impl RandomnessBeacon {
    /// Instantiate the enclave at simulated time `now` with filter length
    /// `l_bits` and synchrony bound `delta`.
    pub fn new(key: SigningKey, seed: u64, l_bits: u32, delta: SimDuration, now: SimTime) -> Self {
        RandomnessBeacon {
            key,
            l_bits,
            rng: SmallRng::seed_from_u64(seed),
            served_through: None,
            instantiated_at: now,
            delta,
            genesis_served: false,
        }
    }

    /// The probability that one invocation yields a certificate: `2^-l`.
    pub fn release_probability(&self) -> f64 {
        2f64.powi(-(self.l_bits as i32))
    }

    /// Invoke the beacon for `epoch` at time `now`.
    pub fn invoke(&mut self, epoch: u64, now: SimTime) -> BeaconOutcome {
        // Appendix A: refuse non-genesis epochs within Δ of instantiation so
        // a restart cannot re-roll an epoch the network is still locking.
        if epoch != 0 && now.since(self.instantiated_at) < self.delta {
            return BeaconOutcome::TooSoonAfterRestart;
        }
        if epoch == 0 && self.genesis_served {
            return BeaconOutcome::AlreadyInvoked;
        }
        if let Some(served) = self.served_through {
            if epoch <= served {
                return BeaconOutcome::AlreadyInvoked;
            }
        }
        if epoch == 0 {
            self.genesis_served = true;
        }
        self.served_through = Some(self.served_through.map_or(epoch, |s| s.max(epoch)));

        // Two independent draws, as in the paper (two sgx_read_rand calls).
        let q: u64 = if self.l_bits == 0 {
            0
        } else if self.l_bits >= 64 {
            self.rng.gen::<u64>()
        } else {
            self.rng.gen::<u64>() & ((1u64 << self.l_bits) - 1)
        };
        let rnd: u64 = self.rng.gen();
        if q != 0 {
            return BeaconOutcome::Silent;
        }
        BeaconOutcome::Certified(BeaconCert {
            epoch,
            rnd,
            sig: self.key.sign(&cert_digest(epoch, rnd)),
        })
    }

    /// Simulate an enclave restart at `now` (volatile state lost except the
    /// genesis monotonic counter).
    pub fn restart(&mut self, now: SimTime, reseed: u64) {
        self.served_through = None;
        self.instantiated_at = now;
        self.rng = SmallRng::seed_from_u64(reseed);
        // genesis_served persists: it is backed by the CPU monotonic counter.
    }

    /// Probability that **no** node in a network of `n` obtains a
    /// certificate in one round: `(1 - 2^-l)^n` (paper §5.1).
    pub fn repeat_probability(l_bits: u32, n: usize) -> f64 {
        (1.0 - 2f64.powi(-(l_bits as i32))).powi(n as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beacon(l_bits: u32) -> (RandomnessBeacon, KeyRegistry) {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(9);
        let b = RandomnessBeacon::new(key, 77, l_bits, SimDuration::from_secs(4), SimTime::ZERO);
        (b, reg)
    }

    #[test]
    fn l_zero_always_certifies_genesis() {
        let (mut b, reg) = beacon(0);
        match b.invoke(0, SimTime::ZERO) {
            BeaconOutcome::Certified(cert) => {
                assert_eq!(cert.epoch, 0);
                assert!(verify_cert(&reg, &cert));
            }
            other => panic!("expected certificate, got {other:?}"),
        }
    }

    #[test]
    fn one_invocation_per_epoch() {
        let (mut b, _) = beacon(0);
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert!(matches!(b.invoke(1, t), BeaconOutcome::Certified(_)));
        assert_eq!(b.invoke(1, t), BeaconOutcome::AlreadyInvoked);
        // Serving epoch e also burns all earlier epochs (monotone).
        assert!(matches!(b.invoke(3, t), BeaconOutcome::Certified(_)));
        assert_eq!(b.invoke(2, t), BeaconOutcome::AlreadyInvoked);
    }

    #[test]
    fn silent_when_q_nonzero() {
        // With l = 30 the chance of q == 0 is ~1e-9; one draw is Silent.
        let (mut b, _) = beacon(30);
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(b.invoke(1, t), BeaconOutcome::Silent);
        // And the epoch is still burned — no re-roll.
        assert_eq!(b.invoke(1, t), BeaconOutcome::AlreadyInvoked);
    }

    #[test]
    fn restart_attack_blocked_by_delta_window() {
        let (mut b, _) = beacon(4);
        let t1 = SimTime::ZERO + SimDuration::from_secs(10);
        let _first = b.invoke(5, t1);
        // Adversary restarts the enclave hoping for a fresh draw of epoch 5.
        b.restart(t1, 1234);
        assert_eq!(b.invoke(5, t1), BeaconOutcome::TooSoonAfterRestart);
        // Even just before Δ elapses it is refused.
        let almost = t1 + SimDuration::from_millis(3_999);
        assert_eq!(b.invoke(5, almost), BeaconOutcome::TooSoonAfterRestart);
        // After Δ the epoch may be served — but by then honest nodes have
        // locked rnd for epoch 5, so the attacker gains nothing.
        let after = t1 + SimDuration::from_secs(4);
        assert!(!matches!(
            b.invoke(5, after),
            BeaconOutcome::TooSoonAfterRestart
        ));
    }

    #[test]
    fn genesis_protected_across_restart() {
        let (mut b, _) = beacon(0);
        assert!(matches!(
            b.invoke(0, SimTime::ZERO),
            BeaconOutcome::Certified(_)
        ));
        b.restart(SimTime::ZERO + SimDuration::from_secs(100), 555);
        let later = SimTime::ZERO + SimDuration::from_secs(200);
        assert_eq!(b.invoke(0, later), BeaconOutcome::AlreadyInvoked);
    }

    #[test]
    fn tampered_cert_rejected() {
        let (mut b, reg) = beacon(0);
        let BeaconOutcome::Certified(mut cert) = b.invoke(0, SimTime::ZERO) else {
            panic!("expected cert");
        };
        cert.rnd ^= 1;
        assert!(!verify_cert(&reg, &cert));
    }

    #[test]
    fn repeat_probability_formula() {
        // l = log2(N) gives Prepeat ≈ e^-1 (paper §5.1).
        let p = RandomnessBeacon::repeat_probability(7, 128);
        assert!((p - (1.0f64 - 1.0 / 128.0).powi(128)).abs() < 1e-12);
        assert!((p - (-1.0f64).exp()).abs() < 0.01);
        // l = constant makes Prepeat ≈ 0 for large N.
        assert!(RandomnessBeacon::repeat_probability(4, 512) < 1e-14);
    }

    #[test]
    fn release_rate_matches_l() {
        // Statistical check: with l = 3 the release rate is ≈ 1/8.
        let mut hits = 0;
        let total = 2000;
        for i in 0..total {
            let mut reg = KeyRegistry::new();
            let key = reg.generate(i);
            let mut b = RandomnessBeacon::new(key, i, 3, SimDuration::from_secs(1), SimTime::ZERO);
            if matches!(b.invoke(0, SimTime::ZERO), BeaconOutcome::Certified(_)) {
                hits += 1;
            }
        }
        let rate = hits as f64 / total as f64;
        assert!((rate - 0.125).abs() < 0.03, "rate {rate}");
    }
}
