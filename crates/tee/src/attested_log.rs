//! Attested append-only memory (A2M) — the trusted log of Chun et al. that
//! AHL uses to remove equivocation (paper §4.1).
//!
//! Each consensus message type (pre-prepare / prepare / commit / ...) gets
//! its own log. Before a node sends a message it must *bind* the message
//! digest to the log slot for that consensus position; the enclave signs an
//! attestation of the binding. Because a slot can hold exactly one digest,
//! a Byzantine node cannot produce two conflicting signed messages for the
//! same position — receivers reject any message lacking a valid attestation.
//!
//! Rollback defense (paper Appendix A): after a crash the enclave refuses
//! new appends until it has re-established an upper bound `HM = L + ckpM` on
//! the highest sequence number it may have attested before the crash, where
//! `ckpM` is derived from `2f + 1` peer checkpoint reports, and it has been
//! shown a stable checkpoint at or above `HM`.

use std::collections::HashMap;

use ahl_crypto::{sha256_parts, Hash, KeyRegistry, Signature, SigningKey};

/// Identifies one log within a node's enclave (one per message type).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LogId(pub u32);

/// A slot within a log: the consensus position the message binds to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Slot {
    /// Consensus view the message belongs to.
    pub view: u64,
    /// Consensus sequence number.
    pub seq: u64,
}

/// An enclave-signed proof that `digest` is bound to `slot` of `log`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attestation {
    /// The log this attestation belongs to.
    pub log: LogId,
    /// The bound slot.
    pub slot: Slot,
    /// The bound message digest.
    pub digest: Hash,
    /// Enclave signature over (log, slot, digest).
    pub sig: Signature,
}

/// Errors from attested-log operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogError {
    /// A different digest is already bound to this slot (equivocation).
    Equivocation,
    /// The enclave is recovering from a crash and has not yet been presented
    /// a sufficiently recent stable checkpoint (Appendix A).
    Recovering,
    /// The slot is at or below the truncation (checkpoint) horizon.
    Truncated,
}

/// The digest an [`Attestation`] of `digest` at `slot` of `log` signs.
pub fn attestation_digest(log: LogId, slot: Slot, digest: &Hash) -> Hash {
    sha256_parts(&[
        b"ahl-a2m",
        &log.0.to_be_bytes(),
        &slot.view.to_be_bytes(),
        &slot.seq.to_be_bytes(),
        &digest.0,
    ])
}

/// The attested append-only memory, held inside a node's enclave.
///
/// The host (possibly Byzantine) can call any method with any argument, but
/// cannot forge the enclave signature, so safety reduces to this state
/// machine's behaviour.
#[derive(Debug)]
pub struct AttestedLog {
    key: SigningKey,
    /// Per-log slot bindings.
    bindings: HashMap<(LogId, Slot), Hash>,
    /// Highest attested seq per log (for checkpoint estimation).
    high: HashMap<LogId, u64>,
    /// Sequence horizon below which slots were garbage collected.
    truncated_below: u64,
    /// Set while recovering; appends refused until recovery completes.
    recovery_floor: Option<u64>,
}

impl AttestedLog {
    /// Create the log with the enclave's signing key.
    pub fn new(key: SigningKey) -> Self {
        AttestedLog {
            key,
            bindings: HashMap::new(),
            high: HashMap::new(),
            truncated_below: 0,
            recovery_floor: None,
        }
    }

    /// Bind `digest` to `slot` of `log` and return the attestation.
    ///
    /// Re-binding the *same* digest is idempotent (the node may resend).
    /// Binding a *different* digest fails with [`LogError::Equivocation`].
    pub fn append(
        &mut self,
        log: LogId,
        slot: Slot,
        digest: Hash,
    ) -> Result<Attestation, LogError> {
        if self.recovery_floor.is_some() {
            return Err(LogError::Recovering);
        }
        if slot.seq < self.truncated_below {
            return Err(LogError::Truncated);
        }
        match self.bindings.get(&(log, slot)) {
            Some(existing) if *existing != digest => return Err(LogError::Equivocation),
            Some(_) => {}
            None => {
                self.bindings.insert((log, slot), digest);
                let h = self.high.entry(log).or_insert(0);
                *h = (*h).max(slot.seq);
            }
        }
        Ok(Attestation {
            log,
            slot,
            digest,
            sig: self.key.sign(&attestation_digest(log, slot, &digest)),
        })
    }

    /// Garbage-collect slots below `seq` (called at stable checkpoints).
    pub fn truncate(&mut self, seq: u64) {
        self.truncated_below = self.truncated_below.max(seq);
        self.bindings.retain(|(_, slot), _| slot.seq >= seq);
    }

    /// Highest sequence attested on `log` (0 if none).
    pub fn high_watermark(&self, log: LogId) -> u64 {
        self.high.get(&log).copied().unwrap_or(0)
    }

    /// Number of live (non-truncated) bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True when no bindings are live.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    // ----- crash recovery (Appendix A) -----

    /// Simulate an enclave restart: volatile bindings are lost and the
    /// enclave enters recovery. `peer_checkpoints` are the `ckp` sequence
    /// numbers reported by the other replicas; `f` is the fault threshold
    /// and `log_window` the PBFT watermark window `L`.
    ///
    /// Returns the computed recovery floor `HM`.
    pub fn restart_and_estimate(
        &mut self,
        peer_checkpoints: &[u64],
        f: usize,
        log_window: u64,
    ) -> u64 {
        self.bindings.clear();
        self.high.clear();
        let ckp_m = estimate_ckp_m(peer_checkpoints, f);
        let hm = ckp_m + log_window;
        self.recovery_floor = Some(hm);
        hm
    }

    /// Present a stable checkpoint (sequence `seq`, certified by a quorum —
    /// verification of the certificate is the caller's responsibility, as in
    /// the paper's protocol where the quorum proof accompanies it). Recovery
    /// completes once `seq >= HM`; appends are then accepted again for slots
    /// above the checkpoint.
    pub fn complete_recovery(&mut self, stable_checkpoint_seq: u64) -> bool {
        match self.recovery_floor {
            Some(hm) if stable_checkpoint_seq >= hm => {
                self.recovery_floor = None;
                self.truncated_below = self.truncated_below.max(stable_checkpoint_seq);
                true
            }
            _ => false,
        }
    }

    /// Whether the enclave is still refusing appends after a restart.
    pub fn is_recovering(&self) -> bool {
        self.recovery_floor.is_some()
    }
}

/// Appendix A estimation: choose `ckpM` as a reported value from some node
/// `j` such that at least `f` replicas *other than j* report values ≤ it.
/// Among the values satisfying the test, the largest is chosen (an upper
/// bound is safe; a lower bound is not).
pub fn estimate_ckp_m(peer_checkpoints: &[u64], f: usize) -> u64 {
    let mut best = 0u64;
    for (j, &cand) in peer_checkpoints.iter().enumerate() {
        let supporters = peer_checkpoints
            .iter()
            .enumerate()
            .filter(|(i, &v)| *i != j && v <= cand)
            .count();
        if supporters >= f && cand > best {
            best = cand;
        }
    }
    best
}

/// Verify an attestation against the enclave key registry.
pub fn verify_attestation(registry: &KeyRegistry, att: &Attestation) -> bool {
    registry.verify(
        &attestation_digest(att.log, att.slot, &att.digest),
        &att.sig,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_crypto::sha256;

    const PREPARE: LogId = LogId(1);
    const COMMIT: LogId = LogId(2);

    fn setup() -> (AttestedLog, KeyRegistry) {
        let mut reg = KeyRegistry::new();
        let key = reg.generate(42);
        (AttestedLog::new(key), reg)
    }

    fn slot(view: u64, seq: u64) -> Slot {
        Slot { view, seq }
    }

    #[test]
    fn append_and_verify() {
        let (mut log, reg) = setup();
        let d = sha256(b"prepare v0 s1 block");
        let att = log.append(PREPARE, slot(0, 1), d).expect("first append");
        assert!(verify_attestation(&reg, &att));
        assert_eq!(att.digest, d);
    }

    #[test]
    fn equivocation_rejected() {
        let (mut log, _) = setup();
        let d1 = sha256(b"digest-1");
        let d2 = sha256(b"digest-2");
        log.append(PREPARE, slot(0, 5), d1).expect("first bind");
        assert_eq!(
            log.append(PREPARE, slot(0, 5), d2),
            Err(LogError::Equivocation)
        );
        // Same digest is idempotent (resend).
        assert!(log.append(PREPARE, slot(0, 5), d1).is_ok());
    }

    #[test]
    fn logs_are_independent() {
        let (mut log, _) = setup();
        let d1 = sha256(b"d1");
        let d2 = sha256(b"d2");
        log.append(PREPARE, slot(0, 5), d1).expect("prepare bind");
        // Same slot on a different log is a different binding.
        assert!(log.append(COMMIT, slot(0, 5), d2).is_ok());
        // Different views are different slots.
        assert!(log.append(PREPARE, slot(1, 5), d2).is_ok());
    }

    #[test]
    fn attestation_does_not_verify_under_other_key() {
        let (mut log, _) = setup();
        let mut other_reg = KeyRegistry::new();
        let _other = other_reg.generate(7);
        let att = log
            .append(PREPARE, slot(0, 1), sha256(b"m"))
            .expect("append");
        assert!(!verify_attestation(&other_reg, &att));
    }

    #[test]
    fn tampered_attestation_rejected() {
        let (mut log, reg) = setup();
        let mut att = log
            .append(PREPARE, slot(0, 1), sha256(b"m"))
            .expect("append");
        att.slot.seq = 2;
        assert!(!verify_attestation(&reg, &att));
    }

    #[test]
    fn truncate_rejects_old_slots() {
        let (mut log, _) = setup();
        log.append(PREPARE, slot(0, 10), sha256(b"a"))
            .expect("append");
        log.truncate(100);
        assert_eq!(
            log.append(PREPARE, slot(0, 99), sha256(b"b")),
            Err(LogError::Truncated)
        );
        assert!(log.append(PREPARE, slot(0, 100), sha256(b"c")).is_ok());
        assert!(log.is_empty() || log.len() == 1);
    }

    #[test]
    fn high_watermark_tracks_max() {
        let (mut log, _) = setup();
        log.append(PREPARE, slot(0, 3), sha256(b"a"))
            .expect("append");
        log.append(PREPARE, slot(0, 9), sha256(b"b"))
            .expect("append");
        log.append(PREPARE, slot(0, 5), sha256(b"c"))
            .expect("append");
        assert_eq!(log.high_watermark(PREPARE), 9);
        assert_eq!(log.high_watermark(COMMIT), 0);
    }

    #[test]
    fn recovery_blocks_appends_until_checkpoint() {
        let (mut log, _) = setup();
        log.append(PREPARE, slot(0, 50), sha256(b"pre-crash"))
            .expect("append");
        // Crash. Peers report checkpoints; f = 2, watermark window L = 100.
        let hm = log.restart_and_estimate(&[40, 38, 45, 42, 40], 2, 100);
        assert_eq!(hm, 145); // ckpM = 45, HM = 45 + 100
        assert!(log.is_recovering());
        assert_eq!(
            log.append(PREPARE, slot(0, 60), sha256(b"x")),
            Err(LogError::Recovering)
        );
        // Too-old checkpoint does not complete recovery.
        assert!(!log.complete_recovery(100));
        assert!(log.is_recovering());
        // A checkpoint at HM completes it.
        assert!(log.complete_recovery(145));
        assert!(!log.is_recovering());
        // Slots below the checkpoint stay refused — no equivocation window.
        assert_eq!(
            log.append(PREPARE, slot(0, 60), sha256(b"x")),
            Err(LogError::Truncated)
        );
        assert!(log.append(PREPARE, slot(0, 150), sha256(b"y")).is_ok());
    }

    #[test]
    fn ckp_estimate_requires_f_supporters() {
        // One Byzantine peer reports an absurdly high checkpoint; with f = 2
        // it lacks 2 other supporters ≤ it only if... it actually gains
        // supporters (all values are ≤ 10_000). The estimator is an *upper*
        // bound chooser — over-estimating HM is safe (it only delays
        // recovery); under-estimating would be unsafe. Verify the chosen
        // value is ≥ every honest stable checkpoint.
        let honest_ckp = 45;
        let est = estimate_ckp_m(&[40, 38, 45, 42, 10_000], 2);
        assert!(est >= honest_ckp);
    }

    #[test]
    fn ckp_estimate_low_reports_bounded() {
        // Byzantine peers report 0 to drag the estimate down; the honest
        // majority keeps ckpM at an honest value.
        let est = estimate_ckp_m(&[0, 0, 45, 42, 40], 2);
        assert_eq!(est, 45);
    }

    #[test]
    fn ckp_estimate_empty_or_insufficient() {
        assert_eq!(estimate_ckp_m(&[], 2), 0);
        assert_eq!(estimate_ckp_m(&[10], 2), 0); // not enough supporters
    }

    proptest::proptest! {
        /// The estimator never returns less than the f+1-th largest honest
        /// report (safety: HM must upper-bound any stable checkpoint).
        #[test]
        fn estimate_upper_bounds_supported_value(
            mut vals in proptest::collection::vec(0u64..1000, 5..12),
        ) {
            let f = 2usize;
            let est = estimate_ckp_m(&vals, f);
            vals.sort_unstable();
            // The (f+1)-th smallest value has at least f values ≤ it, so the
            // estimator must have found a candidate at least that large.
            let floor = vals[f];
            proptest::prop_assert!(est >= floor);
        }

        /// No equivocation is ever attestable: binding two different digests
        /// to the same slot always fails, regardless of interleaving.
        #[test]
        fn no_equivocation_prop(ops in proptest::collection::vec((0u64..4, 0u64..4, 0u8..4), 1..64)) {
            let mut reg = KeyRegistry::new();
            let key = reg.generate(0);
            let mut log = AttestedLog::new(key);
            let mut first_bind: std::collections::HashMap<(u64, u64), u8> = std::collections::HashMap::new();
            for (view, seq, dbyte) in ops {
                let digest = sha256([dbyte]);
                let res = log.append(PREPARE, Slot { view, seq }, digest);
                match first_bind.get(&(view, seq)) {
                    None => {
                        proptest::prop_assert!(res.is_ok());
                        first_bind.insert((view, seq), dbyte);
                    }
                    Some(prev) if *prev == dbyte => proptest::prop_assert!(res.is_ok()),
                    Some(_) => proptest::prop_assert_eq!(res, Err(LogError::Equivocation)),
                }
            }
        }
    }
}
