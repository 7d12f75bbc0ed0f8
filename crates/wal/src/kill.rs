//! Crash fault injection for durability code paths.
//!
//! Every durable write site (WAL record, page, manifest temp write,
//! manifest swap) asks the [`KillSwitch`] for permission before touching
//! the file. An unarmed switch only counts sites; an armed switch fires at
//! the chosen site index: the site writes a *torn prefix* of its bytes
//! (simulating a power cut mid-`write(2)`) and gets an error back, which
//! the owning node treats as a crash. Counting a run once with the switch
//! unarmed therefore enumerates every kill point, and re-running with the
//! switch armed at `0..total` injects a crash at each of them — the
//! recovery acceptance matrix.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    /// Site index to fire at; negative = disarmed. One-shot: firing
    /// disarms, so a node restarting after the injected crash can persist
    /// again (a real machine does not lose power twice on schedule).
    armed: AtomicI64,
    /// Durable write sites visited so far (monotonic across arm cycles).
    visited: AtomicU64,
    fired: AtomicBool,
    /// Whether the pending (and, once fired, the most recent) injection is
    /// a *transient* I/O error — the write fails short but the process
    /// survives — rather than a power-cut crash.
    transient: AtomicBool,
}

/// Shared, cloneable crash injector (see module docs). The default switch
/// is disarmed and costs two atomic operations per write site.
#[derive(Clone, Debug)]
pub struct KillSwitch {
    inner: Arc<Inner>,
}

impl Default for KillSwitch {
    fn default() -> Self {
        let inner = Inner { armed: AtomicI64::new(-1), ..Inner::default() };
        KillSwitch { inner: Arc::new(inner) }
    }
}

impl KillSwitch {
    /// A disarmed switch (counts sites, never fires).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fire at the `at`-th write site from now (0 = the very next one).
    /// Counting restarts: `visited` is reset so the index is relative to
    /// this arming.
    pub fn arm(&self, at: u64) {
        self.inner.visited.store(0, Ordering::SeqCst);
        self.inner.fired.store(false, Ordering::SeqCst);
        self.inner.transient.store(false, Ordering::SeqCst);
        self.inner.armed.store(at as i64, Ordering::SeqCst);
    }

    /// Like [`KillSwitch::arm`], but inject a *transient* I/O error
    /// instead of a crash: the site still tears its write (a short
    /// `write(2)` return), but the caller is expected to survive — which
    /// is exactly what pins the all-or-nothing rollback discipline at
    /// every durable write site.
    pub fn arm_transient(&self, at: u64) {
        self.inner.visited.store(0, Ordering::SeqCst);
        self.inner.fired.store(false, Ordering::SeqCst);
        self.inner.transient.store(true, Ordering::SeqCst);
        self.inner.armed.store(at as i64, Ordering::SeqCst);
    }

    /// Disarm without firing.
    pub fn disarm(&self) {
        self.inner.armed.store(-1, Ordering::SeqCst);
    }

    /// Whether a kill is pending. Lets a write site skip work that only
    /// serves the injected-crash emulation (e.g. saving bytes to roll
    /// back to) when nothing can fire.
    pub fn is_armed(&self) -> bool {
        self.inner.armed.load(Ordering::SeqCst) >= 0
    }

    /// Write sites visited since the last [`KillSwitch::arm`] (or ever,
    /// for a never-armed switch).
    pub fn visited(&self) -> u64 {
        self.inner.visited.load(Ordering::SeqCst)
    }

    /// Whether the armed kill has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::SeqCst)
    }

    /// Whether the most recent fire was armed as transient
    /// ([`KillSwitch::arm_transient`]). A write site that got `Err` from
    /// [`KillSwitch::check`] consults this to decide between the crash
    /// emulation (torn bytes stay, process is dead) and the transient
    /// path (roll the file back, stay usable).
    pub fn fired_transient(&self) -> bool {
        self.inner.fired.load(Ordering::SeqCst) && self.inner.transient.load(Ordering::SeqCst)
    }

    /// Visit one write site. `Err` means the injected fault fires *now*:
    /// the caller must emulate a torn write (persist only a prefix) and —
    /// unless [`KillSwitch::fired_transient`] — propagate the error as a
    /// node crash.
    pub fn check(&self) -> std::io::Result<()> {
        let site = self.inner.visited.fetch_add(1, Ordering::SeqCst);
        let armed = self.inner.armed.load(Ordering::SeqCst);
        if armed >= 0 && site == armed as u64 {
            self.inner.armed.store(-1, Ordering::SeqCst);
            self.inner.fired.store(true, Ordering::SeqCst);
            if self.inner.transient.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("killswitch: injected transient io error"));
            }
            return Err(std::io::Error::other("killswitch: injected crash"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_counts_only() {
        let k = KillSwitch::new();
        for _ in 0..5 {
            k.check().expect("disarmed never fires");
        }
        assert_eq!(k.visited(), 5);
        assert!(!k.fired());
        assert!(!k.is_armed());
    }

    #[test]
    fn armed_fires_once_at_index() {
        let k = KillSwitch::new();
        k.check().expect("pre-arm site");
        k.arm(2);
        assert!(k.check().is_ok());
        assert!(k.check().is_ok());
        assert!(k.is_armed());
        assert!(k.check().is_err(), "site 2 after arming fires");
        assert!(k.fired());
        assert!(!k.is_armed(), "one-shot");
        assert!(!k.fired_transient());
        // One-shot: the restarted node persists freely afterwards.
        for _ in 0..10 {
            k.check().expect("disarmed after firing");
        }
    }

    #[test]
    fn transient_arm_is_distinguishable() {
        let k = KillSwitch::new();
        k.arm_transient(1);
        assert!(k.check().is_ok());
        let err = k.check().expect_err("site 1 fires");
        assert!(err.to_string().contains("transient"));
        assert!(k.fired());
        assert!(k.fired_transient());
        // Re-arming as a crash clears the transient flag.
        k.arm(0);
        assert!(k.check().is_err());
        assert!(!k.fired_transient());
    }
}
