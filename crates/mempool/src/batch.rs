//! Batch formation: turning the pool into block proposals.

use ahl_simkit::{SimDuration, SimTime, Stats};

use crate::pool::Mempool;
use crate::{stat, PoolTx};

/// When a batch is formed.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Form a batch as soon as this many transactions are pooled; also the
    /// per-batch transaction cap.
    pub max_txs: usize,
    /// Flush a partial batch after this long without one.
    pub timeout: SimDuration,
}

impl BatchConfig {
    /// `max_txs`-triggered batching with a flush timeout.
    pub fn new(max_txs: usize, timeout: SimDuration) -> Self {
        BatchConfig {
            max_txs: max_txs.max(1),
            timeout,
        }
    }
}

/// Forms proposals from a [`Mempool`] on size / timeout triggers.
///
/// The consensus leader drives it from two sites: the hot path calls
/// [`BatchBuilder::take_full`] whenever the pool may have filled up, and a
/// periodic timer calls [`BatchBuilder::take_due`] so a trickle of
/// transactions still reaches a block within `timeout`.
#[derive(Clone, Debug)]
pub struct BatchBuilder {
    cfg: BatchConfig,
    last_flush: SimTime,
}

impl BatchBuilder {
    /// Create a builder.
    pub fn new(cfg: BatchConfig) -> Self {
        BatchBuilder {
            cfg,
            last_flush: SimTime::ZERO,
        }
    }

    /// The timeout after which a partial batch is flushed.
    pub fn timeout(&self) -> SimDuration {
        self.cfg.timeout
    }

    /// Take a batch only if a full one is ready (size trigger).
    pub fn take_full<T: PoolTx>(
        &mut self,
        pool: &mut Mempool<T>,
        now: SimTime,
        stats: &mut Stats,
    ) -> Option<Vec<T>> {
        if pool.len() < self.cfg.max_txs {
            return None;
        }
        let batch = pool.take_batch(self.cfg.max_txs, now, stats);
        if batch.is_empty() {
            return None;
        }
        self.last_flush = now;
        Some(batch)
    }

    /// Take whatever is pooled if the flush timeout expired (timeout
    /// trigger); called from the leader's batch timer.
    pub fn take_due<T: PoolTx>(
        &mut self,
        pool: &mut Mempool<T>,
        now: SimTime,
        stats: &mut Stats,
    ) -> Option<Vec<T>> {
        if pool.is_empty() || now.since(self.last_flush) < self.cfg.timeout {
            return None;
        }
        let batch = pool.take_batch(self.cfg.max_txs, now, stats);
        if batch.is_empty() {
            return None;
        }
        self.last_flush = now;
        stats.inc(stat::TIMEOUT_FLUSHES, 1);
        Some(batch)
    }

    /// Note an externally produced flush (e.g. a re-proposal after a view
    /// change), resetting the timeout clock.
    pub fn note_flush(&mut self, now: SimTime) {
        self.last_flush = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MempoolConfig;

    #[derive(Clone)]
    struct Tx(u64);
    impl PoolTx for Tx {
        fn tx_id(&self) -> u64 {
            self.0
        }
    }

    fn setup() -> (Mempool<Tx>, BatchBuilder, Stats) {
        let pool = Mempool::new(MempoolConfig::new(100), 1);
        let builder = BatchBuilder::new(BatchConfig::new(4, SimDuration::from_millis(10)));
        (pool, builder, Stats::new())
    }

    #[test]
    fn size_trigger_fires_at_max_txs() {
        let (mut pool, mut b, mut s) = setup();
        for i in 0..3 {
            pool.insert(Tx(i), SimTime::ZERO, &mut s);
        }
        assert!(b.take_full(&mut pool, SimTime::ZERO, &mut s).is_none());
        pool.insert(Tx(3), SimTime::ZERO, &mut s);
        let batch = b.take_full(&mut pool, SimTime::ZERO, &mut s).expect("full");
        assert_eq!(batch.len(), 4);
        assert!(pool.is_empty());
    }

    #[test]
    fn timeout_flushes_partial_batches() {
        let (mut pool, mut b, mut s) = setup();
        pool.insert(Tx(1), SimTime::ZERO, &mut s);
        let early = SimTime::ZERO + SimDuration::from_millis(5);
        assert!(b.take_due(&mut pool, early, &mut s).is_none(), "too early");
        let due = SimTime::ZERO + SimDuration::from_millis(10);
        let batch = b.take_due(&mut pool, due, &mut s).expect("due");
        assert_eq!(batch.len(), 1);
        assert_eq!(s.counter(stat::TIMEOUT_FLUSHES), 1);
        // Empty pool: timer fires but nothing to flush.
        let later = due + SimDuration::from_millis(50);
        assert!(b.take_due(&mut pool, later, &mut s).is_none());
    }

    #[test]
    fn full_flush_resets_timeout_clock() {
        let (mut pool, mut b, mut s) = setup();
        for i in 0..4 {
            pool.insert(Tx(i), SimTime::ZERO, &mut s);
        }
        let t1 = SimTime::ZERO + SimDuration::from_millis(9);
        assert!(b.take_full(&mut pool, t1, &mut s).is_some());
        pool.insert(Tx(9), t1, &mut s);
        // Timeout counts from the last flush, not from time zero.
        let t2 = SimTime::ZERO + SimDuration::from_millis(12);
        assert!(b.take_due(&mut pool, t2, &mut s).is_none());
        let t3 = t1 + SimDuration::from_millis(10);
        assert!(b.take_due(&mut pool, t3, &mut s).is_some());
    }
}
