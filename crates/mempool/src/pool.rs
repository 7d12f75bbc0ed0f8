//! The bounded, deduplicating FIFO transaction pool.

use std::collections::{hash_map, HashMap, VecDeque};

use ahl_simkit::{SimTime, Stats};

use crate::stat;
use crate::PoolTx;

/// Pool sizing.
#[derive(Clone, Debug)]
pub struct MempoolConfig {
    /// Maximum resident transactions. A newcomer arriving at a full pool
    /// is rejected (Hyperledger's drop-beyond-buffer behaviour).
    pub capacity: usize,
}

impl MempoolConfig {
    /// A pool holding up to `capacity` transactions.
    pub fn new(capacity: usize) -> Self {
        MempoolConfig {
            capacity: capacity.max(1),
        }
    }
}

impl Default for MempoolConfig {
    fn default() -> Self {
        // The seed replica's hard-coded memory-pressure cap.
        MempoolConfig::new(200_000)
    }
}

/// Outcome of [`Mempool::insert`] — the backpressure signal the ingest
/// path surfaces to clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; the pool had room.
    Admitted,
    /// Dropped: the pool already holds this TxId.
    Duplicate,
    /// Dropped: the pool is full.
    Rejected,
}

impl Admission {
    /// Whether the transaction is now resident in the pool.
    pub fn is_admitted(&self) -> bool {
        *self == Admission::Admitted
    }
}

struct Entry<T> {
    tx: T,
    /// Insertion sequence: tells a live FIFO pair from a stale one.
    seq: u64,
    inserted: SimTime,
}

/// A bounded, deduplicating transaction pool, batched oldest first.
///
/// Resident transactions live in a by-id map; insertion order is a FIFO
/// queue of `(seq, id)` pairs compacted lazily, so removal by id — the
/// common case when another replica executes a transaction first — is
/// O(1).
pub struct Mempool<T> {
    cfg: MempoolConfig,
    entries: HashMap<u64, Entry<T>>,
    /// Insertion order. Stale pairs (removed or re-inserted ids) are
    /// skipped on pop and compacted when they dominate.
    fifo: VecDeque<(u64, u64)>,
    next_seq: u64,
}

impl<T: PoolTx> Mempool<T> {
    /// Create a pool. `_seed` is unused — the pool draws no randomness —
    /// and stays only so two-argument callers keep compiling.
    pub fn new(cfg: MempoolConfig, _seed: u64) -> Self {
        Mempool {
            cfg,
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Resident transaction count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no transactions are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Try to admit `tx`. Counts the outcome in `stats` and returns the
    /// backpressure signal.
    pub fn insert(&mut self, tx: T, now: SimTime, stats: &mut Stats) -> Admission {
        let full = self.entries.len() >= self.cfg.capacity;
        let slot = match self.entries.entry(tx.tx_id()) {
            hash_map::Entry::Occupied(_) => {
                stats.inc(stat::DUPLICATE, 1);
                return Admission::Duplicate;
            }
            hash_map::Entry::Vacant(_) if full => {
                stats.inc(stat::REJECTED_FULL, 1);
                return Admission::Rejected;
            }
            hash_map::Entry::Vacant(slot) => slot,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fifo.push_back((seq, *slot.key()));
        slot.insert(Entry {
            tx,
            seq,
            inserted: now,
        });
        stats.inc(stat::ADMITTED, 1);
        Admission::Admitted
    }

    /// Remove `id` (executed elsewhere, superseded, ...). Returns whether
    /// it was resident. O(1); the FIFO queue is compacted lazily.
    pub fn remove(&mut self, id: u64) -> bool {
        let removed = self.entries.remove(&id).is_some();
        if removed {
            self.maybe_compact();
        }
        removed
    }

    /// Drop every resident transaction failing `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.entries.retain(|_, e| keep(&e.tx));
        self.maybe_compact();
    }

    /// Iterate resident transactions in insertion order (oldest first).
    pub fn iter_fifo(&self) -> impl Iterator<Item = &T> + '_ {
        self.fifo
            .iter()
            .filter_map(move |(seq, id)| match self.entries.get(id) {
                Some(e) if e.seq == *seq => Some(&e.tx),
                _ => None,
            })
    }

    /// Form a batch of the (up to) `max_txs` oldest transactions,
    /// recording queueing latency for each.
    pub fn take_batch(&mut self, max_txs: usize, now: SimTime, stats: &mut Stats) -> Vec<T> {
        let mut batch = Vec::with_capacity(max_txs.min(self.entries.len()));
        while batch.len() < max_txs {
            let Some((seq, id)) = self.fifo.pop_front() else {
                break;
            };
            if let hash_map::Entry::Occupied(e) = self.entries.entry(id) {
                if e.get().seq == seq {
                    let entry = e.remove();
                    stats.record_latency(stat::QUEUE_LATENCY, now.since(entry.inserted));
                    batch.push(entry.tx);
                }
            }
        }
        if !batch.is_empty() {
            stats.inc(stat::BATCHED, batch.len() as u64);
            stats.inc(stat::BATCHES, 1);
            stats.record_point(stat::OCCUPANCY, now, self.entries.len() as f64);
        }
        self.maybe_compact();
        batch
    }

    /// Compact the FIFO queue once stale pairs dominate.
    fn maybe_compact(&mut self) {
        if self.fifo.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.fifo
                .retain(|(seq, id)| entries.get(id).is_some_and(|e| e.seq == *seq));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Tx(u64);

    impl PoolTx for Tx {
        fn tx_id(&self) -> u64 {
            self.0
        }
    }

    fn pool(cap: usize) -> Mempool<Tx> {
        Mempool::new(MempoolConfig::new(cap), 7)
    }

    fn ids(batch: &[Tx]) -> Vec<u64> {
        batch.iter().map(|t| t.0).collect()
    }

    #[test]
    fn dedup_by_txid() {
        let mut s = Stats::new();
        let mut p = pool(10);
        assert!(p.insert(Tx(1), SimTime::ZERO, &mut s).is_admitted());
        assert_eq!(p.insert(Tx(1), SimTime::ZERO, &mut s), Admission::Duplicate);
        assert_eq!(p.len(), 1);
        assert_eq!(s.counter(stat::DUPLICATE), 1);
    }

    #[test]
    fn fifo_rejects_when_full_and_batches_in_order() {
        let mut s = Stats::new();
        let mut p = pool(3);
        for i in 0..3 {
            assert!(p.insert(Tx(i), SimTime::ZERO, &mut s).is_admitted());
        }
        assert_eq!(p.insert(Tx(9), SimTime::ZERO, &mut s), Admission::Rejected);
        let batch = p.take_batch(2, SimTime::ZERO, &mut s);
        assert_eq!(ids(&batch), vec![0, 1]);
        // Room again: the next insert is admitted.
        assert!(p.insert(Tx(9), SimTime::ZERO, &mut s).is_admitted());
        assert_eq!(s.counter(stat::REJECTED_FULL), 1);
        assert_eq!(s.counter(stat::BATCHED), 2);
    }

    #[test]
    fn remove_frees_room_and_skips_batching() {
        let mut s = Stats::new();
        let mut p = pool(2);
        p.insert(Tx(1), SimTime::ZERO, &mut s);
        p.insert(Tx(2), SimTime::ZERO, &mut s);
        assert!(p.remove(1));
        assert!(!p.remove(1));
        assert!(p.insert(Tx(3), SimTime::ZERO, &mut s).is_admitted());
        let batch = p.take_batch(5, SimTime::ZERO, &mut s);
        assert_eq!(ids(&batch), vec![2, 3]);
    }

    #[test]
    fn queue_latency_recorded() {
        let mut s = Stats::new();
        let mut p = pool(10);
        p.insert(Tx(1), SimTime::ZERO, &mut s);
        let later = SimTime::ZERO + ahl_simkit::SimDuration::from_millis(5);
        p.take_batch(1, later, &mut s);
        let h = s.histogram(stat::QUEUE_LATENCY).expect("latency recorded");
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean().as_millis(), 5);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        // Interleave inserts (most into a full pool), removes and batches;
        // every admitted transaction is batched, removed, or resident.
        let mut s = Stats::new();
        let mut p = pool(64);
        let mut next = 0u64;
        let mut removed = 0u64;
        for round in 0..200 {
            for _ in 0..10 {
                p.insert(Tx(next), SimTime::ZERO, &mut s);
                next += 1;
            }
            if round % 3 == 0 && p.remove(next.saturating_sub(5)) {
                removed += 1;
            }
            let b = p.take_batch(7, SimTime::ZERO, &mut s);
            assert!(b.len() <= 7);
            assert!(p.len() <= 64);
            assert_eq!(p.iter_fifo().count(), p.len());
        }
        assert!(
            s.counter(stat::REJECTED_FULL) > 0,
            "the pool must have filled up"
        );
        assert_eq!(
            s.counter(stat::ADMITTED),
            s.counter(stat::BATCHED) + removed + p.len() as u64
        );
    }

    /// The executable specification the pool is checked against: a queue
    /// in arrival order, a set for dedup, and a capacity — no lazy
    /// compaction, no sequence numbers.
    struct Model {
        queue: VecDeque<u64>,
        ids: HashSet<u64>,
        capacity: usize,
        stats: Stats,
    }

    impl Model {
        fn insert(&mut self, id: u64) -> Admission {
            if self.ids.contains(&id) {
                self.stats.inc(stat::DUPLICATE, 1);
                Admission::Duplicate
            } else if self.ids.len() >= self.capacity {
                self.stats.inc(stat::REJECTED_FULL, 1);
                Admission::Rejected
            } else {
                self.queue.push_back(id);
                self.ids.insert(id);
                self.stats.inc(stat::ADMITTED, 1);
                Admission::Admitted
            }
        }

        fn retain(&mut self, keep: impl Fn(u64) -> bool) {
            self.queue.retain(|id| keep(*id));
            self.ids.retain(|id| keep(*id));
        }

        fn take(&mut self, max: usize) -> Vec<u64> {
            let n = max.min(self.queue.len());
            let batch: Vec<u64> = self.queue.drain(..n).collect();
            for id in &batch {
                self.ids.remove(id);
            }
            batch
        }
    }

    proptest::proptest! {
        /// The pool is its reference model: over random interleavings of
        /// inserts (fresh, duplicate, and into a full pool), removes,
        /// retains and size- and timeout-triggered batches at advancing
        /// clocks, both agree after every step on the admission outcome,
        /// the length, the FIFO order, every batch, and the admit /
        /// duplicate / full-reject counters. Small id ranges make ids
        /// leave and come back, which leaves stale FIFO pairs for the lazy
        /// compaction to skip and sweep.
        #[test]
        fn pool_equals_the_queue_and_set_model(
            capacity in 1usize..40,
            max_txs in 1usize..12,
            steps in proptest::collection::vec((0u8..10, 0u64..60, 0u64..30), 1..400),
        ) {
            use crate::{BatchBuilder, BatchConfig};
            use ahl_simkit::SimDuration;

            let mut pool = pool(capacity);
            let mut stats = Stats::new();
            let timeout = SimDuration::from_millis(10);
            let mut builder = BatchBuilder::new(BatchConfig::new(max_txs, timeout));
            let mut model = Model {
                queue: VecDeque::new(),
                ids: HashSet::new(),
                capacity,
                stats: Stats::new(),
            };
            let mut last_flush = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for (op, id, ms) in steps {
                match op {
                    0..=4 => {
                        let got = pool.insert(Tx(id), now, &mut stats);
                        proptest::prop_assert_eq!(got, model.insert(id), "insert({})", id);
                    }
                    5 => {
                        let was = model.ids.contains(&id);
                        proptest::prop_assert_eq!(pool.remove(id), was, "remove({})", id);
                        model.retain(|x| x != id);
                    }
                    6 => {
                        pool.retain(|t| t.0 % 7 != id % 7);
                        model.retain(|x| x % 7 != id % 7);
                    }
                    7 => {
                        let got = builder.take_full(&mut pool, now, &mut stats);
                        let want = (model.queue.len() >= max_txs).then(|| model.take(max_txs));
                        proptest::prop_assert_eq!(got.as_deref().map(ids), want);
                        if got.is_some() {
                            last_flush = now;
                        }
                    }
                    8 => {
                        let got = builder.take_due(&mut pool, now, &mut stats);
                        let due = !model.queue.is_empty() && now.since(last_flush) >= timeout;
                        let want = due.then(|| model.take(max_txs));
                        proptest::prop_assert_eq!(got.as_deref().map(ids), want);
                        if got.is_some() {
                            last_flush = now;
                        }
                    }
                    _ => now += SimDuration::from_millis(ms),
                }
                proptest::prop_assert_eq!(pool.len(), model.ids.len());
                proptest::prop_assert_eq!(pool.is_empty(), model.ids.is_empty());
                proptest::prop_assert!(pool.fifo.len() <= 2 * pool.len() + 64, "compaction bound");
                let fifo: Vec<u64> = pool.iter_fifo().map(|t| t.0).collect();
                proptest::prop_assert_eq!(&fifo, &Vec::from(model.queue.clone()));
                for name in [stat::ADMITTED, stat::DUPLICATE, stat::REJECTED_FULL] {
                    let (got, want) = (stats.counter(name), model.stats.counter(name));
                    proptest::prop_assert_eq!(got, want, "{}", name);
                }
            }
        }
    }
}
