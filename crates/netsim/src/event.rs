//! Deterministic event scheduling for the discrete-event network core.
//!
//! The packet-level simulator in [`crate::topology`] schedules `(time,
//! kind)` events and relies on a strict total order: ascending time,
//! FIFO among equal times. [`CalendarQueue`] (Brown's calendar queue)
//! provides it in amortized O(1) enqueue/dequeue regardless of
//! pending-event count, which is what lets a 1024-node simulation
//! finish inside the CI smoke budget. The original binary-heap scheduler
//! survives only in this module's tests, as the independently
//! implemented oracle the differential tests replay seeded workloads
//! against, asserting event-for-event identical pop order and
//! timestamps.
//!
//! Determinism is load-bearing: the simulator must not depend on wall
//! clocks or RNG (the analyzer's `no-time-rng-in-wire` rule covers this
//! file), so the queue breaks time ties by insertion order alone.

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// The event scheduler: a calendar queue (R. Brown, CACM 1988).
///
/// Events hash into `buckets` by `(time / width) % buckets.len()`; a pop
/// scans forward from the virtual clock one bucket-day at a time, so for
/// workloads whose pending events spread over O(buckets) days both
/// operations are amortized O(1). The bucket count doubles/halves with
/// the pending-event population and `width` re-estimates from the
/// observed event span at each resize, keeping bucket occupancy near
/// one event regardless of the simulated timescale.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Entry<T>>>,
    /// Bucket width in time units (≥ 1).
    width: u64,
    /// `buckets.len() - 1`; bucket count is a power of two.
    mask: usize,
    /// Monotonic insertion counter — the FIFO tie-break.
    seq: u64,
    /// Pending events across all buckets.
    len: usize,
    /// Lower bound on the next pop's timestamp (the virtual clock).
    cursor: u64,
}

const MIN_BUCKETS: usize = 16;
const INITIAL_WIDTH: u64 = 1 << 10;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: INITIAL_WIDTH,
            mask: MIN_BUCKETS - 1,
            seq: 0,
            len: 0,
            cursor: 0,
        }
    }

    fn bucket_of(&self, time: u64) -> usize {
        (time / self.width) as usize & self.mask
    }

    /// Rebuilds with `new_count` buckets, re-estimating the bucket width
    /// from the span of pending timestamps so average occupancy stays
    /// near one event per bucket.
    fn resize(&mut self, new_count: usize) {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for b in &self.buckets {
            for e in b {
                lo = lo.min(e.time);
                hi = hi.max(e.time);
            }
        }
        self.width = if self.len < 2 || hi <= lo {
            INITIAL_WIDTH
        } else {
            ((hi - lo) / self.len as u64).max(1)
        };
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_count).map(|_| Vec::new()).collect(),
        );
        self.mask = new_count - 1;
        for bucket in old {
            for e in bucket {
                let idx = (e.time / self.width) as usize & self.mask;
                self.buckets[idx].push(e);
            }
        }
    }

    /// Enqueues `item` at `time`.
    pub fn push(&mut self, time: u64, item: T) {
        // A push behind the clock (never produced by a causal DES, but
        // legal for the queue) rewinds the scan cursor so the event is
        // not skipped.
        if time < self.cursor {
            self.cursor = time;
        }
        let seq = self.seq;
        self.seq += 1;
        let idx = self.bucket_of(time);
        self.buckets[idx].push(Entry { time, seq, item });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            let doubled = self.buckets.len() * 2;
            self.resize(doubled);
        }
    }

    /// Dequeues the earliest event; equal times pop in insertion order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        let first_day = self.cursor / self.width;
        // Scan at most one full calendar year from the clock: each
        // bucket-day admits only events dated inside that day, which is
        // what keeps events from future years out of order.
        for day in first_day..first_day.saturating_add(nbuckets) {
            let b = day as usize & self.mask;
            let day_end = (day + 1).saturating_mul(self.width);
            let mut best: Option<usize> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if e.time < day_end
                    && best.is_none_or(|j| {
                        let bj = &self.buckets[b][j];
                        (e.time, e.seq) < (bj.time, bj.seq)
                    })
                {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                let e = self.buckets[b].swap_remove(i);
                self.cursor = e.time;
                self.len -= 1;
                if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
                    let halved = self.buckets.len() / 2;
                    self.resize(halved);
                }
                return Some((e.time, e.item));
            }
        }
        // Sparse regime: nothing within a year of the clock. Fall back
        // to a direct minimum scan and jump the clock there.
        let mut best: Option<(usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(bb, bi)| {
                    let o = &self.buckets[bb][bi];
                    (e.time, e.seq) < (o.time, o.seq)
                }) {
                    best = Some((b, i));
                }
            }
        }
        let (b, i) = best.expect("len > 0 implies a pending event");
        let e = self.buckets[b].swap_remove(i);
        self.cursor = e.time;
        self.len -= 1;
        Some((e.time, e.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference scheduler: a binary min-heap ordered by `(time,
    /// insertion order)`, O(log n) per operation. Kept solely so the
    /// calendar queue has an independently-implemented oracle to be
    /// diffed against.
    #[derive(Debug)]
    struct BinaryHeapQueue<T> {
        heap: BinaryHeap<Reverse<HeapEntry<T>>>,
        seq: u64,
    }

    #[derive(Debug)]
    struct HeapEntry<T>(u64, u64, T);

    impl<T> PartialEq for HeapEntry<T> {
        fn eq(&self, o: &Self) -> bool {
            (self.0, self.1) == (o.0, o.1)
        }
    }
    impl<T> Eq for HeapEntry<T> {}
    impl<T> PartialOrd for HeapEntry<T> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<T> Ord for HeapEntry<T> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            (self.0, self.1).cmp(&(o.0, o.1))
        }
    }

    impl<T> BinaryHeapQueue<T> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, time: u64, item: T) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(HeapEntry(time, seq, item)));
        }

        fn pop(&mut self) -> Option<(u64, T)> {
            self.heap.pop().map(|Reverse(e)| (e.0, e.2))
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    /// Deterministic xorshift so the differential workloads need no RNG
    /// dependency (and stay reproducible byte-for-byte).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Replays one interleaved push/pop workload through both queues and
    /// asserts event-for-event identical `(time, payload)` pop streams —
    /// the satellite's differential contract for the scheduler swap.
    fn differential(seed: u64, ops: usize, spread: u64) {
        let mut rng = XorShift(seed | 1);
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut clock = 0u64;
        for op in 0..ops {
            // Mixed workload: bursts of pushes (often at equal or nearby
            // times, exercising the FIFO tie-break) and interleaved pops.
            if !rng.next().is_multiple_of(3) {
                let t = clock + rng.next() % spread;
                cal.push(t, op);
                heap.push(t, op);
            } else {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at op {op} (seed {seed})");
                if let Some((t, _)) = a {
                    clock = t;
                }
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence during drain (seed {seed})");
            if a.is_none() {
                break;
            }
        }
        assert!(cal.is_empty() && heap.is_empty());
    }

    #[test]
    fn calendar_matches_heap_event_for_event() {
        for seed in 1..=8u64 {
            differential(seed, 5_000, 50_000);
        }
    }

    #[test]
    fn calendar_matches_heap_with_dense_ties() {
        // spread 4 forces many identical timestamps: pure FIFO ordering.
        for seed in [3, 17, 99] {
            differential(seed, 3_000, 4);
        }
    }

    #[test]
    fn calendar_matches_heap_on_sparse_horizons() {
        // Huge gaps push the calendar into its sparse fallback path.
        for seed in [7, 41] {
            differential(seed, 1_500, u64::from(u32::MAX));
        }
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn resize_preserves_order() {
        let mut q = CalendarQueue::new();
        // Enough pushes to force several doublings, then drain through
        // the shrink path.
        let mut rng = XorShift(5);
        let mut want: Vec<(u64, usize)> = Vec::new();
        for i in 0..2_000 {
            let t = rng.next() % 1_000_000;
            q.push(t, i);
            want.push((t, i));
        }
        want.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn push_behind_the_clock_is_not_lost() {
        let mut q = CalendarQueue::new();
        q.push(1_000, 'a');
        assert_eq!(q.pop(), Some((1_000, 'a')));
        q.push(10, 'b'); // behind the cursor
        q.push(2_000, 'c');
        assert_eq!(q.pop(), Some((10, 'b')));
        assert_eq!(q.pop(), Some((2_000, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        let mut h: BinaryHeapQueue<u8> = BinaryHeapQueue::new();
        assert_eq!(h.pop(), None);
    }
}
