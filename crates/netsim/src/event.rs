//! Deterministic event scheduling for the discrete-event network core.
//!
//! The packet-level simulator in [`crate::topology`] schedules `(time,
//! kind)` events and relies on a strict total order: ascending time,
//! FIFO among equal times — `(time, insertion seq)`. [`CalendarQueue`]
//! (Brown's calendar queue) provides it in amortized O(1)
//! enqueue/dequeue regardless of pending-event count, which is what lets
//! a 1024-node simulation finish inside the CI smoke budget. Its buckets
//! are kept sorted by `(time, seq)`, so a pop takes a bucket's front and
//! a run of tied events (lockstep flows serialise in step) pops in O(1)
//! each instead of one bucket scan per pop. The original binary-heap
//! scheduler survives only under `cfg(test)` (module `oracle`), as the
//! independently implemented oracle that this module's differential
//! tests, and `topology`'s, replay seeded workloads against, asserting
//! event-for-event identical pop order and timestamps.
//!
//! Determinism is load-bearing: the simulator must not depend on wall
//! clocks or RNG (the analyzer's `no-time-rng-in-wire` rule covers this
//! file), so the queue breaks time ties by insertion order alone.

use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    item: T,
}

/// The event scheduler: a calendar queue (R. Brown, CACM 1988).
///
/// Events hash into buckets by `(time >> shift) % bucket count`; a pop
/// walks forward from the virtual clock one bucket-day of `1 << shift`
/// time units at a time, so for workloads whose pending events spread
/// over O(buckets) days both operations are amortized O(1). The bucket
/// count doubles/halves with the pending-event population and the day
/// length re-estimates from the pending events' span at each resize,
/// and again whenever a pop finds nothing within a year of the clock,
/// keeping bucket occupancy near one event regardless of the simulated
/// timescale. Days are powers of two so that hashing is a shift.
///
/// Every bucket is kept sorted by `(time, seq)`. A push scans from the
/// bucket's tail: its `seq` is the largest yet issued, so it sorts
/// after every pending entry of equal time, and in the common case
/// (ascending times, or a tie) it is a plain append. A pop then only
/// looks at bucket fronts: the front is the bucket's earliest entry, so
/// if it is not dated inside the scanned day no entry of that bucket
/// is. Lockstep flows put tens of equal-time entries in one bucket,
/// which a whole-bucket minimum scan would make O(k) per pop.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `buckets[..=mask]` are in use, each sorted by `(time, seq)`; the
    /// rest are empty storage kept from a larger calendar.
    buckets: Vec<VecDeque<Entry<T>>>,
    /// log2 of the bucket width in time units.
    shift: u32,
    /// Bucket count minus one; the count is a power of two.
    mask: usize,
    /// Monotonic insertion counter — the FIFO tie-break.
    seq: u64,
    /// Pending events across all buckets.
    len: usize,
    /// Lower bound on the next pop's timestamp (the virtual clock).
    cursor: u64,
    /// Every pending entry during a rebuild; empty otherwise.
    spill: Vec<Entry<T>>,
}

const MIN_BUCKETS: usize = 16;
const INITIAL_SHIFT: u32 = 10;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            shift: INITIAL_SHIFT,
            mask: MIN_BUCKETS - 1,
            seq: 0,
            len: 0,
            cursor: 0,
            spill: Vec::new(),
        }
    }

    fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    fn bucket_of(&self, time: u64) -> usize {
        (time >> self.shift) as usize & self.mask
    }

    /// The latest pending timestamp: sorted buckets keep it at a back.
    fn latest(&self) -> Option<u64> {
        self.buckets[..=self.mask]
            .iter()
            .filter_map(|b| b.back())
            .map(|e| e.time)
            .max()
    }

    /// The day length for `events` events spread over `span` time
    /// units: their mean separation rounded up to a power of two.
    fn shift_for(span: u64, events: usize) -> u32 {
        let mean = (span / events as u64).max(1);
        mean.checked_next_power_of_two()
            .map_or(u64::BITS - 1, u64::trailing_zeros)
    }

    /// Rebuilds with `new_count` buckets, re-estimating the day length
    /// from the span of pending timestamps so average occupancy stays
    /// near one event per bucket.
    fn resize(&mut self, new_count: usize) {
        let lo = self.buckets[..=self.mask]
            .iter()
            .filter_map(|b| b.front())
            .map(|e| e.time)
            .min();
        let shift = match (lo, self.latest()) {
            (Some(lo), Some(hi)) if self.len >= 2 && hi > lo => Self::shift_for(hi - lo, self.len),
            _ => INITIAL_SHIFT,
        };
        self.rebuild(new_count, shift);
    }

    /// Re-buckets every pending entry into `new_count` buckets of
    /// `1 << shift` time units. Entries are re-inserted in `(time, seq)`
    /// order, so every new bucket comes out sorted; bucket storage is
    /// reused.
    fn rebuild(&mut self, new_count: usize, shift: u32) {
        for bucket in &mut self.buckets[..=self.mask] {
            self.spill.extend(bucket.drain(..));
        }
        // Each old bucket is a sorted run; keys are unique.
        self.spill.sort_by_key(|e| (e.time, e.seq));
        if self.buckets.len() < new_count {
            self.buckets.resize_with(new_count, VecDeque::new);
        }
        self.mask = new_count - 1;
        self.shift = shift;
        for e in self.spill.drain(..) {
            let idx = (e.time >> shift) as usize & self.mask;
            self.buckets[idx].push_back(e);
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
        let bucket = &mut self.buckets[idx];
        // The new seq sorts after every pending one: the entry goes
        // right after the last entry dated no later than `time`.
        let mut at = bucket.len();
        while at > 0 && bucket[at - 1].time > time {
            at -= 1;
        }
        let entry = Entry { time, seq, item };
        if at == bucket.len() {
            bucket.push_back(entry);
        } else {
            bucket.insert(at, entry);
        }
        self.len += 1;
        if self.len > 2 * self.bucket_count() {
            self.resize(2 * self.bucket_count());
        }
    }

    /// Dequeues the earliest event; equal times pop in insertion order.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let first_day = self.cursor >> self.shift;
        // Scan at most one full calendar year from the clock. Every
        // pending event is at or after the clock, so a bucket's entries
        // belong to the scanned day or to later years: the front admits
        // only if it is dated inside the day.
        for day in first_day..first_day.saturating_add(self.bucket_count() as u64) {
            let b = day as usize & self.mask;
            if self.buckets[b]
                .front()
                .is_some_and(|e| e.time >> self.shift == day)
            {
                let e = self.take_front(b);
                if self.len < self.bucket_count() / 4 && self.bucket_count() > MIN_BUCKETS {
                    self.resize(self.bucket_count() / 2);
                }
                return Some((e.time, e.item));
            }
        }
        // Sparse regime: nothing within a year of the clock. Fall back
        // to the least bucket front, and re-estimate the day from the
        // span the clock jumped plus what is still pending, so the
        // next pops find their events by the day scan again.
        let from = self.cursor;
        let (_, b) = self.buckets[..=self.mask]
            .iter()
            .enumerate()
            .filter_map(|(b, bucket)| bucket.front().map(|e| ((e.time, e.seq), b)))
            .min()
            .expect("len > 0 implies a pending event");
        let e = self.take_front(b);
        let hi = self.latest().unwrap_or(e.time);
        let shift = Self::shift_for(hi - from, self.len + 1);
        self.rebuild(self.bucket_count(), shift);
        Some((e.time, e.item))
    }

    fn take_front(&mut self, b: usize) -> Entry<T> {
        let e = self.buckets[b].pop_front().expect("non-empty bucket");
        self.cursor = e.time;
        self.len -= 1;
        e
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

/// The reference scheduler and the deterministic generator the
/// differential tests (here and in [`crate::topology`]) replay against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A binary min-heap ordered by `(time, insertion order)`, O(log n)
    /// per operation. Kept solely so the calendar queue, and the event
    /// loop that runs on it, have an independently implemented oracle
    /// to be diffed against.
    #[derive(Debug)]
    pub(crate) struct BinaryHeapQueue<T> {
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
        pub(crate) fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }

        pub(crate) fn push(&mut self, time: u64, item: T) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(HeapEntry(time, seq, item)));
        }

        pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
            self.heap.pop().map(|Reverse(e)| (e.0, e.2))
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    /// Deterministic xorshift so the differential workloads need no RNG
    /// dependency (and stay reproducible byte-for-byte).
    #[derive(Debug)]
    pub(crate) struct XorShift(pub(crate) u64);

    impl XorShift {
        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// A draw from `0..n`.
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{BinaryHeapQueue, XorShift};
    use super::*;

    /// Replays one interleaved push/pop workload through both queues and
    /// asserts event-for-event identical `(time, payload)` pop streams.
    /// Returns how many times the calendar grew and shrank.
    fn differential(seed: u64, ops: usize, spread: u64) -> (usize, usize) {
        let mut rng = XorShift(seed | 1);
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut clock = 0u64;
        let (mut grew, mut shrank) = (0, 0);
        let mut buckets = cal.bucket_count();
        let mut count = |cal: &CalendarQueue<usize>| {
            grew += usize::from(cal.bucket_count() > buckets);
            shrank += usize::from(cal.bucket_count() < buckets);
            buckets = cal.bucket_count();
        };
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
            count(&cal);
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence during drain (seed {seed})");
            count(&cal);
            if a.is_none() {
                break;
            }
        }
        assert!(cal.is_empty() && heap.is_empty());
        (grew, shrank)
    }

    #[test]
    fn calendar_matches_heap_event_for_event() {
        for seed in 1..=8u64 {
            differential(seed, 5_000, 50_000);
        }
    }

    #[test]
    fn calendar_matches_heap_with_dense_ties() {
        // spread 4 forces many identical timestamps: pure FIFO ordering,
        // tens of equal-time entries per bucket. Two pushes per pop grow
        // the population through several doublings; the drain halves
        // the calendar back down.
        for seed in [3, 17, 99] {
            let (grew, shrank) = differential(seed, 20_000, 4);
            assert!(grew >= 4 && shrank >= 4, "grew {grew}, shrank {shrank}");
        }
    }

    #[test]
    fn push_behind_a_bucket_tail_keeps_the_bucket_sorted() {
        // With 16 buckets of width 1024, times 5 and 16 * 1024 + 5 share
        // bucket 0; so do 3 and 17 * 1024 * 16 + 3.
        let mut q = CalendarQueue::new();
        let year = 16 * 1024;
        q.push(year + 5, 'b');
        q.push(year + 5, 'c');
        q.push(5, 'a');
        q.push(17 * year + 3, 'd');
        q.push(3, 'z');
        q.push(5, 'y');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (3, 'z'),
                (5, 'a'),
                (5, 'y'),
                (year + 5, 'b'),
                (year + 5, 'c'),
                (17 * year + 3, 'd')
            ]
        );
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
