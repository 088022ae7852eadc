//! Time-ordered event queue with deterministic tie-breaking.
//!
//! The queue is keyed on `(time, seq, lane)`. For plainly [`EventQueue::push`]ed
//! events `seq` is a monotonically increasing insertion counter (and `lane`
//! is 0), so two events scheduled for the same instant are delivered in the
//! order they were scheduled, which makes whole-simulation replays
//! bit-identical — a property the test suite checks end-to-end.
//!
//! [`EventQueue::push_keyed`] lets a higher layer assign the full key
//! itself. The sharded parallel engine uses this: each scheduling entity
//! (a `lane`) carries its own Lamport-style `seq` counter, which makes the
//! key independent of *which engine* an event was pushed into — the
//! property that lets a partitioned run dispatch in exactly the same
//! canonical order as a serial run. The two push flavors must not be mixed
//! on one queue unless the caller guarantees key uniqueness across both.
//!
//! ## Implementation: a sliding timer wheel
//!
//! A discrete-event network simulation pushes and pops millions of events
//! whose delivery times cluster tightly around "now" (serialization at
//! 100–400 Gbps spaces packet events tens of nanoseconds apart). A global
//! binary heap pays `O(log n)` per operation over the *whole* event
//! population; the calendar/timer-wheel layout below pays near-`O(1)` by
//! bucketing the near future:
//!
//! * **active** — a small binary heap holding the earliest bucket's
//!   events (plus any same-window insertions). All pops come from here,
//!   so exact `(time, seq)` ordering is preserved by the heap compare.
//! * **wheel** — a ring of `WHEEL_BUCKETS` buckets of [`BUCKET_NS`] each
//!   (unsorted `Vec`s, found via a bitmap). It covers the [`PAGE_NS`]
//!   (~32.8 µs) that start at the next bucket to load, and slides forward
//!   with it.
//! * **overflow** — a binary heap for events at least a page ahead
//!   (DCQCN, window and RTO-scale timers). Each bucket load pulls the
//!   events the slide brought into range into the wheel.
//!
//! The bucket width sets how many events share one active heap, and so
//! how deep every pop digs. At 400 G every packet is sprayed and the
//! paper alltoall fits ~10M events into ~97 µs of simulated time: with
//! 256 ns buckets a loaded bucket held ~13,500 events there and a pop
//! met a heap ~7,800 deep; with 4 ns buckets it is ~370 and ~210. The
//! other fabrics are sparser and shrink the same way (lossy incast on
//! the 400 G fabric: 97 → 7 events per bucket; k=16 open loop at 100 G:
//! 46 → 4). The wheel slides rather than jumping page by page so the
//! in-flight events near a page edge never pile up in the overflow heap:
//! on the paper alltoall ~70k of them would, and copying them into the
//! next page raised peak memory by ~4 MB.
//!
//! Events migrate overflow → wheel → active carrying their original
//! `seq`, and equal timestamps always land in the same bucket, so pop
//! order is bit-identical to the reference heap (a randomized
//! equivalence test in `tests/` checks exactly this).

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds (4 ns per bucket).
const GRAN_BITS: u32 = 2;
/// log2 of the bucket count in the wheel (8192 buckets ≈ 32.8 µs).
const WHEEL_BITS: u32 = 13;
const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;
/// Nanoseconds covered by one wheel bucket.
pub const BUCKET_NS: u64 = 1 << GRAN_BITS;
/// Nanoseconds the wheel covers ahead of its next bucket (one page);
/// later events wait in the overflow heap.
pub const PAGE_NS: u64 = (WHEEL_BUCKETS as u64) << GRAN_BITS;
/// Words in the occupancy bitmap.
const BITMAP_WORDS: usize = WHEEL_BUCKETS / 64;

/// An event plus its delivery metadata, as stored in the queue.
#[derive(Debug, Clone)]
pub struct Scheduled<T> {
    /// Delivery time.
    pub at: Nanos,
    /// Sequence number; breaks same-time ties deterministically. Plain
    /// pushes draw it from a per-queue insertion counter; keyed pushes
    /// carry a per-lane counter assigned by the caller.
    pub seq: u64,
    /// Scheduling lane (the entity that pushed the event, in keyed mode).
    /// Breaks (time, seq) ties across lanes; 0 for plain pushes.
    pub lane: u32,
    /// The payload delivered to the dispatcher.
    pub payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq && self.lane == other.lane
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
            .then_with(|| other.lane.cmp(&self.lane))
    }
}

/// A deterministic future-event list (sliding timer wheel).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Earliest-window events; every pop comes from this heap.
    active: BinaryHeap<Scheduled<T>>,
    /// Inclusive upper bound on delivery times routed to `active`.
    /// (Inclusive so a window ending at `u64::MAX` is representable.)
    active_last: u64,
    /// Ring of buckets; absolute bucket `b` (`time >> GRAN_BITS`) lives
    /// at `b % WHEEL_BUCKETS`.
    wheel: Vec<Vec<Scheduled<T>>>,
    /// One bit per bucket: does it hold any events?
    occupied: [u64; BITMAP_WORDS],
    /// Events currently in wheel buckets.
    wheel_count: usize,
    /// Absolute bucket to load into `active` next. Every wheel event's
    /// bucket lies in `cursor..horizon`.
    cursor: u64,
    /// Exclusive absolute bucket bound of the wheel, at most
    /// `cursor + WHEEL_BUCKETS`; every overflow event lies at or past it.
    horizon: u64,
    /// Events at or beyond `horizon`.
    overflow: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
    /// Events ever inserted (plain or keyed).
    total: u64,
    len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            active: BinaryHeap::new(),
            active_last: 0,
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            wheel_count: 0,
            cursor: 0,
            horizon: WHEEL_BUCKETS as u64,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            total: 0,
            len: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `payload` for delivery at absolute time `at`, drawing the
    /// tie-break key from the queue's own insertion counter (lane 0).
    #[inline]
    pub fn push(&mut self, at: Nanos, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Scheduled {
            at,
            seq,
            lane: 0,
            payload,
        });
    }

    /// Schedule `payload` with a caller-assigned `(seq, lane)` tie-break
    /// key. The caller owns key uniqueness; the queue only orders.
    #[inline]
    pub fn push_keyed(&mut self, at: Nanos, seq: u64, lane: u32, payload: T) {
        self.insert(Scheduled {
            at,
            seq,
            lane,
            payload,
        });
    }

    /// Re-insert an event popped or drained from a queue, preserving its
    /// original key. Used when redistributing events between the serial
    /// engine and per-shard engines.
    #[inline]
    pub fn restore(&mut self, ev: Scheduled<T>) {
        self.insert(ev);
    }

    /// Pop every pending event (in key order) and reset the wheel so the
    /// queue accepts arbitrary future timestamps again. The insertion
    /// counter survives, keeping later plain pushes unique.
    pub fn drain_all(&mut self) -> Vec<Scheduled<T>> {
        let mut out = Vec::with_capacity(self.len);
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        let next_seq = self.next_seq;
        let total = self.total;
        *self = Self::default();
        self.next_seq = next_seq;
        self.total = total;
        out
    }

    #[inline]
    fn insert(&mut self, ev: Scheduled<T>) {
        self.len += 1;
        self.total += 1;
        let t = ev.at.as_nanos();
        let b = t >> GRAN_BITS;
        if self.len == 1 && t > self.active_last && b < self.horizon {
            // Empty queue: make this event the active window's upper
            // bound so it skips the wheel entirely. Safe because there
            // is nothing to order against, and any later push below `t`
            // joins the active heap, which keeps exact (time, seq)
            // order. Keeps a lone self-rescheduling timer on the cheap
            // heap path instead of paying a bucket migration per event.
            // Capped at the wheel's horizon so one far-future push can't
            // widen the active window into a de-facto global heap.
            self.active_last = t;
        }
        if t <= self.active_last {
            // Same (or earlier) window as the events being drained now:
            // the heap keeps (time, seq) order exact.
            self.active.push(ev);
        } else if b < self.horizon {
            debug_assert!(b >= self.cursor);
            self.wheel_insert(ev);
        } else {
            self.overflow.push(ev);
        }
        if self.active.is_empty() && self.needs_settle() {
            self.settle();
        }
    }

    /// Put `ev` into its wheel bucket; its bucket must lie in
    /// `cursor..horizon`.
    #[inline]
    fn wheel_insert(&mut self, ev: Scheduled<T>) {
        let r = (ev.at.as_nanos() >> GRAN_BITS) as usize & (WHEEL_BUCKETS - 1);
        self.wheel[r].push(ev);
        self.occupied[r >> 6] |= 1u64 << (r & 63);
        self.wheel_count += 1;
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        let ev = self.active.pop()?;
        self.len -= 1;
        if self.active.is_empty() && self.needs_settle() {
            self.settle();
        }
        Some(ev)
    }

    /// True when events are waiting outside the active heap. Gates the
    /// (non-inlined) `settle` call so the common lone-timer pattern —
    /// pop the only event, push its successor — never leaves the heap
    /// fast path.
    #[inline]
    fn needs_settle(&self) -> bool {
        self.wheel_count > 0 || !self.overflow.is_empty()
    }

    /// Delivery time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        // `settle` maintains: queue non-empty ⇒ `active` non-empty.
        self.active.peek().map(|s| s.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.total
    }

    /// Restore the invariant that `active` holds the earliest events
    /// whenever the queue is non-empty: slide the wheel's horizon up to
    /// a page past the cursor (jumping the cursor to the earliest
    /// overflow event if the wheel is empty), then load the next
    /// occupied bucket.
    #[cold]
    fn settle(&mut self) {
        debug_assert!(self.active.is_empty());
        if self.wheel_count == 0 {
            match self.overflow.peek() {
                Some(min) => self.cursor = min.at.as_nanos() >> GRAN_BITS,
                None => return,
            }
        }
        // The overflow holds only buckets at or past the old horizon, so
        // the ring slots they move into are free.
        self.horizon = self.cursor + WHEEL_BUCKETS as u64;
        while let Some(s) = self.overflow.peek() {
            if s.at.as_nanos() >> GRAN_BITS >= self.horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            self.wheel_insert(ev);
        }
        let b = self.next_occupied_bucket();
        let r = b as usize & (WHEEL_BUCKETS - 1);
        let bucket = std::mem::take(&mut self.wheel[r]);
        self.wheel_count -= bucket.len();
        self.occupied[r >> 6] &= !(1u64 << (r & 63));
        self.cursor = b + 1;
        self.active_last = (b << GRAN_BITS) | (BUCKET_NS - 1);
        // O(k) heapify of the bucket.
        self.active = BinaryHeap::from(bucket);
    }

    /// Absolute index of the first occupied bucket at or after `cursor`
    /// (the wheel must be non-empty).
    #[inline]
    fn next_occupied_bucket(&self) -> u64 {
        let start = self.cursor as usize & (WHEEL_BUCKETS - 1);
        let mut w = start >> 6;
        // Mask off bits below the cursor within its word; they are the
        // ring's last buckets and come up again after the wrap.
        let mut word = self.occupied[w] & (!0u64 << (start & 63));
        loop {
            if word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                return self.cursor + (r.wrapping_sub(start) & (WHEEL_BUCKETS - 1)) as u64;
            }
            w = (w + 1) % BITMAP_WORDS;
            debug_assert!(
                w != start >> 6 || self.occupied[w] != 0,
                "wheel_count > 0 but no bucket set"
            );
            word = self.occupied[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(30), "c");
        q.push(Nanos(10), "a");
        q.push(Nanos(20), "b");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.pop().unwrap().payload, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Nanos(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().payload, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Nanos(5), 5);
        q.push(Nanos(1), 1);
        assert_eq!(q.pop().unwrap().payload, 1);
        q.push(Nanos(3), 3);
        q.push(Nanos(2), 2);
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 3);
        assert_eq!(q.pop().unwrap().payload, 5);
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Nanos(7), ());
        q.push(Nanos(3), ());
        assert_eq!(q.peek_time(), Some(Nanos(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Nanos(7)));
    }

    #[test]
    fn len_and_totals() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Nanos(1), ());
        q.push(Nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn events_beyond_one_page_still_ordered() {
        // Mix events inside the first page, several pages out, and at
        // extreme timestamps; pop order must be globally sorted.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            100,
            PAGE_NS - 1,
            PAGE_NS,
            PAGE_NS + 1,
            3 * PAGE_NS + 17,
            10 * PAGE_NS,
            u64::MAX - 1,
            u64::MAX,
        ];
        // Push in reverse so insertion order disagrees with time order.
        for &t in times.iter().rev() {
            q.push(Nanos(t), t);
        }
        let mut got = Vec::new();
        while let Some(ev) = q.pop() {
            assert_eq!(ev.at.as_nanos(), ev.payload);
            got.push(ev.payload);
        }
        assert_eq!(got, times);
    }

    #[test]
    fn sparse_far_future_timers_cross_pages() {
        // A lone self-rescheduling timer with a period far beyond one
        // page (the RTO pattern) must keep firing in order.
        let mut q = EventQueue::new();
        let period = 5 * PAGE_NS + 123;
        q.push(Nanos(0), 0u64);
        let mut fired = 0u64;
        let mut last = 0u64;
        while let Some(ev) = q.pop() {
            assert!(ev.at.as_nanos() >= last);
            last = ev.at.as_nanos();
            fired += 1;
            if fired < 50 {
                q.push(Nanos(last + period), fired);
            }
        }
        assert_eq!(fired, 50);
    }

    #[test]
    fn keyed_events_order_by_at_seq_lane() {
        let mut q = EventQueue::new();
        // Push in scrambled order; expect (at, seq, lane) pop order.
        q.push_keyed(Nanos(10), 2, 0, "c");
        q.push_keyed(Nanos(10), 1, 9, "b2");
        q.push_keyed(Nanos(10), 1, 3, "b1");
        q.push_keyed(Nanos(5), 7, 7, "a");
        q.push_keyed(Nanos(20), 0, 0, "d");
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, ["a", "b1", "b2", "c", "d"]);
    }

    #[test]
    fn drain_all_returns_key_order_and_resets() {
        let mut q = EventQueue::new();
        q.push(Nanos(3 * PAGE_NS), 30);
        q.push(Nanos(5), 5);
        q.push(Nanos(PAGE_NS + 1), 10);
        // Advance paging state past the first bucket before draining.
        assert_eq!(q.pop().unwrap().payload, 5);
        let drained = q.drain_all();
        assert_eq!(
            drained.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![10, 30]
        );
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 3);
        // A reset queue must accept timestamps below the old cursor again.
        for ev in drained {
            q.restore(ev);
        }
        q.push(Nanos(1), 1);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 10, 30]);
    }

    #[test]
    fn same_time_ties_across_migration_boundaries() {
        // Ties scheduled before and after an event migrates from
        // overflow into the wheel must still pop in seq order.
        let mut q = EventQueue::new();
        let t = 2 * PAGE_NS + 500;
        q.push(Nanos(t), 0); // lands in overflow
        q.push(Nanos(0), 100);
        assert_eq!(q.pop().unwrap().payload, 100); // opens page 0 then page 2
        q.push(Nanos(t), 1); // queue settled onto t's page: lands in active/wheel
        q.push(Nanos(t), 2);
        assert_eq!(q.pop().unwrap().payload, 0);
        assert_eq!(q.pop().unwrap().payload, 1);
        assert_eq!(q.pop().unwrap().payload, 2);
    }
}
