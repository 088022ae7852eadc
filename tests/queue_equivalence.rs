//! The timer-wheel `EventQueue` must be observationally identical to a
//! plain `(time, seq)`-ordered binary heap: same pop order, including
//! FIFO tie-breaks, under arbitrary interleavings of pushes and pops.
//!
//! This is the replay-safety contract of the substrate: swapping the
//! queue implementation must not change a single event's delivery order,
//! or every seeded experiment in the repo silently changes results.
//!
//! Every regime below is built from the wheel's exported geometry
//! (`BUCKET_NS`, `PAGE_NS`), so the regimes keep their meaning when the
//! geometry changes.

use simcore::event::{EventQueue, BUCKET_NS, PAGE_NS};
use simcore::rng::Xoshiro256;
use simcore::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reference model: a max-heap of `Reverse((time, seq))`.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, at: u64, payload: u64) {
        self.heap.push(Reverse((at, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap
            .pop()
            .map(|Reverse((at, _, payload))| (at, payload))
    }
}

/// The wheel and the reference driven in lockstep. Pushes never go
/// below the last popped time, as the engine enforces.
#[derive(Default)]
struct Lockstep {
    wheel: EventQueue<u64>,
    reference: RefQueue,
    now: u64,
    next_payload: u64,
}

impl Lockstep {
    fn push(&mut self, at: u64) {
        let at = at.max(self.now);
        self.wheel.push(Nanos(at), self.next_payload);
        self.reference.push(at, self.next_payload);
        self.next_payload += 1;
    }

    /// Pop from both, assert they agree (and still agree on length and
    /// earliest time), and advance `now`.
    fn pop(&mut self, ctx: &str) -> Option<(u64, u64)> {
        let got = self.wheel.pop().map(|s| (s.at.as_nanos(), s.payload));
        assert_eq!(got, self.reference.pop(), "{ctx}: pop mismatch");
        if let Some((t, _)) = got {
            self.now = t;
        }
        assert_eq!(self.wheel.len(), self.reference.heap.len(), "{ctx}");
        assert_eq!(
            self.wheel.peek_time().map(Nanos::as_nanos),
            self.reference.heap.peek().map(|Reverse((t, _, _))| *t),
            "{ctx}: peek mismatch"
        );
        got
    }

    /// Drain completely: the tail must agree too.
    fn drain(&mut self, ctx: &str) {
        while self.pop(ctx).is_some() {}
    }
}

/// Drive both queues through the same randomized schedule and assert
/// every pop agrees. Offsets from "now" mix the regimes the wheel
/// handles differently: exact ties, bucket-local, a few buckets out,
/// in-page, straddling the page edge, and far-future (overflow heap).
#[test]
fn wheel_matches_reference_heap_under_interleaving() {
    const CASES: u64 = 150;
    for case in 0..CASES {
        let mut rng = Xoshiro256::substream(0x3B0E, case);
        let mut q = Lockstep::default();
        let ctx = format!("case {case}");
        let ops = 50 + rng.next_index(500);
        for _ in 0..ops {
            // 60% push, 40% pop — queues grow, then drain below.
            if rng.next_below(10) < 6 {
                let offset = match rng.next_below(6) {
                    0 => 0,
                    1 => rng.next_below(BUCKET_NS),
                    2 => rng.next_below(64 * BUCKET_NS),
                    3 => rng.next_below(PAGE_NS),
                    4 => PAGE_NS - 4 * BUCKET_NS + rng.next_below(8 * BUCKET_NS),
                    _ => rng.next_below(200 * PAGE_NS),
                };
                q.push(q.now + offset);
            } else {
                q.pop(&ctx);
            }
        }
        q.drain(&ctx);
    }
}

/// The 400 G regime: tens of thousands of events inside one bucket's
/// span, so thousands of exact ties per timestamp. The fill phase adds
/// earlier events faster than it pops, so the dense bucket grows to
/// 20,000 events while it waits in the wheel — or, for the cases whose
/// bucket starts pages out, in the overflow heap — and is then loaded
/// whole. The churn phase keeps pushing into it (clamped to "now", so
/// more exact ties) while popping from it.
#[test]
fn dense_bucket_matches_reference_heap() {
    for case in 0..4u64 {
        let mut rng = Xoshiro256::substream(0xDE75, case);
        let ctx = format!("dense case {case}");
        let page = if case < 2 { 0 } else { case * PAGE_NS };
        let base = page + (PAGE_NS / 2 + rng.next_below(PAGE_NS / 4)) / BUCKET_NS * BUCKET_NS;
        let dense_at = |rng: &mut Xoshiro256| base + rng.next_below(BUCKET_NS);
        let mut q = Lockstep::default();
        let mut dense = 0u32;
        while dense < 20_000 {
            match rng.next_below(10) {
                0..=4 => {
                    q.push(dense_at(&mut rng));
                    dense += 1;
                }
                5..=7 => {
                    let gap = base.saturating_sub(q.now).max(1);
                    q.push(q.now + rng.next_below(gap));
                }
                _ => {
                    q.pop(&ctx);
                }
            }
        }
        for _ in 0..20_000 {
            match rng.next_below(10) {
                0..=3 => q.push(dense_at(&mut rng)),
                4 => q.push(base + BUCKET_NS + rng.next_below(4 * BUCKET_NS)),
                _ => {
                    q.pop(&ctx);
                }
            }
        }
        q.drain(&ctx);
    }
}

/// Events clustered on both sides of the page edge as "now" advances:
/// the boundary between the wheel and the overflow heap moves with the
/// cursor, and ties on either side of it must still pop in FIFO order.
#[test]
fn page_edge_straddle_matches_reference_heap() {
    for case in 0..20u64 {
        let mut rng = Xoshiro256::substream(0xED6E, case);
        let ctx = format!("edge case {case}");
        let mut q = Lockstep::default();
        for _ in 0..3_000 {
            match rng.next_below(10) {
                0..=2 => {
                    let edge = q.now + PAGE_NS;
                    q.push(edge - 8 * BUCKET_NS + rng.next_below(16 * BUCKET_NS));
                }
                3 => {
                    // Absolute page multiples, as a paged layout would cut.
                    let k = q.now / PAGE_NS + 1 + rng.next_below(2);
                    q.push(k * PAGE_NS - BUCKET_NS + rng.next_below(2 * BUCKET_NS));
                }
                4..=5 => q.push(q.now + rng.next_below(256 * BUCKET_NS)),
                _ => {
                    q.pop(&ctx);
                }
            }
        }
        q.drain(&ctx);
    }
}

/// Heavy tie load: thousands of events at a handful of timestamps must
/// come out in exact insertion order per timestamp.
#[test]
fn massive_ties_pop_in_insertion_order() {
    let mut rng = Xoshiro256::seeded(0x71E5);
    let times: Vec<u64> = (0..8).map(|_| rng.next_below(5_000_000)).collect();
    let mut wheel: EventQueue<(u64, u64)> = EventQueue::new();
    let mut reference = RefQueue::default();
    for i in 0..4_000u64 {
        let t = times[rng.next_index(times.len())];
        wheel.push(Nanos(t), (t, i));
        reference.push(t, i);
    }
    while let Some(s) = wheel.pop() {
        let (rt, rp) = reference.pop().expect("same length");
        assert_eq!((s.at.as_nanos(), s.payload.1), (rt, rp));
        assert_eq!(s.at.as_nanos(), s.payload.0);
    }
    assert!(reference.pop().is_none());
}
