//! Differential tests pinning the calendar queue against the retired
//! heap scheduler.
//!
//! [`ReferenceHeapQueue`] is the oracle: its `(time, sequence)` pop order
//! defined the simulations' determinism contract before the calendar
//! queue landed, and every golden snapshot was generated under it. These
//! tests drive both queues with the same schedule/pop stream — including
//! interleavings, heavy timestamp collisions, far-future outliers that
//! cross calendar resize and direct-scan paths, and a bimodal stream
//! that makes the calendar retune its width mid-run — and require
//! identical observable behavior at every step.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use cup_des::{DetRng, EventQueue, SimDuration, SimTime};

/// A scheduled event: fires at `at`, carrying `payload`.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The retired `BinaryHeap` scheduler, kept as the differential-test
/// oracle for [`EventQueue`].
///
/// Same `(time, sequence)` total order, same API as the [`EventQueue`]
/// methods the tests drive; its pop order defines correctness for any
/// future scheduler.
#[derive(Debug)]
struct ReferenceHeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> ReferenceHeapQueue<E> {
    fn new() -> Self {
        ReferenceHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at >= deadline {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Drains both queues fully, asserting every peek and pop agrees. The
/// engine's actual draining primitive, `pop_before`, is exercised too:
/// each event is first refused at its own firing time (the deadline is
/// exclusive) and then released one microsecond later.
fn assert_drain_identical(
    cal: &mut EventQueue<u64>,
    heap: &mut ReferenceHeapQueue<u64>,
) -> Result<(), TestCaseError> {
    loop {
        prop_assert_eq!(cal.peek_time(), heap.peek_time());
        prop_assert_eq!(cal.len(), heap.len());
        let Some(head) = cal.peek_time() else {
            prop_assert_eq!(heap.pop(), None);
            return Ok(());
        };
        prop_assert_eq!(cal.pop_before(head), None);
        prop_assert_eq!(heap.pop_before(head), None);
        let release = head + SimDuration::from_micros(1);
        match (cal.pop_before(release), heap.pop_before(release)) {
            (None, None) => return Ok(()),
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

proptest! {
    /// Identical pop order for a batch-scheduled stream with arbitrary
    /// times (collisions included: times are drawn from a small range).
    #[test]
    fn batch_schedule_pops_identically(times in proptest::collection::vec(0u64..5_000, 1..400)) {
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_micros(t);
            cal.schedule(at, i as u64);
            heap.schedule(at, i as u64);
        }
        assert_drain_identical(&mut cal, &mut heap)?;
    }

    /// Identical behavior under interleaved schedule/pop, the engine's
    /// actual access pattern: handlers pop one event and schedule
    /// follow-ups at or after the current time.
    #[test]
    fn interleaved_stream_pops_identically(seed in any::<u64>(), ops in 10usize..300) {
        let mut rng = DetRng::seed_from(seed);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now = SimTime::ZERO;
        let mut next_payload = 0u64;
        for _ in 0..ops {
            // Mostly schedules, some pops, like a fanning-out simulation.
            if rng.next_below(4) == 0 {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if let Some((at, _)) = a {
                    now = at;
                }
            } else {
                // Spread offsets over several orders of magnitude so the
                // calendar queue crosses bucket-day and resize boundaries.
                let magnitude = 10u64.pow(rng.next_below(7) as u32);
                let at = now + SimDuration::from_micros(rng.next_below(magnitude.max(1)));
                cal.schedule(at, next_payload);
                heap.schedule(at, next_payload);
                next_payload += 1;
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        assert_drain_identical(&mut cal, &mut heap)?;
    }

    /// All-simultaneous events: the degenerate case where ordering is
    /// carried entirely by the FIFO sequence numbers.
    #[test]
    fn simultaneous_burst_stays_fifo(at_us in 0u64..1 << 40, n in 1usize..300) {
        let at = SimTime::from_micros(at_us);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for i in 0..n as u64 {
            cal.schedule(at, i);
            heap.schedule(at, i);
        }
        assert_drain_identical(&mut cal, &mut heap)?;
    }

    /// Far-future outliers (beyond a whole calendar lap) mixed with a
    /// dense near-term cluster exercise the direct-scan fallback without
    /// perturbing the order.
    #[test]
    fn far_future_outliers_keep_order(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for i in 0..200u64 {
            let at = if rng.next_below(10) == 0 {
                // Hours to months of simulated time away.
                SimTime::from_secs(3_600 + rng.next_below(10_000_000))
            } else {
                SimTime::from_micros(rng.next_below(50_000))
            };
            cal.schedule(at, i);
            heap.schedule(at, i);
        }
        assert_drain_identical(&mut cal, &mut heap)?;
    }

    /// The DES workloads' bimodal pending set — a dense cluster of
    /// in-flight messages plus a few timers minutes out — under steady
    /// pop-and-reschedule with bursts of fan-out, long enough that the
    /// calendar retunes its width from the pop stream (and resizes)
    /// several times mid-stream. Whatever width it lands on, the pop
    /// order is the heap's.
    #[test]
    fn bimodal_stream_pops_identically_across_retunes(seed in any::<u64>(), pops in 1_500usize..4_000) {
        let mut rng = DetRng::seed_from(seed);
        let mut cal = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        // The payload's low bit says which mode an event belongs to, so
        // both modes keep being fed however long the stream runs.
        let mut next_payload = 0u64;
        let mut schedule = |cal: &mut EventQueue<u64>,
                            heap: &mut ReferenceHeapQueue<u64>,
                            at: SimTime,
                            timer: bool| {
            let payload = next_payload << 1 | u64::from(timer);
            next_payload += 1;
            cal.schedule(at, payload);
            heap.schedule(at, payload);
        };
        for _ in 0..40 {
            let at = SimTime::from_micros(rng.next_below(300_000_000));
            schedule(&mut cal, &mut heap, at, true);
        }
        for _ in 0..80 {
            let at = SimTime::from_micros(rng.next_below(150_000));
            schedule(&mut cal, &mut heap, at, false);
        }
        for _ in 0..pops {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(&a, &b);
            let Some((now, payload)) = a else { break };
            // A timer re-arms itself; a message is forwarded once on
            // average but sometimes fans out and sometimes dies, so the
            // depth drifts across the resize thresholds as well.
            let timer = payload & 1 == 1;
            let (reach, copies) = if timer {
                (300_000_000, 1)
            } else {
                (150_000, [0, 1, 1, 2][rng.next_below(4) as usize])
            };
            for _ in 0..copies {
                let at = now + SimDuration::from_micros(rng.next_below(reach));
                schedule(&mut cal, &mut heap, at, timer);
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        assert_drain_identical(&mut cal, &mut heap)?;
    }
}

#[test]
fn reference_heap_agrees_on_a_smoke_stream() {
    let mut cal = EventQueue::new();
    let mut heap = ReferenceHeapQueue::new();
    for i in 0u64..500 {
        let at = SimTime::from_micros((i * 6151) % 4_096);
        cal.schedule(at, i);
        heap.schedule(at, i);
    }
    loop {
        assert_eq!(cal.peek_time(), heap.peek_time());
        match (cal.pop(), heap.pop()) {
            (None, None) => break,
            (a, b) => assert_eq!(a, b),
        }
    }
}
