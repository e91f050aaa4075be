//! Differential tests pinning the event queue's sorted head against a
//! head-less heap.
//!
//! [`ReferenceHeapQueue`] is the oracle: a bare `BinaryHeap` on the
//! `(time, sequence)` total order, the simulations' determinism contract.
//! [`EventQueue`] is the same heap behind a sorted head that `ahead`
//! fills and `schedule` may insert into, so what these tests pin is the
//! head logic. They drive both queues with the same schedule/pop stream —
//! interleavings, heavy timestamp collisions, far-future outliers, a
//! bimodal stream of in-flight messages and far timers, same-instant
//! bursts, zero-delay schedules, schedules landing inside the head,
//! `ahead` at random points, `pop_before` deadlines inside the head and
//! `clear` — and require identical observable behavior at every step.

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

/// A `BinaryHeap` with no head, the differential-test oracle for
/// [`EventQueue`].
///
/// Same `(time, sequence)` total order, same API as the [`EventQueue`]
/// methods the tests drive; its pop order defines correctness.
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

    /// The next `k` events in pop order.
    fn next(&self, k: usize) -> Vec<(SimTime, E)>
    where
        E: Clone,
    {
        let mut next: Vec<&Scheduled<E>> = self.heap.iter().collect();
        // `Ord` is reversed, so the earliest event is the greatest.
        next.sort_by(|a, b| b.cmp(a));
        next.into_iter()
            .take(k)
            .map(|s| (s.at, s.payload.clone()))
            .collect()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Both queues driven by one stream, every observation compared. The
/// payload is the schedule's ordinal, so equal pops are equal events.
struct Twin {
    queue: EventQueue<u64>,
    heap: ReferenceHeapQueue<u64>,
    next: u64,
}

impl Twin {
    fn new() -> Self {
        Twin {
            queue: EventQueue::new(),
            heap: ReferenceHeapQueue::new(),
            next: 0,
        }
    }

    fn schedule(&mut self, at: SimTime) {
        self.queue.schedule(at, self.next);
        self.heap.schedule(at, self.next);
        self.next += 1;
    }

    fn pop(&mut self) -> Result<Option<(SimTime, u64)>, TestCaseError> {
        let (a, b) = (self.queue.pop(), self.heap.pop());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(self.queue.len(), self.heap.len());
        Ok(a)
    }

    fn pop_before(&mut self, deadline: SimTime) -> Result<Option<(SimTime, u64)>, TestCaseError> {
        let (a, b) = (
            self.queue.pop_before(deadline),
            self.heap.pop_before(deadline),
        );
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(self.queue.len(), self.heap.len());
        Ok(a)
    }

    /// Compares `ahead(k)` with the oracle's next `k` events and
    /// returns their times.
    fn ahead(&mut self, k: usize) -> Result<Vec<SimTime>, TestCaseError> {
        let seen: Vec<u64> = self.queue.ahead(k).copied().collect();
        let (times, payloads): (Vec<SimTime>, Vec<u64>) = self.heap.next(k).into_iter().unzip();
        prop_assert_eq!(seen, payloads);
        prop_assert_eq!(self.queue.len(), self.heap.len());
        Ok(times)
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.heap.clear();
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        assert_drain_identical(&mut self.queue, &mut self.heap)
    }
}

/// Drains both queues fully, asserting every peek and pop agrees. The
/// engine's actual draining primitive, `pop_before`, is exercised too:
/// each event is first refused at its own firing time (the deadline is
/// exclusive) and then released one microsecond later.
fn assert_drain_identical(
    queue: &mut EventQueue<u64>,
    heap: &mut ReferenceHeapQueue<u64>,
) -> Result<(), TestCaseError> {
    loop {
        prop_assert_eq!(queue.peek_time(), heap.peek_time());
        prop_assert_eq!(queue.len(), heap.len());
        let Some(head) = queue.peek_time() else {
            prop_assert_eq!(heap.pop(), None);
            return Ok(());
        };
        prop_assert_eq!(queue.pop_before(head), None);
        prop_assert_eq!(heap.pop_before(head), None);
        let release = head + SimDuration::from_micros(1);
        match (queue.pop_before(release), heap.pop_before(release)) {
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
        let mut queue = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            let at = SimTime::from_micros(t);
            queue.schedule(at, i as u64);
            heap.schedule(at, i as u64);
        }
        assert_drain_identical(&mut queue, &mut heap)?;
    }

    /// Identical behavior under interleaved schedule/pop, the engine's
    /// actual access pattern: handlers pop one event and schedule
    /// follow-ups at or after the current time.
    #[test]
    fn interleaved_stream_pops_identically(seed in any::<u64>(), ops in 10usize..300) {
        let mut rng = DetRng::seed_from(seed);
        let mut queue = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        let mut now = SimTime::ZERO;
        let mut next_payload = 0u64;
        for _ in 0..ops {
            // Mostly schedules, some pops, like a fanning-out simulation.
            if rng.next_below(4) == 0 {
                let (a, b) = (queue.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if let Some((at, _)) = a {
                    now = at;
                }
            } else {
                // Spread offsets over several orders of magnitude, so
                // some land inside the head and some far beyond it.
                let magnitude = 10u64.pow(rng.next_below(7) as u32);
                let at = now + SimDuration::from_micros(rng.next_below(magnitude.max(1)));
                queue.schedule(at, next_payload);
                heap.schedule(at, next_payload);
                next_payload += 1;
            }
            prop_assert_eq!(queue.len(), heap.len());
        }
        assert_drain_identical(&mut queue, &mut heap)?;
    }

    /// All-simultaneous events: the degenerate case where ordering is
    /// carried entirely by the FIFO sequence numbers.
    #[test]
    fn simultaneous_burst_stays_fifo(at_us in 0u64..1 << 40, n in 1usize..300) {
        let at = SimTime::from_micros(at_us);
        let mut queue = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for i in 0..n as u64 {
            queue.schedule(at, i);
            heap.schedule(at, i);
        }
        assert_drain_identical(&mut queue, &mut heap)?;
    }

    /// Far-future outliers (hours to months out) mixed with a dense
    /// near-term cluster do not perturb the order.
    #[test]
    fn far_future_outliers_keep_order(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut queue = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        for i in 0..200u64 {
            let at = if rng.next_below(10) == 0 {
                // Hours to months of simulated time away.
                SimTime::from_secs(3_600 + rng.next_below(10_000_000))
            } else {
                SimTime::from_micros(rng.next_below(50_000))
            };
            queue.schedule(at, i);
            heap.schedule(at, i);
        }
        assert_drain_identical(&mut queue, &mut heap)?;
    }

    /// The DES workloads' bimodal pending set — a dense cluster of
    /// in-flight messages plus a few timers minutes out — under steady
    /// pop-and-reschedule with bursts of fan-out.
    #[test]
    fn bimodal_stream_pops_identically(seed in any::<u64>(), pops in 1_500usize..4_000) {
        let mut rng = DetRng::seed_from(seed);
        let mut queue = EventQueue::new();
        let mut heap = ReferenceHeapQueue::new();
        // The payload's low bit says which mode an event belongs to, so
        // both modes keep being fed however long the stream runs.
        let mut next_payload = 0u64;
        let mut schedule = |queue: &mut EventQueue<u64>,
                            heap: &mut ReferenceHeapQueue<u64>,
                            at: SimTime,
                            timer: bool| {
            let payload = next_payload << 1 | u64::from(timer);
            next_payload += 1;
            queue.schedule(at, payload);
            heap.schedule(at, payload);
        };
        for _ in 0..40 {
            let at = SimTime::from_micros(rng.next_below(300_000_000));
            schedule(&mut queue, &mut heap, at, true);
        }
        for _ in 0..80 {
            let at = SimTime::from_micros(rng.next_below(150_000));
            schedule(&mut queue, &mut heap, at, false);
        }
        for _ in 0..pops {
            let (a, b) = (queue.pop(), heap.pop());
            prop_assert_eq!(&a, &b);
            let Some((now, payload)) = a else { break };
            // A timer re-arms itself; a message is forwarded once on
            // average but sometimes fans out and sometimes dies, so the
            // depth drifts as well.
            let timer = payload & 1 == 1;
            let (reach, copies) = if timer {
                (300_000_000, 1)
            } else {
                (150_000, [0, 1, 1, 2][rng.next_below(4) as usize])
            };
            for _ in 0..copies {
                let at = now + SimDuration::from_micros(rng.next_below(reach));
                schedule(&mut queue, &mut heap, at, timer);
            }
            prop_assert_eq!(queue.len(), heap.len());
        }
        assert_drain_identical(&mut queue, &mut heap)?;
    }
}

proptest! {
    /// Flash crowds: bursts of up to 300 events at one instant, some at
    /// the instant being popped, others just after or well after it.
    /// Events joining a burst mid-drain keep its FIFO tail.
    #[test]
    fn same_instant_bursts_pop_identically(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        let mut now = SimTime::ZERO;
        for _ in 0..30 {
            let offset = match rng.next_below(4) {
                0 => 0,
                1 => 1,
                2 => rng.next_below(1_000),
                _ => rng.next_below(1_000_000),
            };
            let at = now + SimDuration::from_micros(offset);
            for _ in 0..1 + rng.next_below(300) {
                twin.schedule(at);
            }
            for _ in 0..rng.next_below(400) {
                let Some((t, _)) = twin.pop()? else { break };
                now = t;
                if rng.next_below(8) == 0 {
                    twin.schedule(now);
                }
            }
        }
        twin.drain()?;
    }

    /// Zero-delay schedules, the conformance harness's
    /// `LatencyModel::Fixed(ZERO)` shape: every pop forwards 0–3
    /// children at the very instant it fires, beside a few timers.
    #[test]
    fn zero_delay_schedules_pop_identically(seed in any::<u64>(), pops in 100usize..2_000) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        for _ in 0..20 {
            twin.schedule(SimTime::from_micros(rng.next_below(10_000)));
        }
        for _ in 0..pops {
            let Some((now, _)) = twin.pop()? else { break };
            for _ in 0..[0, 1, 1, 2, 3][rng.next_below(5) as usize] {
                twin.schedule(now);
            }
            if rng.next_below(16) == 0 {
                twin.schedule(now + SimDuration::from_micros(rng.next_below(1_000_000)));
            }
        }
        twin.drain()?;
    }

    /// Schedules that land inside the head: `ahead` pulls a stretch of
    /// events out of the heap, then new events are aimed before the
    /// last of them — some exactly onto an event already in the head, so
    /// ties with it must go behind it.
    #[test]
    fn schedules_landing_in_the_head_pop_identically(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        for _ in 0..200 {
            // A coarse grid, so the stream is full of ties.
            twin.schedule(SimTime::from_micros(rng.next_below(200) * 500));
        }
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            let pulled = twin.ahead(1 + rng.next_below(64) as usize)?;
            let Some(&last) = pulled.last() else { break };
            for _ in 0..rng.next_below(4) {
                let at = if rng.next_below(2) == 0 {
                    pulled[rng.next_below(pulled.len() as u64) as usize]
                } else {
                    now + SimDuration::from_micros(rng.next_below(last.as_micros() - now.as_micros() + 1))
                };
                twin.schedule(at);
            }
            for _ in 0..rng.next_below(6) {
                let Some((t, _)) = twin.pop()? else { break };
                now = t;
            }
        }
        twin.drain()?;
    }

    /// `ahead(k)` at random points of an interleaved stream shows
    /// exactly the oracle's next `k` events, and never disturbs what
    /// follows.
    #[test]
    fn ahead_at_random_points_matches_the_oracle(seed in any::<u64>(), ops in 10usize..600) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ops {
            match rng.next_below(8) {
                0 | 1 => {
                    if let Some((t, _)) = twin.pop()? {
                        now = t;
                    }
                }
                2 => {
                    twin.ahead(rng.next_below(40) as usize)?;
                }
                _ => {
                    let magnitude = 10u64.pow(rng.next_below(7) as u32);
                    twin.schedule(now + SimDuration::from_micros(rng.next_below(magnitude)));
                }
            }
        }
        twin.drain()?;
    }

    /// `pop_before` with deadlines that fall inside the head: between,
    /// on, and just past the times `ahead` has already pulled out.
    #[test]
    fn pop_before_deadlines_inside_the_head_pop_identically(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        for _ in 0..300 {
            twin.schedule(SimTime::from_micros(rng.next_below(50_000)));
        }
        for _ in 0..60 {
            let times = twin.ahead(32)?;
            let Some(&pick) = times.get(rng.next_below(times.len().max(1) as u64) as usize) else {
                break;
            };
            let deadline = pick + SimDuration::from_micros(rng.next_below(2));
            while let Some((now, _)) = twin.pop_before(deadline)? {
                if rng.next_below(4) == 0 {
                    twin.schedule(now + SimDuration::from_micros(rng.next_below(5_000)));
                }
            }
        }
        twin.drain()?;
    }

    /// `clear` at random points — with the head empty, part-filled by
    /// `ahead`, or holding a burst — empties both queues, and the stream
    /// after it pops identically.
    #[test]
    fn clear_midstream_pops_identically(seed in any::<u64>()) {
        let mut rng = DetRng::seed_from(seed);
        let mut twin = Twin::new();
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            for _ in 0..rng.next_below(300) {
                twin.schedule(now + SimDuration::from_micros(rng.next_below(100_000)));
            }
            twin.ahead(rng.next_below(40) as usize)?;
            for _ in 0..rng.next_below(100) {
                if let Some((t, _)) = twin.pop()? {
                    now = t;
                }
            }
            twin.clear();
            prop_assert!(twin.queue.is_empty());
            prop_assert_eq!(twin.queue.pop(), None);
            // After a clear, time may restart anywhere, earlier included.
            now = SimTime::from_micros(rng.next_below(now.as_micros() + 1));
        }
        for _ in 0..100 {
            twin.schedule(now + SimDuration::from_micros(rng.next_below(10_000)));
        }
        twin.drain()?;
    }

    /// With nothing scheduled in between, `ahead(k)` yields exactly the
    /// payloads of the next `k` pops.
    #[test]
    fn ahead_yields_exactly_the_next_pops(
        times in proptest::collection::vec(0u64..20_000, 0..400),
        popped_first in 0usize..200,
        k in 0usize..64,
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        for _ in 0..popped_first {
            q.pop();
        }
        let seen: Vec<usize> = q.ahead(k).copied().collect();
        prop_assert_eq!(seen.len(), k.min(q.len()));
        let pops: Vec<usize> = (0..k).filter_map(|_| q.pop().map(|(_, p)| p)).collect();
        prop_assert_eq!(seen, pops);
    }
}

#[test]
fn reference_heap_agrees_on_a_smoke_stream() {
    let mut queue = EventQueue::new();
    let mut heap = ReferenceHeapQueue::new();
    for i in 0u64..500 {
        let at = SimTime::from_micros((i * 6151) % 4_096);
        queue.schedule(at, i);
        heap.schedule(at, i);
    }
    loop {
        assert_eq!(queue.peek_time(), heap.peek_time());
        match (queue.pop(), heap.pop()) {
            (None, None) => break,
            (a, b) => assert_eq!(a, b),
        }
    }
}
