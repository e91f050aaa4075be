//! The simulation event queue.
//!
//! [`EventQueue`] is a *calendar queue* (Brown 1988) with a sorted
//! *head*. The time axis is divided into fixed-width buckets laid out on
//! a circular calendar, and an event is filed under the bucket its firing
//! time falls in. Popping never searches the calendar per event: when the
//! head runs short, the earliest non-empty bucket-day is located — a scan
//! forward from the current virtual time, one bucket-day at a time — and
//! that whole day moves into the head in one go and is sorted there. With
//! buckets a few event gaps wide, schedule and pop are O(1) amortized — the
//! property that lets 100k-node experiments with millions of pending
//! events run at memory speed, where the previous `BinaryHeap` paid
//! O(log n) per operation on a cache-hostile layout — and a burst of
//! same-instant events, all filed under one day, is moved and sorted once
//! instead of being scanned once per pop.
//!
//! **The head invariant.** Every head entry precedes every calendar entry
//! in `(time, sequence)` order. Draining keeps it because the earliest
//! non-empty day precedes everything else filed; `schedule` keeps it by
//! inserting an event that lands before the head's last entry into the
//! head, in place. The head is what makes look-ahead possible:
//! [`EventQueue::ahead`] tops it up and shows the next events' payloads
//! without popping them, so a driver can touch their targets before
//! handling them.
//!
//! The head is a `VecDeque` in pop order, and in a simulation it is often
//! most of the near-term pending set: topping up across a sparse stretch
//! pulls in far timers, and every hop scheduled before the last of them
//! then joins the head. With one delay for every hop, such an event is
//! later than all in-flight ones, so it goes in just before the few
//! timers at the back, and the insert shifts only those — 5–7 entries per
//! insert on the ledger's DES workloads, where a descending `Vec` popped
//! off its end shifted the in-flight set (111–188).
//!
//! Two rules keep the width right. A resize (growth past two events a
//! bucket, shrink below a quarter) sizes buckets from the spread of what
//! is filed, which is all a bulk fill before the first pop has to go
//! on. Once events are popped, the queue reads its own pop stream: every
//! `2 × buckets` pops it compares the width with three times the mean
//! gap between the popped times and rebuilds when they are 4× apart
//! (`EventQueue::retune`). The second rule exists because a simulation's
//! pending set is bimodal — in-flight messages milliseconds out, timers
//! minutes out — and the spread then describes the timers, not the head
//! of the queue where pops happen.
//!
//! Ordering is a total order on `(time, sequence)`: the sequence number
//! breaks ties so that events scheduled for the same instant fire in FIFO
//! order, which keeps simulations deterministic. The retired heap-based
//! scheduler survives as the oracle of the differential test suite
//! (`tests/calendar_queue_diff.rs`), which pins the calendar queue
//! against it: same schedule/pop stream, byte-identical pop order.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use crate::time::SimTime;

/// A scheduled event: fires at `at`, carrying `payload`.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

/// Smallest number of calendar buckets; also the initial size.
const MIN_BUCKETS: usize = 16;

/// Initial bucket width: 2¹⁰ µs ≈ 1 ms, the order of one network hop.
const INITIAL_WIDTH_SHIFT: u32 = 10;

/// Widest allowed bucket (2⁴⁰ µs ≈ 13 simulated days per bucket).
const MAX_WIDTH_SHIFT: u32 = 40;

/// A deterministic future-event list (calendar queue with a sorted head).
///
/// Events scheduled for the same instant are returned in the order they
/// were scheduled, whatever the internal bucket layout — the pop order is
/// the total order on `(time, sequence)` and is bit-for-bit identical to
/// the reference heap's.
///
/// # Examples
///
/// ```
/// use cup_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.ahead(2).copied().collect::<Vec<_>>(), ["sooner", "later"]);
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The next events, out of the calendar, in `(time, sequence)`
    /// order. Every entry precedes every calendar entry.
    head: VecDeque<Scheduled<E>>,
    /// Calendar buckets; `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// log₂ of the bucket width in microseconds.
    width_shift: u32,
    /// Lower bound on every calendar entry's firing time (µs). Maintained
    /// so the drain scan can start at the right calendar day.
    vtime: u64,
    /// Events filed in the calendar (the head holds the rest).
    filed: usize,
    next_seq: u64,
    /// Pops since the width was last checked against the pop stream.
    pops_since_tune: usize,
    /// Firing time (µs) of the pop that ended the previous check.
    tune_start: u64,
    /// Calendar entries the drain scan compared, for the scan-length
    /// tests.
    #[cfg(test)]
    examined: std::cell::Cell<u64>,
}

/// log₂ of the narrowest power-of-two bucket at least `width_us` wide.
fn width_shift_for(width_us: u64) -> u32 {
    width_us
        .max(1)
        .checked_next_power_of_two()
        .map_or(MAX_WIDTH_SHIFT, u64::trailing_zeros)
        .min(MAX_WIDTH_SHIFT)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            head: VecDeque::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_shift: INITIAL_WIDTH_SHIFT,
            vtime: 0,
            filed: 0,
            next_seq: 0,
            pops_since_tune: 0,
            tune_start: 0,
            #[cfg(test)]
            examined: std::cell::Cell::new(0),
        }
    }

    /// The calendar bucket a firing time falls in.
    fn bucket_of(&self, at_us: u64) -> usize {
        ((at_us >> self.width_shift) as usize) & (self.buckets.len() - 1)
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, payload };
        // A new event carries the largest sequence yet, so it precedes
        // the head's last entry exactly when it fires strictly earlier —
        // and then it belongs in the head, where a simulation's slot is
        // near the back (see the module docs).
        if self.head.back().is_some_and(|latest| at < latest.at) {
            let i = self.head.partition_point(|h| h.at <= at);
            self.head.insert(i, s);
            return;
        }
        let at_us = at.as_micros();
        if self.filed == 0 || at_us < self.vtime {
            self.vtime = at_us;
        }
        let b = self.bucket_of(at_us);
        self.buckets[b].push(s);
        self.filed += 1;
        if self.filed > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Tops the head up to at least `k` events (fewer only when the
    /// calendar runs dry), moving whole bucket-days out of the calendar.
    fn fill_head(&mut self, k: usize) {
        if self.head.len() >= k || self.filed == 0 {
            return;
        }
        if self.head.is_empty() {
            // Rewinds the ring, so a refill lands contiguous and the sort
            // below finds it in place.
            self.head.clear();
        }
        let sorted = self.head.len();
        while self.head.len() < k && self.drain_next_day() {}
        // Every drained day is later than what the head already held.
        self.head.make_contiguous()[sorted..].sort_unstable_by_key(|s| (s.at, s.seq));
        let mut len = self.buckets.len();
        while len > MIN_BUCKETS && self.filed < len / 4 {
            len /= 2;
        }
        if len < self.buckets.len() {
            self.resize(len);
        }
    }

    /// Moves the earliest calendar bucket-day's events to the back of the
    /// head, unsorted. Returns `false` if the calendar is empty.
    ///
    /// Scans one calendar lap starting at `vtime`'s day. Because `vtime`
    /// lower-bounds every filed time, an event filed in the k-th visited
    /// bucket either belongs to that bucket's current day or to a later
    /// lap, so the first day found non-empty precedes everything else in
    /// the calendar and can leave whole. If a whole lap finds nothing,
    /// every event is at least one lap ahead and a direct scan finds the
    /// earliest one's day.
    fn drain_next_day(&mut self) -> bool {
        if self.filed == 0 {
            return false;
        }
        let start = self.vtime >> self.width_shift;
        let lap = self.buckets.len() as u64;
        for day in start..start.saturating_add(lap) {
            if self.drain_day(day) {
                return true;
            }
        }
        #[cfg(test)]
        self.examined.set(self.examined.get() + self.filed as u64);
        let earliest = self
            .buckets
            .iter()
            .flatten()
            .map(|s| s.at.as_micros())
            .min();
        earliest.is_some_and(|at| self.drain_day(at >> self.width_shift))
    }

    /// Moves every event of calendar day `day` to the back of the head;
    /// returns whether there were any.
    fn drain_day(&mut self, day: u64) -> bool {
        let shift = self.width_shift;
        let b = (day as usize) & (self.buckets.len() - 1);
        let bucket = &mut self.buckets[b];
        #[cfg(test)]
        self.examined.set(self.examined.get() + bucket.len() as u64);
        let before = self.head.len();
        if bucket.iter().all(|s| s.at.as_micros() >> shift == day) {
            // The usual case. Moved over in filing order, which with one
            // delay per hop is already time order, so the sort that
            // follows has nothing to move.
            self.head.extend(bucket.drain(..));
        } else {
            // Back to front, so what `swap_remove` moves down was already
            // kept.
            for i in (0..bucket.len()).rev() {
                if bucket[i].at.as_micros() >> shift == day {
                    self.head.push_back(bucket.swap_remove(i));
                }
            }
        }
        let moved = self.head.len() - before;
        if moved == 0 {
            return false;
        }
        self.filed -= moved;
        // Everything still filed is in a later day.
        self.vtime = (day << shift).saturating_add(1 << shift);
        true
    }

    /// Returns the payloads of the next `k` events (fewer if fewer are
    /// pending) in pop order, without popping them.
    ///
    /// The events are moved into the head if they are not there already;
    /// scheduling afterwards may still put an earlier event in front of
    /// them.
    pub fn ahead(&mut self, k: usize) -> impl Iterator<Item = &E> {
        self.fill_head(k);
        self.head.iter().take(k).map(|s| &s.payload)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Events scheduled for the same instant are returned in the order they
    /// were scheduled.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.fill_head(1);
        let s = self.head.pop_front()?;
        self.pops_since_tune += 1;
        if self.pops_since_tune >= 2 * self.buckets.len() {
            self.retune(s.at.as_micros());
        }
        Some((s.at, s.payload))
    }

    /// Removes and returns the earliest event only if it fires strictly
    /// before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= deadline {
            return None;
        }
        self.pop()
    }

    /// Checks the bucket width against the pop stream: over the stretch
    /// of pops since the last check (the last one firing at `now_us`),
    /// the mean gap between popped times is the event separation *at the
    /// head of the queue*, which is what a bucket should hold a few of
    /// (Brown's 3 × separation). A width 4× or more off that target
    /// rebuilds the calendar.
    ///
    /// The spread-based width `resize` derives cannot see this: with a
    /// bimodal pending set — a dense cluster of in-flight messages plus
    /// a few timers minutes out — `(max − min) / len` is set by the
    /// timers, the whole cluster files under one bucket, and every drain
    /// moves all of it. The rule reads only popped times, so it is as
    /// deterministic as the pops are, and the pop order is the
    /// `(time, seq)` minimum whatever the width.
    fn retune(&mut self, now_us: u64) {
        let span = now_us.saturating_sub(self.tune_start);
        let mean_gap = span / self.pops_since_tune as u64;
        self.pops_since_tune = 0;
        self.tune_start = now_us;
        if span == 0 {
            // A stretch of simultaneous events says nothing about gaps.
            return;
        }
        let target = width_shift_for(mean_gap.saturating_mul(3));
        if target.abs_diff(self.width_shift) >= 2 {
            self.width_shift = target;
            self.rebuild(self.buckets.len());
        }
    }

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.fill_head(1);
        self.head.front().map(|s| s.at)
    }

    /// Rebuilds the calendar with `new_len` buckets, re-deriving the
    /// bucket width from the current spread of filed firing times so
    /// buckets keep holding O(1) events each.
    fn resize(&mut self, new_len: usize) {
        let mut min_at = u64::MAX;
        let mut max_at = 0u64;
        for s in self.buckets.iter().flatten() {
            let at = s.at.as_micros();
            min_at = min_at.min(at);
            max_at = max_at.max(at);
        }
        if self.filed > 0 && max_at > min_at {
            self.width_shift = width_shift_for((max_at - min_at) / self.filed as u64);
        }
        self.rebuild(new_len);
    }

    /// Refiles every calendar entry into `new_len` buckets of the current
    /// width.
    fn rebuild(&mut self, new_len: usize) {
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_len).map(|_| Vec::new()).collect(),
        );
        for s in old.into_iter().flatten() {
            let b = self.bucket_of(s.at.as_micros());
            self.buckets[b].push(s);
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.filed + self.head.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.head.clear();
        self.filed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "a");
        q.schedule(SimTime::from_secs(5), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "b")));
        q.schedule(SimTime::from_secs(7), "c");
        assert_eq!(q.pop(), Some((SimTime::from_secs(7), "c")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "a")));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "at5");
        q.schedule(SimTime::from_secs(1), "at1");
        // Events exactly at the deadline are not popped.
        assert_eq!(
            q.pop_before(SimTime::from_secs(5)),
            Some((SimTime::from_secs(1), "at1"))
        );
        assert_eq!(q.pop_before(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1, "deadline miss must not remove the event");
        assert_eq!(
            q.pop_before(SimTime::from_secs(6)),
            Some((SimTime::from_secs(5), "at5"))
        );
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn growth_and_shrink_preserve_order() {
        // Push far past the initial capacity to force several calendar
        // resizes, then drain to force shrinks; order must stay exact.
        let mut q = EventQueue::new();
        let n = 10_000u64;
        for i in 0..n {
            // A deterministic scatter of firing times with collisions.
            q.schedule(SimTime::from_micros((i * 7919) % 1_000), i);
        }
        let mut popped = Vec::with_capacity(n as usize);
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some((at, i)) = q.pop() {
            if let Some((pat, pi)) = prev {
                assert!(pat < at || (pat == at && pi < i), "order violated at {i}");
            }
            prev = Some((at, i));
            popped.push(i);
        }
        popped.sort_unstable();
        assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Events far beyond one calendar lap exercise the direct-scan
        // fallback.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1_000_000), "far");
        q.schedule(SimTime::from_secs(1), "near");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1_000_000), "far")));
    }

    #[test]
    fn bimodal_pending_set_keeps_pop_scans_short() {
        // The DES workloads' shape: ≈ 300 in-flight messages inside
        // 150 ms plus 160 replica timers up to 300 s out. Sized from the
        // spread at resize, one bucket is (300 s / 460) wide and holds
        // the whole in-flight cluster, so every pop scans ≈ 300 entries;
        // retuned from the pop stream, a bucket holds a few.
        let mut rng = DetRng::seed_from(1);
        let mut rand = move |below: u64| rng.next_below(below);
        let mut q = EventQueue::new();
        // Timers first, as in a run (replicas are born before queries
        // start): the growth resizes then see both modes.
        for _ in 0..160 {
            q.schedule(SimTime::from_micros(rand(300_000_000)), true);
        }
        for _ in 0..300 {
            q.schedule(SimTime::from_micros(rand(150_000)), false);
        }
        let mut step = |q: &mut EventQueue<bool>| {
            let (at, timer) = q.pop().expect("pop-and-reschedule never drains");
            let delay = if timer {
                1 + rand(300_000_000)
            } else {
                1 + rand(150_000)
            };
            q.schedule(at + SimDuration::from_micros(delay), timer);
        };
        for _ in 0..20_000 {
            step(&mut q);
        }
        q.examined.set(0);
        for _ in 0..100_000 {
            step(&mut q);
        }
        let per_pop = q.examined.get() as f64 / 100_000.0;
        assert!(
            per_pop <= 16.0,
            "{per_pop:.1} entries examined per pop after warm-up"
        );
    }

    #[test]
    fn same_instant_burst_is_drained_once_not_scanned_per_pop() {
        // A flash crowd: 4,096 events at one instant beside 160 replica
        // timers up to 300 s out. The whole crowd files under one
        // bucket-day; a per-pop minimum search scans it once per pop
        // (≈ n/2 entries each), draining moves and sorts it once.
        let mut rng = DetRng::seed_from(3);
        let mut q = EventQueue::new();
        for _ in 0..160 {
            let at = SimTime::from_micros(1_000_000 + rng.next_below(300_000_000));
            q.schedule(at, u64::MAX);
        }
        let crowd = SimTime::from_micros(500_000);
        for i in 0..4_096 {
            q.schedule(crowd, i);
        }
        q.examined.set(0);
        for i in 0..4_096 {
            assert_eq!(q.pop(), Some((crowd, i)));
        }
        let per_pop = q.examined.get() as f64 / 4_096.0;
        assert!(
            per_pop <= 16.0,
            "{per_pop:.1} entries examined per pop in a same-instant burst"
        );
    }
}
