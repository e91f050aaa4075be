//! The simulation event queue.
//!
//! [`EventQueue`] is a *calendar queue* (Brown 1988): the time axis is
//! divided into fixed-width buckets laid out on a circular calendar, an
//! event is filed under the bucket its firing time falls in, and popping
//! scans forward from the current virtual time, one bucket-day at a time.
//! With buckets a few event gaps wide, schedule and pop are O(1)
//! amortized — the property that lets 100k-node experiments with
//! millions of pending events run at memory speed, where the previous
//! `BinaryHeap` paid O(log n) per operation on a cache-hostile layout.
//!
//! Two rules keep the width there. A resize (growth past two events a
//! bucket, shrink below a quarter) sizes buckets from the spread of what
//! is pending, which is all a bulk fill before the first pop has to go
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

/// A deterministic future-event list (calendar queue).
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
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Calendar buckets; `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// log₂ of the bucket width in microseconds.
    width_shift: u32,
    /// Lower bound on every pending event's firing time (µs). Maintained
    /// so the pop scan can start at the right calendar day.
    vtime: u64,
    len: usize,
    next_seq: u64,
    /// Pops since the width was last checked against the pop stream.
    pops_since_tune: usize,
    /// Firing time (µs) of the pop that ended the previous check.
    tune_start: u64,
    /// Entries `find_min` compared, for the scan-length tests.
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
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_shift: INITIAL_WIDTH_SHIFT,
            vtime: 0,
            len: 0,
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
        let at_us = at.as_micros();
        if self.len == 0 || at_us < self.vtime {
            self.vtime = at_us;
        }
        let b = self.bucket_of(at_us);
        self.buckets[b].push(Scheduled { at, seq, payload });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locates the earliest pending event as `(bucket, index)`.
    ///
    /// Scans one calendar lap starting at `vtime`'s bucket. Because
    /// `vtime` lower-bounds every pending time, an event filed in the
    /// k-th visited bucket either belongs to that bucket's current day
    /// (fires before the day ends) or to a later lap; the earliest event
    /// of the first bucket with a current-day entry is the global
    /// minimum. If a whole lap finds nothing, every event is at least one
    /// lap ahead and a direct scan finds the minimum.
    fn find_min(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let nb = self.buckets.len();
        let start_chunk = self.vtime >> self.width_shift;
        for k in 0..nb as u64 {
            let chunk = start_chunk + k;
            let b = (chunk as usize) & (nb - 1);
            let day_end = (u128::from(chunk) + 1) << self.width_shift;
            let mut best: Option<(usize, u64, u64)> = None;
            #[cfg(test)]
            self.examined
                .set(self.examined.get() + self.buckets[b].len() as u64);
            for (i, s) in self.buckets[b].iter().enumerate() {
                let at = s.at.as_micros();
                if u128::from(at) < day_end && best.is_none_or(|(_, ba, bs)| (at, s.seq) < (ba, bs))
                {
                    best = Some((i, at, s.seq));
                }
            }
            if let Some((i, _, _)) = best {
                return Some((b, i));
            }
        }
        let mut best: Option<(usize, usize, u64, u64)> = None;
        #[cfg(test)]
        self.examined.set(self.examined.get() + self.len as u64);
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, s) in bucket.iter().enumerate() {
                let at = s.at.as_micros();
                if best.is_none_or(|(_, _, ba, bs)| (at, s.seq) < (ba, bs)) {
                    best = Some((b, i, at, s.seq));
                }
            }
        }
        best.map(|(b, i, _, _)| (b, i))
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Events scheduled for the same instant are returned in the order they
    /// were scheduled.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (b, i) = self.find_min()?;
        self.remove_at(b, i)
    }

    /// Removes and returns the earliest event only if it fires strictly
    /// before `deadline`.
    ///
    /// One minimum search serves both the deadline test and the removal —
    /// the engine's `run_until` loop calls this once per event instead of
    /// paying a `peek_time` scan followed by a `pop` scan.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let (b, i) = self.find_min()?;
        if self.buckets[b][i].at >= deadline {
            return None;
        }
        self.remove_at(b, i)
    }

    /// Extracts the event at a position `find_min` located.
    fn remove_at(&mut self, b: usize, i: usize) -> Option<(SimTime, E)> {
        let s = self.buckets[b].swap_remove(i);
        self.len -= 1;
        self.vtime = s.at.as_micros();
        self.pops_since_tune += 1;
        if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize(self.buckets.len() / 2);
        } else if self.pops_since_tune >= 2 * self.buckets.len() {
            self.retune();
        }
        Some((s.at, s.payload))
    }

    /// Checks the bucket width against the pop stream: over the stretch
    /// of pops since the last check, the mean gap between popped times
    /// is the event separation *at the head of the queue*, which is what
    /// a bucket should hold a few of (Brown's 3 × separation). A width
    /// 4× or more off that target rebuilds the calendar.
    ///
    /// The spread-based width `resize` derives cannot see this: with a
    /// bimodal pending set — a dense cluster of in-flight messages plus
    /// a few timers minutes out — `(max − min) / len` is set by the
    /// timers, the whole cluster files under one bucket, and every pop
    /// scans all of it. The rule reads only popped times, so it is as
    /// deterministic as the pops are, and the pop order is the
    /// `(time, seq)` minimum whatever the width.
    fn retune(&mut self) {
        let span = self.vtime.saturating_sub(self.tune_start);
        let mean_gap = span / self.pops_since_tune as u64;
        self.pops_since_tune = 0;
        self.tune_start = self.vtime;
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
    pub fn peek_time(&self) -> Option<SimTime> {
        self.find_min().map(|(b, i)| self.buckets[b][i].at)
    }

    /// Rebuilds the calendar with `new_len` buckets, re-deriving the
    /// bucket width from the current spread of pending firing times so
    /// buckets keep holding O(1) events each.
    fn resize(&mut self, new_len: usize) {
        let mut min_at = u64::MAX;
        let mut max_at = 0u64;
        for s in self.buckets.iter().flatten() {
            let at = s.at.as_micros();
            min_at = min_at.min(at);
            max_at = max_at.max(at);
        }
        if self.len > 0 && max_at > min_at {
            self.width_shift = width_shift_for((max_at - min_at) / self.len as u64);
        }
        self.rebuild(new_len);
    }

    /// Refiles every pending event into `new_len` buckets of the current
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
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
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
}
