//! The simulation event queue.
//!
//! [`EventQueue`] is std's [`BinaryHeap`] behind a sorted *head*. The
//! heap holds the pending set; the head, a `VecDeque` in pop order,
//! holds the next few events taken out of it. The head is what makes
//! look-ahead possible: [`EventQueue::ahead`] tops it up and shows the
//! next events' payloads without popping them, so a caller can touch
//! their targets before handling them.
//!
//! **The head invariant.** Every head entry precedes every heap entry in
//! `(time, sequence)` order. Topping up keeps it because the heap yields
//! its minimum; `schedule` keeps it by inserting an event that fires
//! before the head's last entry into the head, in place.
//!
//! Ordering is a total order on `(time, sequence)`: the sequence number
//! breaks ties so that events scheduled for the same instant fire in FIFO
//! order, which keeps simulations deterministic. The differential test
//! suite (`tests/event_queue_diff.rs`) pins the head logic against a
//! head-less heap: same schedule/pop stream, byte-identical pop order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// A scheduled event: fires at `at`, carrying `payload`.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed: `BinaryHeap` is a max-heap, and the earliest event must
    /// come out first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list (a binary heap with a sorted head).
///
/// Events scheduled for the same instant are returned in the order they
/// were scheduled: the pop order is the total order on
/// `(time, sequence)`.
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
    /// The next events, out of the heap, in `(time, sequence)` order.
    /// Every entry precedes every heap entry.
    head: VecDeque<Scheduled<E>>,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, payload };
        // A new event carries the largest sequence yet, so it precedes
        // the head's last entry exactly when it fires strictly earlier —
        // and then it belongs in the head.
        if self.head.back().is_some_and(|latest| at < latest.at) {
            let i = self.head.partition_point(|h| h.at <= at);
            self.head.insert(i, s);
        } else {
            self.heap.push(s);
        }
    }

    /// Returns the payloads of the next `k` events (fewer if fewer are
    /// pending) in pop order, without popping them.
    ///
    /// The events are moved into the head if they are not there already;
    /// scheduling afterwards may still put an earlier event in front of
    /// them.
    pub fn ahead(&mut self, k: usize) -> impl Iterator<Item = &E> {
        while self.head.len() < k {
            let Some(s) = self.heap.pop() else { break };
            self.head.push_back(s);
        }
        self.head.iter().take(k).map(|s| &s.payload)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    ///
    /// Events scheduled for the same instant are returned in the order they
    /// were scheduled.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.head.pop_front().or_else(|| self.heap.pop())?;
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

    /// Returns the firing time of the earliest event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head.front().or_else(|| self.heap.peek()).map(|s| s.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.head.len() + self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.head.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Grow the queue to 10,000 events with many collisions, then
        // drain it; order must stay exact.
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
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1_000_000), "far");
        q.schedule(SimTime::from_secs(1), "near");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1_000_000)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1_000_000), "far")));
    }
}
