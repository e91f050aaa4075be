//! The simulation driver.
//!
//! [`Engine`] owns the user's state and the event queue and repeatedly
//! dispatches the earliest event to a handler closure. The handler receives
//! mutable access to both the state and the queue so it can schedule
//! follow-up events.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::event::EventQueue;
use crate::time::SimTime;

/// A discrete-event simulation engine.
///
/// The engine is generic over the simulation state `S` and the event payload
/// `E`; the per-event logic is supplied as a closure to [`Engine::run`] or
/// [`Engine::run_until`], keeping this crate fully protocol-agnostic.
///
/// # Examples
///
/// ```
/// use cup_des::{Engine, SimDuration, SimTime};
///
/// let mut engine = Engine::new(0u64);
/// engine.schedule(SimTime::ZERO, 41u64);
/// engine.run(|sum, _queue, _now, ev| *sum += ev);
/// assert_eq!(*engine.state(), 41);
/// ```
#[derive(Debug)]
pub struct Engine<S, E> {
    state: S,
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<S, E> Engine<S, E> {
    /// Creates an engine around the given state with an empty queue and the
    /// clock at [`SimTime::ZERO`].
    pub fn new(state: S) -> Self {
        Engine {
            state,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules an event on the engine's queue.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.queue.schedule(at, payload);
    }

    /// Returns the current simulated time (the firing time of the most
    /// recently dispatched event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Returns a shared reference to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Consumes the engine, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Runs until the queue is empty.
    ///
    /// The handler receives `(state, queue, now, event)` and may schedule
    /// further events on `queue`.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut S, &mut EventQueue<E>, SimTime, E),
    {
        while let Some((at, ev)) = self.queue.pop() {
            debug_assert!(at >= self.now, "event queue went backwards in time");
            self.now = at;
            self.processed += 1;
            handler(&mut self.state, &mut self.queue, at, ev);
        }
    }

    /// Runs until the queue is empty or the next event would fire at or
    /// after `deadline`. Events exactly at `deadline` are *not* processed.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until<F>(&mut self, deadline: SimTime, mut handler: F) -> u64
    where
        F: FnMut(&mut S, &mut EventQueue<E>, SimTime, E),
    {
        let before = self.processed;
        while let Some((at, ev)) = self.queue.pop_before(deadline) {
            debug_assert!(at >= self.now, "event queue went backwards in time");
            self.now = at;
            self.processed += 1;
            handler(&mut self.state, &mut self.queue, at, ev);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn run_drains_queue() {
        let mut engine = Engine::new(Vec::new());
        engine.schedule(SimTime::from_secs(2), "b");
        engine.schedule(SimTime::from_secs(1), "a");
        engine.run(|log, _, _, ev| log.push(ev));
        assert_eq!(*engine.state(), vec!["a", "b"]);
        assert_eq!(engine.processed(), 2);
        assert_eq!(engine.now(), SimTime::from_secs(2));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut engine = Engine::new(0u32);
        engine.schedule(SimTime::ZERO, ());
        engine.run(|count, queue, now, ()| {
            *count += 1;
            if *count < 5 {
                queue.schedule(now + SimDuration::from_secs(1), ());
            }
        });
        assert_eq!(*engine.state(), 5);
        assert_eq!(engine.now(), SimTime::from_secs(4));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut engine = Engine::new(0u32);
        for s in 0..10 {
            engine.schedule(SimTime::from_secs(s), ());
        }
        let n = engine.run_until(SimTime::from_secs(5), |count, _, _, ()| *count += 1);
        assert_eq!(n, 5);
        assert_eq!(*engine.state(), 5);
        // The clock advances to the deadline even with events pending.
        assert_eq!(engine.now(), SimTime::from_secs(5));
        // Remaining events still fire on the next run.
        engine.run(|count, _, _, ()| *count += 1);
        assert_eq!(*engine.state(), 10);
    }

    #[test]
    fn run_until_event_at_deadline_not_processed() {
        let mut engine = Engine::new(0u32);
        engine.schedule(SimTime::from_secs(5), ());
        let n = engine.run_until(SimTime::from_secs(5), |count, _, _, ()| *count += 1);
        assert_eq!(n, 0);
        assert_eq!(*engine.state(), 0);
    }

    #[test]
    fn into_state_returns_final_state() {
        let mut engine = Engine::new(String::new());
        engine.schedule(SimTime::ZERO, 'x');
        engine.run(|s, _, _, c| s.push(c));
        assert_eq!(engine.into_state(), "x");
    }
}
