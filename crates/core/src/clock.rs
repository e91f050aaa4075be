//! The runtime clock: where a live runtime's "now" comes from.
//!
//! The protocol state machine ([`crate::node::CupNode`]) is stamped with
//! [`SimTime`]s by whatever drives it. The DES owns its clock outright —
//! "now" is the head of the event queue — but a threaded runtime needs a
//! source, and there are two:
//!
//! * **wall-mapped** ([`Clock::wall`]) — microseconds elapsed since the
//!   clock was created, mapped onto [`SimTime`]. Real time for real
//!   deployments and throughput benchmarks; inherently nondeterministic.
//! * **virtual** ([`Clock::virtual_at`]) — a logical time that only
//!   moves when the driver says so ([`Clock::advance_to`]). Stepped at
//!   quiesce barriers, every worker thread observes byte-identical
//!   timestamps regardless of scheduling, which is what lets the live
//!   runtime agree with the DES on *time-compared* behavior
//!   (`PFU_TIMEOUT` retries, `@t=`-windowed fault scripts).
//!
//! This module is the workspace's **single designated wall-clock
//! module**: `std::time::Instant` may be touched here and nowhere else
//! in the protocol crates (`cup-core`, `cup-runtime`). Clippy's
//! `disallowed-methods` list (`clippy.toml`, CI's clippy job) enforces
//! the ban, so wall time can never leak back into protocol logic.

// The one sanctioned escape from clippy.toml's disallowed-methods wall:
// this module *implements* the clock abstraction everything else is
// required to use.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cup_des::{SimDuration, SimTime};

/// A monotone source of [`SimTime`] shared by every thread of a live
/// runtime. See the module docs for the two modes.
#[derive(Debug)]
pub struct Clock(Inner);

#[derive(Debug)]
enum Inner {
    /// Wall time since `start`, mapped onto `SimTime` microseconds.
    Wall(Instant),
    /// Logical microseconds, moved only by [`Clock::advance_to`].
    Virtual(AtomicU64),
}

impl Clock {
    /// A wall-mapped clock starting at `SimTime::ZERO` now.
    pub fn wall() -> Self {
        Clock(Inner::Wall(Instant::now()))
    }

    /// A virtual clock frozen at `start` until advanced.
    pub fn virtual_at(start: SimTime) -> Self {
        Clock(Inner::Virtual(AtomicU64::new(start.as_micros())))
    }

    /// `true` for a virtual clock (time moves only on
    /// [`Clock::advance_to`]).
    pub fn is_virtual(&self) -> bool {
        matches!(self.0, Inner::Virtual(_))
    }

    /// The current time. On the hot path of every dispatched message:
    /// a virtual read is one relaxed atomic load (the runtime's quiesce
    /// barrier provides the ordering between an advance and the traffic
    /// that observes it).
    pub fn now(&self) -> SimTime {
        match &self.0 {
            Inner::Wall(start) => SimTime::from_micros(start.elapsed().as_micros() as u64),
            Inner::Virtual(now) => SimTime::from_micros(now.load(Ordering::Relaxed)),
        }
    }

    /// Moves a virtual clock forward to `target` and returns it.
    /// `target == now` is a no-op (re-synchronizing at a barrier is
    /// legal); moving backwards is a bug and panics.
    ///
    /// # Panics
    ///
    /// Panics on a wall-mapped clock (real time cannot be steered) and
    /// if `target` is in the logical past.
    pub fn advance_to(&self, target: SimTime) -> SimTime {
        let Inner::Virtual(now) = &self.0 else {
            panic!("advance_to on a wall-mapped clock: only virtual time can be steered");
        };
        let current = now.load(Ordering::Relaxed);
        assert!(
            target.as_micros() >= current,
            "virtual time must be monotone: advance_to({target}) from {}",
            SimTime::from_micros(current)
        );
        now.store(target.as_micros(), Ordering::SeqCst);
        target
    }

    /// Moves a virtual clock forward by `by` and returns the new time.
    ///
    /// # Panics
    ///
    /// Panics on a wall-mapped clock.
    pub fn advance(&self, by: SimDuration) -> SimTime {
        self.advance_to(self.now() + by)
    }
}

impl Default for Clock {
    /// The default is the wall-mapped clock: real deployments should
    /// not opt *out* of real time by accident.
    fn default() -> Self {
        Clock::wall()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_moves_only_when_advanced() {
        let clock = Clock::virtual_at(SimTime::ZERO);
        assert!(clock.is_virtual());
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(clock.now(), SimTime::ZERO, "time is frozen");
        assert_eq!(
            clock.advance(SimDuration::from_secs(30)),
            SimTime::from_secs(30)
        );
        assert_eq!(clock.now(), SimTime::from_secs(30));
        assert_eq!(
            clock.advance_to(SimTime::from_secs(31)),
            SimTime::from_secs(31)
        );
    }

    #[test]
    fn virtual_clock_can_start_anywhere() {
        let clock = Clock::virtual_at(SimTime::from_secs(100));
        assert_eq!(clock.now(), SimTime::from_secs(100));
    }

    #[test]
    fn advancing_to_the_current_instant_is_a_no_op() {
        let clock = Clock::virtual_at(SimTime::from_secs(5));
        assert_eq!(
            clock.advance_to(SimTime::from_secs(5)),
            SimTime::from_secs(5)
        );
        assert_eq!(clock.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn virtual_clock_rejects_backwards_time() {
        let clock = Clock::virtual_at(SimTime::from_secs(10));
        clock.advance_to(SimTime::from_secs(9));
    }

    #[test]
    #[should_panic(expected = "wall-mapped")]
    fn wall_clock_cannot_be_steered() {
        Clock::wall().advance(SimDuration::from_secs(1));
    }

    #[test]
    fn wall_clock_is_monotone_and_default() {
        let clock = Clock::default();
        assert!(!clock.is_virtual());
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
