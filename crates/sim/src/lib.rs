//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate that replaces the Stanford *Narses* simulator
//! used by the CUP paper (Roussopoulos & Baker, 2002). It provides:
//!
//! * a microsecond-resolution simulated clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event queue with stable FIFO ordering for simultaneous
//!   events ([`EventQueue`]) — std's binary heap behind a sorted look-ahead
//!   head, pinned against a head-less heap by a differential test suite
//!   (`tests/event_queue_diff.rs`),
//! * a deterministic, seedable random number generator ([`rng::DetRng`])
//!   that is stable across platforms and crate versions, and
//! * per-hop network latency models ([`latency`]).
//!
//! The crate is intentionally protocol-agnostic: the CUP protocol crates
//! define their own event payloads and state and drain the queue with a
//! [`EventQueue::pop_before`] loop of their own.
//!
//! # Examples
//!
//! ```
//! use cup_des::{EventQueue, SimDuration, SimTime};
//!
//! // Count ticks of a self-rescheduling timer.
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let mut ticks = 0;
//! while let Some((now, ())) = queue.pop_before(SimTime::from_secs(10)) {
//!     ticks += 1;
//!     queue.schedule(now + SimDuration::from_secs(1), ());
//! }
//! assert_eq!(ticks, 10);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod event;
pub mod id;
pub mod latency;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use id::{KeyId, NodeId, ReplicaId};
pub use latency::LatencyModel;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
