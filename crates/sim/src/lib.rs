//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate that replaces the Stanford *Narses* simulator
//! used by the CUP paper (Roussopoulos & Baker, 2002). It provides:
//!
//! * a microsecond-resolution simulated clock ([`SimTime`], [`SimDuration`]),
//! * a deterministic event queue with stable FIFO ordering for simultaneous
//!   events ([`EventQueue`]) — a calendar queue with O(1) amortized
//!   schedule/pop, pinned against the retired heap scheduler by a
//!   differential test suite (`tests/calendar_queue_diff.rs`),
//! * a generic simulation driver ([`Engine`]) that dispatches events to a
//!   user-supplied handler,
//! * a deterministic, seedable random number generator ([`rng::DetRng`])
//!   that is stable across platforms and crate versions, and
//! * per-hop network latency models ([`latency`]).
//!
//! The engine is intentionally protocol-agnostic: the CUP protocol crates
//! define their own event payloads and state and drive them through
//! [`Engine::run`].
//!
//! # Examples
//!
//! ```
//! use cup_des::{Engine, EventQueue, SimDuration, SimTime};
//!
//! // Count ticks of a self-rescheduling timer.
//! struct State {
//!     ticks: u32,
//! }
//!
//! let mut engine = Engine::new(State { ticks: 0 });
//! engine.schedule(SimTime::ZERO, ());
//! engine.run_until(SimTime::from_secs(10), |state, queue, now, ()| {
//!     state.ticks += 1;
//!     queue.schedule(now + SimDuration::from_secs(1), ());
//! });
//! assert_eq!(engine.state().ticks, 10);
//! ```

pub mod engine;
pub mod event;
pub mod id;
pub mod latency;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use event::EventQueue;
pub use id::{KeyId, NodeId, ReplicaId};
pub use latency::LatencyModel;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
