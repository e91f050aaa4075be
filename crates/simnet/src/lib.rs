//! Simulated CUP networks: the experiment harness.
//!
//! This crate glues the pieces together inside the discrete-event engine:
//! a structured overlay (`cup-overlay`) carries protocol messages between
//! [`cup_core::CupNode`]s with per-hop latency, while workload generators
//! (`cup-workload`) post queries and drive replica lifecycles. What a
//! delivery does — gates, accounting, handler, sends — is the delivery
//! kernel shared with the live runtime (`cup_faults::deliver`); the
//! [`Network`] is its DES transport. Every message delivery is one
//! overlay hop and is charged to the paper's cost model (§3.3):
//!
//! * **miss cost** — hops of queries traveling upstream plus hops of
//!   first-time updates (query responses) traveling downstream;
//! * **overhead** — hops of refresh/delete/append updates plus clear-bit
//!   hops (clear-bits are conservatively *not* piggybacked, exactly like
//!   the paper's accounting);
//! * **total cost** = miss cost + overhead.
//!
//! A [`cup_core::justify::JustificationTracker`] (shared with the live
//! runtime) measures the fraction of pushed updates whose cost is
//! recovered by a subsequent query in the receiving node's virtual
//! subtree (§3.1), using the determinism of overlay routing to enumerate
//! virtual query paths exactly.
//!
//! [`experiment::run_experiment`] runs one configuration end to end;
//! [`sweeps`] contains the parameter sweeps behind every table and figure
//! of the paper — each grid point is an independent deterministic run, so
//! [`par::parallel_map`] farms them across worker threads with stable
//! output ordering; [`report`] renders them in the paper's format.

#![deny(clippy::iter_over_hash_type)]

pub mod event;
pub mod experiment;
pub mod metrics;
pub mod network;
pub mod par;
pub mod report;
pub mod sweeps;

pub use cup_core::justify;

pub use event::Ev;
pub use experiment::{run_experiment, ExperimentConfig};
pub use metrics::{ExperimentResult, NetMetrics};
pub use network::Network;
