//! CUP: Controlled Update Propagation — the protocol core.
//!
//! This crate implements the contribution of Roussopoulos & Baker's paper
//! *"CUP: Controlled Update Propagation in Peer-to-Peer Networks"* as a
//! runtime-agnostic state machine. Every node of a structured peer-to-peer
//! network runs a [`node::CupNode`]; the node consumes protocol inputs
//! (queries, updates, clear-bit messages, replica events) stamped with a
//! simulated or wall-clock time, and emits [`action::Action`]s that the
//! embedding runtime delivers. The same state machine is driven by the
//! discrete-event harness in `cup-simnet` and by the threaded live runtime
//! in `cup-runtime`.
//!
//! The protocol, following the paper section by section:
//!
//! * **§2.3 node bookkeeping** — per-key cached index entries, a
//!   *Pending-First-Update* flag coalescing query bursts, an interest
//!   record per neighbor ([`keystate::KeyState::interest`]), and a popularity
//!   measure ([`popularity::Popularity`]).
//! * **§2.4 update types** — first-time updates, deletes, refreshes, and
//!   appends ([`message::UpdateKind`]).
//! * **§2.5–2.7 handlers** — query, update, and clear-bit handling with
//!   the exact case analysis of the paper ([`node::CupNode`]).
//! * **§2.8 adaptive push control** — bounded outgoing update queues with
//!   proportional capacity allocation, priority re-ordering, and expiry
//!   ([`capacity::OutgoingQueues`]).
//! * **§2.9 churn support** — interest patching on neighbor changes and
//!   index hand-over hooks.
//! * **§3.4 cut-off policies** — linear and logarithmic
//!   probability-based thresholds, the log-based second-chance policy and
//!   the fixed push-level policy used to find the optimal level — one per
//!   node, each a stateless function of the key's popularity measure and
//!   the update's depth ([`policy::CutoffPolicy`]).
//! * **§3.1 justified-update accounting** — shared by the simulation and
//!   live runtimes ([`justify::JustificationTracker`]).
//! * **§3.6 replica-independent cut-off** — both the naive and the fixed
//!   popularity-reset rules ([`popularity::ResetMode`]).
//!
//! A standard caching baseline (expiration-based pull caching, the
//! comparison system in every experiment of the paper) is available as
//! [`config::Mode::StandardCaching`] on the same node implementation.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::iter_over_hash_type)]

pub mod action;
pub mod audit;
pub mod capacity;
pub mod clock;
pub mod config;
pub mod directory;
pub mod entry;
mod inline;
pub mod interest;
pub mod justify;
pub mod keystate;
mod keytable;
pub mod message;
pub mod node;
pub mod obs;
pub mod policy;
pub mod popularity;
pub mod stats;
pub mod surface;

pub use action::{Action, WakeReason};
pub use audit::{sample_targets, AuditTally};
pub use clock::Clock;
pub use config::{AuditConfig, Mode, NodeConfig, PFU_TIMEOUT, SERVICE_INTERVAL};
pub use entry::IndexEntry;
pub use justify::JustificationTracker;
pub use message::{ClientId, Message, ReplicaEvent, Requester, Update, UpdateKind};
pub use node::CupNode;
pub use obs::{trace_diff, Hist, TraceBuf, TraceDivergence, TraceEvent, TraceKind};
pub use policy::CutoffPolicy;
pub use popularity::ResetMode;
