//! `cup-faults`: a deterministic, scriptable fault-injection plane.
//!
//! The CUP paper's economic argument — propagate updates only while
//! queries justify them — has to survive an unreliable network, yet a
//! loss-free simulation never exercises the recovery half of the
//! protocol. This crate is the one fault model shared by *both* runtimes:
//! the discrete-event harness in `cup-simnet` and the sharded worker-pool
//! runtime in `cup-runtime` consult the same [`FaultState`] with the same
//! decision function, so a scripted [`FaultPlan`] produces byte-identical
//! outcomes in either world (and across reruns and worker counts).
//!
//! # The fault model
//!
//! A [`FaultPlan`] is an ordered script of timed [`FaultEvent`]s:
//!
//! * **link loss** — every peer message is dropped with probability
//!   `rate`, decided *at send time* (before a mailbox enqueue or event
//!   schedule), which keeps the live runtime's `quiesce()` barrier exact;
//! * **latency spikes** — a multiplicative factor on the per-hop latency
//!   model (a DES-side effect; the live runtime has no modeled latency);
//! * **node crash / restart** — a crash wipes the node's protocol state
//!   (cold cache, empty directory, lost interest sets) and drops all
//!   traffic to it; a restart brings the cold node back;
//! * **overlay partition / heal** — nodes are split into k groups by a
//!   seeded hash, and every message crossing a group boundary is dropped
//!   until the heal event;
//! * **capacity cuts** — a node's §2.8 host capacity fraction, which the
//!   §3.7 profiles schedule (no spec string spells it): below 1 the node
//!   holds its maintenance updates for its service wakes; the fraction
//!   is the host's, so a crashed node keeps it and restarts under it;
//! * **behavior faults** — Byzantine peers that stay up and routable but
//!   misbehave, via a per-node override table: `stale-serve` swallows
//!   inbound deletions and audit repairs (the node keeps answering from
//!   entries the rest of the network retired), `drop-updates` suppresses
//!   outbound maintenance updates while still forwarding queries, and
//!   `lie-refresh` rewrites forwarded deletions into fresh-looking
//!   refreshes. The defense — a LOCKSS-style rate-limited sampled cache
//!   audit — lives in `cup-core` (`AuditConfig`); this crate only
//!   supplies the adversary.
//!
//! # Determinism
//!
//! Loss decisions use a *counter-mode* hash, not a shared RNG stream:
//! message `n` on link `(from, to)` is dropped iff
//! `hash(seed, epoch, from, to, n)` lands under the loss rate. Per-link
//! sequence numbers are advanced by the sender's thread only (drops are
//! decided before enqueue), and every protocol cascade touches a given
//! link in a deterministic order, so the DES and an M-worker live run
//! make the same decisions in the same places. The `epoch` term (bumped
//! on every applied fault action) decorrelates successive loss phases.
//!
//! # Recovery
//!
//! The plane injects faults; *recovery* is the protocol's job, and the
//! pieces are already in CUP once faults make them reachable:
//!
//! * a lost first-time response leaves the Pending-First-Update flag set;
//!   the first miss more than `PFU_TIMEOUT` (30 s) after it retries the
//!   query;
//! * a restarted node comes back cold and **re-fetches interest-bearing
//!   state query by query** — its first miss per key re-registers
//!   interest along the path, exactly like a fresh join;
//! * parents holding **stale interest bits** for a crashed child keep
//!   pushing until the restarted (cold) node's cut-off policy answers
//!   with a Clear-Bit — pruning by clear-bit instead of assuming the
//!   original delivery; lost Clear-Bits re-send on the next unwanted
//!   update for the same reason;
//! * a restarted *authority* rebuilds its directory from replica
//!   refreshes (`LocalDirectory` treats a refresh of an unknown replica
//!   as a birth);
//! * the justification accounting only ever counts *delivered* updates —
//!   a dropped propagation opens no window, so loss can never inflate the
//!   justified ratio.

//!
//! # The delivery kernel
//!
//! Where the gates sit relative to the hop charge, the trace, the
//! justification hook and the handler call is as much a part of the
//! model as the gates themselves, so this crate — the one both runtimes
//! already share — also holds the code that runs them: [`deliver`]. A
//! [`Plane`] owns the nodes (a [`NodeArena`]), the `FaultState`, the
//! justification tracker and the [`NetMetrics`] sink and walks every
//! posted query, received message, replica event, wake and emitted action
//! through one fixed order; a runtime implements the narrow [`Env`]
//! trait and owns nothing else of the pipeline.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod arena;
pub mod deliver;
pub mod metrics;
pub mod plan;
pub mod state;

pub use arena::NodeArena;
pub use deliver::{Env, Plane, RoutingFailed, Totals};
pub use metrics::NetMetrics;
pub use plan::{Behavior, FaultAction, FaultEvent, FaultPlan};
pub use state::{DropVerdict, FaultCounters, FaultState};
