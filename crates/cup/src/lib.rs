//! CUP: Controlled Update Propagation in Peer-to-Peer Networks.
//!
//! A faithful, from-scratch Rust reproduction of Roussopoulos & Baker's
//! CUP (2002): a cache-maintenance protocol for structured peer-to-peer
//! index networks that asynchronously builds caches of index entries
//! while answering search queries and then propagates controlled updates
//! to keep those caches fresh.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`des`] — the deterministic discrete-event substrate (the Narses
//!   equivalent): simulated clock, event queue, seedable RNG and latency
//!   models;
//! * [`overlay`] — 2-D CAN and Chord overlays with deterministic routing;
//! * [`protocol`] — the CUP node state machine (the paper's
//!   contribution);
//! * [`workload`] — Poisson/Zipf/burst query generators, replica
//!   lifecycles, churn and capacity schedules;
//! * [`simnet`] — the experiment harness reproducing every table and
//!   figure of the paper's evaluation;
//! * [`runtime`] — a live deployment of the same protocol state machine
//!   on a sharded worker pool;
//! * [`faults`] — the deterministic fault-injection plane (link loss,
//!   latency spikes, crash/restart, partitions) shared by both runtimes.
//!
//! # Quickstart
//!
//! ```
//! use cup::prelude::*;
//!
//! // A small network, a modest workload, CUP versus standard caching.
//! let scenario = Scenario {
//!     nodes: 64,
//!     keys: 4,
//!     query_rate: 10.0,
//!     query_start: SimTime::from_secs(300),
//!     query_end: SimTime::from_secs(800),
//!     sim_end: SimTime::from_secs(1_500),
//!     ..Scenario::default()
//! };
//! let std = run_experiment(&ExperimentConfig::standard_caching(scenario.clone()));
//! let cup = run_experiment(&ExperimentConfig::cup(scenario));
//! assert!(cup.total_cost() < std.total_cost());
//! ```

pub use cup_core as protocol;
pub use cup_des as des;
pub use cup_faults as faults;
pub use cup_overlay as overlay;
pub use cup_runtime as runtime;
pub use cup_simnet as simnet;
pub use cup_workload as workload;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use cup_core::{
        trace_diff, Action, AuditConfig, CupNode, CutoffPolicy, Hist, IndexEntry,
        JustificationTracker, Message, Mode, NodeConfig, PolicyState, ReplicaEvent, Requester,
        ResetMode, TraceBuf, TraceDivergence, TraceEvent, TraceKind, Update, UpdateKind,
    };
    pub use cup_des::{DetRng, KeyId, NodeId, ReplicaId, SimDuration, SimTime};
    pub use cup_faults::{Behavior, FaultAction, FaultCounters, FaultPlan, FaultState};
    pub use cup_overlay::{AnyOverlay, Overlay, OverlayKind};
    pub use cup_runtime::{LiveNetwork, PendingQuery, RuntimeError, ShardMap, ShardMapMode};
    pub use cup_simnet::{run_experiment, ExperimentConfig, ExperimentResult};
    pub use cup_workload::{CapacityProfile, ChurnSchedule, KeySelector, QueryGen, Scenario};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = NodeConfig::cup_default();
        let _ = Scenario::default();
        let _ = CutoffPolicy::second_chance();
        let _ = NodeConfig::cup_with_policy(CutoffPolicy::adaptive());
        let _ = JustificationTracker::new();
        let _ = FaultPlan::none();
        let _ = FaultState::new(0);
        let _ = FaultAction::Heal;
        let _ = FaultCounters::default();
    }
}
