//! Simulation events.

use cup_core::Message;
use cup_des::{KeyId, NodeId};
use cup_faults::FaultEvent;
use cup_workload::{churn::ChurnEvent, replica::ReplicaAction};

/// Everything that can happen in a simulated CUP network.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A local client posts a query at a node.
    PostQuery {
        /// Dense index of the posting node among the initially built
        /// nodes (mapped to a live node at fire time).
        node_index: usize,
        /// The key queried.
        key: KeyId,
    },
    /// Pull the next query from the workload generator.
    NextQuery,
    /// A protocol message arrives after one hop of latency.
    Deliver {
        /// Sending neighbor.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// A replica lifecycle action reaches its authority node.
    Replica(ReplicaAction),
    /// A node joins or leaves the overlay.
    Churn(ChurnEvent),
    /// A fault-plane change: a scripted one (loss, latency, crash,
    /// partition, behavior) or a §3.7 profile's capacity change for one
    /// node.
    Fault(FaultEvent),
}
