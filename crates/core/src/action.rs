//! Actions emitted by the protocol state machine.
//!
//! A [`crate::node::CupNode`] never performs I/O; its handlers push
//! into a `Vec<Action>` and the embedding runtime (discrete-event
//! simulator or live threaded runtime) delivers them. A node keeps no
//! timers either: what it must do later without a message to trigger it
//! it asks for as an [`Action::Wake`]; the delivery kernel keeps it and
//! calls [`crate::node::CupNode::wake_into`] when the instant comes.

use cup_des::{KeyId, NodeId, SimTime};

use crate::entry::IndexEntry;
use crate::message::{ClientId, Message};

/// One side effect requested by the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send a protocol message to a neighboring node (one overlay hop).
    Send {
        /// Destination neighbor.
        to: NodeId,
        /// The message to deliver.
        msg: Message,
    },
    /// Answer a local client whose connection was held open (§2.5).
    RespondClient {
        /// The waiting client.
        client: ClientId,
        /// The key that was queried.
        key: KeyId,
        /// The fresh index entries answering the query (may be empty when
        /// the authority knows no replicas for the key).
        entries: Vec<IndexEntry>,
    },
    /// Wake this node at `at` for `why`. The node stores nothing about
    /// it: a wake that finds nothing left to do does nothing.
    Wake {
        /// When to wake the node (never before the handler's `now`).
        at: SimTime,
        /// What the node will do then.
        why: WakeReason,
    },
}

/// What a node asked to be woken for ([`Action::Wake`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// §2.8: service the throttled node's outgoing update queues.
    Service,
    /// §3.6: release the authority's held refresh batch for the key.
    Release(KeyId),
}

impl Action {
    /// Convenience constructor for a send action.
    pub fn send(to: NodeId, msg: Message) -> Self {
        Action::Send { to, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_constructor() {
        let a = Action::send(NodeId(3), Message::Query { key: KeyId(1) });
        match a {
            Action::Send { to, msg } => {
                assert_eq!(to, NodeId(3));
                assert_eq!(msg.key(), KeyId(1));
            }
            _ => panic!("expected send"),
        }
    }
}
