//! The overlay abstraction CUP runs on.

use cup_des::{KeyId, NodeId};

/// Errors returned by overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// The referenced node is not alive in the overlay.
    NodeNotAlive(NodeId),
    /// Routing failed to make progress (should not happen on well-formed
    /// topologies; surfaced instead of looping forever).
    RoutingStuck {
        /// Where routing stalled.
        at: NodeId,
        /// The key being routed.
        key: KeyId,
    },
    /// A join could not find a splittable zone (coordinate space exhausted).
    SpaceExhausted,
    /// The overlay would become empty or the operation needs more nodes.
    TooFewNodes,
}

impl core::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OverlayError::NodeNotAlive(n) => write!(f, "node {n} is not alive"),
            OverlayError::RoutingStuck { at, key } => {
                write!(f, "routing for {key} stuck at {at}")
            }
            OverlayError::SpaceExhausted => write!(f, "coordinate space exhausted"),
            OverlayError::TooFewNodes => write!(f, "operation requires more nodes"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// A structured overlay with deterministic greedy routing.
///
/// Implementations must guarantee that repeatedly following
/// [`Overlay::next_hop`] from any live node reaches the key's authority in
/// a bounded number of hops, and that `next_hop` is a pure function of the
/// current topology (same topology + same arguments ⇒ same answer). CUP
/// relies on this determinism: it is what makes the *virtual query tree*
/// V(A, K) of the paper's cost model well defined.
pub trait Overlay {
    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Returns `true` if the overlay has no live nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` if `node` is currently part of the overlay.
    fn is_alive(&self, node: NodeId) -> bool;

    /// All live node ids, in ascending order.
    fn nodes(&self) -> Vec<NodeId>;

    /// The authority node owning `key`.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is empty.
    fn authority(&self, key: KeyId) -> NodeId;

    /// The next hop from `from` toward the authority of `key`, or `None`
    /// if `from` is itself the authority.
    fn next_hop(&self, from: NodeId, key: KeyId) -> Result<Option<NodeId>, OverlayError>;

    /// The current neighbors of `node`.
    fn neighbors(&self, node: NodeId) -> Vec<NodeId>;

    /// The full virtual path from `from` to the authority of `key`
    /// (inclusive of both endpoints).
    ///
    /// This is the path a query would take if no intermediate cache
    /// answered it, and is used by the cost model to attribute queries to
    /// virtual subtrees.
    fn route(&self, from: NodeId, key: KeyId) -> Result<Vec<NodeId>, OverlayError> {
        let mut path = Vec::new();
        self.route_into(from, key, &mut path)?;
        Ok(path)
    }

    /// [`Overlay::route`] into a buffer the caller owns: `path` is
    /// cleared and filled with the same walk, so a caller that routes
    /// per query (the justification marks) allocates nothing once the
    /// buffer has grown to the longest path. On error `path` holds the
    /// walk up to where routing failed.
    fn route_into(
        &self,
        from: NodeId,
        key: KeyId,
        path: &mut Vec<NodeId>,
    ) -> Result<(), OverlayError> {
        path.clear();
        path.push(from);
        let mut at = from;
        // Any simple path visits each node at most once.
        let bound = self.len() + 1;
        for _ in 0..bound {
            match self.next_hop(at, key)? {
                None => return Ok(()),
                Some(next) => {
                    at = next;
                    path.push(next);
                }
            }
        }
        Err(OverlayError::RoutingStuck { at, key })
    }

    /// Number of hops from `from` to the authority of `key`.
    fn distance(&self, from: NodeId, key: KeyId) -> Result<usize, OverlayError> {
        Ok(self.route(from, key)?.len() - 1)
    }
}
