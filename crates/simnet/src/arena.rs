//! Dense per-node storage for the simulated network.
//!
//! At 100k nodes the per-event cost of node lookup dominates the engine,
//! so the arena is laid out for the dispatch hot path: protocol state
//! machines live in a dense slab indexed directly by [`NodeId`] (ids are
//! assigned densely by the overlay builder and never reused), while the
//! *hot* per-node scalars the harness touches on most events — the §3.7
//! outgoing-capacity fraction — sit in their own parallel array
//! (struct-of-arrays) so capacity sweeps never pull whole `CupNode`s
//! through the cache. Departed nodes leave a `None` slot behind and their
//! protocol counters are folded into [`NodeArena::departed_stats`] so
//! network-wide statistics stay conserved across churn.

use cup_core::{CupNode, NodeConfig};
use cup_des::NodeId;

/// The dense node table: one slot per ever-assigned [`NodeId`].
#[derive(Debug)]
pub struct NodeArena {
    /// Protocol state per slot; `None` marks a departed (or never-built)
    /// node.
    nodes: Vec<Option<CupNode>>,
    /// Hot state, struct-of-arrays: outgoing-capacity fraction per slot.
    capacities: Vec<f64>,
    /// Counters carried over from departed nodes.
    departed_stats: cup_core::stats::NodeStats,
}

impl NodeArena {
    /// Builds the arena for the given live ids (dense, possibly with
    /// holes if the overlay builder skipped indices), all configured with
    /// `config` at full capacity.
    pub fn build(ids: &[NodeId], config: NodeConfig) -> Self {
        let max_id = ids.iter().map(|n| n.index()).max().unwrap_or(0);
        let mut nodes: Vec<Option<CupNode>> = (0..=max_id).map(|_| None).collect();
        for id in ids {
            nodes[id.index()] = Some(CupNode::new(*id, config));
        }
        NodeArena {
            capacities: vec![1.0; nodes.len()],
            nodes,
            departed_stats: cup_core::stats::NodeStats::default(),
        }
    }

    /// Number of slots (live or departed) in the arena.
    pub fn slots(&self) -> usize {
        self.nodes.len()
    }

    /// Read-only access to one node's state, if alive.
    pub fn get(&self, id: NodeId) -> Option<&CupNode> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node departed — callers check liveness first.
    pub fn get_mut(&mut self, id: NodeId) -> &mut CupNode {
        self.nodes[id.index()].as_mut().expect("node must be alive")
    }

    /// Returns `true` if the slot holds a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(Option::is_some)
    }

    /// Appends a freshly joined node at the next dense slot.
    ///
    /// # Panics
    ///
    /// Panics if the overlay assigned a non-dense id (the join contract).
    pub fn push_joined(&mut self, id: NodeId, config: NodeConfig) {
        assert_eq!(id.index(), self.nodes.len(), "join ids are dense");
        self.nodes.push(Some(CupNode::new(id, config)));
        self.capacities.push(1.0);
    }

    /// Wipes a live node's protocol state in place (a fault-plane
    /// crash): the slot is re-initialized cold — empty cache, empty
    /// directory, no interest record — while its counters are folded
    /// into the departed aggregate so network-wide statistics stay
    /// conserved across crashes. Returns `false` if the slot is not
    /// alive.
    pub fn reset(&mut self, id: NodeId, config: NodeConfig) -> bool {
        let Some(slot) = self.nodes.get_mut(id.index()) else {
            return false;
        };
        let Some(node) = slot else {
            return false;
        };
        self.departed_stats.merge(&node.stats);
        *slot = Some(CupNode::new(id, config));
        true
    }

    /// Removes a departed node, folding its counters into the departed
    /// aggregate. Returns the final state for hand-over processing.
    pub fn remove(&mut self, id: NodeId) -> Option<CupNode> {
        let gone = self.nodes.get_mut(id.index()).and_then(Option::take);
        if let Some(node) = &gone {
            // Keep the departed node's counters so network-wide
            // statistics stay conserved.
            self.departed_stats.merge(&node.stats);
        }
        gone
    }

    /// The current outgoing-capacity fraction of a slot.
    pub fn capacity(&self, id: NodeId) -> f64 {
        self.capacities[id.index()]
    }

    /// Sets a slot's outgoing-capacity fraction, returning the previous
    /// value.
    pub fn set_capacity(&mut self, id: NodeId, capacity: f64) -> f64 {
        std::mem::replace(&mut self.capacities[id.index()], capacity)
    }

    /// Counters inherited from departed nodes.
    pub fn departed_stats(&self) -> &cup_core::stats::NodeStats {
        &self.departed_stats
    }

    /// Aggregates the protocol counters of all live nodes plus the
    /// departed carry-over.
    pub fn aggregate_stats(&self) -> cup_core::stats::NodeStats {
        let mut total = self.departed_stats.clone();
        for n in self.nodes.iter().flatten() {
            total.merge(&n.stats);
        }
        total
    }

    /// Iterates over the live nodes.
    pub fn iter_live(&self) -> impl Iterator<Item = &CupNode> {
        self.nodes.iter().flatten()
    }

    /// Iterates mutably over the live nodes.
    pub fn iter_live_mut(&mut self) -> impl Iterator<Item = &mut CupNode> {
        self.nodes.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn build_populates_dense_slots() {
        let arena = NodeArena::build(&ids(8), NodeConfig::cup_default());
        assert_eq!(arena.slots(), 8);
        for i in 0..8 {
            assert!(arena.is_alive(NodeId(i)));
            assert_eq!(arena.get(NodeId(i)).unwrap().id(), NodeId(i));
        }
    }

    #[test]
    fn remove_keeps_stats_conserved() {
        let mut arena = NodeArena::build(&ids(4), NodeConfig::cup_default());
        arena.get_mut(NodeId(2)).stats.client_queries = 7;
        let before = arena.aggregate_stats();
        let gone = arena.remove(NodeId(2)).expect("node was alive");
        assert_eq!(gone.stats.client_queries, 7);
        assert!(!arena.is_alive(NodeId(2)));
        assert!(arena.remove(NodeId(2)).is_none());
        assert_eq!(arena.aggregate_stats(), before);
        assert_eq!(arena.departed_stats().client_queries, 7);
    }

    #[test]
    fn reset_folds_a_crashed_nodes_histograms_into_the_retained_aggregate() {
        let mut arena = NodeArena::build(&ids(4), NodeConfig::cup_default());
        // Only node 1 ever recorded a sample; everyone else's
        // histograms were never allocated.
        let stats = &mut arena.get_mut(NodeId(1)).stats;
        stats.pfu_retries = 2;
        stats.pfu_retry_age.record(31_000_000);
        stats.pfu_retry_age.record(45_000_000);
        let before = arena.aggregate_stats();
        assert!(arena.reset(NodeId(1), NodeConfig::cup_default()));
        let cold = &arena.get(NodeId(1)).unwrap().stats;
        assert_eq!(*cold, cup_core::stats::NodeStats::default());
        let retained = arena.departed_stats();
        assert_eq!(retained.pfu_retry_age.count(), 2);
        assert_eq!(retained.pfu_retry_age.to_hist().quantile(1000), 41_943_040);
        assert_eq!(
            arena.aggregate_stats(),
            before,
            "conserved across the crash"
        );
        // A second crash of the now-cold node adds nothing.
        assert!(arena.reset(NodeId(1), NodeConfig::cup_default()));
        assert_eq!(arena.aggregate_stats(), before);
    }

    #[test]
    fn join_extends_hot_arrays_in_lockstep() {
        let mut arena = NodeArena::build(&ids(3), NodeConfig::cup_default());
        arena.push_joined(NodeId(3), NodeConfig::cup_default());
        assert_eq!(arena.slots(), 4);
        assert_eq!(arena.capacity(NodeId(3)), 1.0);
        assert_eq!(arena.set_capacity(NodeId(3), 0.25), 1.0);
        assert_eq!(arena.capacity(NodeId(3)), 0.25);
    }

    #[test]
    #[should_panic(expected = "join ids are dense")]
    fn non_dense_join_rejected() {
        let mut arena = NodeArena::build(&ids(3), NodeConfig::cup_default());
        arena.push_joined(NodeId(9), NodeConfig::cup_default());
    }
}
