//! The nodes a delivery [`Plane`](crate::Plane) serves.
//!
//! Both runtimes keep their nodes here: the DES in one arena holding the
//! whole population, the live runtime in one arena per shard holding the
//! nodes that shard owns. A dense `u32` index by [`NodeId`] (ids are
//! dense overlay indices and never reused) points into a slab of
//! [`CupNode`]s; an id the arena does not hold reads a vacant marker
//! that lies past the end of any slab, so a lookup is two bounds checks
//! and no branch of its own. The index runs from id 0 to the largest
//! held id: 4 bytes per node in the DES, but up to 4 bytes per node *per
//! shard* across a live runtime's shards. The arena also keeps the
//! [`NodeConfig`] cold nodes are built from (a crash reset, a join) and
//! the counters of every node it wiped or removed, so network-wide
//! statistics stay conserved across crashes and churn.
//!
//! Slab order is not part of the contract — a removal swaps the last
//! node into the hole — and nothing a run reports depends on it: stats
//! fold by exact merges, and hint clearing touches every node.

use cup_core::stats::NodeStats;
use cup_core::{CupNode, NodeConfig};
use cup_des::NodeId;

/// The index entry of an id the arena does not hold: never a slab
/// position, since a slab this long cannot be allocated.
const VACANT: u32 = u32::MAX;

/// A set of nodes, indexed by [`NodeId`].
#[derive(Debug, Default)]
pub struct NodeArena {
    /// Slab position per node id ([`VACANT`] for ids not held).
    index: Vec<u32>,
    /// The held nodes, in no particular order.
    slab: Vec<CupNode>,
    /// What a cold node is built from.
    config: NodeConfig,
    /// Counters of the nodes this arena wiped or removed.
    retained: NodeStats,
}

impl NodeArena {
    /// An arena holding a fresh node for each of `ids` (any subset of the
    /// dense id space), all configured with `config`.
    pub fn build(ids: &[NodeId], config: NodeConfig) -> Self {
        let span = ids.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut index = vec![VACANT; span];
        let mut slab = Vec::with_capacity(ids.len());
        for &id in ids {
            index[id.index()] = slab.len() as u32;
            slab.push(CupNode::new(id, config));
        }
        NodeArena {
            index,
            slab,
            config,
            retained: NodeStats::default(),
        }
    }

    /// The node `id`, if this arena holds it.
    pub fn get(&self, id: NodeId) -> Option<&CupNode> {
        let slot = *self.index.get(id.index())?;
        self.slab.get(slot as usize)
    }

    /// The node `id`, mutably, if this arena holds it.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut CupNode> {
        let slot = *self.index.get(id.index())?;
        self.slab.get_mut(slot as usize)
    }

    /// Whether this arena holds `id`.
    pub fn holds(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Adds a freshly joined cold node under the next dense id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the next id (the overlay's join contract).
    pub fn push_joined(&mut self, id: NodeId) {
        assert_eq!(id.index(), self.index.len(), "join ids are dense");
        self.index.push(self.slab.len() as u32);
        self.slab.push(CupNode::new(id, self.config));
    }

    /// Wipes a held node's protocol state in place (a crash): it comes
    /// back cold — empty cache, empty directory, no interest record —
    /// and its counters are retained. Returns `false` if `id` is not
    /// held.
    pub fn reset(&mut self, id: NodeId) -> bool {
        let cold = CupNode::new(id, self.config);
        let Some(node) = self.get_mut(id) else {
            return false;
        };
        let dead = std::mem::replace(node, cold);
        self.retained.merge(&dead.stats);
        true
    }

    /// Removes a held node (a departure), retaining its counters, and
    /// returns its final state.
    pub fn remove(&mut self, id: NodeId) -> Option<CupNode> {
        let slot = *self.index.get(id.index())?;
        if slot as usize >= self.slab.len() {
            return None;
        }
        let gone = self.slab.swap_remove(slot as usize);
        self.index[id.index()] = VACANT;
        if let Some(moved) = self.slab.get(slot as usize) {
            self.index[moved.id().index()] = slot;
        }
        self.retained.merge(&gone.stats);
        Some(gone)
    }

    /// The counters of every held node plus the retained ones.
    pub fn aggregate_stats(&self) -> NodeStats {
        let mut total = self.retained.clone();
        for node in &self.slab {
            total.merge(&node.stats);
        }
        total
    }

    /// The held nodes, in slab order.
    pub fn iter(&self) -> std::slice::Iter<'_, CupNode> {
        self.slab.iter()
    }

    /// The held nodes, mutably, in slab order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, CupNode> {
        self.slab.iter_mut()
    }

    /// The held nodes, in slab order, consuming the arena.
    pub fn into_nodes(self) -> Vec<CupNode> {
        self.slab
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
        assert_eq!(arena.iter().count(), 8);
        for i in 0..8 {
            assert!(arena.holds(NodeId(i)));
            assert_eq!(arena.get(NodeId(i)).unwrap().id(), NodeId(i));
        }
        assert!(!arena.holds(NodeId(8)) && arena.get(NodeId(8)).is_none());
    }

    #[test]
    fn remove_keeps_stats_conserved() {
        let mut arena = NodeArena::build(&ids(4), NodeConfig::cup_default());
        arena.get_mut(NodeId(2)).unwrap().stats.client_queries = 7;
        let before = arena.aggregate_stats();
        let gone = arena.remove(NodeId(2)).expect("node was held");
        assert_eq!(gone.stats.client_queries, 7);
        assert!(!arena.holds(NodeId(2)));
        assert!(arena.remove(NodeId(2)).is_none());
        assert_eq!(arena.aggregate_stats(), before);
        assert_eq!(arena.retained.client_queries, 7);
        // The swap-remove moved a node into the hole; every other id
        // still finds its own node.
        for i in [0, 1, 3] {
            assert_eq!(arena.get(NodeId(i)).unwrap().id(), NodeId(i));
        }
    }

    #[test]
    fn reset_folds_a_crashed_nodes_histograms_into_the_retained_aggregate() {
        let mut arena = NodeArena::build(&ids(4), NodeConfig::cup_default());
        // Only node 1 ever recorded a sample; everyone else's
        // histograms were never allocated.
        let stats = &mut arena.get_mut(NodeId(1)).unwrap().stats;
        stats.pfu_retries = 2;
        stats.pfu_retry_age.record(31_000_000);
        stats.pfu_retry_age.record(45_000_000);
        let before = arena.aggregate_stats();
        assert!(arena.reset(NodeId(1)));
        let cold = &arena.get(NodeId(1)).unwrap().stats;
        assert_eq!(*cold, NodeStats::default());
        let retained = &arena.retained;
        assert_eq!(retained.pfu_retry_age.count(), 2);
        assert_eq!(retained.pfu_retry_age.to_hist().quantile(1000), 41_943_040);
        assert_eq!(
            arena.aggregate_stats(),
            before,
            "conserved across the crash"
        );
        // A second crash of the now-cold node adds nothing; a node the
        // arena does not hold cannot be reset.
        assert!(arena.reset(NodeId(1)));
        assert!(!arena.reset(NodeId(9)));
        assert_eq!(arena.aggregate_stats(), before);
    }

    #[test]
    fn join_extends_hot_arrays_in_lockstep() {
        let mut arena = NodeArena::build(&ids(3), NodeConfig::cup_default());
        arena.remove(NodeId(0));
        arena.push_joined(NodeId(3));
        assert_eq!(arena.iter().count(), 3);
        for i in 1..4 {
            assert_eq!(arena.get(NodeId(i)).unwrap().id(), NodeId(i));
        }
        assert!(!arena.holds(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "join ids are dense")]
    fn non_dense_join_rejected() {
        let mut arena = NodeArena::build(&ids(3), NodeConfig::cup_default());
        arena.push_joined(NodeId(9));
    }
}
