//! A Chord identifier ring with finger tables.
//!
//! The CUP paper lists Chord as an equally valid substrate (§2.2): all CUP
//! needs is deterministic bounded-hop routing toward a key's authority.
//! This implementation keeps the classic structure — nodes placed on a
//! 2⁶⁴ ring by hashing, each key owned by its *successor* node, greedy
//! routing via closest-preceding-finger — but maintains finger tables by
//! global recomputation on churn, which is exact and is all a simulation
//! needs (the paper's focus is cache maintenance, not routing-table
//! maintenance).

use std::collections::BTreeSet;

use cup_des::{KeyId, NodeId};

use crate::churn::{ChurnReport, NeighborChange};
use crate::hashing::{key_to_ring, node_to_ring};
use crate::traits::{Overlay, OverlayError};

/// Number of finger-table entries (ring is 2⁶⁴).
const FINGER_BITS: u32 = 64;

/// One Chord participant.
#[derive(Debug, Clone)]
struct ChordNode {
    /// Position on the identifier ring.
    position: u64,
    /// Alive flag (dead nodes keep their slot; ids are never reused).
    alive: bool,
    /// The distinct entries of the finger table, nearest first. Entry
    /// `i` of the classic table is the first node at or after
    /// `position + 2^i`; consecutive entries repeat one node until
    /// `2^i` passes it, so the 64 entries hold about log₂ n distinct
    /// nodes (13.6 at 10k nodes), and routing's closest-preceding scan
    /// finds the same node in this list as in the whole table.
    fingers: Box<[NodeId]>,
    /// The node immediately before us on the ring.
    predecessor: NodeId,
}

/// A Chord overlay.
#[derive(Debug, Clone)]
pub struct ChordOverlay {
    nodes: Vec<ChordNode>,
    /// Live nodes sorted by ring position: `(position, id)`.
    ring: Vec<(u64, NodeId)>,
}

/// Returns `true` if `x` lies in the half-open ring interval `(from, to]`.
fn in_interval_open_closed(from: u64, to: u64, x: u64) -> bool {
    if from < to {
        from < x && x <= to
    } else {
        // Wrapping interval.
        x > from || x <= to
    }
}

/// Returns `true` if `x` lies in the open ring interval `(from, to)`.
fn in_interval_open_open(from: u64, to: u64, x: u64) -> bool {
    if from < to {
        from < x && x < to
    } else {
        x > from || x < to
    }
}

impl ChordOverlay {
    /// Builds a ring of `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::TooFewNodes`] when `n` is zero.
    pub fn build(n: usize) -> Result<Self, OverlayError> {
        if n == 0 {
            return Err(OverlayError::TooFewNodes);
        }
        let mut overlay = ChordOverlay {
            nodes: (0..n)
                .map(|i| ChordNode {
                    position: node_to_ring(i as u32),
                    alive: true,
                    fingers: Box::default(),
                    predecessor: NodeId(0),
                })
                .collect(),
            ring: Vec::new(),
        };
        overlay.rebuild();
        Ok(overlay)
    }

    /// Adds one node to the ring, returning the neighbor-set deltas.
    pub fn join(&mut self) -> ChurnReport {
        let before = self.snapshot_neighbors();
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(ChordNode {
            position: node_to_ring(id.0),
            alive: true,
            fingers: Box::default(),
            predecessor: NodeId(0),
        });
        self.rebuild();
        ChurnReport {
            joined: Some(id),
            departed: None,
            counterpart: Some(self.successor_of_position(self.nodes[id.index()].position)),
            neighbor_changes: self.diff_neighbors(&before),
        }
    }

    /// Removes `node` from the ring.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::NodeNotAlive`] if the node is not alive, or
    /// [`OverlayError::TooFewNodes`] when it is the last node.
    pub fn leave(&mut self, node: NodeId) -> Result<ChurnReport, OverlayError> {
        if !self.is_alive(node) {
            return Err(OverlayError::NodeNotAlive(node));
        }
        if self.ring.len() <= 1 {
            return Err(OverlayError::TooFewNodes);
        }
        let before = self.snapshot_neighbors();
        // The departing node's keys are taken over by its successor.
        let takeover = self.successor_of_position(self.nodes[node.index()].position);
        let gone = &mut self.nodes[node.index()];
        gone.alive = false;
        gone.fingers = Box::default();
        self.rebuild();
        Ok(ChurnReport {
            joined: None,
            departed: Some(node),
            counterpart: Some(takeover),
            neighbor_changes: self.diff_neighbors(&before),
        })
    }

    /// Recomputes the sorted ring, every finger table, and predecessors.
    fn rebuild(&mut self) {
        self.ring = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (n.position, NodeId(i as u32)))
            .collect();
        self.ring.sort_unstable();
        // Each list is built here and boxed once: one heap block a node.
        let mut fingers = Vec::with_capacity(FINGER_BITS as usize);
        for (r, &(pos, id)) in self.ring.iter().enumerate() {
            fingers.clear();
            let mut exp = 0;
            while exp < FINGER_BITS {
                // `successor_of_position(x)` returns the first node with
                // position strictly after x, so pass `target - 1` to make
                // the bound inclusive.
                let target = pos.wrapping_add(1 << exp);
                let finger = self.successor_of_position(target.wrapping_sub(1));
                fingers.push(finger);
                // The finger at offset `o` is also entry `i` for every
                // `2^i <= o`; offset 0 is this node's own position, which
                // every later entry wraps round to.
                let offset = self.nodes[finger.index()].position.wrapping_sub(pos);
                if offset == 0 {
                    break;
                }
                exp = FINGER_BITS - offset.leading_zeros();
            }
            let prev = self.ring[(r + self.ring.len() - 1) % self.ring.len()].1;
            let node = &mut self.nodes[id.index()];
            node.fingers = fingers.as_slice().into();
            node.predecessor = prev;
        }
    }

    /// First live node whose position is strictly after `pos` on the ring
    /// (wrapping).
    ///
    /// Binary search over the sorted ring: at 100k nodes the previous
    /// linear scan made every finger-table rebuild O(n²).
    fn successor_of_position(&self, pos: u64) -> NodeId {
        debug_assert!(!self.ring.is_empty());
        // First index with position > pos; among equal positions this is
        // the lowest id, exactly what the linear scan returned.
        let idx = self.ring.partition_point(|&(p, _)| p <= pos);
        match self.ring.get(idx) {
            Some(&(_, id)) => id,
            None => self.ring[0].1,
        }
    }

    fn snapshot_neighbors(&self) -> Vec<(NodeId, BTreeSet<NodeId>)> {
        self.nodes()
            .into_iter()
            .map(|id| (id, self.neighbors(id).into_iter().collect()))
            .collect()
    }

    fn diff_neighbors(&self, before: &[(NodeId, BTreeSet<NodeId>)]) -> Vec<NeighborChange> {
        let mut changes = Vec::new();
        // Nodes present before: diff old vs new.
        for (id, old) in before {
            let new: BTreeSet<NodeId> = if self.is_alive(*id) {
                self.neighbors(*id).into_iter().collect()
            } else {
                BTreeSet::new()
            };
            let added: Vec<NodeId> = new.difference(old).copied().collect();
            let removed: Vec<NodeId> = old.difference(&new).copied().collect();
            if !added.is_empty() || !removed.is_empty() {
                changes.push(NeighborChange {
                    node: *id,
                    added,
                    removed,
                });
            }
        }
        // Newly joined nodes (not in `before`).
        for id in self.nodes() {
            if before.iter().any(|(b, _)| *b == id) {
                continue;
            }
            let added: Vec<NodeId> = self.neighbors(id);
            if !added.is_empty() {
                changes.push(NeighborChange {
                    node: id,
                    added,
                    removed: Vec::new(),
                });
            }
        }
        changes
    }
}

impl Overlay for ChordOverlay {
    fn len(&self) -> usize {
        self.ring.len()
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.get(node.index()).is_some_and(|n| n.alive)
    }

    fn nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.ring.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }

    fn authority(&self, key: KeyId) -> NodeId {
        assert!(!self.ring.is_empty(), "empty overlay has no authority");
        // A key is owned by the first node at or after its ring position.
        self.successor_of_position(key_to_ring(key).wrapping_sub(1))
    }

    fn next_hop(&self, from: NodeId, key: KeyId) -> Result<Option<NodeId>, OverlayError> {
        if !self.is_alive(from) {
            return Err(OverlayError::NodeNotAlive(from));
        }
        let k = key_to_ring(key);
        let me = &self.nodes[from.index()];
        // We own the key if it lies in (predecessor, us].
        let pred_pos = self.nodes[me.predecessor.index()].position;
        if self.ring.len() == 1 || in_interval_open_closed(pred_pos, me.position, k) {
            return Ok(None);
        }
        // If the key lies between us and our successor, the successor owns
        // it.
        let succ = me.fingers[0];
        let succ_pos = self.nodes[succ.index()].position;
        if in_interval_open_closed(me.position, succ_pos, k) {
            return Ok(Some(succ));
        }
        // Otherwise forward to the closest finger preceding the key.
        let mut best = succ;
        for &f in me.fingers.iter().rev() {
            let fpos = self.nodes[f.index()].position;
            if in_interval_open_open(me.position, k, fpos) {
                best = f;
                break;
            }
        }
        Ok(Some(best))
    }

    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        if !self.is_alive(node) {
            return Vec::new();
        }
        let me = &self.nodes[node.index()];
        let mut set: BTreeSet<NodeId> = me.fingers.iter().copied().collect();
        set.insert(me.predecessor);
        set.remove(&node);
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_places_all_nodes() {
        let overlay = ChordOverlay::build(32).unwrap();
        assert_eq!(overlay.len(), 32);
        assert_eq!(overlay.nodes().len(), 32);
    }

    #[test]
    fn authority_is_successor_of_key() {
        let overlay = ChordOverlay::build(16).unwrap();
        for k in 0..50 {
            let key = KeyId(k);
            let auth = overlay.authority(key);
            let kpos = key_to_ring(key);
            let apos = overlay.nodes[auth.index()].position;
            // No live node lies strictly between the key and its authority.
            for id in overlay.nodes() {
                let pos = overlay.nodes[id.index()].position;
                assert!(
                    !in_interval_open_open(kpos.wrapping_sub(1), apos, pos) || pos == apos,
                    "node {id} at {pos} is closer successor than {auth}"
                );
            }
        }
    }

    #[test]
    fn routing_reaches_authority_in_log_hops() {
        let overlay = ChordOverlay::build(256).unwrap();
        for k in 0..60 {
            let key = KeyId(k);
            let auth = overlay.authority(key);
            let path = overlay.route(NodeId(3), key).unwrap();
            assert_eq!(*path.last().unwrap(), auth);
            assert!(
                path.len() <= 20,
                "path for {key} too long: {} hops",
                path.len() - 1
            );
        }
    }

    #[test]
    fn routing_from_authority_is_empty() {
        let overlay = ChordOverlay::build(8).unwrap();
        let key = KeyId(5);
        let auth = overlay.authority(key);
        assert_eq!(overlay.next_hop(auth, key).unwrap(), None);
    }

    #[test]
    fn churn_preserves_routability() {
        let mut overlay = ChordOverlay::build(32).unwrap();
        overlay.leave(NodeId(4)).unwrap();
        overlay.leave(NodeId(9)).unwrap();
        let report = overlay.join();
        assert!(report.joined.is_some());
        for k in 0..20 {
            let key = KeyId(k);
            let start = *overlay.nodes().first().unwrap();
            let path = overlay.route(start, key).unwrap();
            assert_eq!(*path.last().unwrap(), overlay.authority(key));
        }
    }

    #[test]
    fn leave_moves_authority_to_successor() {
        let mut overlay = ChordOverlay::build(16).unwrap();
        // Find a key and remove its authority; ownership must move to the
        // takeover node named in the report.
        let key = KeyId(3);
        let auth = overlay.authority(key);
        let report = overlay.leave(auth).unwrap();
        assert_eq!(overlay.authority(key), report.counterpart.unwrap());
    }

    #[test]
    fn single_node_owns_everything() {
        let overlay = ChordOverlay::build(1).unwrap();
        for k in 0..10 {
            assert_eq!(overlay.authority(KeyId(k)), NodeId(0));
            assert_eq!(overlay.next_hop(NodeId(0), KeyId(k)).unwrap(), None);
        }
    }

    #[test]
    fn neighbors_exclude_self_and_are_live() {
        let mut overlay = ChordOverlay::build(16).unwrap();
        overlay.leave(NodeId(7)).unwrap();
        for id in overlay.nodes() {
            let nbs = overlay.neighbors(id);
            assert!(!nbs.contains(&id));
            assert!(nbs.iter().all(|&n| overlay.is_alive(n)));
        }
    }

    /// The classic table: entry `i` is the first node at or after
    /// `position + 2^i`, all 64 of them.
    fn full_table(overlay: &ChordOverlay, node: NodeId) -> Vec<NodeId> {
        let pos = overlay.nodes[node.index()].position;
        (0..FINGER_BITS)
            .map(|i| overlay.successor_of_position(pos.wrapping_add(1 << i).wrapping_sub(1)))
            .collect()
    }

    /// Closest-preceding-finger routing over the whole table.
    fn next_hop_over(overlay: &ChordOverlay, from: NodeId, key: KeyId) -> Option<NodeId> {
        let table = full_table(overlay, from);
        let k = key_to_ring(key);
        let me = &overlay.nodes[from.index()];
        let at = overlay.ring.binary_search(&(me.position, from)).unwrap();
        let pred = overlay.ring[at.checked_sub(1).unwrap_or(overlay.ring.len() - 1)].1;
        let pred_pos = overlay.nodes[pred.index()].position;
        if overlay.ring.len() == 1 || in_interval_open_closed(pred_pos, me.position, k) {
            return None;
        }
        let succ_pos = overlay.nodes[table[0].index()].position;
        if in_interval_open_closed(me.position, succ_pos, k) {
            return Some(table[0]);
        }
        let preceding = table
            .iter()
            .rev()
            .find(|f| in_interval_open_open(me.position, k, overlay.nodes[f.index()].position));
        Some(*preceding.unwrap_or(&table[0]))
    }

    /// Each node keeps exactly the distinct entries of its 64-entry
    /// table, and routes every key where the whole table would.
    fn assert_matches_the_full_table(overlay: &ChordOverlay) {
        for id in overlay.nodes() {
            let mut distinct = full_table(overlay, id);
            distinct.dedup();
            assert_eq!(*overlay.nodes[id.index()].fingers, *distinct, "{id}");
            for k in 0..64 {
                let key = KeyId(k);
                assert_eq!(
                    overlay.next_hop(id, key).unwrap(),
                    next_hop_over(overlay, id, key),
                    "{id} toward {key}"
                );
            }
        }
    }

    #[test]
    fn distinct_fingers_route_like_the_full_table() {
        for n in [1, 2, 3, 5, 17, 256, 3000] {
            let mut overlay = ChordOverlay::build(n).unwrap();
            assert_matches_the_full_table(&overlay);
            if n > 1 {
                overlay.leave(NodeId(n as u32 / 2)).unwrap();
                assert_matches_the_full_table(&overlay);
            }
            overlay.join();
            assert_matches_the_full_table(&overlay);
        }
    }

    #[test]
    fn interval_logic() {
        assert!(in_interval_open_closed(5, 10, 7));
        assert!(in_interval_open_closed(5, 10, 10));
        assert!(!in_interval_open_closed(5, 10, 5));
        // Wrapping interval (from > to).
        assert!(in_interval_open_closed(10, 5, 12));
        assert!(in_interval_open_closed(10, 5, 3));
        assert!(!in_interval_open_closed(10, 5, 7));
        assert!(!in_interval_open_open(5, 10, 10));
    }
}
