//! Per-key interest tracking: which neighbors want updates for a key.
//!
//! The paper stores this as a bit vector with one bit per neighbor plus a
//! mapping from bit position to neighbor address, and describes the
//! patching needed when neighborhoods change (§2.9). We store the
//! equivalent *set of interested neighbor ids*: semantically identical
//! (a neighbor is either interested or not), and churn patching becomes
//! plain set operations instead of bit-vector surgery. The paper itself
//! notes this bookkeeping is local and "involves no network overhead".
//!
//! The set is a sorted `InlineVec` (`crate::inline`) of four ids: at the
//! end of the four ledger workloads at most four neighbors are
//! interested in 99.9 % of a CAN node's keys and 97–99 % of a Chord
//! node's (none or one in 82–96 %), so the set owns no heap memory in
//! the common case and copying it is a 24-byte stack copy. Keeping it
//! sorted makes iteration ascending, which is the order updates are
//! forwarded in and therefore part of the sim-vs-live byte identity.

use cup_des::NodeId;

use crate::inline::InlineVec;

/// Interested neighbors a key holds in place (see the module docs).
const INLINE_INTEREST: usize = 4;

/// The set of neighbors interested in updates for one key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterestSet {
    /// Ascending, no duplicates.
    interested: InlineVec<NodeId, INLINE_INTEREST>,
}

impl InterestSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        InterestSet::default()
    }

    /// Marks `neighbor` as interested (sets its bit).
    pub fn set(&mut self, neighbor: NodeId) {
        if let Err(at) = self.interested.binary_search(&neighbor) {
            self.interested.insert(at, neighbor);
        }
    }

    /// Clears `neighbor`'s interest (a Clear-Bit message arrived, or the
    /// neighbor departed). Returns `true` if it was set.
    pub fn clear(&mut self, neighbor: NodeId) -> bool {
        match self.interested.binary_search(&neighbor) {
            Ok(at) => {
                self.interested.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns `true` if `neighbor` is interested.
    pub fn contains(&self, neighbor: NodeId) -> bool {
        self.interested.binary_search(&neighbor).is_ok()
    }

    /// Returns `true` if no neighbor is interested.
    pub fn is_empty(&self) -> bool {
        self.interested.is_empty()
    }

    /// Number of interested neighbors.
    pub fn len(&self) -> usize {
        self.interested.len()
    }

    /// Iterates the interested neighbors in ascending id order (the
    /// deterministic order keeps simulations reproducible).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.interested.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_contains() {
        let mut s = InterestSet::new();
        assert!(s.is_empty());
        s.set(NodeId(3));
        s.set(NodeId(3));
        s.set(NodeId(5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(3)));
        assert!(!s.contains(NodeId(4)));
        assert!(s.clear(NodeId(3)));
        assert!(!s.clear(NodeId(3)), "second clear is a no-op");
        assert!(!s.contains(NodeId(3)));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = InterestSet::new();
        s.set(NodeId(9));
        s.set(NodeId(1));
        s.set(NodeId(4));
        let order: Vec<NodeId> = s.iter().collect();
        assert_eq!(order, vec![NodeId(1), NodeId(4), NodeId(9)]);
    }

    /// The model: a plain `Vec` kept sorted and free of duplicates.
    fn model_set(model: &mut Vec<NodeId>, n: NodeId) {
        if !model.contains(&n) {
            model.push(n);
            model.sort_unstable();
        }
    }

    fn model_clear(model: &mut Vec<NodeId>, n: NodeId) -> bool {
        let before = model.len();
        model.retain(|&m| m != n);
        model.len() < before
    }

    proptest::proptest! {
        /// Random set / clear sequences against the model, over enough
        /// ids to spill past the inline capacity and come back:
        /// membership, length and ascending iteration agree after every
        /// step.
        #[test]
        fn matches_a_sorted_vec_model(ops in proptest::collection::vec((0u32..3, 0u32..10), 0..160)) {
            let mut set = InterestSet::new();
            let mut model: Vec<NodeId> = Vec::new();
            for (op, a) in ops {
                let a = NodeId(a);
                if op < 2 {
                    set.set(a);
                    model_set(&mut model, a);
                } else {
                    proptest::prop_assert_eq!(set.clear(a), model_clear(&mut model, a));
                }
                proptest::prop_assert_eq!(set.len(), model.len());
                proptest::prop_assert_eq!(set.is_empty(), model.is_empty());
                proptest::prop_assert_eq!(set.contains(a), model.contains(&a));
                proptest::prop_assert!(set.iter().eq(model.iter().copied()), "ascending, no duplicates");
            }
        }
    }
}
