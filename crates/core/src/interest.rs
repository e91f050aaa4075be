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
//! The set is a sorted list in the key's record ([`KeyState::interest`]),
//! three ids in place: at the end of a seed-1 run, three or fewer
//! neighbors are interested in 99.94 % of `live_plain_can`'s records and
//! 98.5 % of `live_armed_chord`'s (none or one in 82–96 % across the
//! four ledger workloads), so the set owns no heap memory in the common
//! case; a longer one moves whole into the record's side box (see
//! [`crate::keystate`]). A fourth in-place id would cost every record 4
//! bytes, 8 with the record's alignment, to keep the other 0.06–1.5 %
//! out of the box. A handler forwards an
//! update by reading the set where it lies, as a slice, so no path
//! copies it. Keeping it sorted makes iteration ascending, which is the
//! order updates are forwarded in and therefore part of the sim-vs-live
//! byte identity.

use cup_des::NodeId;

use crate::keystate::KeyState;

impl KeyState {
    /// Marks `neighbor` as interested (sets its bit).
    pub(crate) fn set_interest(&mut self, neighbor: NodeId) {
        if let Err(at) = self.interest().binary_search(&neighbor) {
            self.interest_mut().insert(at, neighbor);
        }
    }

    /// Clears `neighbor`'s interest (a Clear-Bit message arrived, or the
    /// neighbor departed). Returns `true` if it was set.
    pub(crate) fn clear_interest(&mut self, neighbor: NodeId) -> bool {
        let set = self.interest().binary_search(&neighbor).is_ok();
        if set {
            self.interest_mut().retain(|&n| n != neighbor);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::KeyId;

    #[test]
    fn set_clear_contains() {
        let mut s = KeyState::new(KeyId(1));
        assert!(s.interest().is_empty());
        s.set_interest(NodeId(3));
        s.set_interest(NodeId(3));
        s.set_interest(NodeId(5));
        assert_eq!(s.interest().len(), 2);
        assert!(s.interest().contains(&NodeId(3)));
        assert!(!s.interest().contains(&NodeId(4)));
        assert!(s.clear_interest(NodeId(3)));
        assert!(!s.clear_interest(NodeId(3)), "second clear is a no-op");
        assert!(!s.interest().contains(&NodeId(3)));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = KeyState::new(KeyId(1));
        s.set_interest(NodeId(9));
        s.set_interest(NodeId(1));
        s.set_interest(NodeId(4));
        assert_eq!(s.interest(), [NodeId(1), NodeId(4), NodeId(9)]);
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
        /// ids to spill past the in-place capacity and come back:
        /// membership, length and ascending iteration agree after every
        /// step.
        #[test]
        fn matches_a_sorted_vec_model(ops in proptest::collection::vec((0u32..3, 0u32..10), 0..160)) {
            let mut set = KeyState::new(KeyId(1));
            let mut model: Vec<NodeId> = Vec::new();
            for (op, a) in ops {
                let a = NodeId(a);
                if op < 2 {
                    set.set_interest(a);
                    model_set(&mut model, a);
                } else {
                    proptest::prop_assert_eq!(set.clear_interest(a), model_clear(&mut model, a));
                }
                proptest::prop_assert_eq!(set.interest(), model.as_slice(), "ascending, no duplicates");
                proptest::prop_assert_eq!(set.interest().contains(&a), model.contains(&a));
            }
        }
    }
}
