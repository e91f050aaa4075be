//! A node's per-key records: one sorted key table per [`crate::CupNode`].
//!
//! Every message a node handles starts by finding its key's
//! [`KeyState`], and a node holds tens to a few hundred keys, so the
//! table is two flat arrays instead of a hash map: the `(key, slot)`
//! index sorted by key and searched by bisection, and the records
//! themselves in arrival order. A new key shifts eight-byte index pairs,
//! never 144-byte records; records are never moved or removed, so a
//! slot, once handed out, names its record for the node's lifetime.
//! Iteration is in arrival order — a fixed order, unlike a hash map's.

use cup_des::KeyId;

use crate::keystate::KeyState;

/// The per-key records of one node, found by key.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    /// `(key, slot)` pairs, ascending by key; `slot` indexes `records`.
    index: Vec<(KeyId, u32)>,
    /// One record per key, in the order the keys were first seen.
    records: Vec<KeyState>,
}

impl KeyTable {
    /// Position of `key` in the index, or where it would be inserted.
    fn find(&self, key: KeyId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The record for `key`, if the node has seen the key.
    pub(crate) fn get(&self, key: KeyId) -> Option<&KeyState> {
        let at = self.find(key).ok()?;
        self.records.get(self.index[at].1 as usize)
    }

    /// Mutable access to the record for `key`, if there is one.
    pub(crate) fn get_mut(&mut self, key: KeyId) -> Option<&mut KeyState> {
        let at = self.find(key).ok()?;
        self.records.get_mut(self.index[at].1 as usize)
    }

    /// The record for `key`, created empty on first sight.
    pub(crate) fn get_or_default(&mut self, key: KeyId) -> &mut KeyState {
        let slot = match self.find(key) {
            Ok(at) => self.index[at].1 as usize,
            Err(at) => {
                let slot = self.records.len();
                // Keys are 32-bit, so a slot always fits beside one.
                self.index.insert(at, (key, slot as u32));
                self.records.push(KeyState::default());
                slot
            }
        };
        &mut self.records[slot]
    }

    /// Every record, in the order the keys were first seen.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut KeyState> {
        self.records.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn keys_are_found_whatever_order_they_arrive_in() {
        let mut t = KeyTable::default();
        for (i, k) in [9u32, 2, 7, 0, 4].into_iter().enumerate() {
            t.get_or_default(KeyId(k)).last_depth = i as u32;
        }
        assert_eq!(t.get(KeyId(7)).map(|st| st.last_depth), Some(2));
        assert_eq!(t.get(KeyId(0)).map(|st| st.last_depth), Some(3));
        assert!(t.get(KeyId(3)).is_none());
        assert!(t.get_mut(KeyId(10)).is_none());
        // Seeing a key again neither duplicates nor resets it.
        assert_eq!(t.get_or_default(KeyId(9)).last_depth, 0);
        assert_eq!(t.values_mut().count(), 5);
        let arrival: Vec<u32> = t.values_mut().map(|st| st.last_depth).collect();
        assert_eq!(arrival, vec![0, 1, 2, 3, 4], "records keep arrival order");
    }

    proptest! {
        /// Random insert / lookup / write sequences agree with a
        /// `BTreeMap` model, the index stays strictly ascending, and
        /// iteration visits each record once in first-seen order.
        #[test]
        fn matches_a_btreemap_model(ops in proptest::collection::vec((0u32..3, 0u32..48, 0u32..1_000), 0..300)) {
            let mut table = KeyTable::default();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            let mut first_seen: Vec<u32> = Vec::new();
            for (op, key, value) in ops {
                match op {
                    0 => {
                        if !model.contains_key(&key) {
                            first_seen.push(key);
                        }
                        let st = table.get_or_default(KeyId(key));
                        prop_assert_eq!(st.last_depth, model.get(&key).copied().unwrap_or(0));
                        st.last_depth = value;
                        model.insert(key, value);
                    }
                    1 => {
                        let got = table.get(KeyId(key)).map(|st| st.last_depth);
                        prop_assert_eq!(got, model.get(&key).copied());
                    }
                    _ => {
                        if let Some(st) = table.get_mut(KeyId(key)) {
                            st.last_depth = value;
                        }
                        if let Some(v) = model.get_mut(&key) {
                            *v = value;
                        }
                    }
                }
                prop_assert!(table.index.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert_eq!(table.index.len(), model.len());
            }
            let walked: Vec<u32> = table.values_mut().map(|st| st.last_depth).collect();
            let expected: Vec<u32> = first_seen.iter().map(|k| model[k]).collect();
            prop_assert_eq!(walked, expected);
        }
    }
}
