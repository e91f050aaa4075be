//! A node's per-key records: one hashed key table per [`crate::CupNode`].
//!
//! Every message a node handles starts by finding its key's
//! [`KeyState`], so the lookup is the first link in each hop's chain of
//! cache misses (node → index → record). The table is two flat arrays:
//!
//! * **records**, one per key in the order the keys were first seen.
//!   Records are never removed or reordered, so a slot, once handed
//!   out, names its record for the node's lifetime, and iteration is
//!   arrival order — a fixed order, unlike a hash map's. A full array
//!   grows by a quarter of its length (at least four records), not by
//!   doubling: records are the bulk of a node's memory, and a doubled
//!   array left 30 % of its slots empty at the end of a `live_plain_can`
//!   run (1.21 M records in 1.72 M slots). A quarter step bounds the
//!   slack at one record in five, for more frequent reallocations:
//!   `simnet.allocs_per_event` read 0.706 → 0.733 and 0.739 → 0.756 on
//!   the two DES ledger workloads (+2–4 %).
//! * **index**, an open-addressed table of 4-byte words probed linearly
//!   and never more than three quarters full. A word holds a slot + 1
//!   (0 is empty) over eight tag bits of the key's hash; a lookup reads
//!   a few adjacent words, sixteen to a line, and confirms a tag match
//!   against the key in the record's entry slot (`KeyState::key`) — one
//!   index line, rarely two, before the record, where bisecting sorted
//!   `(key, slot)` pairs read about four dependent ones.
//!
//! Why hashing changes nothing observable: the hash decides only where a
//! word sits in the index, and nothing reads the index's order. What
//! the handlers and [`KeyTable::values_mut`] see — the records, their
//! order, their contents — depends only on which keys arrived when, so
//! every statistic, the golden fixture and sim-vs-live conformance are
//! what the sorted index produced, byte for byte. The index doubles
//! when a new key would take it past three quarters full: at 4 bytes a
//! word against 56 a record, a finer step is not worth its slack, but
//! half full (the rule before) left the index half again as large on
//! `live_plain_can` at seed 1 (13.2 MiB against 8.8). The index sits
//! between ⅜ and ¾ full, and a hit in a linearly probed table at ¾ load
//! reads 2.5 words on average (1.5 at ½). Keys are the program's own
//! ids, not outside input, so a fixed hash that a chosen key set could
//! cluster is enough.

use cup_des::KeyId;

use crate::keystate::{vec_bytes, KeyState};

/// Low bits of an index word: the tag, the low bits of the key's hash.
const TAG_BITS: u32 = 8;

/// Mask of the tag bits.
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;

/// Words in the first index a table allocates.
const MIN_WORDS: usize = 8;

/// The fewest records the record array grows by (its first size too).
const MIN_GROWTH: usize = 4;

/// The most keys one table holds: a slot + 1 must fit above the tag.
/// (At 56 bytes a record, that is 940 MB of records for one node.)
const MAX_KEYS: usize = (u32::MAX >> TAG_BITS) as usize;

/// The per-key records of one node, found by key.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    /// `(slot + 1) << TAG_BITS | tag` per occupied word, 0 for an empty
    /// one; the length is a power of two (or 0 before the first key) and
    /// at least four thirds of `records.len()`.
    index: Box<[u32]>,
    /// One record per key, in the order the keys were first seen; the
    /// capacity is at most [`growth`]`(len)` past the length.
    records: Vec<KeyState>,
}

/// Fibonacci hashing: a multiplication by an odd constant is a bijection
/// on `u32`, and its top bits are well mixed even for dense keys.
fn hash(key: KeyId) -> u32 {
    key.0.wrapping_mul(0x9E37_79B9)
}

/// Where `hash`'s probe starts in an index of `words` words (a power of
/// two): its top bits.
fn home(hash: u32, words: usize) -> usize {
    ((u64::from(hash) * words as u64) >> 32) as usize
}

/// The index word of the record in `slot` (below [`MAX_KEYS`]) whose key
/// hashes to `hash`.
fn word(slot: usize, hash: u32) -> u32 {
    ((slot as u32 + 1) << TAG_BITS) | (hash & TAG_MASK)
}

/// Records a full array of `len` grows by: a quarter, and never fewer
/// than [`MIN_GROWTH`].
fn growth(len: usize) -> usize {
    (len / 4).max(MIN_GROWTH)
}

/// The first empty word on `hash`'s probe sequence. The index is at most
/// three quarters full, so there is one.
fn vacant(index: &[u32], hash: u32) -> usize {
    let mask = index.len() - 1;
    let mut pos = home(hash, index.len());
    while index[pos] != 0 {
        pos = (pos + 1) & mask;
    }
    pos
}

impl KeyTable {
    /// The slot of `key`'s record, or the empty word where `key` would
    /// be indexed (meaningless while the index is empty).
    fn find(&self, key: KeyId) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let h = hash(key);
        let mask = self.index.len() - 1;
        let mut pos = home(h, self.index.len());
        loop {
            let w = self.index[pos];
            if w == 0 {
                return Err(pos);
            }
            if w & TAG_MASK == h & TAG_MASK {
                let slot = (w >> TAG_BITS) as usize - 1;
                if self.records[slot].key() == key {
                    return Ok(slot);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The record for `key`, if the node has seen the key.
    pub(crate) fn get(&self, key: KeyId) -> Option<&KeyState> {
        let slot = self.find(key).ok()?;
        self.records.get(slot)
    }

    /// Mutable access to the record for `key`, if there is one.
    pub(crate) fn get_mut(&mut self, key: KeyId) -> Option<&mut KeyState> {
        let slot = self.find(key).ok()?;
        self.records.get_mut(slot)
    }

    /// The record for `key`, created empty on first sight.
    pub(crate) fn get_or_default(&mut self, key: KeyId) -> &mut KeyState {
        let slot = match self.find(key) {
            Ok(slot) => slot,
            Err(mut pos) => {
                let slot = self.records.len();
                assert!(
                    slot < MAX_KEYS,
                    "a node's key table holds at most {MAX_KEYS} keys"
                );
                let h = hash(key);
                if 4 * (slot + 1) > 3 * self.index.len() {
                    self.grow();
                    pos = vacant(&self.index, h);
                }
                self.index[pos] = word(slot, h);
                if slot == self.records.capacity() {
                    self.records.reserve_exact(growth(slot));
                }
                self.records.push(KeyState::new(key));
                slot
            }
        };
        &mut self.records[slot]
    }

    /// Doubles the index and re-indexes every record, in slot order.
    fn grow(&mut self) {
        let mut index = vec![0u32; (2 * self.index.len()).max(MIN_WORDS)].into_boxed_slice();
        for (slot, st) in self.records.iter().enumerate() {
            let h = hash(st.key());
            let pos = vacant(&index, h);
            index[pos] = word(slot, h);
        }
        self.index = index;
    }

    /// Every record, in the order the keys were first seen.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut KeyState> {
        self.records.iter_mut()
    }

    /// Heap bytes the table owns: its index, its record array (every
    /// slot, used or not) and each record's side box with everything in
    /// it.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.index)
            + vec_bytes(&self.records)
            + self.records.iter().map(KeyState::heap_bytes).sum::<usize>()
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
            t.get_or_default(KeyId(k)).last_depth = i as u16;
        }
        assert_eq!(t.get(KeyId(7)).map(|st| st.last_depth), Some(2));
        assert_eq!(t.get(KeyId(0)).map(|st| st.last_depth), Some(3));
        assert!(t.get(KeyId(3)).is_none());
        assert!(t.get_mut(KeyId(10)).is_none());
        // Seeing a key again neither duplicates nor resets it.
        assert_eq!(t.get_or_default(KeyId(9)).last_depth, 0);
        assert_eq!(t.values_mut().count(), 5);
        let arrival: Vec<u16> = t.values_mut().map(|st| st.last_depth).collect();
        assert_eq!(arrival, vec![0, 1, 2, 3, 4], "records keep arrival order");
    }

    #[test]
    fn an_empty_table_finds_nothing_and_owns_no_index() {
        let mut t = KeyTable::default();
        assert!(t.get(KeyId(0)).is_none());
        assert!(t.get_mut(KeyId(u32::MAX)).is_none());
        assert!(t.index.is_empty());
        t.get_or_default(KeyId(u32::MAX));
        assert_eq!(t.index.len(), MIN_WORDS);
    }

    /// `n` (≤ 4 096) distinct keys whose hashes agree on their top 12
    /// bits and on the tag, i.e. that share one home word in every index
    /// of up to 4 096 words and that no tag tells apart: hashes with only
    /// the bits in between varying, mapped back through the hash's
    /// inverse.
    fn colliding_keys(n: u32) -> Vec<u32> {
        // 0x9E37_79B9 · 0x144C_BC89 ≡ 1 (mod 2³²).
        const INVERSE: u32 = 0x144C_BC89;
        assert!(n <= 1 << 12);
        (0..n)
            .map(|i| (0xA5C0_0000 | (i << TAG_BITS) | 0x5A).wrapping_mul(INVERSE))
            .collect()
    }

    #[test]
    fn colliding_keys_really_collide() {
        assert_eq!(0x9E37_79B9u32.wrapping_mul(0x144C_BC89), 1);
        let keys = colliding_keys(600);
        let hashes: Vec<u32> = keys.iter().map(|&k| hash(KeyId(k))).collect();
        for words in [8, 512, 1 << 12] {
            assert!(hashes
                .iter()
                .all(|&h| home(h, words) == home(hashes[0], words)));
        }
        assert!(hashes.iter().all(|&h| h & TAG_MASK == 0x5A));
    }

    /// The index is at most three quarters full, a power of two, and maps
    /// every record's key to its own slot.
    fn check_index(table: &KeyTable) -> Result<(), TestCaseError> {
        let words = table.index.len();
        prop_assert!(words == 0 || words.is_power_of_two());
        prop_assert!(4 * table.records.len() <= 3 * words);
        prop_assert_eq!(
            table.index.iter().filter(|&&w| w != 0).count(),
            table.records.len()
        );
        for (slot, st) in table.records.iter().enumerate() {
            prop_assert_eq!(table.find(st.key()), Ok(slot));
        }
        Ok(())
    }

    /// Random insert / lookup / write sequences agree with a `BTreeMap`
    /// model, and iteration visits each record once in first-seen order —
    /// checked after every operation, so across every growth.
    fn run_model(ops: Vec<(u32, u32, u16)>, keys: &[u32]) -> Result<(), TestCaseError> {
        let mut table = KeyTable::default();
        let mut model: BTreeMap<u32, u16> = BTreeMap::new();
        let mut first_seen: Vec<u32> = Vec::new();
        for (op, key, value) in ops {
            let key = keys[key as usize % keys.len()];
            match op {
                0 => {
                    if !model.contains_key(&key) {
                        first_seen.push(key);
                    }
                    let st = table.get_or_default(KeyId(key));
                    prop_assert_eq!(st.key(), KeyId(key));
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
            prop_assert_eq!(table.records.len(), model.len());
            let walked: Vec<u16> = table.values_mut().map(|st| st.last_depth).collect();
            let expected: Vec<u16> = first_seen.iter().map(|k| model[k]).collect();
            prop_assert_eq!(walked, expected);
        }
        check_index(&table)
    }

    proptest! {
        #[test]
        fn matches_a_btreemap_model(ops in proptest::collection::vec((0u32..3, 0u32..48, 0u16..1_000), 0..300)) {
            let keys: Vec<u32> = (0..48).collect();
            run_model(ops, &keys)?;
        }

        /// Keys that share a home word and a tag: every lookup walks the
        /// cluster and only the record's key tells them apart.
        #[test]
        fn matches_the_model_when_every_key_collides(ops in proptest::collection::vec((0u32..3, 0u32..40, 0u16..1_000), 0..200)) {
            run_model(ops, &colliding_keys(40))?;
        }

        /// Sparse keys across the whole `u32` range, mixed with colliding
        /// ones.
        #[test]
        fn matches_the_model_on_sparse_and_colliding_keys(
            ops in proptest::collection::vec((0u32..3, 0u32..64, 0u16..1_000), 0..300),
            sparse in proptest::collection::vec(0u32..u32::MAX, 32),
        ) {
            let mut keys = colliding_keys(32);
            keys.extend(sparse);
            run_model(ops, &keys)?;
        }
    }

    /// The record array holds at most a quarter (at least four) more
    /// slots than records.
    fn assert_slack_bounded(table: &KeyTable) {
        let (len, cap) = (table.records.len(), table.records.capacity());
        assert!(
            cap <= len + (len / 4).max(4),
            "{len} records in {cap} slots"
        );
    }

    #[test]
    fn the_record_array_grows_by_a_quarter() {
        let mut table = KeyTable::default();
        assert_eq!(table.records.capacity(), 0, "nothing before the first key");
        let mut capacities = Vec::new();
        for k in 0..600 {
            table.get_or_default(KeyId(k));
            assert_slack_bounded(&table);
            let cap = table.records.capacity();
            if capacities.last() != Some(&cap) {
                capacities.push(cap);
            }
        }
        assert_eq!(capacities[..8], [4, 8, 12, 16, 20, 25, 31, 38]);
        assert_eq!(capacities.len(), 21, "{capacities:?}");
        assert_eq!(capacities.last(), Some(&663));
    }

    #[test]
    fn growth_keeps_every_key_and_arrival_order_across_each_rehash() {
        for keys in [(0..600).collect::<Vec<u32>>(), colliding_keys(600)] {
            let mut table = KeyTable::default();
            let mut words_seen = Vec::new();
            for (n, &k) in keys.iter().enumerate() {
                table.get_or_default(KeyId(k)).last_depth = n as u16;
                assert_slack_bounded(&table);
                let words = table.index.len();
                if words_seen.last() != Some(&words) {
                    words_seen.push(words);
                }
                // Load ≤ ¾: 192 keys fit 256 words, the 193rd doubles.
                match n + 1 {
                    191 | 192 => assert_eq!(words, 256),
                    193 => assert_eq!(words, 512),
                    _ => {}
                }
                if (n + 1).is_power_of_two() || matches!(n + 1, 191..=193) {
                    check_index(&table).unwrap();
                    for (i, &k) in keys[..=n].iter().enumerate() {
                        assert_eq!(table.get(KeyId(k)).map(|st| st.last_depth), Some(i as u16));
                    }
                    let arrival: Vec<u16> = table.values_mut().map(|st| st.last_depth).collect();
                    assert_eq!(arrival, (0..=n as u16).collect::<Vec<_>>());
                }
            }
            assert_eq!(words_seen, vec![8, 16, 32, 64, 128, 256, 512, 1024]);
        }
    }
}
