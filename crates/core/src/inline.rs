//! The small-vector type behind a key's waiter and tombstone lists.
//!
//! A node keeps short lists per cached key — while a miss waits, the
//! waiting clients and requesters; with the audit on, the delete
//! tombstones — and in the measured workloads nearly all of them hold a
//! handful of items (see the capacities in [`crate::keystate`]). The
//! record's own two lists, the cached entries and the interested
//! neighbors, keep their spilled form in the record's side box instead
//! (`crate::keystate::ListMut`). An [`InlineVec`] stores up to `N` items in
//! place and owns no heap memory until the `N + 1`-th arrives; it then
//! spills to one boxed `Vec`, and moves back in place when removals
//! bring it to `N` items again. The box keeps the spilled form one
//! pointer wide, so the type costs its inline array plus one word of
//! bookkeeping.
//!
//! Items are `Copy + Default` so the array can be filled and shifted
//! without `unsafe`; slots past `len` hold leftovers that no accessor
//! exposes. Everything readable goes through the slice it derefs to.

use std::ops::{Deref, DerefMut};

use crate::keystate::vec_bytes;

/// Up to `N` items in place, any number behind one boxed `Vec`.
#[derive(Debug, Clone)]
pub(crate) enum InlineVec<T, const N: usize> {
    /// `items[..len]` are the contents.
    Inline { len: u8, items: [T; N] },
    /// More than `N` items (never fewer: removals move back in place).
    // A `Vec` here would make every list three words wide for the sake
    // of the rare spilled one.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<T>>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::from_slice(&[])
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..usize::from(*len)],
            InlineVec::Spilled(vec) => vec,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, items } => &mut items[..usize::from(*len)],
            InlineVec::Spilled(vec) => vec,
        }
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// A list holding a copy of `items`.
    pub(crate) fn from_slice(items: &[T]) -> Self {
        const { assert!(N <= u8::MAX as usize) };
        if items.len() > N {
            return InlineVec::Spilled(Box::new(items.to_vec()));
        }
        let mut inline = [T::default(); N];
        inline[..items.len()].copy_from_slice(items);
        InlineVec::Inline {
            len: items.len() as u8,
            items: inline,
        }
    }

    /// Appends `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Inserts `item` at `index`, shifting what follows.
    ///
    /// # Panics
    ///
    /// If `index > len`, like `Vec::insert`.
    pub(crate) fn insert(&mut self, index: usize, item: T) {
        match self {
            InlineVec::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(index <= n, "insertion index {index} past length {n}");
                if n < N {
                    items.copy_within(index..n, index + 1);
                    items[index] = item;
                    *len += 1;
                } else {
                    let mut vec = Vec::with_capacity(2 * N.max(1));
                    vec.extend_from_slice(&items[..index]);
                    vec.push(item);
                    vec.extend_from_slice(&items[index..]);
                    *self = InlineVec::Spilled(Box::new(vec));
                }
            }
            InlineVec::Spilled(vec) => vec.insert(index, item),
        }
    }

    /// Removes and returns the item at `index`, shifting what follows.
    ///
    /// # Panics
    ///
    /// If `index >= len`, like `Vec::remove`.
    pub(crate) fn remove(&mut self, index: usize) -> T {
        match self {
            InlineVec::Inline { len, items } => {
                let n = usize::from(*len);
                assert!(index < n, "removal index {index} past length {n}");
                let item = items[index];
                items.copy_within(index + 1..n, index);
                *len -= 1;
                item
            }
            InlineVec::Spilled(vec) => {
                let item = vec.remove(index);
                self.unspill();
                item
            }
        }
    }

    /// Keeps only the items `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            InlineVec::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            InlineVec::Spilled(vec) => {
                vec.retain(keep);
                self.unspill();
            }
        }
    }

    /// Moves a spilled list that fits again back in place.
    fn unspill(&mut self) {
        if let InlineVec::Spilled(vec) = self {
            if vec.len() <= N {
                *self = InlineVec::from_slice(vec);
            }
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Heap bytes the list owns: none in place, the box and its buffer
    /// once spilled.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            InlineVec::Inline { .. } => 0,
            InlineVec::Spilled(vec) => std::mem::size_of::<Vec<T>>() + vec_bytes(vec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Small = InlineVec<u32, 3>;

    fn spilled(v: &Small) -> bool {
        matches!(v, InlineVec::Spilled(_))
    }

    #[test]
    fn spills_past_capacity_and_moves_back() {
        let mut v = Small::default();
        assert!(v.is_empty());
        for i in 0..3 {
            v.push(i);
            assert!(!spilled(&v), "{} items fit in place", i + 1);
        }
        v.push(3);
        assert!(spilled(&v), "the fourth item spills");
        assert_eq!(&*v, &[0, 1, 2, 3]);
        assert_eq!(v.remove(1), 1);
        assert!(!spilled(&v), "back at capacity, back in place");
        assert_eq!(&*v, &[0, 2, 3]);
    }

    #[test]
    fn equality_ignores_representation_and_leftover_slots() {
        let mut a = Small::from_slice(&[1, 2, 3]);
        a.remove(2);
        assert_eq!(a, Small::from_slice(&[1, 2]), "slot 2 still holds a 3");
        let mut b = Small::from_slice(&[1, 2, 3, 4]);
        assert!(spilled(&b));
        b.retain(|&x| x <= 2);
        assert!(!spilled(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn insert_at_capacity_keeps_order() {
        let mut v = Small::from_slice(&[10, 30, 40]);
        v.insert(1, 20);
        assert_eq!(&*v, &[10, 20, 30, 40]);
        v.insert(0, 5);
        assert_eq!(&*v, &[5, 10, 20, 30, 40]);
    }

    proptest! {
        /// Every operation agrees with a `Vec` model, and the list is
        /// spilled exactly while it holds more than its capacity (the
        /// sequences hover around it, crossing in both directions).
        #[test]
        fn matches_a_vec_model(ops in proptest::collection::vec((0u32..6, 0u32..8, 0u32..100), 0..200)) {
            let mut v = Small::default();
            let mut model: Vec<u32> = Vec::new();
            for (op, at, item) in ops {
                match op {
                    0 | 1 => {
                        v.push(item);
                        model.push(item);
                    }
                    2 => {
                        let i = at as usize % (model.len() + 1);
                        v.insert(i, item);
                        model.insert(i, item);
                    }
                    3 if !model.is_empty() => {
                        let i = at as usize % model.len();
                        prop_assert_eq!(v.remove(i), model.remove(i));
                    }
                    4 => {
                        v.retain(|&x| x % (at + 2) != 0);
                        model.retain(|&x| x % (at + 2) != 0);
                    }
                    5 if at == 0 => {
                        v = Small::default();
                        model.clear();
                    }
                    _ => {
                        v = Small::from_slice(&model);
                    }
                }
                prop_assert_eq!(&*v, model.as_slice());
                prop_assert_eq!(spilled(&v), model.len() > 3);
                prop_assert_eq!(v.contains(&item), model.contains(&item));
            }
        }
    }
}
