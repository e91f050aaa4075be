//! Justified-update accounting (§3.1) — shared by both runtimes.
//!
//! An update pushed down to node N with critical window T is *justified*
//! if at least one query for the key is posted within T anywhere in the
//! virtual subtree V(N, K) — the set of nodes whose (virtual) query path
//! to the authority passes through N. Because overlay routing is
//! deterministic, V(N, K) membership is decidable per query: when a query
//! for K is posted at X, every node on the virtual path X → authority has
//! X in its subtree. The tracker therefore records open windows per
//! `(node, key)` and marks them justified as queries walk their virtual
//! paths.
//!
//! The tracker lives in `cup-core` so the DES harness (`cup-simnet`) and
//! the sharded live runtime (`cup-runtime`) report the same
//! investment-return metric from the same code — the accounting is part
//! of the protocol's decision plane, not a simulation-only analysis.
//!
//! # Storage
//!
//! Every maintenance update and every node of every posted query's path
//! is one probe here, so the store is a hashed table with no heap block
//! per slot: the `(node, key)` pair hashes multiplicatively
//! (`PairHasher`; the ids are dense indices this program assigned, not
//! outside input, so nobody can craft collisions) and the slot's windows
//! sit in the table itself, two in place before a list spills. A window
//! is its two instants: the query that justifies it removes it in the
//! same call, so there is no justified-but-still-held state to flag.
//!
//! A hashed table keeps the two runtimes byte-identical because **no
//! result reads its iteration order**: updates and queries are point
//! probes, and the three whole-table walks ([`prune_settled`], the
//! self-prune that calls it, [`open_windows`]) are a `retain` whose
//! predicate looks at one slot and a sum. Anything that needed slots *in
//! order* would have to sort first. Clippy's `disallowed-methods` list
//! (`clippy.toml`) bans every order-revealing walk over a hash container,
//! so the two functions that walk the table carry an `expect` stating
//! why their order cannot leak.
//!
//! The table also prunes itself: whenever it has doubled since the last
//! prune, an update delivery runs [`prune_settled`] at its own instant
//! and gives the freed buckets back. Slots whose update stream stopped
//! (every cut-off) and whose path no query walks again are reclaimed
//! then, so the table is bounded by twice the slots that were unsettled
//! at the last prune, not by how many `(node, key)` pairs a long run ever
//! touched. Each prune costs the table's size and is paid for by the
//! insertions that doubled it — amortised O(1), no clock, no tunable.
//!
//! [`prune_settled`]: JustificationTracker::prune_settled
//! [`open_windows`]: JustificationTracker::open_windows

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cup_des::{KeyId, NodeId, SimTime};

use crate::inline::InlineVec;

/// One pending justification window: open from `opened` until `closes`.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    opened: SimTime,
    closes: SimTime,
}

/// A slot's windows. Updates for one `(node, key)` arrive a refresh
/// interval apart and a query on the path settles what is open, so two
/// in place cover all but slots nobody queries.
type Windows = InlineVec<Window, 2>;

/// Multiplicative hashing for the `(node, key)` pair: the two `u32`
/// writes of the derived `Hash` are packed into one word, and `finish`
/// multiplies by 2⁶⁴/φ and folds the well-mixed high half onto the low
/// bits the table indexes with.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// Tracks justification windows for maintenance updates.
#[derive(Debug, Default)]
pub struct JustificationTracker {
    /// A slot exists exactly while it holds a window.
    slots: HashMap<(NodeId, KeyId), Windows, BuildHasherDefault<PairHasher>>,
    /// Slot count at which the next update delivery prunes the table:
    /// twice what the last prune left.
    prune_at: usize,
    justified: u64,
    total: u64,
}

impl JustificationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        JustificationTracker::default()
    }

    /// Records a maintenance update delivered to `node` at `now` whose
    /// justification window closes at `closes`.
    pub fn on_update_delivered(&mut self, node: NodeId, key: KeyId, now: SimTime, closes: SimTime) {
        self.total += 1;
        if closes <= now {
            // Window already shut (an update that expired in transit was
            // dropped earlier; a zero-length window can never be
            // justified).
            return;
        }
        let windows = self.slots.entry((node, key)).or_default();
        // Prune closed windows opportunistically to bound the slot.
        windows.retain(|w| w.closes > now);
        windows.push(Window {
            opened: now,
            closes,
        });
        if self.slots.len() >= self.prune_at {
            self.prune_settled(now);
            // The window just pushed is open, so the table is not empty
            // and the threshold moves past it.
            self.prune_at = 2 * self.slots.len();
            self.slots.shrink_to(self.prune_at);
        }
    }

    /// Records a query for `key` posted at time `now` whose virtual path
    /// (posting node → authority, inclusive) is `path`. Every open window
    /// on the path containing `now` becomes justified and is dropped,
    /// along with what closed before `now` (so the walk doubles as
    /// pruning for slots the update stream no longer touches). `now` may
    /// run behind the updates already recorded — a live shard marks the
    /// path nodes it owns when the mark reaches it — and windows opened
    /// after it stay.
    pub fn on_query(&mut self, key: KeyId, now: SimTime, path: &[NodeId]) {
        for &node in path {
            let Entry::Occupied(mut slot) = self.slots.entry((node, key)) else {
                continue;
            };
            let windows = slot.get_mut();
            let hit = windows.iter().filter(|w| w.opened <= now && now < w.closes);
            self.justified += hit.count() as u64;
            windows.retain(|w| w.opened > now);
            if windows.is_empty() {
                slot.remove();
            }
        }
    }

    /// Drops every window closed as of `now` (and every slot that leaves
    /// empty). The per-event hooks prune the slots they touch and the
    /// table calls this on itself as it grows; it stays public for a
    /// caller that knows its traffic stopped.
    #[expect(
        clippy::disallowed_methods,
        reason = "a retain whose predicate reads only the slot it is given: which slots survive cannot depend on visit order"
    )]
    pub fn prune_settled(&mut self, now: SimTime) {
        self.slots.retain(|_, windows| {
            windows.retain(|w| w.closes > now);
            !windows.is_empty()
        });
    }

    /// Number of justified updates so far.
    pub fn justified(&self) -> u64 {
        self.justified
    }

    /// Number of updates tracked so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of tracked updates justified so far.
    pub fn justified_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.justified as f64 / self.total as f64
        }
    }

    /// Windows currently held in memory (the memory-bound metric:
    /// settled windows must not accumulate here).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum of lengths is the same in any order"
    )]
    pub fn open_windows(&self) -> usize {
        self.slots.values().map(|windows| windows.len()).sum()
    }

    /// `(node, key)` slots currently held in memory.
    pub fn held_slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: KeyId = KeyId(1);

    #[test]
    fn query_in_window_justifies() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(5),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        t.on_query(
            KEY,
            SimTime::from_secs(15),
            &[NodeId(7), NodeId(5), NodeId(0)],
        );
        assert_eq!(t.justified(), 1);
        assert_eq!(t.total(), 1);
        assert_eq!(t.justified_ratio(), 1.0);
    }

    #[test]
    fn query_after_window_does_not_justify() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(5),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        t.on_query(KEY, SimTime::from_secs(25), &[NodeId(5)]);
        assert_eq!(t.justified(), 0);
    }

    #[test]
    fn query_off_path_does_not_justify() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(5),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        t.on_query(KEY, SimTime::from_secs(15), &[NodeId(7), NodeId(8)]);
        assert_eq!(t.justified(), 0);
    }

    #[test]
    fn other_key_does_not_justify() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(5),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        t.on_query(KeyId(2), SimTime::from_secs(15), &[NodeId(5)]);
        assert_eq!(t.justified(), 0);
    }

    #[test]
    fn one_query_can_justify_updates_along_whole_path() {
        let mut t = JustificationTracker::new();
        for n in [1u32, 2, 3] {
            t.on_update_delivered(
                NodeId(n),
                KEY,
                SimTime::from_secs(10),
                SimTime::from_secs(100),
            );
        }
        t.on_query(
            KEY,
            SimTime::from_secs(50),
            &[NodeId(3), NodeId(2), NodeId(1)],
        );
        assert_eq!(t.justified(), 3);
    }

    #[test]
    fn each_window_justified_at_most_once() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(1),
            KEY,
            SimTime::from_secs(0),
            SimTime::from_secs(100),
        );
        t.on_query(KEY, SimTime::from_secs(10), &[NodeId(1)]);
        t.on_query(KEY, SimTime::from_secs(20), &[NodeId(1)]);
        assert_eq!(t.justified(), 1);
    }

    #[test]
    fn already_closed_window_counts_in_total_only() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(1),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(10),
        );
        assert_eq!(t.total(), 1);
        t.on_query(KEY, SimTime::from_secs(10), &[NodeId(1)]);
        assert_eq!(t.justified(), 0);
    }

    #[test]
    fn justified_windows_are_pruned_on_the_query_walk() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(1),
            KEY,
            SimTime::from_secs(0),
            SimTime::from_secs(100),
        );
        assert_eq!(t.open_windows(), 1);
        t.on_query(KEY, SimTime::from_secs(10), &[NodeId(1)]);
        assert_eq!(t.open_windows(), 0, "a justified window is settled");
        assert_eq!(t.justified(), 1, "pruning keeps the counters");
    }

    #[test]
    fn quiet_slots_are_reclaimed_when_the_table_next_doubles() {
        let mut t = JustificationTracker::new();
        // 64 slots get one update each (a 10 s window), then silence:
        // no query walks their paths, no update touches them again.
        for n in 0..64u32 {
            t.on_update_delivered(NodeId(n), KEY, SimTime::ZERO, SimTime::from_secs(10));
        }
        assert_eq!(t.held_slots(), 64);
        // Long after those windows shut, traffic moves to other slots.
        // Nothing sweeps until the table has doubled …
        let later = SimTime::from_secs(100);
        for n in 0..63u32 {
            t.on_update_delivered(NodeId(1_000 + n), KEY, later, SimTime::from_secs(110));
        }
        assert_eq!(
            t.held_slots(),
            127,
            "not doubled yet: the quiet 64 still held"
        );
        // … and the update that doubles it takes the quiet slots out.
        t.on_update_delivered(NodeId(1_063), KEY, later, SimTime::from_secs(110));
        assert_eq!(t.held_slots(), 64, "only the slots with an open window");
        assert_eq!(t.open_windows(), 64);
        assert_eq!((t.justified(), t.total()), (0, 128), "history is kept");
        // The survivors are the later stream's: a query still finds them.
        t.on_query(KEY, later, &[NodeId(1_000), NodeId(0)]);
        assert_eq!(t.justified(), 1);
    }

    #[test]
    fn a_late_mark_leaves_windows_opened_after_its_instant() {
        let mut t = JustificationTracker::new();
        t.on_update_delivered(
            NodeId(1),
            KEY,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        t.on_update_delivered(
            NodeId(1),
            KEY,
            SimTime::from_secs(15),
            SimTime::from_secs(25),
        );
        // Posted at 12 s, marked after the 15 s update was recorded.
        t.on_query(KEY, SimTime::from_secs(12), &[NodeId(1)]);
        assert_eq!(t.justified(), 1, "only the window open at 12 s");
        assert_eq!(
            t.open_windows(),
            1,
            "the 15 s window waits for its own query"
        );
        t.on_query(KEY, SimTime::from_secs(16), &[NodeId(1)]);
        assert_eq!(t.justified(), 2);
        assert_eq!(t.held_slots(), 0, "an emptied slot is dropped");
    }

    #[test]
    fn the_pair_hash_spreads_dense_ids_over_low_and_high_bits() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<PairHasher>::default();
        // 64 nodes × 64 keys of dense ids: the table indexes with the
        // low bits and tags with the top seven, so both must vary with
        // either id.
        let mut low = std::collections::BTreeSet::new();
        let mut high = std::collections::BTreeSet::new();
        for n in 0..64u32 {
            for k in 0..64u32 {
                let h = build.hash_one((NodeId(n), KeyId(k)));
                low.insert(h & 0xFFF);
                high.insert(h >> 57);
            }
        }
        assert!(low.len() > 2_400, "{} of 4096 low-bit patterns", low.len());
        assert_eq!(high.len(), 128, "every 7-bit tag occurs");
    }

    #[test]
    fn prune_settled_reclaims_abandoned_slots() {
        let mut t = JustificationTracker::new();
        for n in 0..4u32 {
            t.on_update_delivered(
                NodeId(n),
                KEY,
                SimTime::from_secs(0),
                SimTime::from_secs(50),
            );
        }
        assert_eq!(t.open_windows(), 4);
        // Still open at t = 49, all expired by t = 50.
        t.prune_settled(SimTime::from_secs(49));
        assert_eq!(t.open_windows(), 4);
        t.prune_settled(SimTime::from_secs(50));
        assert_eq!(t.open_windows(), 0);
        assert_eq!(t.total(), 4, "pruning never rewrites history");
    }
}
