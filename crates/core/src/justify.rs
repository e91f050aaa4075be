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
//! sit in the table itself. A window is its two instants: the query that
//! justifies it removes it in the same call, so there is no
//! justified-but-still-held state to flag.
//!
//! A slot is 32 bytes, the 8-byte pair and a 24-byte `Slot`: two places,
//! each a `u64` closing instant and a `u32` span, the window opening
//! `span` µs before it closes. `SimTime` counts microseconds, and a
//! window is never longer than the entry lifetime its update carries
//! (300 s in the paper, 600 s in the longest benchmark workload), so the
//! span of a `u32` — 71 minutes — holds every window the workloads open.
//! A held window always closes after the instant it was recorded at, so
//! never at 0, and a closing instant of 0 marks a place empty. Places
//! fill from the first, so a held slot whose first place is empty keeps
//! its windows elsewhere: in the spill map, a second table keyed by the
//! same pair and probed only then. A slot's windows are there exactly
//! when they do not *pack* — a third window (a delete and a re-birth
//! within one lifetime, about 3 % of pushes), or a span past
//! `u32::MAX` µs (a window closing at `SimTime::MAX` from any instant
//! more than 71 minutes before it) — and move back in place the moment
//! they pack again. Both forms store the same two instants per window,
//! so every count read from the tracker is the same as from a plain list
//! of windows per pair (`tests/justify_oracle.rs` holds it to one).
//!
//! A hashed table keeps the two runtimes byte-identical because **no
//! result reads its iteration order**: updates and queries are point
//! probes, and the whole-table walks ([`prune_settled`], the self-prune
//! that calls it, [`open_windows`], [`heap_bytes`]) are a `retain` whose
//! predicate looks at one slot, and sums. Anything that needed slots *in
//! order* would have to sort first. Clippy's `disallowed-methods` list
//! (`clippy.toml`) bans every order-revealing walk over a hash container,
//! so the functions that walk the tables carry an `expect` stating why
//! their order cannot leak.
//!
//! The table also prunes itself: whenever it has doubled since the last
//! prune, an update delivery runs [`prune_settled`] at its own instant
//! and gives the freed buckets back, the spill map's too. Slots whose update stream stopped
//! (every cut-off) and whose path no query walks again are reclaimed
//! then, so the table is bounded by twice the slots that were unsettled
//! at the last prune, not by how many `(node, key)` pairs a long run ever
//! touched. Each prune costs the table's size and is paid for by the
//! insertions that doubled it — amortised O(1), no clock, no tunable.
//!
//! [`prune_settled`]: JustificationTracker::prune_settled
//! [`open_windows`]: JustificationTracker::open_windows
//! [`heap_bytes`]: JustificationTracker::heap_bytes

use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cup_des::{KeyId, NodeId, SimTime};

use crate::keystate::vec_bytes;

/// One pending justification window: open from `opened` until `closes`.
#[derive(Debug, Clone, Copy)]
struct Window {
    opened: SimTime,
    closes: SimTime,
}

impl Window {
    /// A query posted at `at` justifies the window.
    fn covers(self, at: SimTime) -> bool {
        self.opened <= at && at < self.closes
    }
}

/// A slot's windows in place: place `i` holds the window that closes at
/// `closes[i]` µs and opened `spans[i]` µs before. A closing instant of
/// 0 marks the place empty, and places fill from the first.
#[derive(Debug, Clone, Copy)]
struct Slot {
    closes: [u64; 2],
    spans: [u32; 2],
}

// A table bucket is the pair and its slot: 32 bytes, where a pair and an
// `InlineVec` of two 16-byte windows was 48.
const _: () = assert!(std::mem::size_of::<((NodeId, KeyId), Slot)>() == 32);

impl Slot {
    /// No window in place. A held slot reads empty exactly when its
    /// windows are in the spill map.
    const EMPTY: Slot = Slot {
        closes: [0; 2],
        spans: [0; 2],
    };

    /// `windows` in place, when there are at most two and each one's
    /// span fits.
    fn pack(windows: &[Window]) -> Option<Slot> {
        let mut slot = Slot::EMPTY;
        windows.iter().all(|&w| slot.push(w)).then_some(slot)
    }

    fn is_empty(&self) -> bool {
        self.closes[0] == 0
    }

    fn window(&self, i: usize) -> Window {
        let closes = self.closes[i];
        Window {
            opened: SimTime::from_micros(closes - u64::from(self.spans[i])),
            closes: SimTime::from_micros(closes),
        }
    }

    fn windows(self) -> impl Iterator<Item = Window> {
        (0..2)
            .filter(move |&i| self.closes[i] != 0)
            .map(move |i| self.window(i))
    }

    /// Puts `w` in the first empty place; false when both are taken or
    /// its span does not fit.
    fn push(&mut self, w: Window) -> bool {
        let i = usize::from(!self.is_empty());
        let Ok(span) = u32::try_from((w.closes - w.opened).as_micros()) else {
            return false;
        };
        if self.closes[i] != 0 {
            return false;
        }
        self.closes[i] = w.closes.as_micros();
        self.spans[i] = span;
        true
    }

    /// Keeps the windows `keep` accepts, first places first.
    fn retain(&mut self, mut keep: impl FnMut(Window) -> bool) {
        let mut kept = Slot::EMPTY;
        let mut next = 0;
        for i in 0..2 {
            if self.closes[i] != 0 && keep(self.window(i)) {
                kept.closes[next] = self.closes[i];
                kept.spans[next] = self.spans[i];
                next += 1;
            }
        }
        *self = kept;
    }
}

/// The spill map's entry for a slot whose windows just changed, filed
/// again: moved back in place once they pack, dropped once there are
/// none. Returns whether the slot still holds a window.
fn resettle(slot: &mut Slot, list: OccupiedEntry<'_, Pair, Vec<Window>>) -> bool {
    let held = !list.get().is_empty();
    if let Some(packed) = Slot::pack(list.get()) {
        *slot = packed;
        list.remove();
    }
    held
}

type Pair = (NodeId, KeyId);

/// A table of `V` by pair, and the buckets behind it.
///
/// std's `HashMap` (a SwissTable) does not report its bucket count, and
/// `capacity()` is no stand-in: a removal that leaves a tombstone takes
/// one off it and frees no bucket (a table of 262,144 buckets filled to
/// 229,376 pairs and emptied to 29,376 reads 99,955, which a count
/// derived from it would take for half the buckets). So the count is
/// followed through the two calls that reallocate a table, by the rules
/// the table grows and shrinks by, and `memory_gate` holds the bytes
/// derived from it to the allocator's, that table included.
#[derive(Debug)]
struct Table<V> {
    map: PairMap<V>,
    buckets: usize,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Table {
            map: PairMap::default(),
            buckets: 0,
        }
    }
}

impl<V> Table<V> {
    /// Pairs `buckets` buckets hold before the table grows: one fewer
    /// than the buckets below eight, seven eighths from there.
    fn holds(buckets: usize) -> usize {
        if buckets < 8 {
            buckets.saturating_sub(1)
        } else {
            buckets / 8 * 7
        }
    }

    /// Buckets a table sized for `pairs` pairs allocates.
    fn buckets_for(pairs: usize) -> usize {
        match pairs {
            0..4 => 4,
            4..8 => 8,
            _ => (pairs * 8 / 7).next_power_of_two(),
        }
    }

    /// Follows an insertion, which may have grown the table: a table
    /// that grew was rebuilt, and a rebuilt table's `capacity()` is all
    /// its buckets hold.
    fn inserted(&mut self) {
        let capacity = self.map.capacity();
        if capacity > Self::holds(self.buckets) {
            self.buckets = Self::buckets_for(capacity);
        }
    }

    /// `HashMap::shrink_to`: the table moves to the buckets `min` pairs
    /// (or the pairs it holds, if more) need when that is fewer, and
    /// gives its block back when both are zero.
    fn shrink_to(&mut self, min: usize) {
        self.map.shrink_to(min);
        let min = min.max(self.map.len());
        self.buckets = match min {
            0 => 0,
            _ => self.buckets.min(Self::buckets_for(min)),
        };
    }

    /// The table's block: the buckets, then one control byte a bucket
    /// and one probe group's worth more (16 where SSE2 probes 16 bytes
    /// at once, 8 elsewhere).
    fn heap_bytes(&self) -> usize {
        const GROUP: usize = if cfg!(all(
            target_feature = "sse2",
            any(target_arch = "x86", target_arch = "x86_64")
        )) {
            16
        } else {
            8
        };
        if self.buckets == 0 {
            return 0;
        }
        let align = std::mem::align_of::<(Pair, V)>().max(GROUP);
        (self.buckets * std::mem::size_of::<(Pair, V)>()).next_multiple_of(align)
            + self.buckets
            + GROUP
    }
}

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

type PairMap<V> = HashMap<Pair, V, BuildHasherDefault<PairHasher>>;

/// Tracks justification windows for maintenance updates.
#[derive(Debug, Default)]
pub struct JustificationTracker {
    /// A slot exists exactly while it holds a window.
    slots: Table<Slot>,
    /// The windows of every held slot that does not pack in place.
    spill: Table<Vec<Window>>,
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
        let pair = (node, key);
        let window = Window {
            opened: now,
            closes,
        };
        // Closed windows are pruned opportunistically to bound the slot.
        match self.slots.map.entry(pair) {
            Entry::Occupied(held) if held.get().is_empty() => {
                if let Entry::Occupied(mut list) = self.spill.map.entry(pair) {
                    list.get_mut().retain(|w| w.closes > now);
                    list.get_mut().push(window);
                    resettle(held.into_mut(), list);
                }
            }
            entry => {
                let slot = entry.or_insert(Slot::EMPTY);
                slot.retain(|w| w.closes > now);
                if !slot.push(window) {
                    let mut list = Vec::with_capacity(4);
                    list.extend(slot.windows());
                    list.push(window);
                    *slot = Slot::EMPTY;
                    self.spill.map.insert(pair, list);
                }
            }
        }
        self.slots.inserted();
        self.spill.inserted();
        if self.slots.map.len() >= self.prune_at {
            self.prune_settled(now);
            // The window just pushed is open, so the table is not empty
            // and the threshold moves past it.
            self.prune_at = 2 * self.slots.map.len();
            self.slots.shrink_to(self.prune_at);
            self.spill.shrink_to(2 * self.spill.map.len());
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
            let pair = (node, key);
            let Entry::Occupied(mut held) = self.slots.map.entry(pair) else {
                continue;
            };
            let slot = held.get_mut();
            let mut hits = 0;
            let kept = if slot.is_empty() {
                match self.spill.map.entry(pair) {
                    Entry::Occupied(mut list) => {
                        list.get_mut().retain(|&w| {
                            hits += u64::from(w.covers(now));
                            w.opened > now
                        });
                        resettle(slot, list)
                    }
                    Entry::Vacant(_) => false,
                }
            } else {
                slot.retain(|w| {
                    hits += u64::from(w.covers(now));
                    w.opened > now
                });
                !slot.is_empty()
            };
            self.justified += hits;
            if !kept {
                held.remove();
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
        let spill = &mut self.spill.map;
        self.slots.map.retain(|&pair, slot| {
            if !slot.is_empty() {
                slot.retain(|w| w.closes > now);
                return !slot.is_empty();
            }
            match spill.entry(pair) {
                Entry::Occupied(mut list) => {
                    list.get_mut().retain(|w| w.closes > now);
                    resettle(slot, list)
                }
                Entry::Vacant(_) => false,
            }
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
        let in_place: usize = self
            .slots
            .map
            .values()
            .map(|slot| slot.windows().count())
            .sum();
        in_place + self.spill.map.values().map(Vec::len).sum::<usize>()
    }

    /// `(node, key)` slots currently held in memory.
    pub fn held_slots(&self) -> usize {
        self.slots.map.len()
    }

    /// Heap bytes the tracker owns: its table, the spill map and the
    /// spilled lists.
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum of capacities is the same in any order"
    )]
    pub fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
            + self.spill.heap_bytes()
            + self.spill.map.values().map(vec_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::SimDuration;

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
    fn a_third_window_spills_and_moves_back_once_two_remain() {
        let mut t = JustificationTracker::new();
        for s in [10, 11, 12] {
            t.on_update_delivered(
                NodeId(1),
                KEY,
                SimTime::from_secs(s),
                SimTime::from_secs(100),
            );
            assert_eq!(t.spill.map.len(), usize::from(s == 12), "at {s} s");
        }
        assert_eq!((t.open_windows(), t.held_slots()), (3, 1));
        // A mark that lags the last update justifies the two windows
        // open at its instant; the third, opened after it, goes back in
        // place.
        t.on_query(KEY, SimTime::from_secs(11), &[NodeId(1)]);
        assert_eq!(t.justified(), 2);
        assert_eq!((t.open_windows(), t.held_slots()), (1, 1));
        assert!(t.spill.map.is_empty());
        assert!(!t.slots.map[&(NodeId(1), KEY)].is_empty(), "in place");
    }

    #[test]
    fn a_span_fits_in_place_up_to_u32_max_microseconds() {
        let now = SimTime::from_secs(5);
        let longest = now + SimDuration::from_micros(u64::from(u32::MAX));
        let closes = [longest, longest + SimDuration::from_micros(1), SimTime::MAX];
        let mut t = JustificationTracker::new();
        for (n, &c) in (0u32..).zip(&closes) {
            t.on_update_delivered(NodeId(n), KEY, now, c);
        }
        assert_eq!(t.held_slots(), 3);
        assert_eq!(t.spill.map.len(), 2, "past u32::MAX µs, and SimTime::MAX");
        // Each window opened exactly at `now`, wherever it is kept.
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        t.on_query(KEY, SimTime::from_micros(now.as_micros() - 1), &path);
        assert_eq!((t.justified(), t.open_windows()), (0, 3));
        t.on_query(KEY, now, &path);
        assert_eq!((t.justified(), t.held_slots()), (3, 0));
        assert!(t.spill.map.is_empty());
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
