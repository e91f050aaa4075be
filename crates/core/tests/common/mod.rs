//! The test oracle for [`cup_core::JustificationTracker`]: the tracker
//! as it was before its storage became a hashed table — one
//! `BTreeMap<(NodeId, KeyId), Vec<Window>>`, a `justified` flag per
//! window, no self-pruning — moved here verbatim (renamed, plus the
//! `held_slots` read-out the comparisons need). It is slow and obviously
//! right, which is all an oracle has to be.
//!
//! Shared by the test binaries through `mod common;`, each of which uses
//! a different part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;

use cup_des::{KeyId, NodeId, SimTime};

/// One pending justification window.
#[derive(Debug, Clone, Copy)]
struct Window {
    opened: SimTime,
    closes: SimTime,
    justified: bool,
}

impl Window {
    /// A window is settled once it can never change state again: it was
    /// justified, or it closed unjustified.
    fn settled(&self, now: SimTime) -> bool {
        self.justified || self.closes <= now
    }
}

/// Tracks justification windows for maintenance updates.
///
/// Windows live in a `BTreeMap` so `prune_settled` and any future
/// whole-tracker walk visit slots in `(node, key)` order — both
/// runtimes share this tracker, and its traversal order must never be
/// a per-instance hash accident.
#[derive(Debug, Default)]
pub struct ReferenceTracker {
    windows: BTreeMap<(NodeId, KeyId), Vec<Window>>,
    justified: u64,
    total: u64,
}

impl ReferenceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ReferenceTracker::default()
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
        let slot = self.windows.entry((node, key)).or_default();
        // Prune settled windows opportunistically to bound memory.
        slot.retain(|w| !w.settled(now));
        slot.push(Window {
            opened: now,
            closes,
            justified: false,
        });
    }

    /// Records a query for `key` posted at time `now` whose virtual path
    /// (posting node → authority, inclusive) is `path`. Every open window
    /// on the path containing `now` becomes justified (and is then
    /// settled, so the walk doubles as pruning for slots the update
    /// stream no longer touches).
    pub fn on_query(&mut self, key: KeyId, now: SimTime, path: &[NodeId]) {
        for &node in path {
            if let Some(slot) = self.windows.get_mut(&(node, key)) {
                for w in slot.iter_mut() {
                    if !w.justified && w.opened <= now && now < w.closes {
                        w.justified = true;
                        self.justified += 1;
                    }
                }
                slot.retain(|w| !w.settled(now));
                if slot.is_empty() {
                    self.windows.remove(&(node, key));
                }
            }
        }
    }

    /// Drops every settled window (and empty slot) as of `now`. The
    /// per-event hooks already prune the slots they touch; long-lived
    /// deployments call this periodically to reclaim slots whose traffic
    /// stopped entirely.
    pub fn prune_settled(&mut self, now: SimTime) {
        self.windows.retain(|_, slot| {
            slot.retain(|w| !w.settled(now));
            !slot.is_empty()
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

    /// Windows currently held open in memory (the memory-bound metric:
    /// settled windows must not accumulate here).
    pub fn open_windows(&self) -> usize {
        self.windows.values().map(Vec::len).sum()
    }
}

impl ReferenceTracker {
    /// `(node, key)` slots currently held (not part of the original).
    pub fn held_slots(&self) -> usize {
        self.windows.len()
    }
}
