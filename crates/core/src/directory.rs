//! The local index directory of an authority node (§2.1).
//!
//! Every node owns a partition of the global index; the index entries
//! mapped into its partition form its *local index directory*, disjoint
//! from its cache of other nodes' entries. Replicas send birth, refresh,
//! and deletion messages to the authority, which maintains the directory
//! and propagates the corresponding updates to interested neighbors.

use std::collections::BTreeMap;

use cup_des::{KeyId, SimTime};

use crate::entry::IndexEntry;
use crate::message::ReplicaEvent;

/// What a replica event did to the directory (drives update propagation).
#[derive(Debug, Clone, PartialEq)]
pub enum DirectoryChange {
    /// A new entry was added (propagate as an append).
    Added(IndexEntry),
    /// An existing entry's lifetime was extended (propagate as a refresh).
    Refreshed(IndexEntry),
    /// An entry was removed; carries the removed entry so the delete's
    /// justification window (until the entry would have expired) is known.
    Removed(IndexEntry),
    /// The event had no effect (e.g. deleting an unknown replica).
    Nothing,
}

/// An authority node's slice of the global index.
///
/// Keyed by a `BTreeMap` so `drain_keys()` emits entries in key order:
/// its output order drives ownership hand-over, which must be identical
/// across the DES and any M-worker live run.
#[derive(Debug, Clone, Default)]
pub struct LocalDirectory {
    entries: BTreeMap<KeyId, Vec<IndexEntry>>,
}

impl LocalDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        LocalDirectory::default()
    }

    /// Applies a replica event, returning what changed.
    ///
    /// A birth for an already-known replica acts as a refresh, and a
    /// refresh for an unknown replica acts as a birth (replicas re-appear
    /// after authority hand-overs).
    pub fn apply(&mut self, event: ReplicaEvent, now: SimTime) -> DirectoryChange {
        match event {
            ReplicaEvent::Birth {
                key,
                replica,
                lifetime,
            }
            | ReplicaEvent::Refresh {
                key,
                replica,
                lifetime,
            } => {
                let entry = IndexEntry::new(key, replica, lifetime, now);
                let slot = self.entries.entry(key).or_default();
                match slot.iter_mut().find(|e| e.replica == replica) {
                    Some(existing) => {
                        *existing = entry;
                        DirectoryChange::Refreshed(entry)
                    }
                    None => {
                        slot.push(entry);
                        DirectoryChange::Added(entry)
                    }
                }
            }
            ReplicaEvent::Deletion { key, replica } => {
                let Some(slot) = self.entries.get_mut(&key) else {
                    return DirectoryChange::Nothing;
                };
                match slot.iter().position(|e| e.replica == replica) {
                    Some(i) => {
                        let removed = slot.swap_remove(i);
                        if slot.is_empty() {
                            self.entries.remove(&key);
                        }
                        DirectoryChange::Removed(removed)
                    }
                    None => DirectoryChange::Nothing,
                }
            }
        }
    }

    /// The fresh entries for `key` at `now`.
    pub fn fresh_entries(&self, key: KeyId, now: SimTime) -> Vec<IndexEntry> {
        self.entries
            .get(&key)
            .map(|v| v.iter().filter(|e| e.is_fresh(now)).copied().collect())
            .unwrap_or_default()
    }

    /// Returns `true` if the directory holds any entry (fresh or not) for
    /// `key`.
    pub fn knows(&self, key: KeyId) -> bool {
        self.entries.contains_key(&key)
    }

    /// Drains entries for keys selected by `predicate` — used when index
    /// ownership moves during node arrivals and departures (§2.9).
    pub fn drain_keys(&mut self, mut predicate: impl FnMut(KeyId) -> bool) -> Vec<IndexEntry> {
        let moving: Vec<KeyId> = self
            .entries
            .keys()
            .copied()
            .filter(|&k| predicate(k))
            .collect();
        let mut out = Vec::new();
        for k in moving {
            if let Some(v) = self.entries.remove(&k) {
                out.extend(v);
            }
        }
        out
    }

    /// Merges entries handed over from another node, eliminating
    /// duplicates (§2.9: "M must then merge its own set of index entries
    /// with N's, by eliminating duplicate entries").
    pub fn merge(&mut self, entries: Vec<IndexEntry>) {
        for e in entries {
            let slot = self.entries.entry(e.key).or_default();
            match slot.iter_mut().find(|x| x.replica == e.replica) {
                // Keep whichever copy lives longer.
                Some(existing) => {
                    if e.expires_at() > existing.expires_at() {
                        *existing = e;
                    }
                }
                None => slot.push(e),
            }
        }
    }

    /// Total number of entries across all keys.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Returns `true` if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates all keys with at least one entry.
    pub fn keys(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::{ReplicaId, SimDuration};

    const LIFE: SimDuration = SimDuration::from_secs(300);

    fn birth(key: u32, replica: u32) -> ReplicaEvent {
        ReplicaEvent::Birth {
            key: KeyId(key),
            replica: ReplicaId(replica),
            lifetime: LIFE,
        }
    }

    #[test]
    fn birth_adds_refresh_extends() {
        let mut dir = LocalDirectory::new();
        let t0 = SimTime::ZERO;
        assert!(matches!(
            dir.apply(birth(1, 0), t0),
            DirectoryChange::Added(_)
        ));
        assert_eq!(dir.len(), 1);
        let t1 = SimTime::from_secs(250);
        let change = dir.apply(
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
            t1,
        );
        assert!(matches!(change, DirectoryChange::Refreshed(_)));
        assert_eq!(dir.len(), 1);
        assert_eq!(
            dir.fresh_entries(KeyId(1), SimTime::from_secs(400)).len(),
            1,
            "refresh extended the lifetime past the original expiry"
        );
    }

    #[test]
    fn refresh_of_unknown_replica_adds() {
        let mut dir = LocalDirectory::new();
        let change = dir.apply(
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(3),
                lifetime: LIFE,
            },
            SimTime::ZERO,
        );
        assert!(matches!(change, DirectoryChange::Added(_)));
    }

    #[test]
    fn deletion_removes_and_reports_entry() {
        let mut dir = LocalDirectory::new();
        dir.apply(birth(1, 0), SimTime::ZERO);
        let change = dir.apply(
            ReplicaEvent::Deletion {
                key: KeyId(1),
                replica: ReplicaId(0),
            },
            SimTime::from_secs(10),
        );
        match change {
            DirectoryChange::Removed(e) => assert_eq!(e.replica, ReplicaId(0)),
            other => panic!("expected removal, got {other:?}"),
        }
        assert!(dir.is_empty());
        // Deleting again is a no-op.
        let change = dir.apply(
            ReplicaEvent::Deletion {
                key: KeyId(1),
                replica: ReplicaId(0),
            },
            SimTime::from_secs(11),
        );
        assert_eq!(change, DirectoryChange::Nothing);
    }

    #[test]
    fn fresh_entries_excludes_expired() {
        let mut dir = LocalDirectory::new();
        dir.apply(birth(1, 0), SimTime::ZERO);
        assert_eq!(
            dir.fresh_entries(KeyId(1), SimTime::from_secs(100)).len(),
            1
        );
        assert_eq!(
            dir.fresh_entries(KeyId(1), SimTime::from_secs(301)).len(),
            0
        );
        assert!(dir.knows(KeyId(1)));
    }

    #[test]
    fn drain_and_merge_move_ownership() {
        let mut m = LocalDirectory::new();
        m.apply(birth(1, 0), SimTime::ZERO);
        m.apply(birth(2, 0), SimTime::ZERO);
        let moved = m.drain_keys(|k| k == KeyId(1));
        assert_eq!(moved.len(), 1);
        assert!(!m.knows(KeyId(1)));

        let mut n = LocalDirectory::new();
        n.merge(moved.clone());
        n.merge(moved); // duplicate hand-over must not duplicate entries
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn merge_keeps_longer_lived_duplicate() {
        let mut dir = LocalDirectory::new();
        let short = IndexEntry::new(KeyId(1), ReplicaId(0), LIFE, SimTime::ZERO);
        let long = IndexEntry::new(KeyId(1), ReplicaId(0), LIFE, SimTime::from_secs(100));
        dir.merge(vec![short]);
        dir.merge(vec![long]);
        assert_eq!(dir.len(), 1);
        assert_eq!(
            dir.fresh_entries(KeyId(1), SimTime::from_secs(350)).len(),
            1
        );
    }
}
