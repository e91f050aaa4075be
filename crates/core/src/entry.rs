//! Index entries: the `(key, value)` pairs of the global index.
//!
//! The value of an index entry points at one replica serving the content
//! associated with the key (§2.1). Every entry is given a lifetime and
//! the timestamp at which the lifetime was set; it is *fresh* until the
//! lifetime elapses and may not be used to answer queries afterwards.
//!
//! An entry stores only the instant its lifetime runs out: the stamp
//! plus the lifetime, saturated at [`SimTime::MAX`]. §2.1 asks whether
//! "now − timestamp exceeds lifetime", and for a `now` at or after the
//! stamp that is the comparison of `now` with the sum, so the one
//! instant answers it exactly and no reader needs the parts apart. The
//! entry is 16 bytes instead of 24 in every cached key's record, update
//! payload, directory slot and client answer.

use cup_des::{KeyId, ReplicaId, SimDuration, SimTime};

/// One index entry: "replica `replica` serves key `key`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexEntry {
    /// The key this entry indexes.
    pub key: KeyId,
    /// The replica serving the content (the paper's value/IP pointer).
    pub replica: ReplicaId,
    /// When the lifetime set by the last stamp runs out (see the module
    /// docs).
    expires: SimTime,
}

const _: () = assert!(std::mem::size_of::<IndexEntry>() == 16);

impl IndexEntry {
    /// Creates an entry valid for `lifetime` starting at `now`.
    pub fn new(key: KeyId, replica: ReplicaId, lifetime: SimDuration, now: SimTime) -> Self {
        IndexEntry {
            key,
            replica,
            expires: now.saturating_add(lifetime),
        }
    }

    /// The instant the entry expires.
    pub fn expires_at(&self) -> SimTime {
        self.expires
    }

    /// Returns `true` while the entry may be used to answer queries.
    ///
    /// Following §2.1: the entry has expired when the difference between
    /// the current time and the timestamp exceeds the lifetime.
    pub fn is_fresh(&self, now: SimTime) -> bool {
        now < self.expires
    }

    /// Extends the entry with a new lifetime starting at `now` (the effect
    /// of a refresh update).
    pub fn refresh(&mut self, lifetime: SimDuration, now: SimTime) {
        self.expires = now.saturating_add(lifetime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at_secs: u64, life_secs: u64) -> IndexEntry {
        IndexEntry::new(
            KeyId(1),
            ReplicaId(2),
            SimDuration::from_secs(life_secs),
            SimTime::from_secs(at_secs),
        )
    }

    #[test]
    fn fresh_until_expiry() {
        let e = entry(100, 300);
        assert!(e.is_fresh(SimTime::from_secs(100)));
        assert!(e.is_fresh(SimTime::from_secs(399)));
        assert!(!e.is_fresh(SimTime::from_secs(400)), "expiry is exclusive");
        assert!(!e.is_fresh(SimTime::from_secs(1000)));
        assert_eq!(e.expires_at(), SimTime::from_secs(400));
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut e = entry(100, 300);
        e.refresh(SimDuration::from_secs(300), SimTime::from_secs(400));
        assert!(e.is_fresh(SimTime::from_secs(500)));
        assert_eq!(e.expires_at(), SimTime::from_secs(700));
    }

    #[test]
    fn zero_lifetime_never_fresh() {
        let e = IndexEntry::new(
            KeyId(1),
            ReplicaId(1),
            SimDuration::ZERO,
            SimTime::from_secs(5),
        );
        assert!(!e.is_fresh(SimTime::from_secs(5)));
    }
}
