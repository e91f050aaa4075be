//! Typed identifiers shared by the overlay and protocol crates.
//!
//! Using newtypes (rather than bare `usize`/`u64`) prevents accidentally
//! mixing node indices, key identifiers, and replica identifiers — a classic
//! source of silent simulation bugs.

use core::fmt;

/// Identifies a node in the peer-to-peer network.
///
/// Node ids are dense indices assigned by the overlay builder; departed
/// nodes keep their id (ids are never reused within one simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

/// Identifies a key in the global index (the name of a content item).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyId(pub u32);

/// Identifies one replica of a content item.
///
/// Several replicas may serve the same key; each gets its own index entry
/// (the paper's `(key, value)` pairs where the value points at the replica).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl NodeId {
    /// Returns the id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl KeyId {
    /// Returns the id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ReplicaId {
    /// Returns the id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn display_is_tagged() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(KeyId(7).to_string(), "k7");
        assert_eq!(ReplicaId(7).to_string(), "r7");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(9).index(), 9);
        assert_eq!(KeyId(9).index(), 9);
        assert_eq!(ReplicaId(9).index(), 9);
    }
}
