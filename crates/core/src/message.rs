//! Protocol messages exchanged over the query and update channels.
//!
//! CUP maintains two logical channels per neighbor (§1): queries travel
//! *up* the query channel toward a key's authority node, and updates and
//! clear-bit control messages travel *down* the update channel along
//! reverse query paths.

use cup_des::{KeyId, NodeId, ReplicaId, SimDuration, SimTime};

use crate::entry::IndexEntry;

/// Identifies a local client connection waiting for a query response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

/// Who posted a query at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requester {
    /// A neighboring node pushed the query up its query channel.
    Neighbor(NodeId),
    /// A local client posted the query; the node keeps the connection open
    /// until it can return a fresh answer (§2.5).
    Client(ClientId),
}

/// A placeholder for the unused slots of an in-place waiter list, never
/// a requester anyone answers.
impl Default for Requester {
    fn default() -> Self {
        Requester::Client(ClientId::default())
    }
}

/// The four update categories of §2.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UpdateKind {
    /// A query response traveling down the reverse query path. Always
    /// justified (it answers a real query), so its justification window is
    /// unbounded.
    FirstTime,
    /// Remove a cached index entry (replica stopped serving or failed).
    Delete,
    /// Keep-alive extending the lifetime of an index entry.
    Refresh,
    /// Add an index entry for a new replica.
    Append,
}

impl UpdateKind {
    /// Push priority under limited capacity (§2.8): "in an application
    /// where query latency and accuracy are of the most importance, one
    /// can push updates in the following order: first-time updates,
    /// deletes, refreshes, and appends". Lower value = pushed first.
    pub fn priority(self) -> u8 {
        match self {
            UpdateKind::FirstTime => 0,
            UpdateKind::Delete => 1,
            UpdateKind::Refresh => 2,
            UpdateKind::Append => 3,
        }
    }
}

/// An update flowing down an update channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// The key the update concerns.
    pub key: KeyId,
    /// Which of the four §2.4 categories this is.
    pub kind: UpdateKind,
    /// Payload entries. A first-time update carries the full fresh entry
    /// set; refresh and append carry the affected entry; delete carries
    /// the stale entry being removed (so receivers know what to drop and
    /// when the delete itself expires).
    pub entries: Vec<IndexEntry>,
    /// Unread: the replica an update concerns is its first entry's, which
    /// [`Update::source`] reads. Senders still fill the field, with a
    /// filler where the update names no replica; it goes with the struct
    /// literals that spell it.
    pub replica: ReplicaId,
    /// Distance in hops of the *receiving* node from the authority node.
    /// The authority pushes updates with `depth = 1`; each forwarding step
    /// increments it. Distance-based cut-off policies (§3.4) read this.
    pub depth: u32,
    /// When the update left the authority node.
    pub origin: SimTime,
    /// End of the justification window T (§3.1): a query must arrive
    /// before this instant for the update to be justified.
    /// `SimTime::MAX` for first-time updates.
    pub window_end: SimTime,
}

impl Update {
    /// Returns `true` if the update is no longer worth applying at `now`
    /// (§2.6 case 3: it arrived too late, e.g. after long network delays).
    ///
    /// An update has expired when every entry it carries has expired. A
    /// delete expires when the entry it removes would have expired anyway.
    pub fn is_expired(&self, now: SimTime) -> bool {
        !self.entries.is_empty() && self.entries.iter().all(|e| !e.is_fresh(now))
    }

    /// The replica this update concerns: its first entry's. `None` for an
    /// update that carries no entry — a negative first-time answer, or one
    /// scrubbed empty by the audit — which names no replica at all.
    pub fn source(&self) -> Option<ReplicaId> {
        self.entries.first().map(|e| e.replica)
    }

    /// This update as sent one hop further downstream. The one place a
    /// child's depth is computed — saturating, so the push-level cap and
    /// the copy on the wire read the same number even at `u32::MAX`.
    /// Takes the update by value: whoever forwards decides which
    /// recipient gets the original and which get clones.
    pub fn forwarded(mut self) -> Update {
        self.depth = self.depth.saturating_add(1);
        self
    }
}

/// A message between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A query pushed up the query channel toward the authority.
    Query {
        /// The key being looked up.
        key: KeyId,
    },
    /// An update pushed down the update channel.
    Update(Update),
    /// "Stop sending me updates for this key" (§2.7).
    ClearBit {
        /// The key losing interest.
        key: KeyId,
    },
    /// "What do you know about this key?" — one poll of the rate-limited
    /// sampled cache audit (LOCKSS-style; see `config::AuditConfig`).
    AuditProbe {
        /// The key being audited.
        key: KeyId,
        /// The auditor's per-key round number; replies echo it so late
        /// answers from a superseded round are ignored.
        round: u64,
    },
    /// A poll answer: everything the polled node currently knows.
    AuditReply {
        /// The key being audited.
        key: KeyId,
        /// Echo of the probe's round number.
        round: u64,
        /// The fresh entries the polled node holds (cache and, at the
        /// authority, directory knowledge).
        entries: Vec<IndexEntry>,
        /// Replicas the polled node has seen retired (delete tombstones):
        /// the *negative* knowledge a poisoned auditor is missing.
        retired: Vec<ReplicaId>,
    },
}

impl Message {
    /// The key this message concerns.
    pub fn key(&self) -> KeyId {
        match self {
            Message::Query { key } => *key,
            Message::Update(u) => u.key,
            Message::ClearBit { key } => *key,
            Message::AuditProbe { key, .. } => *key,
            Message::AuditReply { key, .. } => *key,
        }
    }
}

/// Events sent by content replicas to the authority node owning their key
/// (§2.1): birth, periodic refresh, and deletion messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaEvent {
    /// The replica announces it serves the content for `lifetime`.
    Birth {
        /// The key served.
        key: KeyId,
        /// The announcing replica.
        replica: ReplicaId,
        /// Validity period of the resulting index entry.
        lifetime: SimDuration,
    },
    /// The replica renews its index entry for another `lifetime`.
    Refresh {
        /// The key served.
        key: KeyId,
        /// The renewing replica.
        replica: ReplicaId,
        /// New validity period.
        lifetime: SimDuration,
    },
    /// The replica stops serving the content (explicit deletion message,
    /// or the authority noticed missing keep-alives).
    Deletion {
        /// The key no longer served.
        key: KeyId,
        /// The departing replica.
        replica: ReplicaId,
    },
}

impl ReplicaEvent {
    /// The key the event concerns.
    pub fn key(&self) -> KeyId {
        match *self {
            ReplicaEvent::Birth { key, .. }
            | ReplicaEvent::Refresh { key, .. }
            | ReplicaEvent::Deletion { key, .. } => key,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::SimDuration;

    fn update(kind: UpdateKind, stamped: u64, life: u64) -> Update {
        Update {
            key: KeyId(1),
            kind,
            entries: vec![IndexEntry::new(
                KeyId(1),
                ReplicaId(0),
                SimDuration::from_secs(life),
                SimTime::from_secs(stamped),
            )],
            replica: ReplicaId(0),
            depth: 1,
            origin: SimTime::from_secs(stamped),
            window_end: SimTime::from_secs(stamped + life),
        }
    }

    #[test]
    fn priority_order_matches_paper() {
        assert!(UpdateKind::FirstTime.priority() < UpdateKind::Delete.priority());
        assert!(UpdateKind::Delete.priority() < UpdateKind::Refresh.priority());
        assert!(UpdateKind::Refresh.priority() < UpdateKind::Append.priority());
    }

    #[test]
    fn update_expiry_follows_entries() {
        let u = update(UpdateKind::Refresh, 100, 300);
        assert!(!u.is_expired(SimTime::from_secs(200)));
        assert!(u.is_expired(SimTime::from_secs(400)));
    }

    #[test]
    fn empty_update_never_expires() {
        let mut u = update(UpdateKind::FirstTime, 100, 300);
        u.entries.clear();
        assert!(!u.is_expired(SimTime::from_secs(10_000)));
    }

    #[test]
    fn the_source_is_the_first_entry_and_an_empty_update_has_none() {
        let mut u = update(UpdateKind::FirstTime, 100, 300);
        assert_eq!(u.source(), Some(ReplicaId(0)));
        u.entries.clear();
        assert_eq!(u.source(), None);
    }

    #[test]
    fn forwarding_increments_depth_only() {
        let u = update(UpdateKind::Append, 5, 10);
        let f = u.clone().forwarded();
        assert_eq!(f.depth, u.depth + 1);
        assert_eq!(
            Update {
                depth: u.depth,
                ..f
            },
            u
        );
    }

    #[test]
    fn forwarding_saturates_at_the_deepest_depth() {
        let mut u = update(UpdateKind::Refresh, 5, 10);
        u.depth = u32::MAX - 1;
        let child = u.forwarded();
        assert_eq!(child.depth, u32::MAX);
        assert_eq!(child.forwarded().depth, u32::MAX, "no wrap, no panic");
    }

    #[test]
    fn message_key_extraction() {
        assert_eq!(Message::Query { key: KeyId(9) }.key(), KeyId(9));
        assert_eq!(Message::ClearBit { key: KeyId(8) }.key(), KeyId(8));
        assert_eq!(
            Message::AuditProbe {
                key: KeyId(7),
                round: 3
            }
            .key(),
            KeyId(7)
        );
        assert_eq!(
            Message::AuditReply {
                key: KeyId(6),
                round: 3,
                entries: Vec::new(),
                retired: vec![ReplicaId(1)],
            }
            .key(),
            KeyId(6)
        );
        assert_eq!(
            Message::Update(update(UpdateKind::Delete, 0, 1)).key(),
            KeyId(1)
        );
        assert_eq!(
            ReplicaEvent::Deletion {
                key: KeyId(3),
                replica: ReplicaId(0)
            }
            .key(),
            KeyId(3)
        );
    }
}
