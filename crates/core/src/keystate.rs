//! Per-key bookkeeping at a node (§2.3).
//!
//! For every non-local key a node has seen, it keeps the cached index
//! entries, the interest record over neighbors, the popularity measure,
//! a `Pending` record while it awaits a first-time update (who is
//! waiting for it, and since when), and the next hop toward the key's
//! authority once it has routed the key.
//!
//! CUP's scaling argument is that this record is tiny, so it is laid out
//! to be: a [`KeyState`] is at most 96 bytes (checked at compile time
//! below; that includes the record's own key, which the key table's
//! hashed index confirms lookups against) and owns no heap memory in
//! the common case. The node's key table holds its records in one
//! array that grows by a quarter at a time, so a node pays for at most
//! a quarter more records than it holds (`crate::keytable`). The
//! capacities are read off the four ledger workloads' end-of-run states,
//! not tuned per run:
//!
//! * **entries** hold one replica in place — 87–100 % of states cache
//!   zero or one entry, none more than four;
//! * **interest** holds four neighbors in place (see
//!   [`crate::interest`]);
//! * **pending** state — the Pending-First-Update stamp and the waiters
//!   (held-open clients, requesters to answer) — exists only between a
//!   miss and its first-time update, 0.2–11 % of states at any instant,
//!   and lives in one box that the answer frees: the record *is* the
//!   flag, so no stamp can outlive it. When the answer comes, at most
//!   two waiters of either kind are waiting in 97–100 % of cases
//!   (Chord's high-in-degree nodes are the tail), so the box holds two
//!   of each in place and a miss costs one allocation;
//! * **audit** and **refresh** state belong to planes
//!   `NodeConfig::cup_default()` leaves off (the sampled audit; §3.6
//!   suppression and aggregation at the authority), and share one box,
//!   `ColdState`, that the first use of either allocates — one pointer
//!   per record where a box each cost two;
//! * **tombstones** — the replicas a delete or an audit repair retired
//!   here — are the audit's firsthand negative knowledge and nothing
//!   else reads them, so only a node with `NodeConfig::audit` set keeps
//!   them, in `ColdState` (three in place: over half of a long-running
//!   auditing node's states carry one or two). An audit-off node's
//!   delete writes no tombstone and allocates nothing.
//!
//! The short lists are all one type, `crate::inline::InlineVec`, which
//! spills to the heap past its capacity and comes back.
//!
//! The record also remembers the key's **upstream hop**: the next hop
//! toward the authority that the last query or clear-bit handled here
//! was routed with, `NOT_ROUTED` before the first. The route does not
//! change while the overlay does not, so a runtime asks the node
//! (`CupNode::upstream_hint`) before it asks the overlay, and a
//! topology change clears every hint (`CupNode::forget_upstream_hints`).
//!
//! Layout (x86-64, as the compiler orders the fields): `popularity` at
//! 0, `entries` at 16, `interest` at 40, the `pending` and `cold` boxes
//! at 64 and 72, `key` at 80, `hop` at 84 and `last_depth` at 88: 96
//! bytes, six of them padding. The entry held in place is 16 bytes —
//! it keeps its expiry instant, not a lifetime and a stamp (see
//! `crate::entry`). The record carries no cut-off decision state: every
//! policy is a function of the popularity measure and the depth
//! (`crate::policy`). Records sit back to back in the key table, so one
//! spans two cache lines or three, by its offset: 2.375 on average over
//! the eight offsets a record can start at (2.75 at 120 bytes). The hop
//! fits because `last_depth` is a `u16` that saturates — paths are
//! hundreds of hops at most, never 65 535.

use cup_des::{KeyId, NodeId, ReplicaId, SimTime};

use crate::audit::AuditTally;
use crate::entry::IndexEntry;
use crate::inline::InlineVec;
use crate::interest::InterestSet;
use crate::message::{ClientId, Requester, Update, UpdateKind};
use crate::popularity::Popularity;

/// How many delete tombstones a key keeps (oldest evicted first; a
/// dropped tombstone's entry has long expired anyway).
const RETIRED_CAP: usize = 8;

/// Cached entries a key holds in place (see the module docs).
const INLINE_ENTRIES: usize = 1;

/// Tombstones a key holds in place.
const INLINE_RETIRED: usize = 3;

/// Waiters of either kind the pending box holds in place.
const INLINE_WAITERS: usize = 2;

/// All state a node keeps for one cached (non-local) key.
#[derive(Debug, Clone)]
pub struct KeyState {
    /// Cached index entries (disjoint from any local directory).
    entries: InlineVec<IndexEntry, INLINE_ENTRIES>,
    /// `Some` exactly while a first-time update is awaited (CUP) or
    /// requesters wait for an answer (standard caching); see [`Pending`].
    pub(crate) pending: Option<Box<Pending>>,
    /// Which neighbors want updates for this key.
    pub interest: InterestSet,
    /// Popularity measure driving cut-off decisions.
    pub popularity: Popularity,
    /// Distance from the authority as carried by the most recent update,
    /// saturated at `u16::MAX`.
    pub last_depth: u16,
    /// The off-by-default planes' state, tombstones included; `None`
    /// until either plane first needs it (see [`ColdState`]).
    pub(crate) cold: Option<Box<ColdState>>,
    /// The key this record belongs to, which the key table's index
    /// confirms a hash-tag match against (see `crate::keytable`).
    pub(crate) key: KeyId,
    /// The next hop toward the key's authority the last query or
    /// clear-bit here was routed with: the node's own id at the
    /// authority, [`NOT_ROUTED`] before the first (see the module docs).
    pub(crate) hop: NodeId,
}

const _: () = assert!(std::mem::size_of::<KeyState>() <= 96);

/// A record's [`KeyState::hop`] before the key was first routed here; no
/// node has this id.
pub(crate) const NOT_ROUTED: NodeId = NodeId(u32::MAX);

/// A key's Pending-First-Update state: since when the node has awaited
/// the first-time update, and who it owes an answer once it arrives.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// When the query went upstream (restamped by a timeout retry).
    pub(crate) since: SimTime,
    /// Local clients with connections held open (CUP mode; §2.5).
    pub(crate) clients: InlineVec<ClientId, INLINE_WAITERS>,
    /// Requesters to route the response to: the waiting neighbors in CUP
    /// mode (one each, however many queries it coalesced), every
    /// requester in arrival order in standard-caching mode.
    pub(crate) requesters: InlineVec<Requester, INLINE_WAITERS>,
}

impl Pending {
    /// A record opened at `now`, nobody waiting yet.
    pub(crate) fn boxed(now: SimTime) -> Box<Pending> {
        Box::new(Pending {
            since: now,
            clients: InlineVec::default(),
            requesters: InlineVec::default(),
        })
    }

    /// Records `from` as waiting (CUP mode): a client's connection is
    /// held open; a neighbor is recorded once, however many queries it
    /// coalesces on its own side.
    pub(crate) fn wait(&mut self, from: Requester) {
        match from {
            Requester::Client(c) => self.clients.push(c),
            Requester::Neighbor(_) if self.requesters.contains(&from) => {}
            Requester::Neighbor(_) => self.requesters.push(from),
        }
    }
}

/// What a key keeps for the planes `NodeConfig::cup_default()` leaves
/// off. One box holds both: a key that uses either plane pays for one
/// allocation, and every other key pays one pointer instead of two.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColdState {
    /// Delete tombstones, newest last (see [`KeyState::retired`]); only
    /// an auditing node writes them.
    pub(crate) retired: InlineVec<ReplicaId, INLINE_RETIRED>,
    /// Sampled-audit state (all defaults until the first audit round).
    pub(crate) audit: AuditState,
    /// Authority-side §3.6 refresh state.
    pub(crate) refresh: RefreshState,
}

/// One key's sampled-audit bookkeeping at the auditing node.
#[derive(Debug, Clone, Default)]
pub(crate) struct AuditState {
    /// When this key was last audited here (the audit rate-limit anchor).
    pub(crate) last_audit: SimTime,
    /// Audit rounds started here for this key (the probe round nonce).
    pub(crate) round: u64,
    /// The in-flight audit round's tally, if one is open.
    pub(crate) tally: Option<AuditTally>,
}

/// One key's §3.6 refresh-overhead state at its authority.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefreshState {
    /// Suppression: refreshes seen since the last one propagated.
    pub(crate) skips: u32,
    /// Aggregation: when the filling batch is due for release (its
    /// opening instant plus the batching window).
    pub(crate) batch_due: SimTime,
    /// Aggregation: refreshed entries awaiting the batching window
    /// (empty: no batch is open).
    pub(crate) batch: Vec<IndexEntry>,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            entries: InlineVec::default(),
            pending: None,
            interest: InterestSet::default(),
            popularity: Popularity::default(),
            last_depth: 0,
            cold: None,
            key: KeyId::default(),
            hop: NOT_ROUTED,
        }
    }
}

impl KeyState {
    /// Creates empty state for a key.
    pub fn new() -> Self {
        KeyState::default()
    }

    /// The cached entries that are still fresh at `now`.
    pub fn fresh_entries(&self, now: SimTime) -> Vec<IndexEntry> {
        self.entries
            .iter()
            .filter(|e| e.is_fresh(now))
            .copied()
            .collect()
    }

    /// Returns `true` if at least one cached entry is fresh.
    pub fn has_fresh(&self, now: SimTime) -> bool {
        self.entries.iter().any(|e| e.is_fresh(now))
    }

    /// Returns `true` if the key has never had entries cached (first-time
    /// miss) as opposed to holding only expired entries (freshness miss).
    pub fn never_cached(&self) -> bool {
        self.entries.is_empty()
    }

    /// All cached entries, fresh or not.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Delete tombstones: replicas this node has seen retired, newest
    /// last. This is the firsthand negative knowledge the sampled cache
    /// audit exchanges — a node that only *lacks* an entry cannot say
    /// whether it never knew it or saw it die. Only a node running the
    /// audit keeps them; elsewhere the list is always empty.
    pub fn retired(&self) -> &[ReplicaId] {
        self.cold.as_ref().map_or(&[], |c| &c.retired)
    }

    /// When the node started awaiting this key's first-time update (CUP)
    /// or an answer for its requesters (standard caching); `None` when it
    /// awaits nothing.
    pub fn pending_since(&self) -> Option<SimTime> {
        self.pending.as_ref().map(|p| p.since)
    }

    /// The off-by-default planes' state, allocated on first use.
    pub(crate) fn cold_mut(&mut self) -> &mut ColdState {
        self.cold.get_or_insert_with(Box::default)
    }

    /// When this key was last audited here (time zero if never).
    pub(crate) fn last_audit(&self) -> SimTime {
        self.cold
            .as_ref()
            .map_or(SimTime::ZERO, |c| c.audit.last_audit)
    }

    /// Reads a field in each cache line the record spans, whatever its
    /// offset in the table's array, and writes nothing (the test
    /// `touching_reads_every_cache_line_a_record_spans` holds the layout
    /// to that). See `CupNode::touch_key`.
    pub(crate) fn touch(&self) {
        let pop = &self.popularity;
        std::hint::black_box((
            // All three of the measure's fields: every byte of it.
            (
                pop.queries_since_reset(),
                pop.consecutive_empty(),
                pop.tracked_replica(),
            ),
            self.entries.len(),
            self.pending.is_some(),
            self.last_depth,
            self.key,
            self.hop,
        ));
    }

    /// Applies an update to the cached entry set.
    ///
    /// First-time updates replace the whole set (they carry the
    /// authoritative fresh answer); refreshes and appends upsert the entry
    /// for their replica; deletes remove the replica of each entry they
    /// carry, and leave a tombstone for it when `audit` is set (the
    /// node runs the sampled audit, the tombstones' only reader).
    pub fn apply(&mut self, update: &Update, audit: bool) {
        match update.kind {
            UpdateKind::FirstTime => {
                self.entries = InlineVec::from_slice(&update.entries);
            }
            UpdateKind::Refresh | UpdateKind::Append => {
                for e in &update.entries {
                    self.upsert(*e);
                }
            }
            UpdateKind::Delete => {
                for dead in &update.entries {
                    self.entries.retain(|e| e.replica != dead.replica);
                    self.popularity.untrack_if(dead.replica);
                    if audit {
                        self.mark_retired(dead.replica);
                    }
                }
            }
        }
        self.last_depth = u16::try_from(update.depth).unwrap_or(u16::MAX);
    }

    /// Records that `replica` was seen retired (bounded, deduplicated).
    pub fn mark_retired(&mut self, replica: ReplicaId) {
        let retired = &mut self.cold_mut().retired;
        if retired.contains(&replica) {
            return;
        }
        if retired.len() == RETIRED_CAP {
            retired.remove(0);
        }
        retired.push(replica);
    }

    /// Applies an audit repair: evicts the condemned replicas (marking
    /// them retired) and adopts the quorum's fresh entries for replicas
    /// this node does not already serve — the "evict and refetch" step.
    pub fn audit_repair(&mut self, evict: &[ReplicaId], adopt: &[IndexEntry]) {
        for &replica in evict {
            self.entries.retain(|e| e.replica != replica);
            self.popularity.untrack_if(replica);
            self.mark_retired(replica);
        }
        for entry in adopt {
            if !self.retired().contains(&entry.replica)
                && !self.entries.iter().any(|e| e.replica == entry.replica)
            {
                self.entries.push(*entry);
            }
        }
    }

    /// Inserts or replaces the entry for one replica.
    fn upsert(&mut self, entry: IndexEntry) {
        match self.entries.iter_mut().find(|e| e.replica == entry.replica) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::{KeyId, ReplicaId, SimDuration};

    fn entry(replica: u32, at: u64, life: u64) -> IndexEntry {
        IndexEntry::new(
            KeyId(1),
            ReplicaId(replica),
            SimDuration::from_secs(life),
            SimTime::from_secs(at),
        )
    }

    fn update(kind: UpdateKind, entries: Vec<IndexEntry>) -> Update {
        Update {
            key: KeyId(1),
            kind,
            entries,
            replica: ReplicaId(0),
            depth: 2,
            origin: SimTime::ZERO,
            window_end: SimTime::MAX,
        }
    }

    #[test]
    fn fresh_filtering() {
        let mut st = KeyState::new();
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 100), entry(1, 0, 500)],
            ),
            false,
        );
        let now = SimTime::from_secs(200);
        assert!(st.has_fresh(now));
        let fresh = st.fresh_entries(now);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].replica, ReplicaId(1));
        assert!(!st.never_cached());
        assert_eq!(st.last_depth, 2);
    }

    #[test]
    fn first_time_replaces_set() {
        let mut st = KeyState::new();
        st.apply(
            &update(UpdateKind::FirstTime, vec![entry(0, 0, 100)]),
            false,
        );
        st.apply(
            &update(UpdateKind::FirstTime, vec![entry(1, 0, 100)]),
            false,
        );
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].replica, ReplicaId(1));
    }

    #[test]
    fn refresh_upserts() {
        let mut st = KeyState::new();
        st.apply(&update(UpdateKind::Refresh, vec![entry(0, 0, 100)]), false);
        assert_eq!(st.entries().len(), 1);
        st.apply(
            &update(UpdateKind::Refresh, vec![entry(0, 100, 100)]),
            false,
        );
        assert_eq!(st.entries().len(), 1, "refresh must not duplicate");
        assert!(st.has_fresh(SimTime::from_secs(150)));
    }

    #[test]
    fn append_adds_delete_removes() {
        let mut st = KeyState::new();
        st.apply(&update(UpdateKind::Append, vec![entry(0, 0, 100)]), false);
        st.apply(&update(UpdateKind::Append, vec![entry(1, 0, 100)]), false);
        assert_eq!(st.entries().len(), 2);
        st.apply(&update(UpdateKind::Delete, vec![entry(0, 0, 100)]), false);
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].replica, ReplicaId(1));
        // Without the audit a delete leaves no tombstone, nor a box for one.
        assert!(st.retired().is_empty());
        assert!(st.cold.is_none());
    }

    #[test]
    fn delete_untracks_replica() {
        let mut st = KeyState::new();
        use crate::popularity::ResetMode;
        st.popularity
            .on_update(Some(ReplicaId(3)), ResetMode::ReplicaIndependent);
        assert_eq!(st.popularity.tracked_replica(), Some(ReplicaId(3)));
        st.apply(&update(UpdateKind::Delete, vec![entry(3, 0, 100)]), false);
        assert_eq!(st.popularity.tracked_replica(), None);
    }

    #[test]
    fn deletes_leave_tombstones_and_repairs_evict_and_refetch() {
        let mut st = KeyState::new();
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 100), entry(1, 0, 100)],
            ),
            false,
        );
        st.apply(&update(UpdateKind::Delete, vec![entry(0, 0, 100)]), true);
        assert_eq!(st.retired(), vec![ReplicaId(0)], "delete tombstones");
        st.apply(&update(UpdateKind::Delete, vec![entry(0, 0, 100)]), true);
        assert_eq!(st.retired().len(), 1, "tombstones dedup");

        // Repair: evict a served replica, adopt the quorum's entries —
        // except ones we have tombstones for.
        st.audit_repair(&[ReplicaId(1)], &[entry(0, 50, 100), entry(2, 50, 100)]);
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].replica, ReplicaId(2));
        assert!(st.retired().contains(&ReplicaId(1)), "eviction tombstones");
        // The cap bounds the list.
        for r in 10..30 {
            st.mark_retired(ReplicaId(r));
        }
        assert_eq!(st.retired().len(), 8);
        assert!(st.retired().contains(&ReplicaId(29)), "newest kept");
    }

    #[test]
    fn touching_reads_every_cache_line_a_record_spans() {
        use std::mem::{align_of, offset_of, size_of, size_of_val};
        const LINE: usize = 64;
        let st = KeyState::new();
        // What `touch` reads, as byte ranges of the record: `true` where
        // every byte of the field is read, `false` where only some byte
        // is (a list's length), so the field must lie inside a line.
        macro_rules! span {
            ($field:ident, $whole:expr) => {{
                let at = offset_of!(KeyState, $field);
                (at, at + size_of_val(&st.$field), $whole)
            }};
        }
        assert_eq!(
            size_of::<Popularity>(),
            2 * size_of::<u32>() + size_of::<Option<ReplicaId>>(),
            "the measure's three fields fill it"
        );
        let touched = [
            span!(popularity, true),
            span!(entries, false),
            span!(pending, true),
            span!(last_depth, true),
            span!(key, true),
            span!(hop, true),
        ];
        let size = size_of::<KeyState>();
        // Records sit back to back, so over a table a record starts at
        // every multiple of its alignment modulo the line size.
        for start in (0..LINE).step_by(align_of::<KeyState>()) {
            for line in 0..(start + size).div_ceil(LINE) {
                let lo = (line * LINE).saturating_sub(start);
                let hi = ((line + 1) * LINE - start).min(size);
                let read = touched.iter().any(|&(a, b, whole)| match whole {
                    true => a < hi && lo < b,
                    false => lo <= a && b <= hi,
                });
                assert!(
                    read,
                    "a record at {start} mod {LINE}: bytes {lo}..{hi} unread"
                );
            }
        }
    }

    #[test]
    fn a_depth_past_u16_saturates() {
        let mut st = KeyState::new();
        let mut deep = update(UpdateKind::Refresh, vec![entry(0, 0, 100)]);
        for (depth, kept) in [(65_535, u16::MAX), (65_536, u16::MAX), (u32::MAX, u16::MAX)] {
            deep.depth = depth;
            st.apply(&deep, false);
            assert_eq!(st.last_depth, kept, "depth {depth}");
        }
        deep.depth = 7;
        st.apply(&deep, false);
        assert_eq!(st.last_depth, 7, "and comes back down");
    }

    #[test]
    fn never_cached_vs_expired() {
        let mut st = KeyState::new();
        assert!(st.never_cached());
        st.apply(&update(UpdateKind::FirstTime, vec![entry(0, 0, 10)]), false);
        assert!(!st.never_cached());
        assert!(!st.has_fresh(SimTime::from_secs(20)), "expired, not absent");
    }
}
