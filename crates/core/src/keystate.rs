//! Per-key bookkeeping at a node (§2.3).
//!
//! For every non-local key a node has seen, it keeps the cached index
//! entries, the interest record over neighbors, the popularity measure,
//! a `Pending` record while it awaits a first-time update (who is
//! waiting for it, and since when), and the next hop toward the key's
//! authority once it has routed the key.
//!
//! CUP's scaling argument is that this record is tiny, so it is laid out
//! to be: a [`KeyState`] is 56 bytes, seven eighths of a cache line
//! (checked at compile time below), and owns no heap memory in the
//! common case. The node's key table holds its records in one array
//! that grows by a quarter at a time, so a node pays for at most a
//! quarter more records than it holds (`crate::keytable`). The
//! capacities are read off the four ledger workloads' end-of-run states,
//! not tuned per run:
//!
//! * **entries** hold one replica in place — 87–100 % of states cache
//!   zero or one entry, none more than four. A record holds only entries
//!   that were fresh at its last write: every write first drops the
//!   expired ones ([`KeyState::apply`]), so a replica whose delete never
//!   reached this node (it cut itself off, the delete was lost, or it
//!   was never subscribed) leaves with its lifetime instead of holding a
//!   second entry spilled for good. At the end of a seed-1
//!   `live_plain_can` run no record holds two entries, where 53,457 did
//!   (a dead replica's and a live one's) while expired entries stayed.
//!   The entry slot's key is the record's key at all times, also while
//!   the list is empty or spilled (every entry cached for a key indexes
//!   that key), so the key table confirms its lookups against it and the
//!   record keeps no key of its own;
//! * **interest** holds three neighbors in place (see
//!   [`crate::interest`]);
//! * **everything rare** shares one box, `Side`, that exists exactly
//!   while some of it does, and goes when the last of it does:
//!   * **pending** state — the Pending-First-Update stamp and the
//!     waiters (held-open clients, requesters to answer) — exists only
//!     between a miss and its first-time update, 0.2–11 % of states at
//!     any instant, and the answer takes it out: the record *is* the
//!     flag, so no stamp can outlive it. When the answer comes, at most
//!     two waiters of either kind are waiting in 97–100 % of cases
//!     (Chord's high-in-degree nodes are the tail), so the record holds
//!     two of each in place and a miss costs one allocation;
//!   * a list longer than its in-place capacity moves into the box
//!     whole, and back in place when removals bring it down again;
//!   * **audit** and **refresh** state belong to planes
//!     `NodeConfig::cup_default()` leaves off (the sampled audit; §3.6
//!     suppression and aggregation at the authority). They share one
//!     more box, `ColdState`, inside the side box, so that a side box
//!     holding only a pending record stays small;
//!   * **tombstones** — the replicas a delete or an audit repair retired
//!     here — are the audit's firsthand negative knowledge and nothing
//!     else reads them, so only a node with `NodeConfig::audit` set keeps
//!     them, in `ColdState` (three in place: over half of a long-running
//!     auditing node's states carry one or two). An audit-off node's
//!     delete writes no tombstone and allocates nothing.
//!
//! The waiter and tombstone lists are `crate::inline::InlineVec`s, which
//! spill to a heap block of their own past their capacity and come back.
//!
//! The record also remembers the key's **upstream hop**: the next hop
//! toward the authority that the last query or clear-bit handled here
//! was routed with, `NOT_ROUTED` before the first. The route does not
//! change while the overlay does not, so a runtime asks the node
//! (`CupNode::upstream_hint`) before it asks the overlay, and a
//! topology change clears every hint (`CupNode::forget_upstream_hints`).
//!
//! Layout (x86-64, as the compiler orders the fields): the entry slot at
//! 0 (16 bytes: an entry keeps its expiry instant, not a lifetime and a
//! stamp, see `crate::entry`), the side box at 16, three interested
//! neighbors at 24, the hop at 36, the popularity measure at 40 (12
//! bytes, see `crate::popularity`), `last_depth` at 52 and the two
//! lists' one-byte lengths at 54 and 55: 56 bytes, one of them padding
//! (the measure's last). A length takes the byte's low seven bits (a
//! count up to three, or the mark of a list in the side box), and the
//! entry list's high bit is the record's **cached** bit: set by the
//! first entry the record holds and never cleared, it tells a
//! first-time miss from a freshness miss ([`KeyState::never_cached`])
//! once expiry and deletes have emptied the list. Records sit back to
//! back in the key table, so one spans one cache line or two, by its
//! offset: 1.75 on average over the eight offsets a record can start at
//! (1.875 at 64 bytes, 2.375 at 96). The record is deliberately not aligned to a line:
//! `#[repr(align(64))]` would make every record one line, but an
//! alignment above the allocator's 16 bytes sends each growth of a
//! node's record array through an aligned allocation, and with glibc
//! 2.36's malloc on a 2-vCPU guest that cost `live_plain_can` about
//! 30 MiB of peak RSS in heap fragmentation (159 against 129 MiB at
//! seed 1) and raised `live_armed_chord` and `des_armed_chord` above the
//! 96-byte record's readings. The record carries no cut-off decision
//! state: every policy is a function of the popularity measure and the
//! depth (`crate::policy`). The hop fits because `last_depth` is a `u16`
//! that saturates — paths are hundreds of hops at most, never 65 535.

use std::fmt;

use cup_des::{KeyId, NodeId, ReplicaId, SimDuration, SimTime};

use crate::audit::AuditTally;
use crate::entry::IndexEntry;
use crate::inline::InlineVec;
use crate::message::{ClientId, Requester, Update, UpdateKind};
use crate::popularity::Popularity;

/// How many delete tombstones a key keeps (oldest evicted first; a
/// dropped tombstone's entry has long expired anyway).
const RETIRED_CAP: usize = 8;

/// Interested neighbors a key holds in place (see [`crate::interest`]).
const INLINE_INTEREST: usize = 3;

/// Tombstones a key holds in place.
const INLINE_RETIRED: usize = 3;

/// Waiters of either kind a pending record holds in place.
const INLINE_WAITERS: usize = 2;

/// The bits of a list's length byte that hold its length, or [`SPILLED`].
const LEN_MASK: u8 = 0x7F;

/// A list length meaning the whole list is in the side box.
const SPILLED: u8 = LEN_MASK;

/// The bit of the entry list's length byte that says the record has held
/// an entry (see [`KeyState::never_cached`]).
const CACHED: u8 = 0x80;

/// All state a node keeps for one cached (non-local) key.
#[derive(Clone)]
pub struct KeyState {
    /// The cached entry held in place, and the record's key (see the
    /// module docs).
    entry: IndexEntry,
    /// Everything rare; `None` while the record has none of it (see
    /// [`Side`]).
    side: Option<Box<Side>>,
    /// The interested neighbors held in place, ascending.
    interest: [NodeId; INLINE_INTEREST],
    /// Popularity measure driving cut-off decisions.
    pub popularity: Popularity,
    /// The next hop toward the key's authority the last query or
    /// clear-bit here was routed with: the node's own id at the
    /// authority, [`NOT_ROUTED`] before the first (see the module docs).
    pub(crate) hop: NodeId,
    /// Distance from the authority as carried by the most recent update,
    /// saturated at `u16::MAX`.
    pub last_depth: u16,
    /// Cached entries in place (0 or 1), or [`SPILLED`], under
    /// [`LEN_MASK`]; and [`CACHED`].
    entries_len: u8,
    /// Interested neighbors in place (0 to 3), or [`SPILLED`].
    interest_len: u8,
}

// Seven eighths of a line, and an alignment the allocator gives without
// an aligned allocation (see the module docs).
const _: () = assert!(std::mem::size_of::<KeyState>() == 56);
const _: () = assert!(std::mem::align_of::<KeyState>() <= 16);

/// A record's [`KeyState::hop`] before the key was first routed here; no
/// node has this id.
pub(crate) const NOT_ROUTED: NodeId = NodeId(u32::MAX);

/// What a record keeps out of line, in one box that exists exactly while
/// some of it does (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Side {
    /// `Some` exactly while a first-time update is awaited (CUP) or
    /// requesters wait for an answer (standard caching); see [`Pending`].
    pending: Option<Pending>,
    /// The cached entries while there are more than one (empty, and
    /// unallocated, otherwise).
    entries: Vec<IndexEntry>,
    /// The interested neighbors while there are more than three,
    /// ascending (empty, and unallocated, otherwise).
    interest: Vec<NodeId>,
    /// The off-by-default planes' state, tombstones included; `None`
    /// until either plane first needs it, then kept (see [`ColdState`]).
    cold: Option<Box<ColdState>>,
}

impl Side {
    /// Whether nothing is left in the box.
    fn is_empty(&self) -> bool {
        self.pending.is_none()
            && self.entries.is_empty()
            && self.interest.is_empty()
            && self.cold.is_none()
    }

    /// Heap bytes the box and everything in it own.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Side>()
            + vec_bytes(&self.entries)
            + vec_bytes(&self.interest)
            + self.pending.as_ref().map_or(0, Pending::heap_bytes)
            + self.cold.as_deref().map_or(0, ColdState::heap_bytes)
    }
}

/// Heap bytes of a `Vec`'s buffer.
pub(crate) fn vec_bytes<T>(vec: &Vec<T>) -> usize {
    vec.capacity() * std::mem::size_of::<T>()
}

/// Gives the side box back once nothing is left in it.
fn trim(side: &mut Option<Box<Side>>) {
    if side.as_deref().is_some_and(Side::is_empty) {
        *side = None;
    }
}

/// One of a record's two lists, as a slice: `items[..len]` in place, or
/// the side box's list while `len` is [`SPILLED`].
fn list<'a, T, const N: usize>(
    items: &'a [T; N],
    len: u8,
    side: &'a Option<Box<Side>>,
    spill: fn(&Side) -> &Vec<T>,
) -> &'a [T] {
    match side {
        Some(side) if len & LEN_MASK == SPILLED => spill(side),
        _ => &items[..usize::from(len & LEN_MASK).min(N)],
    }
}

/// One of a record's two lists, for writing: up to `N` items in place,
/// or — past `N` — all of them in the side box's `spill` list, until
/// removals bring them down to `N` again.
pub(crate) struct ListMut<'a, T, const N: usize> {
    items: &'a mut [T; N],
    /// The length byte: the length, or [`SPILLED`], under
    /// [`LEN_MASK`]; its other bit is the record's, and left as it is.
    len: &'a mut u8,
    side: &'a mut Option<Box<Side>>,
    spill: fn(&mut Side) -> &mut Vec<T>,
}

impl<T: Copy, const N: usize> ListMut<'_, T, N> {
    /// The length in place, or [`SPILLED`].
    fn len(&self) -> u8 {
        *self.len & LEN_MASK
    }

    /// Sets the length in place, or [`SPILLED`].
    fn set_len(&mut self, len: u8) {
        *self.len = (*self.len & !LEN_MASK) | len;
    }

    /// The side box's list (the box is made if there is none; a spilled
    /// list always has one).
    fn spilled(&mut self) -> &mut Vec<T> {
        (self.spill)(self.side.get_or_insert_with(Box::default))
    }

    /// The items, in order.
    fn as_mut_slice(&mut self) -> &mut [T] {
        match self.len() {
            SPILLED => self.spilled().as_mut_slice(),
            len => &mut self.items[..usize::from(len)],
        }
    }

    /// Inserts `item` at `at`, shifting what follows.
    ///
    /// # Panics
    ///
    /// If `at` is past the length, like `Vec::insert`.
    pub(crate) fn insert(&mut self, at: usize, item: T) {
        let len = self.len();
        if len == SPILLED {
            self.spilled().insert(at, item);
        } else if usize::from(len) < N {
            let len = usize::from(len);
            assert!(at <= len, "insertion index {at} past length {len}");
            self.items.copy_within(at..len, at + 1);
            self.items[at] = item;
            self.set_len(len as u8 + 1);
        } else {
            let items = *self.items;
            let spilled = self.spilled();
            spilled.reserve_exact(2 * N);
            spilled.extend_from_slice(&items[..at]);
            spilled.push(item);
            spilled.extend_from_slice(&items[at..]);
            self.set_len(SPILLED);
        }
    }

    /// Appends `item`.
    fn push(&mut self, item: T) {
        let at = self.as_mut_slice().len();
        self.insert(at, item);
    }

    /// Keeps only the items `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        if self.len() == SPILLED {
            self.spilled().retain(keep);
            self.unspill();
            return;
        }
        let mut kept = 0;
        for i in 0..usize::from(self.len()) {
            if keep(&self.items[i]) {
                self.items[kept] = self.items[i];
                kept += 1;
            }
        }
        self.set_len(kept as u8);
    }

    /// Replaces the whole list with a copy of `items`.
    fn assign(&mut self, items: &[T]) {
        if items.len() > N {
            let spilled = self.spilled();
            spilled.clear();
            spilled.reserve_exact(items.len());
            spilled.extend_from_slice(items);
            self.set_len(SPILLED);
            return;
        }
        if self.len() == SPILLED {
            *self.spilled() = Vec::new();
            trim(self.side);
        }
        self.items[..items.len()].copy_from_slice(items);
        self.set_len(items.len() as u8);
    }

    /// Moves a spilled list that fits again back in place, and gives the
    /// side box back if nothing else is left in it.
    fn unspill(&mut self) {
        let spilled = self.spilled();
        if spilled.len() > N {
            return;
        }
        let items = std::mem::take(spilled);
        self.items[..items.len()].copy_from_slice(&items);
        self.set_len(items.len() as u8);
        trim(self.side);
    }
}

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
    fn new(now: SimTime) -> Pending {
        Pending {
            since: now,
            clients: InlineVec::default(),
            requesters: InlineVec::default(),
        }
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

    /// Heap bytes the waiter lists own once spilled.
    fn heap_bytes(&self) -> usize {
        self.clients.heap_bytes() + self.requesters.heap_bytes()
    }
}

/// What a key keeps for the planes `NodeConfig::cup_default()` leaves
/// off. One box holds both: a key that uses either plane pays for one
/// allocation, and every other key pays nothing.
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

impl ColdState {
    /// Heap bytes the box and its lists own.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<ColdState>()
            + self.retired.heap_bytes()
            + self.audit.tally.as_ref().map_or(0, AuditTally::heap_bytes)
            + vec_bytes(&self.refresh.batch)
    }
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

impl fmt::Debug for KeyState {
    /// The record as its accessors read it: the lists' unused in-place
    /// slots and where each list lives are not part of it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyState")
            .field("key", &self.key())
            .field("entries", &self.entries())
            .field("interest", &self.interest())
            .field("popularity", &self.popularity)
            .field("last_depth", &self.last_depth)
            .field("hop", &self.hop)
            .field("pending", &self.pending())
            .field("cold", &self.cold())
            .finish()
    }
}

impl KeyState {
    /// Creates empty state for `key`.
    pub fn new(key: KeyId) -> Self {
        KeyState {
            entry: IndexEntry::new(key, ReplicaId(0), SimDuration::ZERO, SimTime::ZERO),
            side: None,
            interest: [NodeId(0); INLINE_INTEREST],
            popularity: Popularity::default(),
            hop: NOT_ROUTED,
            last_depth: 0,
            entries_len: 0,
            interest_len: 0,
        }
    }

    /// The key this record belongs to.
    pub fn key(&self) -> KeyId {
        self.entry.key
    }

    /// The cached entries that are still fresh at `now`.
    pub fn fresh_entries(&self, now: SimTime) -> Vec<IndexEntry> {
        self.entries()
            .iter()
            .filter(|e| e.is_fresh(now))
            .copied()
            .collect()
    }

    /// Returns `true` if at least one cached entry is fresh.
    pub fn has_fresh(&self, now: SimTime) -> bool {
        self.entries().iter().any(|e| e.is_fresh(now))
    }

    /// Returns `true` if the record has never held an entry (a miss here
    /// is a first-time miss), as opposed to having held one that has
    /// since expired or been deleted (a freshness miss). A bit in the
    /// record, set by the first entry it holds and never cleared, answers
    /// it: the list itself is emptied by expiry and deletes alike.
    pub fn never_cached(&self) -> bool {
        self.entries_len & CACHED == 0
    }

    /// All cached entries, fresh or not, in the order they arrived (an
    /// upsert keeps its replica's place).
    pub fn entries(&self) -> &[IndexEntry] {
        let items = std::array::from_ref(&self.entry);
        list(items, self.entries_len, &self.side, |s| &s.entries)
    }

    /// The cached-entry list, for writing.
    fn entries_mut(&mut self) -> ListMut<'_, IndexEntry, 1> {
        ListMut {
            items: std::array::from_mut(&mut self.entry),
            len: &mut self.entries_len,
            side: &mut self.side,
            spill: |s| &mut s.entries,
        }
    }

    /// The neighbors interested in updates for this key, ascending (the
    /// order updates are forwarded in; see [`crate::interest`]).
    pub fn interest(&self) -> &[NodeId] {
        list(&self.interest, self.interest_len, &self.side, |s| {
            &s.interest
        })
    }

    /// The interest list, for writing (kept ascending by
    /// [`crate::interest`]'s methods).
    pub(crate) fn interest_mut(&mut self) -> ListMut<'_, NodeId, INLINE_INTEREST> {
        ListMut {
            items: &mut self.interest,
            len: &mut self.interest_len,
            side: &mut self.side,
            spill: |s| &mut s.interest,
        }
    }

    /// Delete tombstones: replicas this node has seen retired, newest
    /// last. This is the firsthand negative knowledge the sampled cache
    /// audit exchanges — a node that only *lacks* an entry cannot say
    /// whether it never knew it or saw it die. Only a node running the
    /// audit keeps them; elsewhere the list is always empty.
    pub fn retired(&self) -> &[ReplicaId] {
        self.cold().map_or(&[], |c| &c.retired)
    }

    /// When the node started awaiting this key's first-time update (CUP)
    /// or an answer for its requesters (standard caching); `None` when it
    /// awaits nothing.
    pub fn pending_since(&self) -> Option<SimTime> {
        self.pending().map(|p| p.since)
    }

    /// The open pending record, if there is one.
    pub(crate) fn pending(&self) -> Option<&Pending> {
        self.side.as_deref()?.pending.as_ref()
    }

    /// The open pending record, for writing.
    pub(crate) fn pending_mut(&mut self) -> Option<&mut Pending> {
        self.side.as_deref_mut()?.pending.as_mut()
    }

    /// The pending record, opened at `now` if none is.
    pub(crate) fn open_pending(&mut self, now: SimTime) -> &mut Pending {
        let side = self.side.get_or_insert_with(Box::default);
        side.pending.get_or_insert_with(|| Pending::new(now))
    }

    /// Closes the pending record, handing it over.
    pub(crate) fn take_pending(&mut self) -> Option<Pending> {
        let pending = self.side.as_deref_mut()?.pending.take();
        trim(&mut self.side);
        pending
    }

    /// The off-by-default planes' state, if either has been used.
    pub(crate) fn cold(&self) -> Option<&ColdState> {
        self.side.as_deref()?.cold.as_deref()
    }

    /// The off-by-default planes' state, for writing, if either has been
    /// used.
    pub(crate) fn cold_mut(&mut self) -> Option<&mut ColdState> {
        self.side.as_deref_mut()?.cold.as_deref_mut()
    }

    /// The off-by-default planes' state, allocated on first use.
    pub(crate) fn cold_or_default(&mut self) -> &mut ColdState {
        let side = self.side.get_or_insert_with(Box::default);
        side.cold.get_or_insert_with(Box::default)
    }

    /// When this key was last audited here (time zero if never).
    pub(crate) fn last_audit(&self) -> SimTime {
        self.cold().map_or(SimTime::ZERO, |c| c.audit.last_audit)
    }

    /// Heap bytes the record owns: its side box and everything in it.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.side.as_deref().map_or(0, Side::heap_bytes)
    }

    /// Reads every field of the record, and so each cache line it spans
    /// whatever its offset in the table's array, and writes nothing (the
    /// test `touching_reads_every_cache_line_a_record_spans` holds the
    /// layout to that). See `CupNode::touch_key`.
    pub(crate) fn touch(&self) {
        let pop = &self.popularity;
        std::hint::black_box((
            self.entry,
            self.side.is_some(),
            self.interest,
            // All four of the measure's fields, through its accessors:
            // every byte of it but its one byte of padding.
            (
                pop.queries_since_reset(),
                pop.consecutive_empty(),
                pop.tracked_replica(),
            ),
            self.hop,
            self.last_depth,
            self.entries_len,
            self.interest_len,
        ));
    }

    /// Applies an update arriving at `now` to the cached entry set.
    ///
    /// First-time updates replace the whole set (they carry the
    /// authoritative fresh answer). Every other update first drops the
    /// entries that expired by `now`, so a replica whose delete never
    /// came here leaves with its lifetime; then refreshes and appends
    /// upsert the entry for their replica (a replica dropped that way
    /// re-enters at the end of the list), and deletes remove the replica
    /// of each entry they carry, leaving a tombstone for it when `audit`
    /// is set (the node runs the sampled audit, the tombstones' only
    /// reader). An update can carry an entry that expired on the way
    /// beside a fresh one, and that entry is not kept either.
    pub fn apply(&mut self, update: &Update, now: SimTime, audit: bool) {
        debug_assert!(
            update.entries.iter().all(|e| e.key == self.key()),
            "an update for {:?} carries another key's entry",
            self.key()
        );
        match update.kind {
            UpdateKind::FirstTime => self.entries_mut().assign(&update.entries),
            UpdateKind::Refresh | UpdateKind::Append => {
                self.prune(now);
                for e in &update.entries {
                    self.upsert(*e);
                }
            }
            UpdateKind::Delete => {
                self.prune(now);
                for dead in &update.entries {
                    self.entries_mut().retain(|e| e.replica != dead.replica);
                    self.popularity.untrack_if(dead.replica);
                    if audit {
                        self.mark_retired(dead.replica);
                    }
                }
            }
        }
        if update.entries.iter().any(|e| !e.is_fresh(now)) {
            // An entry that expired on the way leaves too.
            self.prune(now);
        }
        self.last_depth = u16::try_from(update.depth).unwrap_or(u16::MAX);
        self.settle(now);
    }

    /// Records that `replica` was seen retired (bounded, deduplicated).
    pub fn mark_retired(&mut self, replica: ReplicaId) {
        let retired = &mut self.cold_or_default().retired;
        if retired.contains(&replica) {
            return;
        }
        if retired.len() == RETIRED_CAP {
            retired.remove(0);
        }
        retired.push(replica);
    }

    /// Applies an audit repair at `now`: drops the entries that expired
    /// by `now`, evicts the condemned replicas (marking them retired) and
    /// adopts the quorum's entries that are still fresh for replicas this
    /// node does not already serve — the "evict and refetch" step. An
    /// expired entry for a replica is gone before the adoption, so it no
    /// longer blocks the quorum's fresh one.
    pub fn audit_repair(&mut self, evict: &[ReplicaId], adopt: &[IndexEntry], now: SimTime) {
        debug_assert!(adopt.iter().all(|e| e.key == self.key()));
        self.prune(now);
        for &replica in evict {
            self.entries_mut().retain(|e| e.replica != replica);
            self.popularity.untrack_if(replica);
            self.mark_retired(replica);
        }
        for entry in adopt {
            if entry.is_fresh(now)
                && !self.retired().contains(&entry.replica)
                && !self.entries().iter().any(|e| e.replica == entry.replica)
            {
                self.entries_mut().push(*entry);
            }
        }
        self.settle(now);
    }

    /// Drops the entries that are no longer fresh at `now`; a list that
    /// fits in place again moves back, and gives the side box back if
    /// nothing else is in it.
    fn prune(&mut self, now: SimTime) {
        self.entries_mut().retain(|e| e.is_fresh(now));
    }

    /// Ends a write at `now`: remembers that the key was cached once the
    /// record holds an entry, and (debug builds) checks that it holds no
    /// entry expired at `now`.
    fn settle(&mut self, now: SimTime) {
        if !self.entries().is_empty() {
            self.entries_len |= CACHED;
        }
        debug_assert!(
            self.entries().iter().all(|e| e.is_fresh(now)),
            "key {:?} holds an entry expired at {now:?} after a write: {:?}",
            self.key(),
            self.entries()
        );
    }

    /// Inserts or replaces the entry for one replica.
    fn upsert(&mut self, entry: IndexEntry) {
        let mut entries = self.entries_mut();
        match entries
            .as_mut_slice()
            .iter_mut()
            .find(|e| e.replica == entry.replica)
        {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::{KeyId, ReplicaId, SimDuration};
    use proptest::prelude::*;

    const T0: SimTime = SimTime::ZERO;

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
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 100), entry(1, 0, 500)],
            ),
            T0,
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
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(UpdateKind::FirstTime, vec![entry(0, 0, 100)]),
            T0,
            false,
        );
        st.apply(
            &update(UpdateKind::FirstTime, vec![entry(1, 0, 100)]),
            T0,
            false,
        );
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].replica, ReplicaId(1));
        // An answer of two entries, one of which ran out on the way: only
        // the fresh one is kept, in place.
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 10), entry(2, 0, 100)],
            ),
            SimTime::from_secs(20),
            false,
        );
        assert_eq!(st.entries(), [entry(2, 0, 100)]);
        assert!(st.side.is_none());
    }

    #[test]
    fn refresh_upserts() {
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(UpdateKind::Refresh, vec![entry(0, 0, 100)]),
            T0,
            false,
        );
        assert_eq!(st.entries().len(), 1);
        st.apply(
            &update(UpdateKind::Refresh, vec![entry(0, 100, 100)]),
            SimTime::from_secs(100),
            false,
        );
        assert_eq!(st.entries().len(), 1, "refresh must not duplicate");
        assert!(st.has_fresh(SimTime::from_secs(150)));
    }

    #[test]
    fn append_adds_delete_removes() {
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(UpdateKind::Append, vec![entry(0, 0, 100)]),
            T0,
            false,
        );
        st.apply(
            &update(UpdateKind::Append, vec![entry(1, 0, 100)]),
            T0,
            false,
        );
        assert_eq!(st.entries().len(), 2);
        st.apply(
            &update(UpdateKind::Delete, vec![entry(0, 0, 100)]),
            T0,
            false,
        );
        assert_eq!(st.entries().len(), 1);
        assert_eq!(st.entries()[0].replica, ReplicaId(1));
        // Without the audit a delete leaves no tombstone, nor a box for one.
        assert!(st.retired().is_empty());
        assert!(st.cold().is_none());
    }

    #[test]
    fn delete_untracks_replica() {
        let mut st = KeyState::new(KeyId(1));
        use crate::popularity::ResetMode;
        st.popularity
            .on_update(Some(ReplicaId(3)), ResetMode::ReplicaIndependent);
        assert_eq!(st.popularity.tracked_replica(), Some(ReplicaId(3)));
        st.apply(
            &update(UpdateKind::Delete, vec![entry(3, 0, 100)]),
            T0,
            false,
        );
        assert_eq!(st.popularity.tracked_replica(), None);
    }

    #[test]
    fn deletes_leave_tombstones_and_repairs_evict_and_refetch() {
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 100), entry(1, 0, 100)],
            ),
            T0,
            false,
        );
        st.apply(
            &update(UpdateKind::Delete, vec![entry(0, 0, 100)]),
            T0,
            true,
        );
        assert_eq!(st.retired(), vec![ReplicaId(0)], "delete tombstones");
        st.apply(
            &update(UpdateKind::Delete, vec![entry(0, 0, 100)]),
            T0,
            true,
        );
        assert_eq!(st.retired().len(), 1, "tombstones dedup");

        // Repair: evict a served replica, adopt the quorum's entries —
        // except ones we have tombstones for.
        st.audit_repair(
            &[ReplicaId(1)],
            &[entry(0, 50, 100), entry(2, 50, 100)],
            SimTime::from_secs(50),
        );
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
        let st = KeyState::new(KeyId(1));
        // What `touch` reads, as byte ranges of the record: every byte of
        // each field.
        macro_rules! span {
            ($field:ident) => {{
                let at = offset_of!(KeyState, $field);
                (at, at + size_of_val(&st.$field))
            }};
        }
        assert_eq!(
            size_of::<Popularity>(),
            size_of::<u32>() + size_of::<ReplicaId>() + size_of::<u16>() + size_of::<bool>() + 1,
            "the measure's four fields fill it but for one byte of padding"
        );
        let touched = [
            span!(entry),
            span!(side),
            span!(interest),
            span!(popularity),
            span!(hop),
            span!(last_depth),
            span!(entries_len),
            span!(interest_len),
        ];
        let size = size_of::<KeyState>();
        assert_eq!(size, 56, "seven eighths of a line");
        // Records sit back to back, so over a table a record starts at
        // every multiple of its alignment modulo the line size.
        let starts = (0..LINE).step_by(align_of::<KeyState>());
        let spanned: usize = starts.clone().map(|at| (at + size).div_ceil(LINE)).sum();
        assert_eq!(
            (spanned, starts.len()),
            (14, 8),
            "1.75 lines on average over the eight offsets (1.875 at 64 bytes)"
        );
        for start in starts {
            for line in 0..(start + size).div_ceil(LINE) {
                let lo = (line * LINE).saturating_sub(start);
                let hi = ((line + 1) * LINE - start).min(size);
                assert!(
                    touched.iter().any(|&(a, b)| a < hi && lo < b),
                    "a record at {start} mod {LINE}: bytes {lo}..{hi} unread"
                );
            }
        }
    }

    #[test]
    fn a_depth_past_u16_saturates() {
        let mut st = KeyState::new(KeyId(1));
        let mut deep = update(UpdateKind::Refresh, vec![entry(0, 0, 100)]);
        for (depth, kept) in [(65_535, u16::MAX), (65_536, u16::MAX), (u32::MAX, u16::MAX)] {
            deep.depth = depth;
            st.apply(&deep, T0, false);
            assert_eq!(st.last_depth, kept, "depth {depth}");
        }
        deep.depth = 7;
        st.apply(&deep, T0, false);
        assert_eq!(st.last_depth, 7, "and comes back down");
    }

    #[test]
    fn never_cached_vs_expired() {
        let mut st = KeyState::new(KeyId(1));
        assert!(st.never_cached());
        // A negative answer caches nothing.
        st.apply(&update(UpdateKind::FirstTime, vec![]), T0, false);
        assert!(st.never_cached());
        st.apply(
            &update(UpdateKind::FirstTime, vec![entry(0, 0, 10)]),
            T0,
            false,
        );
        assert!(!st.never_cached());
        assert!(!st.has_fresh(SimTime::from_secs(20)), "expired, not absent");
        // A delete that empties the list leaves the key cached once.
        let now = SimTime::from_secs(5);
        st.apply(
            &update(UpdateKind::Delete, vec![entry(0, 0, 10)]),
            now,
            false,
        );
        assert!(st.entries().is_empty());
        assert!(!st.never_cached(), "deleted, not never cached");
        // So does a write that finds the only entry expired.
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(UpdateKind::Refresh, vec![entry(0, 0, 10)]),
            T0,
            false,
        );
        let later = SimTime::from_secs(20);
        st.apply(
            &update(UpdateKind::Delete, vec![entry(1, 20, 10)]),
            later,
            false,
        );
        assert!(st.entries().is_empty(), "the expired entry left");
        assert!(!st.never_cached(), "expired, not never cached");
    }

    #[test]
    fn a_pruned_replica_re_enters_at_the_end() {
        let mut st = KeyState::new(KeyId(1));
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(0, 0, 10), entry(1, 0, 100)],
            ),
            T0,
            false,
        );
        // Replica 0 expired at 10 s and is dropped before its own refresh
        // lands, so it comes back behind replica 1 instead of in its old
        // place.
        let now = SimTime::from_secs(20);
        st.apply(
            &update(UpdateKind::Refresh, vec![entry(0, 20, 100)]),
            now,
            false,
        );
        assert_eq!(st.entries(), [entry(1, 0, 100), entry(0, 20, 100)]);
    }

    #[test]
    fn audit_repair_adopts_over_an_expired_entry() {
        let mut st = KeyState::new(KeyId(1));
        // Replica 2 (short-lived) and replica 0 cached; replica 2's entry
        // expires at 10 s.
        st.apply(
            &update(
                UpdateKind::FirstTime,
                vec![entry(2, 0, 10), entry(0, 0, 100)],
            ),
            T0,
            false,
        );
        // At 50 s a quorum condemns replica 0 and offers a fresh entry for
        // replica 2: the expired one held here no longer blocks it.
        let now = SimTime::from_secs(50);
        st.audit_repair(&[ReplicaId(0)], &[entry(2, 50, 100)], now);
        assert_eq!(st.entries(), [entry(2, 50, 100)]);
        assert!(st.has_fresh(now));
        assert_eq!(st.retired(), [ReplicaId(0)]);
        // An offer that expired before the repair is not adopted.
        st.audit_repair(&[], &[entry(3, 0, 10)], now);
        assert_eq!(st.entries(), [entry(2, 50, 100)]);
    }

    /// What the record's lists and boxes should hold, kept plainly.
    #[derive(Default)]
    struct Model {
        entries: Vec<IndexEntry>,
        interest: Vec<NodeId>,
        pending: Option<SimTime>,
        cold: bool,
        retired: Vec<ReplicaId>,
        cached: bool,
    }

    impl Model {
        /// What every write does first: the entries expired at `now` go.
        fn prune(&mut self, now: SimTime) {
            self.entries.retain(|e| e.is_fresh(now));
        }

        /// Inserts or replaces one replica's entry.
        fn upsert(&mut self, e: IndexEntry) {
            match self.entries.iter_mut().find(|m| m.replica == e.replica) {
                Some(slot) => *slot = e,
                None => self.entries.push(e),
            }
        }

        /// A tombstone, bounded and deduplicated, in the cold box.
        fn mark_retired(&mut self, replica: ReplicaId) {
            self.cold = true;
            if !self.retired.contains(&replica) {
                if self.retired.len() == RETIRED_CAP {
                    self.retired.remove(0);
                }
                self.retired.push(replica);
            }
        }

        /// What every write does last.
        fn settle(&mut self, now: SimTime) {
            self.prune(now);
            self.cached |= !self.entries.is_empty();
        }
    }

    /// Checks the record against the model: both lists in content and
    /// order, the tombstones, the pending stamp, the cached bit, where
    /// each list lives, and that the side box exists exactly while
    /// something is in it.
    fn check(st: &KeyState, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(st.key(), KeyId(1), "the entry slot keeps the key");
        prop_assert_eq!(st.entries(), model.entries.as_slice());
        prop_assert_eq!(st.interest(), model.interest.as_slice());
        prop_assert_eq!(st.retired(), model.retired.as_slice());
        prop_assert_eq!(st.pending_since(), model.pending);
        prop_assert_eq!(st.cold().is_some(), model.cold);
        prop_assert_eq!(st.never_cached(), !model.cached);
        let spilled = (
            model.entries.len() > 1,
            model.interest.len() > INLINE_INTEREST,
        );
        prop_assert_eq!(
            (
                st.entries_len & LEN_MASK == SPILLED,
                st.interest_len == SPILLED
            ),
            spilled
        );
        let rare = model.pending.is_some() || spilled.0 || spilled.1 || model.cold;
        prop_assert_eq!(st.side.is_some(), rare, "the side box");
        if let Some(side) = st.side.as_deref() {
            // A list in place leaves nothing allocated in the box.
            prop_assert_eq!(side.entries.capacity() == 0, !spilled.0);
            prop_assert_eq!(side.interest.capacity() == 0, !spilled.1);
        }
        Ok(())
    }

    proptest! {
        /// Random applies of every kind, audit repairs, interest sets and
        /// clears, pending opens and answers and cold-state creation
        /// against the model, on a clock that only moves forward, checked
        /// after every operation. Entries live 0–99 s and arrive up to
        /// 30 s after their stamp, so some expire in the record and some
        /// arrive expired: every write drops the expired ones first (a
        /// replica dropped so re-enters at the end of the list when its
        /// refresh comes), and an entry that arrives expired is not kept.
        /// Both lists cross their in-place capacity in both directions,
        /// and the side box comes and goes with what it holds.
        #[test]
        fn the_record_matches_a_vec_model(ops in proptest::collection::vec((0u32..11, 0u32..12, 0u32..100, 0u64..30), 0..200)) {
            let mut st = KeyState::new(KeyId(1));
            let mut model = Model::default();
            let mut clock = 0;
            for (op, a, b, step) in ops {
                clock += step;
                let now = SimTime::from_secs(clock);
                let replica = a % 6;
                // Stamped up to 30 s before it arrives, living `b` s (plus
                // 10 s per place in a longer answer).
                let stamped = clock.saturating_sub(u64::from(b % 4) * 10);
                let e = entry(replica, stamped, u64::from(b));
                match op {
                    0 => {
                        // Distinct replicas, as an authority answers.
                        let answer: Vec<IndexEntry> = (0..a % 4)
                            .map(|i| entry((replica + i) % 6, stamped, u64::from(b + 10 * i)))
                            .collect();
                        st.apply(&update(UpdateKind::FirstTime, answer.clone()), now, false);
                        model.entries = answer;
                        model.settle(now);
                    }
                    1 | 2 => {
                        let kind = [UpdateKind::Refresh, UpdateKind::Append][op as usize - 1];
                        st.apply(&update(kind, vec![e]), now, false);
                        model.prune(now);
                        model.upsert(e);
                        model.settle(now);
                    }
                    3 => {
                        let audit = b % 2 == 0;
                        st.apply(&update(UpdateKind::Delete, vec![e]), now, audit);
                        model.prune(now);
                        model.entries.retain(|m| m.replica != e.replica);
                        if audit {
                            model.mark_retired(e.replica);
                        }
                        model.settle(now);
                    }
                    4 | 5 => {
                        let n = NodeId(a % 10);
                        st.set_interest(n);
                        if let Err(at) = model.interest.binary_search(&n) {
                            model.interest.insert(at, n);
                        }
                    }
                    6 => {
                        let n = NodeId(a % 10);
                        let was = model.interest.contains(&n);
                        model.interest.retain(|&m| m != n);
                        prop_assert_eq!(st.clear_interest(n), was);
                    }
                    7 => {
                        st.open_pending(now).wait(Requester::Neighbor(NodeId(a)));
                        model.pending.get_or_insert(now);
                    }
                    8 => {
                        let taken = st.take_pending().map(|p| p.since);
                        prop_assert_eq!(taken, model.pending.take());
                    }
                    9 => {
                        // Evict one replica and offer entries for the next
                        // two.
                        let offer = [entry((replica + 1) % 6, stamped, u64::from(b)),
                            entry((replica + 2) % 6, clock, u64::from(b))];
                        st.audit_repair(&[ReplicaId(replica)], &offer, now);
                        model.prune(now);
                        model.entries.retain(|m| m.replica.0 != replica);
                        model.mark_retired(ReplicaId(replica));
                        for o in offer {
                            if o.is_fresh(now)
                                && !model.retired.contains(&o.replica)
                                && !model.entries.iter().any(|m| m.replica == o.replica)
                            {
                                model.entries.push(o);
                            }
                        }
                        model.settle(now);
                    }
                    _ => {
                        st.cold_or_default();
                        model.cold = true;
                    }
                }
                check(&st, &model)?;
            }
        }
    }
}
