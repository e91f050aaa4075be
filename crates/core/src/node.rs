//! The CUP node state machine.
//!
//! A [`CupNode`] implements the complete per-node protocol of the paper:
//! query handling (§2.5), update handling (§2.6), clear-bit handling
//! (§2.7), authority-side replica bookkeeping (§2.1, §2.4), adaptive
//! capacity-controlled push (§2.8), and churn patching hooks (§2.9). It is
//! runtime-agnostic: handlers take the current time and emit
//! [`Action`]s; the embedding runtime routes queries (supplying the
//! `upstream` next hop toward each key's authority) and delivers messages.
//!
//! Everything a node knows about a key — cache, flags, interest, the
//! authority-side refresh state — is one [`KeyState`] record in the
//! node's key table (`crate::keytable`). Each handler finds that record
//! once and works on it; the helpers below take the record (or what they
//! need from it) instead of the key, so no path looks a key up twice or
//! has to assume a second lookup succeeds.
//!
//! # Who owns the payload
//!
//! An update's entries are the one heap block a message carries, and a
//! handler receives the update by value, so each path moves that block
//! as far as it goes and clones it only where two recipients need one
//! each:
//!
//! * **applied and kept** (cut-off evaluated, nobody downstream) — the
//!   record copies the entries it wants in place and the update is
//!   dropped;
//! * **forwarded** (`forward_to`, from a received update or a directory
//!   change) — the last interested neighbor gets the update itself, the
//!   others clones: fan-out *n* costs *n* − 1 allocations, a relay to one
//!   neighbor none;
//! * **answered** (`answer_waiters`, the first-time path) — waiting
//!   neighbors share the received update the same way; waiting clients
//!   share one copy of the key's fresh entries, which is built only if a
//!   client is waiting and whose last taker gets the original;
//! * **served from cache or directory** (`respond`) — the fresh entries
//!   are built once and moved into the single answer.
//!
//! Where the update goes one hop further down, its depth is set by
//! [`Update::forwarded`] and nowhere else.

use cup_des::{KeyId, NodeId, ReplicaId, SimTime};

use crate::action::Action;
use crate::audit::{sample_targets, AuditTally};
use crate::capacity::OutgoingQueues;
use crate::config::{AuditConfig, Mode, NodeConfig};
use crate::directory::{DirectoryChange, LocalDirectory};
use crate::entry::IndexEntry;
use crate::interest::InterestSet;
use crate::keystate::{KeyState, Pending, NOT_ROUTED};
use crate::keytable::KeyTable;
use crate::message::{Message, ReplicaEvent, Requester, Update, UpdateKind};
use crate::policy::CutoffContext;
use crate::stats::NodeStats;

/// A replica id used on first-time updates that carry no entries (negative
/// responses); it never collides with real replicas.
const NO_REPLICA: cup_des::ReplicaId = cup_des::ReplicaId(u32::MAX);

/// One peer-to-peer node running CUP (or the standard-caching baseline).
#[derive(Debug)]
pub struct CupNode {
    id: NodeId,
    config: NodeConfig,
    keys: KeyTable,
    directory: LocalDirectory,
    outgoing: OutgoingQueues,
    /// Local protocol counters (no network cost).
    pub stats: NodeStats,
}

impl CupNode {
    /// Creates a node with the given configuration.
    pub fn new(id: NodeId, config: NodeConfig) -> Self {
        CupNode {
            id,
            config,
            keys: KeyTable::default(),
            directory: LocalDirectory::new(),
            outgoing: OutgoingQueues::new(),
            stats: NodeStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sets the node's §2.8 capacity fraction (a node's "ability or
    /// willingness to propagate updates may vary with its workload").
    /// A cut from full capacity to below it throttles the node: forwarded
    /// updates then wait in the outgoing queues until
    /// [`CupNode::service_outgoing_into`] releases them. Returns `true`
    /// exactly for such a cut — the caller must start a service loop —
    /// even if one is already running.
    pub fn set_capacity(&mut self, c: f64) -> bool {
        self.outgoing.set_capacity(c)
    }

    /// Whether forwarded updates wait in the outgoing queues (see
    /// [`CupNode::set_capacity`]).
    pub fn is_throttled(&self) -> bool {
        self.outgoing.is_throttled()
    }

    /// Read access to the per-key state (tests and diagnostics).
    pub fn key_state(&self, key: KeyId) -> Option<&KeyState> {
        self.keys.get(key)
    }

    /// Messages a driver looks ahead over with [`CupNode::touch_key`]:
    /// both runtimes handle messages in groups of this many, touching the
    /// group's `(node, key)` records back to back before handling the
    /// first. Each hop's handler starts with a chain of dependent cache
    /// misses (node → key index → record); issued together, the group's
    /// chains overlap, and the handlers then find them cached.
    ///
    /// Live (the worker's inline FIFO), on `live_plain_can`: groups of
    /// 8, 16 and 32 measured alike, a group of 1 (no look-ahead) at
    /// 0.6–0.7 of their update rate, and touching one message a fixed
    /// distance ahead of the one being handled gained nothing — the loads
    /// must issue together. DES (the event just popped plus the event
    /// queue's next 15, read through `EventQueue::ahead`): over the same
    /// queue without the touches, 1.08× `des_plain_can` and 1.10×
    /// `des_armed_chord` queries/s, 6 of 6 paired runs each.
    pub const LOOKAHEAD: usize = 16;

    /// Reads `key`'s record, if the node has one, and nothing else: no
    /// record is created and nothing is written. A driver that knows the
    /// `(node, key)` pairs it handles next touches them back to back
    /// first, so their cache misses overlap instead of each handler
    /// waiting out its own (both runtimes' dispatch loops do, in groups
    /// of [`CupNode::LOOKAHEAD`]).
    pub fn touch_key(&self, key: KeyId) {
        if let Some(st) = self.keys.get(key) {
            st.touch();
        }
    }

    /// The next hop from this node toward `key`'s authority, as the last
    /// query or clear-bit for `key` handled here was routed: `Some(None)`
    /// if this node is the authority, `None` if the node has not routed
    /// `key` (no record, or a record no query or clear-bit has reached).
    /// A runtime that asks here before it asks the overlay routes once per
    /// `(node, key)`, as long as it calls
    /// [`CupNode::forget_upstream_hints`] whenever the overlay changes.
    pub fn upstream_hint(&self, key: KeyId) -> Option<Option<NodeId>> {
        let hop = self.keys.get(key)?.hop;
        (hop != NOT_ROUTED).then_some((hop != self.id).then_some(hop))
    }

    /// Forgets every key's upstream hop (see [`CupNode::upstream_hint`]):
    /// the overlay changed, so the next query or clear-bit routes afresh.
    pub fn forget_upstream_hints(&mut self) {
        for st in self.keys.values_mut() {
            st.hop = NOT_ROUTED;
        }
    }

    /// Read access to the local index directory.
    pub fn directory(&self) -> &LocalDirectory {
        &self.directory
    }

    /// Number of updates currently waiting in the outgoing queues.
    pub fn queued_updates(&self) -> usize {
        self.outgoing.total_len()
    }

    /// Handles a search query for `key` posted by `from` (§2.5).
    ///
    /// `upstream` is the next hop toward the key's authority, or `None`
    /// if this node *is* the authority. In every case the node updates its
    /// popularity measure and registers neighbor interest; then:
    ///
    /// * **authority** — answer from the local directory immediately;
    /// * **case 1** (fresh entries cached) — answer from cache with a
    ///   first-time update;
    /// * **case 2** (key not in cache) — open the key's Pending-First-Update
    ///   record and push one query upstream;
    /// * **case 3** (all entries expired) — as case 2, but the query is
    ///   coalesced if the record is already open (and younger than
    ///   `NodeConfig::pfu_timeout`; an older one is retried).
    ///
    /// Actions are pushed into `out`, so a driver can reuse one buffer
    /// across events (every handler below takes the same form).
    pub fn handle_query_into(
        &mut self,
        now: SimTime,
        key: KeyId,
        from: Requester,
        upstream: Option<NodeId>,
        out: &mut Vec<Action>,
    ) {
        match from {
            Requester::Neighbor(_) => self.stats.neighbor_queries += 1,
            Requester::Client(_) => self.stats.client_queries += 1,
        }

        let Some(upstream) = upstream else {
            self.answer_as_authority(now, key, from, out);
            return;
        };

        let st = self.keys.get_or_default(key);
        st.hop = upstream;
        st.popularity.record_query();
        if let Requester::Neighbor(n) = from {
            st.interest.set(n);
        }

        if st.has_fresh(now) {
            if matches!(from, Requester::Client(_)) {
                self.stats.client_hits += 1;
            }
            let entries = st.fresh_entries(now);
            let depth = u32::from(st.last_depth) + 1;
            respond(&mut self.stats, from, key, entries, depth, now, out);
            // Served from cache: the moment worth double-checking the
            // cache's honesty (traffic-driven, rate-limited).
            if let Some(cfg) = self.config.audit {
                maybe_audit(&cfg, self.id, &mut self.stats, st, now, key, out);
            }
            return;
        }

        // A miss: classify for the posting node's statistics.
        if matches!(from, Requester::Client(_)) {
            if st.never_cached() {
                self.stats.first_time_misses += 1;
            } else {
                self.stats.freshness_misses += 1;
            }
        }

        match self.config.mode {
            // Every waiter is remembered so the first-time update (the
            // response) reaches it.
            Mode::Cup => match st.pending.as_deref_mut() {
                // No record: open one and send the query upstream.
                None => {
                    st.pending.insert(Pending::boxed(now)).wait(from);
                    out.push(Action::send(upstream, Message::Query { key }));
                }
                // Coalesced into the in-flight query.
                Some(p) if self.config.pfu_timeout >= now.saturating_since(p.since) => {
                    p.wait(from);
                    self.stats.coalesced_queries += 1;
                }
                // The answer is overdue (lost under churn or faults):
                // retry upstream, timing out from now.
                Some(p) => {
                    self.stats.pfu_retries += 1;
                    self.stats
                        .pfu_retry_age
                        .record(now.saturating_since(p.since).as_micros());
                    p.wait(from);
                    p.since = now;
                    out.push(Action::send(upstream, Message::Query { key }));
                }
            },
            Mode::StandardCaching => {
                // No coalescing: every missing query is forwarded and the
                // requester recorded for per-query response routing.
                let pending = st.pending.get_or_insert_with(|| Pending::boxed(now));
                pending.requesters.push(from);
                out.push(Action::send(upstream, Message::Query { key }));
            }
        }
    }

    /// Answers a query at the authority node from the local directory.
    fn answer_as_authority(
        &mut self,
        now: SimTime,
        key: KeyId,
        from: Requester,
        out: &mut Vec<Action>,
    ) {
        if matches!(from, Requester::Client(_)) {
            // The authority always answers immediately (no miss).
            self.stats.client_hits += 1;
        }
        if matches!(self.config.mode, Mode::Cup) {
            if let Requester::Neighbor(n) = from {
                // Register the neighbor so future replica updates flow to
                // it.
                let st = self.keys.get_or_default(key);
                st.interest.set(n);
                st.hop = self.id;
            }
        }
        let entries = self.directory.fresh_entries(key, now);
        respond(&mut self.stats, from, key, entries, 1, now, out);
    }

    /// Handles an update arriving from upstream neighbor `from` (§2.6).
    ///
    /// * **case 3** — the update expired in transit: drop it;
    /// * **case 1** — Pending-First-Update record open and this is the
    ///   first-time update: cache it, close the record, answer held-open
    ///   clients, and forward to interested neighbors;
    /// * **case 2** — no record open: if no neighbor is interested, run the
    ///   cut-off policy and either push a Clear-Bit upstream or apply the
    ///   update; otherwise apply and forward to interested neighbors.
    pub fn handle_update_into(
        &mut self,
        now: SimTime,
        from: NodeId,
        mut update: Update,
        out: &mut Vec<Action>,
    ) {
        self.stats.updates_received += 1;
        // Case 3: the network path was slow and the update expired.
        if update.is_expired(now) {
            self.stats.updates_expired_on_arrival += 1;
            return;
        }
        let st = self.keys.get_or_default(update.key);
        // Audit hygiene: with the sampled audit on, a replica this node
        // has seen retired (delete tombstone) cannot be resurrected by
        // any later update — otherwise a lying upstream re-poisons a
        // repaired cache on the next miss. A maintenance update scrubbed
        // empty dies here; a scrubbed first-time update still proceeds
        // (it is a response — a negative one).
        if self.config.audit.is_some() && !update.entries.is_empty() && !st.retired().is_empty() {
            update
                .entries
                .retain(|e| !st.retired().contains(&e.replica));
            if update.entries.is_empty() && update.kind != UpdateKind::FirstTime {
                return;
            }
        }

        let cup = matches!(self.config.mode, Mode::Cup);
        let awaited = cup && update.kind == UpdateKind::FirstTime && st.pending.is_some();
        if awaited || !cup {
            // Case 1 — or the baseline, where every update is a response
            // (one message per recorded requester, no coalescing): cache
            // it and answer whoever is waiting. The first-time update
            // travels down the reverse query path to every waiting
            // requester; neighbors that are merely subscribed (interest
            // bit set, nothing pending) are served by the maintenance
            // update stream, not by other nodes' responses — this is
            // what makes push level 0 degenerate exactly to standard
            // caching (§3.3).
            st.apply(&update);
            if awaited {
                st.popularity
                    .on_update(update.replica, self.config.reset_mode);
            }
            if let Some(pending) = st.pending.take() {
                answer_waiters(&mut self.stats, &pending, update, st, now, out);
            }
            return;
        }

        // Case 2 (and stray non-first-time updates while the record is
        // open, which are applied without closing it).
        if st.interest.is_empty() && st.pending.is_none() {
            let queries_in_window = st.popularity.queries_since_reset();
            let triggered = st
                .popularity
                .on_update(update.replica, self.config.reset_mode);
            if triggered {
                let ctx = CutoffContext {
                    queries_since_reset: queries_in_window,
                    consecutive_empty: st.popularity.consecutive_empty(),
                    depth: update.depth,
                };
                if !self.config.policy.decide(&mut st.policy_state, &ctx) {
                    // Not popular enough: cut off our incoming supply.
                    self.stats.cutoffs += 1;
                    self.stats.clear_bits_sent += 1;
                    out.push(Action::send(from, Message::ClearBit { key: update.key }));
                    return;
                }
            }
            st.apply(&update);
            return;
        }

        st.popularity
            .on_update(update.replica, self.config.reset_mode);
        st.apply(&update);
        let interested = st.interest.clone();
        self.forward_to(&interested, update, Some(from), out);
    }

    /// Pushes an update to every neighbor in `interested` except
    /// `exclude` (the neighbor it came from), honoring the sender-side
    /// push-level cap and the capacity limiter. The caller passes a copy
    /// of the key's interest set — a stack copy unless it spilled — and
    /// gives the update up: the last recipient gets it, payload and all,
    /// and only the others get clones.
    fn forward_to(
        &mut self,
        interested: &InterestSet,
        update: Update,
        exclude: Option<NodeId>,
        actions: &mut Vec<Action>,
    ) {
        let mut update = update.forwarded();
        if update.kind != UpdateKind::FirstTime {
            if let Some(level) = self.config.policy.sender_side_level() {
                if update.depth > level {
                    return;
                }
            }
        }
        let mut recipients = interested.iter().filter(|&n| Some(n) != exclude).peekable();
        while let Some(to) = recipients.next() {
            let entries = hand_over(&mut update.entries, recipients.peek().is_none());
            let copy = Update { entries, ..update };
            self.stats.updates_forwarded += 1;
            if self.outgoing.is_throttled() {
                self.outgoing.enqueue(to, copy);
            } else {
                actions.push(Action::send(to, Message::Update(copy)));
            }
        }
    }

    /// Handles a Clear-Bit control message from downstream neighbor
    /// `from` (§2.7): clear that neighbor's interest, and if the key is
    /// unpopular here and no other neighbor is interested, propagate the
    /// Clear-Bit toward the authority.
    pub fn handle_clear_bit_into(
        &mut self,
        _now: SimTime,
        key: KeyId,
        from: NodeId,
        upstream: Option<NodeId>,
        out: &mut Vec<Action>,
    ) {
        self.stats.clear_bits_received += 1;
        let Some(st) = self.keys.get_mut(key) else {
            return;
        };
        st.hop = upstream.unwrap_or(self.id);
        st.interest.clear(from);
        // Stop wasting queue space on the disinterested neighbor.
        let dropped = self.outgoing.drop_matching(from, key);
        self.stats.updates_forwarded = self.stats.updates_forwarded.saturating_sub(dropped as u64);
        if !st.interest.is_empty() {
            return;
        }
        let Some(upstream) = upstream else {
            // The authority has no upstream to notify.
            return;
        };
        let ctx = CutoffContext {
            queries_since_reset: st.popularity.queries_since_reset(),
            consecutive_empty: st.popularity.consecutive_empty(),
            depth: u32::from(st.last_depth),
        };
        // Read-only evaluation: losing a downstream subscriber is not an
        // update decision point, so no interval is consumed here.
        if !self.config.policy.would_keep(&st.policy_state, &ctx) {
            self.stats.clear_bits_sent += 1;
            out.push(Action::send(upstream, Message::ClearBit { key }));
        }
    }

    /// Answers an audit probe from `from`: everything this node knows
    /// about `key` — directory knowledge (authoritative), fresh cached
    /// entries, and delete tombstones (the firsthand negative knowledge
    /// a poisoned auditor is missing).
    pub fn handle_audit_probe_into(
        &mut self,
        now: SimTime,
        key: KeyId,
        round: u64,
        from: NodeId,
        out: &mut Vec<Action>,
    ) {
        self.stats.audit_probes_served += 1;
        let mut entries = self.directory.fresh_entries(key, now);
        let mut retired = Vec::new();
        if let Some(st) = self.keys.get(key) {
            for e in st.fresh_entries(now) {
                if !entries.iter().any(|d| d.replica == e.replica) {
                    entries.push(e);
                }
            }
            retired = st.retired().to_vec();
        }
        out.push(Action::send(
            from,
            Message::AuditReply {
                key,
                round,
                entries,
                retired,
            },
        ));
    }

    /// Tallies one audit reply for this node's open round. A reply
    /// *dissents* against every replica this node still serves fresh but
    /// the pollee has seen retired; when any replica's dissent reaches
    /// `AuditConfig::quorum`, the node repairs its cache — evicts the
    /// condemned replicas (tombstoning them) and adopts the dissenters'
    /// fresh entries (the refetch). Replies that merely *lack* an entry
    /// abstain, so polling nodes that never cached the key cannot evict
    /// a healthy cache.
    pub fn handle_audit_reply(
        &mut self,
        now: SimTime,
        key: KeyId,
        round: u64,
        entries: &[IndexEntry],
        retired: &[ReplicaId],
    ) {
        self.stats.audit_replies += 1;
        let Some(cfg) = self.config.audit else {
            return;
        };
        let Some(st) = self.keys.get_mut(key) else {
            return;
        };
        let my_fresh: Vec<ReplicaId> = st.fresh_entries(now).iter().map(|e| e.replica).collect();
        // `last_audit` is the instant the currently open round was
        // started, so for a reply that matches the open round it is the
        // probe's send time — the round-trip base (time zero for a key
        // this node never audited).
        let opened = st.last_audit();
        // Recorded for every reply reaching an auditing key, *before*
        // the round checks below: whether a reply lands before or after
        // its round closes depends on arrival interleaving, which the
        // sharded live runtime does not reproduce — the counters gated
        // behind it would diverge from the DES. A reply from a
        // superseded round measures against the newer round's start
        // (saturating to zero), which keeps the sample set deterministic.
        self.stats
            .audit_rtt
            .record(now.saturating_since(opened).as_micros());
        let Some(cold) = st.cold.as_mut() else {
            return;
        };
        let audit = &mut cold.audit;
        let Some(tally) = audit.tally.as_mut() else {
            return;
        };
        if tally.round != round {
            // A late reply from a superseded round.
            return;
        }
        tally.received += 1;
        let mut dissented = false;
        for &replica in &my_fresh {
            if retired.contains(&replica) {
                tally.note_dissent(replica);
                dissented = true;
            }
        }
        if dissented {
            let offered: Vec<IndexEntry> = entries
                .iter()
                .filter(|e| e.is_fresh(now))
                .copied()
                .collect();
            tally.offer(&offered);
        }
        let condemned = tally.condemned(cfg.quorum);
        if !condemned.is_empty() {
            let adopt: Vec<IndexEntry> = tally.payload().to_vec();
            audit.tally = None;
            st.audit_repair(&condemned, &adopt);
            self.stats.audit_repairs += 1;
            return;
        }
        if tally.received >= tally.expected {
            // Round closed clean: the sample agrees with us (or abstains).
            audit.tally = None;
        }
    }

    /// Handles a replica birth/refresh/deletion arriving at this node as
    /// the key's authority, updating the local directory and propagating
    /// the corresponding append/refresh/delete update to interested
    /// neighbors.
    pub fn handle_replica_event_into(
        &mut self,
        now: SimTime,
        event: ReplicaEvent,
        out: &mut Vec<Action>,
    ) {
        let key = event.key();
        let change = self.directory.apply(event, now);
        self.propagate_change(now, key, change, out);
    }

    /// Expires directory entries whose replicas stopped refreshing and
    /// propagates the resulting deletes (§2.4: missing keep-alives).
    pub fn expire_directory(&mut self, now: SimTime) -> Vec<Action> {
        let dead = self.directory.expire(now);
        let mut actions = Vec::new();
        for entry in dead {
            self.propagate_change(
                now,
                entry.key,
                DirectoryChange::Removed(entry),
                &mut actions,
            );
        }
        actions
    }

    /// Turns a directory change into a propagated update.
    fn propagate_change(
        &mut self,
        now: SimTime,
        key: KeyId,
        change: DirectoryChange,
        out: &mut Vec<Action>,
    ) {
        if matches!(self.config.mode, Mode::StandardCaching) {
            // The baseline never pushes maintenance updates.
            return;
        }
        let (kind, entry) = match change {
            DirectoryChange::Added(e) => (UpdateKind::Append, e),
            DirectoryChange::Refreshed(e) => (UpdateKind::Refresh, e),
            DirectoryChange::Removed(e) => (UpdateKind::Delete, e),
            DirectoryChange::Nothing => return,
        };
        let Some(st) = self.keys.get_mut(key) else {
            return;
        };
        if let (UpdateKind::Delete, Some(cold)) = (kind, st.cold.as_mut()) {
            // A held refresh of a dead replica would bring it back
            // downstream when the batch is released.
            cold.refresh.batch.retain(|e| e.replica != entry.replica);
        }
        if st.interest.is_empty() {
            return;
        }
        let entries = match kind {
            UpdateKind::Refresh => {
                // §3.6 overhead reductions for keys with many replicas.
                if !refresh_due(&self.config, st) {
                    return;
                }
                match batch_refresh(&self.config, st, entry, now) {
                    Some(batch) => batch,
                    None => return,
                }
            }
            _ => vec![entry],
        };
        let window_end = entries
            .iter()
            .map(IndexEntry::expires_at)
            .max()
            .unwrap_or_else(|| entry.expires_at());
        let update = Update {
            key,
            kind,
            replica: entries.first().map_or(entry.replica, |e| e.replica),
            window_end,
            entries,
            // The authority *sends* at depth 0; its children receive
            // depth 1 (`forward_to` increments).
            depth: 0,
            origin: now,
        };
        let interested = st.interest.clone();
        self.forward_to(&interested, update, None, out);
    }

    /// Releases queued outgoing updates: pushes out roughly the node's
    /// capacity fraction of what was enqueued since the last service
    /// (§2.8), as the transmissions to perform now. A service at full
    /// capacity drains the whole backlog and lifts the throttle. Returns
    /// whether the node is still throttled, i.e. whether to service it
    /// again.
    pub fn service_outgoing_into(&mut self, now: SimTime, out: &mut Vec<Action>) -> bool {
        let sends = self.outgoing.service(now).into_iter();
        out.extend(sends.map(|(to, u)| Action::send(to, Message::Update(u))));
        self.outgoing.is_throttled()
    }

    /// §2.9: a neighbor departed. Interest pointing at it is remapped to
    /// `successor` (the node that took over its zone) or dropped, and any
    /// queued updates for it are discarded.
    pub fn on_neighbor_departed(&mut self, departed: NodeId, successor: Option<NodeId>) {
        for st in self.keys.values_mut() {
            st.interest.remap(departed, successor);
        }
        self.outgoing.drop_neighbor(departed);
    }

    /// §2.9 hand-over: drains local-directory entries for keys selected
    /// by `predicate` (those whose ownership moved to another node).
    pub fn export_directory(&mut self, predicate: impl FnMut(KeyId) -> bool) -> Vec<IndexEntry> {
        self.directory.drain_keys(predicate)
    }

    /// §2.9 hand-over: merges entries received from a departing node or a
    /// split neighbor into the local directory, eliminating duplicates.
    pub fn import_directory(&mut self, entries: Vec<IndexEntry>) {
        self.directory.merge(entries);
    }
}

// The helpers below run while a handler holds its key's record, so they
// take the node's other fields one by one instead of `&mut CupNode`.

/// Builds the response to one requester: a client gets its held-open
/// connection answered; a neighbor gets a first-time update.
fn respond(
    stats: &mut NodeStats,
    to: Requester,
    key: KeyId,
    entries: Vec<IndexEntry>,
    depth: u32,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    match to {
        Requester::Client(client) => out.push(Action::RespondClient {
            client,
            key,
            entries,
        }),
        Requester::Neighbor(n) => {
            let replica = entries.first().map_or(NO_REPLICA, |e| e.replica);
            let update = Update {
                key,
                kind: UpdateKind::FirstTime,
                entries,
                replica,
                depth,
                origin: now,
                window_end: SimTime::MAX,
            };
            stats.updates_forwarded += 1;
            // Responses are not throttled: a capacity-limited node
            // stops *maintaining* downstream caches (its dependents
            // fall back to standard caching, §2.8), but it still
            // answers queries.
            out.push(Action::send(n, Message::Update(update)));
        }
    }
}

/// Answers everyone who was waiting for `update`, which `st` has already
/// applied: held-open clients first, then each recorded requester
/// (standard-caching response routing: one message each, and there the
/// clients are among the requesters).
///
/// Two payloads leave here and each is built once: the key's fresh
/// entries for the clients — only if a client is waiting — and the
/// update's own entries for the neighbors. The last taker of either gets
/// the original, so a response relayed to one neighbor allocates nothing.
fn answer_waiters(
    stats: &mut NodeStats,
    waiters: &Pending,
    update: Update,
    st: &KeyState,
    now: SimTime,
    out: &mut Vec<Action>,
) {
    let is_client = |r: &&Requester| matches!(r, Requester::Client(_));
    let routed_clients = waiters.requesters.iter().filter(is_client).count();
    let mut clients_left = waiters.clients.len() + routed_clients;
    let mut neighbors_left = waiters.requesters.len() - routed_clients;
    let mut fresh = if clients_left > 0 {
        st.fresh_entries(now)
    } else {
        Vec::new()
    };
    let mut update = update.forwarded();
    let clients = waiters.clients.iter().copied().map(Requester::Client);
    for requester in clients.chain(waiters.requesters.iter().copied()) {
        match requester {
            Requester::Client(client) => {
                clients_left -= 1;
                out.push(Action::RespondClient {
                    client,
                    key: update.key,
                    entries: hand_over(&mut fresh, clients_left == 0),
                });
            }
            Requester::Neighbor(n) => {
                neighbors_left -= 1;
                stats.updates_forwarded += 1;
                let entries = hand_over(&mut update.entries, neighbors_left == 0);
                // Like `respond`: responses bypass the capacity queues so
                // the network stays functional at zero capacity.
                out.push(Action::send(
                    n,
                    Message::Update(Update { entries, ..update }),
                ));
            }
        }
    }
}

/// A payload for one more recipient: the original for the last one, a
/// clone for the others.
fn hand_over(payload: &mut Vec<IndexEntry>, last: bool) -> Vec<IndexEntry> {
    if last {
        std::mem::take(payload)
    } else {
        payload.clone()
    }
}

/// Opens a rate-limited sampled audit round for `key` if one is due
/// (the LOCKSS defense; see [`crate::config::AuditConfig`]). Called
/// after a cache hit is served, so audits are traffic-driven — a node
/// only audits keys it actually answers from — and the per-key
/// `interval` bounds the overhead regardless of query rate.
fn maybe_audit(
    cfg: &AuditConfig,
    me: NodeId,
    stats: &mut NodeStats,
    st: &mut KeyState,
    now: SimTime,
    key: KeyId,
    out: &mut Vec<Action>,
) {
    if now.saturating_since(st.last_audit()) < cfg.interval {
        return;
    }
    let audit = &mut st.cold_mut().audit;
    audit.last_audit = now;
    audit.round += 1;
    let round = audit.round;
    let targets = sample_targets(cfg, me, key, round);
    if targets.is_empty() {
        audit.tally = None;
        return;
    }
    audit.tally = Some(AuditTally::new(round, targets.len() as u32));
    stats.audits_started += 1;
    for to in targets {
        out.push(Action::send(to, Message::AuditProbe { key, round }));
    }
}

/// §3.6 subset suppression: returns `true` when this refresh is the
/// k-th since the last propagated one for the key.
fn refresh_due(config: &NodeConfig, st: &mut KeyState) -> bool {
    let k = config.refresh_keep_one_in.max(1);
    if k == 1 {
        return true;
    }
    let seen = &mut st.cold_mut().refresh.skips;
    *seen += 1;
    if *seen >= k {
        *seen = 0;
        true
    } else {
        false
    }
}

/// §3.6 aggregation: accumulates refreshed entries per key and
/// releases them as one batch once the window has elapsed since the
/// batch opened. Returns `None` while the batch is still filling.
fn batch_refresh(
    config: &NodeConfig,
    st: &mut KeyState,
    entry: IndexEntry,
    now: SimTime,
) -> Option<Vec<IndexEntry>> {
    let Some(window) = config.refresh_batch_window else {
        return Some(vec![entry]);
    };
    let refresh = &mut st.cold_mut().refresh;
    if refresh.batch.is_empty() {
        refresh.batch_opened = now;
    }
    match refresh
        .batch
        .iter_mut()
        .find(|e| e.replica == entry.replica)
    {
        Some(slot) => *slot = entry,
        None => refresh.batch.push(entry),
    }
    (now.saturating_since(refresh.batch_opened) >= window)
        .then(|| std::mem::take(&mut refresh.batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ClientId;
    use crate::policy::CutoffPolicy;
    use crate::popularity::ResetMode;
    use cup_des::{ReplicaId, SimDuration};

    const LIFE: SimDuration = SimDuration::from_secs(300);

    /// `emitted!(node.handler_into(args…))` runs the buffer-form handler
    /// with a fresh buffer as its last argument and returns the buffer.
    macro_rules! emitted {
        ($node:ident . $handler:ident ( $($arg:expr),* $(,)? )) => {{
            let mut out = Vec::new();
            $node.$handler($($arg,)* &mut out);
            out
        }};
    }

    fn cup_node(id: u32) -> CupNode {
        CupNode::new(NodeId(id), NodeConfig::cup_default())
    }

    fn entry(key: u32, replica: u32, at: u64) -> IndexEntry {
        IndexEntry::new(KeyId(key), ReplicaId(replica), LIFE, SimTime::from_secs(at))
    }

    fn first_time(key: u32, entries: Vec<IndexEntry>, depth: u32) -> Update {
        let replica = entries.first().map_or(NO_REPLICA, |e| e.replica);
        Update {
            key: KeyId(key),
            kind: UpdateKind::FirstTime,
            entries,
            replica,
            depth,
            origin: SimTime::ZERO,
            window_end: SimTime::MAX,
        }
    }

    /// `from` queries key 1 at t = 0 and the first-time answer (depth 2)
    /// arrives at t = 1: the node caches key 1, and a neighbor that asked
    /// gets its updates from then on. Returns what the answer emitted.
    fn acquire(node: &mut CupNode, from: Requester) -> Vec<Action> {
        emitted!(node.handle_query_into(SimTime::ZERO, KeyId(1), from, Some(NodeId(9))));
        let answer = first_time(1, vec![entry(1, 0, 0)], 2);
        emitted!(node.handle_update_into(SimTime::from_secs(1), NodeId(9), answer))
    }

    fn refresh(key: u32, replica: u32, at: u64, depth: u32) -> Update {
        let e = entry(key, replica, at);
        Update {
            key: KeyId(key),
            kind: UpdateKind::Refresh,
            entries: vec![e],
            replica: ReplicaId(replica),
            depth,
            origin: SimTime::from_secs(at),
            window_end: e.expires_at(),
        }
    }

    #[test]
    fn authority_answers_client_from_directory() {
        let mut node = cup_node(0);
        emitted!(node.handle_replica_event_into(
            SimTime::ZERO,
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        let actions = emitted!(node.handle_query_into(
            SimTime::from_secs(1),
            KeyId(1),
            Requester::Client(ClientId(7)),
            None,
        ));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::RespondClient {
                client, entries, ..
            } => {
                assert_eq!(*client, ClientId(7));
                assert_eq!(entries.len(), 1);
            }
            other => panic!("expected client response, got {other:?}"),
        }
        assert_eq!(node.stats.client_hits, 1);
    }

    #[test]
    fn authority_answers_neighbor_with_first_time_update() {
        let mut node = cup_node(0);
        emitted!(node.handle_replica_event_into(
            SimTime::ZERO,
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        let actions = emitted!(node.handle_query_into(
            SimTime::from_secs(1),
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        match &actions[0] {
            Action::Send {
                to,
                msg: Message::Update(u),
            } => {
                assert_eq!(*to, NodeId(5));
                assert_eq!(u.kind, UpdateKind::FirstTime);
                assert_eq!(u.depth, 1);
                assert_eq!(u.window_end, SimTime::MAX);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // The neighbor is now registered for future replica updates.
        assert!(node
            .key_state(KeyId(1))
            .unwrap()
            .interest
            .contains(NodeId(5)));
    }

    #[test]
    fn query_miss_sets_pfu_and_pushes_upstream() {
        let mut node = cup_node(1);
        let actions = emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        assert_eq!(
            actions,
            vec![Action::send(NodeId(9), Message::Query { key: KeyId(1) })]
        );
        let pending = node.key_state(KeyId(1)).unwrap().pending_since();
        assert_eq!(pending, Some(SimTime::ZERO), "open, stamped at the miss");
        assert_eq!(node.stats.first_time_misses, 1);
    }

    #[test]
    fn burst_of_queries_coalesces_into_one() {
        let mut node = cup_node(1);
        let a1 = emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        let a2 = emitted!(node.handle_query_into(
            SimTime::from_secs(1),
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
        ));
        let a3 = emitted!(node.handle_query_into(
            SimTime::from_secs(2),
            KeyId(1),
            Requester::Client(ClientId(2)),
            Some(NodeId(9)),
        ));
        assert_eq!(a1.len(), 1, "first query goes upstream");
        assert!(a2.is_empty(), "second query coalesced");
        assert!(a3.is_empty(), "third query coalesced");
        assert_eq!(node.stats.coalesced_queries, 2);
    }

    #[test]
    fn touching_keys_reads_and_never_writes() {
        let mut node = cup_node(1);
        for k in [1u32, 5, 9] {
            emitted!(node.handle_query_into(
                SimTime::ZERO,
                KeyId(k),
                Requester::Neighbor(NodeId(4)),
                Some(NodeId(9)),
            ));
        }
        let update = first_time(5, vec![entry(5, 0, 0)], 3);
        emitted!(node.handle_update_into(SimTime::from_secs(1), NodeId(9), update));
        let records = |node: &mut CupNode| -> Vec<String> {
            node.keys.values_mut().map(|st| format!("{st:?}")).collect()
        };
        let (before, stats) = (records(&mut node), node.stats.clone());
        // Present and absent keys alike, twice over.
        for k in (0..12).chain(0..12) {
            node.touch_key(KeyId(k));
        }
        assert_eq!(
            records(&mut node),
            before,
            "the same records, in the same order"
        );
        assert_eq!(node.stats, stats);
        for k in (0..12).filter(|k| ![1, 5, 9].contains(k)) {
            assert!(node.key_state(KeyId(k)).is_none(), "key {k} got a record");
        }
    }

    #[test]
    fn queries_and_clear_bits_remember_the_upstream_hop() {
        let (key, neighbor) = (KeyId(1), Requester::Neighbor(NodeId(4)));
        let mut node = cup_node(1);
        assert_eq!(node.upstream_hint(key), None, "no record");
        // A record an update made has not been routed.
        let update = refresh(1, 0, 0, 2);
        emitted!(node.handle_update_into(SimTime::ZERO, NodeId(9), update));
        assert_eq!(node.upstream_hint(key), None);
        emitted!(node.handle_query_into(SimTime::ZERO, key, neighbor, Some(NodeId(9))));
        assert_eq!(node.upstream_hint(key), Some(Some(NodeId(9))));
        node.forget_upstream_hints();
        assert_eq!(node.upstream_hint(key), None, "forgotten");
        emitted!(node.handle_clear_bit_into(SimTime::ZERO, key, NodeId(4), Some(NodeId(8))));
        assert_eq!(node.upstream_hint(key), Some(Some(NodeId(8))));
        // A clear-bit for a key without a record leaves none behind.
        emitted!(node.handle_clear_bit_into(SimTime::ZERO, KeyId(2), NodeId(4), Some(NodeId(8))));
        assert_eq!(node.upstream_hint(KeyId(2)), None);
        // At the authority the hop is the node itself: no upstream.
        let mut authority = cup_node(0);
        emitted!(authority.handle_query_into(SimTime::ZERO, key, neighbor, None));
        assert_eq!(authority.upstream_hint(key), Some(None));
        emitted!(authority.handle_clear_bit_into(SimTime::ZERO, KeyId(3), NodeId(4), None));
        assert_eq!(authority.upstream_hint(KeyId(3)), None);
    }

    #[test]
    fn first_time_update_answers_clients_and_interested_neighbors() {
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
        ));
        let update = first_time(1, vec![entry(1, 0, 0)], 3);
        let actions = emitted!(node.handle_update_into(SimTime::from_secs(1), NodeId(9), update));
        let mut client_responses = 0;
        let mut forwards = 0;
        for a in &actions {
            match a {
                Action::RespondClient { .. } => client_responses += 1,
                Action::Send {
                    to,
                    msg: Message::Update(u),
                } => {
                    assert_eq!(*to, NodeId(4));
                    assert_eq!(u.depth, 4, "depth increments downstream");
                    forwards += 1;
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(client_responses, 1);
        assert_eq!(forwards, 1);
        assert_eq!(node.key_state(KeyId(1)).unwrap().pending_since(), None);
    }

    #[test]
    fn fresh_cache_answers_without_upstream_traffic() {
        let mut node = cup_node(1);
        acquire(&mut node, Requester::Client(ClientId(1)));
        let actions = emitted!(node.handle_query_into(
            SimTime::from_secs(2),
            KeyId(1),
            Requester::Client(ClientId(2)),
            Some(NodeId(9)),
        ));
        assert!(matches!(actions[0], Action::RespondClient { .. }));
        assert_eq!(node.stats.client_hits, 1);
    }

    #[test]
    fn expired_update_dropped_on_arrival() {
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        // An update whose entry expired long ago.
        let stale = refresh(1, 0, 0, 2);
        let actions =
            emitted!(node.handle_update_into(SimTime::from_secs(1_000), NodeId(9), stale));
        assert!(actions.is_empty());
        assert_eq!(node.stats.updates_expired_on_arrival, 1);
        assert_eq!(
            node.key_state(KeyId(1)).unwrap().pending_since(),
            Some(SimTime::ZERO),
            "a stale refresh is not the awaited first-time update"
        );
    }

    #[test]
    fn second_chance_cuts_off_after_two_empty_intervals() {
        let mut node = cup_node(1);
        // Acquire the key (one query, answered).
        acquire(&mut node, Requester::Client(ClientId(1)));
        // First refresh with no queries since: second chance, applied.
        let a1 = emitted!(node.handle_update_into(
            SimTime::from_secs(300),
            NodeId(9),
            refresh(1, 0, 300, 2)
        ));
        assert!(a1.is_empty(), "kept receiving, nothing to forward");
        assert!(node
            .key_state(KeyId(1))
            .unwrap()
            .has_fresh(SimTime::from_secs(400)));
        // Second refresh with still no queries: cut off.
        let a2 = emitted!(node.handle_update_into(
            SimTime::from_secs(600),
            NodeId(9),
            refresh(1, 0, 600, 2)
        ));
        assert_eq!(
            a2,
            vec![Action::send(NodeId(9), Message::ClearBit { key: KeyId(1) })]
        );
        assert_eq!(node.stats.cutoffs, 1);
        // The cut-off update was not applied.
        assert!(!node
            .key_state(KeyId(1))
            .unwrap()
            .has_fresh(SimTime::from_secs(700)));
    }

    #[test]
    fn queries_keep_the_subscription_alive() {
        let mut node = cup_node(1);
        acquire(&mut node, Requester::Client(ClientId(1)));
        for round in 1..6 {
            let t = SimTime::from_secs(round * 300);
            // A query lands in every interval, so no cut-off ever fires.
            emitted!(node.handle_query_into(
                t,
                KeyId(1),
                Requester::Client(ClientId(round)),
                Some(NodeId(9)),
            ));
            let actions = emitted!(node.handle_update_into(
                t + SimDuration::from_secs(1),
                NodeId(9),
                refresh(1, 0, round * 300, 2),
            ));
            assert!(actions.is_empty(), "round {round}: no clear-bit expected");
        }
        assert_eq!(node.stats.cutoffs, 0);
    }

    #[test]
    fn updates_forward_only_to_interested_neighbors() {
        let mut node = cup_node(1);
        // Neighbor 4 registers interest; neighbor 5 does not.
        acquire(&mut node, Requester::Neighbor(NodeId(4)));
        let actions = emitted!(node.handle_update_into(
            SimTime::from_secs(10),
            NodeId(9),
            refresh(1, 0, 10, 2)
        ));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Send {
                to,
                msg: Message::Update(u),
            } => {
                assert_eq!(*to, NodeId(4));
                assert_eq!(u.kind, UpdateKind::Refresh);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn clear_bit_cascades_when_unpopular() {
        let mut node = cup_node(1);
        acquire(&mut node, Requester::Neighbor(NodeId(4)));
        // Make the key unpopular here: two empty decision windows.
        emitted!(node.handle_update_into(
            SimTime::from_secs(300),
            NodeId(9),
            refresh(1, 0, 300, 2)
        ));
        emitted!(node.handle_update_into(
            SimTime::from_secs(600),
            NodeId(9),
            refresh(1, 0, 600, 2)
        ));
        // Now the downstream neighbor loses interest.
        let actions = emitted!(node.handle_clear_bit_into(
            SimTime::from_secs(700),
            KeyId(1),
            NodeId(4),
            Some(NodeId(9)),
        ));
        assert_eq!(
            actions,
            vec![Action::send(NodeId(9), Message::ClearBit { key: KeyId(1) })]
        );
        assert!(node.key_state(KeyId(1)).unwrap().interest.is_empty());
    }

    #[test]
    fn clear_bit_stops_at_popular_node() {
        let mut node = cup_node(1);
        acquire(&mut node, Requester::Neighbor(NodeId(4)));
        // Local queries keep the key popular.
        emitted!(node.handle_query_into(
            SimTime::from_secs(2),
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        let actions = emitted!(node.handle_clear_bit_into(
            SimTime::from_secs(3),
            KeyId(1),
            NodeId(4),
            Some(NodeId(9))
        ));
        assert!(actions.is_empty(), "popular key keeps its subscription");
    }

    #[test]
    fn push_level_zero_squelches_at_authority() {
        let config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level: 0 });
        let mut node = CupNode::new(NodeId(0), config);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        let actions = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(1),
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        assert!(actions.is_empty(), "push level 0 = standard caching");
    }

    #[test]
    fn push_level_caps_forwarding_depth() {
        let config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level: 3 });
        let mut node = CupNode::new(NodeId(1), config);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
        ));
        emitted!(node.handle_update_into(
            SimTime::from_secs(1),
            NodeId(9),
            first_time(1, vec![entry(1, 0, 0)], 3),
        ));
        // We sit at depth 3; children would be at depth 4 > level.
        let actions = emitted!(node.handle_update_into(
            SimTime::from_secs(10),
            NodeId(9),
            refresh(1, 0, 10, 3)
        ));
        assert!(actions.is_empty(), "no forwarding past the push level");
    }

    #[test]
    fn the_deepest_depth_saturates_on_both_forwarding_paths() {
        // A push level of u32::MAX admits every depth, so the cap and
        // the copy on the wire must read the same saturated number.
        let deepest = CutoffPolicy::PushLevel { level: u32::MAX };
        let mut node = CupNode::new(NodeId(1), NodeConfig::cup_with_policy(deepest));
        let sent_depths = |actions: &[Action]| -> Vec<u32> {
            let depth = |a: &Action| match a {
                Action::Send {
                    msg: Message::Update(u),
                    ..
                } => Some(u.depth),
                _ => None,
            };
            actions.iter().filter_map(depth).collect()
        };
        // The response path: a first-time update relayed to two waiters.
        for n in [4, 5] {
            emitted!(node.handle_query_into(
                SimTime::ZERO,
                KeyId(1),
                Requester::Neighbor(NodeId(n)),
                Some(NodeId(9)),
            ));
        }
        let answers = emitted!(node.handle_update_into(
            SimTime::from_secs(1),
            NodeId(9),
            first_time(1, vec![entry(1, 0, 0)], u32::MAX - 1),
        ));
        assert_eq!(sent_depths(&answers), [u32::MAX, u32::MAX]);
        // The maintenance path, one below the top and at it.
        for (at, depth) in [(10, u32::MAX - 1), (20, u32::MAX)] {
            let forwards = emitted!(node.handle_update_into(
                SimTime::from_secs(at),
                NodeId(9),
                refresh(1, 0, at, depth),
            ));
            assert_eq!(sent_depths(&forwards), [u32::MAX, u32::MAX], "from {depth}");
        }
    }

    #[test]
    fn authority_propagates_replica_lifecycle() {
        let mut node = cup_node(0);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        let birth = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(1),
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        assert_eq!(birth.len(), 1);
        match &birth[0] {
            Action::Send {
                to,
                msg: Message::Update(u),
            } => {
                assert_eq!(*to, NodeId(5));
                assert_eq!(u.kind, UpdateKind::Append);
                assert_eq!(u.depth, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let refresh_actions = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(250),
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        assert!(matches!(
            &refresh_actions[0],
            Action::Send { msg: Message::Update(u), .. } if u.kind == UpdateKind::Refresh
        ));
        let delete_actions = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(260),
            ReplicaEvent::Deletion {
                key: KeyId(1),
                replica: ReplicaId(0),
            },
        ));
        assert!(matches!(
            &delete_actions[0],
            Action::Send { msg: Message::Update(u), .. } if u.kind == UpdateKind::Delete
        ));
        assert!(node.directory().is_empty());
    }

    #[test]
    fn expire_directory_emits_deletes() {
        let mut node = cup_node(0);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        emitted!(node.handle_replica_event_into(
            SimTime::ZERO,
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        let actions = node.expire_directory(SimTime::from_secs(301));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            &actions[0],
            Action::Send { msg: Message::Update(u), .. } if u.kind == UpdateKind::Delete
        ));
    }

    #[test]
    fn standard_mode_forwards_every_query() {
        let mut node = CupNode::new(NodeId(1), NodeConfig::standard_caching());
        let a1 = emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        let a2 = emitted!(node.handle_query_into(
            SimTime::from_secs(1),
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
        ));
        assert_eq!(a1.len(), 1, "first query forwarded");
        assert_eq!(a2.len(), 1, "second query also forwarded (no coalescing)");
        // The response answers both requesters individually.
        let actions = emitted!(node.handle_update_into(
            SimTime::from_secs(2),
            NodeId(9),
            first_time(1, vec![entry(1, 0, 0)], 2),
        ));
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn standard_mode_authority_never_propagates() {
        let mut node = CupNode::new(NodeId(0), NodeConfig::standard_caching());
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        let actions = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(1),
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        assert!(actions.is_empty());
    }

    #[test]
    fn throttled_maintenance_updates_wait_for_service() {
        let mut node = cup_node(1);
        assert!(node.set_capacity(0.5));
        // The response itself is never throttled.
        let response = acquire(&mut node, Requester::Neighbor(NodeId(4)));
        assert_eq!(response.len(), 1, "first-time response sent immediately");
        assert_eq!(node.queued_updates(), 0);
        // A subsequent refresh for the interested neighbor is queued.
        let actions = emitted!(node.handle_update_into(
            SimTime::from_secs(10),
            NodeId(9),
            refresh(1, 0, 10, 2)
        ));
        assert!(actions.is_empty(), "refresh must be queued, not sent");
        assert_eq!(node.queued_updates(), 1);
        node.set_capacity(1.0);
        let sent = emitted!(node.service_outgoing_into(SimTime::from_secs(11)));
        assert_eq!(sent.len(), 1);
        assert_eq!(node.queued_updates(), 0);
    }

    #[test]
    fn zero_capacity_node_falls_back_to_standard_caching() {
        let mut node = cup_node(1);
        assert!(node.set_capacity(0.0));
        acquire(&mut node, Requester::Neighbor(NodeId(4)));
        emitted!(node.handle_update_into(SimTime::from_secs(10), NodeId(9), refresh(1, 0, 10, 2)));
        assert_eq!(node.queued_updates(), 1);
        // Zero capacity: nothing is ever sent; queue drains by expiry, so
        // the downstream neighbor silently falls back to expiration-based
        // caching (§2.8).
        assert!(emitted!(node.service_outgoing_into(SimTime::from_secs(11))).is_empty());
        assert!(emitted!(node.service_outgoing_into(SimTime::from_secs(10_000))).is_empty());
        assert_eq!(node.queued_updates(), 0, "expired entries left the queue");
    }

    #[test]
    fn one_cut_from_full_capacity_starts_one_service_loop() {
        let mut node = cup_node(1);
        acquire(&mut node, Requester::Neighbor(NodeId(4)));
        assert!(node.set_capacity(0.25), "a cut from full starts a loop");
        assert!(!node.set_capacity(0.0), "a second cut starts none");
        // Recovered, but still throttled until the next service.
        assert!(!node.set_capacity(1.0));
        assert!(node.is_throttled());
        for at in [10, 20] {
            let update = refresh(1, 0, at, 2);
            let sent = emitted!(node.handle_update_into(SimTime::from_secs(at), NodeId(9), update));
            assert!(sent.is_empty(), "queued at {at}");
        }
        // That service drains the backlog in one go and unthrottles.
        let mut out = Vec::new();
        assert!(!node.service_outgoing_into(SimTime::from_secs(21), &mut out));
        assert_eq!((out.len(), node.queued_updates()), (2, 0));
        assert!(!node.is_throttled());
        let update = refresh(1, 0, 30, 2);
        let sent = emitted!(node.handle_update_into(SimTime::from_secs(30), NodeId(9), update));
        assert_eq!(sent.len(), 1, "forwarded at once again");
        assert!(
            !cup_node(1).is_throttled(),
            "a cold node starts unthrottled"
        );
    }

    #[test]
    fn pfu_timeout_retries_the_query() {
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        // Long after the timeout, a new query retries upstream instead of
        // coalescing forever against a lost response.
        let actions = emitted!(node.handle_query_into(
            SimTime::from_secs(120),
            KeyId(1),
            Requester::Client(ClientId(2)),
            Some(NodeId(9)),
        ));
        assert_eq!(actions.len(), 1);
        assert_eq!(node.stats.pfu_retries, 1);
        let pending = node.key_state(KeyId(1)).unwrap().pending_since();
        assert_eq!(pending, Some(SimTime::from_secs(120)), "restamped");
        let mut age = crate::obs::LazyHist::default();
        age.record(SimDuration::from_secs(120).as_micros());
        assert_eq!(node.stats.pfu_retry_age, age, "one retry, 120 s old");
    }

    #[test]
    fn cold_start_miss_at_late_time_is_not_a_pfu_retry() {
        // Epoch-0 guard: a node that never issued a PFU has no stamp to
        // be "stale since forever", so a first-ever miss — at any clock
        // reading — is a plain upstream push, never a spurious retry.
        let mut node = cup_node(1);
        let actions = emitted!(node.handle_query_into(
            SimTime::from_secs(1_000_000),
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        assert_eq!(actions.len(), 1, "the miss pushes one query upstream");
        assert_eq!(node.stats.pfu_retries, 0, "no retry without a prior PFU");
        assert_eq!(node.stats.coalesced_queries, 0);
    }

    #[test]
    fn queries_at_time_zero_coalesce_instead_of_timing_out() {
        // The other cold-start edge: both queries land at t = 0, so
        // elapsed-since-PFU saturates to zero — which must read as
        // "in flight", not "timed out at t = 0".
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        let actions = emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(2)),
            Some(NodeId(9)),
        ));
        assert!(actions.is_empty(), "the second query coalesces");
        assert_eq!(node.stats.coalesced_queries, 1);
        assert_eq!(node.stats.pfu_retries, 0);
    }

    #[test]
    fn pfu_exactly_at_the_timeout_boundary_still_coalesces() {
        // The comparison is strictly greater-than: elapsed == timeout is
        // "still in flight" in both runtimes (the conformance scripts
        // step logical time in exact multiples, so the boundary case is
        // reachable, not theoretical).
        let timeout = NodeConfig::cup_default().pfu_timeout;
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(1)),
            Some(NodeId(9)),
        ));
        let at_boundary = emitted!(node.handle_query_into(
            SimTime::ZERO + timeout,
            KeyId(1),
            Requester::Client(ClientId(2)),
            Some(NodeId(9)),
        ));
        assert!(at_boundary.is_empty(), "elapsed == timeout coalesces");
        assert_eq!(node.stats.pfu_retries, 0);
        let past_boundary = emitted!(node.handle_query_into(
            SimTime::ZERO + timeout + SimDuration::from_micros(1),
            KeyId(1),
            Requester::Client(ClientId(3)),
            Some(NodeId(9)),
        ));
        assert_eq!(past_boundary.len(), 1, "one microsecond past retries");
        assert_eq!(node.stats.pfu_retries, 1);
    }

    #[test]
    fn neighbor_departure_remaps_interest() {
        let mut node = cup_node(1);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
        ));
        node.on_neighbor_departed(NodeId(4), Some(NodeId(6)));
        let st = node.key_state(KeyId(1)).unwrap();
        assert!(!st.interest.contains(NodeId(4)));
        assert!(st.interest.contains(NodeId(6)));
    }

    #[test]
    fn directory_handover_round_trip() {
        let mut m = cup_node(0);
        for k in 0..4 {
            emitted!(m.handle_replica_event_into(
                SimTime::ZERO,
                ReplicaEvent::Birth {
                    key: KeyId(k),
                    replica: ReplicaId(0),
                    lifetime: LIFE,
                },
            ));
        }
        let moved = m.export_directory(|k| k.0 % 2 == 0);
        assert_eq!(moved.len(), 2);
        assert_eq!(m.directory().len(), 2);
        let mut n = cup_node(9);
        n.import_directory(moved);
        assert_eq!(n.directory().len(), 2);
    }

    #[test]
    fn refresh_subset_suppression_propagates_every_kth() {
        let mut config = NodeConfig::cup_default();
        config.refresh_keep_one_in = 3;
        let mut node = CupNode::new(NodeId(0), config);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        emitted!(node.handle_replica_event_into(
            SimTime::ZERO,
            ReplicaEvent::Birth {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        let mut propagated = 0;
        for round in 1..=9u64 {
            let actions = emitted!(node.handle_replica_event_into(
                SimTime::from_secs(round * 300),
                ReplicaEvent::Refresh {
                    key: KeyId(1),
                    replica: ReplicaId(0),
                    lifetime: LIFE,
                },
            ));
            propagated += actions.len();
        }
        assert_eq!(propagated, 3, "every third refresh propagates");
    }

    #[test]
    fn refresh_batching_aggregates_replicas_into_one_update() {
        let mut config = NodeConfig::cup_default();
        config.refresh_batch_window = Some(SimDuration::from_secs(10));
        let mut node = CupNode::new(NodeId(0), config);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        for r in 0..3 {
            emitted!(node.handle_replica_event_into(
                SimTime::ZERO,
                ReplicaEvent::Birth {
                    key: KeyId(1),
                    replica: ReplicaId(r),
                    lifetime: LIFE,
                },
            ));
        }
        // Three refreshes within the window: the first two are held.
        let a1 = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(300),
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(0),
                lifetime: LIFE,
            },
        ));
        let a2 = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(303),
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(1),
                lifetime: LIFE,
            },
        ));
        assert!(a1.is_empty() && a2.is_empty(), "batch still filling");
        // A refresh after the window flushes the whole batch as one
        // update carrying all three entries.
        let a3 = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(312),
            ReplicaEvent::Refresh {
                key: KeyId(1),
                replica: ReplicaId(2),
                lifetime: LIFE,
            },
        ));
        assert_eq!(a3.len(), 1);
        match &a3[0] {
            Action::Send {
                msg: Message::Update(u),
                ..
            } => {
                assert_eq!(u.kind, UpdateKind::Refresh);
                assert_eq!(u.entries.len(), 3, "one update carries the batch");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_deleted_replica_leaves_the_refresh_batch() {
        let mut config = NodeConfig::cup_default();
        config.refresh_batch_window = Some(SimDuration::from_secs(10));
        let mut node = CupNode::new(NodeId(0), config);
        emitted!(node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(5)),
            None,
        ));
        for r in 0..3 {
            emitted!(node.handle_replica_event_into(
                SimTime::ZERO,
                ReplicaEvent::Birth {
                    key: KeyId(1),
                    replica: ReplicaId(r),
                    lifetime: LIFE,
                },
            ));
        }
        let refresh = |r| ReplicaEvent::Refresh {
            key: KeyId(1),
            replica: ReplicaId(r),
            lifetime: LIFE,
        };
        // Replicas 0 and 2 refresh into the open batch, then 0 dies.
        emitted!(node.handle_replica_event_into(SimTime::from_secs(300), refresh(0)));
        emitted!(node.handle_replica_event_into(SimTime::from_secs(303), refresh(2)));
        let deleted = emitted!(node.handle_replica_event_into(
            SimTime::from_secs(305),
            ReplicaEvent::Deletion {
                key: KeyId(1),
                replica: ReplicaId(0),
            },
        ));
        assert!(matches!(
            &deleted[..],
            [Action::Send { msg: Message::Update(u), .. }] if u.kind == UpdateKind::Delete
        ));
        // The release carries the live replicas only.
        let released =
            emitted!(node.handle_replica_event_into(SimTime::from_secs(312), refresh(1)));
        match &released[..] {
            [Action::Send {
                msg: Message::Update(u),
                ..
            }] => {
                let replicas: Vec<ReplicaId> = u.entries.iter().map(|e| e.replica).collect();
                assert_eq!(replicas, [ReplicaId(2), ReplicaId(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adaptive_policy_state_lives_per_key() {
        let mut node = CupNode::new(
            NodeId(1),
            NodeConfig::cup_with_policy(CutoffPolicy::adaptive()),
        );
        acquire(&mut node, Requester::Client(ClientId(1)));
        // A query in every interval (posted while the cache is still
        // fresh, so no Pending-First-Update round-trips): each refresh is
        // a justified decision interval recorded against this key's
        // state.
        for round in 1..6 {
            emitted!(node.handle_query_into(
                SimTime::from_secs(round * 300 - 10),
                KeyId(1),
                Requester::Client(ClientId(round)),
                Some(NodeId(9)),
            ));
            emitted!(node.handle_update_into(
                SimTime::from_secs(round * 300),
                NodeId(9),
                refresh(1, 0, round * 300, 2),
            ));
        }
        let st = node.key_state(KeyId(1)).unwrap();
        assert_eq!(st.policy_state.intervals(), 5);
        assert_eq!(st.policy_state.justified_ratio(), 1.0);
        assert!(
            st.policy_state.tolerance() > 3,
            "sustained queries must loosen the adaptive tolerance"
        );
        assert_eq!(node.stats.cutoffs, 0);
    }

    #[test]
    fn naive_reset_cuts_off_faster_with_many_replicas() {
        // The §3.6 pathology: under naive resets, updates from many
        // replicas shrink the decision window so the cut-off fires even
        // though queries keep arriving at a steady rate.
        let mut naive_cfg = NodeConfig::cup_default();
        naive_cfg.reset_mode = ResetMode::Naive;
        let mut naive = CupNode::new(NodeId(1), naive_cfg);
        let mut fixed = CupNode::new(NodeId(2), NodeConfig::cup_default());

        for node in [&mut naive, &mut fixed] {
            acquire(node, Requester::Client(ClientId(1)));
        }
        // Updates from three different replicas arrive back-to-back with
        // no interleaved queries.
        for (i, replica) in [1u32, 2, 3].into_iter().enumerate() {
            let t = 10 + i as u64;
            emitted!(naive.handle_update_into(
                SimTime::from_secs(t),
                NodeId(9),
                refresh(1, replica, t, 2)
            ));
            emitted!(fixed.handle_update_into(
                SimTime::from_secs(t),
                NodeId(9),
                refresh(1, replica, t, 2)
            ));
        }
        assert!(naive.stats.cutoffs >= 1, "naive reset cut off");
        assert_eq!(fixed.stats.cutoffs, 0, "replica-independent survived");
    }
}
