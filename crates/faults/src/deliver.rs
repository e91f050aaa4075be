//! The delivery kernel: everything between "a message arrives" and "its
//! children are enqueued", written once for both runtimes.
//!
//! What surrounds a handler call is protocol too, and order-sensitive:
//! charge the hop to the §3.3 cost model by kind, drop at a crashed
//! receiver, let a Byzantine receiver swallow, trace, feed the §3.1
//! justification tracker, run the handler; then for each send let a
//! Byzantine sender suppress or rewrite *before* the loss roll (a
//! suppressed send never advances the per-link counter) and decide the
//! drop *before* the message enters any queue; for each client answer
//! record latency and staleness. [`Plane`] owns that order, the nodes the
//! handlers run on (its [`NodeArena`]) and every book the kernel keeps —
//! metrics, justification windows, the staleness ground truth (written
//! by the runtime through [`Plane::note_death`]) and the trace ring; an
//! [`Env`] supplies only the transport, in six methods.
//!
//! The fault state, the justification tracker and the ground truth are
//! private fields, so a runtime cannot run a gate or feed the tracker
//! outside this order: the compiler refuses (E0616). A driver reaches
//! them only through entry points — [`Plane::apply`] for a fault action,
//! [`Plane::note_death`] for a death, [`Plane::mark`] for path nodes a
//! query posted on another plane crossed. Marking a posted query's
//! virtual path is split the same way: [`Env::mark_path`] routes the path,
//! hands every other plane its share and returns this plane's, and the
//! kernel marks that share in its own tracker.
//!
//! [`Plane::apply`] also wipes a node whose crash changed the plane, if
//! the plane holds it (its counters stay in the arena), so no message
//! can reach the pre-crash state once the crash is applied.
//!
//! A query or clear-bit needs its receiver's next hop toward the key's
//! authority. The kernel asks the node first ([`CupNode::upstream_hint`]:
//! one probe of a record the look-ahead already touched, which the
//! handler filled the first time it routed the key) and the transport's
//! [`Env::upstream_of`] only when the node has no hint, so a node routes
//! each key once for as long as the overlay stands. A transport whose
//! overlay changes clears the hints ([`CupNode::forget_upstream_hints`]).
//! Debug builds route every hinted hop again and panic on disagreement.
//!
//! Hops are charged at the *receiver*, before the crashed-receiver gate:
//! a message in flight when its receiver crashed was transmitted (the
//! send-time verdict predates the crash), so it costs a hop and is then
//! counted `dropped_to_crashed`. A message is either vetoed before
//! enqueue or received exactly once, so at every quiescent point the
//! per-kind counts sum to the number of messages sent. An entry point
//! naming a node the plane does not hold runs no handler.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;

use cup_core::justify::JustificationTracker;
use cup_core::obs::{TraceBuf, TraceEvent, TraceKind};
use cup_core::{
    Action, ClientId, CupNode, IndexEntry, Message, ReplicaEvent, Requester, UpdateKind,
};
use cup_des::{KeyId, NodeId, ReplicaId, SimTime};

use crate::arena::NodeArena;
use crate::metrics::NetMetrics;
use crate::plan::FaultAction;
use crate::state::{DropVerdict, FaultState};

/// An overlay routing lookup failed. The kernel drops the message that
/// needed it and counts it in [`NetMetrics::routing_failures`] — one bad
/// route must not take a runtime down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingFailed;

/// What a transport supplies to the kernel: a clock, routing, a way to
/// carry a message one hop and the waiting clients.
pub trait Env {
    /// The current time (simulated, virtual or wall-mapped).
    fn now(&self) -> SimTime;

    /// Next hop from `at` toward `key`'s authority; `None` at the
    /// authority itself. The kernel asks only where the node has no
    /// upstream hint (see the module docs).
    fn upstream_of(&mut self, at: NodeId, key: KeyId) -> Result<Option<NodeId>, RoutingFailed>;

    /// Carries `msg` one hop (only messages the fault plane let through
    /// get here). `latency_factor` is the plane's spike multiplier, 1.0
    /// when none; transports without modeled latency ignore it.
    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: Message, latency_factor: f64);

    /// Hands an answer to a waiting client. Returns when the query was
    /// posted if this is its first answer, `None` afterwards.
    fn respond(&mut self, client: ClientId, entries: Vec<IndexEntry>) -> Option<SimTime>;

    /// Discards `client`'s posted time: a crashed node swallowed the
    /// query, so no answer will ever be a latency sample.
    fn forget_client(&mut self, client: ClientId);

    /// A query for `key` was posted at `at` at time `t`: route its
    /// virtual path to the authority, pass the nodes other planes serve
    /// to those planes (their [`Plane::mark`]), and return the nodes this
    /// plane serves, which the kernel marks itself (§3.1). A failed route
    /// marks nothing.
    fn mark_path(&mut self, at: NodeId, key: KeyId, t: SimTime) -> &[NodeId];
}

/// The state a delivery touches: the nodes, the fault plane, the
/// justification tracker, the metrics sink, the staleness ground truth
/// and the trace ring. The DES owns one holding every node; the live
/// runtime one per shard holding the shard's nodes, each seeing exactly
/// the messages those nodes send and receive, folded by
/// [`Plane::totals`].
#[derive(Debug, Default)]
pub struct Plane {
    /// The nodes this plane serves. A runtime reads them and may move
    /// state between them (churn hand-over, capacity flags); a crash is
    /// reset by [`Plane::apply`].
    pub nodes: NodeArena,
    /// The fault plane. Always present; inert until an action is
    /// applied (every gate returns before touching any per-link state).
    faults: FaultState,
    /// Latches once a fault plane was armed or a fault action applied:
    /// staleness ground truth keeps being recorded after the faults heal.
    pub armed: bool,
    /// Ground truth for staleness: when each globally deleted replica
    /// died (first death wins; recorded only while armed). The driver
    /// writes it ([`Plane::note_death`]) — every plane of a run learns
    /// every death — and the kernel judges answers against it.
    deaths: HashMap<(KeyId, ReplicaId), SimTime>,
    /// The event trace (off while `None`): every message that reaches a
    /// handler, every client query and answer, every replica event this
    /// plane's nodes handle.
    pub trace: Option<TraceBuf>,
    /// §3.1 justified-update accounting for the nodes this plane serves.
    justify: JustificationTracker,
    /// Whether `justify` records events (it costs a virtual-path lookup
    /// per posted query; the cost metrics never depend on it).
    pub justify_on: bool,
    /// Hop, answer, staleness and latency accounting.
    pub metrics: NetMetrics,
    /// Reusable action buffer: handlers push into it, [`Plane::emit`]
    /// drains it, so steady-state delivery allocates nothing of its own.
    scratch: Vec<Action>,
}

/// What a run's planes add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// The merged metrics, `faults` filled from the planes' fault states.
    pub net: NetMetrics,
    /// §3.1 justified maintenance updates.
    pub justified: u64,
    /// Maintenance updates tracked (the justification denominator).
    pub tracked: u64,
}

impl Plane {
    /// An unarmed, untraced plane serving `nodes`.
    pub fn new(nodes: NodeArena) -> Plane {
        Plane {
            nodes,
            ..Plane::default()
        }
    }

    /// Arms the fault plane with a fresh [`FaultState`] keyed by `seed`.
    pub fn arm(&mut self, seed: u64) {
        self.faults = FaultState::new(seed);
        self.armed = true;
    }

    /// Applies one fault action (see [`FaultState::apply`]) and latches
    /// `armed`: from here on deaths are ground truth. A crash that changed
    /// the plane wipes the node, if this plane holds it
    /// ([`NodeArena::reset`]). Returns whether the action changed
    /// anything.
    pub fn apply(&mut self, action: FaultAction) -> bool {
        self.armed = true;
        let changed = self.faults.apply(action);
        if let (true, FaultAction::Crash { node }) = (changed, action) {
            if let Ok(id) = u32::try_from(node) {
                self.nodes.reset(NodeId(id));
            }
        }
        changed
    }

    /// Marks `nodes`, nodes this plane serves on the virtual path of a
    /// query for `key` posted at `now` on another plane (§3.1).
    pub fn mark(&mut self, key: KeyId, now: SimTime, nodes: &[NodeId]) {
        self.justify.on_query(key, now, nodes);
    }

    /// Records `replica` of `key` as globally deleted at `at`, if the
    /// plane is armed and the replica is not dead already.
    pub fn note_death(&mut self, key: KeyId, replica: ReplicaId, at: SimTime) {
        if self.armed {
            self.deaths.entry((key, replica)).or_insert(at);
        }
    }

    /// Folds the planes of one run (every replica fed the same actions).
    /// Exact: each message was counted by exactly one plane.
    pub fn totals<'a>(planes: impl IntoIterator<Item = &'a Plane> + Clone) -> Totals {
        let mut totals = Totals::default();
        for plane in planes.clone() {
            totals.net.merge(&plane.metrics);
            totals.justified += plane.justify.justified();
            totals.tracked += plane.justify.total();
        }
        totals.net.faults = FaultState::merged_counters(planes.into_iter().map(|p| &p.faults));
        totals
    }

    /// A client posts a query for `key` at node `at`. The transport has
    /// already registered `client` with its posted time.
    pub fn post_query<E: Env>(&mut self, env: &mut E, at: NodeId, key: KeyId, client: ClientId) {
        // A crashed node accepts no connections: the query is swallowed,
        // the client hears nothing, and no latency sample is ever taken.
        if self.faults.is_crashed(at) {
            self.faults.note_query_at_crashed();
            env.forget_client(client);
            return;
        }
        let now = env.now();
        self.trace(now, at, TraceKind::ClientQuery, key, client.0);
        let Ok(upstream) = upstream_of(env, &self.nodes, at, key) else {
            // Dead on arrival: answer empty now rather than let the
            // client stew until its timeout.
            self.metrics.routing_failures += 1;
            env.respond(client, Vec::new());
            return;
        };
        // One mark per posted query, never per forwarded hop.
        if self.justify_on {
            let mine = env.mark_path(at, key, now);
            self.justify.on_query(key, now, mine);
        }
        self.emit(env, now, at, |node, out| {
            node.handle_query_into(now, key, Requester::Client(client), upstream, out)
        });
    }

    /// The peer message `msg` from `from` arrives at `to`.
    pub fn receive<E: Env>(&mut self, env: &mut E, from: NodeId, to: NodeId, msg: Message) {
        let (m, key) = (&mut self.metrics, msg.key());
        let (hops, kind) = match &msg {
            Message::Query { .. } => (&mut m.query_hops, TraceKind::Query),
            Message::Update(u) => match u.kind {
                UpdateKind::FirstTime => (&mut m.first_time_hops, TraceKind::UpdateFirstTime),
                UpdateKind::Refresh => (&mut m.refresh_hops, TraceKind::UpdateRefresh),
                UpdateKind::Delete => (&mut m.delete_hops, TraceKind::UpdateDelete),
                UpdateKind::Append => (&mut m.append_hops, TraceKind::UpdateAppend),
            },
            Message::ClearBit { .. } => (&mut m.clear_bit_hops, TraceKind::ClearBit),
            Message::AuditProbe { .. } => (&mut m.audit_hops, TraceKind::AuditProbe),
            Message::AuditReply { .. } => (&mut m.audit_hops, TraceKind::AuditReply),
        };
        *hops += 1;
        // (On an inert plane nobody is crashed and nobody misbehaves.)
        if self.faults.active() {
            if self.faults.is_crashed(to) {
                self.faults.counters.dropped_to_crashed += 1;
                return;
            }
            // A stale-serve node swallows inbound deletions and audit
            // repairs after the hop is paid.
            if !self.faults.behavior_recv(to, &msg) {
                return;
            }
        }
        // Only messages that reach a handler are traced.
        let now = env.now();
        self.trace(now, to, kind, key, from.0 as u64);
        let upstream = match msg {
            Message::Query { .. } | Message::ClearBit { .. } => {
                let Ok(upstream) = upstream_of(env, &self.nodes, to, key) else {
                    self.metrics.routing_failures += 1;
                    return;
                };
                upstream
            }
            _ => None,
        };
        // First-time updates are query answers, not §3.1 maintenance.
        if let Message::Update(u) = &msg {
            if self.justify_on && u.kind != UpdateKind::FirstTime {
                self.justify
                    .on_update_delivered(to, u.key, now, u.window_end);
            }
        }
        self.emit(env, now, to, |node, out| match msg {
            Message::Query { key } => {
                node.handle_query_into(now, key, Requester::Neighbor(from), upstream, out)
            }
            Message::Update(u) => node.handle_update_into(now, from, u, out),
            Message::ClearBit { key } => node.handle_clear_bit_into(now, key, from, upstream, out),
            Message::AuditProbe { key, round } => {
                node.handle_audit_probe_into(now, key, round, from, out)
            }
            Message::AuditReply {
                key,
                round,
                entries,
                retired,
            } => node.handle_audit_reply(now, key, round, &entries, &retired),
        });
    }

    /// A replica lifecycle event reaches `at`, its key's authority. A
    /// deletion's ground truth is the driver's to record first
    /// ([`Plane::note_death`]): the replica is dead from that instant
    /// whether or not its deletion reaches (or survives at) the authority.
    pub fn replica_event<E: Env>(&mut self, env: &mut E, at: NodeId, event: ReplicaEvent) {
        // A crashed authority hears nothing from its replicas.
        if self.faults.is_crashed(at) {
            self.faults.note_replica_at_crashed();
            return;
        }
        let (kind, key, replica) = match event {
            ReplicaEvent::Birth { key, replica, .. } => (TraceKind::ReplicaBirth, key, replica),
            ReplicaEvent::Refresh { key, replica, .. } => (TraceKind::ReplicaRefresh, key, replica),
            ReplicaEvent::Deletion { key, replica } => (TraceKind::ReplicaDeletion, key, replica),
        };
        let now = env.now();
        self.trace(now, at, kind, key, replica.0 as u64);
        self.emit(env, now, at, |node, out| {
            node.handle_replica_event_into(now, event, out)
        });
    }

    /// Runs one handler of node `from` at `now` and turns the actions it
    /// emitted into traffic and client answers. Does nothing if this plane
    /// does not hold `from`.
    pub fn emit<E: Env>(
        &mut self,
        env: &mut E,
        now: SimTime,
        from: NodeId,
        handler: impl FnOnce(&mut CupNode, &mut Vec<Action>),
    ) {
        let Some(node) = self.nodes.get_mut(from) else {
            return;
        };
        let mut actions = std::mem::take(&mut self.scratch);
        handler(node, &mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { to, mut msg } => {
                    if self.faults.active() {
                        if !self.faults.behavior_send(from, &mut msg) {
                            continue;
                        }
                        if self.faults.roll(from, to) != DropVerdict::Deliver {
                            continue;
                        }
                    }
                    env.enqueue(from, to, msg, self.faults.latency_factor());
                }
                Action::RespondClient {
                    client,
                    key,
                    entries,
                } => {
                    self.metrics.client_responses += 1;
                    self.trace(now, from, TraceKind::Respond, key, entries.len() as u64);
                    // Staleness: the answer names a replica the world
                    // already deleted (the cache missed the delete —
                    // under loss, the delete may never arrive).
                    if self.armed {
                        let died_at =
                            |e: &IndexEntry| self.deaths.get(&(e.key, e.replica)).copied();
                        if let Some(died) = entries.iter().filter_map(died_at).min() {
                            let age = now.saturating_since(died).as_micros();
                            self.metrics.stale_answers += 1;
                            self.metrics.stale_age_micros += age;
                            self.metrics.stale_age_hist.record(age);
                        }
                    }
                    if let Some(posted) = env.respond(client, entries) {
                        let waited = now.saturating_since(posted).as_micros();
                        self.metrics.query_latency.record(waited);
                    }
                }
            }
        }
        self.scratch = actions;
    }

    /// Records one trace event, if tracing is on.
    fn trace(&mut self, t: SimTime, node: NodeId, kind: TraceKind, key: KeyId, detail: u64) {
        if let Some(ring) = self.trace.as_mut() {
            ring.record(TraceEvent {
                t,
                node,
                kind,
                key,
                detail,
            });
        }
    }
}

/// The next hop from `at` toward `key`'s authority: the node's hint if
/// it has one, else the transport's route.
fn upstream_of<E: Env>(
    env: &mut E,
    nodes: &NodeArena,
    at: NodeId,
    key: KeyId,
) -> Result<Option<NodeId>, RoutingFailed> {
    let Some(hint) = nodes.get(at).and_then(|node| node.upstream_hint(key)) else {
        return env.upstream_of(at, key);
    };
    #[cfg(debug_assertions)]
    {
        let routed = env.upstream_of(at, key);
        assert!(
            routed == Ok(hint),
            "{at:?} remembers {hint:?} as its hop toward {key:?}, the overlay routes {routed:?}"
        );
    }
    Ok(hint)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use cup_core::stats::NodeStats;
    use cup_core::{Hist, NodeConfig, Update};
    use cup_des::SimDuration;

    use super::*;
    use crate::plan::Behavior;

    /// An in-memory transport over a line of nodes: node `i`'s upstream
    /// is `i - 1` (unless `detour` reroutes one node), node 0 is every
    /// key's authority, routing from node 9 is stuck. Records what the
    /// kernel asked of it.
    #[derive(Default)]
    struct Fake {
        now: SimTime,
        routed: Vec<NodeId>,
        detour: Option<(NodeId, NodeId)>,
        sent: Vec<(NodeId, NodeId, Message)>,
        posted: BTreeMap<u64, SimTime>,
        answers: Vec<(u64, usize)>,
        path: Vec<NodeId>,
    }

    impl Env for Fake {
        fn now(&self) -> SimTime {
            self.now
        }
        fn upstream_of(&mut self, at: NodeId, _: KeyId) -> Result<Option<NodeId>, RoutingFailed> {
            self.routed.push(at);
            match (at.0, self.detour) {
                (9, _) => Err(RoutingFailed),
                (_, Some((from, to))) if from == at => Ok(Some(to)),
                (at, _) => Ok(at.checked_sub(1).map(NodeId)),
            }
        }
        fn enqueue(&mut self, from: NodeId, to: NodeId, msg: Message, _: f64) {
            self.sent.push((from, to, msg));
        }
        fn respond(&mut self, client: ClientId, entries: Vec<IndexEntry>) -> Option<SimTime> {
            self.answers.push((client.0, entries.len()));
            self.posted.remove(&client.0)
        }
        fn forget_client(&mut self, client: ClientId) {
            self.posted.remove(&client.0);
        }
        fn mark_path(&mut self, at: NodeId, _: KeyId, _: SimTime) -> &[NodeId] {
            self.path = (0..=at.0).rev().map(NodeId).collect();
            &self.path
        }
    }

    const KEY: KeyId = KeyId(1);
    const LIFE: SimDuration = SimDuration::from_secs(300);

    /// A plane serving the nodes of the line `ids` picks, tracing
    /// everything, unarmed.
    fn traced_plane(ids: impl Fn(&u32) -> bool) -> Plane {
        let ids: Vec<NodeId> = (0..10).filter(ids).map(NodeId).collect();
        Plane {
            trace: Some(TraceBuf::new(64)),
            ..Plane::new(NodeArena::build(&ids, NodeConfig::cup_default()))
        }
    }

    /// Node `n` of `plane`.
    fn node(plane: &Plane, n: u32) -> &CupNode {
        plane.nodes.get(NodeId(n)).unwrap()
    }

    /// The kinds `plane` traced, in canonical order.
    fn traced(plane: &Plane) -> Vec<TraceKind> {
        let ring = plane.trace.as_ref().unwrap();
        ring.sorted().iter().map(|ev| ev.kind).collect()
    }

    /// One traced plane serving a line of ten nodes, armed with
    /// `actions`.
    fn world(actions: &[FaultAction]) -> (Plane, Fake) {
        let mut plane = traced_plane(|_| true);
        plane.arm(7);
        for &action in actions {
            plane.apply(action);
        }
        (plane, Fake::default())
    }

    fn behave(node: usize, behavior: Behavior) -> FaultAction {
        FaultAction::SetBehavior { node, behavior }
    }

    fn entry(replica: u32) -> IndexEntry {
        IndexEntry::new(KEY, ReplicaId(replica), LIFE, SimTime::ZERO)
    }

    fn update(kind: UpdateKind, replica: u32) -> Message {
        Message::Update(Update {
            key: KEY,
            kind,
            entries: vec![entry(replica)],
            replica: ReplicaId(replica),
            depth: 1,
            origin: SimTime::ZERO,
            window_end: entry(replica).expires_at(),
        })
    }

    /// Node 1 answers client 1 with entries of `replicas` at `secs`.
    fn answer(plane: &mut Plane, env: &mut Fake, secs: u64, replicas: &[u32]) {
        let mut actions = vec![Action::RespondClient {
            client: ClientId(1),
            key: KEY,
            entries: replicas.iter().map(|&r| entry(r)).collect(),
        }];
        env.now = SimTime::from_secs(secs);
        plane.emit(env, env.now(), NodeId(1), |_, out| out.append(&mut actions));
    }

    fn recv(plane: &mut Plane, env: &mut Fake, from: u32, to: u32, msg: Message) {
        plane.receive(env, NodeId(from), NodeId(to), msg);
    }

    /// Posts a query the way a transport does: register, then hand over.
    fn post(plane: &mut Plane, env: &mut Fake, at: u32, client: u64) {
        env.posted.insert(client, env.now);
        plane.post_query(env, NodeId(at), KEY, ClientId(client));
    }

    #[test]
    fn receiver_gates_sit_after_the_charge_and_before_the_trace() {
        let crash = FaultAction::Crash { node: 2 };
        let (mut plane, mut env) = world(&[crash, behave(3, Behavior::StaleServe)]);
        recv(&mut plane, &mut env, 1, 2, Message::Query { key: KEY });
        assert_eq!(plane.metrics.query_hops, 1, "the transmission happened");
        assert_eq!(plane.faults.counters.dropped_to_crashed, 1);
        recv(&mut plane, &mut env, 2, 3, update(UpdateKind::Delete, 0));
        assert_eq!(plane.metrics.delete_hops, 1, "the hop was paid");
        assert_eq!(plane.faults.counters.byz_updates_swallowed, 1);
        assert!(traced(&plane).is_empty() && env.sent.is_empty());
        let handled = |plane: &Plane, n| {
            let stats = &node(plane, n).stats;
            stats.neighbor_queries + stats.updates_received
        };
        assert_eq!(handled(&plane, 2) + handled(&plane, 3), 0, "no handler ran");
        // An honest receiver of the same message is traced and handled.
        recv(&mut plane, &mut env, 3, 4, update(UpdateKind::Delete, 0));
        assert_eq!(traced(&plane), [TraceKind::UpdateDelete]);
        assert_eq!(handled(&plane, 4), 1);
    }

    #[test]
    fn a_suppressed_send_never_reaches_the_loss_roll() {
        // Same seed, same epoch, same 50 % loss. The second sender also
        // drops maintenance updates; its refreshes, interleaved on the
        // same link, must leave the queries' verdicts where they were.
        let survivors = |dropper: usize, with_refreshes: bool| {
            let loss = FaultAction::SetLoss { rate: 0.5 };
            let (mut plane, mut env) = world(&[loss, behave(dropper, Behavior::DropUpdates)]);
            let mut actions = Vec::new();
            for k in 0..64 {
                if with_refreshes {
                    actions.push(Action::send(NodeId(2), update(UpdateKind::Refresh, k)));
                }
                actions.push(Action::send(NodeId(2), Message::Query { key: KeyId(k) }));
            }
            plane.emit(&mut env, SimTime::ZERO, NodeId(1), |_, out| {
                out.append(&mut actions)
            });
            let keys: Vec<KeyId> = env.sent.iter().map(|(_, _, msg)| msg.key()).collect();
            (keys, plane.faults.counters)
        };
        let (alone, alone_counters) = survivors(8, false);
        let (mixed, mixed_counters) = survivors(1, true);
        assert!(alone.len() > 8 && alone.len() < 56, "the loss plane bit");
        assert_eq!(alone, mixed, "suppressed sends advanced the link counter");
        assert_eq!(mixed_counters.byz_updates_dropped, 64);
        assert_eq!(mixed_counters.dropped_loss, alone_counters.dropped_loss);
    }

    #[test]
    fn only_maintenance_updates_open_justification_windows() {
        let (mut plane, mut env) = world(&[]);
        plane.justify_on = true;
        recv(&mut plane, &mut env, 1, 2, update(UpdateKind::FirstTime, 0));
        assert_eq!(plane.justify.total(), 0, "an answer is not maintenance");
        recv(&mut plane, &mut env, 1, 2, update(UpdateKind::Refresh, 0));
        assert_eq!(plane.justify.total(), 1);
        plane.justify_on = false;
        recv(&mut plane, &mut env, 1, 2, update(UpdateKind::Refresh, 0));
        assert_eq!(plane.justify.total(), 1, "off means off");
    }

    #[test]
    fn the_first_answer_claims_the_posted_time_once() {
        let (mut plane, mut env) = world(&[]);
        env.posted.insert(1, SimTime::from_secs(2));
        answer(&mut plane, &mut env, 5, &[0]);
        answer(&mut plane, &mut env, 8, &[0]);
        assert_eq!(env.answers, [(1, 1), (1, 1)], "both reach the client");
        assert_eq!(plane.metrics.client_responses, 2);
        let mut one_sample = Hist::default();
        one_sample.record(3_000_000);
        assert_eq!(plane.metrics.query_latency, one_sample, "5 s − 2 s, once");
        assert_eq!(traced(&plane), [TraceKind::Respond, TraceKind::Respond]);
    }

    #[test]
    fn staleness_is_age_since_the_earliest_death_and_needs_an_armed_plane() {
        let mut env = Fake::default();
        let mut plane = traced_plane(|_| true);
        let deletion = |replica| ReplicaEvent::Deletion {
            key: KEY,
            replica: ReplicaId(replica),
        };
        // The driver notes a death, then hands the event to the kernel.
        let delete = |plane: &mut Plane, env: &mut Fake, replica| {
            plane.note_death(KEY, ReplicaId(replica), env.now);
            plane.replica_event(env, NodeId(0), deletion(replica));
        };
        // Unarmed: no ground truth is kept, no answer is judged.
        delete(&mut plane, &mut env, 7);
        assert!(plane.deaths.is_empty());
        plane
            .deaths
            .insert((KEY, ReplicaId(1)), SimTime::from_secs(10));
        answer(&mut plane, &mut env, 25, &[1]);
        assert_eq!(plane.metrics.stale_answers, 0);

        plane.arm(3);
        for secs in [4, 6] {
            env.now = SimTime::from_secs(secs);
            delete(&mut plane, &mut env, 2);
        }
        assert_eq!(plane.deaths[&(KEY, ReplicaId(2))], SimTime::from_secs(4));
        // Served: one replica dead since 10 s, one since 4 s, one alive.
        answer(&mut plane, &mut env, 25, &[1, 2, 3]);
        answer(&mut plane, &mut env, 25, &[3]);
        assert_eq!(plane.metrics.stale_answers, 1, "one per stale answer");
        assert_eq!(plane.metrics.stale_age_micros, 21_000_000);
        assert_eq!(plane.metrics.stale_age_hist.count(), 1);
    }

    #[test]
    fn applying_a_fault_action_latches_armed_and_deaths_count_from_then_on() {
        let mut plane = Plane::default();
        plane.note_death(KEY, ReplicaId(1), SimTime::from_secs(1));
        assert!(!plane.armed && plane.deaths.is_empty(), "unarmed: no truth");
        assert!(plane.apply(FaultAction::Crash { node: 4 }));
        assert!(plane.armed, "an applied action arms the plane");
        // Healing does not unlatch: the staleness books stay open.
        assert!(plane.apply(FaultAction::Restart { node: 4 }));
        plane.note_death(KEY, ReplicaId(1), SimTime::from_secs(2));
        plane.note_death(KEY, ReplicaId(1), SimTime::from_secs(3));
        assert_eq!(plane.deaths[&(KEY, ReplicaId(1))], SimTime::from_secs(2));
        assert_eq!(plane.deaths.len(), 1);
    }

    #[test]
    fn a_crash_wipes_the_node_at_once_and_keeps_its_counters() {
        let (mut plane, mut env) = world(&[]);
        let (crash, restart) = (
            FaultAction::Crash { node: 2 },
            FaultAction::Restart { node: 2 },
        );
        post(&mut plane, &mut env, 2, 1);
        let before = plane.nodes.aggregate_stats();
        assert!(plane.apply(crash));
        assert_eq!(node(&plane, 2).stats, NodeStats::default(), "cold");
        assert_eq!(node(&plane, 2).upstream_hint(KEY), None, "no record");
        assert_eq!(plane.nodes.aggregate_stats(), before, "conserved");
        // A crash that changes nothing wipes nothing.
        plane.apply(restart);
        post(&mut plane, &mut env, 2, 2);
        assert!(plane.apply(crash) && !plane.apply(crash));
        assert_eq!(plane.nodes.aggregate_stats().client_queries, 2);
        // A plane that does not hold the node applies the action alone.
        let mut other = traced_plane(|&n| n != 2);
        assert!(other.apply(crash));
    }

    /// The routing calls a hinted hop makes: none, but debug builds
    /// route it again to check the hint.
    const CHECKS: usize = if cfg!(debug_assertions) { 1 } else { 0 };

    #[test]
    fn a_node_routes_each_key_once() {
        let (mut plane, mut env) = world(&[]);
        post(&mut plane, &mut env, 5, 1);
        assert_eq!(env.routed, [NodeId(5)], "the first query routes");
        recv(&mut plane, &mut env, 6, 5, Message::Query { key: KEY });
        assert_eq!(env.routed.len(), 1 + CHECKS, "a second query asks the node");
        recv(&mut plane, &mut env, 6, 5, Message::ClearBit { key: KEY });
        assert_eq!(
            env.routed.len(),
            1 + 2 * CHECKS,
            "a clear-bit asks the node"
        );
        assert_eq!(env.sent.len(), 1, "the first query went upstream");
        assert_eq!(env.sent[0].1, NodeId(4));
        // A record an update made has not been routed; its first
        // clear-bit routes, its second asks the node.
        recv(&mut plane, &mut env, 2, 3, update(UpdateKind::Refresh, 0));
        env.routed.clear();
        recv(&mut plane, &mut env, 4, 3, Message::ClearBit { key: KEY });
        recv(&mut plane, &mut env, 4, 3, Message::ClearBit { key: KEY });
        assert_eq!(env.routed.len(), 1 + CHECKS);
        assert_eq!(env.routed[0], NodeId(3));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "remembers Some(NodeId(4)) as its hop")]
    fn a_hint_the_overlay_disowns_panics_in_debug_builds() {
        let (mut plane, mut env) = world(&[]);
        post(&mut plane, &mut env, 5, 1);
        env.detour = Some((NodeId(5), NodeId(3)));
        recv(&mut plane, &mut env, 6, 5, Message::Query { key: KEY });
    }

    #[test]
    fn a_failed_lookup_drops_the_message_and_counts_it() {
        let (mut plane, mut env) = world(&[]);
        recv(&mut plane, &mut env, 8, 9, Message::Query { key: KEY });
        recv(&mut plane, &mut env, 8, 9, Message::ClearBit { key: KEY });
        assert_eq!(plane.metrics.routing_failures, 2);
        assert_eq!(plane.metrics.hops(), 2, "both were received");
        assert!(env.sent.is_empty());
        assert_eq!(node(&plane, 9).stats.neighbor_queries, 0, "no handler ran");
        // A client query dead on arrival is answered empty, unsampled.
        post(&mut plane, &mut env, 9, 5);
        assert_eq!(plane.metrics.routing_failures, 3);
        assert_eq!(env.routed, [NodeId(9); 3], "no record, so every one routed");
        assert_eq!(env.answers, [(5, 0)]);
        assert_eq!(plane.metrics.query_latency.count(), 0);
        // Updates need no lookup and still flow.
        recv(&mut plane, &mut env, 8, 9, update(UpdateKind::Refresh, 0));
        assert_eq!(plane.metrics.routing_failures, 3);
    }

    #[test]
    fn a_query_at_a_crashed_node_is_swallowed_and_forgotten() {
        let (mut plane, mut env) = world(&[FaultAction::Crash { node: 2 }]);
        post(&mut plane, &mut env, 2, 4);
        assert_eq!(plane.faults.counters.queries_at_crashed, 1);
        assert!(env.posted.is_empty(), "no answer will ever be a sample");
        assert!(env.answers.is_empty() && traced(&plane).is_empty());
    }

    /// One scripted stream — a birth, queries from three depths, a
    /// refresh, a deletion, a last query — over `k` planes, node `n`
    /// served by plane `n % k`; returns the totals, the merged trace and
    /// the nodes' merged counters.
    fn run_stream(k: u32) -> (Totals, Vec<TraceEvent>, NodeStats) {
        let mut env = Fake::default();
        let mut planes: Vec<Plane> = (0..k).map(|p| traced_plane(|n| n % k == p)).collect();
        let (key, replica, lifetime) = (KEY, ReplicaId(0), LIFE);
        let birth = ReplicaEvent::Birth {
            key,
            replica,
            lifetime,
        };
        let refresh = ReplicaEvent::Refresh {
            key,
            replica,
            lifetime,
        };
        let deletion = ReplicaEvent::Deletion { key, replica };
        let queries = [Ok(5), Ok(3), Ok(4), Ok(5)];
        let script = [
            &[Err(birth)],
            &queries[..],
            &[Err(refresh), Err(deletion), Ok(2)],
        ];
        for (client, step) in script.concat().into_iter().enumerate() {
            match step {
                Ok(at) => post(&mut planes[(at % k) as usize], &mut env, at, client as u64),
                Err(event) => planes[0].replica_event(&mut env, NodeId(0), event),
            }
            env.now += SimDuration::from_secs(3);
            while !env.sent.is_empty() {
                let (from, to, msg) = env.sent.remove(0);
                planes[(to.0 % k) as usize].receive(&mut env, from, to, msg);
            }
        }
        let (mut merged, mut stats) = (TraceBuf::default(), NodeStats::default());
        for plane in &planes {
            merged.merge(plane.trace.as_ref().unwrap());
            stats.merge(&plane.nodes.aggregate_stats());
        }
        assert_eq!(merged.dropped(), 0);
        (Plane::totals(&planes), merged.sorted(), stats)
    }

    #[test]
    fn a_k_way_split_merges_to_the_unsplit_metrics() {
        let (whole, trace, stats) = run_stream(1);
        assert!(whole.net.query_hops > 0 && whole.net.first_time_hops > 0);
        assert!(whole.net.refresh_hops > 0 && whole.net.delete_hops > 0);
        assert_eq!(whole.net.client_responses, 5);
        assert_eq!(whole.net.query_latency.count(), 5);
        assert!(whole.net.query_latency.quantile(999) > 0);
        assert!(trace.len() > 5, "every hop and answer traced");
        assert_eq!(stats.client_queries, 5);
        for k in [2, 3, 6] {
            let split = run_stream(k);
            assert_eq!(split, (whole, trace.clone(), stats.clone()), "{k} planes");
        }
    }
}
