//! The simulated network: nodes wired over an overlay inside the DES.
//!
//! What happens to a message between arrival and the enqueue of its
//! children — hop charge, fault gates, trace, justification, handler,
//! loss roll, answer accounting — is the shared delivery kernel's
//! ([`cup_faults::deliver`]); this module is the DES's half of that
//! contract. [`Network`] owns one [`Plane`] holding every node — with
//! the trace ring and the staleness ground truth, which a replica death
//! notes before the kernel sees the deletion; a fault action is one
//! [`Plane::apply`] at its event's instant, which also wipes a crashed
//! node and sets a capacity fraction — and a `Fabric`,
//! the simulated transport the kernel runs over through [`Env`]: the
//! event queue with the latency model (× the fault plane's spike
//! factor), the authority cache and the posted-time map. A node's wakes
//! (a §2.8 capacity service, a §3.6 batch release) stay in the plane,
//! and [`Network::run_until`] runs them between the queue's events. What
//! stays here is what only a simulation has: the workload generators
//! and churn (and the liveness gate that counts deliveries to departed
//! nodes). A §3.7 capacity profile reaches the plane as fault events,
//! one `FaultAction::SetCapacity` per node an epoch changes.
//!
//! Churn is also the one thing that moves a route. A join or a leave
//! clears the authority cache and, with it, every live node's upstream
//! hints (`CupNode::forget_upstream_hints`; the kernel routes a query
//! or clear-bit through the overlay only where its node has none), so
//! the next hop from each node is routed afresh on the new topology.
//!
//! Storage is sized for 100k-node experiments: per-node state lives in
//! the plane's dense [`cup_faults::NodeArena`] indexed by [`NodeId`]
//! (which holds exactly the overlay's live nodes), the key → authority
//! map is a flat vector indexed by [`KeyId`] (keys are dense workload
//! ids), and protocol actions are drained through the plane's reusable
//! scratch buffer — the dispatch hot path performs no per-event
//! allocation of its own.

use std::collections::BTreeMap;

use cup_core::{ClientId, CupNode, IndexEntry, Message, NodeConfig, ReplicaEvent};
use cup_des::{DetRng, EventQueue, KeyId, LatencyModel, NodeId, SimDuration, SimTime};
use cup_faults::{Env, NodeArena, Plane, RoutingFailed};
use cup_overlay::{AnyOverlay, Overlay};
use cup_workload::{
    churn::ChurnEvent,
    replica::{ReplicaAction, ReplicaActionKind, ReplicaPlan},
    QueryGen,
};

use crate::event::Ev;

/// The complete state of one simulated CUP network.
#[derive(Debug)]
pub struct Network {
    /// What a delivery touches — every node, the fault plane (inert
    /// until armed), the justification tracker (off until switched on)
    /// and the hop/answer metrics. Drops are decided *before* an event is
    /// scheduled, so a dropped message never becomes pending work.
    pub plane: Plane,
    fabric: Fabric,
    alive_list: Vec<NodeId>,
    /// The query workload (drained lazily via [`Ev::NextQuery`]).
    pub query_gen: Option<QueryGen>,
    /// Replica lifecycle plan.
    pub replica_plan: Option<ReplicaPlan>,
    next_client: u64,
    /// Events left in the current look-ahead group (see
    /// [`Network::dispatch`]).
    group_left: usize,
}

/// The simulated transport: everything the delivery kernel reaches
/// through [`Env`], apart from the event queue lent to it per event.
#[derive(Debug)]
struct Fabric {
    /// The structured overlay carrying the messages.
    overlay: AnyOverlay,
    latency: LatencyModel,
    rng: DetRng,
    /// Key → authority, dense by key id (`None` = not resolved since the
    /// last topology change).
    authority_cache: Vec<Option<NodeId>>,
    /// When each outstanding client query was posted (keyed by the raw
    /// client id), the start time of the `query_latency` histogram's
    /// samples. `BTreeMap` keeps iteration deterministic.
    query_posted: BTreeMap<u64, SimTime>,
    /// Scratch a posted query's virtual path is routed into.
    path: Vec<NodeId>,
}

/// A [`Fabric`] for the length of one event: the kernel's [`Env`].
struct Wire<'a> {
    fabric: &'a mut Fabric,
    queue: &'a mut EventQueue<Ev>,
    now: SimTime,
}

impl Fabric {
    fn wire<'a>(&'a mut self, queue: &'a mut EventQueue<Ev>, now: SimTime) -> Wire<'a> {
        Wire {
            fabric: self,
            queue,
            now,
        }
    }

    /// The authority node for `key` (cached; invalidated on churn).
    fn authority_of(&mut self, key: KeyId) -> NodeId {
        let idx = key.index();
        if idx >= self.authority_cache.len() {
            self.authority_cache.resize(idx + 1, None);
        }
        if let Some(a) = self.authority_cache[idx] {
            return a;
        }
        let a = self.overlay.authority(key);
        self.authority_cache[idx] = Some(a);
        a
    }
}

impl Env for Wire<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn upstream_of(&mut self, at: NodeId, key: KeyId) -> Result<Option<NodeId>, RoutingFailed> {
        if self.fabric.authority_of(key) == at {
            return Ok(None);
        }
        self.fabric
            .overlay
            .next_hop(at, key)
            .map_err(|_| RoutingFailed)
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: Message, latency_factor: f64) {
        let mut delay = self.fabric.latency.sample(&mut self.fabric.rng);
        if latency_factor != 1.0 {
            delay = SimDuration::from_secs_f64(delay.as_secs_f64() * latency_factor);
        }
        self.queue
            .schedule(self.now + delay, Ev::Deliver { from, to, msg });
    }

    fn respond(&mut self, client: ClientId, _entries: Vec<IndexEntry>) -> Option<SimTime> {
        self.fabric.query_posted.remove(&client.0)
    }

    fn forget_client(&mut self, client: ClientId) {
        self.fabric.query_posted.remove(&client.0);
    }

    /// One plane serves every node, so the whole path is this plane's.
    fn mark_path(&mut self, at: NodeId, key: KeyId, _: SimTime) -> &[NodeId] {
        // Routing is deterministic, so the virtual path V(N, K) is
        // exactly the route the query would travel.
        let Fabric { overlay, path, .. } = &mut *self.fabric;
        if overlay.route_into(at, key, path).is_err() {
            path.clear();
        }
        path
    }
}

impl Network {
    /// Builds a network of `node_count` nodes over `overlay`, all using
    /// `node_config`.
    pub fn new(
        overlay: AnyOverlay,
        node_config: NodeConfig,
        latency: LatencyModel,
        rng: DetRng,
    ) -> Self {
        let ids = overlay.nodes();
        Network {
            plane: Plane::new(NodeArena::build(&ids, node_config)),
            fabric: Fabric {
                overlay,
                latency,
                rng,
                authority_cache: Vec::new(),
                query_posted: BTreeMap::new(),
                path: Vec::new(),
            },
            alive_list: ids,
            query_gen: None,
            replica_plan: None,
            next_client: 0,
            group_left: 0,
        }
    }

    /// Drains `queue` through [`Network::dispatch`] and the plane's
    /// wakes through [`Plane::wake_due`] until neither holds anything due
    /// before `deadline` (one exactly at `deadline` stays pending); the
    /// queue's events of a wake's instant go first. Returns the number
    /// of events and wakes processed.
    pub fn run_until(&mut self, queue: &mut EventQueue<Ev>, deadline: SimTime) -> u64 {
        let (mut processed, mut now) = (0, SimTime::ZERO);
        loop {
            let wake = self.plane.next_wake().filter(|&at| at < deadline);
            let horizon = wake.map_or(deadline, |at| at + SimDuration::from_micros(1));
            if let Some((at, ev)) = queue.pop_before(horizon) {
                debug_assert!(at >= now, "event queue went backwards in time");
                now = at;
                self.dispatch(queue, at, ev);
            } else if let Some(at) = wake {
                self.plane.wake_due(&mut self.fabric.wire(queue, at));
            } else {
                return processed;
            }
            processed += 1;
        }
    }

    /// Handles one simulation event; the entry point
    /// [`Network::run_until`] drives.
    ///
    /// Events are handled one at a time, in pop order, but in groups of
    /// [`CupNode::LOOKAHEAD`]: a group starts by touching the receiving
    /// record of the event just popped and of every delivery among the
    /// queue's next ones, so the group's cache misses overlap (the live
    /// worker does the same over its inline FIFO). Touching only reads,
    /// and an event scheduled during the group may still go before the
    /// touched ones, so what is handled, and when, is unchanged.
    pub fn dispatch(&mut self, queue: &mut EventQueue<Ev>, now: SimTime, ev: Ev) {
        if self.group_left == 0 {
            self.group_left = CupNode::LOOKAHEAD;
            let nodes = &self.plane.nodes;
            let next = queue.ahead(CupNode::LOOKAHEAD - 1);
            for ev in std::iter::once(&ev).chain(next) {
                if let Ev::Deliver { to, msg, .. } = ev {
                    if let Some(node) = nodes.get(*to) {
                        node.touch_key(msg.key());
                    }
                }
            }
        }
        self.group_left -= 1;
        match ev {
            Ev::NextQuery => self.on_next_query(queue, now),
            Ev::PostQuery { node_index, key } => self.on_post_query(queue, now, node_index, key),
            Ev::Deliver { from, to, msg } => {
                // Churn liveness is the simulation's own gate: a message
                // to a departed node (one the arena no longer holds) was
                // never a hop.
                if self.plane.nodes.holds(to) {
                    let mut wire = self.fabric.wire(queue, now);
                    self.plane.receive(&mut wire, from, to, msg);
                } else {
                    self.plane.metrics.dropped_messages += 1;
                }
            }
            Ev::Replica(action) => self.on_replica(queue, now, action),
            Ev::Churn(ev) => self.on_churn(ev),
            Ev::Fault(ev) => {
                self.plane.apply(now, ev.action);
            }
        }
    }

    /// Pulls the next query arrival from the generator and schedules it.
    fn on_next_query(&mut self, queue: &mut EventQueue<Ev>, now: SimTime) {
        let Some(gen) = self.query_gen.as_mut() else {
            return;
        };
        if let Some(arrival) = gen.next_query() {
            // Bursty workloads can interleave: the Poisson clock may lag
            // the tail of a burst that spread past it, so clamp to `now`.
            let at = arrival.at.max(now);
            queue.schedule(
                at,
                Ev::PostQuery {
                    node_index: arrival.node_index,
                    key: arrival.key,
                },
            );
            queue.schedule(at, Ev::NextQuery);
        }
    }

    /// A client posts a query at a (live) node.
    fn on_post_query(
        &mut self,
        queue: &mut EventQueue<Ev>,
        now: SimTime,
        node_index: usize,
        key: KeyId,
    ) {
        if self.alive_list.is_empty() {
            return;
        }
        let node = self.alive_list[node_index % self.alive_list.len()];
        let client = ClientId(self.next_client);
        self.next_client += 1;
        self.fabric.query_posted.insert(client.0, now);
        let mut wire = self.fabric.wire(queue, now);
        self.plane.post_query(&mut wire, node, key, client);
    }

    /// A replica lifecycle action reaches its key's authority.
    fn on_replica(&mut self, queue: &mut EventQueue<Ev>, now: SimTime, action: ReplicaAction) {
        let Some(plan) = self.replica_plan.as_ref() else {
            return;
        };
        let lifetime = plan.lifetime;
        let event = match action.kind {
            ReplicaActionKind::Birth => ReplicaEvent::Birth {
                key: action.key,
                replica: action.replica,
                lifetime,
            },
            ReplicaActionKind::Refresh => ReplicaEvent::Refresh {
                key: action.key,
                replica: action.replica,
                lifetime,
            },
            ReplicaActionKind::Death => {
                // Dead from this instant, whatever becomes of the
                // deletion on its way to (or at) the authority.
                self.plane.note_death(action.key, action.replica, now);
                ReplicaEvent::Deletion {
                    key: action.key,
                    replica: action.replica,
                }
            }
        };
        // The plan keeps running whatever happens to this event, so
        // later ones land once a crashed authority restarts.
        if let Some(next) = plan.next_event(&action, now) {
            queue.schedule(next.at, Ev::Replica(next));
        }
        let authority = self.fabric.authority_of(action.key);
        let mut wire = self.fabric.wire(queue, now);
        self.plane.replica_event(&mut wire, authority, event);
    }

    /// A node joins or leaves the overlay (§2.9).
    fn on_churn(&mut self, ev: ChurnEvent) {
        match ev {
            ChurnEvent::Join { .. } => {
                let Ok(report) = self.fabric.overlay.join(&mut self.fabric.rng) else {
                    return;
                };
                let Some(new_id) = report.joined else {
                    return;
                };
                self.plane.nodes.push_joined(new_id);
                self.patch_interest(&report);
                // Hand over the directory slice the new node now owns.
                let nodes = &mut self.plane.nodes;
                if let Some(split) = report.counterpart.and_then(|n| nodes.get_mut(n)) {
                    let overlay = &self.fabric.overlay;
                    let moved = split.export_directory(|k| overlay.authority(k) == new_id);
                    if let Some(joined) = nodes.get_mut(new_id) {
                        joined.import_directory(moved);
                    }
                }
                self.after_topology_change();
            }
            ChurnEvent::Leave { graceful, .. } => {
                if self.alive_list.len() <= 1 {
                    return;
                }
                let victim = self.alive_list[self.fabric.rng.choose_index(self.alive_list.len())];
                let Ok(report) = self.fabric.overlay.leave(victim) else {
                    return;
                };
                let takeover = report.counterpart;
                if graceful {
                    // §2.9: a graceful departure may hand its entries to
                    // the takeover node, which merges and de-duplicates.
                    let nodes = &mut self.plane.nodes;
                    if let (Some(t), Some(gone)) = (takeover, nodes.get_mut(victim)) {
                        let moved = gone.export_directory(|_| true);
                        if let Some(t) = nodes.get_mut(t) {
                            t.import_directory(moved);
                        }
                    }
                }
                self.patch_interest(&report);
                self.plane.nodes.remove(victim);
                self.after_topology_change();
            }
        }
    }

    /// Applies §2.9 interest patching from a churn report: every node
    /// whose neighbor set lost members drops interest bookkeeping for
    /// them (entries at dependents then simply expire, the paper's
    /// no-hand-over option).
    fn patch_interest(&mut self, report: &cup_overlay::ChurnReport) {
        for change in &report.neighbor_changes {
            let Some(node) = self.plane.nodes.get_mut(change.node) else {
                continue;
            };
            for &removed in &change.removed {
                node.on_neighbor_departed(removed);
            }
        }
    }

    /// Refreshes caches that depend on the topology: the authority
    /// cache, every live node's upstream hints and the live list.
    fn after_topology_change(&mut self) {
        self.fabric.authority_cache.fill(None);
        for node in self.plane.nodes.iter_mut() {
            node.forget_upstream_hints();
        }
        self.alive_list = self.fabric.overlay.nodes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_faults::{FaultAction, FaultEvent};
    use cup_overlay::OverlayKind;
    use cup_workload::churn::ChurnEvent;

    #[test]
    fn a_failed_routing_lookup_is_dropped_and_counted() {
        // A node the overlay no longer routes from while the arena still
        // holds it: every lookup there fails. The DES used to `expect`
        // these; now it degrades exactly like the live runtime.
        let mut rng = DetRng::seed_from(5);
        let overlay = AnyOverlay::build(OverlayKind::Chord, 8, &mut rng).unwrap();
        let (config, latency) = (NodeConfig::cup_default(), LatencyModel::default_wan());
        let mut net = Network::new(overlay, config, latency, rng);
        let key = KeyId(3);
        let authority = net.fabric.authority_of(key);
        let lost = *net.alive_list.iter().find(|&&n| n != authority).unwrap();
        net.fabric.overlay.leave(lost).unwrap();
        net.fabric.query_posted.insert(0, SimTime::ZERO);

        let mut queue = EventQueue::new();
        let mut wire = net.fabric.wire(&mut queue, SimTime::ZERO);
        let query = Message::Query { key };
        net.plane.receive(&mut wire, authority, lost, query);
        net.plane.post_query(&mut wire, lost, key, ClientId(0));

        let metrics = net.plane.metrics;
        assert_eq!(metrics.routing_failures, 2);
        assert_eq!(metrics.query_hops, 1, "the hop was still paid");
        assert_eq!(metrics.client_responses, 0);
        assert!(queue.is_empty(), "nothing was forwarded");
        let answered = net.fabric.query_posted.is_empty();
        assert!(answered, "the client got an empty answer, not a long wait");
    }

    #[test]
    fn churn_clears_the_hints_it_makes_stale() {
        for kind in [OverlayKind::Can, OverlayKind::Chord] {
            let mut rng = DetRng::seed_from(11);
            let overlay = AnyOverlay::build(kind, 64, &mut rng).unwrap();
            let (config, latency) = (NodeConfig::cup_default(), LatencyModel::default_wan());
            let mut net = Network::new(overlay, config, latency, rng);
            let mut queue = EventQueue::new();
            let keys = (0..16).map(KeyId);
            // Every (node, key) hint a live node holds.
            let hints = |net: &Network| -> Vec<(NodeId, KeyId, Option<NodeId>)> {
                let live = net.plane.nodes.iter();
                let held = live.flat_map(|n| keys.clone().map(move |k| (n, k)));
                let hint = |(n, k): (&CupNode, KeyId)| Some((n.id(), k, n.upstream_hint(k)?));
                held.filter_map(hint).collect()
            };
            let (mut stale, mut client) = (0, 0);
            for round in 0..6 {
                // Every live node routes every key (the first query at a
                // node is routed, so its record learns the hop).
                for node in net.alive_list.clone() {
                    for key in keys.clone() {
                        client += 1;
                        let mut wire = net.fabric.wire(&mut queue, SimTime::ZERO);
                        net.plane.post_query(&mut wire, node, key, ClientId(client));
                    }
                }
                // All but each key's authority, where a client's query
                // makes no record.
                let before = hints(&net);
                assert_eq!(before.len(), (net.alive_list.len() - 1) * 16, "{kind:?}");
                let churn = match round % 2 {
                    0 => ChurnEvent::Join { at: SimTime::ZERO },
                    _ => ChurnEvent::Leave {
                        at: SimTime::ZERO,
                        graceful: false,
                    },
                };
                net.on_churn(churn);
                let mut wire = net.fabric.wire(&mut queue, SimTime::ZERO);
                for (node, key, hop) in before {
                    if net.plane.nodes.holds(node) {
                        stale += usize::from(wire.upstream_of(node, key) != Ok(hop));
                    }
                }
                assert_eq!(hints(&net), [], "{kind:?}: churn left hints behind");
            }
            assert!(
                stale > 0,
                "{kind:?}: no churn moved a route the test watched"
            );
        }
    }

    #[test]
    fn a_joined_node_runs_one_service_loop_while_throttled() {
        let mut rng = DetRng::seed_from(3);
        let overlay = AnyOverlay::build(OverlayKind::Chord, 8, &mut rng).unwrap();
        let (config, latency) = (NodeConfig::cup_default(), LatencyModel::default_wan());
        let mut net = Network::new(overlay, config, latency, rng);
        net.on_churn(ChurnEvent::Join { at: SimTime::ZERO });
        let joined = NodeId(8);
        let throttled = |net: &Network| net.plane.nodes.get(joined).unwrap().is_throttled();
        assert!(!throttled(&net), "a joined node starts unthrottled");
        // The first cut throttles it and asks for exactly one service
        // wake, which the plane keeps; a second cut, a recovery and a
        // re-cut before that service ask for none.
        let mut queue = EventQueue::new();
        let second = SimTime::from_secs(1);
        let cut = |c| {
            let action = FaultAction::SetCapacity {
                node: joined.index(),
                c,
            };
            Ev::Fault(FaultEvent {
                at: SimTime::ZERO,
                action,
            })
        };
        for capacity in [0.25, 0.5, 1.0, 0.5] {
            net.dispatch(&mut queue, SimTime::ZERO, cut(capacity));
            assert!(throttled(&net), "after the cut to {capacity}");
            let kept = net.plane.next_wake();
            assert_eq!(kept, Some(second), "after the cut to {capacity}");
            assert!(queue.is_empty(), "after the cut to {capacity}");
        }
        // A service at a cut fraction asks for the next one; the first
        // after a recovery lifts the throttle and ends the loop. Each
        // second runs exactly one wake.
        let tick = SimDuration::from_micros(1);
        for (due, capacity, looping) in [(1, 0.5, true), (2, 1.0, false)] {
            net.dispatch(&mut queue, SimTime::ZERO, cut(capacity));
            let served = net.run_until(&mut queue, SimTime::from_secs(due) + tick);
            assert_eq!(served, 1, "serviced at {capacity}");
            let next = net.plane.next_wake();
            assert_eq!(next.is_some(), looping, "serviced at {capacity}");
            assert_eq!(throttled(&net), looping, "serviced at {capacity}");
        }
    }
}
