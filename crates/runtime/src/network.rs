//! The worker-pool runtime handle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cup_core::clock::Clock;
use cup_core::obs::{Hist, TraceBuf};
use cup_core::stats::NodeStats;
use cup_core::{ClientId, CupNode, IndexEntry, NodeConfig, ReplicaEvent};
use cup_des::{DetRng, KeyId, NodeId, ReplicaId, SimDuration, SimTime};
use cup_faults::{FaultAction, Plane, Totals};
use cup_overlay::{AnyOverlay, Overlay, OverlayError, OverlayKind};

use crate::shard::{worker_main, Envelope, Shared};
use crate::shard_map::{ShardMap, ShardMapMode};

/// Errors surfaced by the live runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// The overlay could not be built.
    Overlay(OverlayError),
    /// A query timed out waiting for its response.
    QueryTimeout,
    /// The target node is not part of the network.
    UnknownNode(NodeId),
}

impl core::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Overlay(e) => write!(f, "overlay error: {e}"),
            RuntimeError::QueryTimeout => write!(f, "query timed out"),
            RuntimeError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A running CUP network sharded across a pool of worker threads.
pub struct LiveNetwork {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    node_ids: Vec<NodeId>,
    next_client: AtomicU64,
    /// How long [`LiveNetwork::query`] waits for a response.
    pub query_timeout: Duration,
}

impl LiveNetwork {
    /// Builds an overlay of `n` nodes of the given kind and starts the
    /// runtime on the default worker count
    /// ([`LiveNetwork::default_workers`]), contiguous shards and the
    /// wall-mapped clock.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Overlay`] if the overlay cannot be built.
    pub fn start(
        kind: OverlayKind,
        n: usize,
        config: NodeConfig,
        rng: &mut DetRng,
    ) -> Result<Self, RuntimeError> {
        let (workers, map) = (Self::default_workers(), ShardMapMode::Contiguous);
        Self::start_with_map(kind, n, config, workers, map, Clock::wall(), rng)
    }

    /// Like [`LiveNetwork::start_with_map`] on a virtual clock frozen at
    /// `SimTime::ZERO`: "now" is deterministic logical time that moves
    /// only through [`LiveNetwork::advance`] / [`LiveNetwork::run_until`],
    /// so every worker observes byte-identical timestamps regardless of
    /// scheduling and all time-compared protocol behavior (`PFU_TIMEOUT`
    /// retries, `@t=`-windowed fault scripts) matches the DES exactly —
    /// the constructor the conformance harness uses to prove sharding
    /// invisible across placement modes.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Overlay`] if the overlay cannot be built.
    pub fn start_virtual_with_map(
        kind: OverlayKind,
        n: usize,
        config: NodeConfig,
        workers: usize,
        map: ShardMapMode,
        rng: &mut DetRng,
    ) -> Result<Self, RuntimeError> {
        let clock = Clock::virtual_at(SimTime::ZERO);
        Self::start_with_map(kind, n, config, workers, map, clock, rng)
    }

    /// The fully explicit constructor: overlay kind, population, worker
    /// count, node→shard placement mode, and clock (wall-mapped or
    /// virtual, possibly starting mid-epoch). The other two delegate
    /// here.
    ///
    /// `workers` is clamped to `1..=n` and then honored exactly: each
    /// worker serves one shard of nodes (shard sizes differ by at most
    /// one).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Overlay`] if the overlay cannot be built.
    pub fn start_with_map(
        kind: OverlayKind,
        n: usize,
        config: NodeConfig,
        workers: usize,
        map: ShardMapMode,
        clock: Clock,
        rng: &mut DetRng,
    ) -> Result<Self, RuntimeError> {
        let overlay = AnyOverlay::build(kind, n, rng).map_err(RuntimeError::Overlay)?;
        let node_ids = overlay.nodes();
        // The shard map's dense tables and the O(1) node check in
        // `query` rely on the static builders assigning dense ids 0..n.
        assert!(
            node_ids.iter().enumerate().all(|(i, id)| id.index() == i),
            "static overlay builders must assign dense node ids"
        );
        // Exactly `workers` shards under the balanced partition (sizes
        // differ by at most one node), so a pinned worker count is
        // honored for every n/workers combination.
        let workers = workers.clamp(1, node_ids.len().max(1));
        let map = ShardMap::build(map, &overlay, workers);
        let shared = Arc::new(Shared::new(map, overlay, config, clock));
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let shared = Arc::clone(&shared);
            #[expect(
                clippy::expect_used,
                reason = "start-up, before any worker dispatches: failing to spawn the pool has nothing to degrade to"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("cup-shard-{shard}"))
                .spawn(move || worker_main(shard, shared))
                .expect("worker thread must spawn");
            handles.push(handle);
        }
        Ok(LiveNetwork {
            shared,
            handles,
            node_ids,
            next_client: AtomicU64::new(0),
            query_timeout: Duration::from_secs(5),
        })
    }

    /// The worker count the parameterless constructor uses: the
    /// machine's available parallelism (1 if unknown).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// The live node ids.
    pub fn nodes(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Number of worker threads (= shards) running the nodes.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    // Metric-accessor policy: every reading is shard-local state (the
    // delivery kernel's `Plane` — node counters, hops by kind,
    // justification, fault counters, stale sums, histograms, routing
    // failures, the trace ring — plus the batch-plane counters), plain
    // data inside each shard's `ShardLocal`. A reading takes every
    // shard's lock (`Shared::lock_locals`, granted at round boundaries)
    // and folds with exact merges — `Plane::totals`, `Hist::merge`,
    // `NodeStats::merge`, `TraceBuf::merge` — so it is one consistent
    // cut, and after a `quiesce` it is the final one. A new metric lives
    // there too, not in an atomic on `Shared`.

    /// What the shards' delivery planes add up to — the same [`Totals`]
    /// a DES run reports: the merged [`cup_faults::NetMetrics`] (fault
    /// counters, staleness and latency included) and the justification
    /// counts. The single accessors below read this fold. Call after
    /// [`LiveNetwork::quiesce`] for a stable reading.
    pub fn totals(&self) -> Totals {
        let locals = self.shared.lock_locals();
        Plane::totals(locals.iter().map(|l| &l.plane))
    }

    /// Peer messages delivered so far (hop count). Charged when a
    /// message is received, so while traffic is in flight it trails the
    /// number sent; at a quiesce the two are equal.
    pub fn hops(&self) -> u64 {
        self.totals().net.hops()
    }

    /// Peer messages that crossed a shard boundary (subset of
    /// [`LiveNetwork::hops`]). Batching does not change the count:
    /// every envelope inside a flushed batch is charged individually
    /// at flush time. Call after [`LiveNetwork::quiesce`] for a stable
    /// reading.
    pub fn cross_shard_messages(&self) -> u64 {
        let locals = self.shared.lock_locals();
        locals.iter().map(|local| local.cross_shard).sum()
    }

    /// The node→shard placement mode this network was started with.
    pub fn shard_map_mode(&self) -> ShardMapMode {
        self.shared.map.mode()
    }

    /// Batches deposited into other shards' inboxes so far
    /// (non-empty flushes). Call after [`LiveNetwork::quiesce`] for a
    /// stable reading.
    pub fn batch_flushes(&self) -> u64 {
        self.batch_size_hist().count()
    }

    /// Peer envelopes that traveled inside those batches: every
    /// cross-shard message, so this is
    /// [`LiveNetwork::cross_shard_messages`] (justification marks batch
    /// too but count as neither). Divided by
    /// [`LiveNetwork::batch_flushes`] it is the mean batch size.
    pub fn batched_envelopes(&self) -> u64 {
        self.cross_shard_messages()
    }

    /// Messages dropped because an overlay routing lookup failed
    /// (client queries are instead answered empty immediately). Always
    /// zero on a well-formed static overlay.
    pub fn routing_failures(&self) -> u64 {
        self.totals().net.routing_failures
    }

    /// Switches §3.1 justified-update accounting on or off. Enable it
    /// before injecting traffic: the trackers only see events recorded
    /// while it is on. Each shard tracks its own nodes' windows without
    /// a lock of its own; what it costs is the virtual-path lookup per
    /// posted query, plus one bookkeeping envelope to every other shard
    /// that path crosses.
    pub fn track_justification(&self, enabled: bool) {
        for local in &mut self.shared.lock_locals() {
            local.plane.justify_on = enabled;
        }
    }

    /// The live `(justified, tracked)` maintenance-update counts — the
    /// same investment-return metric the DES reports in
    /// `ExperimentResult::{justified_updates, tracked_updates}`.
    /// `(0, 0)` until [`LiveNetwork::track_justification`] is enabled.
    /// Call after [`LiveNetwork::quiesce`] for a stable reading.
    pub fn justification(&self) -> (u64, u64) {
        let totals = self.totals();
        (totals.justified, totals.tracked)
    }

    /// Arms the fault plane with a fresh `FaultState` keyed by `seed`
    /// (one replica per shard, all from this seed), and latches
    /// staleness ground-truth recording for the rest of the run. Use the same seed
    /// as a DES run's plane to get byte-identical drop decisions (the
    /// conformance harness does exactly that).
    ///
    /// Call while the network is quiescent — re-seeding under traffic
    /// would split one logical fault universe into two. Note that
    /// byte-identical agreement with a DES run additionally requires
    /// serialized traffic (quiesce between scripted events, the
    /// conformance pattern): under concurrent cascades, per-link message
    /// order — and therefore which message a lossy link eats — depends
    /// on mailbox arrival order.
    pub fn enable_faults(&self, seed: u64) {
        for local in &mut self.shared.lock_locals() {
            local.plane.arm(seed);
        }
    }

    /// Applies one fault action to the live plane at [`LiveNetwork::now`]:
    /// loss rates and partitions take effect on the next send; a crash
    /// also wipes the node's protocol state before this returns (its
    /// counters stay in [`LiveNetwork::node_stats`]), so nothing still in
    /// flight toward the node can reach its pre-crash state, as in the
    /// DES. A §2.8 capacity fraction (`FaultAction::SetCapacity`) is the
    /// node's host's: a cut throttles a live node before this returns,
    /// and its plane keeps the service wake the cut asks for, which
    /// [`LiveNetwork::run_until`] steps on the virtual clock; a crashed
    /// node takes the fraction when it restarts. On the wall clock a
    /// shard whose earliest wake the action moved is woken to read it
    /// again, so a parked worker does not sleep past a new service.
    ///
    /// The action is applied to every shard's replica while every
    /// shard's lock is held — between rounds everywhere — so the
    /// replicas' epochs stay equal and no worker ever rolls a verdict
    /// against a half-applied plane. Only the plane holding a crashed
    /// node resets it. Workers consult their replica only while some
    /// fault is in effect, so a fully healed network (loss 0, no
    /// partition, everyone restarted) pays nothing per send again.
    ///
    /// An action naming a node outside the population (a crash, restart
    /// or behavior of node `n >= nodes().len()`) is dropped before it
    /// reaches any replica: no such node can send or receive, and the
    /// plane's per-node tables are sized by the node it names.
    pub fn inject_fault(&self, action: FaultAction) {
        if action
            .node()
            .is_some_and(|node| node >= self.node_ids.len())
        {
            return;
        }
        let mut moved = Vec::new();
        let mut locals = self.shared.lock_locals();
        let (now, wall) = (self.now(), !self.is_virtual_clock());
        for (shard, local) in locals.iter_mut().enumerate() {
            let before = local.plane.next_wake();
            local.plane.apply(now, action);
            self.shared.recount_wakes(local);
            if wall && local.plane.next_wake() != before {
                moved.push(shard);
            }
        }
        drop(locals);
        for shard in moved {
            self.shared.post(shard, Envelope::Wake);
        }
    }

    /// Messages the fault plane dropped so far (all zero while
    /// unarmed; the per-cause counters are `totals().net.faults`).
    pub fn dropped_messages(&self) -> u64 {
        self.totals().net.faults.dropped()
    }

    /// The batch-size histogram: envelopes per non-empty cross-shard
    /// flush (the distribution behind the
    /// [`LiveNetwork::batched_envelopes`] / [`LiveNetwork::batch_flushes`]
    /// mean). Live-only — the DES has no batching. Call after
    /// [`LiveNetwork::quiesce`] for a stable reading.
    pub fn batch_size_hist(&self) -> Hist {
        let mut merged = Hist::default();
        for local in &self.shared.lock_locals() {
            merged.merge(&local.batch_sizes);
        }
        merged
    }

    /// Turns on structured event tracing: each shard records its own
    /// events into a ring of its own, keeping up to `cap` events per
    /// shard. Off by default; when off, every emission site costs one
    /// `Option` check and nothing else. Enable before injecting the
    /// traffic to trace; harvest with [`LiveNetwork::take_trace`].
    pub fn enable_trace(&self, cap: usize) {
        for local in &mut self.shared.lock_locals() {
            local.plane.trace = Some(TraceBuf::new(cap));
        }
    }

    /// Detaches the shards' trace rings (tracing turns back off) and
    /// merges them ([`TraceBuf::merge`]): every event a shard kept, and
    /// what the shards dropped, summed. Call after
    /// [`LiveNetwork::quiesce`] so the trace covers all injected
    /// traffic; compare runs via `TraceBuf::sorted` /
    /// `cup_core::obs::trace_diff` — worker interleaving makes raw
    /// arrival order nondeterministic, canonical order is not.
    pub fn take_trace(&self) -> Option<TraceBuf> {
        let mut locals = self.shared.lock_locals();
        let mut rings = locals
            .iter_mut()
            .filter_map(|local| local.plane.trace.take());
        let mut merged = rings.next()?;
        for ring in rings {
            merged.merge(&ring);
        }
        Some(merged)
    }

    /// Every node's protocol counters plus those its crashes wiped,
    /// folded across the shards — the live mirror of
    /// `ExperimentResult::nodes`. Call after [`LiveNetwork::quiesce`] for
    /// a stable reading.
    pub fn node_stats(&self) -> NodeStats {
        let mut merged = NodeStats::default();
        for local in &self.shared.lock_locals() {
            merged.merge(&local.plane.nodes.aggregate_stats());
        }
        merged
    }

    /// Blocks until the network is quiescent: every shard mailbox is
    /// drained and no worker is mid-dispatch.
    ///
    /// This is the synchronization point tests and benchmarks use where
    /// a simulation would say "run until the event queue is empty" —
    /// e.g. after replica events, to observe their fully-propagated
    /// effect. The caller must not race it against other threads still
    /// injecting work if it wants the barrier to mean "all of *my* work
    /// is done".
    pub fn quiesce(&self) {
        self.shared.wait_quiescent();
    }

    /// The network's current time: wall-mapped microseconds since start,
    /// or the virtual clock's logical time.
    pub fn now(&self) -> SimTime {
        self.shared.clock.now()
    }

    /// `true` if the network runs on a virtual clock.
    pub fn is_virtual_clock(&self) -> bool {
        self.shared.clock.is_virtual()
    }

    /// Quiesces, then steps the virtual clock to `deadline` — the live
    /// mirror of a DES "run until": all in-flight traffic completes at
    /// the *current* logical time before time jumps, so every worker
    /// observes the same instant for every message. The wakes nodes
    /// asked for (a §2.8 service, a §3.6 batch release) that fall due
    /// before `deadline` run on the way, instant by instant: the clock
    /// steps to each, the shards keeping one run theirs, and the network
    /// quiesces before the next. A wake due exactly at `deadline` stays
    /// pending, as an event there does in the DES. `deadline == now`
    /// re-synchronizes without moving time.
    ///
    /// # Panics
    ///
    /// Panics on a wall-mapped clock or if `deadline` is in the past.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        self.quiesce();
        while let Some(at) = self.shared.next_wake(deadline) {
            self.shared.clock.advance_to(at);
            for shard in 0..self.shared.map.shards() {
                self.shared.post(shard, Envelope::Wake);
            }
            self.quiesce();
        }
        self.shared.clock.advance_to(deadline)
    }

    /// Quiesces, then steps the virtual clock forward by `by`. The
    /// deterministic replacement for "sleep and hope": where a
    /// wall-clock test would wait out a protocol timer, a virtual-clock
    /// test advances past it exactly.
    ///
    /// # Panics
    ///
    /// Panics on a wall-mapped clock.
    pub fn advance(&self, by: SimDuration) -> SimTime {
        assert!(
            self.is_virtual_clock(),
            "advance on a wall-mapped clock: only virtual time can be steered"
        );
        let deadline = self.now() + by;
        self.run_until(deadline)
    }

    /// Announces a replica serving `key` to the key's authority node.
    pub fn replica_birth(&self, key: KeyId, replica: ReplicaId, lifetime: SimDuration) {
        self.send_replica(ReplicaEvent::Birth {
            key,
            replica,
            lifetime,
        });
    }

    /// Renews a replica's index entry.
    pub fn replica_refresh(&self, key: KeyId, replica: ReplicaId, lifetime: SimDuration) {
        self.send_replica(ReplicaEvent::Refresh {
            key,
            replica,
            lifetime,
        });
    }

    /// Withdraws a replica. Once the fault plane is armed, every shard
    /// also records the replica as dead from now (the staleness ground
    /// truth an answer is judged against), ahead of the deletion itself.
    /// On a wall-mapped clock "now" is when this call posts, not when the
    /// authority's shard handles the deletion, so a staleness age can
    /// read a few µs larger than the authority's view of it.
    pub fn replica_deletion(&self, key: KeyId, replica: ReplicaId) {
        let at = self.now();
        for shard in 0..self.shared.map.shards() {
            self.shared
                .post(shard, Envelope::Death { key, replica, at });
        }
        self.send_replica(ReplicaEvent::Deletion { key, replica });
    }

    fn send_replica(&self, event: ReplicaEvent) {
        let authority = self.shared.overlay.authority(event.key());
        let shard = self.shared.map.shard_of(authority);
        self.shared.post(
            shard,
            Envelope::Replica {
                at: authority,
                event,
            },
        );
    }

    /// Posts a client query at `node` and blocks for the fresh index
    /// entries. Safe to call from several client threads at once.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownNode`] for an invalid node and
    /// [`RuntimeError::QueryTimeout`] if no response arrives within
    /// [`LiveNetwork::query_timeout`].
    pub fn query(&self, node: NodeId, key: KeyId) -> Result<Vec<IndexEntry>, RuntimeError> {
        let pending = self.query_detached(node, key)?;
        self.shared
            .clients_of(pending.shard)
            .wait(pending.client, self.query_timeout)
            .ok_or(RuntimeError::QueryTimeout)
    }

    /// Posts a client query without blocking for the answer. Under fault
    /// injection an answer may legitimately never come (the query or its
    /// response was dropped); the deterministic pattern is to post,
    /// [`LiveNetwork::quiesce`], then [`PendingQuery::try_take`] — after
    /// a quiesce, "no answer yet" means "no answer ever".
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownNode`] for an invalid node.
    pub fn query_detached(
        &self,
        node: NodeId,
        key: KeyId,
    ) -> Result<PendingQuery<'_>, RuntimeError> {
        // Ids are dense, so validity is a range check, not an O(n) scan.
        if node.index() >= self.node_ids.len() {
            return Err(RuntimeError::UnknownNode(node));
        }
        let client = ClientId(self.next_client.fetch_add(1, Ordering::Relaxed));
        let shard = self.shared.map.shard_of(node);
        // Registered with its posted time (so wall-clock latency
        // includes queue wait) in the posting node's shard — the only
        // shard that ever answers this client.
        self.shared
            .clients_of(shard)
            .register(client, self.shared.now());
        self.shared.post(
            shard,
            Envelope::Client {
                at: node,
                key,
                client,
            },
        );
        Ok(PendingQuery {
            net: self,
            shard,
            client,
        })
    }

    /// Stops the worker pool and returns the final protocol state of
    /// every node, in node-id order (useful for inspecting per-node
    /// statistics). Implies [`LiveNetwork::quiesce`], so all previously
    /// injected traffic is fully processed in the returned states.
    /// Counters wiped by crashes are not in them; read
    /// [`LiveNetwork::node_stats`] before shutting down for the total.
    pub fn shutdown(self) -> Vec<CupNode> {
        self.quiesce();
        for inbox in &self.shared.inboxes {
            inbox.shutdown();
        }
        for handle in self.handles {
            #[expect(
                clippy::expect_used,
                reason = "shutdown, after the last quiesce: surfacing a worker panic to the caller is the report, not a degradation"
            )]
            handle.join().expect("worker thread must not panic");
        }
        let mut nodes = Vec::with_capacity(self.node_ids.len());
        for local in &mut self.shared.lock_locals() {
            nodes.append(&mut std::mem::take(&mut local.plane.nodes).into_nodes());
        }
        // Neither shard order nor slab order is id order.
        nodes.sort_unstable_by_key(|n| n.id().index());
        nodes
    }
}

/// A posted-but-unclaimed client query (see
/// [`LiveNetwork::query_detached`]). Its answers wait in its slot in
/// the posting shard's client registry; dropping the handle removes the
/// slot, unclaimed answers and posted-time record included.
pub struct PendingQuery<'a> {
    net: &'a LiveNetwork,
    /// The shard whose registry holds this client.
    shard: usize,
    client: ClientId,
}

impl PendingQuery<'_> {
    /// Takes the answer if one has arrived. After a
    /// [`LiveNetwork::quiesce`], `None` is definitive: the query (or its
    /// response) was dropped and no answer will ever come.
    pub fn try_take(self) -> Option<Vec<IndexEntry>> {
        self.poll()
    }

    /// Like [`PendingQuery::try_take`] without consuming the handle: the
    /// client stays registered, so an answer resurrected later — e.g. a
    /// PFU retry's first-time update reaching a node with this client
    /// still waiting — can still be claimed by a later poll. Answers
    /// come out in the order they arrived, one per poll.
    pub fn poll(&self) -> Option<Vec<IndexEntry>> {
        self.net.shared.clients_of(self.shard).take(self.client)
    }
}

impl Drop for PendingQuery<'_> {
    fn drop(&mut self) {
        self.net
            .shared
            .clients_of(self.shard)
            .deregister(self.client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::SimTime;

    const LIFE: SimDuration = SimDuration::from_secs(60);

    /// A network of `n` nodes over `workers` contiguous shards, its
    /// overlay built from `seed`.
    fn start(kind: OverlayKind, n: usize, workers: usize, clock: Clock, seed: u64) -> LiveNetwork {
        let (config, map) = (NodeConfig::cup_default(), ShardMapMode::Contiguous);
        let mut rng = DetRng::seed_from(seed);
        LiveNetwork::start_with_map(kind, n, config, workers, map, clock, &mut rng).unwrap()
    }

    /// A 4-worker network (forcing cross-shard traffic even on small
    /// populations and single-core CI runners).
    fn network(kind: OverlayKind, n: usize) -> LiveNetwork {
        start(kind, n, 4, Clock::wall(), 11)
    }

    /// A network like [`start`]'s on a virtual clock.
    fn virtual_network(kind: OverlayKind, n: usize, workers: usize, seed: u64) -> LiveNetwork {
        start(kind, n, workers, Clock::virtual_at(SimTime::ZERO), seed)
    }

    #[test]
    fn query_finds_replica_on_both_overlays() {
        for kind in OverlayKind::ALL {
            let net = network(kind, 16);
            net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
            net.quiesce();
            for &node in &net.nodes()[..4] {
                let entries = net.query(node, KeyId(1)).unwrap();
                assert_eq!(entries.len(), 1, "{kind}: query at {node}");
                assert_eq!(entries[0].replica, ReplicaId(0));
            }
            assert_eq!(net.routing_failures(), 0);
            net.shutdown();
        }
    }

    #[test]
    fn repeat_queries_are_served_from_cache() {
        let net = network(OverlayKind::Can, 16);
        net.replica_birth(KeyId(2), ReplicaId(3), LIFE);
        net.quiesce();
        let node = net.nodes()[7];
        net.query(node, KeyId(2)).unwrap();
        let hops_after_first = net.hops();
        net.query(node, KeyId(2)).unwrap();
        let hops_after_second = net.hops();
        assert!(
            hops_after_second <= hops_after_first + 1,
            "second query must be a (near-)local cache hit: {hops_after_first} -> {hops_after_second}"
        );
        net.shutdown();
    }

    #[test]
    fn deletion_propagates_to_caches() {
        for kind in OverlayKind::ALL {
            let net = network(kind, 16);
            net.replica_birth(KeyId(3), ReplicaId(5), LIFE);
            net.quiesce();
            let node = net.nodes()[9];
            assert_eq!(net.query(node, KeyId(3)).unwrap().len(), 1);
            net.replica_deletion(KeyId(3), ReplicaId(5));
            net.quiesce();
            // After the delete propagates, the fresh answer is empty.
            let entries = net.query(node, KeyId(3)).unwrap();
            assert!(
                entries.is_empty(),
                "{kind}: delete update should have removed the entry everywhere"
            );
            net.shutdown();
        }
    }

    #[test]
    fn unknown_key_yields_empty_answer() {
        let net = network(OverlayKind::Can, 8);
        let entries = net.query(net.nodes()[0], KeyId(99)).unwrap();
        assert!(entries.is_empty());
        net.shutdown();
    }

    #[test]
    fn unknown_node_is_rejected() {
        let net = network(OverlayKind::Can, 8);
        assert!(matches!(
            net.query(NodeId(999), KeyId(1)),
            Err(RuntimeError::UnknownNode(_))
        ));
        net.shutdown();
    }

    #[test]
    fn shutdown_returns_node_states_in_id_order() {
        let net = network(OverlayKind::Chord, 8);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.query(net.nodes()[3], KeyId(1)).unwrap();
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 8);
        assert!(nodes.iter().enumerate().all(|(i, n)| n.id().index() == i));
        let total_queries: u64 = nodes.iter().map(|n| n.stats.client_queries).sum();
        assert_eq!(total_queries, 1);
    }

    #[test]
    fn quiesce_on_an_idle_network_returns_immediately() {
        let net = network(OverlayKind::Can, 8);
        net.quiesce();
        net.quiesce();
        net.shutdown();
    }

    #[test]
    fn worker_count_is_clamped_to_population() {
        let net = start(OverlayKind::Can, 3, 64, Clock::wall(), 3);
        assert_eq!(net.workers(), 3);
        net.shutdown();
    }

    #[test]
    fn awkward_worker_counts_are_honored_exactly() {
        // 16 nodes over 7 workers does not divide evenly; the balanced
        // partition must still produce exactly 7 shards covering every
        // node exactly once.
        let net = start(OverlayKind::Can, 16, 7, Clock::wall(), 5);
        assert_eq!(net.workers(), 7);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        for &node in net.nodes() {
            assert_eq!(net.query(node, KeyId(1)).unwrap().len(), 1);
        }
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 16);
        assert!(nodes.iter().enumerate().all(|(i, n)| n.id().index() == i));
    }

    #[test]
    fn cross_shard_traffic_flows_through_mailboxes() {
        let net = network(OverlayKind::Can, 32);
        for k in 0..8 {
            net.replica_birth(KeyId(k), ReplicaId(k), LIFE);
        }
        net.quiesce();
        let mut rng = DetRng::seed_from(17);
        for _ in 0..32 {
            let node = net.nodes()[rng.choose_index(32)];
            net.query(node, KeyId(rng.next_below(8) as u32)).unwrap();
        }
        net.quiesce();
        assert!(
            net.cross_shard_messages() > 0,
            "a 4-shard network must route some messages across shards"
        );
        assert!(net.cross_shard_messages() <= net.hops());
        // Batched transfer still counts individual envelopes: every
        // cross-shard message traveled inside some batch deposited into
        // its receiver's inbox.
        assert_eq!(net.batched_envelopes(), net.cross_shard_messages());
        assert!(net.batch_flushes() > 0);
        assert!(
            net.batch_flushes() <= net.batched_envelopes(),
            "a non-empty flush carries at least one envelope"
        );
        net.shutdown();
    }

    #[test]
    fn overlay_aware_map_serves_queries_and_returns_id_order() {
        for kind in OverlayKind::ALL {
            let mut rng = DetRng::seed_from(23);
            let net = LiveNetwork::start_with_map(
                kind,
                24,
                NodeConfig::cup_default(),
                4,
                ShardMapMode::OverlayAware,
                Clock::wall(),
                &mut rng,
            )
            .unwrap();
            assert_eq!(net.shard_map_mode(), ShardMapMode::OverlayAware);
            net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
            net.quiesce();
            for &node in net.nodes() {
                assert_eq!(
                    net.query(node, KeyId(1)).unwrap().len(),
                    1,
                    "{kind}: {node}"
                );
            }
            assert_eq!(net.routing_failures(), 0);
            let nodes = net.shutdown();
            assert_eq!(nodes.len(), 24);
            assert!(
                nodes.iter().enumerate().all(|(i, n)| n.id().index() == i),
                "{kind}: shutdown must return id order under any shard map"
            );
        }
    }

    #[test]
    fn single_worker_networks_never_batch() {
        let net = start(OverlayKind::Can, 16, 1, Clock::wall(), 29);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.query(net.nodes()[7], KeyId(1)).unwrap();
        net.quiesce();
        assert_eq!(net.cross_shard_messages(), 0);
        assert_eq!(net.batch_flushes(), 0);
        assert_eq!(net.batched_envelopes(), 0);
        net.shutdown();
    }

    #[test]
    fn concurrent_clients_are_all_answered() {
        let net = network(OverlayKind::Can, 32);
        for k in 0..4 {
            net.replica_birth(KeyId(k), ReplicaId(k), LIFE);
        }
        net.quiesce();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let net = &net;
                s.spawn(move || {
                    let mut rng = DetRng::seed_from(100 + u64::from(t));
                    for _ in 0..16 {
                        let node = net.nodes()[rng.choose_index(32)];
                        let entries = net.query(node, KeyId(t)).unwrap();
                        assert_eq!(entries.len(), 1);
                    }
                });
            }
        });
        let nodes = net.shutdown();
        let total: u64 = nodes.iter().map(|n| n.stats.client_queries).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn justification_accounting_tracks_maintenance_updates() {
        let net = network(OverlayKind::Can, 16);
        net.track_justification(true);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        // Queries subscribe their reverse paths; responses (first-time
        // updates) are never tracked.
        for &i in &[3usize, 5, 9] {
            net.query(net.nodes()[i], KeyId(1)).unwrap();
            net.quiesce();
        }
        assert_eq!(
            net.justification(),
            (0, 0),
            "first-time responses are not §3.1 maintenance updates"
        );
        // A refresh flows down the interest tree and opens windows.
        net.replica_refresh(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        let (_, tracked) = net.justification();
        assert!(tracked > 0, "refresh deliveries must be tracked");
        // Re-querying walks those windows' virtual paths and justifies
        // them.
        for &i in &[3usize, 5, 9] {
            net.query(net.nodes()[i], KeyId(1)).unwrap();
            net.quiesce();
        }
        let (justified, total) = net.justification();
        assert!(justified >= 1, "a query inside the window justifies it");
        assert!(justified <= total);
        net.shutdown();
    }

    #[test]
    fn justification_is_off_by_default() {
        let net = network(OverlayKind::Can, 16);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.query(net.nodes()[5], KeyId(1)).unwrap();
        net.replica_refresh(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        assert_eq!(net.justification(), (0, 0));
        net.shutdown();
    }

    #[test]
    fn crash_wipes_state_and_restart_comes_back_cold() {
        let net = network(OverlayKind::Can, 16);
        net.enable_faults(5);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        let victim = net.nodes()[6];
        let entries = net.query(victim, KeyId(1)).unwrap();
        assert_eq!(entries.len(), 1);
        net.quiesce();
        let before = net.node_stats();
        assert_eq!(before.client_queries, 1);
        // Crash the node: queries at it are swallowed, traffic to it is
        // dropped. Its counters are wiped from it but not from the
        // network's.
        net.inject_fault(FaultAction::Crash {
            node: victim.index(),
        });
        // Wiped inside `inject_fault`, under the shard locks: no barrier,
        // no queued envelope, so nothing delivered later (a restart
        // right behind it included) can reach the pre-crash state.
        {
            let locals = net.shared.lock_locals();
            let node = locals.iter().find_map(|l| l.plane.nodes.get(victim));
            let node = node.expect("the owner's plane holds the node");
            assert!(node.stats == NodeStats::default() && node.key_state(KeyId(1)).is_none());
        }
        assert_eq!(net.node_stats(), before, "conserved across the crash");
        net.quiesce();
        let pending = net.query_detached(victim, KeyId(1)).unwrap();
        net.quiesce();
        assert!(
            pending.try_take().is_none(),
            "a crashed node answers nothing"
        );
        assert_eq!(net.totals().net.faults.queries_at_crashed, 1);
        assert_eq!(net.totals().net.faults.crashes, 1);
        // Restart: the node is reachable again, but cold — its next
        // answer needs a fresh upstream fetch, and its pre-crash
        // counters stay with the network, not with the node.
        net.inject_fault(FaultAction::Restart {
            node: victim.index(),
        });
        net.quiesce();
        let entries = net.query(victim, KeyId(1)).unwrap();
        assert_eq!(entries.len(), 1, "restarted node re-fetches and answers");
        assert_eq!(net.totals().net.faults.restarts, 1);
        let after = net.node_stats();
        assert_eq!(after.client_queries, 2);
        assert_eq!(after.first_time_misses, before.first_time_misses + 1);
        let nodes = net.shutdown();
        let cold = &nodes[victim.index()].stats;
        assert_eq!((cold.client_queries, cold.first_time_misses), (1, 1));
        let held: u64 = nodes.iter().map(|n| n.stats.client_queries).sum();
        assert_eq!(held, 1, "the pre-crash query is retained, not held");
    }

    #[test]
    fn a_fault_naming_a_node_outside_the_population_is_dropped() {
        let net = network(OverlayKind::Can, 16);
        net.enable_faults(5);
        let plan = cup_faults::FaultPlan::parse_specs(&["crash:18446744073709551615@t=1"]);
        for event in plan.unwrap().events() {
            net.inject_fault(event.action);
        }
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        assert_eq!(net.query(net.nodes()[6], KeyId(1)).unwrap().len(), 1);
        assert_eq!(net.totals().net.faults.crashes, 0, "no replica saw it");
        net.shutdown();
    }

    #[test]
    fn a_crashed_nodes_histograms_fold_into_the_retained_aggregate() {
        let net = virtual_network(OverlayKind::Can, 16, 2, 13);
        net.enable_faults(5);
        net.replica_birth(KeyId(1), ReplicaId(0), SimDuration::from_secs(3600));
        net.quiesce();
        // Total loss strands a Pending-First-Update flag at every node
        // but the authority; past the 30 s timeout each node's next
        // query retries and records how long its flag sat.
        net.inject_fault(FaultAction::SetLoss { rate: 1.0 });
        let stranded: Vec<_> = (net.nodes().iter())
            .map(|&node| net.query_detached(node, KeyId(1)).unwrap())
            .collect();
        net.quiesce();
        net.inject_fault(FaultAction::SetLoss { rate: 0.0 });
        net.advance(SimDuration::from_secs(31));
        for &node in net.nodes() {
            assert_eq!(net.query(node, KeyId(1)).unwrap().len(), 1);
        }
        drop(stranded);
        let before = net.node_stats();
        assert_eq!(before.pfu_retries, 15, "one per non-authority node");
        assert_eq!(before.pfu_retry_age.count(), 15);
        // Every retry waited out the timeout, so every age lies in the
        // same window, and so does every retained one.
        let ages = before.pfu_retry_age.to_hist();
        for permille in [0, 500, 1000] {
            let age = ages.quantile(permille);
            assert!((24_000_000..=31_000_000).contains(&age), "{age} µs");
        }
        // Crash half the nodes: at least seven of them hold a sample.
        for node in 0..8 {
            net.inject_fault(FaultAction::Crash { node });
        }
        net.quiesce();
        // Nothing was lost and nothing doubled: the network keeps every
        // sample, the crashed nodes came back with empty histograms, the
        // others kept theirs.
        let after = net.node_stats();
        assert_eq!(after, before, "conserved across the crashes");
        let nodes = net.shutdown();
        assert!(nodes[..8].iter().all(|n| n.stats == NodeStats::default()));
        let mut held = NodeStats::default();
        for node in &nodes[8..] {
            held.merge(&node.stats);
        }
        let retained = after.pfu_retries - held.pfu_retries;
        assert!(retained >= 7, "{retained} retries");
        let retained_samples = after.pfu_retry_age.count() - held.pfu_retry_age.count();
        assert_eq!(retained_samples, retained);
    }

    #[test]
    fn full_loss_drops_everything_and_quiesce_stays_exact() {
        let net = network(OverlayKind::Can, 16);
        net.enable_faults(9);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.inject_fault(FaultAction::SetLoss { rate: 1.0 });
        let hops_before = net.hops();
        // Query at a non-authority node: the upstream hop is dropped at
        // the sender, so the network drains instantly (quiesce must not
        // hang on a message that never entered a mailbox) and the client
        // never hears back.
        let poster = net.nodes()[9];
        let pending = net.query_detached(poster, KeyId(1)).unwrap();
        net.quiesce();
        if let Some(entries) = pending.try_take() {
            // The node could be on the authority shard answering from its
            // own cache/directory (no network hop); anything else means a
            // message survived 100% loss.
            assert!(entries.is_empty() || net.hops() == hops_before);
        }
        assert!(
            net.totals().net.faults.dropped_loss > 0,
            "the upstream query must have been dropped"
        );
        assert_eq!(net.hops(), hops_before, "dropped messages are not hops");
        net.shutdown();
    }

    #[test]
    fn nothing_outlives_a_dropped_query_handle() {
        // Under total loss the answer never comes, so no answer ever
        // claims the posted-time record; it must go with the handle.
        let net = network(OverlayKind::Can, 16);
        net.enable_faults(9);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.inject_fault(FaultAction::SetLoss { rate: 1.0 });
        let pending: Vec<_> = net
            .nodes()
            .iter()
            .map(|&node| net.query_detached(node, KeyId(1)).unwrap())
            .collect();
        net.quiesce();
        let registered = || -> usize {
            (0..net.workers())
                .map(|shard| net.shared.clients_of(shard).len())
                .sum()
        };
        assert_eq!(registered(), 16, "one record per live handle");
        assert!(
            net.totals().net.query_latency.count() < 16,
            "lost answers leave no latency sample"
        );
        drop(pending);
        assert_eq!(registered(), 0);
        net.shutdown();
    }

    #[test]
    fn a_query_at_a_crashed_node_times_out() {
        let mut net = network(OverlayKind::Can, 16);
        net.query_timeout = Duration::from_millis(50);
        net.enable_faults(5);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        let victim = net.nodes()[6];
        net.inject_fault(FaultAction::Crash {
            node: victim.index(),
        });
        net.quiesce();
        // The network's wall-mapped clock doubles as the stopwatch.
        let posted = net.now();
        let answer = net.query(victim, KeyId(1));
        let waited = net.now().saturating_since(posted);
        assert!(
            matches!(answer, Err(RuntimeError::QueryTimeout)),
            "{answer:?}"
        );
        assert!(
            (SimDuration::from_millis(50)..SimDuration::from_secs(5)).contains(&waited),
            "waited {waited:?} on a 50 ms timeout"
        );
        assert_eq!(net.totals().net.faults.queries_at_crashed, 1);
        net.shutdown();
    }

    #[test]
    fn an_answered_query_does_not_wait_out_the_timeout() {
        let mut net = network(OverlayKind::Chord, 16);
        net.query_timeout = Duration::from_secs(60);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        // Misses that need a round trip across shards and hits answered
        // inline: some answers land before the wait starts, some after.
        let started = net.now();
        for _ in 0..2 {
            for &node in net.nodes() {
                assert_eq!(net.query(node, KeyId(1)).unwrap().len(), 1);
            }
        }
        let waited = net.now().saturating_since(started);
        assert!(
            waited < SimDuration::from_secs(10),
            "32 answered queries took {waited:?}"
        );
        net.shutdown();
    }

    #[test]
    fn a_second_answer_waits_behind_the_first() {
        let net = network(OverlayKind::Can, 16);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        let pending = net.query_detached(net.nodes()[9], KeyId(1)).unwrap();
        net.quiesce();
        // A second answer for the same client, as a PFU retry's
        // first-time update would hand it, through the worker's path.
        let clients = net.shared.clients_of(pending.shard);
        assert_eq!(
            clients.answer(pending.client, Vec::new()),
            None,
            "the first answer already claimed the posted time"
        );
        assert_eq!(pending.poll().map(|e| e.len()), Some(1), "the original");
        assert_eq!(pending.poll().map(|e| e.len()), Some(0), "the retry's");
        assert!(pending.poll().is_none());
        drop(pending);
        net.shutdown();
    }

    #[test]
    fn partition_cuts_cross_group_traffic_until_heal() {
        // A response dropped at the partition boundary leaves the
        // posting node's Pending-First-Update flag set; recovery is the
        // PFU timeout retrying on the next miss. On the virtual clock
        // the paper-default 30 s timeout is stepped over *exactly* —
        // no short timeout, no wall-clock wait, no race on slow CI.
        let net = virtual_network(OverlayKind::Chord, 32, 4, 11);
        net.enable_faults(11);
        for k in 0..4 {
            net.replica_birth(KeyId(k), ReplicaId(k), SimDuration::from_secs(3600));
        }
        net.quiesce();
        net.inject_fault(FaultAction::Partition { groups: 2 });
        for node in 0..32u32 {
            let pending = net.query_detached(NodeId(node), KeyId(node % 4)).unwrap();
            net.quiesce();
            drop(pending.try_take());
        }
        let partitioned = net.totals().net.faults.dropped_partition;
        assert!(partitioned > 0, "a 2-way split must cut some query paths");
        net.inject_fault(FaultAction::Heal);
        net.quiesce();
        // Step logical time past the PFU timeout so retries fire instead
        // of coalescing against fetches the partition swallowed.
        net.advance(cup_core::PFU_TIMEOUT + SimDuration::from_secs(1));
        for node in 0..32u32 {
            let entries = net.query(NodeId(node), KeyId(node % 4)).unwrap();
            assert_eq!(entries.len(), 1, "after heal every query resolves");
        }
        assert_eq!(
            net.totals().net.faults.dropped_partition,
            partitioned,
            "healed traffic must not count as partitioned"
        );
        let nodes = net.shutdown();
        let retries: u64 = nodes.iter().map(|n| n.stats.pfu_retries).sum();
        assert!(
            retries > 0,
            "stepping past the timeout must convert stuck PFU flags into retries"
        );
    }

    #[test]
    fn virtual_clock_steps_only_at_barriers() {
        let net = virtual_network(OverlayKind::Can, 16, 4, 7);
        assert!(net.is_virtual_clock());
        assert_eq!(net.now(), SimTime::ZERO);
        net.replica_birth(KeyId(1), ReplicaId(0), SimDuration::from_secs(60));
        net.quiesce();
        assert_eq!(net.now(), SimTime::ZERO, "traffic does not move time");
        assert_eq!(net.run_until(SimTime::from_secs(5)), SimTime::from_secs(5));
        assert_eq!(
            net.advance(SimDuration::from_secs(3)),
            SimTime::from_secs(8)
        );
        // Handlers observe the logical instant: the entry cached by this
        // query expires exactly one lifetime after the birth at t = 0.
        let entries = net.query(net.nodes()[3], KeyId(1)).unwrap();
        assert_eq!(entries[0].expires_at(), SimTime::from_secs(60));
        net.shutdown();
    }

    #[test]
    fn virtual_clock_expires_entries_deterministically() {
        // Freshness on the virtual clock is exact: one step to just
        // before the lifetime edge still hits, one past it misses.
        let net = virtual_network(OverlayKind::Can, 16, 2, 13);
        net.replica_birth(KeyId(1), ReplicaId(0), SimDuration::from_secs(60));
        net.quiesce();
        // A non-authority node: the authority answers from its directory
        // and classifies no cache miss, which is not what this pins.
        let authority = net.shared.overlay.authority(KeyId(1));
        let node = net
            .nodes()
            .iter()
            .copied()
            .find(|&n| n != authority)
            .unwrap();
        assert_eq!(net.query(node, KeyId(1)).unwrap().len(), 1);
        net.run_until(SimTime::from_secs(59));
        assert_eq!(net.query(node, KeyId(1)).unwrap().len(), 1, "still fresh");
        net.run_until(SimTime::from_secs(61));
        // Expired at the cache *and* at the authority directory: the
        // refetch comes back empty.
        assert!(net.query(node, KeyId(1)).unwrap().is_empty());
        let nodes = net.shutdown();
        let freshness_misses: u64 = nodes.iter().map(|n| n.stats.freshness_misses).sum();
        assert!(freshness_misses > 0, "the second query was an expiry miss");
    }

    #[test]
    #[should_panic(expected = "wall-mapped")]
    fn advance_panics_on_the_wall_clock() {
        let net = network(OverlayKind::Can, 8);
        net.advance(SimDuration::from_secs(1));
    }

    #[test]
    fn fault_plane_is_inert_until_enabled() {
        let net = network(OverlayKind::Can, 8);
        net.replica_birth(KeyId(1), ReplicaId(0), LIFE);
        net.quiesce();
        net.query(net.nodes()[5], KeyId(1)).unwrap();
        assert_eq!(
            net.totals().net.faults,
            cup_faults::FaultCounters::default()
        );
        assert_eq!(net.dropped_messages(), 0);
        net.shutdown();
    }

    #[test]
    fn live_clock_is_monotonic() {
        let net = network(OverlayKind::Can, 8);
        net.replica_birth(KeyId(1), ReplicaId(0), SimDuration::from_secs(3600));
        net.quiesce();
        let entries = net.query(net.nodes()[1], KeyId(1)).unwrap();
        assert!(entries[0].expires_at() > SimTime::ZERO);
        net.shutdown();
    }
}
