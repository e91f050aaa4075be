//! Every call the benchmark makes into the product crates.
//!
//! No other file of the benchmark names a product type, so a later API
//! move is a change to this file alone. The benchmark is allowed to call
//! only what is used here: `AnyOverlay::build`, `Overlay::{next_hop,
//! authority}`; `EventQueue::{schedule, pop}`; `CupNode::new` and the
//! `handle_*_into` handlers; `JustificationTracker::{on_update_delivered,
//! on_query}`; `Hist::{record, merge}`; `FaultState::{new, apply, roll,
//! behavior_send, behavior_recv}`; `run_experiment` with
//! `ExperimentConfig` / `Scenario` literals and the public counters of
//! `ExperimentResult`; and, of `LiveNetwork`, `start_virtual_with_map`,
//! the three `replica_*` calls, `query`, `query_detached`, `quiesce`,
//! `advance`, `enable_faults`, `inject_fault`, `track_justification`,
//! `justification`, `enable_trace`, the counters `hops`,
//! `cross_shard_messages`, `batch_flushes`, `batched_envelopes`,
//! `dropped_messages`, `routing_failures`, and `shutdown` (whose
//! returned nodes' public `stats` are read), plus `PendingQuery::poll`.
//! These are the forms ROADMAP item 2 keeps.

use std::cell::RefCell;
use std::rc::Rc;

use cup_core::stats::NodeStats;
use cup_core::{
    Action, ClientId, CupNode, Hist, IndexEntry, JustificationTracker, Message, NodeConfig,
    ReplicaEvent, Requester, Update, UpdateKind,
};
use cup_des::{DetRng, EventQueue, KeyId, LatencyModel, NodeId, ReplicaId, SimDuration, SimTime};
use cup_faults::{FaultAction, FaultState};
use cup_overlay::{AnyOverlay, Overlay, OverlayKind};
use cup_runtime::{LiveNetwork, PendingQuery, ShardMapMode};
use cup_simnet::{run_experiment, ExperimentConfig, ExperimentResult};
use cup_workload::capacity::CapacityProfile;
use cup_workload::churn::ChurnSchedule;
use cup_workload::scenario::KeyDistribution;
use cup_workload::Scenario;

use crate::script::{DesScript, LiveScript, ZIPF_EXPONENT};

fn overlay_kind(chord: bool) -> OverlayKind {
    if chord {
        OverlayKind::Chord
    } else {
        OverlayKind::Can
    }
}

// ---------------------------------------------------------------- overlay

/// A built overlay, for the routing microbenchmarks.
pub struct Routing(AnyOverlay);

impl Routing {
    /// Builds the overlay the live runtime builds from the same seed.
    pub fn build(chord: bool, nodes: usize, seed: u64) -> Routing {
        let mut rng = DetRng::seed_from(seed);
        Routing(
            AnyOverlay::build(overlay_kind(chord), nodes, &mut rng)
                .expect("a static overlay of the benchmark's size builds"),
        )
    }

    pub fn next_hop(&self, from: u32, key: u32) -> Option<u32> {
        self.0
            .next_hop(NodeId(from), KeyId(key))
            .expect("routing on a static overlay succeeds")
            .map(|n| n.0)
    }

    pub fn authority(&self, key: u32) -> u32 {
        self.0.authority(KeyId(key)).0
    }
}

// -------------------------------------------------------------------- DES

/// One experiment configuration, built from the script's numbers.
pub struct DesConfig(ExperimentConfig);

/// Protocol handler invocations, summed over all nodes: the counts the
/// time model multiplies the handler microbenchmarks by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandlerCounts {
    pub client_queries: u64,
    pub client_hits: u64,
    pub neighbor_queries: u64,
    pub updates_received: u64,
    pub clear_bits_received: u64,
    pub cutoffs: u64,
    pub pfu_retries: u64,
}

impl HandlerCounts {
    fn of(stats: &NodeStats) -> HandlerCounts {
        HandlerCounts {
            client_queries: stats.client_queries,
            client_hits: stats.client_hits,
            neighbor_queries: stats.neighbor_queries,
            updates_received: stats.updates_received,
            clear_bits_received: stats.clear_bits_received,
            cutoffs: stats.cutoffs,
            pfu_retries: stats.pfu_retries,
        }
    }
}

/// What one experiment returned; `==` is byte-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct DesResult(ExperimentResult);

/// The simulated statistics the benchmark reads from a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesCounts {
    pub events: u64,
    pub client_responses: u64,
    pub query_hops: u64,
    pub first_time_hops: u64,
    pub refresh_hops: u64,
    pub delete_hops: u64,
    pub append_hops: u64,
    pub clear_bit_hops: u64,
    pub total_cost: u64,
    pub miss_latency: f64,
    pub dropped: u64,
    pub justified: u64,
    pub tracked: u64,
    pub handlers: HandlerCounts,
}

impl DesCounts {
    /// Update messages of all four §2.4 kinds that were delivered.
    pub fn update_hops(&self) -> u64 {
        self.first_time_hops + self.refresh_hops + self.delete_hops + self.append_hops
    }

    /// Every message that was delivered.
    pub fn hops(&self) -> u64 {
        self.query_hops + self.update_hops() + self.clear_bit_hops
    }
}

/// The `ExperimentConfig` for `script`: an explicit `Scenario` literal,
/// CUP's default node configuration (or the standard-caching baseline),
/// default WAN latency, the base 300 s replica warm-up and 30 s drain.
pub fn des_config(script: &DesScript, standard_caching: bool) -> DesConfig {
    let query_start = SimTime::from_secs(300);
    let query_end = SimTime::from_secs(300 + script.window_secs);
    let scenario = Scenario {
        nodes: script.nodes,
        keys: script.keys,
        replicas_per_key: 1,
        entry_lifetime: SimDuration::from_secs(300),
        query_rate: script.queries as f64 / script.window_secs as f64,
        query_start,
        query_end,
        sim_end: query_end + SimDuration::from_secs(700),
        key_distribution: KeyDistribution::Zipf {
            exponent: ZIPF_EXPONENT,
        },
        replica_mean_life: script.replica_mean_life_secs.map(SimDuration::from_secs),
        burst_size: script.burst_size,
        burst_spread: SimDuration::from_secs(2),
        policy_classes: Vec::new(),
        fault_plan: script.fault_plan.clone(),
        seed: script.seed,
    };
    DesConfig(ExperimentConfig {
        scenario,
        node_config: if standard_caching {
            NodeConfig::standard_caching()
        } else {
            NodeConfig::cup_default()
        },
        overlay: overlay_kind(script.chord),
        capacity_profile: CapacityProfile::Full,
        churn: ChurnSchedule::none(),
        track_justification: script.track_justification,
        latency: LatencyModel::default_wan(),
        drain: SimDuration::from_secs(30),
    })
}

pub fn des_run(config: &DesConfig) -> DesResult {
    DesResult(run_experiment(&config.0))
}

impl DesResult {
    pub fn counts(&self) -> DesCounts {
        let r = &self.0;
        DesCounts {
            events: r.events,
            client_responses: r.net.client_responses,
            query_hops: r.net.query_hops,
            first_time_hops: r.net.first_time_hops,
            refresh_hops: r.net.refresh_hops,
            delete_hops: r.net.delete_hops,
            append_hops: r.net.append_hops,
            clear_bit_hops: r.net.clear_bit_hops,
            total_cost: r.total_cost(),
            miss_latency: r.miss_latency(),
            dropped: r.dropped_messages(),
            justified: r.justified_updates,
            tracked: r.tracked_updates,
            handlers: HandlerCounts::of(&r.nodes),
        }
    }
}

// ------------------------------------------------------------------- live

/// The live runtime's public counters, read after a quiesce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCounters {
    pub hops: u64,
    pub cross_shard: u64,
    pub batch_flushes: u64,
    pub batched_envelopes: u64,
    pub dropped: u64,
    pub routing_failures: u64,
    pub justified: u64,
    pub tracked: u64,
}

/// How an answer compares with the replica the benchmark knows to be
/// the key's current one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Current,
    Empty,
    /// Names some other replica (stale, or not yet born).
    Other,
}

fn judge(entries: &[IndexEntry], current: u32) -> Answer {
    if entries.is_empty() {
        Answer::Empty
    } else if entries.iter().all(|e| e.replica == ReplicaId(current)) {
        Answer::Current
    } else {
        Answer::Other
    }
}

/// A posted query whose answer has not been claimed.
pub struct Pending<'a>(PendingQuery<'a>);

impl Pending<'_> {
    /// The answer, if one has arrived; the handle stays registered, so a
    /// later retry wave's answer can still be claimed through it.
    pub fn poll(&self, current: u32) -> Option<Answer> {
        self.0.poll().map(|entries| judge(&entries, current))
    }
}

/// A running live network on a frozen virtual clock.
pub struct Live {
    net: LiveNetwork,
    lifetime: SimDuration,
}

impl Live {
    /// Starts the network `script` describes on `workers` threads: CAN
    /// under the overlay-aware shard map, Chord under the contiguous
    /// one; the armed workload also arms the fault plane with 2 % loss
    /// and switches justification tracking on.
    pub fn start(script: &LiveScript, workers: usize) -> Live {
        let mut rng = DetRng::seed_from(script.seed);
        let map = if script.chord {
            ShardMapMode::Contiguous
        } else {
            ShardMapMode::OverlayAware
        };
        let net = LiveNetwork::start_virtual_with_map(
            overlay_kind(script.chord),
            script.nodes,
            NodeConfig::cup_default(),
            workers,
            map,
            &mut rng,
        )
        .expect("a live network of the benchmark's size starts");
        if script.armed {
            net.enable_faults(script.seed ^ 0xFA);
            net.inject_fault(FaultAction::SetLoss { rate: 0.02 });
            net.track_justification(true);
        }
        Live {
            net,
            lifetime: SimDuration::from_secs(script.lifetime_secs),
        }
    }

    pub fn replica_birth(&self, key: u32, replica: u32) {
        self.net
            .replica_birth(KeyId(key), ReplicaId(replica), self.lifetime);
    }

    pub fn replica_refresh(&self, key: u32, replica: u32) {
        self.net
            .replica_refresh(KeyId(key), ReplicaId(replica), self.lifetime);
    }

    pub fn replica_deletion(&self, key: u32, replica: u32) {
        self.net.replica_deletion(KeyId(key), ReplicaId(replica));
    }

    /// Posts a query without waiting for its answer.
    pub fn post(&self, node: u32, key: u32) -> Pending<'_> {
        Pending(
            self.net
                .query_detached(NodeId(node), KeyId(key))
                .expect("script nodes are in range"),
        )
    }

    /// Posts a query and blocks for its answer; `None` if none came
    /// within the runtime's query timeout.
    pub fn query(&self, node: u32, key: u32, current: u32) -> Option<Answer> {
        self.net
            .query(NodeId(node), KeyId(key))
            .ok()
            .map(|entries| judge(&entries, current))
    }

    pub fn quiesce(&self) {
        self.net.quiesce();
    }

    pub fn advance(&self, secs: u64) {
        self.net.advance(SimDuration::from_secs(secs));
    }

    /// Switches the runtime's own event-trace ring on.
    pub fn enable_trace(&self, cap: usize) {
        self.net.enable_trace(cap);
    }

    pub fn counters(&self) -> LiveCounters {
        let (justified, tracked) = self.net.justification();
        LiveCounters {
            hops: self.net.hops(),
            cross_shard: self.net.cross_shard_messages(),
            batch_flushes: self.net.batch_flushes(),
            batched_envelopes: self.net.batched_envelopes(),
            dropped: self.net.dropped_messages(),
            routing_failures: self.net.routing_failures(),
            justified,
            tracked,
        }
    }

    /// Stops the pool and sums the nodes' handler counters.
    pub fn shutdown(self) -> HandlerCounts {
        let mut total = NodeStats::default();
        for node in self.net.shutdown() {
            total.merge(&node.stats);
        }
        HandlerCounts::of(&total)
    }
}

// ------------------------------------------------------- microbenchmarks

/// One layer microbenchmark: `prepare` (untimed) puts the state where
/// `run` expects it, `run` (timed) performs a batch of operations and
/// returns how many.
pub struct Fixture {
    pub name: &'static str,
    pub prepare: Box<dyn FnMut()>,
    pub run: Box<dyn FnMut() -> u64>,
}

impl Fixture {
    fn stateless(name: &'static str, run: impl FnMut() -> u64 + 'static) -> Fixture {
        Fixture {
            name,
            prepare: Box::new(|| {}),
            run: Box::new(run),
        }
    }

    /// A fixture whose two halves share `state`.
    fn shared<S: 'static>(
        name: &'static str,
        state: S,
        mut prepare: impl FnMut(&mut S) + 'static,
        mut run: impl FnMut(&mut S) -> u64 + 'static,
    ) -> Fixture {
        let state = Rc::new(RefCell::new(state));
        let state2 = Rc::clone(&state);
        Fixture {
            name,
            prepare: Box::new(move || prepare(&mut state.borrow_mut())),
            run: Box::new(move || run(&mut state2.borrow_mut())),
        }
    }
}

/// Follows `next_hop` from each pair's node to its key's authority;
/// returns the `next_hop` calls made (hops plus one terminal call each).
pub fn walk_routes(routing: &Routing, pairs: &[(u32, u32)]) -> u64 {
    let mut calls = 0;
    for &(node, key) in pairs {
        let mut at = node;
        loop {
            calls += 1;
            match routing.next_hop(at, key) {
                Some(next) => at = next,
                None => break,
            }
        }
    }
    calls
}

pub fn overlay_fixtures(
    can: Rc<Routing>,
    chord: Rc<Routing>,
    pairs: Rc<Vec<(u32, u32)>>,
) -> Vec<Fixture> {
    let (p1, p2, p3) = (Rc::clone(&pairs), Rc::clone(&pairs), pairs);
    let authority_of = Rc::clone(&can);
    vec![
        Fixture::stateless("overlay.can_next_hop", move || walk_routes(&can, &p1)),
        Fixture::stateless("overlay.chord_next_hop", move || walk_routes(&chord, &p2)),
        Fixture::stateless("overlay.authority", move || {
            let mut sum = 0u64;
            for &(_, key) in p3.iter() {
                sum += u64::from(authority_of.authority(key));
            }
            std::hint::black_box(sum);
            p3.len() as u64
        }),
    ]
}

/// Pending depth of the queue microbenchmark: about what a 10k-node run
/// at the DES workloads' query rate keeps in flight (messages one 50 ms
/// WAN hop from delivery, plus the replica and query timers).
const QUEUE_DEPTH: u64 = 512;

pub fn queue_fixture() -> Fixture {
    let hop = SimDuration::from_millis(50);
    let mut queue = EventQueue::new();
    for i in 0..QUEUE_DEPTH {
        queue.schedule(SimTime::from_micros(i * 97), i);
    }
    Fixture::stateless("des.queue_pair", move || {
        const BATCH: u64 = 4096;
        for _ in 0..BATCH {
            let (at, payload) = queue.pop().expect("the queue never drains");
            queue.schedule(at + hop, payload);
        }
        BATCH
    })
}

const LIFE: SimDuration = SimDuration::from_secs(300);
const UPSTREAM: NodeId = NodeId(9_001);

fn entry(key: u32, at: SimTime) -> IndexEntry {
    IndexEntry::new(KeyId(key), ReplicaId(0), LIFE, at)
}

fn update(key: u32, kind: UpdateKind, at: SimTime) -> Update {
    let e = entry(key, at);
    Update {
        key: KeyId(key),
        kind,
        entries: vec![e],
        replica: ReplicaId(0),
        depth: 3,
        origin: at,
        window_end: if kind == UpdateKind::FirstTime {
            SimTime::MAX
        } else {
            e.expires_at()
        },
    }
}

/// A node under a handler microbenchmark, with the reused action buffer
/// and a clock that only moves forward.
struct Bench {
    node: CupNode,
    out: Vec<Action>,
    keys: u32,
    now: SimTime,
}

impl Bench {
    fn new(keys: u32) -> Bench {
        Bench {
            node: CupNode::new(NodeId(1), NodeConfig::cup_default()),
            out: Vec::new(),
            keys,
            now: SimTime::from_secs(1),
        }
    }

    fn reset(&mut self) {
        self.node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    }

    /// Posts one query per key from `from(key)` and discards the actions.
    fn query_all(&mut self, from: impl Fn(u32) -> Requester, upstream: Option<NodeId>) -> u64 {
        for key in 0..self.keys {
            self.node
                .handle_query_into(self.now, KeyId(key), from(key), upstream, &mut self.out);
            self.out.clear();
        }
        u64::from(self.keys)
    }

    /// Delivers one update of `kind` per key, stamped now.
    fn update_all(&mut self, kind: UpdateKind) -> u64 {
        for key in 0..self.keys {
            let u = update(key, kind, self.now);
            self.node
                .handle_update_into(self.now, UPSTREAM, u, &mut self.out);
            self.out.clear();
        }
        u64::from(self.keys)
    }

    /// Caches every key with `fan_out` interested neighbors (0: a client
    /// asked), by the protocol's own path: miss, then first-time update.
    fn cache_all(&mut self, fan_out: u32) {
        if fan_out == 0 {
            self.query_all(
                |k| Requester::Client(ClientId(u64::from(k))),
                Some(UPSTREAM),
            );
        }
        for n in 0..fan_out {
            self.query_all(|_| Requester::Neighbor(NodeId(100 + n)), Some(UPSTREAM));
        }
        self.update_all(UpdateKind::FirstTime);
    }

    fn tick(&mut self) {
        self.now += SimDuration::from_secs(1);
    }
}

/// A node that caches `keys` keys, for the bytes-per-key measurement.
pub fn cached_node(keys: u32) -> impl Sized {
    let mut b = Bench::new(keys);
    b.cache_all(0);
    b.node
}

/// The handler microbenchmarks, all through the `handle_*_into` forms
/// with one reused buffer, `keys` operations a batch.
pub fn handler_fixtures(keys: u32) -> Vec<Fixture> {
    let client = |k: u32| Requester::Client(ClientId(u64::from(k)));
    let neighbor = |_| Requester::Neighbor(NodeId(100));
    vec![
        Fixture::shared(
            "core.query_hit",
            {
                let mut b = Bench::new(keys);
                b.cache_all(0);
                b
            },
            |_| {},
            move |b| b.query_all(client, Some(UPSTREAM)),
        ),
        Fixture::shared(
            "core.query_miss",
            Bench::new(keys),
            Bench::reset,
            move |b| b.query_all(neighbor, Some(UPSTREAM)),
        ),
        Fixture::shared(
            "core.update_first_time",
            Bench::new(keys),
            move |b| {
                b.reset();
                b.query_all(neighbor, Some(UPSTREAM));
            },
            |b| b.update_all(UpdateKind::FirstTime),
        ),
        Fixture::shared(
            "core.update_refresh_forward",
            {
                let mut b = Bench::new(keys);
                b.cache_all(4);
                b
            },
            Bench::tick,
            |b| b.update_all(UpdateKind::Refresh),
        ),
        // No neighbor is interested and no query arrives between
        // refreshes, so every refresh is a cut-off decision point.
        Fixture::shared(
            "core.update_refresh_cutoff",
            {
                let mut b = Bench::new(keys);
                b.cache_all(0);
                b
            },
            Bench::tick,
            |b| b.update_all(UpdateKind::Refresh),
        ),
        Fixture::shared(
            "core.update_delete",
            Bench::new(keys),
            |b| {
                b.reset();
                b.cache_all(1);
            },
            |b| b.update_all(UpdateKind::Delete),
        ),
        Fixture::shared(
            "core.clear_bit",
            Bench::new(keys),
            |b| {
                b.reset();
                b.cache_all(1);
            },
            |b| {
                for key in 0..b.keys {
                    b.node.handle_clear_bit_into(
                        b.now,
                        KeyId(key),
                        NodeId(100),
                        Some(UPSTREAM),
                        &mut b.out,
                    );
                    b.out.clear();
                }
                u64::from(b.keys)
            },
        ),
        // The node is the authority: two neighbors asked for every key,
        // so each refresh event is a directory write and two sends.
        Fixture::shared(
            "core.replica_event",
            {
                let mut b = Bench::new(keys);
                for key in 0..keys {
                    let birth = ReplicaEvent::Birth {
                        key: KeyId(key),
                        replica: ReplicaId(0),
                        lifetime: LIFE,
                    };
                    b.node.handle_replica_event_into(b.now, birth, &mut b.out);
                    b.out.clear();
                }
                for n in 0..2 {
                    b.query_all(|_| Requester::Neighbor(NodeId(100 + n)), None);
                }
                b
            },
            Bench::tick,
            |b| {
                for key in 0..b.keys {
                    let refresh = ReplicaEvent::Refresh {
                        key: KeyId(key),
                        replica: ReplicaId(0),
                        lifetime: LIFE,
                    };
                    b.node.handle_replica_event_into(b.now, refresh, &mut b.out);
                    b.out.clear();
                }
                u64::from(b.keys)
            },
        ),
    ]
}

/// Justification and histogram microbenchmarks over the script's own
/// (node, key) population.
pub fn justify_obs_fixtures(pairs: Rc<Vec<(u32, u32)>>) -> Vec<Fixture> {
    struct Tracker {
        tracker: JustificationTracker,
        now: SimTime,
    }
    let fresh = || Tracker {
        tracker: JustificationTracker::new(),
        now: SimTime::from_secs(1),
    };
    let open_windows = |t: &mut Tracker, pairs: &[(u32, u32)]| {
        t.now += SimDuration::from_secs(1);
        for &(node, key) in pairs {
            t.tracker
                .on_update_delivered(NodeId(node), KeyId(key), t.now, t.now + LIFE);
        }
        pairs.len() as u64
    };
    // Query paths of eight nodes: the pair's node and the seven after it
    // in the script share the pair's key.
    let paths: Rc<Vec<(u32, [NodeId; 8])>> = Rc::new(
        pairs
            .chunks_exact(8)
            .map(|w| (w[0].1, std::array::from_fn(|i| NodeId(w[i].0))))
            .collect(),
    );
    let paths2 = Rc::clone(&paths);
    let mut samples = crate::script::Rng::new(7);
    let mut other = Hist::new();
    for _ in 0..4096 {
        other.record(samples.next_u64() % 2_000_000);
    }
    vec![
        Fixture::shared(
            "core.justify_update",
            fresh(),
            |_| {},
            move |t| open_windows(t, &pairs),
        ),
        Fixture::shared(
            "core.justify_query",
            fresh(),
            // Each path node gets an open window on the path's key.
            move |t| {
                t.now += SimDuration::from_secs(1);
                for (key, path) in paths.iter() {
                    for &node in path {
                        t.tracker
                            .on_update_delivered(node, KeyId(*key), t.now, t.now + LIFE);
                    }
                }
            },
            move |t| {
                for (key, path) in paths2.iter() {
                    t.tracker.on_query(KeyId(*key), t.now, path);
                }
                paths2.len() as u64
            },
        ),
        Fixture::shared(
            "core.hist_record",
            Hist::new(),
            |_| {},
            move |h| {
                for _ in 0..4096 {
                    h.record(samples.next_u64() % 2_000_000);
                }
                4096
            },
        ),
        Fixture::shared(
            "core.hist_merge",
            Hist::new(),
            |_| {},
            move |h| {
                for _ in 0..256 {
                    h.merge(&other);
                }
                256
            },
        ),
    ]
}

/// Fault-plane microbenchmarks over the links the script's queries use
/// (each pair's node and its next hop toward the key).
pub fn fault_fixtures(routing: &Routing, pairs: &[(u32, u32)]) -> Vec<Fixture> {
    let links: Rc<Vec<(NodeId, NodeId)>> = Rc::new(
        pairs
            .iter()
            .filter_map(|&(node, key)| Some((NodeId(node), NodeId(routing.next_hop(node, key)?))))
            .collect(),
    );
    let lossy = || {
        let mut plane = FaultState::new(0xFA);
        plane.apply(FaultAction::SetLoss { rate: 0.02 });
        plane
    };
    let roll_all = |plane: &mut FaultState, links: &[(NodeId, NodeId)]| {
        let mut delivered = 0u64;
        for &(from, to) in links {
            delivered += u64::from(plane.roll(from, to) == cup_faults::DropVerdict::Deliver);
        }
        std::hint::black_box(delivered);
        links.len() as u64
    };
    let (l1, l2, l3) = (Rc::clone(&links), Rc::clone(&links), links);
    vec![
        Fixture::shared(
            "faults.roll_loss",
            lossy(),
            |_| {},
            move |plane| roll_all(plane, &l1),
        ),
        // Loss is on but no node misbehaves: what every armed send and
        // delivery pays for the two behavior gates.
        Fixture::shared(
            "faults.behavior_gate",
            lossy(),
            |_| {},
            move |plane| {
                let mut msg = Message::Query { key: KeyId(1) };
                let mut passed = 0u64;
                for &(from, to) in l2.iter() {
                    // The gate is one comparison; without the fence the
                    // compiler hoists it out of the loop and times nothing.
                    let plane = std::hint::black_box(&mut *plane);
                    passed += u64::from(plane.behavior_send(from, &mut msg));
                    passed += u64::from(plane.behavior_recv(to, &msg));
                }
                std::hint::black_box(passed);
                l2.len() as u64
            },
        ),
        Fixture::shared(
            "faults.roll_idle",
            FaultState::new(0xFA),
            |_| {},
            move |plane| roll_all(plane, &l3),
        ),
    ]
}
