//! The sim-vs-live conformance harness: one script, two drivers, one
//! truth.
//!
//! A [`ConformanceSpec`] expands into one script, a time-sorted list of
//! `(instant, `[`Step`]`)` pairs ([`ConformanceSpec::script`]): replica
//! births, serialized phase-A queries, refresh rounds, a deletion,
//! phase-B queries, and the fault actions of the spec's [`Faults`]. Two
//! short drivers walk it over the *same* topology: [`run_sim`] schedules
//! every step in the DES, [`run_live`] applies every step on the worker
//! pool between quiesce barriers. Each returns a comparable [`Outcome`].
//!
//! Each step has an instant of its own, a drained network before it in
//! both runtimes, and the same logical time: the live pool runs on a
//! **virtual clock** stepped through the script's instants, and the DES
//! runs at zero per-hop latency. So the comparison is exact, not
//! statistical, and it covers *time-compared* behavior too: the
//! paper-default 30 s `pfu_timeout` and `@t=` window edges. The refresh
//! rounds generate the maintenance updates the shared §3.1
//! [`cup::protocol::justify::JustificationTracker`] measures, so the
//! comparison covers the economics as well as the caching behaviour.

use std::collections::HashSet;

use cup::des::LatencyModel;
use cup::faults::{FaultEvent, NetMetrics, Plane, Totals};
use cup::prelude::*;
use cup::protocol::stats::NodeStats;
use cup::simnet::{Ev, Network};
use cup::workload::replica::{ReplicaAction, ReplicaActionKind, ReplicaPlan};

/// The key whose replica the script deletes between phases A and B.
pub const DELETED_KEY: u32 = 1;

/// Entry lifetime: far beyond both runtimes' horizons, so freshness
/// expiry and refresh traffic never enter the picture.
pub const LIFETIME: SimDuration = SimDuration::from_secs(1_000_000);

/// The logical second of the first phase-A query (births run at
/// `1 + k` before it).
const PHASE_A_SECS: u64 = 100;

/// The settle gap between the step after the last scripted query and
/// the probe instant: late answers and pending window edges land in it.
const SETTLE_SECS: u64 = 100;

/// One drawn query: the querying node's dense index and the key.
type Draw = (usize, u32);

/// One scripted step. Key `k` is `KeyId(k)`, served by `ReplicaId(k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Replica `k` is born and announced to its key's authority.
    Birth(u32),
    /// A client query, posted at the node with dense index `node`.
    Query {
        /// Dense index of the querying node.
        node: usize,
        /// The queried key.
        key: u32,
    },
    /// Replica `k` renews its index entry.
    Refresh(u32),
    /// Replica `k` is withdrawn.
    Delete(u32),
    /// One change to both runtimes' fault planes.
    Fault(FaultAction),
}

/// The fault surface a spec arms. Any surface but [`Faults::None`] arms
/// both runtimes' `cup-faults` planes with the spec's `fault_seed`;
/// queries then may legitimately go unanswered, so the live driver
/// claims answers without asserting payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Faults {
    /// Fault-free: every query is answered with its scripted payload.
    None,
    /// The standard script: a lossy phase, a warm node crashing and
    /// restarting at one instant (then querying again), a crash/restart
    /// cycle, and a 2-way partition, all inside phase A.
    Scripted,
    /// Timed windows: a loss window, a latency-spike window, and a
    /// crash/restart window at absolute logical times inside phase A.
    Timed,
    /// The [`ByzantineCast`], installed at `t = 0`, with every phase-B
    /// probe of the deleted key aimed at the cast's witness.
    Byzantine,
}

/// One sim-vs-live conformance scenario.
#[derive(Debug, Clone, Copy)]
pub struct ConformanceSpec {
    /// The overlay substrate both runtimes build (same seed).
    pub kind: OverlayKind,
    /// Overlay population.
    pub nodes: usize,
    /// Keys `0..keys`, one replica each (`ReplicaId(k)` serves
    /// `KeyId(k)`). Must exceed [`DELETED_KEY`].
    pub keys: u32,
    /// Queries in the pre-deletion phase.
    pub phase_a_queries: usize,
    /// Serialized replica-refresh rounds between phase A and the
    /// deletion, one refresh per surviving key per round. These generate
    /// the maintenance updates the justification accounting tracks (and
    /// give cut-off policies something to decide about). The deleted
    /// key's tree is left unrefreshed so the deletion still reaches every
    /// cache.
    pub refresh_rounds: u32,
    /// Node configuration both runtimes run (policy economics scripts
    /// override the default second-chance CUP).
    pub config: NodeConfig,
    /// Topology build seed shared by both runtimes.
    pub topology_seed: u64,
    /// Seed of the query script.
    pub script_seed: u64,
    /// Sim seconds between scripted events. Must exceed the WAN drain
    /// time of one query cascade (path hops × latency, both ways) so
    /// consecutive queries never overlap inside the DES.
    pub step_secs: u64,
    /// Worker threads for the live side (explicit, so sharding is
    /// exercised even on single-core CI runners).
    pub workers: usize,
    /// Node→shard placement mode for the live side. Conformance must
    /// hold under every mode — placement is a performance knob, not a
    /// semantic one.
    pub shard_map: ShardMapMode,
    /// The fault surface both runtimes run (see [`Faults`]).
    pub faults: Faults,
    /// Seed both runtimes' fault planes share.
    pub fault_seed: u64,
}

/// The scripted Byzantine cast, computed from the overlay and the
/// phase-A query draw (see [`ConformanceSpec::byzantine_cast`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineCast {
    /// An honest node that cached the deleted key in phase A and whose
    /// only upstream toward its authority is the stale server — the
    /// deletion dies there, so this node serves poisoned answers in
    /// phase B until its audit repairs it.
    pub witness: usize,
    /// The `stale-serve` attacker: swallows the deletion (and any audit
    /// repairs aimed at itself) while serving its stale entry forever.
    pub stale_server: usize,
    /// The `drop-updates` attacker: an interior node of a surviving
    /// key's interest tree that silently swallows the maintenance
    /// updates it should forward.
    pub update_dropper: usize,
    /// The `lie-refresh` attacker: forwards the deletion as a refresh,
    /// resurrecting the dead replica downstream.
    pub refresh_liar: usize,
}

impl ConformanceSpec {
    /// The small exact-script scenario (a couple dozen nodes).
    pub fn small(kind: OverlayKind) -> Self {
        ConformanceSpec {
            kind,
            nodes: 24,
            keys: 3,
            phase_a_queries: 20,
            refresh_rounds: 2,
            config: NodeConfig::cup_default(),
            topology_seed: 11,
            script_seed: 99,
            step_secs: 10,
            workers: 3,
            shard_map: ShardMapMode::Contiguous,
            faults: Faults::None,
            fault_seed: 0,
        }
    }

    /// The at-scale scenario: ≥2k live nodes on a small worker pool.
    pub fn large(kind: OverlayKind) -> Self {
        ConformanceSpec {
            nodes: 2_048,
            keys: 4,
            phase_a_queries: 30,
            topology_seed: 17,
            script_seed: 23,
            // CAN paths at 2k nodes can run to ~100 hops; at 50 ms per
            // hop each way a cascade still drains well inside 30 s.
            step_secs: 30,
            workers: 4,
            ..ConformanceSpec::small(kind)
        }
    }

    /// The small scenario with the standard fault script armed (see
    /// [`Faults::Scripted`]); refresh rounds, the deletion, and phase B
    /// then run fault-free on whatever state the faults left behind.
    ///
    /// Runs the paper-default 30 s `pfu_timeout`: on the virtual clock
    /// both runtimes compare the same logical elapsed times, so the
    /// retry counter is part of the byte-identical comparison (phase-A
    /// losses strand Pending-First-Update flags; later queries past the
    /// timeout retry instead of coalescing forever).
    pub fn faulty(kind: OverlayKind) -> Self {
        ConformanceSpec {
            faults: Faults::Scripted,
            fault_seed: 0xFA_17,
            ..ConformanceSpec::small(kind)
        }
    }

    /// The small scenario with the timed-window fault script armed (see
    /// [`Faults::Timed`]); the latency spike is pure fault-epoch noise
    /// at the conformance latency (see [`run_sim`]).
    pub fn timed(kind: OverlayKind) -> Self {
        ConformanceSpec {
            faults: Faults::Timed,
            fault_seed: 0x71_3D,
            ..ConformanceSpec::small(kind)
        }
    }

    /// The small scenario with the Byzantine cast armed and the sampled
    /// cache audit switched on: `stale-serve` parks a liar on the
    /// deletion path upstream of an honest witness, `drop-updates` and
    /// `lie-refresh` corrupt the maintenance plane, and every phase-B
    /// probe of the deleted key lands on the witness — so the
    /// poisoned-answer, audit, and repair counters all take non-trivial
    /// values that must agree byte-for-byte across runtimes.
    ///
    /// The audit samples 8 of the population every 5 logical seconds per
    /// key per node; phase-B probes arrive every `step_secs` (10 s), so
    /// each probe at the witness opens a fresh audit round.
    pub fn byzantine(kind: OverlayKind) -> Self {
        let base = ConformanceSpec::small(kind);
        ConformanceSpec {
            faults: Faults::Byzantine,
            fault_seed: 0xB1_2A,
            config: base.config.with_audit(AuditConfig::sampled(
                SimDuration::from_secs(5),
                base.nodes as u32,
                0xC0DE_A0D1,
            )),
            ..base
        }
    }

    /// The overlay both runtimes build, and its key authorities' dense
    /// indices (a set, so scans stay O(nodes + keys) at the 2048-node
    /// tier).
    fn overlay(&self) -> (AnyOverlay, HashSet<usize>) {
        let mut topo_rng = DetRng::seed_from(self.topology_seed);
        let overlay = AnyOverlay::build(self.kind, self.nodes, &mut topo_rng);
        let overlay = overlay.expect("the spec's overlay builds");
        let authorities = (0..self.keys)
            .map(|k| overlay.authority(KeyId(k)).index())
            .collect();
        (overlay, authorities)
    }

    /// The seeded query draw, `(node, key)` per query: phase A, then
    /// phase B — three probes of the deleted key, then each surviving
    /// key once more.
    fn draw(&self) -> (Vec<Draw>, Vec<Draw>) {
        let mut rng = DetRng::seed_from(self.script_seed);
        let phase_a = (0..self.phase_a_queries)
            .map(|_| {
                let node = rng.choose_index(self.nodes);
                (node, rng.next_below(u64::from(self.keys)) as u32)
            })
            .collect();
        let phase_b = [DELETED_KEY; 3]
            .into_iter()
            .chain((0..self.keys).filter(|&k| k != DELETED_KEY))
            .map(|k| (rng.choose_index(self.nodes), k))
            .collect();
        (phase_a, phase_b)
    }

    /// The scripted Byzantine cast, derived from the overlay and the
    /// phase-A draw so the attack provably bites: the witness is the
    /// *first* phase-A querier of the deleted key (so its interest-tree
    /// parent toward the authority is exactly its overlay next hop), and
    /// the stale server is that parent — the deletion's only path to the
    /// witness runs through the liar. The other two attackers sit on
    /// maintenance paths: the update-dropper is a surviving-key querier's
    /// parent (refresh forwards die there), the refresh-liar another
    /// deleted-key querier's parent (a deletion reaching it leaves as a
    /// refresh). All picks avoid every key authority so the scripted
    /// replica traffic keeps its meaning. `None` unless the spec runs
    /// [`Faults::Byzantine`].
    pub fn byzantine_cast(&self) -> Option<ByzantineCast> {
        (self.faults == Faults::Byzantine).then(|| self.cast(&self.overlay(), &self.draw().0))
    }

    fn cast(&self, overlay: &(AnyOverlay, HashSet<usize>), phase_a: &[Draw]) -> ByzantineCast {
        let (overlay, authorities) = overlay;
        let hop_of = |n: usize, k: u32| -> Option<usize> {
            overlay
                .next_hop(NodeId(n as u32), KeyId(k))
                .ok()
                .flatten()
                .map(NodeId::index)
        };
        let (witness, stale_server) = phase_a
            .iter()
            .filter(|&&(n, k)| k == DELETED_KEY && !authorities.contains(&n))
            .find_map(|&(n, _)| {
                let v = hop_of(n, DELETED_KEY)?;
                (!authorities.contains(&v)).then_some((n, v))
            })
            .expect("a deleted-key querier with a non-authority parent exists");
        let taken = |picked: &[usize], c: usize| picked.contains(&c) || authorities.contains(&c);
        let update_dropper = phase_a
            .iter()
            .filter(|&&(_, k)| k != DELETED_KEY)
            .find_map(|&(n, k)| {
                let w = hop_of(n, k)?;
                (!taken(&[witness, stale_server], w)).then_some(w)
            })
            .expect("a surviving-key querier with a free parent exists");
        let picked = [witness, stale_server, update_dropper];
        let refresh_liar = phase_a
            .iter()
            .filter(|&&(n, k)| k == DELETED_KEY && n != witness)
            .find_map(|&(n, _)| {
                let x = hop_of(n, DELETED_KEY)?;
                (!taken(&picked, x)).then_some(x)
            })
            // No second suitable parent: any free non-authority works
            // (the lie then simply never triggers — identically in both
            // runtimes).
            .unwrap_or_else(|| {
                (0..self.nodes)
                    .find(|&c| !taken(&picked, c))
                    .expect("a free non-authority node exists")
            });
        ByzantineCast {
            witness,
            stale_server,
            update_dropper,
            refresh_liar,
        }
    }

    /// The scenario as data: every step both drivers take, sorted by
    /// instant. Births run at `t = 1 + k`; from `t = 100` on, one
    /// step every `step_secs`: phase A's queries, the refresh rounds
    /// (surviving keys only, so the deleted key's interest tree stays
    /// intact and the deletion reaches every cache), the deletion, and
    /// phase B's queries. Fault steps come from the standard spec
    /// strings via [`FaultPlan::parse_specs`]: the scripted and timed
    /// surfaces' window edges land mid-gap between two phase-A queries —
    /// the network is drained there in both runtimes, so each edge
    /// applies to the same quiescent state at the same logical instant —
    /// and the Byzantine cast's unwindowed behaviors install at `t = 0`.
    /// The scripted surface's bounce, a crash and a restart sharing one
    /// mid-gap instant, is the only other pair of steps sharing one.
    pub fn script(&self) -> Vec<(SimTime, Step)> {
        let (mut phase_a, mut phase_b) = self.draw();
        let s = self.step_secs;
        // The mid-gap instant before phase-A query `pos`.
        let mid = |pos: usize| PHASE_A_SECS + pos as u64 * s - s / 2;
        let overlay = self.overlay();
        // A crash victim that is no key's authority, so the scripted
        // replica traffic keeps its meaning while the victim is down.
        let victim = (0..self.nodes).find(|i| !overlay.1.contains(i));
        let victim = victim.expect("a non-authority node exists");
        let n = self.phase_a_queries;
        let windowed = matches!(self.faults, Faults::Scripted | Faults::Timed);
        assert!(
            !windowed || n >= 20,
            "fault windows need ≥ 20 phase-A steps"
        );
        let specs = match self.faults {
            Faults::None => Vec::new(),
            Faults::Scripted => vec![
                format!("drop:0.25@t={}..{}", mid(2), mid(8)),
                format!("crash:{victim}@t={}..{}", mid(10), mid(14)),
                format!("partition:2@t={}..{}", mid(16), mid(n - 1)),
            ],
            Faults::Timed => vec![
                format!("drop:0.35@t={}..{}", mid(2), mid(8)),
                format!("spike:3@t={}..{}", mid(4), mid(10)),
                format!("crash:{victim}@t={}..{}", mid(11), mid(15)),
            ],
            Faults::Byzantine => {
                let cast = self.cast(&overlay, &phase_a);
                // Every probe then crosses poisoned state, and each one —
                // arriving a step past the 5 s audit interval — opens a
                // fresh audit round at the witness.
                for q in phase_b.iter_mut().filter(|q| q.1 == DELETED_KEY) {
                    q.0 = cast.witness;
                }
                vec![
                    format!("stale-serve:{}", cast.stale_server),
                    format!("drop-updates:{}", cast.update_dropper),
                    format!("lie-refresh:{}", cast.refresh_liar),
                ]
            }
        };
        let plan = FaultPlan::parse_specs(&specs).expect("the built-in specs parse");
        let mut faults: Vec<_> = (plan.events().iter())
            .map(|ev| (ev.at, Step::Fault(ev.action)))
            .collect();
        if self.faults == Faults::Scripted {
            // No spec string crashes and restarts a node at one instant:
            // the bounce is scripted directly, after the lossy phase, at
            // the last phase-A querier before it that owns no key — which
            // then asks for the same key again, cold.
            let (warm, key) = *(phase_a[..9].iter().rev())
                .find(|q| !overlay.1.contains(&q.0))
                .expect("a non-authority querier exists");
            let at = SimTime::from_secs(mid(9));
            let bounce = [
                FaultAction::Crash { node: warm },
                FaultAction::Restart { node: warm },
            ];
            faults.extend(bounce.map(|action| (at, Step::Fault(action))));
            phase_a[9] = (warm, key);
        }
        let births = (0..self.keys).map(|k| (SimTime::from_secs(1 + u64::from(k)), Step::Birth(k)));
        let query = |&(node, key): &Draw| Step::Query { node, key };
        let surviving: Vec<u32> = (0..self.keys).filter(|&k| k != DELETED_KEY).collect();
        let refreshes =
            (0..self.refresh_rounds).flat_map(|_| surviving.iter().map(|&k| Step::Refresh(k)));
        let serialized = (phase_a.iter().map(query))
            .chain(refreshes)
            .chain([Step::Delete(DELETED_KEY)])
            .chain(phase_b.iter().map(query))
            .enumerate()
            .map(|(i, step)| (SimTime::from_secs(PHASE_A_SECS + i as u64 * s), step));
        let mut script: Vec<_> = faults.into_iter().chain(births).chain(serialized).collect();
        // Stable: the Byzantine installs keep their spec order at t = 0,
        // the bounce its crash before its restart.
        script.sort_by_key(|&(at, _)| at);
        script
    }

    /// The probe instant both drivers run their clocks to before reading
    /// the outcome: the settle gap past the step after the script's last.
    fn end(&self, script: &[(SimTime, Step)]) -> SimTime {
        let last = script.last().map_or(SimTime::ZERO, |&(at, _)| at);
        last + SimDuration::from_secs(self.step_secs + SETTLE_SECS)
    }

    /// Total scripted queries across both phases.
    pub fn total_queries(&self) -> u64 {
        let script = self.script();
        let queries = script
            .iter()
            .filter(|(_, step)| matches!(step, Step::Query { .. }));
        queries.count() as u64
    }
}

/// What one runtime run produced, in comparable form.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    /// Aggregated per-node protocol counters (including counters
    /// retained from crashed nodes).
    pub stats: NodeStats,
    /// Per key: sorted node ids holding a fresh cached entry at quiesce.
    pub cached_by: Vec<Vec<NodeId>>,
    /// The delivery kernel's merged metrics, whole: hops by kind (a
    /// message vetoed at send time counts in none, one in flight when
    /// its receiver crashed is charged), client responses, routing
    /// failures, the fault plane's breakdown, poisoned (stale) answers
    /// and the latency/staleness histograms — degenerate at the
    /// conformance latency (every latency sample is 0), but their
    /// *counts* and byte-exact `Eq` are part of the comparison.
    pub net: NetMetrics,
    /// §3.1 justified maintenance updates.
    pub justified: u64,
    /// Maintenance updates tracked (the justification denominator).
    pub tracked: u64,
}

impl Outcome {
    /// Fraction of tracked updates justified.
    pub fn justified_ratio(&self) -> f64 {
        if self.tracked == 0 {
            0.0
        } else {
            self.justified as f64 / self.tracked as f64
        }
    }
}

/// Collects the comparable outcome from the network-wide node counters
/// (crash-wiped ones included), the final per-node states, and the fold
/// of the runtime's delivery planes.
pub fn outcome_of<'a>(
    stats: NodeStats,
    nodes: impl Iterator<Item = &'a CupNode>,
    keys: u32,
    probe_time: SimTime,
    totals: Totals,
) -> Outcome {
    let mut cached_by: Vec<Vec<NodeId>> = (0..keys).map(|_| Vec::new()).collect();
    for node in nodes {
        for k in 0..keys {
            let cached = node
                .key_state(KeyId(k))
                .is_some_and(|st| st.has_fresh(probe_time));
            if cached {
                cached_by[k as usize].push(node.id());
            }
        }
    }
    for ids in &mut cached_by {
        ids.sort_unstable();
    }
    Outcome {
        stats,
        cached_by,
        net: totals.net,
        justified: totals.justified,
        tracked: totals.tracked,
    }
}

/// Walks the script through the DES (the number of client responses
/// delivered is the outcome's `net.client_responses`).
///
/// # Panics
///
/// Panics if the overlay cannot be built for the spec.
pub fn run_sim(spec: &ConformanceSpec) -> Outcome {
    run_sim_inner(spec, None).0
}

/// [`run_sim`] with structured event tracing on (a ring buffer of
/// `trace_cap` events). Compare against a live trace via
/// `TraceBuf::sorted` / `cup::prelude::trace_diff`.
pub fn run_sim_traced(spec: &ConformanceSpec, trace_cap: usize) -> (Outcome, TraceBuf) {
    let (outcome, trace) = run_sim_inner(spec, Some(trace_cap));
    (outcome, trace.expect("tracing was enabled"))
}

fn run_sim_inner(spec: &ConformanceSpec, trace_cap: Option<usize>) -> (Outcome, Option<TraceBuf>) {
    // Zero per-hop latency: every handler in a cascade observes the
    // cascade's scheduled instant, the one the live side realizes at its
    // quiesce barriers, so time-compared behavior agrees byte for byte
    // (and a latency spike is pure fault-epoch noise, factor × 0 = 0).
    let latency = LatencyModel::Fixed(SimDuration::ZERO);
    let mut net = Network::new(spec.overlay().0, spec.config, latency, DetRng::seed_from(7));
    net.plane.justify_on = true;
    net.plane.trace = trace_cap.map(TraceBuf::new);
    if spec.faults != Faults::None {
        net.plane.arm(spec.fault_seed);
    }
    // `Ev::Replica` dispatch reads the entry lifetime off a plan; the
    // script schedules every replica action itself.
    let plan = Scenario {
        keys: spec.keys,
        entry_lifetime: LIFETIME,
        ..Scenario::default()
    };
    net.replica_plan = Some(ReplicaPlan::build(&plan, &mut DetRng::seed_from(1)));
    let mut engine = cup::des::Engine::new(net);
    let script = spec.script();
    for &(at, step) in &script {
        let replica = |k: u32, kind| {
            let (key, replica) = (KeyId(k), ReplicaId(k));
            Ev::Replica(ReplicaAction {
                at,
                key,
                replica,
                kind,
            })
        };
        let ev = match step {
            Step::Birth(k) => replica(k, ReplicaActionKind::Birth),
            Step::Query { node, key } => Ev::PostQuery {
                node_index: node,
                key: KeyId(key),
            },
            Step::Refresh(k) => replica(k, ReplicaActionKind::Refresh),
            Step::Delete(k) => replica(k, ReplicaActionKind::Death),
            Step::Fault(action) => Ev::Fault(FaultEvent { at, action }),
        };
        engine.schedule(at, ev);
    }
    let end = spec.end(&script);
    engine.run_until(end, |net, queue, now, ev| net.dispatch(queue, now, ev));
    let probe = engine.now();
    let mut net = engine.into_state();
    let trace = net.plane.trace.take();
    let (stats, totals) = (
        net.plane.nodes.aggregate_stats(),
        Plane::totals([&net.plane]),
    );
    let outcome = outcome_of(stats, net.plane.nodes.iter(), spec.keys, probe, totals);
    (outcome, trace)
}

/// Walks the same script through the worker-pool live runtime on a
/// **virtual clock**: for each step, `run_until` its instant, apply it,
/// and `quiesce()` (no sleeps). Every handler in both runtimes then
/// observes identical timestamps, so time-compared behavior (the 30 s
/// `pfu_timeout`, windowed fault edges) is part of the byte-identical
/// comparison.
///
/// # Panics
///
/// Panics if the runtime cannot start, a query is not answered as the
/// script demands, any message hit a routing failure, or the answers
/// the waiting clients received are not the ones the runtime counted.
pub fn run_live(spec: &ConformanceSpec) -> Outcome {
    run_live_inner(spec, None).0
}

/// [`run_live`] with structured event tracing on (a ring buffer of
/// `trace_cap` events). Raw live arrival order is scheduling-dependent;
/// compare via `TraceBuf::sorted` / `cup::prelude::trace_diff`, which
/// the canonical ordering makes deterministic.
pub fn run_live_traced(spec: &ConformanceSpec, trace_cap: usize) -> (Outcome, TraceBuf) {
    let (outcome, trace) = run_live_inner(spec, Some(trace_cap));
    (outcome, trace.expect("tracing was enabled"))
}

fn run_live_inner(spec: &ConformanceSpec, trace_cap: Option<usize>) -> (Outcome, Option<TraceBuf>) {
    let mut topo_rng = DetRng::seed_from(spec.topology_seed);
    let (kind, nodes, workers, map) = (spec.kind, spec.nodes, spec.workers, spec.shard_map);
    let net =
        LiveNetwork::start_virtual_with_map(kind, nodes, spec.config, workers, map, &mut topo_rng)
            .unwrap();
    net.track_justification(true);
    if let Some(cap) = trace_cap {
        net.enable_trace(cap);
    }
    let armed = spec.faults != Faults::None;
    if armed {
        net.enable_faults(spec.fault_seed);
    }
    let script = spec.script();
    let (mut responses, mut deleted) = (0u64, None);
    // Queries a fault left unanswered stay registered to the end: a later
    // PFU retry can still answer them, and the DES counts that delivery.
    let mut stranded = Vec::new();
    for &(at, step) in &script {
        net.run_until(at);
        match step {
            Step::Birth(k) => net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME),
            Step::Refresh(k) => net.replica_refresh(KeyId(k), ReplicaId(k), LIFETIME),
            Step::Delete(k) => {
                net.replica_deletion(KeyId(k), ReplicaId(k));
                deleted = Some(k);
            }
            Step::Fault(action) => net.inject_fault(action),
            Step::Query { node, key } => {
                let pending = net.query_detached(net.nodes()[node], KeyId(key)).unwrap();
                net.quiesce();
                let Some(entries) = pending.poll() else {
                    assert!(armed, "k{key}: a fault-free query went unanswered");
                    stranded.push(pending);
                    continue;
                };
                responses += 1;
                let got: Vec<ReplicaId> = entries.iter().map(|e| e.replica).collect();
                let want = (deleted != Some(key)).then_some(ReplicaId(key));
                assert!(got.len() <= 1, "k{key} has one replica: {got:?}");
                assert!(armed || got == want.as_slice(), "k{key}: {got:?}");
            }
        }
        net.quiesce();
    }
    net.run_until(spec.end(&script));
    responses += stranded.into_iter().filter(|p| p.poll().is_some()).count() as u64;
    assert_eq!(net.routing_failures(), 0, "static routing must not fail");
    let totals = net.totals();
    let counted = totals.net.client_responses;
    assert_eq!(responses, counted, "answers the clients claimed vs counted");
    let stats = net.node_stats();
    let trace = net.take_trace();
    // The clock's final reading: the very instant `run_sim` probes.
    let probe = net.now();
    let outcome = outcome_of(stats, net.shutdown().iter(), spec.keys, probe, totals);
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Queries = Vec<(SimTime, usize, u32)>;

    type Spec = ConformanceSpec;

    fn presets(kind: OverlayKind) -> [Spec; 5] {
        [
            Spec::small,
            Spec::large,
            Spec::faulty,
            Spec::timed,
            Spec::byzantine,
        ]
        .map(|p| p(kind))
    }

    /// The script's query and fault steps, each with its instant.
    fn split(script: &[(SimTime, Step)]) -> (Queries, Vec<(SimTime, FaultAction)>) {
        let (mut queries, mut faults) = (Vec::new(), Vec::new());
        for &(at, step) in script {
            match step {
                Step::Query { node, key } => queries.push((at, node, key)),
                Step::Fault(action) => faults.push((at, action)),
                _ => {}
            }
        }
        (queries, faults)
    }

    /// The property both drivers rely on: the script is a pure function
    /// of the spec, every step has an instant of its own (only the
    /// Byzantine installs share `t = 0`, the scripted bounce's crash and
    /// restart one mid-gap instant), and every other fault step
    /// lands strictly between two phase-A queries, where both runtimes
    /// are drained.
    #[test]
    fn script_is_deterministic_and_well_formed() {
        for kind in OverlayKind::ALL {
            for spec in presets(kind) {
                let label = format!("{kind} {:?} x {}", spec.faults, spec.nodes);
                let script = spec.script();
                assert_eq!(script, spec.script(), "{label}: same spec, same script");
                let byzantine = spec.faults == Faults::Byzantine;
                let mut shared = 0;
                for w in script.windows(2) {
                    let install = byzantine && w[1].0 == SimTime::ZERO;
                    shared += usize::from(w[0].0 == w[1].0 && !install);
                    assert!(w[0].0 <= w[1].0, "{label}: {w:?}");
                }
                let bounces = usize::from(spec.faults == Faults::Scripted);
                assert_eq!(shared, bounces, "{label}: only the bounce shares");
                let (queries, faults) = split(&script);
                let n = spec.phase_a_queries;
                assert_eq!(queries.len(), n + 3 + spec.keys as usize - 1, "{label}");
                assert_eq!(spec.total_queries(), queries.len() as u64, "{label}");
                assert!(queries[n..n + 3].iter().all(|q| q.2 == DELETED_KEY));
                for &(_, node, key) in &queries {
                    assert!(node < spec.nodes && key < spec.keys, "{label}");
                }
                let expected = match spec.faults {
                    Faults::None => 0,
                    Faults::Scripted => 8,
                    Faults::Timed => 6,
                    Faults::Byzantine => 3,
                };
                assert_eq!(faults.len(), expected, "{label}: fault step count");
                let (first, last) = (queries[0].0, queries[n - 1].0);
                for (at, action) in faults {
                    let placed = (byzantine && at == SimTime::ZERO) || (first < at && at < last);
                    assert!(placed, "{label}: {action:?} at {at:?} is misplaced");
                }
            }
        }
    }

    #[test]
    fn fault_script_is_deterministic_and_avoids_authorities() {
        for kind in OverlayKind::ALL {
            // The scripted surface bounces a node, then cycles another
            // (or the same) one; the timed surface only cycles.
            for (spec, cycles) in [(Spec::faulty(kind), 2), (Spec::timed(kind), 1)] {
                let (_, authorities) = spec.overlay();
                let script = spec.script();
                let victims: Vec<(SimTime, usize)> = (split(&script).1.into_iter())
                    .filter_map(|(at, action)| match action {
                        FaultAction::Crash { node } | FaultAction::Restart { node } => {
                            Some((at, node))
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(victims.len(), 2 * cycles, "{kind}: crashes and restarts");
                for pair in victims.chunks(2) {
                    assert_eq!(pair[0].1, pair[1].1, "{kind}: the victim comes back");
                    assert!(
                        !authorities.contains(&pair[0].1),
                        "{kind}: victim owns a key"
                    );
                }
                if cycles == 2 {
                    // The bounce is instant, and the bounced node's next
                    // query asks for a key it asked for before.
                    let ((at, warm), queries) = (victims[0], split(&script).0);
                    let next = queries.iter().position(|q| q.0 > at).unwrap();
                    let (_, node, key) = queries[next];
                    assert_eq!((victims[1].0, node), (at, warm), "{kind}: the bounce");
                    assert!(queries[..next].iter().any(|q| (q.1, q.2) == (warm, key)));
                }
            }
            // Fault-free specs script no fault step.
            assert!(split(&Spec::small(kind).script()).1.is_empty());
        }
    }

    #[test]
    fn timed_fault_plan_is_deterministic_and_lands_mid_gap() {
        for kind in OverlayKind::ALL {
            let spec = Spec::timed(kind);
            let (queries, faults) = split(&spec.script());
            assert_eq!(faults, split(&spec.script()).1, "same spec, same plan");
            assert_eq!(faults.len(), 6, "three windows, two edges each");
            assert!(
                (faults.iter()).any(|f| matches!(f.1, FaultAction::SetLatencyFactor { .. })),
                "{kind}: the timed script spikes latency"
            );
            let phase_a = &queries[..spec.phase_a_queries];
            let phase_a_end = phase_a.last().unwrap().0;
            for &(at, _) in &faults {
                let secs = at.as_micros() / 1_000_000;
                assert!(
                    (PHASE_A_SECS..phase_a_end.as_micros() / 1_000_000).contains(&secs),
                    "windows sit inside phase A"
                );
                assert!(
                    phase_a.iter().all(|q| q.0 != at),
                    "{kind}: edge at t={secs}s collides with a scripted query"
                );
            }
        }
        // Only the timed surface spikes latency.
        for spec in [
            Spec::small(OverlayKind::Can),
            Spec::faulty(OverlayKind::Can),
        ] {
            let faults = split(&spec.script()).1;
            assert!(!(faults.iter()).any(|f| matches!(f.1, FaultAction::SetLatencyFactor { .. })));
        }
    }

    #[test]
    fn byzantine_cast_is_deterministic_and_well_placed() {
        for kind in OverlayKind::ALL {
            let spec = Spec::byzantine(kind);
            assert!(spec.config.audit.is_some(), "{kind}: the audit is armed");
            let cast = spec.byzantine_cast().expect("the cast forms");
            assert_eq!(Some(cast), spec.byzantine_cast(), "same spec, same cast");
            let (witness, stale) = (cast.witness, cast.stale_server);
            let members = [witness, stale, cast.update_dropper, cast.refresh_liar];
            let distinct: HashSet<usize> = members.into();
            assert_eq!(distinct.len(), 4, "{kind}: cast members are distinct");
            let (overlay, authorities) = spec.overlay();
            assert!(
                distinct.is_disjoint(&authorities),
                "{kind}: a member owns a key"
            );
            // The deletion's only path to the witness runs through the
            // stale server: it is the witness's interest-tree parent.
            let upstream = overlay.next_hop(NodeId(witness as u32), KeyId(DELETED_KEY));
            assert_eq!(upstream.unwrap(), Some(NodeId(stale as u32)), "{kind}");
            let (queries, _) = split(&spec.script());
            // The witness queried the deleted key in phase A (it holds
            // poisoned state) and absorbs every phase-B probe of it.
            let (phase_a, phase_b) = queries.split_at(spec.phase_a_queries);
            assert!(phase_a.iter().any(|q| (q.1, q.2) == (witness, DELETED_KEY)));
            let probes = phase_b.iter().filter(|q| q.2 == DELETED_KEY);
            assert!(probes.into_iter().all(|q| q.1 == witness), "{kind}");
            // Non-Byzantine specs carry no cast.
            assert!(Spec::small(kind).byzantine_cast().is_none());
        }
    }

    #[test]
    fn faulty_spec_runs_the_paper_default_pfu_timeout() {
        // No fault preset parks the retry path behind an effectively
        // infinite timeout: they run the paper's 30 s like the rest.
        for kind in OverlayKind::ALL {
            for spec in [Spec::faulty(kind), Spec::timed(kind), Spec::byzantine(kind)] {
                assert_eq!(
                    spec.config.pfu_timeout,
                    NodeConfig::cup_default().pfu_timeout,
                    "{kind}: fault specs must not park the PFU timeout"
                );
            }
        }
    }

    #[test]
    fn specs_stay_inside_their_populations() {
        for kind in OverlayKind::ALL {
            for spec in presets(kind) {
                assert!(spec.keys > DELETED_KEY);
                assert!(spec.workers >= 1);
                assert!(spec.nodes >= spec.workers);
            }
        }
    }
}
