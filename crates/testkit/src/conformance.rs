//! The sim-vs-live conformance harness: one scripted workload, two
//! runtimes, one truth.
//!
//! The CUP node is a pure state machine; `cup-simnet` drives it inside
//! the deterministic DES while `cup-runtime` runs it on the sharded
//! worker pool. [`run_sim`] and [`run_live`] push the same scripted
//! scenario — replica births, a serialized query workload, a deletion,
//! more queries — through both runtimes over the *same* topology (same
//! overlay kind, same build seed) and return comparable [`Outcome`]s.
//!
//! Queries are serialized (each completes before the next is posted, and
//! the live side [`cup::prelude::LiveNetwork::quiesce`]s between script
//! events where the sim side leaves an inter-event gap), so the message
//! orders the two runtimes see are equivalent and the comparison is
//! exact, not statistical.
//!
//! The live side runs on a **virtual clock** stepped through exactly the
//! DES schedule's instants, and the DES runs at zero per-hop latency, so
//! every handler in both runtimes observes identical timestamps. That
//! puts *time-compared* behavior inside the byte-identical comparison:
//! the paper-default 30 s `pfu_timeout` runs un-parked (retry counters
//! must agree), and `@t=`-windowed fault scripts execute their window
//! edges at the same logical instant in both runtimes.
//!
//! Both runtimes run §3.1 justified-update accounting through the shared
//! [`cup::protocol::justify::JustificationTracker`], and the script's
//! refresh rounds (between phase A and the deletion) generate the
//! maintenance updates the accounting measures — so the comparison
//! covers the economics, not just the caching behaviour.

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

/// One scripted query: posted at the node with this dense index, for
/// this key.
pub type ScriptedQuery = (usize, u32);

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
    /// Runs the spec's standard fault script (see
    /// [`ConformanceSpec::fault_events`]) through both runtimes'
    /// `cup-faults` planes. Queries then may legitimately go unanswered,
    /// so the live side claims answers with detached queries instead of
    /// asserting payloads.
    pub fault_script: bool,
    /// Runs the spec's *timed-window* fault script (see
    /// [`ConformanceSpec::fault_plan`]): `drop:`/`spike:`/`crash:`
    /// windows at absolute logical times, executed by the DES as
    /// scheduled events and by the live runtime as a virtual-clock plan
    /// replay — the same instants in both. Implies the detached-query
    /// discipline of `fault_script`.
    pub timed_faults: bool,
    /// Arms the spec's Byzantine cast (see
    /// [`ConformanceSpec::byzantine_cast`]): a stale-serving node parked
    /// upstream of an honest witness, an update-dropper, and a
    /// refresh-liar, installed at `t = 0` through both fault planes —
    /// with the sampled cache audit switched on in `config`, so the
    /// poisoned-answer, audit, and repair counters are part of the
    /// byte-identical comparison. Implies the detached-query discipline
    /// of `fault_script`.
    pub byzantine: bool,
    /// Seed both runtimes' fault planes share.
    pub fault_seed: u64,
}

/// The scripted Byzantine cast, computed from the overlay and the
/// phase-A query script (see [`ConformanceSpec::byzantine_cast`]).
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
            fault_script: false,
            timed_faults: false,
            byzantine: false,
            fault_seed: 0,
        }
    }

    /// The at-scale scenario: ≥2k live nodes on a small worker pool.
    pub fn large(kind: OverlayKind) -> Self {
        ConformanceSpec {
            kind,
            nodes: 2_048,
            keys: 4,
            phase_a_queries: 30,
            refresh_rounds: 2,
            config: NodeConfig::cup_default(),
            topology_seed: 17,
            script_seed: 23,
            // CAN paths at 2k nodes can run to ~100 hops; at 50 ms per
            // hop each way a cascade still drains well inside 30 s.
            step_secs: 30,
            workers: 4,
            shard_map: ShardMapMode::Contiguous,
            fault_script: false,
            timed_faults: false,
            byzantine: false,
            fault_seed: 0,
        }
    }

    /// The small scenario with the standard fault script armed: a lossy
    /// phase, a crash/restart cycle, and a 2-way partition, all inside
    /// phase A (refresh rounds, the deletion, and phase B then run
    /// fault-free on whatever state the faults left behind).
    ///
    /// Runs the paper-default 30 s `pfu_timeout`: on the virtual clock
    /// both runtimes compare the same logical elapsed times, so the
    /// retry counter is part of the byte-identical comparison (phase-A
    /// losses strand Pending-First-Update flags; later queries past the
    /// timeout retry instead of coalescing forever).
    pub fn faulty(kind: OverlayKind) -> Self {
        ConformanceSpec {
            fault_script: true,
            fault_seed: 0xFA_17,
            ..ConformanceSpec::small(kind)
        }
    }

    /// The small scenario with the timed-window fault script armed: a
    /// loss window, a latency-spike window (pure fault-epoch noise at
    /// the conformance latency — see [`run_sim`]), and a crash/restart
    /// window, all at absolute logical times inside phase A. See
    /// [`ConformanceSpec::fault_plan`].
    pub fn timed(kind: OverlayKind) -> Self {
        ConformanceSpec {
            timed_faults: true,
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
            byzantine: true,
            fault_seed: 0xB1_2A,
            config: base.config.with_audit(AuditConfig::sampled(
                SimDuration::from_secs(5),
                base.nodes as u32,
                0xC0DE_A0D1,
            )),
            ..base
        }
    }

    /// Whether any fault surface (positional, timed, or Byzantine) is
    /// armed.
    pub fn any_faults(&self) -> bool {
        self.fault_script || self.timed_faults || self.byzantine
    }

    /// A crash victim that is no key's authority, so the scripted
    /// replica traffic keeps its meaning while the victim is down.
    /// Authorities are collected into a set first: the scan is
    /// O(nodes + keys), not O(nodes × keys), which matters at the
    /// 2048-node conformance tier.
    fn crash_victim(&self) -> usize {
        let mut topo_rng = DetRng::seed_from(self.topology_seed);
        let overlay = AnyOverlay::build(self.kind, self.nodes, &mut topo_rng).unwrap();
        let authorities: std::collections::HashSet<NodeId> = (0..self.keys)
            .map(|k| overlay.authority(KeyId(k)))
            .collect();
        (0..self.nodes)
            .find(|&i| !authorities.contains(&NodeId(i as u32)))
            .expect("a non-authority node exists")
    }

    /// The scripted Byzantine cast, derived from the overlay and the
    /// phase-A script so the attack provably bites: the witness is the
    /// *first* phase-A querier of the deleted key (so its interest-tree
    /// parent toward the authority is exactly its overlay next hop), and
    /// the stale server is that parent — the deletion's only path to the
    /// witness runs through the liar. The other two attackers sit on
    /// maintenance paths: the update-dropper is a surviving-key querier's
    /// parent (refresh forwards die there), the refresh-liar another
    /// deleted-key querier's parent (a deletion reaching it leaves as a
    /// refresh). All picks avoid every key authority so the scripted
    /// replica traffic keeps its meaning. `None` unless `byzantine`.
    pub fn byzantine_cast(&self) -> Option<ByzantineCast> {
        if !self.byzantine {
            return None;
        }
        let mut topo_rng = DetRng::seed_from(self.topology_seed);
        let overlay = AnyOverlay::build(self.kind, self.nodes, &mut topo_rng).unwrap();
        let authorities: std::collections::HashSet<usize> = (0..self.keys)
            .map(|k| overlay.authority(KeyId(k)).0 as usize)
            .collect();
        // Re-draw phase A exactly as `query_script` does (phase A is
        // never rewritten by the cast, so the streams agree).
        let mut rng = DetRng::seed_from(self.script_seed);
        let phase_a: Vec<ScriptedQuery> = (0..self.phase_a_queries)
            .map(|_| {
                (
                    rng.choose_index(self.nodes),
                    rng.next_below(u64::from(self.keys)) as u32,
                )
            })
            .collect();
        let hop_of = |n: usize, k: u32| -> Option<usize> {
            overlay
                .next_hop(NodeId(n as u32), KeyId(k))
                .ok()
                .flatten()
                .map(|h| h.0 as usize)
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
        Some(ByzantineCast {
            witness,
            stale_server,
            update_dropper,
            refresh_liar,
        })
    }

    /// The standard fault script, as `(phase_a_position, action)` pairs:
    /// each action applies immediately before the phase-A query with
    /// that index (both runtimes interleave them at the same points).
    pub fn fault_events(&self) -> Vec<(usize, FaultAction)> {
        if !self.fault_script {
            return Vec::new();
        }
        let victim = self.crash_victim();
        let n = self.phase_a_queries;
        assert!(
            n >= 20,
            "the standard fault script needs ≥ 20 phase-A steps"
        );
        vec![
            (2, FaultAction::SetLoss { rate: 0.25 }),
            (8, FaultAction::SetLoss { rate: 0.0 }),
            (10, FaultAction::Crash { node: victim }),
            (14, FaultAction::Restart { node: victim }),
            (16, FaultAction::Partition { groups: 2 }),
            (n - 1, FaultAction::Heal),
        ]
    }

    /// The scheduled fault script as a [`FaultPlan`] built from the
    /// standard spec strings. With `timed_faults`: `drop:`/`spike:`/
    /// `crash:` windows whose edges land mid-gap between scripted
    /// queries — the network is drained there in both runtimes, so each
    /// edge applies to the same quiescent state at the same logical
    /// instant. With `byzantine`: unwindowed `stale-serve:`/
    /// `drop-updates:`/`lie-refresh:` specs installing the cast's
    /// behaviors permanently from `t = 0`. Empty unless one of the two
    /// is set.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut specs: Vec<String> = Vec::new();
        if self.timed_faults {
            let victim = self.crash_victim();
            let s = self.step_secs;
            // Mid-gap instant before phase-A query `pos`.
            let mid = |pos: u64| 100 + pos * s - s / 2;
            assert!(
                self.phase_a_queries >= 16,
                "the timed fault script needs ≥ 16 phase-A steps"
            );
            specs.push(format!("drop:0.35@t={}..{}", mid(2), mid(8)));
            specs.push(format!("spike:3@t={}..{}", mid(4), mid(10)));
            specs.push(format!("crash:{victim}@t={}..{}", mid(11), mid(15)));
        }
        if let Some(cast) = self.byzantine_cast() {
            specs.push(format!("stale-serve:{}", cast.stale_server));
            specs.push(format!("drop-updates:{}", cast.update_dropper));
            specs.push(format!("lie-refresh:{}", cast.refresh_liar));
        }
        if specs.is_empty() {
            return FaultPlan::none();
        }
        FaultPlan::parse_specs(&specs).expect("the built-in specs parse")
    }

    /// The same script under a different node configuration (policy
    /// comparisons).
    pub fn with_config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// The same script with a different number of refresh rounds.
    pub fn with_refresh_rounds(mut self, rounds: u32) -> Self {
        self.refresh_rounds = rounds;
        self
    }

    /// Surviving keys, in script order.
    fn surviving_keys(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.keys).filter(|&k| k != DELETED_KEY)
    }

    /// The scripted workload: `(node_index, key)` per query, two phases.
    /// Phase B probes the deleted key from three nodes, then each
    /// surviving key once more. Under `byzantine`, the deleted-key
    /// probes are re-aimed at the cast's witness (the rng stream is
    /// drawn identically first, so phase A and the surviving-key probes
    /// are untouched): every probe then crosses poisoned state, and each
    /// one — arriving a `step` past the 5 s audit interval — opens a
    /// fresh audit round at the witness.
    pub fn query_script(&self) -> (Vec<ScriptedQuery>, Vec<ScriptedQuery>) {
        let mut rng = DetRng::seed_from(self.script_seed);
        let mut phase_a = Vec::new();
        for _ in 0..self.phase_a_queries {
            phase_a.push((
                rng.choose_index(self.nodes),
                rng.next_below(u64::from(self.keys)) as u32,
            ));
        }
        let mut phase_b = Vec::new();
        for _ in 0..3 {
            phase_b.push((rng.choose_index(self.nodes), DELETED_KEY));
        }
        for k in (0..self.keys).filter(|&k| k != DELETED_KEY) {
            phase_b.push((rng.choose_index(self.nodes), k));
        }
        if let Some(cast) = self.byzantine_cast() {
            for q in phase_b.iter_mut().filter(|q| q.1 == DELETED_KEY) {
                q.0 = cast.witness;
            }
        }
        (phase_a, phase_b)
    }

    /// Total scripted queries across both phases.
    pub fn total_queries(&self) -> u64 {
        let (a, b) = self.query_script();
        (a.len() + b.len()) as u64
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

/// Collects the comparable outcome from final per-node states plus the
/// fold of the runtime's delivery planes.
pub fn outcome_of<'a>(
    nodes: impl Iterator<Item = &'a CupNode>,
    keys: u32,
    probe_time: SimTime,
    totals: Totals,
) -> Outcome {
    let mut stats = NodeStats::default();
    let mut cached_by: Vec<Vec<NodeId>> = (0..keys).map(|_| Vec::new()).collect();
    for node in nodes {
        stats.merge(&node.stats);
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

/// Runs the script through the DES (the number of client responses
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
    let mut topo_rng = DetRng::seed_from(spec.topology_seed);
    let overlay = AnyOverlay::build(spec.kind, spec.nodes, &mut topo_rng).unwrap();
    // Zero per-hop latency: every handler in a cascade then observes
    // exactly the cascade's scheduled time — the same instants the live
    // side realizes by stepping its virtual clock at quiesce barriers.
    // That makes *time-compared* behavior (the 30 s `pfu_timeout`,
    // freshness horizons) part of the byte-identical comparison instead
    // of diverging by per-hop latency offsets the live runtime cannot
    // reproduce. (A latency spike window is then pure fault-epoch noise
    // — factor × 0 = 0 — identically in both runtimes.)
    let mut net = Network::new(
        overlay,
        spec.config,
        LatencyModel::Fixed(SimDuration::ZERO),
        DetRng::seed_from(7),
    );
    net.plane.justify_on = true;
    if let Some(cap) = trace_cap {
        net.enable_trace(cap);
    }
    if spec.any_faults() {
        net.plane.arm(spec.fault_seed);
    }
    // A plan is required for `Ev::Replica` dispatch; only its lifetime
    // and next-event logic are used (we schedule births ourselves so the
    // two runtimes share an explicit, ordered script).
    let plan_scenario = Scenario {
        nodes: spec.nodes,
        keys: spec.keys,
        entry_lifetime: LIFETIME,
        sim_end: SimTime::from_secs(2_000_000),
        query_end: SimTime::from_secs(1_000),
        ..Scenario::default()
    };
    net.replica_plan = Some(ReplicaPlan::build(
        &plan_scenario,
        &mut DetRng::seed_from(1),
    ));

    let mut engine = cup::des::Engine::new(net);
    for k in 0..spec.keys {
        engine.schedule(
            SimTime::from_secs(1 + u64::from(k)),
            Ev::Replica(ReplicaAction {
                at: SimTime::from_secs(1 + u64::from(k)),
                key: KeyId(k),
                replica: ReplicaId(k),
                kind: ReplicaActionKind::Birth,
            }),
        );
    }
    let (phase_a, phase_b) = spec.query_script();
    let mut t = SimTime::from_secs(100);
    let step = SimDuration::from_secs(spec.step_secs);
    // Fault actions fire mid-gap before their phase-A position: the
    // previous cascade has drained, the positioned query has not fired —
    // the same interleaving the live side realizes with quiesce barriers.
    for (position, action) in spec.fault_events() {
        let fire = SimTime::from_secs(100 + position as u64 * spec.step_secs - spec.step_secs / 2);
        engine.schedule(fire, Ev::Fault(FaultEvent { at: fire, action }));
    }
    // The timed-window script schedules by absolute logical time; the
    // live side replays the identical plan against its virtual clock.
    for ev in spec.fault_plan().events() {
        engine.schedule(ev.at, Ev::Fault(*ev));
    }
    for &(node_index, key) in &phase_a {
        engine.schedule(
            t,
            Ev::PostQuery {
                node_index,
                key: KeyId(key),
            },
        );
        t += step;
    }
    // Refresh rounds for the surviving keys: the maintenance traffic the
    // justification accounting (and the cut-off policies) act on. The
    // deleted key is skipped so its interest tree stays intact and the
    // deletion reaches every cache.
    for _round in 0..spec.refresh_rounds {
        for k in spec.surviving_keys() {
            engine.schedule(
                t,
                Ev::Replica(ReplicaAction {
                    at: t,
                    key: KeyId(k),
                    replica: ReplicaId(k),
                    kind: ReplicaActionKind::Refresh,
                }),
            );
            t += step;
        }
    }
    // The deletion, then a settle gap before phase B.
    engine.schedule(
        t,
        Ev::Replica(ReplicaAction {
            at: t,
            key: KeyId(DELETED_KEY),
            replica: ReplicaId(DELETED_KEY),
            kind: ReplicaActionKind::Death,
        }),
    );
    t += step;
    for &(node_index, key) in &phase_b {
        engine.schedule(
            t,
            Ev::PostQuery {
                node_index,
                key: KeyId(key),
            },
        );
        t += step;
    }
    let quiesce = t + SimDuration::from_secs(100);
    engine.run_until(quiesce, |net, queue, now, ev| net.dispatch(queue, now, ev));
    let probe = engine.now();
    let mut net = engine.into_state();
    let trace = net.take_trace();
    let totals = Plane::totals([&net.plane]);
    let ids: Vec<NodeId> = (0..spec.nodes as u32).map(NodeId).collect();
    let mut outcome = outcome_of(
        ids.iter().filter_map(|&id| net.node(id)),
        spec.keys,
        probe,
        totals,
    );
    // Counters wiped by crashes live in the arena's departed aggregate.
    outcome.stats.merge(&net.retained_stats());
    (outcome, trace)
}

/// Runs the same script through the worker-pool live runtime on a
/// **virtual clock**, synchronizing on `quiesce()` between script
/// events (no sleeps) and stepping logical time through exactly the
/// instants the DES schedule uses — births at `t = 1 + k`, phase-A
/// query `i` at `t = 100 + i·step`, fault events mid-gap or at their
/// scripted windows, and so on. Every handler in both runtimes then
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
    let net = LiveNetwork::start_virtual_with_map(
        spec.kind,
        spec.nodes,
        spec.config,
        spec.workers,
        spec.shard_map,
        &mut topo_rng,
    )
    .unwrap();
    net.track_justification(true);
    if let Some(cap) = trace_cap {
        net.enable_trace(cap);
    }
    if spec.any_faults() {
        net.enable_faults(spec.fault_seed);
    }
    let plan = spec.fault_plan();
    let mut plan_cursor = 0usize;
    // Unwindowed behavior specs install at t = 0 — replay them before
    // the clock first advances (a no-op for the windowed scripts, whose
    // earliest edge sits mid-phase-A).
    net.run_plan_until(&plan, &mut plan_cursor, SimTime::ZERO);
    for k in 0..spec.keys {
        net.run_until(SimTime::from_secs(1 + u64::from(k)));
        net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME);
        net.quiesce();
    }

    let (phase_a, phase_b) = spec.query_script();
    let fault_events = spec.fault_events();
    let step = spec.step_secs;
    // The script clock, mirroring `run_sim`'s `t` in whole seconds.
    let mut t = 100u64;
    let mut responses = 0u64;
    // Queries whose answer a fault swallowed *so far*: a later PFU
    // retry at the same node can still resurrect them (the first-time
    // update answers every waiting client), and the DES counts that
    // late delivery — so the receivers stay registered until the run
    // ends and late answers are claimed at the final barrier.
    let mut stranded = Vec::new();
    for (i, &(node_index, key)) in phase_a.iter().enumerate() {
        // Apply this step's positional fault actions at their mid-gap
        // instant — exactly when the DES schedules them (previous
        // cascade drained, positioned query not yet fired).
        for &(position, action) in &fault_events {
            if position == i {
                net.run_until(SimTime::from_secs(100 + position as u64 * step - step / 2));
                net.inject_fault(action);
                net.quiesce();
            }
        }
        // Replay any due timed windows, then land on the query instant.
        net.run_plan_until(&plan, &mut plan_cursor, SimTime::from_secs(t));
        if spec.any_faults() {
            // Under faults an answer may legitimately never come; after
            // a quiesce, "nothing yet" is "nothing ever".
            let pending = net
                .query_detached(net.nodes()[node_index], KeyId(key))
                .unwrap();
            net.quiesce();
            match pending.poll() {
                Some(entries) => {
                    assert!(entries.len() <= 1);
                    responses += 1;
                }
                None => stranded.push(pending),
            }
        } else {
            let entries = net.query(net.nodes()[node_index], KeyId(key)).unwrap();
            assert_eq!(
                entries.len(),
                1,
                "live query for k{key} must find its replica"
            );
            assert_eq!(entries[0].replica, ReplicaId(key));
            responses += 1;
            net.quiesce();
        }
        t += step;
    }
    // Refresh rounds for the surviving keys, serialized exactly like the
    // DES schedule (one refresh per step instant).
    for _round in 0..spec.refresh_rounds {
        for k in spec.surviving_keys() {
            net.run_plan_until(&plan, &mut plan_cursor, SimTime::from_secs(t));
            net.replica_refresh(KeyId(k), ReplicaId(k), LIFETIME);
            net.quiesce();
            t += step;
        }
    }
    net.run_plan_until(&plan, &mut plan_cursor, SimTime::from_secs(t));
    net.replica_deletion(KeyId(DELETED_KEY), ReplicaId(DELETED_KEY));
    net.quiesce();
    t += step;
    for &(node_index, key) in &phase_b {
        net.run_plan_until(&plan, &mut plan_cursor, SimTime::from_secs(t));
        if spec.any_faults() {
            // Phase B runs fault-free, but phase-A losses may have left
            // stuck Pending-First-Update flags; past the 30 s timeout
            // those retry upstream (counted identically in both
            // runtimes), yet a query can still go unanswered — claim
            // answers without payload assertions.
            let pending = net
                .query_detached(net.nodes()[node_index], KeyId(key))
                .unwrap();
            net.quiesce();
            match pending.poll() {
                Some(_) => responses += 1,
                None => stranded.push(pending),
            }
        } else {
            let entries = net.query(net.nodes()[node_index], KeyId(key)).unwrap();
            if key == DELETED_KEY {
                assert!(
                    entries.is_empty(),
                    "deleted key must yield an empty live answer"
                );
            } else {
                assert_eq!(entries.len(), 1);
            }
            responses += 1;
            net.quiesce();
        }
        t += step;
    }
    // The settle gap before the probe, mirroring the DES's final
    // `run_until(t + 100 s)` — and flushing any still-pending timed
    // window edges so both planes end in the same state.
    net.run_plan_until(&plan, &mut plan_cursor, SimTime::from_secs(t + 100));
    // Claim answers that arrived after their query's own step — the DES
    // counts a client response whenever the cascade delivers it.
    responses += stranded.iter().filter(|p| p.poll().is_some()).count() as u64;
    drop(stranded);
    assert_eq!(net.routing_failures(), 0, "static routing must not fail");
    let totals = net.totals();
    // The client side of the ledger: what the waiting clients received
    // is what the runtime says it handed them.
    assert_eq!(
        responses, totals.net.client_responses,
        "answers claimed by clients vs answers the runtime counted"
    );
    let crash_retained = net.crash_retained_stats();
    let trace = net.take_trace();
    // The probe instant is the virtual clock's final reading — the very
    // same instant `run_sim` probes (`engine.now()` after its final
    // `run_until`), so freshness horizons agree bit for bit.
    let probe = net.now();
    let final_nodes = net.shutdown();
    let mut outcome = outcome_of(final_nodes.iter(), spec.keys, probe, totals);
    outcome.stats.merge(&crash_retained);
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_deterministic_and_well_formed() {
        let spec = ConformanceSpec::small(OverlayKind::Can);
        let (a1, b1) = spec.query_script();
        let (a2, b2) = spec.query_script();
        assert_eq!((&a1, &b1), (&a2, &b2), "same seed, same script");
        assert_eq!(a1.len(), spec.phase_a_queries);
        assert_eq!(b1.len(), 3 + spec.keys as usize - 1);
        assert_eq!(spec.total_queries(), (a1.len() + b1.len()) as u64);
        assert!(b1.iter().take(3).all(|&(_, k)| k == DELETED_KEY));
        for &(node, key) in a1.iter().chain(&b1) {
            assert!(node < spec.nodes);
            assert!(key < spec.keys);
        }
    }

    #[test]
    fn fault_script_is_deterministic_and_avoids_authorities() {
        for kind in OverlayKind::ALL {
            let spec = ConformanceSpec::faulty(kind);
            let events = spec.fault_events();
            assert_eq!(events, spec.fault_events(), "same spec, same script");
            assert_eq!(events.len(), 6);
            assert!(
                events.windows(2).all(|w| w[0].0 <= w[1].0),
                "positions ordered"
            );
            assert!(events.iter().all(|&(p, _)| p < spec.phase_a_queries));
            let victim = events
                .iter()
                .find_map(|&(_, a)| match a {
                    FaultAction::Crash { node } => Some(node),
                    _ => None,
                })
                .expect("the script crashes someone");
            let mut rng = DetRng::seed_from(spec.topology_seed);
            let overlay = AnyOverlay::build(kind, spec.nodes, &mut rng).unwrap();
            for k in 0..spec.keys {
                assert_ne!(
                    overlay.authority(KeyId(k)),
                    NodeId(victim as u32),
                    "{kind}: the crash victim must not own a scripted key"
                );
            }
        }
        // Non-fault specs script nothing.
        assert!(ConformanceSpec::small(OverlayKind::Can)
            .fault_events()
            .is_empty());
    }

    #[test]
    fn timed_fault_plan_is_deterministic_and_lands_mid_gap() {
        for kind in OverlayKind::ALL {
            let spec = ConformanceSpec::timed(kind);
            assert!(spec.any_faults() && !spec.fault_script);
            let plan = spec.fault_plan();
            assert_eq!(plan, spec.fault_plan(), "same spec, same plan");
            assert_eq!(plan.events().len(), 6, "three windows, two edges each");
            let phase_a_end = 100 + spec.phase_a_queries as u64 * spec.step_secs;
            for ev in plan.events() {
                let secs = ev.at.as_micros() / 1_000_000;
                assert!(
                    (100..phase_a_end).contains(&secs),
                    "windows sit inside phase A"
                );
                assert_ne!(
                    (secs - 100) % spec.step_secs,
                    0,
                    "{kind}: edge at t={secs}s collides with a scripted query"
                );
            }
            // The crash victim owns no scripted key.
            let victim = plan
                .events()
                .iter()
                .find_map(|e| match e.action {
                    FaultAction::Crash { node } => Some(node),
                    _ => None,
                })
                .expect("the timed script crashes someone");
            let mut rng = DetRng::seed_from(spec.topology_seed);
            let overlay = AnyOverlay::build(kind, spec.nodes, &mut rng).unwrap();
            for k in 0..spec.keys {
                assert_ne!(overlay.authority(KeyId(k)), NodeId(victim as u32), "{kind}");
            }
        }
        // Non-timed specs plan nothing.
        assert!(ConformanceSpec::small(OverlayKind::Can)
            .fault_plan()
            .is_empty());
        assert!(ConformanceSpec::faulty(OverlayKind::Can)
            .fault_plan()
            .is_empty());
    }

    #[test]
    fn byzantine_cast_is_deterministic_and_well_placed() {
        for kind in OverlayKind::ALL {
            let spec = ConformanceSpec::byzantine(kind);
            assert!(spec.any_faults() && !spec.fault_script && !spec.timed_faults);
            assert!(
                spec.config.audit.is_some(),
                "{kind}: the Byzantine spec runs with the audit armed"
            );
            let cast = spec.byzantine_cast().expect("the cast forms");
            assert_eq!(Some(cast), spec.byzantine_cast(), "same spec, same cast");
            let members = [
                cast.witness,
                cast.stale_server,
                cast.update_dropper,
                cast.refresh_liar,
            ];
            for (i, a) in members.iter().enumerate() {
                for b in &members[i + 1..] {
                    assert_ne!(a, b, "{kind}: cast members are distinct");
                }
            }
            let mut rng = DetRng::seed_from(spec.topology_seed);
            let overlay = AnyOverlay::build(kind, spec.nodes, &mut rng).unwrap();
            for k in 0..spec.keys {
                for m in members {
                    assert_ne!(
                        overlay.authority(KeyId(k)),
                        NodeId(m as u32),
                        "{kind}: no cast member owns a scripted key"
                    );
                }
            }
            // The deletion's only path to the witness runs through the
            // stale server: it is the witness's interest-tree parent.
            assert_eq!(
                overlay
                    .next_hop(NodeId(cast.witness as u32), KeyId(DELETED_KEY))
                    .unwrap(),
                Some(NodeId(cast.stale_server as u32)),
                "{kind}: the stale server sits on the witness's only upstream"
            );
            // Three unwindowed behavior specs, all installing at t = 0.
            let plan = spec.fault_plan();
            assert_eq!(plan, spec.fault_plan(), "same spec, same plan");
            assert_eq!(plan.events().len(), 3);
            for ev in plan.events() {
                assert_eq!(ev.at, SimTime::ZERO, "{kind}: behaviors install at t=0");
            }
            // The witness queried the deleted key in phase A (it holds
            // poisoned state) and absorbs every phase-B probe of it.
            let (phase_a, phase_b) = spec.query_script();
            assert!(phase_a.contains(&(cast.witness, DELETED_KEY)));
            assert!(phase_b
                .iter()
                .filter(|&&(_, k)| k == DELETED_KEY)
                .all(|&(n, _)| n == cast.witness));
            // Non-Byzantine specs carry no cast and no behavior specs.
            assert!(ConformanceSpec::small(kind).byzantine_cast().is_none());
        }
    }

    #[test]
    fn faulty_spec_runs_the_paper_default_pfu_timeout() {
        // The PR-5 sentinel (an effectively infinite timeout parking the
        // retry path) is gone: the fault conformance scripts run the
        // same 30 s timeout as every other scenario.
        for kind in OverlayKind::ALL {
            for spec in [ConformanceSpec::faulty(kind), ConformanceSpec::timed(kind)] {
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
            for spec in [ConformanceSpec::small(kind), ConformanceSpec::large(kind)] {
                assert!(spec.keys > DELETED_KEY);
                assert!(spec.workers >= 1);
                assert!(spec.nodes >= spec.workers);
            }
        }
    }
}
