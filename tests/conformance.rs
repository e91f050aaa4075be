//! Sim-vs-live conformance: the same protocol, two runtimes, one truth.
//!
//! `cup_testkit::conformance` scripts one scenario — replica births, a
//! serialized query workload, refresh rounds, a deletion, more queries,
//! and the spec's fault steps — through the deterministic DES *and* the
//! sharded worker-pool live runtime over the same topology, for **both**
//! overlay substrates (CAN and Chord): fault-free at two scales (24 and
//! 2 048 nodes), with §3.6 refresh batches released by the authority's
//! own wakes (mid-gap, and on the step grid where a release ties with a
//! step), under the standard fault script, under timed fault
//! windows, under §3.7 capacity cuts (the §2.8 service wakes, a crash
//! inside a cut), and under the Byzantine cast with the cache audit on. Every
//! scenario asserts whole-`Outcome` equality between the sim and each
//! live cell it runs — the spec's own worker count and shard map, then
//! every cell of its matrix:
//!
//! * **cache-hit accounting** and **update delivery** — every protocol
//!   counter, PFU retries and audit rounds included, and the *set of
//!   nodes* caching each key;
//! * **justified-update accounting** — the §3.1 justified/tracked
//!   maintenance-update counts from the shared `cup_core::justify`
//!   tracker;
//! * **the delivery plane** — per-kind hops, answered queries, the fault
//!   plane's breakdown, poisoned answers, and the latency and staleness
//!   histograms.
//!
//! Each scenario also checks that its script bit on the sim outcome (the
//! live outcomes equal it): fault-free runs answer every query and leave
//! no stale entry at quiesce; fault runs drop, crash, and retry;
//! Byzantine runs serve poisoned answers and repair them.
//!
//! The live side synchronizes exclusively on `LiveNetwork::quiesce()` —
//! there is not a single `thread::sleep` in the comparison, so the suite
//! cannot race on slow CI.

use cup::prelude::*;
use cup_testkit::conformance::{
    run_live, run_sim, run_sim_script, run_sim_traced, ConformanceSpec, Outcome, Step, DELETED_KEY,
};

/// The worker-count × shard-map grid the small scenarios sweep: the DES
/// is worker- and placement-blind, so every cell must reproduce its
/// outcome byte-for-byte.
const FULL_MATRIX: [(usize, ShardMapMode); 4] = [
    (1, ShardMapMode::Contiguous),
    (4, ShardMapMode::Contiguous),
    (1, ShardMapMode::OverlayAware),
    (4, ShardMapMode::OverlayAware),
];

/// At the 2k tier the matrix is thinned to its two extreme cells (the
/// serial pool and the sharded overlay-aware one) to bound suite
/// runtime; the full grid runs on the small scenarios.
const LARGE_MATRIX: [(usize, ShardMapMode); 2] = [
    (1, ShardMapMode::Contiguous),
    (4, ShardMapMode::OverlayAware),
];

/// Whole-`Outcome` equality, part by part first so a failure names the
/// struct that diverged: the fault plane, the protocol counters, the
/// caching sets, the delivery metrics, the justification counts.
fn assert_same_outcome(sim: &Outcome, live: &Outcome, label: &str) {
    assert_eq!(
        sim.net.faults, live.net.faults,
        "{label}: fault counters diverged"
    );
    assert_eq!(sim.stats, live.stats, "{label}: protocol counters diverged");
    assert_eq!(
        sim.cached_by, live.cached_by,
        "{label}: caching sets diverged"
    );
    assert_eq!(sim.net, live.net, "{label}: delivery metrics diverged");
    assert_eq!(
        (sim.justified, sim.tracked),
        (live.justified, live.tracked),
        "{label}: justification diverged"
    );
    assert_eq!(sim, live, "{label}: outcomes diverged");
}

/// Runs `spec` through the DES once and through the live pool at the
/// spec's own cell and at every matrix cell, asserting each live outcome
/// equals the sim's. Returns the sim outcome for the script-bit checks.
fn assert_matrix_agrees(spec: ConformanceSpec, matrix: &[(usize, ShardMapMode)]) -> Outcome {
    let sim = run_sim(&spec);
    let own = (spec.workers, spec.shard_map);
    for &(workers, shard_map) in std::iter::once(&own).chain(matrix) {
        let cell = ConformanceSpec {
            workers,
            shard_map,
            ..spec
        };
        let label = format!(
            "{} {:?} x {} nodes @ {workers} workers / {shard_map}",
            spec.kind, spec.faults, spec.nodes
        );
        assert_same_outcome(&sim, &run_live(&cell), &label);
    }
    sim
}

/// The fault-free scenarios: every scripted query answered, the refresh
/// rounds tracked, and no stale state at quiesce.
fn assert_fault_free_agrees(spec: ConformanceSpec, matrix: &[(usize, ShardMapMode)]) {
    let sim = assert_matrix_agrees(spec, matrix);
    let label = format!("{} x {} nodes", spec.kind, spec.nodes);
    let total = spec.total_queries();
    assert_eq!(
        sim.net.client_responses, total,
        "{label}: every query answered"
    );
    assert_eq!(
        sim.net.query_latency.count(),
        total,
        "{label}: one latency sample per answered query"
    );
    // Nothing expires in-script, so the only misses on a key a node has
    // cached are phase B's three probes of the deleted key, where a
    // prober had cached it before the delete emptied its record.
    assert!(
        sim.stats.freshness_misses <= 3,
        "{label}: nothing expires in-script, yet {} freshness misses",
        sim.stats.freshness_misses
    );
    assert!(
        sim.tracked > 0,
        "{label}: the refresh rounds must generate tracked maintenance updates"
    );
    // The deleted key is gone everywhere; the surviving keys are cached
    // somewhere (the workload touched them).
    for k in 0..spec.keys {
        let holders = &sim.cached_by[k as usize];
        if k == DELETED_KEY {
            assert!(
                holders.is_empty(),
                "{label}: nodes still cache the deleted key: {holders:?}"
            );
        } else {
            assert!(
                !holders.is_empty(),
                "{label}: k{k} must be cached somewhere"
            );
        }
    }
}

#[test]
fn sim_and_live_agree_on_can() {
    assert_fault_free_agrees(ConformanceSpec::small(OverlayKind::Can), &FULL_MATRIX);
}

#[test]
fn sim_and_live_agree_on_chord() {
    assert_fault_free_agrees(ConformanceSpec::small(OverlayKind::Chord), &FULL_MATRIX);
}

#[test]
fn sim_and_live_agree_on_can_at_2k_nodes() {
    assert_fault_free_agrees(ConformanceSpec::large(OverlayKind::Can), &LARGE_MATRIX);
}

#[test]
fn sim_and_live_agree_on_chord_at_2k_nodes() {
    assert_fault_free_agrees(ConformanceSpec::large(OverlayKind::Chord), &LARGE_MATRIX);
}

/// §3.6 aggregation with a `window`-second batch: the authorities' held
/// refresh batches are released by their own wakes at window end, on
/// the virtual clock's steps in the live runtime and between the queue's
/// events in the DES. The batches bit: fewer refreshes travel than with
/// the window off, and some still do. Refreshes are scripted on the 10 s
/// step grid, so every release lands `window` mod 10 s off it: mid-gap
/// for 25 s, and for 30 s at an instant it shares with a scripted step,
/// which the kernel's one tie rule orders the same way in both runtimes.
fn assert_batches_agree(kind: OverlayKind, window: u64) {
    let base = ConformanceSpec::batched(kind);
    let spec = ConformanceSpec {
        config: NodeConfig {
            refresh_batch_window: Some(SimDuration::from_secs(window)),
            ..base.config
        },
        ..base
    };
    assert_fault_free_agrees(spec, &FULL_MATRIX);
    let (sim, trace) = run_sim_traced(&spec, 1 << 16);
    let unbatched = ConformanceSpec {
        config: NodeConfig {
            refresh_batch_window: None,
            ..spec.config
        },
        ..spec
    };
    let plain = run_sim(&unbatched);
    assert!(
        0 < sim.net.refresh_hops && sim.net.refresh_hops < plain.net.refresh_hops,
        "{kind}: {} refresh hops batched, {} plain",
        sim.net.refresh_hops,
        plain.net.refresh_hops
    );
    let offset = window % 10 * 1_000_000;
    for ev in trace
        .sorted()
        .iter()
        .filter(|ev| ev.kind == TraceKind::Wake)
    {
        assert_eq!(ev.t.as_micros() % 10_000_000, offset, "{kind}: {ev:?}");
    }
}

#[test]
fn sim_and_live_agree_on_batched_refreshes_on_can() {
    assert_batches_agree(OverlayKind::Can, 25);
}

#[test]
fn sim_and_live_agree_on_batched_refreshes_on_chord() {
    assert_batches_agree(OverlayKind::Chord, 25);
}

#[test]
fn sim_and_live_agree_on_batches_released_on_the_step_grid_on_can() {
    assert_batches_agree(OverlayKind::Can, 30);
}

#[test]
fn sim_and_live_agree_on_batches_released_on_the_step_grid_on_chord() {
    assert_batches_agree(OverlayKind::Chord, 30);
}

/// A windowed fault script (the standard one or the timed windows) must
/// bite: loss dropped messages, every crash/restart cycle completed, and
/// with the paper-default 30 s `PFU_TIMEOUT` the stranded
/// Pending-First-Update flags retried upstream, one age sample each.
fn assert_faults_bit(sim: &Outcome, label: &str, cycles: u64) {
    let faults = sim.net.faults;
    assert!(faults.dropped_loss > 0, "{label}: loss never bit");
    assert!(faults.dropped() > 0, "{label}: nothing dropped");
    assert_eq!(
        (faults.crashes, faults.restarts),
        (cycles, cycles),
        "{label}: crash cycles"
    );
    assert!(
        sim.stats.pfu_retries > 0,
        "{label}: the 30 s PFU timeout never fired a retry"
    );
}

/// The standard fault script: a 25%-loss phase, a warm node crashing
/// and restarting at one instant, a crash/restart cycle, and a 2-way
/// partition, all driven by the same `cup-faults` plane with
/// the same seed — identical drop decisions on every link, identical
/// crash bookkeeping.
fn assert_agree_under_faults(kind: OverlayKind) {
    let sim = assert_matrix_agrees(ConformanceSpec::faulty(kind), &FULL_MATRIX);
    assert_faults_bit(&sim, &format!("{kind} faulty"), 2);
    assert!(
        sim.net.faults.dropped_partition > 0,
        "{kind}: partition never bit"
    );
}

#[test]
fn sim_and_live_agree_under_faults_on_can() {
    assert_agree_under_faults(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_under_faults_on_chord() {
    assert_agree_under_faults(OverlayKind::Chord);
}

/// The timed-window script: a loss window, a latency-spike window, and a
/// crash/restart window at absolute logical times (`drop:…@t=`,
/// `spike:…@t=`, `crash:…@t=A..B`), each edge a fault step landing at
/// the same logical instant in both runtimes.
fn assert_agree_on_timed_windows(kind: OverlayKind) {
    let sim = assert_matrix_agrees(ConformanceSpec::timed(kind), &FULL_MATRIX);
    assert_faults_bit(&sim, &format!("{kind} timed"), 1);
}

#[test]
fn sim_and_live_agree_on_timed_windows_on_can() {
    assert_agree_on_timed_windows(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_on_timed_windows_on_chord() {
    assert_agree_on_timed_windows(OverlayKind::Chord);
}

/// §3.7 capacity cuts as fault actions: a fifth of the nodes cut to 0.5
/// over the refresh rounds, then another fifth to 0 over the deletion,
/// each epoch recovering to full, and one node of the second crashing
/// and restarting inside its cut. Both
/// runtimes run the cut nodes' §2.8 service wakes, and the restarted
/// node's, at the same instants. The cuts bit: the sim's services are
/// traced, and the same script with every cut set to full capacity
/// delivers differently, serving fewer stale answers (the second
/// epoch's cut to 0 holds the deletion back at its authority).
fn assert_agree_under_capacity_cuts(kind: OverlayKind) {
    let spec = ConformanceSpec::throttled(kind);
    let sim = assert_matrix_agrees(spec, &FULL_MATRIX);
    assert_eq!(
        (sim.net.faults.crashes, sim.net.faults.restarts),
        (1, 1),
        "{kind}: the crash inside a cut"
    );
    let (_, trace) = run_sim_traced(&spec, 1 << 16);
    let services = (trace.sorted().iter())
        .filter(|ev| ev.kind == TraceKind::Wake && ev.detail == 0)
        .count();
    assert!(services > 0, "{kind}: no §2.8 service ran");
    let uncut: Vec<_> = (spec.script().into_iter())
        .map(|(at, step)| match step {
            Step::Fault(FaultAction::SetCapacity { node, .. }) => {
                (at, Step::Fault(FaultAction::SetCapacity { node, c: 1.0 }))
            }
            step => (at, step),
        })
        .collect();
    let full = run_sim_script(&spec, &uncut);
    assert_ne!(sim.net, full.net, "{kind}: the cuts changed no delivery");
    assert!(
        sim.net.stale_answers > full.net.stale_answers,
        "{kind}: no probe met the deletion the cut held back"
    );
}

#[test]
fn sim_and_live_agree_under_capacity_cuts_on_can() {
    assert_agree_under_capacity_cuts(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_under_capacity_cuts_on_chord() {
    assert_agree_under_capacity_cuts(OverlayKind::Chord);
}

/// The Byzantine cast: a stale-serving node parked on the deletion path
/// upstream of an honest witness, an update-dropper, and a
/// refresh-liar, with the rate-limited sampled cache audit switched on.
/// Both runtimes must agree on the *attack* and on the *defense*, across
/// shard splits where audit replies arrive in different orders.
fn assert_agree_under_byzantine(kind: OverlayKind) {
    let sim = assert_matrix_agrees(ConformanceSpec::byzantine(kind), &FULL_MATRIX);
    // The attack bit: the witness answered clients from poisoned state
    // (the stale server swallowed the deletion before it could arrive),
    // and the maintenance plane was corrupted.
    let (net, faults) = (&sim.net, sim.net.faults);
    assert!(
        net.stale_answers > 0,
        "{kind}: no poisoned answer was ever served"
    );
    assert!(
        net.stale_age_micros > 0,
        "{kind}: poisoned answers must age past the deletion"
    );
    assert!(
        faults.byz_updates_swallowed > 0,
        "{kind}: the deletion was never swallowed"
    );
    assert!(
        faults.byz_updates_dropped > 0,
        "{kind}: no refresh forward was dropped"
    );
    // The defense bit: serving poisoned traffic triggered audit rounds,
    // honest co-replica holders dissented, and the witness repaired.
    let stats = &sim.stats;
    assert!(
        stats.audits_started > 0,
        "{kind}: no audit round ever started"
    );
    assert!(
        stats.audit_probes_served > 0,
        "{kind}: no sampled node served a probe"
    );
    assert!(stats.audit_replies > 0, "{kind}: no audit reply came back");
    assert!(
        stats.audit_repairs > 0,
        "{kind}: the audit never repaired the cache"
    );
}

#[test]
fn sim_and_live_agree_under_byzantine_on_can() {
    assert_agree_under_byzantine(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_under_byzantine_on_chord() {
    assert_agree_under_byzantine(OverlayKind::Chord);
}

/// The staleness ground truth is every shard's, not the authority's:
/// with one node per shard, the Byzantine witness — whose deletion the
/// stale server upstream of it swallows, so every delete into it is
/// lost — serves its poisoned answers on a shard other than the deleted
/// key's authority's, and the live runtime still counts exactly the
/// answers the DES counts.
#[test]
fn stale_answers_are_judged_on_a_shard_other_than_the_authoritys() {
    for kind in OverlayKind::ALL {
        let base = ConformanceSpec::byzantine(kind);
        let spec = ConformanceSpec {
            workers: base.nodes,
            ..base
        };
        let witness = NodeId(spec.byzantine_cast().unwrap().witness as u32);
        let mut topo_rng = DetRng::seed_from(spec.topology_seed);
        let overlay = AnyOverlay::build(kind, spec.nodes, &mut topo_rng).unwrap();
        let map = ShardMap::build(spec.shard_map, &overlay, spec.workers);
        let authority = overlay.authority(KeyId(DELETED_KEY));
        assert_ne!(map.shard_of(witness), map.shard_of(authority), "{kind}");
        let (sim, live) = (run_sim(&spec), run_live(&spec));
        assert!(sim.net.stale_answers > 0, "{kind}: nothing stale served");
        assert_eq!(
            live.net.stale_answers, sim.net.stale_answers,
            "{kind}: stale answers"
        );
        assert_eq!(live.net.stale_age_hist, sim.net.stale_age_hist, "{kind}");
    }
}
