//! Sim-vs-live conformance: the same protocol, two runtimes, one truth.
//!
//! `cup_testkit::conformance` scripts one scenario — replica births, a
//! serialized query workload, a deletion, more queries — through the
//! deterministic DES *and* the sharded worker-pool live runtime over the
//! same topology, for **both** overlay substrates (CAN and Chord) and at
//! two scales (24 nodes and 2 048 nodes). This suite asserts the
//! protocol-level outcomes agree:
//!
//! * **cache-hit accounting** — aggregate client queries, hits, and
//!   first-time misses are identical;
//! * **update delivery** — updates received/forwarded agree, and the
//!   *set of nodes* caching each key is identical;
//! * **justified-update accounting** — the §3.1 justified/tracked
//!   maintenance-update counts (and per-kind hop counts) agree exactly:
//!   both runtimes report the same investment return from the shared
//!   `cup_core::justify` tracker;
//! * **no stale entries at quiesce** — after the deletion propagates,
//!   no node in either runtime still caches or indexes the deleted
//!   replica, and every surviving cached entry is fresh.
//!
//! The live side synchronizes exclusively on `LiveNetwork::quiesce()` —
//! there is not a single `thread::sleep` in the comparison, so the suite
//! cannot race on slow CI.

use cup::prelude::*;
use cup_testkit::conformance::{run_live, run_sim, ConformanceSpec, Outcome, DELETED_KEY};

/// The worker-count × shard-map grid the small scenarios sweep: the DES
/// is worker- and placement-blind, so every cell must reproduce its
/// outcome byte-for-byte.
const FULL_MATRIX: [(usize, ShardMapMode); 4] = [
    (1, ShardMapMode::Contiguous),
    (4, ShardMapMode::Contiguous),
    (1, ShardMapMode::OverlayAware),
    (4, ShardMapMode::OverlayAware),
];

/// Hops by message kind — query, first-time, refresh, delete, append,
/// clear-bit (the six of the §3.3 cost model), audit — then the answers
/// handed to clients. Both runtimes must agree entry by entry.
fn traffic(outcome: &Outcome) -> [u64; 8] {
    let net = &outcome.net;
    [
        net.query_hops,
        net.first_time_hops,
        net.refresh_hops,
        net.delete_hops,
        net.append_hops,
        net.clear_bit_hops,
        net.audit_hops,
        net.client_responses,
    ]
}

/// What every scenario demands of a sim/live pair: byte-identical
/// protocol counters (`stats` holds the recovery and audit counters —
/// PFU retries, audit rounds and repairs, with their PFU-retry-age and
/// audit round-trip histograms — that the virtual clock and the
/// adversarial plane exist for), caching sets, economics
/// (justified/tracked counts and per-kind hops) and failure plane —
/// neither runtime hides drops or routing failures from the comparison
/// (all zero without a fault script; under one, the full breakdown —
/// crash bookkeeping and behavior-fault counters included — must match).
fn assert_outcomes_agree(sim: &Outcome, live: &Outcome, label: &str) {
    let (sim_faults, live_faults) = (sim.net.faults, live.net.faults);
    assert_eq!(sim_faults, live_faults, "{label}: fault counters diverged");
    assert_eq!(
        sim.net.dropped_messages + sim_faults.dropped(),
        live.net.dropped_messages + live_faults.dropped(),
        "{label}: dropped-message totals diverged"
    );
    // Name the counters the scenarios exist to pin — cache-hit
    // accounting, update delivery, the decision plane (cut-offs and
    // clear-bit traffic) — before the whole-struct comparison.
    let (s, l) = (&sim.stats, &live.stats);
    for (what, in_sim, in_live) in [
        ("client query", s.client_queries, l.client_queries),
        ("cache-hit", s.client_hits, l.client_hits),
        ("first-time miss", s.first_time_misses, l.first_time_misses),
        ("update delivery", s.updates_received, l.updates_received),
        ("update forward", s.updates_forwarded, l.updates_forwarded),
        ("neighbor query", s.neighbor_queries, l.neighbor_queries),
        ("cut-off", s.cutoffs, l.cutoffs),
        ("clear-bit", s.clear_bits_sent, l.clear_bits_sent),
    ] {
        assert_eq!(in_sim, in_live, "{label}: {what} counts diverged");
    }
    assert_eq!(sim.stats, live.stats, "{label}: protocol counters diverged");
    assert_eq!(
        sim.cached_by, live.cached_by,
        "{label}: caching sets diverged"
    );
    assert_eq!(
        traffic(sim),
        traffic(live),
        "{label}: hop or answered-query counts diverged"
    );
    assert_eq!(
        (sim.justified, sim.tracked),
        (live.justified, live.tracked),
        "{label}: justification diverged"
    );
    assert_eq!(
        sim.net.routing_failures, live.net.routing_failures,
        "{label}: routing failures diverged"
    );
    assert_eq!(
        (sim.net.stale_answers, sim.net.stale_age_micros),
        (live.net.stale_answers, live.net.stale_age_micros),
        "{label}: poisoned-answer accounting diverged"
    );
    // The observability plane agrees byte-for-byte: the latency and
    // staleness histograms are multiset summaries of per-event samples,
    // so identical protocol behavior must produce identical bucket
    // state — even when drops and crashes reshuffle delivery (swallowed
    // queries must be *forgotten* by both runtimes, not recorded by
    // one). Under the conformance clock (zero per-hop latency) the
    // latency samples are all zero — degenerate, but the *counts* still
    // pin one sample per answered query / retried PFU / audit reply.
    assert_eq!(
        sim.net.query_latency, live.net.query_latency,
        "{label}: query-latency histograms diverged"
    );
    assert_eq!(
        sim.net.stale_age_hist, live.net.stale_age_hist,
        "{label}: staleness-age histograms diverged"
    );
}

fn assert_sim_live_agree(spec: ConformanceSpec) {
    assert_sim_live_agree_matrix(spec, &FULL_MATRIX);
}

fn assert_sim_live_agree_matrix(spec: ConformanceSpec, matrix: &[(usize, ShardMapMode)]) {
    let (sim, live) = (run_sim(&spec), run_live(&spec));
    let label = format!("{} x {} nodes", spec.kind, spec.nodes);

    // Every scripted query was answered in both runtimes.
    let total = spec.total_queries();
    let answered = |outcome: &Outcome| outcome.net.client_responses;
    assert_eq!(answered(&sim), total, "{label}: sim answered every query");
    assert_eq!(answered(&live), total, "{label}: live answered every query");

    assert_eq!(
        (sim.stats.freshness_misses, live.stats.freshness_misses),
        (0, 0),
        "{label}: nothing expires in-script"
    );

    // The caching sets, the economics, the failure plane and the
    // observability plane agree byte-for-byte.
    assert!(
        sim.tracked > 0,
        "{label}: the refresh rounds must generate tracked maintenance updates"
    );
    assert_outcomes_agree(&sim, &live, &label);

    assert_eq!(
        sim.net.query_latency.count(),
        total,
        "{label}: one latency sample per answered query"
    );

    // No stale state at quiesce: the deleted key is gone everywhere.
    assert!(
        sim.cached_by[DELETED_KEY as usize].is_empty(),
        "{label}: sim nodes still cache the deleted key: {:?}",
        sim.cached_by[DELETED_KEY as usize]
    );
    assert!(
        live.cached_by[DELETED_KEY as usize].is_empty(),
        "{label}: live nodes still cache the deleted key: {:?}",
        live.cached_by[DELETED_KEY as usize]
    );
    // The surviving keys are cached somewhere (the workload touched
    // them), in the same places.
    for k in (0..spec.keys).filter(|&k| k != DELETED_KEY) {
        assert!(
            !sim.cached_by[k as usize].is_empty(),
            "{label}: k{k} must be cached somewhere"
        );
    }

    // Sharding is invisible: every worker count × placement mode in the
    // matrix reproduces the DES outcome byte-for-byte, whole-`Outcome`
    // equality included.
    for &(workers, shard_map) in matrix {
        let cell = ConformanceSpec {
            workers,
            shard_map,
            ..spec
        };
        let cell_live = run_live(&cell);
        let cell_label = format!("{label} @ {workers} workers / {shard_map}");
        assert_eq!(sim, cell_live, "{cell_label}: outcomes diverged");
    }
}

#[test]
fn sim_and_live_agree_on_can() {
    assert_sim_live_agree(ConformanceSpec::small(OverlayKind::Can));
}

#[test]
fn sim_and_live_agree_on_chord() {
    assert_sim_live_agree(ConformanceSpec::small(OverlayKind::Chord));
}

/// At the 2k tier the matrix is thinned to its two extreme cells (the
/// serial pool and the sharded overlay-aware one) to bound suite
/// runtime; the full grid runs on the small scenarios above.
const LARGE_MATRIX: [(usize, ShardMapMode); 2] = [
    (1, ShardMapMode::Contiguous),
    (4, ShardMapMode::OverlayAware),
];

#[test]
fn sim_and_live_agree_on_can_at_2k_nodes() {
    assert_sim_live_agree_matrix(ConformanceSpec::large(OverlayKind::Can), &LARGE_MATRIX);
}

#[test]
fn sim_and_live_agree_on_chord_at_2k_nodes() {
    assert_sim_live_agree_matrix(ConformanceSpec::large(OverlayKind::Chord), &LARGE_MATRIX);
}

/// Sim-vs-live agreement under the standard fault script: a 25%-loss
/// phase, a crash/restart cycle, and a 2-way partition, all driven by
/// the same `cup-faults` plane with the same seed. Agreement must cover
/// not just the protocol counters but the fault plane itself — identical
/// drop decisions on every link, identical crash bookkeeping — and the
/// script must actually bite (messages dropped in every category).
fn assert_sim_live_agree_under_faults(base: ConformanceSpec, label: &str) {
    let sim = run_sim(&base);
    // The DES is worker- and placement-blind; the live side must match
    // it from the serial pool, from a sharded one, and under either
    // shard-map mode.
    for &(workers, shard_map) in &FULL_MATRIX {
        let spec = ConformanceSpec {
            workers,
            shard_map,
            ..base
        };
        let label = format!("{label} @ {workers} workers / {shard_map}");
        let live = run_live(&spec);
        assert_outcomes_agree(&sim, &live, &label);
    }
    // Each fired retry contributed a PFU-age sample.
    assert_eq!(
        sim.stats.pfu_retry_age.count(),
        sim.stats.pfu_retries,
        "{label}: one age sample per PFU retry"
    );
    // The timeout must be live, not parked: with the paper-default 30 s
    // `pfu_timeout`, losses strand Pending-First-Update flags and later
    // queries past the timeout retry upstream.
    assert!(
        sim.stats.pfu_retries > 0,
        "{label}: the 30 s PFU timeout never fired a retry"
    );
}

#[test]
fn sim_and_live_agree_under_faults_on_can() {
    let spec = ConformanceSpec::faulty(OverlayKind::Can);
    // The script must be non-trivial: loss, crash, and partition all
    // fired and all dropped something.
    let sim = run_sim(&spec);
    assert!(sim.net.faults.dropped_loss > 0, "loss never bit");
    assert!(sim.net.faults.dropped_partition > 0, "partition never bit");
    assert_eq!(sim.net.faults.crashes, 1);
    assert_eq!(sim.net.faults.restarts, 1);
    assert!(sim.net.faults.dropped() > 0);
    assert_sim_live_agree_under_faults(spec, "can faulty");
}

#[test]
fn sim_and_live_agree_under_faults_on_chord() {
    let spec = ConformanceSpec::faulty(OverlayKind::Chord);
    let sim = run_sim(&spec);
    assert!(sim.net.faults.dropped_loss > 0, "loss never bit");
    assert!(sim.net.faults.dropped_partition > 0, "partition never bit");
    assert_eq!(sim.net.faults.crashes, 1);
    assert_eq!(sim.net.faults.restarts, 1);
    assert_sim_live_agree_under_faults(spec, "chord faulty");
}

/// Sim-vs-live agreement under the *timed-window* fault script: a loss
/// window, a latency-spike window, and a crash/restart window at
/// absolute logical times (`drop:…@t=`, `spike:…@t=`, `crash:…@t=A..B`).
/// The DES executes the windows as scheduled events; the live runtime
/// replays the identical `FaultPlan` against its virtual clock — every
/// window edge lands at the same logical instant in both.
fn assert_sim_live_agree_on_timed_windows(kind: OverlayKind) {
    let spec = ConformanceSpec::timed(kind);
    let label = format!("{kind} timed");
    let sim = run_sim(&spec);
    // Every window must bite: loss dropped messages, the crash cycle
    // completed, and the stranded-PFU recovery path actually ran.
    assert!(sim.net.faults.dropped_loss > 0, "{label}: loss never bit");
    assert_eq!(sim.net.faults.crashes, 1, "{label}");
    assert_eq!(sim.net.faults.restarts, 1, "{label}");
    assert!(sim.net.faults.dropped() > 0, "{label}");
    assert_sim_live_agree_under_faults(spec, &label);
}

#[test]
fn sim_and_live_agree_on_timed_windows_on_can() {
    assert_sim_live_agree_on_timed_windows(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_on_timed_windows_on_chord() {
    assert_sim_live_agree_on_timed_windows(OverlayKind::Chord);
}

/// Sim-vs-live agreement under the Byzantine cast: a stale-serving node
/// parked on the deletion path upstream of an honest witness, an
/// update-dropper, and a refresh-liar — with the rate-limited sampled
/// cache audit switched on. Both runtimes must agree byte-for-byte on
/// the *attack* (poisoned client answers and their summed staleness age,
/// the behavior-fault counters) and on the *defense* (audit rounds
/// started, probes served, replies processed, repairs executed) — at 1
/// worker and across a 4-way shard split, where audit replies can arrive
/// in different orders.
fn assert_sim_live_agree_under_byzantine(kind: OverlayKind) {
    let spec = ConformanceSpec::byzantine(kind);
    let sim = run_sim(&spec);

    // The attack bit: the witness answered clients from poisoned state
    // (the stale server swallowed the deletion before it could arrive),
    // and the maintenance plane was corrupted.
    assert!(
        sim.net.stale_answers > 0,
        "{kind} byzantine: no poisoned answer was ever served"
    );
    assert!(
        sim.net.stale_age_micros > 0,
        "{kind} byzantine: poisoned answers must age past the deletion"
    );
    assert!(
        sim.net.faults.byz_updates_swallowed > 0,
        "{kind} byzantine: the stale server never swallowed the deletion"
    );
    assert!(
        sim.net.faults.byz_updates_dropped > 0,
        "{kind} byzantine: the update-dropper never bit a refresh forward"
    );

    // The defense bit: serving poisoned traffic triggered audit rounds,
    // honest co-replica holders dissented, and the witness repaired.
    assert!(
        sim.stats.audits_started > 0,
        "{kind} byzantine: no audit round ever started"
    );
    assert!(
        sim.stats.audit_probes_served > 0,
        "{kind} byzantine: no sampled node served a probe"
    );
    assert!(
        sim.stats.audit_replies > 0,
        "{kind} byzantine: no audit reply came back"
    );
    assert!(
        sim.stats.audit_repairs > 0,
        "{kind} byzantine: the audit never repaired the poisoned cache"
    );

    // The DES is worker- and placement-blind; the live side must match
    // it from the serial pool and from a sharded one under either
    // shard-map mode (audit replies then interleave differently — the
    // repair outcome must not care).
    for &(workers, shard_map) in &FULL_MATRIX {
        let live_spec = ConformanceSpec {
            workers,
            shard_map,
            ..spec
        };
        let label = format!("{kind} byzantine @ {workers} workers / {shard_map}");
        let live = run_live(&live_spec);
        assert_outcomes_agree(&sim, &live, &label);
    }
}

#[test]
fn sim_and_live_agree_under_byzantine_on_can() {
    assert_sim_live_agree_under_byzantine(OverlayKind::Can);
}

#[test]
fn sim_and_live_agree_under_byzantine_on_chord() {
    assert_sim_live_agree_under_byzantine(OverlayKind::Chord);
}
