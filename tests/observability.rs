//! The observability plane across both runtimes: trace equality and
//! histogram agreement, end to end.
//!
//! The conformance suite (`tests/conformance.rs`) already pins the
//! histogram *state* byte-for-byte. This suite exercises the structured
//! event-trace layer on top of it:
//!
//! * the DES and the live runtime emit the **same event multiset** for
//!   the same scripted scenario — after canonical sorting, `trace_diff`
//!   finds no divergence and the JSONL exports are identical bytes;
//! * a perturbed run (different `script_seed`) is *detectably*
//!   different — `trace_diff` reports the first diverging event rather
//!   than a vague checksum mismatch;
//! * tracing is off by default and capturing it does not change the
//!   protocol outcome (observer effect check);
//! * the ring buffer keeps the tail and counts what it dropped.

use cup::prelude::*;
use cup_testkit::conformance::{
    run_live, run_live_traced, run_sim, run_sim_traced, ConformanceSpec,
};

/// Plenty for the small scenarios: every event fits, nothing dropped.
const TRACE_CAP: usize = 1 << 16;

fn assert_traces_agree(spec: ConformanceSpec) {
    let label = format!("{} x {} nodes", spec.kind, spec.nodes);
    let (sim_out, sim_trace) = run_sim_traced(&spec, TRACE_CAP);
    let (live_out, live_trace) = run_live_traced(&spec, TRACE_CAP);

    assert_eq!(sim_trace.dropped(), 0, "{label}: sim trace overflowed");
    assert_eq!(live_trace.dropped(), 0, "{label}: live trace overflowed");
    assert!(!sim_trace.is_empty(), "{label}: sim trace captured nothing");
    assert_eq!(
        sim_trace.len(),
        live_trace.len(),
        "{label}: event counts diverged"
    );

    // Canonical order: the live runtime records events in worker-arrival
    // order, the DES in delivery order; `trace_diff` sorts both by
    // (t, node, kind, key, detail), which collapses them to the same
    // sequence iff the multisets match.
    assert_eq!(
        trace_diff(&sim_trace, &live_trace),
        None,
        "{label}: traces diverged"
    );

    // The JSONL exports are byte-identical, so `diff` on the artifact
    // files is a meaningful CI check.
    assert_eq!(
        sim_trace.export_jsonl(),
        live_trace.export_jsonl(),
        "{label}: JSONL exports diverged"
    );

    // Observer effect: tracing must not change the outcome.
    let (sim_plain, live_plain) = (run_sim(&spec), run_live(&spec));
    assert_eq!(sim_out, sim_plain, "{label}: tracing changed the sim run");
    assert_eq!(
        live_out, live_plain,
        "{label}: tracing changed the live run"
    );
}

#[test]
fn traces_agree_on_can() {
    assert_traces_agree(ConformanceSpec::small(OverlayKind::Can));
}

/// The §3.6 batch releases show in both traces as the authorities' own
/// wakes, at the same instants, rather than refreshes from nowhere.
#[test]
fn traces_agree_on_batched_refreshes() {
    let spec = ConformanceSpec::batched(OverlayKind::Chord);
    assert_traces_agree(spec);
    let (_, trace) = run_live_traced(&spec, TRACE_CAP);
    let releases = trace
        .sorted()
        .into_iter()
        .filter(|ev| ev.kind == TraceKind::Wake);
    let releases: Vec<TraceEvent> = releases.collect();
    assert!(!releases.is_empty(), "no batch was released");
    for ev in releases {
        assert_eq!(ev.detail, 1, "a release, not a capacity service: {ev:?}");
        assert_eq!(ev.t.as_micros() % 10_000_000, 5_000_000, "mid-gap: {ev:?}");
    }
}

#[test]
fn traces_agree_on_chord() {
    assert_traces_agree(ConformanceSpec::small(OverlayKind::Chord));
}

#[test]
fn traces_agree_under_faults_on_chord() {
    assert_traces_agree(ConformanceSpec::faulty(OverlayKind::Chord));
}

/// A perturbed workload produces a *located* divergence: `trace_diff`
/// names the first event where the runs part ways instead of merely
/// failing an aggregate comparison.
#[test]
fn trace_diff_pinpoints_a_perturbed_run() {
    let base = ConformanceSpec::small(OverlayKind::Can);
    let perturbed = ConformanceSpec {
        script_seed: base.script_seed + 1,
        ..base
    };
    let (_, a) = run_sim_traced(&base, TRACE_CAP);
    let (_, b) = run_sim_traced(&perturbed, TRACE_CAP);
    let div = trace_diff(&a, &b).expect("perturbing the script seed must move some event");
    // The divergence names a real position in at least one trace, and
    // the events there genuinely differ.
    let (sa, sb) = (a.sorted(), b.sorted());
    assert!(div.index <= sa.len() && div.index <= sb.len());
    assert_ne!(
        sa.get(div.index),
        sb.get(div.index),
        "reported divergence must hold at the reported index"
    );
    assert_eq!(div.left, sa.get(div.index).copied());
    assert_eq!(div.right, sb.get(div.index).copied());
}

/// Identical runs diff clean even when compared against themselves
/// re-run from scratch: the trace is a pure function of the spec.
#[test]
fn traces_are_reproducible_across_reruns() {
    let spec = ConformanceSpec::small(OverlayKind::Chord);
    let (_, a) = run_sim_traced(&spec, TRACE_CAP);
    let (_, b) = run_sim_traced(&spec, TRACE_CAP);
    assert_eq!(a.sorted(), b.sorted());
    let (_, c) = run_live_traced(&spec, TRACE_CAP);
    let (_, d) = run_live_traced(&spec, TRACE_CAP);
    assert_eq!(c.sorted(), d.sorted());
}

/// The ring buffer under pressure: a tiny capacity keeps the most
/// recent events and reports exactly how many fell off the front.
#[test]
fn tiny_trace_capacity_keeps_the_tail() {
    let spec = ConformanceSpec::small(OverlayKind::Can);
    let (_, full) = run_sim_traced(&spec, TRACE_CAP);
    let cap = 32;
    let (_, small) = run_sim_traced(&spec, cap);
    assert_eq!(small.len(), cap, "ring must be full");
    assert_eq!(
        small.dropped() + cap as u64,
        full.len() as u64,
        "dropped + kept must account for every event"
    );
    // The kept events are the *last* `cap` in emission order — their
    // multiset is a subset of the full trace's.
    let full_sorted = full.sorted();
    for ev in small.sorted() {
        assert!(
            full_sorted.binary_search(&ev).is_ok(),
            "tail event missing from the full trace: {ev:?}"
        );
    }
}

/// The live runtime keeps one ring per shard, each of `cap` events:
/// the merged trace holds what every shard kept, and what the shards
/// dropped plus what they kept still accounts for every event.
#[test]
fn tiny_live_trace_capacity_keeps_each_shards_tail() {
    let spec = ConformanceSpec::small(OverlayKind::Can);
    assert_eq!(spec.workers, 3);
    let (_, full) = run_live_traced(&spec, TRACE_CAP);
    assert_eq!(full.dropped(), 0);
    let cap = 32;
    let (_, small) = run_live_traced(&spec, cap);
    assert!(
        small.len() > cap && small.len() <= spec.workers * cap,
        "up to {cap} per shard, and more than one shard filled: {}",
        small.len()
    );
    assert_eq!(
        small.dropped() + small.len() as u64,
        full.len() as u64,
        "dropped + kept must account for every event"
    );
    let full_sorted = full.sorted();
    for ev in small.sorted() {
        assert!(
            full_sorted.binary_search(&ev).is_ok(),
            "tail event missing from the full trace: {ev:?}"
        );
    }
}

/// Latency histograms carry real (non-degenerate) samples once the
/// clock advances between post and respond: the simnet experiment path
/// records wall-clock-equivalent virtual latencies.
#[test]
fn experiment_latency_histograms_are_non_degenerate() {
    let scenario = Scenario {
        nodes: 64,
        keys: 4,
        query_rate: 10.0,
        query_start: SimTime::from_secs(300),
        query_end: SimTime::from_secs(800),
        sim_end: SimTime::from_secs(1_500),
        ..Scenario::default()
    };
    let r = run_experiment(&ExperimentConfig::cup(scenario));
    let hist = &r.net.query_latency;
    assert!(hist.count() > 0, "no latency samples recorded");
    // Cache hits answer locally in zero virtual time, so the *median*
    // may be zero; the tail must not be — first-time misses traverse
    // overlay hops under the latency model.
    assert!(
        hist.quantile(1000) > 0,
        "max query latency must be positive"
    );
    let p50 = r.query_latency_us(500);
    let p99 = r.query_latency_us(990);
    assert!(p99 >= p50, "p99 must dominate p50 ({p99} < {p50})");
}
