//! Self-tests of the benchmark's own machinery: order statistics, the
//! JSON emitter, input generation, and the metric tables.

use cupbench::json::Json;
use cupbench::script::{des_script, live_script, Size};
use cupbench::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use cupbench::stats::{median, percentile, quartiles, sorted, spread, tail_percentile, Summary};

#[test]
fn median_and_quartiles_match_pythons_exclusive_method() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 20, 15], n=4): the ends clamp.
    assert_eq!(quartiles(&[10.0, 20.0, 15.0]), [10.0, 15.0, 20.0]);
    // statistics.quantiles([1, 2], n=4) extrapolates beyond the data.
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(spread(&ten), Some(5.5 / 5.5));
    assert_eq!(spread(&[7.0]), None);
    let s = Summary::of(&ten);
    assert_eq!((s.q1, s.median, s.q3, s.count), (2.75, 5.5, 8.25, 10));
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let v = sorted(&(1..=1000).map(f64::from).collect::<Vec<_>>());
    assert_eq!(percentile(&v, 50.0), 500.0);
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(percentile(&v, 100.0), 1000.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
    // Thirty round samples support no tail at all; a hundred support
    // p90; a thousand p99; fifteen thousand probe samples p99.9.
    assert_eq!(tail_percentile(30), None);
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(15_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
}

fn is_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn is_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn emitted_json_parses_back() {
    let doc = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(315_000.0)),
        ("value", Json::Num(1.203_456_789_012_3)),
        ("tiny", Json::Num(3.5e-7)),
        (
            "text",
            Json::Str("a \"quoted\" \\ line\nbreak\tµs".to_string()),
        ),
        ("list", Json::Arr(vec![Json::Null, Json::Num(-2.0)])),
        (
            "nested",
            Json::obj([("unit", Json::Str("queries/s".to_string()))]),
        ),
    ]);
    let text = doc.to_string();
    assert!(!text.contains('\n'), "a result is one line");
    assert_eq!(Json::parse(&text).unwrap(), doc);
    // Whole numbers print without a fraction, measured ones keep every digit.
    assert!(text.contains("\"attempted\": 315000,"));
    assert!(text.contains("1.2034567890123"));
    for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn names_units_and_reasons_fit_the_contract() {
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_metric_name(m.name), "{}", m.name);
        assert!(is_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is listed twice", m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!(PER_LAYER.len() <= 128);
    let setup = spec::metric("setup_s").unwrap();
    assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
    for w in &WORKLOADS {
        assert!(is_metric_name(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert_eq!(spec::workload(w.name), Some(w));
    }
}

/// `/BENCHMARK.json` is written by hand; it must say what the tables in
/// `spec.rs` say. Skipped where the file is absent (a bare copy of
/// `benchmark/`).
#[test]
fn benchmark_json_agrees_with_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let doc = Json::parse(&text).unwrap();
    let keys: Vec<_> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(cupbench::cli::DEFAULT_SECONDS as f64)
    );
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key} is {other:?}"),
    };
    let text_of =
        |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
    let workloads: Vec<_> = list("workloads")
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let expected: Vec<_> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, expected);
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), table.len(), "{key}");
        for (item, m) in listed.iter().zip(table) {
            assert_eq!(text_of(item, "name"), m.name);
            assert_eq!(text_of(item, "unit"), m.unit, "{}", m.name);
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text_of(item, "better"), better, "{}", m.name);
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }
}

#[test]
fn scripts_are_a_pure_function_of_the_seed() {
    for w in &WORKLOADS {
        assert_eq!(des_script(w, 7, Size::Full), des_script(w, 7, Size::Full));
        assert_ne!(des_script(w, 7, Size::Full), des_script(w, 8, Size::Full));
        let a = live_script(w, 7, 4, Size::Full);
        assert_eq!(a, live_script(w, 7, 4, Size::Full));
        assert_ne!(a.rounds, live_script(w, 8, 4, Size::Full).rounds);
        // The round count follows --seconds, never the clock.
        assert_eq!(a.rounds.len(), a.warmup_rounds + 10);
        assert_eq!(
            live_script(w, 7, 12, Size::Full).rounds.len(),
            a.warmup_rounds + 30
        );
        // The same seed draws the same rounds however many follow them.
        assert_eq!(
            live_script(w, 7, 12, Size::Full).rounds[..a.rounds.len()],
            a.rounds[..]
        );
        let first = &a.rounds[0];
        assert_eq!(first.burst.len(), 10_000);
        assert_eq!(first.probe.is_empty(), w.armed);
        assert!(first
            .burst
            .iter()
            .all(|&(node, key)| (node as usize) < a.nodes && key < a.keys));
        // Retry waves must fit inside the round, and the round inside
        // the entry lifetime.
        let waves = cupbench::script::MAX_RETRY_WAVES as u64 * cupbench::script::RETRY_WAVE_SECS;
        assert!(!w.armed || waves <= a.round_secs);
        assert!(a.round_secs < a.lifetime_secs);
    }
    // Zipf 0.9: key 0 is the hottest by a wide margin.
    let s = live_script(&WORKLOADS[2], 1, 4, Size::Full);
    let hits = |k| {
        s.rounds[0]
            .burst
            .iter()
            .filter(|&&(_, key)| key == k)
            .count()
    };
    assert!(hits(0) > 3 * hits(10) && hits(10) > hits(200));
    // Armed DES scripts carry the fault plan; plain ones none.
    assert!(des_script(&WORKLOADS[0], 1, Size::Full)
        .fault_plan
        .is_empty());
    let armed = des_script(&WORKLOADS[1], 1, Size::Full);
    assert_eq!(armed.fault_plan.len(), 3);
    assert!(armed.track_justification && armed.replica_mean_life_secs == Some(600));
}
