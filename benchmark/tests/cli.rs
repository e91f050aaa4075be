//! Drives both binaries the way a user does: the smoke-sized run of all
//! four workloads, the traced pass, and `diff`.

// Measuring wall time is this package's job (see /clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use cupbench::json::Json;
use cupbench::spec::{END_TO_END, PER_LAYER, WORKLOADS};

const CUPBENCH: &str = env!("CARGO_BIN_EXE_cupbench");
const CUPBENCH_TRACE: &str = env!("CARGO_BIN_EXE_cupbench-trace");

fn scratch(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn records(path: &Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect()
}

/// Checks one record: right workload, correct, nothing failed, and
/// exactly the metrics of `table`, each with its unit.
fn check_record(record: &Json, workload: &str, table: &[cupbench::spec::Metric]) {
    assert_eq!(
        record.get("workload").and_then(Json::as_str),
        Some(workload)
    );
    assert_eq!(record.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(record.get("failed"), Some(&Json::Num(0.0)), "{workload}");
    assert!(record.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = record.get("metrics").unwrap().fields();
    let names: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<_> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "{workload}");
    for ((_, value), m) in metrics.iter().zip(table) {
        assert_eq!(value.get("unit").and_then(Json::as_str), Some(m.unit));
        let v = value.get("value").and_then(Json::as_f64).unwrap();
        assert!(v.is_finite(), "{workload} {} = {v}", m.name);
    }
}

#[test]
fn smoke_run_drives_all_four_workloads_and_both_binaries() {
    let started = Instant::now();
    let e2e = scratch("smoke-e2e.jsonl");
    let run = Command::new(CUPBENCH)
        .args(["run", "--smoke", "--seed", "5", "--out"])
        .arg(&e2e)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let e2e_records = records(&e2e);
    assert_eq!(e2e_records.len(), WORKLOADS.len());
    for (record, w) in e2e_records.iter().zip(&WORKLOADS) {
        check_record(record, w.name, &END_TO_END);
        assert_eq!(record.get("trace"), Some(&Json::Bool(false)));
        // End-to-end metrics are never 0.
        for (name, value) in record.get("metrics").unwrap().fields() {
            assert!(
                value.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{} {name}",
                w.name
            );
        }
        // Every metric is printed by name with median, quartiles and count.
        for m in &END_TO_END {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(w.name) && l.contains(m.name))
                .unwrap_or_else(|| panic!("{} {} not printed", w.name, m.name));
            assert!(
                line.contains(" q1 ") && line.contains(" q3 ") && line.contains(" n "),
                "{line}"
            );
        }
    }

    let traced = scratch("smoke-trace.jsonl");
    let run = Command::new(CUPBENCH_TRACE)
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&traced)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let traced_records = records(&traced);
    assert_eq!(traced_records.len(), WORKLOADS.len());
    for (record, w) in traced_records.iter().zip(&WORKLOADS) {
        check_record(record, w.name, &PER_LAYER);
        assert_eq!(record.get("trace"), Some(&Json::Bool(true)));
        let value = |name: &str| {
            record
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        // The microbenchmarks run on every workload; the runtime a
        // workload does not use reads 0.
        assert!(value("core.query_hit_ns") > 0.0 && value("des.queue_pair_ns") > 0.0);
        assert!(
            value("core.handler_allocs_per_op") > 0.0,
            "the counting allocator is installed"
        );
        assert!(value("core.node_bytes_per_key") > 0.0);
        assert_eq!(value("runtime.hops") > 0.0, w.live, "{}", w.name);
        assert_eq!(value("simnet.events") > 0.0, !w.live, "{}", w.name);
        assert_eq!(value("runtime.scaling_2w_over_1w_queries") > 0.0, w.live);
        assert_eq!(
            value("simnet.cup_over_std_cost") > 0.0,
            w.name == "des_plain_can"
        );
        // One span file per workload, one object per line, parents first.
        let spans = std::fs::read_to_string(format!("out/trace-{}.jsonl", w.name)).unwrap();
        let lines: Vec<_> = spans.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len() as f64, value("bench.spans"));
        for (id, span) in lines.iter().enumerate() {
            assert_eq!(span.get("id"), Some(&Json::Num(id as f64)));
            assert!(span.get("end_ns").unwrap().as_f64() >= span.get("start_ns").unwrap().as_f64());
            if let Some(parent) = span.get("parent").and_then(Json::as_f64) {
                assert!((parent as usize) < id);
            }
        }
        let expected = if w.live {
            "burst.quiesce"
        } else {
            "simnet.run_experiment"
        };
        assert!(
            spans.contains(expected),
            "{} has no {expected} span",
            w.name
        );
    }

    // The driver's form: one workload, one process, the result last.
    let one = Command::new(CUPBENCH)
        .args([
            "--workload",
            "live_armed_chord",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            "1",
            "--smoke",
        ])
        .output()
        .unwrap();
    assert!(one.status.success());
    let text = String::from_utf8_lossy(&one.stdout);
    let last = Json::parse(text.lines().last().unwrap()).unwrap();
    let keys: Vec<_> = last.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("metrics").unwrap().fields().len(), PER_LAYER.len());

    assert!(
        started.elapsed().as_secs() < 15,
        "the smoke run took {:?}",
        started.elapsed()
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x", "--workload", "des_plain_can"],
        &["--frobnicate", "1"],
        &["--seed"],
        &["diff", "only-one"],
        &[],
    ] {
        let out = Command::new(CUPBENCH).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}

/// Ten passes of one workload whose `queries_per_s` is `qps`, with a
/// little deterministic jitter so the quartiles are not degenerate.
fn passes(qps: f64, failed: u32) -> String {
    (0..10)
        .map(|i| {
            let wobble = 1.0 + f64::from(i % 5) * 0.002;
            format!(
                "{{\"workload\": \"live_plain_can\", \"seed\": {i}, \"trace\": false, \"correct\": true, \
                 \"attempted\": 1000, \"failed\": {failed}, \"metrics\": {{\
                 \"setup_s\": {{\"value\": {}, \"unit\": \"s\"}}, \
                 \"queries_per_s\": {{\"value\": {}, \"unit\": \"queries/s\"}}, \
                 \"updates_per_s\": {{\"value\": {}, \"unit\": \"updates/s\"}}, \
                 \"peak_rss_mb\": {{\"value\": 600.5, \"unit\": \"MiB\"}}}}}}\n",
                1.5 * wobble,
                qps * wobble,
                2000.0 * wobble
            )
        })
        .collect()
}

fn diff(a: &Path, b: &Path) -> (Option<i32>, String) {
    let out = Command::new(CUPBENCH)
        .arg("diff")
        .arg(a)
        .arg(b)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn diff_judges_each_metric_by_its_own_bound() {
    // The cuts follow the metric's own bound, whatever it is set to.
    let bound = cupbench::spec::metric("queries_per_s")
        .unwrap()
        .bound
        .unwrap();
    let base = scratch("diff-base.jsonl");
    std::fs::write(&base, passes(100_000.0, 0)).unwrap();

    let (code, text) = diff(&base, &base);
    assert_eq!(code, Some(0), "{text}");
    let rows: Vec<_> = text
        .lines()
        .filter(|l| l.starts_with("live_plain_can"))
        .collect();
    assert_eq!(rows.len(), END_TO_END.len() + 1, "{text}");
    assert!(rows.iter().all(|r| r.ends_with("same")), "{text}");

    // One throughput cut by more than its bound: that row, and only
    // it, is worse.
    let slower = scratch("diff-slower.jsonl");
    std::fs::write(&slower, passes(100_000.0 * (1.0 - bound - 0.05), 0)).unwrap();
    let (code, text) = diff(&base, &slower);
    assert_eq!(code, Some(1), "{text}");
    let worse: Vec<_> = text.lines().filter(|l| l.ends_with("worse")).collect();
    assert_eq!(worse.len(), 1, "{text}");
    assert!(worse[0].contains("live_plain_can") && worse[0].contains("queries_per_s"));
    // The other way round it is a gain, and no failure.
    let (code, text) = diff(&slower, &base);
    assert_eq!(code, Some(0), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("queries_per_s") && l.ends_with("better")));

    // Within the bound is "same"; a higher failed share alone fails.
    let close = scratch("diff-close.jsonl");
    std::fs::write(&close, passes(100_000.0 * (1.0 - bound / 2.0), 0)).unwrap();
    assert_eq!(diff(&base, &close).0, Some(0));
    let failing = scratch("diff-failing.jsonl");
    std::fs::write(&failing, passes(100_000.0, 1)).unwrap();
    let (code, text) = diff(&base, &failing);
    assert_eq!(code, Some(1), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("failed_share") && l.ends_with("worse")));

    // A spread wider than the bound decides nothing.
    let noisy = scratch("diff-noisy.jsonl");
    let mut text = passes(100_000.0, 0);
    text.push_str(&passes(100_000.0 * (1.0 + 3.0 * bound), 0));
    std::fs::write(&noisy, text).unwrap();
    let (code, text) = diff(&base, &noisy);
    assert_eq!(code, Some(0), "{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("queries_per_s") && l.ends_with("unresolved")));

    assert_eq!(diff(&base, Path::new("no-such-file")).0, Some(2));
}
