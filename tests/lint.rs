//! Tier-1 gate: the full `cup-lint` pass over the real workspace.
//!
//! This is the in-process twin of CI's `cargo run -p cup-lint` step —
//! the same engine, the same rules, the same workspace loader — so a
//! determinism hazard fails `cargo test` locally before it ever reaches
//! CI. The second half of the suite proves the conformance-parity rule
//! actually detects drift, by feeding it fixtures with deliberately
//! desynchronized counters.

use cup_lint::engine::{self, Rule, Workspace};
use cup_lint::parity::{ConformanceParity, ParityCheck};

#[test]
fn workspace_has_no_denied_findings() {
    let report = cup_lint::run_workspace();
    let denied: Vec<String> = report
        .denied()
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule, f.message))
        .collect();
    assert!(
        denied.is_empty(),
        "un-pragma'd lint findings:\n{}",
        denied.join("\n")
    );
}

#[test]
fn workspace_scan_actually_covers_the_crates() {
    let report = cup_lint::run_workspace();
    assert!(
        report.files_scanned > 40,
        "only {} files scanned — the workspace loader lost a tree",
        report.files_scanned
    );
    assert!(
        report.rules.len() >= 6,
        "the pass must ship at least six rules, found {}",
        report.rules.len()
    );
}

#[test]
fn every_allow_pragma_in_the_tree_carries_a_reason() {
    let root = cup_lint::workspace_root();
    let ws = Workspace::load(&root, cup_lint::WORKSPACE_TREES);
    let mut pragmas = 0usize;
    for file in &ws.files {
        for p in &file.pragmas {
            pragmas += 1;
            assert!(
                p.reason.as_deref().is_some_and(|r| !r.is_empty()),
                "{}:{} allow({}) has no reason",
                file.path,
                p.line,
                p.rule
            );
        }
    }
    // The engine would also deny reasonless pragmas; this test exists so
    // the failure message names the exact file and line.
    assert!(pragmas > 0, "the workspace is expected to carry pragmas");
}

#[test]
fn lint_json_report_is_well_formed() {
    let report = cup_lint::run_workspace();
    let json = report.to_json();
    assert!(json.contains("\"files_scanned\""));
    assert!(json.contains("\"denied\": 0"));
    for rule in [
        "wall-clock",
        "unordered-iteration",
        "relaxed-atomic",
        "panic-path",
        "conformance-parity",
        "delivery-gate",
    ] {
        assert!(
            json.contains(&format!("\"name\": \"{rule}\"")),
            "LINT.json must list rule {rule}"
        );
    }
}

// ------------------------------------------------------------------ drift

/// The acceptance demo: add a counter to a fixture `NetMetrics` without
/// threading it through the conformance harness — the parity rule must
/// fire on exactly that field.
#[test]
fn parity_rule_catches_a_new_unasserted_netmetrics_field() {
    let metrics = "\
pub struct NetMetrics {
    pub query_hops: u64,
    pub dropped_messages: u64,
    pub brand_new_counter: u64,
}
";
    let consumer = "\
fn run_sim(m: &NetMetrics) -> u64 {
    m.query_hops + m.dropped_messages
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::ConsumedBy {
            struct_file: "crates/simnet/src/metrics.rs".into(),
            struct_name: "NetMetrics".into(),
            consumer_files: vec!["crates/testkit/src/conformance.rs".into()],
        }],
    };
    let ws = Workspace::from_sources(&[
        ("crates/simnet/src/metrics.rs", metrics),
        ("crates/testkit/src/conformance.rs", consumer),
    ]);
    let report = engine::run(&ws, &[&rule as &dyn Rule]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1, "exactly the drifted field must fire");
    assert!(denied[0].message.contains("brand_new_counter"));
    assert_eq!(denied[0].line, 4, "reported at the field declaration");
}

/// Same demo for the aggregation side: a `NodeStats` counter missing
/// from `merge()` would silently vanish when per-node stats are summed.
#[test]
fn parity_rule_catches_a_counter_missing_from_merge() {
    let stats = "\
pub struct NodeStats {
    pub client_queries: u64,
    pub audit_probes_served: u64,
}
impl NodeStats {
    pub fn merge(&mut self, other: &NodeStats) {
        self.client_queries += other.client_queries;
    }
}
";
    let rule = ConformanceParity {
        checks: vec![ParityCheck::MergedInto {
            struct_file: "crates/core/src/stats.rs".into(),
            struct_name: "NodeStats".into(),
            fn_name: "merge".into(),
        }],
    };
    let ws = Workspace::from_sources(&[("crates/core/src/stats.rs", stats)]);
    let report = engine::run(&ws, &[&rule as &dyn Rule]);
    let denied: Vec<_> = report.denied().collect();
    assert_eq!(denied.len(), 1);
    assert!(denied[0].message.contains("audit_probes_served"));
}

/// The real parity obligations hold on the real tree.
#[test]
fn real_counter_structs_are_in_parity() {
    let root = cup_lint::workspace_root();
    let ws = Workspace::load(&root, cup_lint::WORKSPACE_TREES);
    let rule = ConformanceParity::workspace();
    let report = engine::run(&ws, &[&rule as &dyn Rule]);
    let denied: Vec<String> = report
        .denied()
        .map(|f| format!("{}:{} {}", f.path, f.line, f.message))
        .collect();
    assert!(denied.is_empty(), "counter drift:\n{}", denied.join("\n"));
}
