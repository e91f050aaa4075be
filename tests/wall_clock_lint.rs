//! Wall-time lint: protocol logic must not read the wall clock.
//!
//! The live runtime's determinism story rests on one invariant: "now"
//! comes from `cup_core::clock::Clock` and nowhere else, so a virtual-
//! clock run is bit-reproducible and conformant with the DES.
//!
//! Historically this file carried its own substring scanner and CI
//! duplicated it as a grep; both are now thin callers of the `cup-lint`
//! engine's `wall-clock` rule, so the banned-construct list lives in
//! exactly one place (`cup_lint::rules`) and matches *code* — a banned
//! name in a doc comment or an error string no longer trips the gate.

use cup_lint::engine::{self, Rule, Workspace};
use cup_lint::rules::WALL_CLOCK;

#[test]
fn wall_time_never_leaks_into_protocol_crates() {
    let root = cup_lint::workspace_root();
    let ws = Workspace::load(&root, WALL_CLOCK.scope);
    assert!(
        ws.files.len() > 10,
        "the scan must actually cover the crates"
    );
    let report = engine::run(&ws, &[&WALL_CLOCK as &dyn Rule]);
    let violations: Vec<String> = report
        .denied()
        .map(|f| format!("{}:{}: {}", f.path, f.line, f.message))
        .collect();
    assert!(
        violations.is_empty(),
        "wall-time constructs outside the designated clock module:\n{}",
        violations.join("\n")
    );
}

#[test]
fn the_rule_still_fires_on_a_planted_violation() {
    // Guard against the gate rotting into a vacuous pass (the fate of
    // its predecessor, which silently fell out of the test wiring): a
    // planted `thread::sleep` in scope must produce a finding.
    let ws = Workspace::from_sources(&[(
        "crates/runtime/src/planted.rs",
        "fn nap(d: Duration) { std::thread::sleep(d); }\n",
    )]);
    let report = engine::run(&ws, &[&WALL_CLOCK as &dyn Rule]);
    assert_eq!(report.denied().count(), 1);
}

#[test]
fn the_designated_module_still_exists() {
    // If clock.rs is ever renamed, the exemption must move with it
    // rather than silently exempting nothing.
    let root = cup_lint::workspace_root();
    assert!(
        root.join(WALL_CLOCK.designated).is_file(),
        "{} is the one module allowed to touch the wall clock; update cup_lint::rules if it \
         moved",
        WALL_CLOCK.designated
    );
    assert!(
        WALL_CLOCK.banned.contains(&"thread::sleep"),
        "the banned-construct list must keep covering sleeps"
    );
}
