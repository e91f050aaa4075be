//! `cup-lint`: the workspace determinism & conformance-drift lint pass.
//!
//! Every claim this repository makes rests on one invariant: the DES
//! and the M-worker live runtime are *byte-identical*. This crate is
//! the static-analysis backstop for that invariant — a small Rust
//! [`lexer`] (comments, strings, raw strings and char literals are
//! blanked, so rules match *code*, not prose) under a rule [`engine`]
//! with per-crate scopes, inline
//! `// cup-lint: allow(<rule>, "<reason>")` pragmas, and a
//! machine-readable `LINT.json` report.
//!
//! Shipped rules:
//!
//! | rule | scope | hazard |
//! |------|-------|--------|
//! | `wall-clock` | cup-core, cup-runtime | wall-time reads outside `clock.rs` |
//! | `unordered-iteration` | cup-core, cup-simnet, cup-runtime | `HashMap`/`HashSet` iteration order leaking into state or metrics |
//! | `relaxed-atomic` | cup-runtime | `Ordering::Relaxed` on non-monotone-counter atomics at the quiesce barrier |
//! | `panic-path` | cup-runtime, the delivery kernel, the DES network | `unwrap`/`expect` on the per-message path |
//! | `conformance-parity` | counter structs + assertion sites | counters declared but never merged/asserted |
//! | `delivery-gate` | cup-simnet, cup-runtime | a fault gate or the justify hook called outside the shared delivery kernel |
//!
//! The pass runs twice: in-process as the tier-1 `tests/lint.rs` gate,
//! and as `cargo run -p cup-lint` in CI (which uploads `LINT.json`).

pub mod engine;
pub mod lexer;
pub mod parity;
pub mod rules;

use std::path::{Path, PathBuf};

use engine::{Report, Rule, Workspace};
use parity::ConformanceParity;
use rules::{PanicPath, RelaxedAtomic, UnorderedIteration, DELIVERY_GATE, WALL_CLOCK};

/// Source trees a full workspace run loads. Wider than any single
/// rule's scope: the parity rule reads the conformance harness and the
/// repo-level assertion suite too.
pub const WORKSPACE_TREES: &[&str] = &[
    "crates/core/src",
    "crates/faults/src",
    "crates/simnet/src",
    "crates/runtime/src",
    "crates/testkit/src",
    "tests",
];

/// Repository root, resolved from this crate's manifest directory
/// (`crates/lint` → two levels up), so the binary and the in-process
/// test gates work from any CWD.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs the full rule set over a prepared workspace.
pub fn run_all(ws: &Workspace) -> Report {
    let (iter, atomics, panics) = (UnorderedIteration, RelaxedAtomic, PanicPath);
    let parity = ConformanceParity::workspace();
    let rules: [&dyn Rule; 6] = [
        &WALL_CLOCK,
        &iter,
        &atomics,
        &panics,
        &parity,
        &DELIVERY_GATE,
    ];
    engine::run(ws, &rules)
}

/// Loads the real workspace and runs the full rule set — the one entry
/// point shared by the CLI, the tier-1 gate, and CI.
pub fn run_workspace() -> Report {
    let root = workspace_root();
    let ws = Workspace::load(&root, WORKSPACE_TREES);
    run_all(&ws)
}

#[cfg(test)]
mod tests;
