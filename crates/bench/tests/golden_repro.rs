//! Golden-result lock on the paper reproduction.
//!
//! Runs the `repro` binary at `--scale bench` and byte-compares its full
//! stdout against the checked-in fixture. The fixture was generated from
//! the original `BinaryHeap` scheduler + map-based node table, so this
//! test is the contract that the event-queue rewrites, the node
//! arena, and every future engine rewrite change *nothing* about the
//! simulated results. A second fixture holds Figure 3 and Tables 2 and 3
//! at `--scale paper`, where Table 2 runs networks of up to 4,096 nodes.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cup-bench --test golden_repro
//! ```
//!
//! then inspect the diff of `tests/golden/` like any other code review.

use std::path::PathBuf;
use std::process::Command;

/// Path of one golden fixture within the crate.
fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the repro binary with `args` and returns its stdout.
fn run_repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary must run");
    assert!(
        out.status.success(),
        "repro {args:?} failed with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro output is UTF-8")
}

/// Byte-compares `actual` against the fixture `name`, or rewrites the
/// fixture when `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden fixture {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "repro output diverged from golden fixture {}.\n\
         If the change is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// The full bench-scale reproduction — every table and figure — must be
/// byte-identical run over run and across engine refactors.
#[test]
fn repro_bench_scale_matches_golden() {
    let out = run_repro(&["--scale", "bench", "all"]);
    assert_golden("repro_bench.txt", &out);
}

/// Figure 3 and Tables 2 and 3 at the paper's scale: 1,024 nodes, and
/// Table 2's networks up to 4,096, whose CUP miss latency is 5.4, 7.7
/// and 10.7 hops below standard caching's at 1,024, 2,048 and 4,096.
#[test]
fn repro_paper_scale_tables_match_golden() {
    let out = run_repro(&["--scale", "paper", "fig3", "table2", "table3"]);
    assert_golden("repro_paper.txt", &out);
}

/// One sweep worker must print the same bytes as the default count.
#[test]
fn repro_bench_scale_on_one_worker_matches_golden() {
    let out = run_repro(&["--scale", "bench", "all", "--workers", "1"]);
    assert_golden("repro_bench.txt", &out);
}

/// Two in-process invocations must agree byte-for-byte (no hidden
/// global state, time-of-day seeding, or map-iteration dependence).
#[test]
fn repro_bench_scale_is_reproducible() {
    let a = run_repro(&["--scale", "bench", "table1"]);
    let b = run_repro(&["--scale", "bench", "table1"]);
    assert_eq!(a, b, "same invocation must print identical bytes");
}

/// A misspelled experiment is a usage error, not an empty report.
#[test]
fn repro_rejects_unknown_experiment_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "bench", "tabel2"])
        .output()
        .expect("repro binary must run");
    assert_eq!(out.status.code(), Some(2), "exit status {}", out.status);
    assert!(out.stdout.is_empty(), "nothing runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment 'tabel2'") && stderr.contains("usage: repro"),
        "{stderr}"
    );
}
