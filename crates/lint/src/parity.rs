//! Rule 5: **conformance-parity** — the drift detector.
//!
//! The conformance suites only prove sim-vs-live byte-identity for the
//! counters they actually compare. Historically every new counter family
//! (justification, faults, audits) had to be hand-threaded through
//! `NodeStats::merge`, the conformance `Outcome`, and the assertion
//! sites — and forgetting any one of the three silently weakens the
//! invariant. This rule parses the field lists out of the masked source
//! and fails when:
//!
//! * a `NodeStats`, `Hist`, `FaultCounters` or `NetMetrics` field is
//!   missing from its own `merge()` body (the counter would vanish when
//!   per-node stats, per-worker histograms, per-shard fault replicas or
//!   per-shard delivery planes are aggregated);
//! * a conformance `Outcome` field is never referenced by the
//!   sim-vs-live assertion suite.
//!
//! `NetMetrics` needs no consumer obligation of its own: the `Outcome`
//! carries it whole and compares it with `==`.
//!
//! A field that is intentionally report-only can carry an allow-pragma
//! on its declaration line.

use std::collections::BTreeSet;

use crate::engine::{Finding, Rule, Workspace};

/// One parity obligation between a struct and the code that must
/// consume every one of its fields.
#[derive(Debug, Clone)]
pub enum ParityCheck {
    /// Every field of `struct_name` (declared in `struct_file`) must be
    /// referenced inside `fn fn_name`'s body in the same file.
    MergedInto {
        struct_file: String,
        struct_name: String,
        fn_name: String,
    },
    /// Every field of `struct_name` must be referenced, by name, by at
    /// least one of the `consumer_files`.
    ConsumedBy {
        struct_file: String,
        struct_name: String,
        consumer_files: Vec<String>,
    },
}

pub struct ConformanceParity {
    pub checks: Vec<ParityCheck>,
}

impl ConformanceParity {
    /// The workspace's real parity obligations.
    pub fn workspace() -> Self {
        ConformanceParity {
            checks: vec![
                ParityCheck::MergedInto {
                    struct_file: "crates/core/src/stats.rs".into(),
                    struct_name: "NodeStats".into(),
                    fn_name: "merge".into(),
                },
                // The histogram itself: every `Hist` field must fold in
                // `merge`, or parallel sweep aggregation silently loses
                // whichever component was forgotten.
                ParityCheck::MergedInto {
                    struct_file: "crates/core/src/obs.rs".into(),
                    struct_name: "Hist".into(),
                    fn_name: "merge".into(),
                },
                // The fault plane's counters: the live runtime keeps one
                // replica per shard and folds them at read time, so a
                // counter missing from `merge` would read zero live
                // while the DES still counts it.
                ParityCheck::MergedInto {
                    struct_file: "crates/faults/src/state.rs".into(),
                    struct_name: "FaultCounters".into(),
                    fn_name: "merge".into(),
                },
                // The delivery kernel's metrics sink: one per shard
                // live, folded by `Plane::totals`. A field `merge`
                // forgets reads zero live while the DES still counts it.
                ParityCheck::MergedInto {
                    struct_file: "crates/faults/src/metrics.rs".into(),
                    struct_name: "NetMetrics".into(),
                    fn_name: "merge".into(),
                },
                ParityCheck::ConsumedBy {
                    struct_file: "crates/testkit/src/conformance.rs".into(),
                    struct_name: "Outcome".into(),
                    consumer_files: vec!["tests/conformance.rs".into()],
                },
            ],
        }
    }
}

const RULE: &str = "conformance-parity";

impl Rule for ConformanceParity {
    fn name(&self) -> &'static str {
        RULE
    }

    fn description(&self) -> &'static str {
        "every counter declared in NetMetrics/NodeStats/Outcome must be merged and asserted"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for check in &self.checks {
            match check {
                ParityCheck::MergedInto {
                    struct_file,
                    struct_name,
                    fn_name,
                } => {
                    let Some(file) = ws.file(struct_file) else {
                        out.push(missing_file(struct_file));
                        continue;
                    };
                    let fields = struct_fields(&file.masked, struct_name);
                    if fields.is_empty() {
                        out.push(missing_struct(struct_file, struct_name));
                        continue;
                    }
                    let Some(body) = fn_body(&file.masked, fn_name) else {
                        out.push(Finding::new(
                            RULE,
                            struct_file,
                            1,
                            format!("fn {fn_name} not found — parity check cannot run"),
                        ));
                        continue;
                    };
                    let merged = idents(body);
                    for (line, field) in fields {
                        if !merged.contains(&field) {
                            out.push(Finding::new(
                                RULE,
                                struct_file,
                                line,
                                format!(
                                    "{struct_name}::{field} is never touched by \
                                     {fn_name}() — the counter would vanish on aggregation"
                                ),
                            ));
                        }
                    }
                }
                ParityCheck::ConsumedBy {
                    struct_file,
                    struct_name,
                    consumer_files,
                } => {
                    let Some(file) = ws.file(struct_file) else {
                        out.push(missing_file(struct_file));
                        continue;
                    };
                    let fields = struct_fields(&file.masked, struct_name);
                    if fields.is_empty() {
                        out.push(missing_struct(struct_file, struct_name));
                        continue;
                    }
                    let mut consumer_idents = BTreeSet::new();
                    for path in consumer_files {
                        let Some(consumer) = ws.file(path) else {
                            out.push(missing_file(path));
                            continue;
                        };
                        consumer_idents.extend(idents(&consumer.masked));
                    }
                    for (line, field) in fields {
                        if !consumer_idents.contains(&field) {
                            out.push(Finding::new(
                                RULE,
                                struct_file,
                                line,
                                format!(
                                    "{struct_name}::{field} is never consumed by {} — \
                                     a counter the conformance suite does not compare \
                                     can drift sim-vs-live unnoticed",
                                    consumer_files.join(", ")
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

fn missing_file(path: &str) -> Finding {
    Finding::new(
        RULE,
        path,
        1,
        "file not found in lint workspace — update the parity check's paths",
    )
}

fn missing_struct(path: &str, name: &str) -> Finding {
    Finding::new(
        RULE,
        path,
        1,
        format!("struct {name} not found — update the parity check's struct names"),
    )
}

/// `(line, name)` of every named field of `struct name { … }` in a
/// masked source.
pub fn struct_fields(masked: &str, name: &str) -> Vec<(usize, String)> {
    let Some(body_range) = item_body(masked, &format!("struct {name}")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let body_start_line = masked[..body_range.0]
        .bytes()
        .filter(|&c| c == b'\n')
        .count()
        + 1;
    for (i, line) in masked[body_range.0..body_range.1].lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with('#') || trimmed.is_empty() {
            continue;
        }
        let Some(colon) = non_path_colon(trimmed) else {
            continue;
        };
        let lhs = trimmed[..colon].trim();
        let field = lhs.rsplit(char::is_whitespace).next().unwrap_or(lhs);
        if !field.is_empty()
            && field.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !field.chars().next().unwrap().is_ascii_digit()
        {
            out.push((body_start_line + i, field.to_string()));
        }
    }
    out
}

/// Index of the first `:` that is not part of a `::` path separator.
fn non_path_colon(line: &str) -> Option<usize> {
    let b = line.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b':' {
            if i + 1 < b.len() && b[i + 1] == b':' {
                i += 2;
                continue;
            }
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Byte range (exclusive of braces) of the `{ … }` body of the first
/// item matching `header` at an identifier boundary.
fn item_body(masked: &str, header: &str) -> Option<(usize, usize)> {
    let b = masked.as_bytes();
    let mut from = 0;
    let at = loop {
        let rel = masked[from..].find(header)?;
        let at = from + rel;
        let end = at + header.len();
        let ok_before = at == 0 || !(b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_');
        let ok_after = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if ok_before && ok_after {
            break at;
        }
        from = end;
    };
    let open = at + masked[at..].find('{')?;
    let mut depth = 0usize;
    for (off, c) in masked[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, open + off));
                }
            }
            _ => {}
        }
    }
    None
}

/// Body of the first `fn name` in a masked source.
pub fn fn_body<'a>(masked: &'a str, name: &str) -> Option<&'a str> {
    item_body(masked, &format!("fn {name}")).map(|(s, e)| &masked[s..e])
}

/// Every identifier token in a masked source fragment.
pub fn idents(masked: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = String::new();
    for c in masked.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if !cur.chars().next().unwrap().is_ascii_digit() {
                out.insert(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if !cur.is_empty() && !cur.chars().next().unwrap().is_ascii_digit() {
        out.insert(cur);
    }
    out
}
