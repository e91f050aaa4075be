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
//! * a `NodeStats`, `Hist` or `FaultCounters` field is missing from its
//!   own `merge()` body (the counter would vanish when per-node stats,
//!   per-worker histograms or per-shard fault replicas are aggregated);
//! * a `NetMetrics` counter is never consumed by the conformance
//!   harness, directly or through a `NetMetrics` helper method the
//!   harness calls (`total_cost()` covers the six hop counters, for
//!   example — the rule computes that closure);
//! * a conformance `Outcome` field is never referenced by the
//!   sim-vs-live assertion suite.
//!
//! A field that is intentionally report-only can carry an allow-pragma
//! on its declaration line.

use std::collections::{BTreeMap, BTreeSet};

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
    /// Every field of `struct_name` must be referenced by at least one
    /// of the `consumer_files` — directly, or via an inherent method of
    /// the struct whose (transitive) body touches the field.
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
                ParityCheck::ConsumedBy {
                    struct_file: "crates/simnet/src/metrics.rs".into(),
                    struct_name: "NetMetrics".into(),
                    consumer_files: vec!["crates/testkit/src/conformance.rs".into()],
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
                    let covers = method_field_closure(
                        &file.masked,
                        struct_name,
                        &fields.iter().map(|(_, f)| f.clone()).collect::<Vec<_>>(),
                    );
                    for (line, field) in fields {
                        let direct = consumer_idents.contains(&field);
                        let via_method = covers.iter().any(|(method, covered)| {
                            consumer_idents.contains(method) && covered.contains(&field)
                        });
                        if !direct && !via_method {
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

/// For each inherent method of `type_name` (in `impl type_name { … }`
/// blocks), the set of struct fields its body touches — transitively:
/// `total_cost()` calling `miss_cost()` covers whatever `miss_cost`
/// covers.
fn method_field_closure(
    masked: &str,
    type_name: &str,
    fields: &[String],
) -> Vec<(String, BTreeSet<String>)> {
    // Collect method name → body idents from every `impl type_name`
    // block (trait impls like `impl Default for T` don't match the
    // header and are rightly excluded: constructing a default is not
    // consuming a counter).
    let mut bodies: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let header = format!("impl {type_name}");
    let mut from = 0;
    while let Some((start, end)) = {
        let rest = &masked[from..];
        item_body(rest, &header).map(|(s, e)| (from + s, from + e))
    } {
        let block = &masked[start..end];
        let mut pos = 0;
        while let Some(rel) = block[pos..].find("fn ") {
            let fn_at = pos + rel;
            let name_start = fn_at + 3;
            let name: String = block[name_start..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                pos = name_start;
                continue;
            }
            if let Some((bs, be)) = item_body(&block[fn_at..], &format!("fn {name}")) {
                bodies
                    .entry(name)
                    .or_default()
                    .extend(idents(&block[fn_at + bs..fn_at + be]));
                pos = fn_at + be;
            } else {
                pos = name_start;
            }
        }
        from = end;
    }

    // Fixpoint: a method covers a field if its body names it, or names
    // a method that covers it.
    let mut covers: BTreeMap<String, BTreeSet<String>> = bodies
        .iter()
        .map(|(name, ids)| {
            (
                name.clone(),
                fields
                    .iter()
                    .filter(|f| ids.contains(*f))
                    .cloned()
                    .collect(),
            )
        })
        .collect();
    loop {
        let mut changed = false;
        let names: Vec<String> = covers.keys().cloned().collect();
        for name in &names {
            let callees: Vec<String> = names
                .iter()
                .filter(|m| *m != name && bodies[name].contains(*m))
                .cloned()
                .collect();
            for callee in callees {
                let add: Vec<String> = covers[&callee]
                    .iter()
                    .filter(|f| !covers[name].contains(*f))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    covers.get_mut(name).unwrap().extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    covers.into_iter().collect()
}
