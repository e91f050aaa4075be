//! Spans recorded by the benchmark around its calls into each layer.
//!
//! One span per call: name, start, end, the span that was open when it
//! started (its parent), the round it belongs to and how many operations
//! it covered. Spans stay in memory and are written out once, when the
//! run ends. The untraced pass uses the same recorder switched off: it
//! still returns each phase's duration (the end-to-end metrics need
//! them) but keeps nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Round index, or -1 outside any round.
    pub round: i32,
    pub ops: u64,
}

/// An open span; give it back to [`Spans::close`].
#[must_use]
pub struct Open {
    index: Option<u32>,
    start: Instant,
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Per-name totals: calls, operations, total and self time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub ops: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn open(&mut self, name: &'static str, round: i32) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                round,
                ops: 0,
            });
            self.stack.push(index);
            index
        });
        Open { index, start }
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn close(&mut self, open: Open, ops: u64) -> Duration {
        let elapsed = open.start.elapsed();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            let span = &mut self.spans[index as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            span.ops = ops;
        }
        elapsed
    }

    /// Totals by span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.calls += 1;
            entry.ops += span.ops;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        totals
    }

    /// One JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("round", Json::Num(f64::from(s.round))),
                ("ops", Json::Num(s.ops as f64)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        out
    }
}
