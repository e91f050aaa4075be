//! `cupbench diff A B`: compares two result files.
//!
//! A result file holds one JSON record per line, as `cupbench run --out`
//! and `cupbench-trace --out` append them; a file may hold many passes.
//! Each end-to-end metric is judged per workload by its own direction
//! and bound; per-layer metrics are listed with their change, unjudged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Json;
use crate::spec::{self, Metric};
use crate::stats::{median, spread};

/// One file's values, by (workload, metric, traced), plus its failures.
#[derive(Debug, Default)]
struct ResultSet {
    values: BTreeMap<(String, String, bool), Vec<f64>>,
    /// Per workload: (failed, attempted) summed over its records.
    failures: BTreeMap<String, (f64, f64)>,
    /// Values of the simulated-statistic metrics and of the live hop
    /// count, by (workload, seed).
    simulated: BTreeMap<(String, u64, String), f64>,
}

/// The `simnet.*` metrics that are simulated statistics, not host time:
/// a change that only speeds the simulator leaves them identical.
const SIMULATED: [&str; 9] = [
    "simnet.events",
    "simnet.total_cost_hops",
    "simnet.hops_per_query",
    "simnet.client_hit_share",
    "simnet.dropped_share",
    "simnet.unanswered_share",
    "simnet.justified_share",
    "simnet.cup_over_std_cost",
    "simnet.cup_over_std_miss_latency",
];

/// The live runtime's hop count: repeats to within 0.5 % for one
/// (workload, seed), because bursts are pipelined across two workers.
const LIVE_HOPS: &str = "runtime.hops";

fn load(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{} line {}", path.display(), n + 1);
        let record = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?
            .to_string();
        let traced = record.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let seed = record.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let f = set.failures.entry(workload.clone()).or_default();
        f.0 += number("failed");
        f.1 += number("attempted");
        if record.get("correct").and_then(Json::as_bool) != Some(true) {
            // An incorrect run counts as wholly failed.
            f.0 += number("attempted");
        }
        let metrics = record
            .get("metrics")
            .ok_or_else(|| format!("{}: no metrics", at()))?;
        for (name, m) in metrics.fields() {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {name} has no value", at()))?;
            set.values
                .entry((workload.clone(), name.clone(), traced))
                .or_default()
                .push(value);
            if SIMULATED.contains(&name.as_str()) || (name == LIVE_HOPS && value > 0.0) {
                set.simulated
                    .insert((workload.clone(), seed, name.clone()), value);
            }
        }
    }
    Ok(set)
}

/// How B compares with A on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread of either side exceeds the bound, so the
    /// comparison decides nothing.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B is better (positive) or worse.
fn improvement(metric: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if metric.higher_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(f64::INFINITY);
    let gain = improvement(metric, median(a), median(b));
    if gain < -bound {
        // A regression beyond the bound is reported even when noisy:
        // noise must not be able to hide one.
        Verdict::Worse
    } else if spread(a).is_some_and(|s| s > bound) || spread(b).is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison as text, and whether it found a regression (a "worse"
/// row or a higher failed share).
///
/// # Errors
///
/// Says which file or line could not be read.
pub fn diff(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let pct = |x: Option<f64>| x.map_or("     n/a".to_string(), |s| format!("{:>7.2}%", s * 100.0));

    let _ = writeln!(
        out,
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound"
    );
    for w in &spec::WORKLOADS {
        for metric in &spec::END_TO_END {
            let key = (w.name.to_string(), metric.name.to_string(), false);
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let verdict = judge(metric, va, vb);
            regressed |= verdict == Verdict::Worse;
            let (ma, mb) = (median(va), median(vb));
            let _ = writeln!(
                out,
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>+8.2}% {} {} {:>6.0}%  {}",
                w.name,
                metric.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                pct(spread(va)),
                pct(spread(vb)),
                metric.bound.unwrap_or(0.0) * 100.0,
                verdict.word()
            );
        }
        if let (Some(&(fa, na)), Some(&(fb, nb))) = (a.failures.get(w.name), b.failures.get(w.name))
        {
            let (sa, sb) = (fa / na.max(1.0), fb / nb.max(1.0));
            let verdict = if sb > sa { "worse" } else { "same" };
            regressed |= sb > sa;
            let _ = writeln!(
                out,
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>57}",
                w.name, "failed_share", sa, sb, verdict
            );
        }
    }

    let mut layer_rows = String::new();
    for w in &spec::WORKLOADS {
        for metric in &spec::PER_LAYER {
            let key = (w.name.to_string(), metric.name.to_string(), true);
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            if ma == 0.0 && mb == 0.0 {
                continue; // a layer this workload does not exercise
            }
            let _ = writeln!(
                layer_rows,
                "{:<18} {:<36} {:>16.4} {:>16.4} {:>+9.2}%  {}",
                w.name,
                metric.name,
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                metric.unit
            );
        }
    }
    if !layer_rows.is_empty() {
        let _ = writeln!(
            out,
            "\nper-layer (traced pass), unjudged:\n{:<18} {:<36} {:>16} {:>16} {:>10}",
            "workload", "metric", "A median", "B median", "change"
        );
        out.push_str(&layer_rows);
        let (hops, shared): (Vec<_>, Vec<_>) = a
            .simulated
            .iter()
            .filter_map(|(k, va)| b.simulated.get(k).map(|vb| (k, va, vb)))
            .partition(|(k, _, _)| k.2 == LIVE_HOPS);
        if let Some(apart) = hops
            .iter()
            .map(|(_, va, vb)| (*vb - *va).abs() / **va)
            .max_by(f64::total_cmp)
        {
            let _ = writeln!(
                out,
                "
{LIVE_HOPS}: at most {:.3}% apart over {} shared (workload, seed) pairs (expected within 0.5%)",
                apart * 100.0,
                hops.len()
            );
        }
        let moved: Vec<_> = shared.iter().filter(|(_, va, vb)| va != vb).collect();
        if shared.is_empty() {
            let _ = writeln!(
                out,
                "\nsimulated statistics: no (workload, seed) in both files"
            );
        } else if moved.is_empty() {
            let _ = writeln!(
                out,
                "\nsimulated statistics: all {} identical — only host time can differ",
                shared.len()
            );
        } else {
            let _ = writeln!(
                out,
                "\nsimulated statistics: {} of {} differ — the protocol's behaviour changed, not only its speed:",
                moved.len(),
                shared.len()
            );
            for ((w, seed, name), va, vb) in moved {
                let _ = writeln!(out, "  {w} seed {seed} {name}: {va} -> {vb}");
            }
        }
    }
    Ok((out, regressed))
}
