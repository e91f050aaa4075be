//! What a run prints, and how a parent process collects it from the
//! child it ran the workload in.

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::cli::Cli;
use crate::json::Json;
use crate::spec::{self, Workload};
use crate::stats::Summary;
use crate::workloads::Measured;

/// The result object a run prints as the last line of its output:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(m: &Measured, metrics: &[(&'static str, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

/// Prints every end-to-end metric of `m` by name with unit, median,
/// quartiles and sample count, then the correctness verdict; returns the
/// medians.
pub fn print_end_to_end(workload: &Workload, m: &Measured) -> Vec<(&'static str, f64)> {
    let mut medians = Vec::new();
    for metric in &spec::END_TO_END {
        let s = Summary::of(m.samples_of(metric.name));
        println!(
            "{:<18} {:<14} {:>14.4} {:<10} q1 {:>14.4}  q3 {:>14.4}  n {}",
            workload.name, metric.name, s.median, metric.unit, s.q1, s.q3, s.count
        );
        medians.push((metric.name, s.median));
    }
    print_verdict(workload, m);
    medians
}

pub fn print_verdict(workload: &Workload, m: &Measured) {
    println!(
        "{:<18} failed_share   {:>14.6} ratio      failed {} of {} attempted",
        workload.name,
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    );
    if let Some((round, node, key)) = m.live.as_ref().and_then(|o| o.first_unanswered) {
        println!(
            "{:<18} UNANSWERED first in round {round}: node {node}, key {key}",
            workload.name
        );
    }
    for v in m.violations.iter().take(20) {
        println!("{:<18} VIOLATION {v}", workload.name);
    }
    if m.violations.len() > 20 {
        println!(
            "{:<18} … and {} more violations",
            workload.name,
            m.violations.len() - 20
        );
    }
}

/// Runs `exe` with `cli`'s arguments for `workload` in a child process,
/// passes its output through, and returns the result object from its
/// last line with `workload`, `seed` and `trace` added in front.
///
/// # Errors
///
/// Says so if the child cannot start, exits with a failure, or prints
/// no result line.
pub fn run_child(exe: &Path, cli: &Cli, workload: &Workload) -> Result<Json, String> {
    let output = Command::new(exe)
        .args(cli.child_args(workload))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!(
            "{} on {}: {}",
            exe.display(),
            workload.name,
            output.status
        ));
    }
    let last = text.lines().last().unwrap_or("");
    let Json::Obj(fields) = Json::parse(last).map_err(|e| format!("{}: {e}", workload.name))?
    else {
        return Err(format!("{}: the last line is not an object", workload.name));
    };
    let mut record = vec![
        ("workload".to_string(), Json::Str(workload.name.to_string())),
        ("seed".to_string(), Json::Num(cli.seed as f64)),
        ("trace".to_string(), Json::Bool(cli.trace)),
    ];
    record.extend(fields);
    Ok(Json::Obj(record))
}

/// Runs every selected workload in its own child, strictly one after
/// another; appends the records to `cli.out` if given. Returns whether
/// every workload was correct with nothing failed.
///
/// # Errors
///
/// Passes on the first child or file error.
pub fn run_each(exe: &Path, cli: &Cli) -> Result<bool, String> {
    let mut clean = true;
    for workload in cli.selected() {
        let record = run_child(exe, cli, workload)?;
        clean &= record.get("correct").and_then(Json::as_bool) == Some(true)
            && record.get("failed").and_then(Json::as_f64) == Some(0.0);
        if let Some(path) = &cli.out {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(clean)
}
