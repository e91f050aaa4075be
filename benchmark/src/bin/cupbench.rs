//! The end-to-end pass: tracing off, system allocator.
//!
//! ```text
//! cupbench --workload W --seed S --seconds N --trace 0|1   one workload, in this process
//! cupbench run [--workload W] [--seed S] [--seconds N] [--out FILE] [--smoke]
//! cupbench diff A B
//! ```

// Measuring wall time is this package's job (see /clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use cupbench::cli::{self, Cli};
use cupbench::report::{print_end_to_end, result_line, run_each};
use cupbench::spans::Spans;
use cupbench::workloads::{run_workload, RunOpts, WORKERS};

/// How often set-up runs in one process; `setup_s` is the median.
const SETUPS: usize = 3;

fn own_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))
}

/// Runs one workload here and prints its result line last.
fn one(cli: &Cli, started: Instant) -> Result<ExitCode, String> {
    let workload = cli.workload.ok_or("--workload is required")?;
    if cli.trace {
        // The traced pass installs a counting allocator, so it is a
        // binary of its own, built next to this one.
        let exe = own_exe()?.with_file_name("cupbench-trace");
        let status = Command::new(&exe)
            .args(cli.child_args(workload))
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        return Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        size: cli.size,
        setups: SETUPS,
        workers: WORKERS,
        runtime_trace: false,
        started,
    };
    let measured = run_workload(workload, &opts, &mut Spans::new(false));
    let medians = print_end_to_end(workload, &measured);
    println!("{}", result_line(&measured, &medians));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("diff") => match &args[1..] {
            [a, b] => cupbench::diff::diff(Path::new(a), Path::new(b)).map(|(text, regressed)| {
                print!("{text}");
                if regressed {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }),
            _ => Err("usage: cupbench diff A B".to_string()),
        },
        Some("run") => cli::parse(&args[1..]).and_then(|cli| {
            // Each workload in a child of its own, so peak memory is per
            // workload, strictly one after another.
            let clean = run_each(
                &own_exe()?,
                &Cli {
                    trace: false,
                    ..cli
                },
            )?;
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                eprintln!("cupbench: a correctness check failed or an operation failed");
                ExitCode::FAILURE
            })
        }),
        _ => cli::parse(&args).and_then(|cli| one(&cli, started)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("cupbench: {e}");
        ExitCode::from(2)
    })
}
