//! The traced pass: a binary of its own because it installs a counting
//! allocator, which the end-to-end numbers must not pay for.
//!
//! ```text
//! cupbench-trace [--workload W] [--seed S] [--seconds N] [--out FILE] [--smoke]
//! ```
//!
//! With `--workload` the workload runs in this process; without, each
//! of the four runs in a child of its own, one after another. Spans go
//! to `benchmark/out/trace-<workload>.jsonl` (`out/` when run from
//! inside `benchmark/`).

use std::path::Path;
use std::process::ExitCode;

use cupbench::alloc::Counting;
use cupbench::cli::{self, Cli};
use cupbench::report::{print_verdict, result_line, run_each};
use cupbench::spec;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn run(cli: &Cli) -> Result<ExitCode, String> {
    let Some(workload) = cli.workload else {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let clean = run_each(
            &exe,
            &Cli {
                trace: true,
                ..cli.clone()
            },
        )?;
        return Ok(if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let out_dir = if Path::new("benchmark").is_dir() {
        "benchmark/out"
    } else {
        "out"
    };
    let (measured, metrics) = cupbench::traced::run(workload, cli, Path::new(out_dir));
    for (name, value) in &metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{:<18} {:<38} {:>18.4} {unit}", workload.name, name, value);
    }
    print_verdict(workload, &measured);
    println!("{}", result_line(&measured, &metrics));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cli::parse(&args)
        .and_then(|cli| run(&cli))
        .unwrap_or_else(|e| {
            eprintln!("cupbench-trace: {e}");
            ExitCode::from(2)
        })
}
