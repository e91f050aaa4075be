//! Command-line arguments shared by both binaries.

use std::path::PathBuf;

use crate::script::Size;
use crate::spec::{self, Workload};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Length of one run's timed part when none is given; equals
/// `run_seconds` in `/BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub size: Size,
    /// Result file `run` appends one line per workload to.
    pub out: Option<PathBuf>,
}

/// Parses `--flag value` pairs.
///
/// # Errors
///
/// Names the first unknown flag, missing value or malformed number.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        size: Size::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.size = Size::Smoke;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(spec::workload(value).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.clamp(1, 60),
            "--trace" => cli.trace = number()? != 0,
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

impl Cli {
    /// The arguments that make a child process run `workload` the way
    /// this invocation asked.
    pub fn child_args(&self, workload: &Workload) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            workload.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.size == Size::Smoke {
            args.push("--smoke".to_string());
        }
        args
    }

    /// The workloads this invocation selects: the named one, or all.
    pub fn selected(&self) -> Vec<&'static Workload> {
        match self.workload {
            Some(w) => vec![w],
            None => spec::WORKLOADS.iter().collect(),
        }
    }
}
