//! Regenerates every table and figure of the CUP paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--scale bench|small|paper] [--workers N]
//!       [fig3] [fig4] [table1] [table2] [table3] [fig5] [fig6] [all]
//! ```
//!
//! With no experiment named, runs `all`. `--scale paper` uses the paper's
//! 2¹⁰-node configuration and all four query rates (the λ = 1000 runs
//! simulate millions of queries; expect minutes per experiment).
//! `--workers` sets the sweep worker-pool size (default: the machine's
//! available parallelism); every grid point is an independent
//! deterministic run and results come back in input order, so the output
//! is byte-identical whatever the pool size.

use cup_bench::cli::{parse_or_exit, value_of};
use cup_bench::Scale;
use cup_simnet::par::default_workers;
use cup_simnet::report;
use cup_simnet::sweeps;
use cup_workload::Scenario;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut workers = default_workers();
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let value = it.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (use bench|small|paper)");
                    std::process::exit(2);
                });
            }
            "--workers" => {
                workers = parse_or_exit(&value_of(&mut it, "--workers"), "--workers");
                if workers == 0 {
                    eprintln!("--workers must be at least 1");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale bench|small|paper] [--workers N] \
                     [fig3|fig4|table1|table2|table3|fig5|fig6|all]..."
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    let base = scale.base_scenario();
    println!(
        "# CUP reproduction — scale {:?}: {} nodes, {} keys, query window {}s, lifetime {}s\n",
        scale,
        base.nodes,
        base.keys,
        base.query_window().as_secs_f64(),
        base.entry_lifetime.as_secs_f64()
    );

    if want("fig3") {
        run_fig34(&base, scale, false, workers);
    }
    if want("fig4") {
        run_fig34(&base, scale, true, workers);
    }
    if want("table1") {
        println!("## Table 1 — total cost for varying cut-off policies");
        let rates = scale.rates();
        let rows = sweeps::policy_table(&base, &rates, &scale.push_levels(), workers);
        println!("{}", report::render_policy_table(&rows, &rates));
    }
    if want("table2") {
        println!(
            "## Table 2 — CUP vs standard caching across network sizes (second-chance, λ = 1 q/s)"
        );
        let scenario = Scenario {
            query_rate: 1.0,
            ..base.clone()
        };
        let cols = sweeps::size_sweep(&scenario, &scale.sizes(), workers);
        println!("{}", report::render_size_table(&cols));
    }
    if want("table3") {
        println!("## Table 3 — naive vs replica-independent cut-off across replica counts");
        let rows = sweeps::replica_sweep(&base, &scale.replica_counts(), workers);
        println!("{}", report::render_replica_table(&rows));
    }
    if want("fig5") {
        run_fig56(&base, scale, false, workers);
    }
    if want("fig6") {
        run_fig56(&base, scale, true, workers);
    }
}

/// Figures 3 (low rates, linear axes) and 4 (high rates, log y-axis in
/// the paper).
fn run_fig34(base: &Scenario, scale: Scale, high: bool, workers: usize) {
    let rates = scale.rates();
    let (name, selected): (_, Vec<f64>) = if high {
        (
            "Figure 4",
            rates.iter().copied().filter(|&r| r >= 100.0).collect(),
        )
    } else {
        (
            "Figure 3",
            rates.iter().copied().filter(|&r| r < 100.0).collect(),
        )
    };
    if selected.is_empty() {
        println!("## {name} — skipped (no rates at this scale)\n");
        return;
    }
    println!("## {name} — total and miss cost vs push level");
    let points = sweeps::push_level_sweep(base, &selected, &scale.push_levels(), workers);
    println!("{}", report::render_push_level(&points));
}

/// Figures 5 (λ = 1) and 6 (λ = 1000; highest available rate at smaller
/// scales).
fn run_fig56(base: &Scenario, scale: Scale, high: bool, workers: usize) {
    let rates = scale.rates();
    let rate = if high {
        rates.iter().copied().fold(f64::MIN, f64::max)
    } else {
        rates.iter().copied().fold(f64::MAX, f64::min)
    };
    let name = if high { "Figure 6" } else { "Figure 5" };
    println!("## {name} — total cost vs reduced capacity (Up-And-Down / Once-Down-Always-Down, λ = {rate} q/s)");
    let scenario = Scenario {
        query_rate: rate,
        ..base.clone()
    };
    let points = sweeps::capacity_sweep(&scenario, &scale.capacities(), workers);
    println!("{}", report::render_capacity(&points));
    // Sanity line mirroring the paper's observation.
    if let Some(zero) = points.iter().find(|p| p.capacity == 0.0) {
        println!(
            "at c = 0: up-and-down {:.2}x / once-down {:.2}x standard caching\n",
            zero.up_and_down as f64 / zero.standard as f64,
            zero.once_down as f64 / zero.standard as f64
        );
    }
}
