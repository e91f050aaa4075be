//! Shared scenario presets and assertions for the CUP test suites.
//!
//! Every integration suite runs full experiments over the same scenario
//! *shape* — a 300 s replica warm-up, a query window, and a simulated
//! tail for drain — varying only size, rate, and seed. [`scenario`]
//! captures that shape once; the `preset` free functions name the sizes
//! the suites use.
//!
//! The two assertion families encode the workspace's ground rules:
//!
//! * [`assert_deterministic`] — same config ⇒ byte-identical
//!   [`ExperimentResult`], the invariant everything else (sweeps,
//!   benches, regression claims) rests on;
//! * [`assert_cheaper`] / [`run_cup_and_standard`] — the paper's
//!   cost-model comparisons with readable failure messages.
//!
//! The [`conformance`] module is the sim-vs-live harness: it scripts one
//! workload through both the DES and the worker-pool live runtime over
//! the same topology, for the root conformance suite to compare.

use cup::prelude::*;

pub mod conformance;

/// The §3.2 replica warm-up: queries never start before replicas have
/// had 300 simulated seconds to populate the index.
pub const WARMUP_SECS: u64 = 300;

/// Simulated tail past the query window, so in-flight traffic drains
/// before metrics are read (comfortably above the harness's default
/// 30 s drain margin).
pub const TAIL_SECS: u64 = 700;

/// Builds the common integration scenario shape.
///
/// Queries run from [`WARMUP_SECS`] for `query_secs`; the simulation
/// continues [`TAIL_SECS`] past the query window.
pub fn scenario(nodes: usize, keys: u32, query_rate: f64, query_secs: u64, seed: u64) -> Scenario {
    let query_start = SimTime::from_secs(WARMUP_SECS);
    let query_end = SimTime::from_secs(WARMUP_SECS + query_secs);
    Scenario {
        nodes,
        keys,
        query_rate,
        query_start,
        query_end,
        sim_end: query_end + SimDuration::from_secs(TAIL_SECS),
        seed,
        ..Scenario::default()
    }
}

/// A 64-node smoke-test scenario (seconds to run).
pub fn tiny(query_rate: f64, seed: u64) -> Scenario {
    scenario(64, 4, query_rate, 1_000, seed)
}

/// A 128-node scenario, the end-to-end suites' size.
pub fn small(query_rate: f64, seed: u64) -> Scenario {
    scenario(128, 4, query_rate, 1_000, seed)
}

/// A 256-node scenario, the comparison suites' size.
pub fn medium(query_rate: f64, seed: u64) -> Scenario {
    scenario(256, 4, query_rate, 1_500, seed)
}

/// A large-population scenario (10k–100k nodes, Zipf queries) with the
/// given total query budget — the scale regime the DES's event
/// queue and node arena are built for.
pub fn large_scale(nodes: usize, queries: u64, seed: u64) -> Scenario {
    Scenario::large_scale(nodes, queries, seed)
}

/// A churn-enabled large-scale experiment: joins and leaves alternate
/// through the query window (one event per `churn_period_secs`), leaves
/// graceful with probability one half.
pub fn large_scale_churn_config(
    nodes: usize,
    queries: u64,
    churn_period_secs: u64,
    seed: u64,
) -> ExperimentConfig {
    let scenario = Scenario::large_scale(nodes, queries, seed);
    let mut churn_rng = DetRng::seed_from(seed ^ 0x5CA1_AB1E);
    let churn = ChurnSchedule::alternating(
        scenario.query_start,
        scenario.query_end,
        SimDuration::from_secs(churn_period_secs),
        0.5,
        &mut churn_rng,
    );
    ExperimentConfig {
        churn,
        ..ExperimentConfig::cup(scenario)
    }
}

/// Runs `config` twice and asserts the results are identical, returning
/// the (now known-reproducible) result.
///
/// `ExperimentResult` is all integers, so equality is byte-exact: any
/// hidden nondeterminism (hash-map iteration order, time-of-day seeding,
/// unordered event ties) fails loudly here.
///
/// # Panics
///
/// Panics if the two runs differ anywhere in their metrics.
pub fn assert_deterministic(config: &ExperimentConfig) -> ExperimentResult {
    let first = run_experiment(config);
    let second = run_experiment(config);
    assert_eq!(
        first, second,
        "same seed must give byte-identical results (seed {})",
        config.scenario.seed
    );
    first
}

/// Asserts `cheaper` strictly beats `baseline` on total cost.
///
/// # Panics
///
/// Panics with both costs in the message if the comparison fails.
pub fn assert_cheaper(label: &str, cheaper: &ExperimentResult, baseline: &ExperimentResult) {
    assert!(
        cheaper.total_cost() < baseline.total_cost(),
        "{label}: total cost {} must beat baseline {}",
        cheaper.total_cost(),
        baseline.total_cost()
    );
}

/// Asserts `cheaper` does no worse than `baseline` on total cost.
///
/// # Panics
///
/// Panics with both costs in the message if the comparison fails.
pub fn assert_no_costlier(label: &str, cheaper: &ExperimentResult, baseline: &ExperimentResult) {
    assert!(
        cheaper.total_cost() <= baseline.total_cost(),
        "{label}: total cost {} must not exceed baseline {}",
        cheaper.total_cost(),
        baseline.total_cost()
    );
}

/// Runs the same scenario under CUP and under standard caching.
///
/// Returns `(cup, standard)` — the headline comparison almost every
/// suite draws, behind one call.
pub fn run_cup_and_standard(scenario: Scenario) -> (ExperimentResult, ExperimentResult) {
    let standard = run_experiment(&ExperimentConfig::standard_caching(scenario.clone()));
    let cup = run_experiment(&ExperimentConfig::cup(scenario));
    (cup, standard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_shape_is_consistent() {
        let s = scenario(64, 4, 5.0, 1_000, 9);
        assert_eq!(s.query_start, SimTime::from_secs(300));
        assert_eq!(s.query_end, SimTime::from_secs(1_300));
        assert_eq!(s.sim_end, SimTime::from_secs(2_000));
        s.validate().unwrap();
        for preset in [tiny(5.0, 1), small(5.0, 1), medium(5.0, 1)] {
            preset.validate().unwrap();
        }
    }

    #[test]
    fn determinism_holds_on_a_smoke_scenario() {
        let result = assert_deterministic(&ExperimentConfig::cup(tiny(2.0, 5)));
        assert!(result.nodes.client_queries > 0);
    }

    #[test]
    #[should_panic(expected = "must beat baseline")]
    fn assert_cheaper_reports_costs() {
        let mut a = ExperimentResult::default();
        a.net.query_hops = 10;
        let b = ExperimentResult::default();
        assert_cheaper("inverted", &a, &b);
    }
}
