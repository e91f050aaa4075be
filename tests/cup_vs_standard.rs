//! The paper's headline comparisons: CUP versus standard caching — and
//! the economic claim behind them: controlled propagation buys a higher
//! justified-update ratio (§3.1) at equal or lower total cost than
//! all-out push, on both runtimes.

use cup::prelude::*;
use cup_testkit::conformance::{run_live, run_sim, ConformanceSpec, Outcome};
use cup_testkit::{assert_cheaper, assert_no_costlier, medium, run_cup_and_standard, scenario};

/// This suite's master seed.
const SEED: u64 = 77;

/// The comparison shape at a non-default size: 4 keys, 1 500 s of
/// querying.
fn sized(nodes: usize, rate: f64) -> Scenario {
    scenario(nodes, 4, rate, 1_500, SEED)
}

#[test]
fn cup_wins_at_moderate_and_high_rates() {
    for rate in [10.0, 50.0] {
        let (cup, std) = run_cup_and_standard(medium(rate, SEED));
        assert_cheaper(&format!("rate {rate}"), &cup, &std);
    }
}

#[test]
fn the_gap_widens_with_query_rate() {
    let ratio = |rate: f64| {
        let (cup, std) = run_cup_and_standard(medium(rate, SEED));
        cup.total_cost() as f64 / std.total_cost() as f64
    };
    let low = ratio(2.0);
    let high = ratio(50.0);
    assert!(
        high < low,
        "normalized total cost must improve with rate: {low:.2} -> {high:.2}"
    );
}

#[test]
fn miss_cost_reduction_matches_paper_range() {
    // The paper reports CUP/standard miss-cost ratios of 0.09–0.47 across
    // its configurations; check we land in a comparable band.
    let (cup, std) = run_cup_and_standard(sized(512, 20.0));
    let ratio = cup.miss_cost() as f64 / std.miss_cost() as f64;
    assert!(
        (0.05..0.6).contains(&ratio),
        "miss-cost ratio {ratio:.2} outside the paper-like band"
    );
}

#[test]
fn second_chance_beats_badly_tuned_linear() {
    // Table 1: at low rates a badly chosen α makes the linear policy
    // worse than second-chance.
    let s = medium(5.0, SEED);
    let second = run_experiment(&ExperimentConfig::cup(s.clone()));
    let mut linear = ExperimentConfig::cup(s);
    linear.node_config = NodeConfig::cup_with_policy(CutoffPolicy::Linear { alpha: 0.25 });
    let linear = run_experiment(&linear);
    assert_no_costlier("second-chance vs linear α=0.25", &second, &linear);
}

#[test]
fn push_level_zero_matches_standard_caching_shape() {
    let s = sized(128, 10.0);
    let mut level0 = ExperimentConfig::cup(s.clone());
    level0.node_config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level: 0 });
    let level0 = run_experiment(&level0);
    assert_eq!(level0.overhead(), 0, "level 0 pushes nothing");
    let std = run_experiment(&ExperimentConfig::standard_caching(s));
    // Level-0 CUP still coalesces; it must not cost more than the
    // baseline.
    assert_no_costlier("level-0 CUP vs standard caching", &level0, &std);
}

#[test]
fn deeper_push_levels_cut_misses() {
    let s = medium(10.0, SEED);
    let run_level = |level: u32| {
        let mut c = ExperimentConfig::cup(s.clone());
        c.node_config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level });
        run_experiment(&c)
    };
    let shallow = run_level(0);
    let mid = run_level(4);
    let deep = run_level(16);
    assert!(mid.miss_cost() < shallow.miss_cost());
    assert!(deep.miss_cost() <= mid.miss_cost());
    assert!(deep.overhead() >= mid.overhead());
}

/// The DES side of the paper's economic claim: second-chance cut-offs
/// prune exactly the subscriptions whose updates were not paying for
/// themselves. The regime matters — with short entry lifetimes (many
/// refresh intervals per run) and per-node query rates too low to
/// justify every subscription, all-out push keeps feeding dead
/// subscribers while second-chance stops after two silent intervals.
#[test]
fn second_chance_justifies_better_than_all_out_push_in_sim() {
    let run = |policy: CutoffPolicy| {
        let mut s = medium(1.0, SEED);
        s.keys = 8;
        s.entry_lifetime = SimDuration::from_secs(100);
        let mut config = ExperimentConfig::cup(s);
        config.node_config = NodeConfig::cup_with_policy(policy);
        config.track_justification = true;
        run_experiment(&config)
    };
    let second = run(CutoffPolicy::second_chance());
    let always = run(CutoffPolicy::Always);
    assert!(second.tracked_updates > 0 && always.tracked_updates > 0);
    assert!(
        second.justified_fraction() > always.justified_fraction(),
        "second-chance justified ratio {:.3} must strictly beat all-out push {:.3}",
        second.justified_fraction(),
        always.justified_fraction()
    );
    assert!(
        second.total_cost() <= always.total_cost(),
        "second-chance total cost {} must not exceed all-out push {}",
        second.total_cost(),
        always.total_cost()
    );
}

/// The same claim on both runtimes, through the conformance script: the
/// worker-pool live runtime and the DES each report a strictly higher
/// justified ratio for second-chance than for `Always`, at equal or
/// lower total hop cost.
#[test]
fn second_chance_justifies_better_than_all_out_push_on_both_runtimes() {
    // Extra refresh rounds give the cut-offs time to prune the
    // no-longer-queried subscriptions that all-out push keeps feeding.
    let second_spec = ConformanceSpec {
        refresh_rounds: 6,
        ..ConformanceSpec::small(OverlayKind::Can) // cup_default *is* second-chance
    };
    let always_spec = ConformanceSpec {
        config: NodeConfig::cup_with_policy(CutoffPolicy::Always),
        ..second_spec
    };
    type Runner = fn(&ConformanceSpec) -> Outcome;
    for (runtime, run) in [("sim", run_sim as Runner), ("live", run_live as Runner)] {
        let (second, always) = (run(&second_spec), run(&always_spec));
        assert!(
            second.tracked > 0 && always.tracked > 0,
            "{runtime}: the script must generate tracked maintenance updates"
        );
        assert!(
            second.justified_ratio() > always.justified_ratio(),
            "{runtime}: second-chance ratio {:.3} ({}/{}) must strictly beat always {:.3} ({}/{})",
            second.justified_ratio(),
            second.justified,
            second.tracked,
            always.justified_ratio(),
            always.justified,
            always.tracked
        );
        assert!(
            second.net.hops() <= always.net.hops(),
            "{runtime}: second-chance hops {} must not exceed always {}",
            second.net.hops(),
            always.net.hops()
        );
    }
}

#[test]
fn scaling_the_network_grows_cup_advantage() {
    // Table 2's headline: "CUP reduces latency respectively by 5.5, 7.5,
    // and 11.8 hops per miss for the 1024, 2048, and 4096 node networks"
    // — the absolute hops-per-miss saving grows with network size.
    let saved = |nodes: usize| {
        let (cup, std) = run_cup_and_standard(sized(nodes, 2.0));
        std.miss_latency() - cup.miss_latency()
    };
    let small = saved(128);
    let large = saved(512);
    assert!(
        large > small && large > 1.0,
        "latency saving should grow with size: {small:.2} -> {large:.2}"
    );
}
