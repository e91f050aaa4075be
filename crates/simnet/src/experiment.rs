//! One experiment, end to end.

use cup_core::NodeConfig;
use cup_des::{DetRng, EventQueue, LatencyModel, SimDuration};
use cup_faults::{FaultAction, FaultEvent, FaultPlan, Plane};
use cup_overlay::{AnyOverlay, OverlayKind};
use cup_workload::{
    capacity::CapacityProfile, churn::ChurnSchedule, replica::ReplicaPlan,
    scenario::KeyDistribution, KeySelector, QueryGen, Scenario,
};

use crate::event::Ev;
use crate::metrics::ExperimentResult;
use crate::network::Network;

/// Everything needed to run one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The workload (§3.2 inputs).
    pub scenario: Scenario,
    /// Protocol configuration shared by all nodes.
    pub node_config: NodeConfig,
    /// Which overlay substrate to run on.
    pub overlay: OverlayKind,
    /// Outgoing-capacity degradation (§3.7).
    pub capacity_profile: CapacityProfile,
    /// Node arrival/departure schedule (§2.9).
    pub churn: ChurnSchedule,
    /// Whether to measure justified updates (§3.1). Costs CPU at high
    /// query rates; the cost metrics never depend on it.
    pub track_justification: bool,
    /// Per-hop latency model.
    pub latency: LatencyModel,
    /// Extra simulated time after the query window so in-flight responses
    /// land before metrics are read.
    pub drain: SimDuration,
}

impl ExperimentConfig {
    /// A CUP run of the given scenario with default everything else.
    pub fn cup(scenario: Scenario) -> Self {
        ExperimentConfig {
            scenario,
            node_config: NodeConfig::cup_default(),
            overlay: OverlayKind::Can,
            capacity_profile: CapacityProfile::Full,
            churn: ChurnSchedule::none(),
            track_justification: false,
            latency: LatencyModel::default_wan(),
            drain: SimDuration::from_secs(30),
        }
    }

    /// The standard-caching baseline for the same scenario.
    pub fn standard_caching(scenario: Scenario) -> Self {
        ExperimentConfig {
            node_config: NodeConfig::standard_caching(),
            ..ExperimentConfig::cup(scenario)
        }
    }
}

/// Runs one experiment to completion and returns its metrics.
///
/// The simulation is fully deterministic in `config` (all randomness
/// derives from `scenario.seed`).
///
/// # Panics
///
/// Panics if the scenario fails validation or the overlay cannot be
/// built — experiment configurations are programmer input.
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResult {
    #[expect(clippy::expect_used, reason = "documented: programmer input")]
    config
        .scenario
        .validate()
        .expect("scenario must be internally consistent");
    let scenario = &config.scenario;
    let root = DetRng::seed_from(scenario.seed);
    let mut overlay_rng = root.derive(1);
    let workload_rng = root.derive(2);
    let mut replica_rng = root.derive(3);
    let latency_rng = root.derive(4);
    let mut capacity_rng = root.derive(5);

    #[expect(clippy::expect_used, reason = "documented: programmer input")]
    let overlay = AnyOverlay::build(config.overlay, scenario.nodes, &mut overlay_rng)
        .expect("overlay construction");
    let mut net = Network::new(
        overlay,
        config.node_config,
        config.latency.clone(),
        latency_rng,
    );
    net.plane.justify_on = config.track_justification;

    // The fault plane: spec strings become a timed event script, and the
    // plane's decision seed derives from the experiment's root RNG so
    // fault runs live in the same reproducible universe as everything
    // else.
    let fault_plan = if scenario.fault_plan.is_empty() {
        FaultPlan::none()
    } else {
        let plan = FaultPlan::parse_specs(&scenario.fault_plan)
            .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        // The plane sizes its per-node tables by the node an action
        // names, so a node outside the population is a spec error too.
        let mut named = plan.events().iter().filter_map(|ev| ev.action.node());
        if let Some(node) = named.find(|&node| node >= scenario.nodes) {
            panic!(
                "invalid fault plan: node {node} is outside the {}-node population",
                scenario.nodes
            );
        }
        net.plane.arm(root.derive(6).next());
        plan
    };

    // Query workload.
    let selector = match scenario.key_distribution {
        KeyDistribution::Uniform => KeySelector::uniform(scenario.keys),
        KeyDistribution::Zipf { exponent } => KeySelector::zipf(scenario.keys, exponent),
    };
    net.query_gen = Some(QueryGen::bursty(
        scenario.query_rate,
        selector,
        scenario.nodes,
        scenario.query_start,
        scenario.query_end,
        workload_rng,
        cup_workload::query::BurstConfig {
            size: scenario.burst_size,
            spread: scenario.burst_spread,
        },
    ));

    // Replica lifecycles.
    let plan = ReplicaPlan::build(scenario, &mut replica_rng);
    let births = plan.births();
    net.replica_plan = Some(plan);

    let node_count = scenario.nodes;
    let mut queue = EventQueue::new();
    for birth in births {
        queue.schedule(birth.at, Ev::Replica(birth));
    }
    queue.schedule(scenario.query_start, Ev::NextQuery);
    for epoch in config.capacity_profile.schedule(
        scenario.nodes,
        scenario.query_start,
        scenario.query_end,
        &mut capacity_rng,
    ) {
        for node in epoch.nodes {
            let action = FaultAction::SetCapacity {
                node,
                c: epoch.capacity,
            };
            queue.schedule(
                epoch.at,
                Ev::Fault(FaultEvent {
                    at: epoch.at,
                    action,
                }),
            );
        }
    }
    for churn_event in config.churn.events() {
        queue.schedule(churn_event.at(), Ev::Churn(*churn_event));
    }
    for fault_event in fault_plan.events() {
        queue.schedule(fault_event.at, Ev::Fault(*fault_event));
    }

    // Run through the query window plus the drain margin. The paper's
    // long post-query tail (simulation time 22 000 s vs 3 000 s of
    // querying) contributes no queries, only maintenance updates in an
    // amount set by how long the run goes on rather than by the
    // workload, so costs are accounted over the active window.
    let stop = scenario.query_end + config.drain;
    let events = net.run_until(&mut queue, stop.min(scenario.sim_end));
    let totals = Plane::totals([&net.plane]);
    ExperimentResult {
        net: totals.net,
        nodes: net.plane.nodes.aggregate_stats(),
        justified_updates: totals.justified,
        tracked_updates: totals.tracked,
        node_count,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_core::CutoffPolicy;
    use cup_des::SimTime;

    fn small_scenario(rate: f64) -> Scenario {
        // A workload where update propagation clearly pays for itself:
        // few keys, so per-key query rates are high enough that pushed
        // refreshes are justified (§3.1's 1 − e^{−ΛT} argument).
        Scenario {
            nodes: 64,
            keys: 4,
            query_rate: rate,
            query_start: SimTime::from_secs(300),
            query_end: SimTime::from_secs(1_300),
            sim_end: SimTime::from_secs(2_000),
            seed: 42,
            ..Scenario::default()
        }
    }

    #[test]
    fn standard_caching_has_zero_overhead() {
        let result = run_experiment(&ExperimentConfig::standard_caching(small_scenario(2.0)));
        assert_eq!(result.overhead(), 0, "baseline never pushes updates");
        assert!(result.miss_cost() > 0, "queries must travel");
        assert_eq!(result.total_cost(), result.miss_cost());
        assert!(result.nodes.client_queries > 1_000);
    }

    #[test]
    fn cup_beats_standard_caching_on_total_cost() {
        let scenario = small_scenario(10.0);
        let std = run_experiment(&ExperimentConfig::standard_caching(scenario.clone()));
        let cup = run_experiment(&ExperimentConfig::cup(scenario));
        assert!(
            cup.total_cost() < std.total_cost(),
            "CUP {} should beat standard caching {}",
            cup.total_cost(),
            std.total_cost()
        );
        // Note: average *latency per miss* can tick up at tiny scales
        // (CUP absorbs the easy misses locally, leaving only distant
        // ones), so the robust claim is on the aggregate miss cost.
        assert!(
            cup.miss_cost() < std.miss_cost(),
            "CUP miss cost {} vs standard {}",
            cup.miss_cost(),
            std.miss_cost()
        );
    }

    #[test]
    fn push_level_zero_equals_standard_caching_overhead() {
        let mut config = ExperimentConfig::cup(small_scenario(1.0));
        config.node_config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level: 0 });
        let result = run_experiment(&config);
        assert_eq!(
            result.net.maintenance_hops(),
            0,
            "push level 0 squelches all maintenance updates at the root"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let config = ExperimentConfig::cup(small_scenario(1.0));
        let a = run_experiment(&config);
        let b = run_experiment(&config);
        assert_eq!(a.total_cost(), b.total_cost());
        assert_eq!(a.misses(), b.misses());
        assert_eq!(a.net.refresh_hops, b.net.refresh_hops);
    }

    #[test]
    fn justification_tracking_counts_updates() {
        let mut config = ExperimentConfig::cup(small_scenario(5.0));
        config.track_justification = true;
        let result = run_experiment(&config);
        assert!(result.tracked_updates > 0);
        assert!(result.justified_updates <= result.tracked_updates);
        // At a healthy query rate most propagated updates pay for
        // themselves (the paper's 1 − e^{−ΛT} argument).
        assert!(
            result.justified_fraction() > 0.3,
            "justified fraction {} unexpectedly low",
            result.justified_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "per-key policy classes were removed")]
    fn unknown_policy_class_names_fail_loudly() {
        let scenario = Scenario {
            policy_classes: vec!["pastry".into()],
            ..small_scenario(1.0)
        };
        let _ = run_experiment(&ExperimentConfig::cup(scenario));
    }

    #[test]
    fn fault_runs_are_deterministic_and_lossy() {
        let scenario = small_scenario(5.0).with_fault_plan(&[
            "drop:0.1",
            "crash:7@t=500..900",
            "partition:2@t=600..700",
        ]);
        let config = ExperimentConfig::cup(scenario);
        let a = run_experiment(&config);
        let b = run_experiment(&config);
        assert_eq!(a, b, "fault runs must be byte-identical across reruns");
        assert!(a.net.faults.dropped_loss > 0, "10% loss must drop traffic");
        assert!(
            a.net.faults.dropped_partition > 0,
            "the partition must cut traffic"
        );
        assert_eq!(a.net.faults.crashes, 1);
        assert_eq!(a.net.faults.restarts, 1);
        // The network still works: clients keep getting answers.
        assert!(a.net.client_responses > 0);
    }

    #[test]
    fn loss_cannot_inflate_the_justified_ratio() {
        // A dropped propagation opens no justification window, so the
        // tracked count shrinks with loss but the ratio stays a ratio of
        // *delivered* updates — it must not read better than the total
        // update volume supports.
        let mut clean = ExperimentConfig::cup(small_scenario(5.0));
        clean.track_justification = true;
        let clean = run_experiment(&clean);
        let mut lossy = ExperimentConfig::cup(small_scenario(5.0).with_fault_plan(&["drop:0.3"]));
        lossy.track_justification = true;
        let lossy = run_experiment(&lossy);
        assert!(
            lossy.tracked_updates < clean.tracked_updates,
            "loss must shrink the delivered-update denominator ({} vs {})",
            lossy.tracked_updates,
            clean.tracked_updates
        );
        assert!(lossy.justified_updates <= lossy.tracked_updates);
    }

    #[test]
    fn crashed_node_comes_back_cold() {
        // Crash every node's state away mid-run and let them restart:
        // the run completes, counts exactly the scripted crash, and the
        // query stream keeps being served afterwards.
        let scenario = small_scenario(5.0).with_fault_plan(&["crash:3@t=500..600"]);
        let r = run_experiment(&ExperimentConfig::cup(scenario.clone()));
        assert_eq!(r.net.faults.crashes, 1);
        assert_eq!(r.net.faults.restarts, 1);
        let clean = run_experiment(&ExperimentConfig::cup(Scenario {
            fault_plan: Vec::new(),
            ..scenario
        }));
        assert!(
            r.net.client_responses <= clean.net.client_responses,
            "a crash cannot create answers out of thin air"
        );
        assert!(r.net.client_responses > 0);
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn malformed_fault_plans_fail_loudly() {
        let scenario = small_scenario(1.0).with_fault_plan(&["drop:2.0"]);
        let _ = run_experiment(&ExperimentConfig::cup(scenario));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan: node 18446744073709551615 is outside")]
    fn a_fault_naming_a_node_outside_the_population_fails_loudly() {
        let scenario = Scenario {
            nodes: 16,
            ..small_scenario(1.0)
        };
        let scenario = scenario.with_fault_plan(&["crash:18446744073709551615@t=1"]);
        let _ = run_experiment(&ExperimentConfig::cup(scenario));
    }

    #[test]
    fn chord_substrate_also_works() {
        let mut config = ExperimentConfig::cup(small_scenario(10.0));
        config.overlay = OverlayKind::Chord;
        let cup = run_experiment(&config);
        let mut std_config = ExperimentConfig::standard_caching(small_scenario(10.0));
        std_config.overlay = OverlayKind::Chord;
        let std = run_experiment(&std_config);
        assert!(cup.total_cost() < std.total_cost());
    }
}
