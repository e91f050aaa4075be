//! Capacity degradation (§3.7): CUP falls back gracefully when nodes
//! cannot push updates, and a live node's cut holds its pushes until
//! it recovers.

use cup::prelude::*;
use cup_testkit::{assert_cheaper, assert_deterministic, medium};

fn scenario() -> Scenario {
    medium(20.0, 404)
}

fn with_profile(profile: CapacityProfile) -> ExperimentConfig {
    let mut config = ExperimentConfig::cup(scenario());
    config.capacity_profile = profile;
    config
}

#[test]
fn degraded_cup_still_beats_standard_caching() {
    // The paper's key claim: "even when the capacity of one fifth of the
    // nodes is reduced to zero percent ... CUP outperforms standard
    // caching."
    let std = run_experiment(&ExperimentConfig::standard_caching(scenario()));
    for profile in [
        CapacityProfile::UpAndDown {
            fraction: 0.2,
            reduced: 0.0,
        },
        CapacityProfile::OnceDownAlwaysDown {
            fraction: 0.2,
            reduced: 0.0,
        },
    ] {
        let cup = run_experiment(&with_profile(profile));
        assert_cheaper(&format!("{profile:?}"), &cup, &std);
    }
}

#[test]
fn performance_degrades_gracefully_with_capacity() {
    // Sweeping c from 0 to 1 must not produce wild swings; the miss cost
    // at full capacity is the best.
    let run_at = |c: f64| {
        run_experiment(&with_profile(CapacityProfile::OnceDownAlwaysDown {
            fraction: 0.2,
            reduced: c,
        }))
    };
    let zero = run_at(0.0);
    let half = run_at(0.5);
    let full = run_experiment(&ExperimentConfig::cup(scenario()));
    assert!(
        full.miss_cost() <= zero.miss_cost(),
        "full capacity should miss least: full {} vs zero {}",
        full.miss_cost(),
        zero.miss_cost()
    );
    // Intermediate capacity lands in a sane band.
    assert!(half.total_cost() <= zero.total_cost().max(full.total_cost()) * 2);
}

#[test]
fn answers_survive_zero_capacity() {
    let result = run_experiment(&with_profile(CapacityProfile::UpAndDown {
        fraction: 0.2,
        reduced: 0.0,
    }));
    // Responses bypass the §2.8 queues: at c = 0 a degraded node stops
    // pushing maintenance updates, never answering queries.
    let answered = result.net.client_responses as f64 / result.nodes.client_queries as f64;
    assert!(
        answered > 0.9,
        "queries must eventually be answered, got {answered:.3}"
    );
}

#[test]
fn up_and_down_recovers_between_epochs() {
    let up_down = run_experiment(&with_profile(CapacityProfile::UpAndDown {
        fraction: 0.2,
        reduced: 0.25,
    }));
    let once_down = run_experiment(&with_profile(CapacityProfile::OnceDownAlwaysDown {
        fraction: 0.2,
        reduced: 0.25,
    }));
    // Nodes that recover should do no worse than nodes that stay down.
    assert!(
        up_down.miss_cost() <= once_down.miss_cost() * 12 / 10,
        "up-and-down {} vs once-down {}",
        up_down.miss_cost(),
        once_down.miss_cost()
    );
}

#[test]
fn capacity_runs_are_deterministic() {
    // Degradation epochs draw from their own RNG stream; the whole run
    // must still be byte-identical given the seed.
    assert_deterministic(&with_profile(CapacityProfile::UpAndDown {
        fraction: 0.2,
        reduced: 0.25,
    }));
}

#[test]
fn a_live_authority_cut_to_zero_holds_its_refreshes_until_it_recovers() {
    let (kind, nodes, seed) = (OverlayKind::Chord, 32, 5);
    let overlay = AnyOverlay::build(kind, nodes, &mut DetRng::seed_from(seed)).unwrap();
    let (key, replica, life) = (KeyId(0), ReplicaId(0), SimDuration::from_secs(1_000));
    let authority = overlay.authority(key);
    let config = NodeConfig::cup_default();
    let map = ShardMapMode::Contiguous;
    let mut rng = DetRng::seed_from(seed);
    let net = LiveNetwork::start_virtual_with_map(kind, nodes, config, 2, map, &mut rng).unwrap();
    let at = |secs: u64| net.run_until(SimTime::from_secs(secs));
    let refresh_hops = || {
        net.quiesce();
        net.totals().net.refresh_hops
    };
    net.replica_birth(key, replica, life);
    // Subscribers: every other node asks for the key once.
    at(1);
    for &node in net.nodes().iter().filter(|&&n| n != authority) {
        assert_eq!(net.query(node, key).unwrap().len(), 1);
    }
    at(10);
    net.replica_refresh(key, replica, life);
    let pushed = refresh_hops();
    assert!(pushed > 0, "an uncut authority pushes its refresh");
    // Cut to 0: the next refresh waits in the authority's queues, and
    // the services `run_until` steps through push none of it.
    let cut = |c| FaultAction::SetCapacity {
        node: authority.index(),
        c,
    };
    at(20);
    net.inject_fault(cut(0.0));
    at(30);
    net.replica_refresh(key, replica, life);
    at(35);
    assert_eq!(refresh_hops(), pushed, "held behind the cut");
    // Back at full capacity, the service due at 35 s drains the queue.
    net.inject_fault(cut(1.0));
    assert_eq!(refresh_hops(), pushed, "held until the next service");
    net.run_until(SimTime::from_secs(35) + SimDuration::from_micros(1));
    assert_eq!(refresh_hops(), 2 * pushed, "the service pushed the refresh");
    at(60);
    assert_eq!(refresh_hops(), 2 * pushed);
    let cut_node = net.shutdown().into_iter().find(|n| n.id() == authority);
    assert!(
        !cut_node.unwrap().is_throttled(),
        "the service lifted the throttle"
    );
}
