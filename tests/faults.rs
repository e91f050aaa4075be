//! Fault-plane integration: determinism, recovery, and the economics of
//! CUP on an unreliable network.
//!
//! The paper's setting is flaky peers and lossy links; these suites pin
//! the properties that make the `cup-faults` plane trustworthy there:
//!
//! * fault runs are **deterministic** — byte-identical
//!   `ExperimentResult`s across reruns and across sweep worker counts
//!   (live worker-pool sizes are pinned by `tests/conformance.rs`, whose
//!   fault scenarios assert every live cell equals the DES outcome);
//! * **recovery works** — a crashed authority rebuilds its directory
//!   from replica refreshes once restarted, and lost Clear-Bits re-send
//!   on the next unwanted update instead of assuming delivery;
//! * the **economics survive loss** — at 5% link loss CUP still buys
//!   strictly more cache hits per hop spent than all-out push.

use cup::prelude::*;
use cup::simnet::sweeps::{
    audit_config_for, audit_grid, audit_point_specs, fault_grid, fault_point_specs,
};
use cup_testkit::{assert_deterministic, medium, tiny};

/// A lossy, crashy, partitioned scenario over the tiny preset.
fn faulty_scenario(seed: u64) -> Scenario {
    tiny(5.0, seed).with_fault_plan(&[
        "drop:0.1",
        "crash:9@t=600..900",
        "crash:23@t=650..950",
        "partition:2@t=700..800",
        "spike:2@t=400..500",
    ])
}

#[test]
fn fault_runs_are_deterministic_across_reruns() {
    let result = assert_deterministic(&ExperimentConfig::cup(faulty_scenario(3)));
    assert!(result.net.faults.dropped_loss > 0);
    assert!(result.net.faults.dropped_partition > 0);
    assert_eq!(result.net.faults.crashes, 2);
    assert_eq!(result.net.faults.restarts, 2);
    assert!(
        result.net.client_responses > 0,
        "service survives the faults"
    );
    // Different seeds draw different loss patterns.
    let other = run_experiment(&ExperimentConfig::cup(faulty_scenario(4)));
    assert_ne!(result, other);
}

#[test]
fn fault_sweep_is_identical_across_sweep_worker_counts() {
    let base = tiny(5.0, 11);
    let losses = [0.0, 0.05];
    let crashes = [0, 3];
    let serial = fault_grid(&base, &losses, &crashes, 1);
    let parallel = fault_grid(&base, &losses, &crashes, 4);
    assert_eq!(
        serial, parallel,
        "sweep rows must not depend on the pool size"
    );
}

/// A Byzantine stale-serve attack over the tiny preset with replica
/// churn, so the audit has deletions to detect.
fn audited_attacked_config(seed: u64) -> ExperimentConfig {
    let base = Scenario {
        replica_mean_life: Some(SimDuration::from_secs(600)),
        ..tiny(5.0, seed)
    };
    let audit = audit_config_for(&base, 30);
    let scenario = Scenario {
        fault_plan: audit_point_specs(&base, 4),
        ..base
    };
    ExperimentConfig {
        node_config: NodeConfig::cup_default().with_audit(audit),
        ..ExperimentConfig::cup(scenario)
    }
}

#[test]
fn audit_runs_are_deterministic_across_reruns() {
    // The audit's sampling draws (counter-mode over node, key, round)
    // and its repair decisions are part of the byte-identical result —
    // rerunning the same seed replays the same probes, replies, and
    // evictions.
    let result = assert_deterministic(&audited_attacked_config(3));
    assert!(result.nodes.audits_started > 0, "the audit must run");
    assert!(result.nodes.audit_replies > 0);
    assert!(result.audit_overhead() > 0);
    assert!(
        result.net.faults.byz_updates_swallowed > 0,
        "the attack must bite"
    );
    // Different seeds sample different targets and land different
    // workloads.
    let other = run_experiment(&audited_attacked_config(4));
    assert_ne!(result, other);
}

#[test]
fn audit_sweep_is_identical_across_sweep_worker_counts() {
    let base = Scenario {
        replica_mean_life: Some(SimDuration::from_secs(600)),
        ..tiny(5.0, 11)
    };
    let serial = audit_grid(&base, &[0, 4], 30, 1);
    let parallel = audit_grid(&base, &[0, 4], 30, 4);
    assert_eq!(
        serial, parallel,
        "audit sweep rows must not depend on the pool size"
    );
}

#[test]
fn cup_beats_all_out_push_on_hit_rate_per_cost_at_5_percent_loss() {
    // The pinned economic claim on an unreliable network: at 5% link
    // loss, second-chance CUP buys strictly more cache hits per hop of
    // total cost than all-out push. (Push delivers a few more hits — it
    // refreshes everything — but pays for them far past the break-even.)
    // The regime matters: with several replicas per key each refresh
    // cycle multiplies (every replica keeps its own lease), so feeding a
    // tree that queries no longer justify gets expensive fast — §3.6's
    // many-replica setting is exactly where controlled propagation pays.
    // A Zipf catalog adds the cold tail whose subscriptions second-
    // chance prunes and all-out push keeps watering. Margin is 5–8%
    // across seeds.
    let base = Scenario {
        nodes: 128,
        keys: 16,
        replicas_per_key: 6,
        entry_lifetime: SimDuration::from_secs(100),
        key_distribution: cup::workload::scenario::KeyDistribution::Zipf { exponent: 0.9 },
        ..medium(10.0, 7)
    };
    let grid = fault_grid(&base, &[0.05], &[0], 2);
    assert_eq!(grid.len(), 2);
    let (cup, push) = (&grid[0], &grid[1]);
    assert_eq!(cup.policy, "second-chance");
    assert_eq!(push.policy, "always");
    assert!(cup.dropped > 0 && push.dropped > 0, "loss must bite both");
    assert!(
        cup.hits_per_kilocost() > push.hits_per_kilocost(),
        "CUP hit-rate-per-cost {:.4} (hit {:.3} / cost {}) must strictly beat \
         all-out push {:.4} (hit {:.3} / cost {})",
        cup.hits_per_kilocost(),
        cup.hit_rate,
        cup.total_cost,
        push.hits_per_kilocost(),
        push.hit_rate,
        push.total_cost
    );
}

/// Reconstructs the overlay `run_experiment` will build for `scenario`,
/// to find a key's authority before the run.
fn authority_for(scenario: &Scenario, overlay: OverlayKind, key: u32) -> usize {
    let root = DetRng::seed_from(scenario.seed);
    let mut overlay_rng = root.derive(1);
    let built = AnyOverlay::build(overlay, scenario.nodes, &mut overlay_rng).unwrap();
    built.authority(KeyId(key)).index()
}

#[test]
fn restarted_authority_rebuilds_its_directory_from_refreshes() {
    // Crash the single key's authority mid-window. While it is down the
    // key is unservable upstream; after the restart its directory is
    // empty — but replicas keep refreshing at entry-lifetime cadence,
    // and a refresh of an unknown replica acts as a birth, so service
    // returns. A permanent crash never recovers: the restart run must
    // answer strictly more queries.
    let base = Scenario {
        keys: 1,
        ..tiny(5.0, 21)
    };
    let authority = authority_for(&base, OverlayKind::Can, 0);
    let restart = Scenario {
        fault_plan: vec![format!("crash:{authority}@t=500..700")],
        ..base.clone()
    };
    let permanent = Scenario {
        fault_plan: vec![format!("crash:{authority}@t=500")],
        ..base.clone()
    };
    let restarted = run_experiment(&ExperimentConfig::cup(restart));
    let dead = run_experiment(&ExperimentConfig::cup(permanent));
    assert!(
        restarted.net.faults.replica_at_crashed > 0,
        "refreshes were lost while down"
    );
    assert_eq!(restarted.net.faults.restarts, 1);
    assert_eq!(dead.net.faults.restarts, 0);
    assert!(
        restarted.net.client_responses > dead.net.client_responses,
        "restart must restore service: {} answered vs {} with a permanent crash",
        restarted.net.client_responses,
        dead.net.client_responses
    );
    // Pre-crash counters are conserved, not lost with the wiped state.
    assert!(restarted.nodes.client_queries > 0);
}

#[test]
fn lost_clear_bits_resend_instead_of_assuming_delivery() {
    // The recovery rule for pruning: a node whose Clear-Bit was lost
    // does not wait — every further unwanted update re-triggers the
    // cut-off decision and re-sends the Clear-Bit. Driven directly on
    // the protocol state machine (the fault plane models the loss by
    // simply never delivering the first Clear-Bit upstream).
    use cup::protocol::{CupNode, NodeConfig};
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_with_policy(CutoffPolicy::Never));
    let refresh = |at: u64| Update {
        key: KeyId(1),
        kind: UpdateKind::Refresh,
        entries: vec![IndexEntry::new(
            KeyId(1),
            ReplicaId(0),
            SimDuration::from_secs(300),
            SimTime::from_secs(at),
        )],
        replica: ReplicaId(0),
        depth: 2,
        origin: SimTime::from_secs(at),
        window_end: SimTime::MAX,
    };
    let (mut first, mut second, from) = (Vec::new(), Vec::new(), NodeId(9));
    node.handle_update_into(SimTime::from_secs(10), from, refresh(10), &mut first);
    assert_eq!(
        first,
        vec![Action::send(NodeId(9), Message::ClearBit { key: KeyId(1) })],
        "unwanted update draws a Clear-Bit"
    );
    // The Clear-Bit was dropped: the parent pushes again. The node must
    // re-send rather than assume the first one arrived.
    node.handle_update_into(SimTime::from_secs(300), from, refresh(300), &mut second);
    assert_eq!(
        second,
        vec![Action::send(NodeId(9), Message::ClearBit { key: KeyId(1) })],
        "a lost Clear-Bit is re-sent on the next unwanted update"
    );
    assert_eq!(node.stats.clear_bits_sent, 2);
}

#[test]
fn stale_answers_surface_under_loss_when_deletes_go_missing() {
    // With replica deaths in the workload and heavy loss, some caches
    // never hear the delete and keep serving the dead replica until
    // expiry — the staleness metrics must catch it, and the loss-free
    // run must stay clean.
    let base = Scenario {
        replica_mean_life: Some(SimDuration::from_secs(400)),
        ..tiny(10.0, 13)
    };
    let lossy = Scenario {
        fault_plan: vec!["drop:0.4".into()],
        ..base.clone()
    };
    let clean = run_experiment(&ExperimentConfig::cup(base));
    let lossy = run_experiment(&ExperimentConfig::cup(lossy));
    assert_eq!(
        clean.net.stale_answers, 0,
        "staleness is only tracked under faults"
    );
    assert!(
        lossy.net.stale_answers > 0,
        "40% loss with dying replicas must produce stale answers"
    );
    assert!(lossy.stale_rate() > 0.0 && lossy.stale_rate() < 1.0);
    assert!(
        lossy.recovery_latency_secs() > 0.0,
        "stale answers have a positive staleness age"
    );
}

#[test]
fn fault_specs_compose_with_a_non_default_policy_and_chord() {
    // The plane is orthogonal to the rest of the configuration: a
    // non-default policy, Chord, and a fault plan in one run.
    let specs = fault_point_specs(&tiny(5.0, 17), 0.05, 2);
    let spec_refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let scenario = tiny(5.0, 17).with_fault_plan(&spec_refs);
    let mut config = ExperimentConfig::cup(scenario);
    config.node_config = NodeConfig::cup_with_policy(CutoffPolicy::Always);
    config.overlay = OverlayKind::Chord;
    config.track_justification = true;
    let result = assert_deterministic(&config);
    assert!(result.net.faults.dropped() > 0);
    assert!(result.tracked_updates > 0);
    assert!(result.justified_updates <= result.tracked_updates);
}
