//! Byzantine behavior faults versus the rate-limited sampled cache
//! audit, pinned against deletion ground truth (DES only — the
//! sim-vs-live half of this plane lives in `tests/conformance.rs`).
//!
//! The attack: `stale-serve` nodes swallow deletion updates and keep
//! serving their cached entries, so the clients downstream of them
//! receive answers naming replicas the workload already killed. The
//! simulator records every replica death as ground truth and charges a
//! *poisoned answer* whenever a client response contains a dead replica.
//!
//! The defense: caching nodes poll a small deterministic sample of the
//! population after serving fresh hits (LOCKSS-style opinion polls,
//! rate-limited per key), and evict-and-refetch when a polled node's
//! tombstones condemn an entry they still serve. These suites pin the
//! economics the defense must honor:
//!
//! * with the audit **off**, the attack bites (north of 1% of all
//!   client answers are poisoned) and nothing ever repairs — poison
//!   only ages out through entry-freshness expiry;
//! * with the audit **on**, repairs fire, poison falls by more than
//!   half, and the surviving rate sits under 1% of client responses —
//!   the floor being answers the attackers serve from their own caches,
//!   which no cooperative defense can reach;
//! * the audit's own traffic is **bounded**: fewer hops than CUP's
//!   propagation saves against standard caching on the same workload —
//!   the defense never costs more than the protocol's reason to exist.

use cup::prelude::*;
use cup::simnet::sweeps::{audit_config_for, audit_grid, audit_point_specs};
use cup_testkit::scenario;

/// Four stale-serve attackers spread across a 64-node network serving a
/// hot 4-key catalog at 40 queries/s, with replica churn (mean life 500
/// s, shorter than the 1 000 s query window) so deletions land
/// mid-workload while caches are warm.
fn attacked_scenario(seed: u64) -> Scenario {
    let base = Scenario {
        replica_mean_life: Some(SimDuration::from_secs(500)),
        ..scenario(64, 4, 40.0, 1_000, seed)
    };
    Scenario {
        fault_plan: audit_point_specs(&base, 4),
        ..base
    }
}

/// The audited arm of the same scenario: the sweeps-default sampled
/// audit — poll 8 of the population per round, at most one round per
/// key per node every 30 logical seconds.
fn audited_config(scenario: Scenario) -> ExperimentConfig {
    let audit = audit_config_for(&scenario, 30);
    ExperimentConfig {
        node_config: NodeConfig::cup_default().with_audit(audit),
        ..ExperimentConfig::cup(scenario)
    }
}

#[test]
fn stale_serve_poisons_answers_and_audit_off_never_repairs() {
    let off = run_experiment(&ExperimentConfig::cup(attacked_scenario(11)));
    // The attack bites hard: over 1% of all client answers named dead
    // replicas, and the poison aged past the deletions that killed them.
    assert!(
        off.net.stale_answers > 0,
        "stale-serve never poisoned a client answer"
    );
    assert!(
        off.poisoned_rate() > 0.01,
        "unaudited poisoned rate {:.4} should exceed 1% — the attack must bite",
        off.poisoned_rate()
    );
    assert!(off.net.stale_age_micros > 0, "poison must age past death");
    assert!(
        off.net.faults.byz_updates_swallowed > 0,
        "no deletion was ever swallowed"
    );
    // Without the audit there is no detection and no recovery path —
    // and no audit spend either.
    assert_eq!(off.nodes.audits_started, 0, "audit-off must not audit");
    assert_eq!(off.audit_repairs(), 0, "audit-off must not repair");
    assert_eq!(off.audit_overhead(), 0, "audit-off must not spend hops");
}

#[test]
fn audit_on_caps_the_poisoned_rate_below_one_percent() {
    let off = run_experiment(&ExperimentConfig::cup(attacked_scenario(11)));
    let on = run_experiment(&audited_config(attacked_scenario(11)));
    // The defense actually ran: rounds opened, probes answered, and the
    // tombstone quorum condemned served-while-dead entries.
    assert!(on.nodes.audits_started > 0, "no audit round opened");
    assert!(on.nodes.audit_replies > 0, "no audit reply processed");
    assert!(on.audit_repairs() > 0, "the audit never repaired a cache");
    // It worked: poison falls by more than half, and the surviving rate
    // sits under 1% of client responses.
    assert!(
        on.net.stale_answers * 2 < off.net.stale_answers,
        "the audit must at least halve the poison ({} vs {})",
        on.net.stale_answers,
        off.net.stale_answers
    );
    assert!(
        on.poisoned_rate() < 0.01,
        "audited poisoned rate {:.4} must stay under 1%",
        on.poisoned_rate()
    );
    // Repairs shorten how long poison lingers: the detection-latency
    // proxy (mean poisoned-answer age) must improve too.
    assert!(
        on.recovery_latency_secs() < off.recovery_latency_secs(),
        "repairs must shorten poison dwell time ({:.1}s vs {:.1}s)",
        on.recovery_latency_secs(),
        off.recovery_latency_secs()
    );
}

#[test]
fn audit_overhead_stays_below_cups_update_savings() {
    let on = run_experiment(&audited_config(attacked_scenario(11)));
    // CUP's reason to exist on this workload: the hops its propagation
    // saves against standard caching (fault-free arms, same seed).
    let clean = Scenario {
        fault_plan: Vec::new(),
        ..attacked_scenario(11)
    };
    let standard = run_experiment(&ExperimentConfig::standard_caching(clean.clone()));
    let cup = run_experiment(&ExperimentConfig::cup(clean));
    let savings = standard
        .total_cost()
        .checked_sub(cup.total_cost())
        .expect("CUP beats standard caching on this workload");
    assert!(savings > 0, "no savings to compare the audit bill against");
    assert!(
        on.audit_overhead() < savings,
        "audit bill {} must stay below CUP's savings {}",
        on.audit_overhead(),
        savings
    );
    // And it stays a small fraction of the paper's §3.3 total cost.
    assert!(
        on.audit_overhead_ratio() < 0.25,
        "audit overhead ratio {:.3} must stay modest",
        on.audit_overhead_ratio()
    );
}

#[test]
fn audit_grid_rows_are_consistent_with_the_single_runs() {
    // The audit grid tells the same story — and its attacked/audited row
    // is the *same experiment* as the single runs above (same scenario,
    // same derived audit config), so the numbers must agree exactly
    // across the two drivers.
    let clean_base = Scenario {
        fault_plan: Vec::new(),
        ..attacked_scenario(11)
    };
    let grid = audit_grid(&clean_base, &[0, 4], 30, 2);
    assert_eq!(grid.len(), 4);
    let (calm_off, calm_on, hot_off, hot_on) = (&grid[0], &grid[1], &grid[2], &grid[3]);
    assert_eq!((calm_off.attackers, hot_off.attackers), (0, 4));
    // No attacker, no poison — audited or not.
    assert_eq!(calm_off.poisoned, 0);
    assert_eq!(calm_on.poisoned, 0);
    // Attacked: the audit repairs and strictly reduces poison.
    assert!(hot_off.poisoned > 0, "the attacked row must be poisoned");
    assert_eq!(hot_off.repairs, 0);
    assert!(hot_on.repairs > 0);
    assert!(hot_on.poisoned < hot_off.poisoned);
    assert!(hot_on.poisoned_rate < 0.01);
    // Repairs shorten exposure: poison served under the audit is no
    // older than without it, in the mean and in the p99 tail.
    assert!(
        hot_on.poisoned_exposure_secs <= hot_off.poisoned_exposure_secs,
        "audited mean exposure {:.1}s vs {:.1}s unaudited",
        hot_on.poisoned_exposure_secs,
        hot_off.poisoned_exposure_secs
    );
    assert!(
        hot_on.poisoned_age_p99_secs <= hot_off.poisoned_age_p99_secs,
        "audited p99 exposure {:.1}s vs {:.1}s unaudited",
        hot_on.poisoned_age_p99_secs,
        hot_off.poisoned_age_p99_secs
    );
    // Cross-check against the single runs, byte for byte.
    let off = run_experiment(&ExperimentConfig::cup(attacked_scenario(11)));
    let on = run_experiment(&audited_config(attacked_scenario(11)));
    assert_eq!(hot_off.poisoned, off.net.stale_answers);
    assert_eq!(hot_on.poisoned, on.net.stale_answers);
    assert_eq!(hot_on.repairs, on.audit_repairs());
    assert_eq!(hot_on.audit_hops, on.audit_overhead());
}
