//! Parameter sweeps reproducing every table and figure of the paper —
//! run as a thread-parallel sweep subsystem.
//!
//! Each function takes a *base* scenario so callers choose the scale: the
//! `repro` binary runs anything from its 64-node golden-snapshot scale up
//! to the paper's parameters (2¹⁰ nodes, 3 000 s of querying), and the
//! economics suites run scaled-down versions with the same shape.
//!
//! Every grid point is an independent deterministic DES run, so each
//! sweep flattens its grid into a job list and farms it over
//! [`crate::par::parallel_map`] on `workers` threads (callers without an
//! opinion pass [`crate::par::default_workers`]). Results come back in
//! input order, which makes the parallel path byte-identical to the
//! serial one (`workers = 1`).

use cup_core::{AuditConfig, CutoffPolicy, NodeConfig, ResetMode};
use cup_des::SimDuration;
use cup_workload::{capacity::CapacityProfile, Scenario};

use crate::experiment::{run_experiment, ExperimentConfig};
use crate::metrics::ExperimentResult;
use crate::par::parallel_map;

/// Runs one grid point: `base` at `rate` under `node_config`.
fn run_point(base: &Scenario, node_config: NodeConfig, rate: f64) -> ExperimentResult {
    let scenario = Scenario {
        query_rate: rate,
        ..base.clone()
    };
    run_experiment(&ExperimentConfig {
        node_config,
        ..ExperimentConfig::cup(scenario)
    })
}

/// One point of the Figure 3/4 push-level sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PushLevelPoint {
    /// Network-wide query rate (q/s).
    pub rate: f64,
    /// Push level p (0 = standard caching).
    pub level: u32,
    /// Total cost in hops.
    pub total_cost: u64,
    /// Miss cost in hops.
    pub miss_cost: u64,
}

/// Figures 3 and 4: total and miss cost versus push level.
///
/// "A push level of p means that updates are propagated to all nodes that
/// have queried for the key and that are at most p hops from the
/// authority node. A push level of 0 corresponds to standard caching."
pub fn push_level_sweep(
    base: &Scenario,
    rates: &[f64],
    levels: &[u32],
    workers: usize,
) -> Vec<PushLevelPoint> {
    let grid: Vec<(f64, u32)> = rates
        .iter()
        .flat_map(|&rate| levels.iter().map(move |&level| (rate, level)))
        .collect();
    parallel_map(&grid, workers, |&(rate, level)| {
        let r = run_point(
            base,
            NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level }),
            rate,
        );
        PushLevelPoint {
            rate,
            level,
            total_cost: r.total_cost(),
            miss_cost: r.miss_cost(),
        }
    })
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// Human-readable policy name in the paper's wording.
    pub policy: String,
    /// Total cost per query rate, aligned with the requested rates.
    pub total_costs: Vec<u64>,
    /// Total cost normalized by standard caching at the same rate.
    pub normalized: Vec<f64>,
}

/// Table 1: total cost for varying cut-off policies.
///
/// Runs standard caching, linear and logarithmic thresholds for several
/// α values, second-chance, and the optimal push level (the minimum over
/// `optimal_levels`).
pub fn policy_table(
    base: &Scenario,
    rates: &[f64],
    optimal_levels: &[u32],
    workers: usize,
) -> Vec<PolicyRow> {
    let mut policies: Vec<(String, NodeConfig)> =
        vec![("Standard Caching".into(), NodeConfig::standard_caching())];
    for alpha in [0.25, 0.10, 0.01, 0.001] {
        policies.push((
            format!("Linear, a = {alpha}"),
            NodeConfig::cup_with_policy(CutoffPolicy::Linear { alpha }),
        ));
    }
    for alpha in [0.5, 0.25, 0.10, 0.01] {
        policies.push((
            format!("Logarithmic, a = {alpha}"),
            NodeConfig::cup_with_policy(CutoffPolicy::Logarithmic { alpha }),
        ));
    }
    policies.push((
        "Second-chance".into(),
        NodeConfig::cup_with_policy(CutoffPolicy::second_chance()),
    ));

    // Flatten the whole table — named policies plus the push levels the
    // optimal row minimizes over — into one job list, one experiment
    // each.
    let mut jobs: Vec<(NodeConfig, f64)> = Vec::new();
    for (_, config) in &policies {
        for &rate in rates {
            jobs.push((*config, rate));
        }
    }
    for &level in optimal_levels {
        let config = NodeConfig::cup_with_policy(CutoffPolicy::PushLevel { level });
        for &rate in rates {
            jobs.push((config, rate));
        }
    }
    let costs: Vec<u64> = parallel_map(&jobs, workers, |&(config, rate)| {
        run_point(base, config, rate).total_cost()
    });

    // Reassemble in job order: `policies` rows first, rates fastest.
    let mut rows = Vec::new();
    let standard_costs: Vec<u64> = costs[..rates.len()].to_vec();
    for (i, (name, _)) in policies.iter().enumerate() {
        let row_costs = costs[i * rates.len()..(i + 1) * rates.len()].to_vec();
        let normalized = normalize(&row_costs, &standard_costs);
        rows.push(PolicyRow {
            policy: name.clone(),
            total_costs: row_costs,
            normalized,
        });
    }
    // Optimal push level: best total cost over the sweep, per rate.
    let mut optimal = vec![u64::MAX; rates.len()];
    let tail = &costs[policies.len() * rates.len()..];
    for (l, _) in optimal_levels.iter().enumerate() {
        for (i, _) in rates.iter().enumerate() {
            optimal[i] = optimal[i].min(tail[l * rates.len() + i]);
        }
    }
    let normalized = normalize(&optimal, &standard_costs);
    rows.push(PolicyRow {
        policy: "Optimal push level".into(),
        total_costs: optimal,
        normalized,
    });
    rows
}

fn normalize(costs: &[u64], baseline: &[u64]) -> Vec<f64> {
    costs
        .iter()
        .zip(baseline)
        .map(|(&c, &b)| if b == 0 { 0.0 } else { c as f64 / b as f64 })
        .collect()
}

/// One column of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeColumn {
    /// Number of nodes.
    pub nodes: usize,
    /// CUP miss cost / standard-caching miss cost.
    pub miss_cost_ratio: f64,
    /// CUP average hops per miss.
    pub cup_miss_latency: f64,
    /// Standard-caching average hops per miss.
    pub std_miss_latency: f64,
    /// Saved miss hops per CUP overhead hop.
    pub saved_per_overhead: f64,
}

/// Table 2: CUP versus standard caching across network sizes (second-
/// chance policy).
pub fn size_sweep(base: &Scenario, sizes: &[usize], workers: usize) -> Vec<SizeColumn> {
    // Two jobs per size: the baseline and the CUP run.
    let jobs: Vec<(usize, bool)> = sizes
        .iter()
        .flat_map(|&nodes| [(nodes, false), (nodes, true)])
        .collect();
    let results = parallel_map(&jobs, workers, |&(nodes, cup)| {
        let scenario = Scenario {
            nodes,
            ..base.clone()
        };
        if cup {
            run_experiment(&ExperimentConfig::cup(scenario))
        } else {
            run_experiment(&ExperimentConfig::standard_caching(scenario))
        }
    });
    sizes
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&nodes, pair)| {
            let (std, cup) = (&pair[0], &pair[1]);
            SizeColumn {
                nodes,
                miss_cost_ratio: ratio(cup.miss_cost(), std.miss_cost()),
                cup_miss_latency: cup.miss_latency(),
                std_miss_latency: std.miss_latency(),
                saved_per_overhead: cup.saved_miss_overhead_ratio(std.miss_cost()),
            }
        })
        .collect()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRow {
    /// Replicas per key.
    pub replicas: u32,
    /// Naive cut-off: miss cost.
    pub naive_miss_cost: u64,
    /// Naive cut-off: absolute misses.
    pub naive_misses: u64,
    /// Replica-independent cut-off: miss cost.
    pub fixed_miss_cost: u64,
    /// Replica-independent cut-off: absolute misses.
    pub fixed_misses: u64,
    /// Replica-independent cut-off: total cost.
    pub fixed_total_cost: u64,
}

/// Table 3: the effect of multiple replicas per key under the naive and
/// the replica-independent cut-off (second-chance policy, λ = 1 q/s in
/// the paper).
pub fn replica_sweep(base: &Scenario, replica_counts: &[u32], workers: usize) -> Vec<ReplicaRow> {
    // Two jobs per count: naive reset and replica-independent reset.
    let jobs: Vec<(u32, bool)> = replica_counts
        .iter()
        .flat_map(|&replicas| [(replicas, true), (replicas, false)])
        .collect();
    let results = parallel_map(&jobs, workers, |&(replicas, naive)| {
        let scenario = Scenario {
            replicas_per_key: replicas,
            ..base.clone()
        };
        let mut config = ExperimentConfig::cup(scenario);
        if naive {
            config.node_config.reset_mode = ResetMode::Naive;
        }
        run_experiment(&config)
    });
    replica_counts
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&replicas, pair)| {
            let (naive, fixed) = (&pair[0], &pair[1]);
            ReplicaRow {
                replicas,
                naive_miss_cost: naive.miss_cost(),
                naive_misses: naive.misses(),
                fixed_miss_cost: fixed.miss_cost(),
                fixed_misses: fixed.misses(),
                fixed_total_cost: fixed.total_cost(),
            }
        })
        .collect()
}

/// One point of the Figure 5/6 capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPoint {
    /// Reduced capacity c.
    pub capacity: f64,
    /// Total cost with the Up-And-Down profile.
    pub up_and_down: u64,
    /// Total cost with Once-Down-Always-Down.
    pub once_down: u64,
    /// Standard caching reference at the same rate.
    pub standard: u64,
}

/// Figures 5 and 6: total cost versus reduced capacity for the two §3.7
/// degradation profiles, plus the standard-caching horizontal reference.
pub fn capacity_sweep(base: &Scenario, capacities: &[f64], workers: usize) -> Vec<CapacityPoint> {
    // Job 0 is the shared standard-caching reference; then two profile
    // runs per capacity.
    let mut jobs: Vec<Option<(f64, bool)>> = vec![None];
    for &c in capacities {
        jobs.push(Some((c, true)));
        jobs.push(Some((c, false)));
    }
    let results = parallel_map(&jobs, workers, |job| match job {
        None => run_experiment(&ExperimentConfig::standard_caching(base.clone())).total_cost(),
        Some((c, up_and_down)) => {
            let mut config = ExperimentConfig::cup(base.clone());
            config.capacity_profile = if *up_and_down {
                CapacityProfile::UpAndDown {
                    fraction: 0.2,
                    reduced: *c,
                }
            } else {
                CapacityProfile::OnceDownAlwaysDown {
                    fraction: 0.2,
                    reduced: *c,
                }
            };
            run_experiment(&config).total_cost()
        }
    });
    let standard = results[0];
    capacities
        .iter()
        .zip(results[1..].chunks_exact(2))
        .map(|(&capacity, pair)| CapacityPoint {
            capacity,
            up_and_down: pair[0],
            once_down: pair[1],
            standard,
        })
        .collect()
}

/// One point of the loss × crash fault grid ([`fault_grid`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGridPoint {
    /// Stable policy name (`CutoffPolicy::name`): `second-chance` is
    /// CUP, `always` is the all-out-push reference.
    pub policy: String,
    /// Per-message link-loss probability.
    pub loss: f64,
    /// Nodes crashed (and later restarted) during the query window.
    pub crashes: u32,
    /// Total cost in hops.
    pub total_cost: u64,
    /// Miss cost in hops.
    pub miss_cost: u64,
    /// Client cache-hit rate.
    pub hit_rate: f64,
    /// Fraction of client answers serving a globally dead replica.
    pub stale_rate: f64,
    /// §3.1 justified maintenance updates.
    pub justified: u64,
    /// Maintenance updates tracked (justification denominator).
    pub tracked: u64,
    /// Messages the fault plane dropped.
    pub dropped: u64,
    /// Mean staleness age of stale answers (seconds) — how long lost
    /// deletions lingered.
    pub recovery_latency_secs: f64,
    /// Median staleness age (seconds), read off the staleness histogram.
    pub stale_age_p50_secs: f64,
    /// p99 staleness age (seconds) — the recovery *tail* behind the
    /// `recovery_latency_secs` mean.
    pub stale_age_p99_secs: f64,
    /// Client-query latency percentiles (µs of virtual time): p50, p90,
    /// p99, p999.
    pub query_p50_us: u64,
    /// p90 client-query latency (µs).
    pub query_p90_us: u64,
    /// p99 client-query latency (µs).
    pub query_p99_us: u64,
    /// p99.9 client-query latency (µs).
    pub query_p999_us: u64,
}

impl FaultGridPoint {
    /// Fraction of tracked updates that were justified.
    pub fn justified_ratio(&self) -> f64 {
        ratio(self.justified, self.tracked)
    }

    /// Cache hits bought per hop of total cost — the figure of merit the
    /// fault suite pins CUP strictly above all-out push on.
    pub fn hits_per_kilocost(&self) -> f64 {
        if self.total_cost == 0 {
            0.0
        } else {
            self.hit_rate * 1_000.0 / self.total_cost as f64
        }
    }
}

/// Synthesizes the fault spec strings for one grid point: whole-run loss
/// at `loss`, plus `crashes` *distinct* nodes crashing a third of the
/// way into the query window and restarting cold at two thirds
/// (`crashes` is capped at the population).
pub fn fault_point_specs(base: &Scenario, loss: f64, crashes: u32) -> Vec<String> {
    let mut specs = Vec::new();
    if loss > 0.0 {
        specs.push(format!("drop:{loss}"));
    }
    let start = base.query_start.as_micros() / 1_000_000;
    let window = base.query_window().as_micros() / 1_000_000;
    let down = start + window / 3;
    // A sub-3-second window would collapse to an empty crash interval;
    // keep restart strictly after crash.
    let up = (start + 2 * window / 3).max(down + 1);
    // Deterministic victims, evenly spread and guaranteed distinct: an
    // even stride never wraps within the first `crashes` picks.
    let crashes = (crashes as usize).min(base.nodes);
    let stride = (base.nodes / crashes.max(1)).max(1);
    for i in 0..crashes {
        let node = i * stride;
        specs.push(format!("crash:{node}@t={down}..{up}"));
    }
    specs
}

/// The loss × crash-count fault grid: every point runs CUP
/// (second-chance) and the all-out-push reference (`always`) under the
/// same fault plan, with justification tracked. Rows come back in
/// loss-major, crash-minor order with the two policies adjacent
/// (CUP first), whatever the sweep worker count.
pub fn fault_grid(
    base: &Scenario,
    losses: &[f64],
    crash_counts: &[u32],
    workers: usize,
) -> Vec<FaultGridPoint> {
    let policies = [CutoffPolicy::second_chance(), CutoffPolicy::Always];
    let mut grid: Vec<(f64, u32, CutoffPolicy)> = Vec::new();
    for &loss in losses {
        for &crashes in crash_counts {
            for &p in &policies {
                grid.push((loss, crashes, p));
            }
        }
    }
    parallel_map(&grid, workers, |&(loss, crashes, policy)| {
        let scenario = Scenario {
            fault_plan: fault_point_specs(base, loss, crashes),
            ..base.clone()
        };
        let config = ExperimentConfig {
            node_config: NodeConfig::cup_with_policy(policy),
            track_justification: true,
            ..ExperimentConfig::cup(scenario)
        };
        let r = run_experiment(&config);
        FaultGridPoint {
            policy: policy.name(),
            loss,
            crashes,
            total_cost: r.total_cost(),
            miss_cost: r.miss_cost(),
            hit_rate: r.hit_rate(),
            stale_rate: r.stale_rate(),
            justified: r.justified_updates,
            tracked: r.tracked_updates,
            dropped: r.net.faults.dropped(),
            recovery_latency_secs: r.recovery_latency_secs(),
            stale_age_p50_secs: r.stale_age_us(500) as f64 / 1e6,
            stale_age_p99_secs: r.stale_age_us(990) as f64 / 1e6,
            query_p50_us: r.query_latency_us(500),
            query_p90_us: r.query_latency_us(900),
            query_p99_us: r.query_latency_us(990),
            query_p999_us: r.query_latency_us(999),
        }
    })
}

/// One point of the Byzantine-attack × audit grid ([`audit_grid`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditGridPoint {
    /// Nodes running the stale-serve behavior fault.
    pub attackers: u32,
    /// Whether the sampled cache audit was enabled.
    pub audited: bool,
    /// Paper total cost in hops (§3.3 — excludes audit traffic).
    pub total_cost: u64,
    /// Hops spent on audit probes and replies (the defense's bill).
    pub audit_hops: u64,
    /// Client answers that served a globally dead replica.
    pub poisoned: u64,
    /// Poisoned answers per client response.
    pub poisoned_rate: f64,
    /// Audit rounds opened across all nodes.
    pub audits: u64,
    /// Evict-and-refetch repairs applied.
    pub repairs: u64,
    /// Client cache-hit rate.
    pub hit_rate: f64,
    /// Mean age of poisoned answers (seconds since the deletion): how
    /// long poison lingered before eviction, repair, or expiry stopped
    /// it being served. This is an *exposure* measure, not a detection
    /// clock — it was previously published as `detection_latency_secs`,
    /// silently reading the recovery-latency accessor.
    pub poisoned_exposure_secs: f64,
    /// p99 poisoned-answer age (seconds) — the exposure tail the mean
    /// hides, read off the staleness histogram.
    pub poisoned_age_p99_secs: f64,
}

/// Salt folded into the scenario seed for the audit sampling stream, so
/// audit target choices decorrelate from every other seeded subsystem.
const AUDIT_SEED_SALT: u64 = 0xA0D1_7CA5_E5A1_7ED0;

/// The audit configuration an experiment over `base` uses: population =
/// the scenario's node count, seed derived from the scenario seed.
pub fn audit_config_for(base: &Scenario, interval_secs: u64) -> AuditConfig {
    AuditConfig::sampled(
        SimDuration::from_secs(interval_secs),
        base.nodes as u32,
        base.seed ^ AUDIT_SEED_SALT,
    )
}

/// Synthesizes the behavior-fault spec strings for one audit grid point:
/// `attackers` *distinct* nodes serve stale for the whole run (the
/// stride-spread victim choice [`fault_point_specs`] uses).
pub fn audit_point_specs(base: &Scenario, attackers: u32) -> Vec<String> {
    let attackers = (attackers as usize).min(base.nodes);
    let stride = (base.nodes / attackers.max(1)).max(1);
    (0..attackers)
        .map(|i| format!("stale-serve:{}", i * stride))
        .collect()
}

/// The attacker-count × audit-on/off grid: every point runs CUP
/// (second-chance) under the same stale-serve attack, with and without
/// the sampled audit. Rows come back attacker-major with the two audit
/// arms adjacent (audit off first), whatever the sweep worker count.
pub fn audit_grid(
    base: &Scenario,
    attacker_counts: &[u32],
    interval_secs: u64,
    workers: usize,
) -> Vec<AuditGridPoint> {
    let mut grid: Vec<(u32, bool)> = Vec::new();
    for &attackers in attacker_counts {
        grid.push((attackers, false));
        grid.push((attackers, true));
    }
    parallel_map(&grid, workers, |&(attackers, audited)| {
        let scenario = Scenario {
            fault_plan: audit_point_specs(base, attackers),
            ..base.clone()
        };
        let mut node_config = NodeConfig::cup_default();
        if audited {
            node_config = node_config.with_audit(audit_config_for(base, interval_secs));
        }
        let config = ExperimentConfig {
            node_config,
            ..ExperimentConfig::cup(scenario)
        };
        let r = run_experiment(&config);
        AuditGridPoint {
            attackers,
            audited,
            total_cost: r.total_cost(),
            audit_hops: r.audit_overhead(),
            poisoned: r.net.stale_answers,
            poisoned_rate: r.poisoned_rate(),
            audits: r.nodes.audits_started,
            repairs: r.audit_repairs(),
            hit_rate: r.hit_rate(),
            poisoned_exposure_secs: r.recovery_latency_secs(),
            poisoned_age_p99_secs: r.stale_age_us(990) as f64 / 1e6,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cup_des::SimTime;

    fn tiny() -> Scenario {
        Scenario {
            nodes: 32,
            keys: 3,
            query_rate: 5.0,
            query_start: SimTime::from_secs(300),
            query_end: SimTime::from_secs(1_300),
            sim_end: SimTime::from_secs(2_000),
            seed: 7,
            ..Scenario::default()
        }
    }

    #[test]
    fn push_level_sweep_monotone_miss_cost() {
        let points = push_level_sweep(&tiny(), &[5.0], &[0, 2, 8], 2);
        assert_eq!(points.len(), 3);
        // Level 0 is standard caching: highest miss cost; deeper push
        // levels cannot increase it.
        assert!(points[0].miss_cost >= points[1].miss_cost);
        assert!(points[1].miss_cost >= points[2].miss_cost);
        // Level 0 has no overhead.
        assert_eq!(points[0].total_cost, points[0].miss_cost);
    }

    #[test]
    fn policy_table_contains_all_rows() {
        let rows = policy_table(&tiny(), &[5.0], &[2, 6], 2);
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].policy, "Standard Caching");
        assert_eq!(rows[0].normalized[0], 1.0);
        let second_chance = rows.iter().find(|r| r.policy == "Second-chance").unwrap();
        assert!(
            second_chance.normalized[0] < 1.0,
            "second-chance must beat standard caching"
        );
    }

    #[test]
    fn size_sweep_reports_requested_sizes() {
        let cols = size_sweep(&tiny(), &[16, 32], 2);
        assert_eq!(cols.len(), 2);
        for c in cols {
            assert!(c.miss_cost_ratio < 1.0, "CUP should reduce miss cost");
            assert!(c.cup_miss_latency > 0.0 && c.std_miss_latency > 0.0);
        }
    }

    #[test]
    fn replica_sweep_fix_beats_naive() {
        let rows = replica_sweep(&tiny(), &[1, 4], 2);
        assert_eq!(rows.len(), 2);
        let many = &rows[1];
        assert!(
            many.fixed_misses <= many.naive_misses,
            "replica-independent cut-off must not increase misses (naive {} vs fixed {})",
            many.naive_misses,
            many.fixed_misses
        );
    }

    #[test]
    fn capacity_sweep_degrades_gracefully() {
        let points = capacity_sweep(&tiny(), &[0.0, 1.0], 2);
        assert_eq!(points.len(), 2);
        // Full capacity is at least as good as zero capacity.
        assert!(points[1].up_and_down <= points[0].up_and_down);
        // Even at zero capacity CUP should not exceed standard caching by
        // much (fallback behaviour); allow slack for clear-bit overhead.
        assert!(points[0].up_and_down as f64 <= points[0].standard as f64 * 1.3);
    }

    #[test]
    fn parallel_sweeps_match_serial_byte_for_byte() {
        let base = tiny();
        assert_eq!(
            policy_table(&base, &[5.0], &[2, 6], 1),
            policy_table(&base, &[5.0], &[2, 6], 4),
            "policy table"
        );
        assert_eq!(
            push_level_sweep(&base, &[5.0], &[0, 4], 1),
            push_level_sweep(&base, &[5.0], &[0, 4], 4),
            "push-level sweep"
        );
        assert_eq!(
            size_sweep(&base, &[16, 32], 1),
            size_sweep(&base, &[16, 32], 4),
            "size sweep"
        );
        assert_eq!(
            replica_sweep(&base, &[1, 4], 1),
            replica_sweep(&base, &[1, 4], 4),
            "replica sweep"
        );
        assert_eq!(
            capacity_sweep(&base, &[0.0, 1.0], 1),
            capacity_sweep(&base, &[0.0, 1.0], 4),
            "capacity sweep"
        );
    }

    #[test]
    fn fault_grid_covers_the_cross_product_and_is_worker_invariant() {
        let losses = [0.0, 0.1];
        let crashes = [0, 2];
        let grid = fault_grid(&tiny(), &losses, &crashes, 2);
        assert_eq!(grid.len(), losses.len() * crashes.len() * 2);
        for pair in grid.chunks_exact(2) {
            assert_eq!(pair[0].policy, "second-chance");
            assert_eq!(pair[1].policy, "always");
            assert_eq!(
                (pair[0].loss, pair[0].crashes),
                (pair[1].loss, pair[1].crashes)
            );
        }
        // The loss-free, crash-free corner drops nothing; lossy points do.
        let clean = &grid[0];
        assert_eq!((clean.loss, clean.crashes), (0.0, 0));
        assert_eq!(clean.dropped, 0);
        let lossy = grid.iter().find(|p| p.loss > 0.0).unwrap();
        assert!(lossy.dropped > 0, "5%+ loss must drop messages");
        // The query-latency tail is ordered in every row.
        assert!(grid.iter().all(|p| {
            p.query_p50_us <= p.query_p90_us
                && p.query_p90_us <= p.query_p99_us
                && p.query_p99_us <= p.query_p999_us
        }));
        // Byte-identical across sweep worker counts.
        assert_eq!(grid, fault_grid(&tiny(), &losses, &crashes, 1));
    }

    #[test]
    fn fault_point_specs_build_parseable_plans() {
        let specs = fault_point_specs(&tiny(), 0.05, 3);
        assert_eq!(specs.len(), 4);
        cup_faults::FaultPlan::parse_specs(&specs).unwrap();
        assert!(fault_point_specs(&tiny(), 0.0, 0).is_empty());
    }

    #[test]
    fn audit_grid_covers_the_cross_product_and_is_worker_invariant() {
        let attackers = [0, 4];
        let grid = audit_grid(&tiny(), &attackers, 60, 2);
        assert_eq!(grid.len(), attackers.len() * 2);
        for pair in grid.chunks_exact(2) {
            assert_eq!(pair[0].attackers, pair[1].attackers);
            assert!(!pair[0].audited && pair[1].audited);
            // The audit only spends hops when switched on.
            assert_eq!(pair[0].audit_hops, 0);
            assert_eq!(pair[0].audits, 0);
            assert!(pair[1].audit_hops > 0, "audit-on arm must probe");
            assert!(pair[1].audits > 0);
        }
        // Without an attacker nothing is poisoned and nothing repaired.
        assert_eq!(grid[0].poisoned, 0);
        assert_eq!(grid[1].repairs, 0);
        // Byte-identical across sweep worker counts.
        assert_eq!(grid, audit_grid(&tiny(), &attackers, 60, 1));
    }

    #[test]
    fn audit_point_specs_build_parseable_plans() {
        let specs = audit_point_specs(&tiny(), 4);
        assert_eq!(specs.len(), 4);
        cup_faults::FaultPlan::parse_specs(&specs).unwrap();
        assert!(audit_point_specs(&tiny(), 0).is_empty());
        // Victims stay distinct even when oversubscribed.
        let crowded = audit_point_specs(&tiny(), 64);
        assert_eq!(crowded.len(), 32);
    }
}
