//! The large-population suite: 10k–100k node experiments.
//!
//! This is the regime the DES's event queue, the node arena, and
//! the overlay spatial indices exist for. The suite locks down the two
//! properties every scaling PR must preserve:
//!
//! * **determinism** — byte-identical [`ExperimentResult`]s per seed,
//!   even at 100k nodes (`assert_deterministic` runs everything twice);
//! * **tractability** — the flagship 100k-node, 10k-query scenario has a
//!   hard wall-clock budget, so a scheduler regression fails loudly
//!   instead of silently rotting the benches.

// Wall-clock budgets are this suite's point (see module docs): exempt
// from clippy.toml's disallowed-methods wall, like cup-bench.
#![allow(clippy::disallowed_methods)]

use std::time::{Duration, Instant};

use cup::prelude::*;
use cup_testkit::{assert_deterministic, large_scale, large_scale_churn_config};

/// CUP must still beat standard caching in the heavy-tailed large-scale
/// regime (the paper's claim extrapolated past its 2¹² ceiling).
#[test]
fn cup_beats_standard_caching_at_10k_nodes() {
    let scenario = large_scale(10_000, 10_000, 71);
    let std = run_experiment(&ExperimentConfig::standard_caching(scenario.clone()));
    let cup = run_experiment(&ExperimentConfig::cup(scenario));
    assert!(
        cup.total_cost() < std.total_cost(),
        "CUP {} must beat standard caching {} at 10k nodes",
        cup.total_cost(),
        std.total_cost()
    );
    assert!(cup.nodes.client_queries > 9_000, "query budget delivered");
}

/// Determinism at 10k nodes with the Zipf workload.
#[test]
fn large_scale_10k_is_deterministic() {
    let result = assert_deterministic(&ExperimentConfig::cup(large_scale(10_000, 10_000, 72)));
    assert!(result.events > 100_000, "a real event volume was simulated");
    assert_eq!(result.node_count, 10_000);
}

/// The flagship scale: 100k nodes, 10k queries, deterministic, and —
/// run twice by `assert_deterministic` — each run inside the wall-clock
/// budget. The release budget is 60 s; the tier-1 (opt-level 2, debug
/// assertions) budget is proportionally wider.
#[test]
fn large_scale_100k_is_deterministic_within_budget() {
    let budget = if cfg!(debug_assertions) {
        Duration::from_secs(180)
    } else {
        Duration::from_secs(60)
    };
    let config = ExperimentConfig::cup(large_scale(100_000, 10_000, 73));
    let start = Instant::now();
    let result = assert_deterministic(&config);
    let per_run = start.elapsed() / 2;
    assert!(
        per_run < budget,
        "100k-node run took {per_run:?}, budget {budget:?}"
    );
    assert_eq!(result.node_count, 100_000);
    assert!(result.nodes.client_queries > 9_000);
    assert!(result.total_cost() > 0);
}

/// The live counterpart of the scale tests: a 10k-node network on the
/// sharded worker pool (≤ available parallelism threads — **not** 10k
/// threads) runs a mixed query/update workload to completion, bounded
/// by the same kind of wall-clock budget as the DES flagship.
#[test]
fn live_10k_mixed_workload_completes() {
    const NODES: usize = 10_000;
    const KEYS: u32 = 32;
    const LIFETIME: SimDuration = SimDuration::from_secs(1_000_000);
    let budget = if cfg!(debug_assertions) {
        Duration::from_secs(180)
    } else {
        Duration::from_secs(60)
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());

    let start = Instant::now();
    let mut rng = DetRng::seed_from(81);
    let net = LiveNetwork::start(OverlayKind::Can, NODES, NodeConfig::cup_default(), &mut rng)
        .expect("10k-node live network must start");
    assert!(
        net.workers() <= parallelism,
        "the pool must not exceed available parallelism ({} > {parallelism})",
        net.workers()
    );
    for k in 0..KEYS {
        net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME);
    }
    net.quiesce();

    // Mixed workload: rounds of client queries interleaved with replica
    // refreshes, plus a wave of deletions halfway through.
    let mut script = DetRng::seed_from(82);
    let mut queries = 0u64;
    for round in 0..4 {
        for _ in 0..50 {
            let node = net.nodes()[script.choose_index(NODES)];
            let key = KeyId(script.next_below(u64::from(KEYS)) as u32);
            net.query(node, key).expect("live query must be answered");
            queries += 1;
        }
        for k in 0..KEYS {
            net.replica_refresh(KeyId(k), ReplicaId(k), LIFETIME);
        }
        net.quiesce();
        if round == 1 {
            for k in 0..KEYS / 2 {
                net.replica_deletion(KeyId(k), ReplicaId(k));
            }
            net.quiesce();
        }
    }

    assert_eq!(net.routing_failures(), 0, "static routing must not fail");
    let nodes = net.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget,
        "10k-node live workload took {elapsed:?}, budget {budget:?}"
    );
    assert_eq!(nodes.len(), NODES);
    let total_queries: u64 = nodes.iter().map(|n| n.stats.client_queries).sum();
    assert_eq!(total_queries, queries, "every posted query was handled");
    let updates: u64 = nodes.iter().map(|n| n.stats.updates_received).sum();
    assert!(updates > 0, "the update stream reached the caches");
}

/// The flagship *live* scale: a 100k-node worker pool on the virtual
/// clock, overlay-aware sharding, mixed query/update/deletion traffic.
/// This population is the batched transfer plane's reason to exist —
/// per-envelope mailbox sends paid one SeqCst barrier bump and one
/// queue lock per message, which at 100k-node traffic volumes could not
/// drain inside any reasonable budget; batch flushes amortize both, so
/// the run must now complete within the same kind of wall-clock gate as
/// the DES flagship.
#[test]
fn live_100k_overlay_aware_completes_within_budget() {
    const NODES: usize = 100_000;
    const KEYS: u32 = 32;
    const LIFETIME: SimDuration = SimDuration::from_secs(1_000_000);
    let budget = if cfg!(debug_assertions) {
        Duration::from_secs(300)
    } else {
        Duration::from_secs(90)
    };

    let start = Instant::now();
    let mut rng = DetRng::seed_from(83);
    let net = LiveNetwork::start_virtual_with_map(
        OverlayKind::Can,
        NODES,
        NodeConfig::cup_default(),
        4,
        ShardMapMode::OverlayAware,
        &mut rng,
    )
    .expect("100k-node live network must start");
    assert_eq!(net.shard_map_mode(), ShardMapMode::OverlayAware);
    for k in 0..KEYS {
        net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME);
    }
    net.quiesce();

    // Two rounds of scattered client queries interleaved with refresh
    // storms, then a deletion wave walking the built interest trees.
    let mut script = DetRng::seed_from(84);
    let mut queries = 0u64;
    for _ in 0..2 {
        for _ in 0..50 {
            let node = net.nodes()[script.choose_index(NODES)];
            let key = KeyId(script.next_below(u64::from(KEYS)) as u32);
            net.query(node, key).expect("live query must be answered");
            queries += 1;
        }
        for k in 0..KEYS {
            net.replica_refresh(KeyId(k), ReplicaId(k), LIFETIME);
        }
        net.quiesce();
    }
    for k in 0..KEYS / 2 {
        net.replica_deletion(KeyId(k), ReplicaId(k));
    }
    net.quiesce();

    assert_eq!(net.routing_failures(), 0, "static routing must not fail");
    assert_eq!(
        net.batched_envelopes(),
        net.cross_shard_messages(),
        "every cross-shard envelope travels in exactly one batch flush"
    );
    let cross = net.cross_shard_messages();
    let flushes = net.batch_flushes();
    let nodes = net.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget,
        "100k-node live workload took {elapsed:?}, budget {budget:?}"
    );
    assert_eq!(nodes.len(), NODES);
    let total_queries: u64 = nodes.iter().map(|n| n.stats.client_queries).sum();
    assert_eq!(total_queries, queries, "every posted query was handled");
    assert!(
        flushes <= cross,
        "batching must amortize: {flushes} flushes carried {cross} envelopes"
    );
}

/// Churn at scale: joins and leaves through the query window must keep
/// the experiment deterministic and the network serving queries.
#[test]
fn large_scale_churn_is_deterministic() {
    let config = large_scale_churn_config(10_000, 5_000, 50, 74);
    assert!(!config.churn.is_empty(), "schedule must carry churn events");
    let result = assert_deterministic(&config);
    assert!(result.nodes.client_queries > 4_000);
    assert!(result.total_cost() > 0);
}
