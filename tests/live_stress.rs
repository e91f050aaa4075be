//! Worker-pool stress: shard-count independence of the live runtime.
//!
//! The sharded runtime's core contract is that sharding is *invisible*
//! to the protocol: however the node population is cut across workers,
//! the same injected workload must leave every node in the same final
//! state. This suite drives a deterministic-seed script that hammers
//! cross-shard traffic of all three message families — queries from
//! four concurrent client threads, update cascades from replica
//! births/refreshes/deletions, and clear-bit cascades provoked by
//! letting the second-chance policy starve (two refresh rounds with no
//! interleaved queries) — and asserts the **per-node** final statistics
//! of a 4-worker run are identical to a single-worker run, and of an
//! overlay-aware [`ShardMapMode`] run to a contiguous one.
//!
//! Concurrent phases only ever overlap operations on *disjoint keys*
//! (client thread `t` owns keys `k ≡ t (mod THREADS)`), which commute at
//! shared intermediate nodes; phases are separated by `quiesce()`. That
//! is what makes the comparison exact rather than statistical.
//!
//! The armed run at the end drops exactness for hostility: loss and
//! justification on, and a fifth thread injecting crashes, restarts and
//! loss-rate changes *while* the four client threads post. Each
//! injection takes every shard's lock between rounds; what is asserted
//! is that nothing hangs and the per-shard books still fold to
//! consistent totals.
//!
//! The observability run checks the wall-clock histograms the live
//! handle reports: one latency sample per answered query with a real
//! tail, one batch-size sample per cross-shard flush, and no staleness
//! on a healthy run.
//!
//! On the wall clock, a §3.6 refresh batch is released by the
//! authority's worker waking itself at window end, with nothing posted.
//!
//! The last test reads the runtime's source: the quiesce barrier is exact
//! only if no atomic it depends on is read or written `Relaxed`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use cup::prelude::*;
use cup::protocol::clock::Clock;
use cup::protocol::stats::NodeStats;

const NODES: usize = 192;
const KEYS: u32 = 12;
const THREADS: usize = 4;
const QUERIES_PER_THREAD: usize = 25;
const LIFETIME: SimDuration = SimDuration::from_secs(1_000_000);

/// One pass of parallel client queries: `THREADS` threads, each
/// querying only its own key class from script-chosen nodes.
fn query_phase(net: &LiveNetwork, pass: u64) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut rng = DetRng::seed_from(1_000 * pass + t as u64);
                let own: Vec<u32> = (0..KEYS).filter(|k| *k as usize % THREADS == t).collect();
                for _ in 0..QUERIES_PER_THREAD {
                    let node = net.nodes()[rng.choose_index(NODES)];
                    let key = own[rng.choose_index(own.len())];
                    net.query(node, KeyId(key))
                        .expect("stress query must be answered");
                }
            });
        }
    });
    net.quiesce();
}

/// Runs the full script on `workers` workers under the given placement
/// mode and returns the per-node final statistics plus the runtime's
/// message counters.
fn run_script(workers: usize, map: ShardMapMode) -> (Vec<NodeStats>, u64, u64) {
    let mut rng = DetRng::seed_from(31);
    let net = LiveNetwork::start_with_map(
        OverlayKind::Can,
        NODES,
        NodeConfig::cup_default(),
        workers,
        map,
        Clock::wall(),
        &mut rng,
    )
    .unwrap();
    assert_eq!(net.workers(), workers);

    // Births: two replicas per key, all keys concurrently in flight.
    for k in 0..KEYS {
        for r in 0..2 {
            net.replica_birth(KeyId(k), ReplicaId(2 * k + r), LIFETIME);
        }
    }
    net.quiesce();

    // Queries build caches and interest trees (cross-shard by
    // construction: 4 shards of 48 nodes, CAN neighbors are scattered).
    query_phase(&net, 1);

    // Two refresh rounds with no interleaved queries: round one is the
    // second-chance policy's grace interval, round two drives cut-offs
    // at unqueried leaves — clear-bit traffic flowing shard-to-shard.
    for round in 0..2 {
        for k in 0..KEYS {
            net.replica_refresh(KeyId(k), ReplicaId(2 * k + (round % 2)), LIFETIME);
        }
        net.quiesce();
    }

    // Withdraw one replica per key; deletes walk the (pruned) trees.
    for k in 0..KEYS {
        net.replica_deletion(KeyId(k), ReplicaId(2 * k));
        net.quiesce();
    }

    // A second query pass over the surviving replicas.
    query_phase(&net, 2);

    assert_eq!(net.routing_failures(), 0);
    let hops = net.hops();
    let cross_shard = net.cross_shard_messages();
    let nodes = net.shutdown();
    assert_eq!(nodes.len(), NODES);
    (
        nodes.into_iter().map(|n| n.stats).collect(),
        hops,
        cross_shard,
    )
}

#[test]
fn multi_worker_run_matches_single_worker_run() {
    let (multi, multi_hops, multi_cross) = run_script(4, ShardMapMode::Contiguous);
    let (single, single_hops, single_cross) = run_script(1, ShardMapMode::Contiguous);

    assert_eq!(single_cross, 0, "one shard has no boundary to cross");
    assert!(
        multi_cross > 0,
        "a 4-shard run must push messages through mailboxes"
    );

    // Shard-count independence: identical traffic volume and identical
    // final protocol state, node by node.
    assert_eq!(multi_hops, single_hops, "hop counts diverged");
    for (i, (m, s)) in multi.iter().zip(&single).enumerate() {
        assert_eq!(m, s, "node n{i}: per-node stats diverged across shardings");
    }

    // The script really exercised every message family.
    let mut total = NodeStats::default();
    for s in &multi {
        total.merge(s);
    }
    assert_eq!(
        total.client_queries,
        (2 * THREADS * QUERIES_PER_THREAD) as u64
    );
    assert!(total.updates_received > 0, "update traffic flowed");
    assert!(
        total.cutoffs > 0 && total.clear_bits_sent > 0,
        "the refresh starvation rounds must provoke clear-bit traffic \
         (cutoffs {}, clear-bits {})",
        total.cutoffs,
        total.clear_bits_sent
    );
    assert!(
        total.clear_bits_received > 0,
        "clear-bits must actually arrive upstream"
    );
}

#[test]
fn stress_script_is_reproducible_per_sharding() {
    let (a, a_hops, _) = run_script(4, ShardMapMode::Contiguous);
    let (b, b_hops, _) = run_script(4, ShardMapMode::Contiguous);
    assert_eq!(a_hops, b_hops);
    assert_eq!(a, b, "same sharding, same seed, same outcome");
}

#[test]
fn shard_map_mode_is_invisible_to_the_protocol() {
    let (contig, contig_hops, contig_cross) = run_script(4, ShardMapMode::Contiguous);
    let (aware, aware_hops, aware_cross) = run_script(4, ShardMapMode::OverlayAware);

    // Placement is a performance knob, not a semantic one: the same
    // script leaves every node in byte-identical final state and pays
    // the same protocol-level traffic under either cut.
    assert_eq!(aware_hops, contig_hops, "hop counts diverged across maps");
    for (i, (a, c)) in aware.iter().zip(&contig).enumerate() {
        assert_eq!(a, c, "node n{i}: per-node stats diverged across shard maps");
    }

    // What *does* move is the cross-shard ratio: co-locating CAN zone
    // neighbors keeps neighbor-heavy traffic intra-shard.
    assert!(
        aware_cross < contig_cross,
        "overlay-aware placement must cut cross-shard traffic \
         (aware {aware_cross}, contiguous {contig_cross})"
    );
}

#[test]
fn armed_run_keeps_its_books_under_concurrent_fault_injection() {
    const CYCLES: usize = 48;
    let mut rng = DetRng::seed_from(47);
    let net = LiveNetwork::start_with_map(
        OverlayKind::Chord,
        NODES,
        NodeConfig::cup_default(),
        4,
        ShardMapMode::Contiguous,
        Clock::wall(),
        &mut rng,
    )
    .unwrap();
    net.enable_faults(47);
    net.track_justification(true);
    net.inject_fault(FaultAction::SetLoss { rate: 0.05 });
    for k in 0..KEYS {
        net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME);
    }
    net.quiesce();

    // All five threads leave the barrier together, and the clients keep
    // posting until the injector is done: every injection lands among
    // queries in flight. Under loss an answer may never come, so the
    // clients post detached and drop their handles in batches — some
    // answered, some not, some with the query still travelling.
    let start = Barrier::new(THREADS + 1);
    let injecting = AtomicBool::new(true);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (net, start, injecting) = (&net, &start, &injecting);
            s.spawn(move || {
                let mut rng = DetRng::seed_from(4_700 + t as u64);
                let mut handles = Vec::new();
                start.wait();
                let mut posted = 0;
                while injecting.load(Ordering::SeqCst) || posted < QUERIES_PER_THREAD {
                    let node = net.nodes()[rng.choose_index(NODES)];
                    let key = rng.next_below(u64::from(KEYS)) as u32;
                    handles.push(net.query_detached(node, KeyId(key)).unwrap());
                    posted += 1;
                    if posted % 8 == 0 {
                        net.replica_refresh(KeyId(key), ReplicaId(key), LIFETIME);
                        handles.clear();
                    }
                }
            });
        }
        let (net, start, injecting) = (&net, &start, &injecting);
        s.spawn(move || {
            start.wait();
            for cycle in 0..CYCLES {
                let node = (7 * cycle) % NODES;
                net.inject_fault(FaultAction::Crash { node });
                net.inject_fault(FaultAction::SetLoss {
                    rate: 0.02 + 0.01 * (cycle % 3) as f64,
                });
                net.inject_fault(FaultAction::Restart { node });
            }
            injecting.store(false, Ordering::SeqCst);
        });
    });
    // No hang: the barrier drains although marks, crash resets and
    // dropped sends all crossed it.
    net.quiesce();

    let faults = net.totals().net.faults;
    assert_eq!(faults.crashes, CYCLES as u64, "every crash applied once");
    assert_eq!(faults.restarts, CYCLES as u64, "every restart applied once");
    assert!(faults.dropped_loss > 0, "the loss plane was live");
    let (justified, tracked) = net.justification();
    assert!(tracked > 0, "refreshes under load were tracked");
    assert!(justified <= tracked);
    assert_eq!(net.batched_envelopes(), net.cross_shard_messages());
    assert_eq!(net.routing_failures(), 0);

    // Justification marks are bookkeeping, not traffic. On a healed
    // plane, warm a fresh key's caches from every fourth node, open
    // windows with a refresh, then query again from the same nodes:
    // every answer is a cache hit, so no peer message moves — while the
    // queries' virtual paths, which cross shards, are still marked.
    net.inject_fault(FaultAction::SetLoss { rate: 0.0 });
    let fresh = KeyId(KEYS);
    net.replica_birth(fresh, ReplicaId(0), LIFETIME);
    net.quiesce();
    let posters: Vec<NodeId> = net.nodes().iter().copied().step_by(4).collect();
    for &node in &posters {
        assert_eq!(net.query(node, fresh).unwrap().len(), 1);
    }
    net.replica_refresh(fresh, ReplicaId(0), LIFETIME);
    net.quiesce();
    let before = (
        net.hops(),
        net.cross_shard_messages(),
        net.batched_envelopes(),
        net.batch_flushes(),
    );
    let (justified_before, _) = net.justification();
    for &node in &posters {
        assert_eq!(net.query(node, fresh).unwrap().len(), 1);
    }
    net.quiesce();
    assert_eq!(
        before,
        (
            net.hops(),
            net.cross_shard_messages(),
            net.batched_envelopes(),
            net.batch_flushes(),
        ),
        "marks must not be charged as hops, cross-shard messages or batches"
    );
    let (justified_after, tracked_after) = net.justification();
    assert!(
        justified_after > justified_before,
        "the cache-hit queries still justified the refresh's windows"
    );
    assert!(justified_after <= tracked_after);
    net.shutdown();
}

/// Starts a wall-clock `kind` network of `nodes` nodes on 2 workers,
/// births `keys` replicas, and posts `queries` client queries from
/// `THREADS` concurrent threads (thread `t` queries key `t mod keys`,
/// so tiny catalogs are shared), then one refresh per key. Returns the
/// quiesced network for the caller to read.
fn observed_run(
    kind: OverlayKind,
    nodes: usize,
    keys: u32,
    queries: usize,
    map: ShardMapMode,
) -> LiveNetwork {
    let mut rng = DetRng::seed_from(53);
    let net = LiveNetwork::start_with_map(
        kind,
        nodes,
        NodeConfig::cup_default(),
        2,
        map,
        Clock::wall(),
        &mut rng,
    )
    .unwrap();
    for k in 0..keys {
        net.replica_birth(KeyId(k), ReplicaId(k), LIFETIME);
    }
    net.quiesce();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let net = &net;
            s.spawn(move || {
                let mut rng = DetRng::seed_from(5_300 + t as u64);
                let key = KeyId(t as u32 % keys);
                for _ in 0..queries / THREADS {
                    let node = net.nodes()[rng.choose_index(nodes)];
                    assert_eq!(net.query(node, key).unwrap().len(), 1);
                }
            });
        }
    });
    for k in 0..keys {
        net.replica_refresh(KeyId(k), ReplicaId(k), LIFETIME);
    }
    net.quiesce();
    assert_eq!(net.routing_failures(), 0);
    net
}

#[test]
fn live_histograms_account_for_every_query_and_flush() {
    const QUERIES: usize = 64;
    for kind in OverlayKind::ALL {
        for map in ShardMapMode::ALL {
            let net = observed_run(kind, 128, KEYS, QUERIES, map);
            let latency = net.totals().net.query_latency;
            assert_eq!(
                latency.count(),
                QUERIES as u64,
                "{kind}/{}: one latency sample per answered query",
                map.name()
            );
            // Wall time moves between post and answer: a zero p99.9 would
            // mean the histogram fell off the query path.
            assert!(latency.quantile(999) > 0, "{kind}: wall latency degenerate");
            assert!(latency.quantile(500) <= latency.quantile(999));
            if map == ShardMapMode::Contiguous {
                assert!(net.cross_shard_messages() > 0, "{kind}: nothing crossed");
            }
            assert_eq!(net.batched_envelopes(), net.cross_shard_messages());
            assert_eq!(net.batch_size_hist().count(), net.batch_flushes());
            assert!(
                net.totals().net.stale_age_hist.is_empty(),
                "healthy run served stale"
            );
            net.shutdown();
        }
    }

    // Two nodes, one key, four client threads all on that key: the books
    // still balance however small the network.
    let net = observed_run(OverlayKind::Can, 2, 1, 8, ShardMapMode::OverlayAware);
    assert_eq!(net.totals().net.query_latency.count(), 8);
    assert_eq!(net.batched_envelopes(), net.cross_shard_messages());
    assert_eq!(net.batch_size_hist().count(), net.batch_flushes());
    net.shutdown();
}

/// Nobody steps a wall clock: a refresh batch the authority holds is
/// released when its window closes because the worker, parked with a
/// timeout to its earliest wake, woke itself. Nothing is posted after
/// the refresh; the test only polls the handle's readings.
#[test]
fn a_held_batch_is_released_on_the_wall_clock_with_nothing_posted() {
    let window = SimDuration::from_millis(200);
    let config = NodeConfig {
        refresh_batch_window: Some(window),
        ..NodeConfig::cup_default()
    };
    let (map, mut rng) = (ShardMapMode::Contiguous, DetRng::seed_from(31));
    let net = LiveNetwork::start_with_map(
        OverlayKind::Chord,
        32,
        config,
        2,
        map,
        Clock::wall(),
        &mut rng,
    )
    .expect("the network starts");
    let key = KeyId(1);
    net.replica_birth(key, ReplicaId(0), LIFETIME);
    net.quiesce();
    // Every node asks once, so the authority has interested neighbors.
    for &node in net.nodes() {
        net.query(node, key).expect("answered");
    }
    net.quiesce();
    net.enable_trace(1 << 12);
    net.replica_refresh(key, ReplicaId(0), LIFETIME);
    net.quiesce();
    // The network's wall-mapped clock doubles as the stopwatch.
    let patience = net.now() + SimDuration::from_secs(20);
    while net.totals().net.refresh_hops == 0 {
        assert!(net.now() < patience, "the held batch was never released");
        #[expect(
            clippy::disallowed_methods,
            reason = "this test's subject is wall time: it waits out a window nobody steps"
        )]
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    net.quiesce();
    let trace = net.take_trace().expect("tracing was on").sorted();
    let at = |kind| trace.iter().find(|ev| ev.kind == kind).copied();
    let refresh = at(TraceKind::ReplicaRefresh).expect("the refresh reached the authority");
    let wake = at(TraceKind::Wake).expect("the authority woke");
    assert_eq!((wake.node, wake.key, wake.detail), (refresh.node, key, 1));
    assert!(
        wake.t >= refresh.t + window,
        "released {} µs after the refresh, inside the window",
        wake.t.saturating_since(refresh.t).as_micros()
    );
    let first_refresh = at(TraceKind::UpdateRefresh).expect("the batch travelled");
    assert!(first_refresh.t >= wake.t, "nothing left before the wake");
    net.shutdown();
}

/// A cut the handle applies asks for a §2.8 service that the node's
/// parked worker never read at a round's end: the handle wakes the
/// shard to read it, so the service loop runs on the wall clock with
/// nothing else posted. (Taking the trace and re-enabling it may lose
/// a wake run in between; the loop's next one comes a second later.)
#[test]
fn a_cut_is_serviced_on_the_wall_clock_with_nothing_else_posted() {
    let (map, mut rng) = (ShardMapMode::Contiguous, DetRng::seed_from(31));
    let config = NodeConfig::cup_default();
    let net = LiveNetwork::start_with_map(
        OverlayKind::Chord,
        32,
        config,
        2,
        map,
        Clock::wall(),
        &mut rng,
    )
    .expect("the network starts");
    let node = net.nodes()[3];
    net.enable_trace(1 << 10);
    net.inject_fault(FaultAction::SetCapacity {
        node: node.index(),
        c: 0.5,
    });
    let patience = net.now() + SimDuration::from_secs(20);
    let serviced = loop {
        assert!(net.now() < patience, "the cut node was never serviced");
        #[expect(
            clippy::disallowed_methods,
            reason = "this test's subject is wall time: it waits out a service nobody steps"
        )]
        std::thread::sleep(std::time::Duration::from_millis(20));
        let trace = net.take_trace().expect("tracing was on").sorted();
        net.enable_trace(1 << 10);
        let wakes = trace.iter().filter(|ev| ev.kind == TraceKind::Wake);
        if let Some(wake) = wakes.copied().next() {
            break wake;
        }
    };
    assert_eq!(
        (serviced.node, serviced.detail),
        (node, 0),
        "a §2.8 service"
    );
    net.shutdown();
}

/// Every `Relaxed` ordering in the live runtime is the client-id
/// counter's `fetch_add`: an id needs uniqueness, which the atomic
/// read-modify-write gives under any ordering. Any other atomic there
/// publishes work to the quiesce barrier and needs Acquire/Release.
#[test]
fn relaxed_ordering_in_the_runtime_is_only_the_client_id_counter() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../runtime/src");
    let mut relaxed = 0;
    for file in std::fs::read_dir(&src).expect("runtime sources") {
        let path = file.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("a source file");
        for (i, line) in text.lines().enumerate() {
            if line.contains("Relaxed") {
                assert!(
                    line.contains("self.next_client.fetch_add(1, Ordering::Relaxed)"),
                    "{}:{}: Relaxed on something other than the client-id counter",
                    path.display(),
                    i + 1
                );
                relaxed += 1;
            }
        }
    }
    assert_eq!(relaxed, 1, "the client-id counter's fetch_add moved");
}
