//! The traced pass of one workload: the layer microbenchmarks, the
//! workload itself at a third of its length with spans and allocation
//! counting on, its untraced twin (the tracing overhead is the gap
//! between the two), and for the live workloads a 1-worker rerun and a
//! rerun with the runtime's own trace ring on.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::cli::Cli;
use crate::micro;
use crate::script::{des_script, population, Size};
use crate::spans::Spans;
use crate::spec::{Workload, PER_LAYER};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::surface::{des_config, des_run, HandlerCounts};
use crate::workloads::{run_workload, DesObserved, LiveObserved, Measured, RunOpts, WORKERS};

type Layer = BTreeMap<&'static str, f64>;

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn med(m: &Measured, name: &str) -> f64 {
    median(m.samples_of(name))
}

/// What the microbenchmarks say the counted operations should have
/// cost, in nanoseconds: in all, and the parts the fault plane and the
/// justification tracker account for. The README states the formula.
struct Modelled {
    total: f64,
    faults: f64,
    justify: f64,
}

fn modelled_ns(l: &Layer, w: &Workload, ops: &ModelOps) -> Modelled {
    let ns = |name: &str| l.get(name).copied().unwrap_or(0.0);
    let (next_hop, path_hops) = if w.chord {
        (
            ns("overlay.chord_next_hop_ns"),
            ns("overlay.chord_mean_path_hops"),
        )
    } else {
        (
            ns("overlay.can_next_hop_ns"),
            ns("overlay.can_mean_path_hops"),
        )
    };
    let h = &ops.handlers;
    let misses = h.client_queries - h.client_hits.min(h.client_queries) + h.neighbor_queries;
    let kept = h
        .updates_received
        .saturating_sub(ops.first_time + ops.deletes + h.cutoffs);
    let protocol = ops.queue_pairs as f64 * ns("des.queue_pair_ns")
        + (h.client_queries + h.neighbor_queries + h.clear_bits_received) as f64 * next_hop
        + h.client_hits as f64 * ns("core.query_hit_ns")
        + misses as f64 * ns("core.query_miss_ns")
        + ops.first_time as f64 * ns("core.update_first_time_ns")
        + kept as f64 * ns("core.update_refresh_forward_ns")
        + h.cutoffs as f64 * ns("core.update_refresh_cutoff_ns")
        + ops.deletes as f64 * ns("core.update_delete_ns")
        + h.clear_bits_received as f64 * ns("core.clear_bit_ns")
        + ops.replica_events as f64 * ns("core.replica_event_ns");
    let (faults, justify) = if w.armed {
        (
            ops.sends as f64 * (ns("faults.roll_loss_ns") + ns("faults.behavior_gate_ns")),
            ops.tracked as f64 * ns("core.justify_update_ns")
                + h.client_queries as f64 * (ns("core.justify_query_ns") + path_hops * next_hop),
        )
    } else if w.live {
        // The live plane is always built; disarmed it costs the idle gate.
        (ops.sends as f64 * ns("faults.roll_idle_ns"), 0.0)
    } else {
        (0.0, 0.0)
    };
    Modelled {
        total: protocol + faults + justify,
        faults,
        justify,
    }
}

/// Reports the model against `measured_ns`: what it leaves unexplained,
/// and the shares of the measured time it gives the two optional planes.
fn insert_model(l: &mut Layer, w: &Workload, ops: &ModelOps, measured_ns: f64) {
    let m = modelled_ns(l, w, ops);
    l.insert(
        "bench.model_residual_share",
        1.0 - share(m.total, measured_ns),
    );
    l.insert("bench.model_faults_share", share(m.faults, measured_ns));
    l.insert("bench.model_justify_share", share(m.justify, measured_ns));
}

/// Operation counts the model multiplies the microbenchmarks by.
struct ModelOps {
    handlers: HandlerCounts,
    queue_pairs: u64,
    first_time: u64,
    deletes: u64,
    replica_events: u64,
    sends: u64,
    tracked: u64,
}

fn des_layer(l: &mut Layer, w: &Workload, o: &DesObserved) {
    let c = &o.counts;
    let wall = median(
        &o.repeat_walls
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    l.insert("simnet.events", c.events as f64);
    l.insert("simnet.ns_per_event", share(wall * 1e9, c.events as f64));
    l.insert(
        "simnet.allocs_per_event",
        share(o.allocs_per_repeat, c.events as f64),
    );
    l.insert("simnet.total_cost_hops", c.total_cost as f64);
    l.insert(
        "simnet.hops_per_query",
        share(c.total_cost as f64, o.client_queries as f64),
    );
    l.insert(
        "simnet.client_hit_share",
        share(c.handlers.client_hits as f64, o.client_queries as f64),
    );
    l.insert(
        "simnet.dropped_share",
        share(c.dropped as f64, (c.hops() + c.dropped) as f64),
    );
    l.insert(
        "simnet.unanswered_share",
        share(
            o.client_queries.saturating_sub(c.client_responses) as f64,
            o.client_queries as f64,
        ),
    );
    l.insert(
        "simnet.justified_share",
        share(c.justified as f64, c.tracked as f64),
    );
    l.insert(
        "simnet.bytes_per_node",
        o.rss_growth_bytes / o.nodes.max(1) as f64,
    );
    let build = if w.chord {
        "overlay.chord_build_s"
    } else {
        "overlay.can_build_s"
    };
    l.insert(
        "simnet.build_share",
        share(l.get(build).copied().unwrap_or(0.0), wall),
    );
    let ops = ModelOps {
        handlers: c.handlers,
        queue_pairs: c.events,
        first_time: c.first_time_hops,
        deletes: c.delete_hops,
        // Not reported by the experiment; births and refreshes are few
        // beside the messages they cause.
        replica_events: 0,
        sends: c.hops() + c.dropped,
        tracked: c.tracked,
    };
    insert_model(l, w, &ops, wall * 1e9);
}

fn live_layer(l: &mut Layer, w: &Workload, o: &LiveObserved) {
    let c = &o.counters;
    let hops = c.hops as f64;
    let ops = (o.logical_queries + o.retry_posts + o.probes + o.replica_events) as f64;
    let busy = (o.burst + o.update).as_secs_f64();
    l.insert("runtime.start_s", o.start.as_secs_f64());
    l.insert("runtime.shutdown_s", o.shutdown.as_secs_f64());
    l.insert(
        "runtime.post_ns",
        share(o.post.as_secs_f64() * 1e9, o.logical_queries as f64),
    );
    l.insert(
        "runtime.quiesce_wait_share",
        share((o.burst_quiesce + o.update_quiesce).as_secs_f64(), busy),
    );
    l.insert("runtime.quiesce_idle_us", o.quiesce_idle_us);
    l.insert("runtime.hops", hops);
    l.insert("runtime.hops_per_op", share(hops, ops));
    l.insert(
        "runtime.ns_per_hop",
        share(o.rounds_wall.as_secs_f64() * 1e9, hops),
    );
    l.insert("runtime.cpu_ns_per_hop", share(o.cpu_ns, hops));
    l.insert(
        "runtime.cores_busy",
        share(o.cpu_ns, o.rounds_wall.as_secs_f64() * 1e9),
    );
    l.insert("runtime.allocs_per_hop", share(o.allocs as f64, hops));
    l.insert(
        "runtime.bytes_per_node",
        o.rss_growth_bytes / o.nodes.max(1) as f64,
    );
    let probes = sorted(&o.probe_us);
    l.insert("runtime.probe_p50_us", percentile(&probes, 50.0));
    // p99 needs a thousand samples to have ten beyond it; a shorter
    // probe reports the highest percentile it supports instead.
    let tail = tail_percentile(probes.len()).map_or(50.0, |p| p.min(99.0));
    l.insert("runtime.probe_p99_us", percentile(&probes, tail));
    l.insert(
        "runtime.cross_shard_share",
        share(c.cross_shard as f64, hops),
    );
    l.insert(
        "runtime.mean_batch",
        share(c.batched_envelopes as f64, c.batch_flushes as f64),
    );
    l.insert("runtime.batch_flushes", c.batch_flushes as f64);
    l.insert(
        "runtime.retry_share",
        share(o.retry_posts as f64, o.logical_queries as f64),
    );
    l.insert(
        "runtime.dropped_share",
        share(c.dropped as f64, hops + c.dropped as f64),
    );
    l.insert(
        "runtime.stale_share",
        share(o.stale_answers as f64, o.logical_queries as f64),
    );
    l.insert(
        "runtime.justified_share",
        share(c.justified as f64, c.tracked as f64),
    );

    // The nodes' handler counters run from start-up; scale them to the
    // timed rounds by the share of hops those rounds delivered.
    let timed = share(hops, o.hops_since_start as f64);
    let scale = |n: u64| (n as f64 * timed) as u64;
    let h = o.handlers;
    let handlers = HandlerCounts {
        client_queries: scale(h.client_queries),
        client_hits: scale(h.client_hits),
        neighbor_queries: scale(h.neighbor_queries),
        updates_received: scale(h.updates_received),
        clear_bits_received: scale(h.clear_bits_received),
        cutoffs: scale(h.cutoffs),
        pfu_retries: scale(h.pfu_retries),
    };
    let ops = ModelOps {
        handlers,
        queue_pairs: 0,
        // Every forwarded query is answered by one first-time update.
        first_time: handlers.neighbor_queries,
        // The runtime does not count deliveries by kind.
        deletes: 0,
        replica_events: o.replica_events,
        sends: c.hops + c.dropped,
        tracked: c.tracked,
    };
    insert_model(l, w, &ops, o.cpu_ns);
}

/// Runs the traced pass of `workload`; returns the traced run (for the
/// result line's counts) and every per-layer metric by name.
pub fn run(workload: &Workload, cli: &Cli, out_dir: &Path) -> (Measured, Vec<(&'static str, f64)>) {
    let opts = RunOpts {
        seed: cli.seed,
        seconds: (cli.seconds / 3).max(1),
        size: cli.size,
        setups: 1,
        workers: WORKERS,
        runtime_trace: false,
        started: Instant::now(),
    };
    let mut spans = Spans::new(true);
    alloc::set_enabled(true);
    let mut layer = micro::run(
        cli.seed,
        population(workload, cli.size),
        workload.chord,
        &mut spans,
    );

    let whole = spans.open("workload", -1);
    let mut traced = run_workload(workload, &opts, &mut spans);
    spans.close(whole, traced.attempted);
    alloc::set_enabled(false);

    let untraced = |opts: &RunOpts| {
        run_workload(
            workload,
            &RunOpts {
                started: Instant::now(),
                ..*opts
            },
            &mut Spans::new(false),
        )
    };
    let twin = untraced(&opts);
    traced.violations.extend(twin.violations.iter().cloned());
    layer.insert("bench.traced_queries_per_s", med(&traced, "queries_per_s"));
    layer.insert("bench.traced_updates_per_s", med(&traced, "updates_per_s"));
    layer.insert(
        "bench.trace_overhead_share",
        1.0 - share(med(&traced, "queries_per_s"), med(&twin, "queries_per_s")),
    );

    if let Some(o) = &traced.des {
        des_layer(&mut layer, workload, o);
        if !workload.armed {
            // One standard-caching run of the same scenario: the paper's
            // claim, in the units of its Table 2.
            let script = des_script(workload, cli.seed, cli.size);
            let std = des_run(&des_config(&script, true)).counts();
            layer.insert(
                "simnet.cup_over_std_cost",
                share(o.counts.total_cost as f64, std.total_cost as f64),
            );
            layer.insert(
                "simnet.cup_over_std_miss_latency",
                share(o.counts.miss_latency, std.miss_latency),
            );
        }
    }
    if let (Some(o), Some(t)) = (&traced.live, &twin.live) {
        live_layer(&mut layer, workload, o);
        let (a, b) = (o.counters.hops as f64, t.counters.hops as f64);
        // Under loss, which messages die depends on how the workers
        // interleave; over the smoke run's few thousand hops that alone
        // is more than the tolerance.
        if cli.size == Size::Full && (a - b).abs() > 0.005 * b {
            traced.violations.push(format!(
                "traced pass delivered {a} hops, untraced pass {b}: more than 0.5 % apart"
            ));
        }
        let one_worker = untraced(&RunOpts { workers: 1, ..opts });
        for (name, metric) in [
            ("runtime.scaling_2w_over_1w_queries", "queries_per_s"),
            ("runtime.scaling_2w_over_1w_updates", "updates_per_s"),
        ] {
            layer.insert(name, share(med(&twin, metric), med(&one_worker, metric)));
        }
        let ring = untraced(&RunOpts {
            runtime_trace: true,
            ..opts
        });
        layer.insert(
            "runtime.trace_overhead_share",
            1.0 - share(med(&ring, "queries_per_s"), med(&twin, "queries_per_s")),
        );
    }

    layer.insert("bench.spans", spans.len() as f64);
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("trace-{}.jsonl", workload.name)),
            spans.to_jsonl(),
        )
    }) {
        traced.violations.push(format!(
            "cannot write spans under {}: {e}",
            out_dir.display()
        ));
    }
    print_spans(workload, &spans);

    // Every per-layer metric is reported on every workload; a layer the
    // workload does not exercise reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, layer.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    (traced, metrics)
}

fn print_spans(workload: &Workload, spans: &Spans) {
    for (name, t) in spans.totals() {
        println!(
            "{:<18} span {:<22} calls {:>7}  ops {:>10}  total {:>10.3} ms  self {:>10.3} ms",
            workload.name,
            name,
            t.calls,
            t.ops,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
