//! The workloads and metrics by name: the one table `run`, the traced
//! pass, `diff` and `/BENCHMARK.json` agree on (a self-test compares the
//! file with it).

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `cup-runtime` worker pool, else the `cup-simnet` DES.
    pub live: bool,
    /// Chord substrate, else CAN.
    pub chord: bool,
    /// Fault plane, justification and replica deaths on.
    pub armed: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "des_plain_can",
        why: "DES, CAN 10k nodes, no faults: sqrt(n) paths make overlay routing, the calendar queue and the core query/first-time handlers do the work; faults and justify do none",
        live: false,
        chord: false,
        armed: false,
    },
    Workload {
        name: "des_armed_chord",
        why: "DES, Chord 10k nodes, 2% loss, crash windows, justification and replica deaths on: every send pays the fault gate, every update the tracker; log n paths shrink routing and the queue",
        live: false,
        chord: true,
        armed: true,
    },
    Workload {
        name: "live_plain_can",
        why: "live runtime, CAN 10k nodes, 2 workers, overlay-aware shards (2% of hops cross): intra-shard dispatch and handlers dominate; batch plane, fault gate and justification are idle; has the latency probe",
        live: true,
        chord: false,
        armed: false,
    },
    Workload {
        name: "live_armed_chord",
        why: "live runtime, Chord 10k nodes, 2 workers, contiguous shards (half of hops cross), 2% loss and justification on: the global fault and justification mutexes and the batch plane carry the load",
        live: true,
        chord: true,
        armed: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A named metric; `bound` is `Some` for end-to-end metrics only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// What a user of either runtime sees. Every one is defined on all four
/// workloads (see the README for the per-runtime definitions).
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("queries_per_s", "queries/s", true, 0.25),
    e2e("updates_per_s", "updates/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
];

/// Single-layer metrics of the traced pass, layer first in the name. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [Metric; 71] = [
    lower("overlay.can_next_hop_ns", "ns"),
    lower("overlay.chord_next_hop_ns", "ns"),
    lower("overlay.authority_ns", "ns"),
    lower("overlay.route_allocs_per_op", "allocs/op"),
    lower("overlay.can_mean_path_hops", "hops"),
    lower("overlay.chord_mean_path_hops", "hops"),
    lower("overlay.can_build_s", "s"),
    lower("overlay.chord_build_s", "s"),
    lower("des.queue_pair_ns", "ns"),
    lower("des.queue_allocs_per_op", "allocs/op"),
    lower("core.query_hit_ns", "ns"),
    lower("core.query_miss_ns", "ns"),
    lower("core.update_first_time_ns", "ns"),
    lower("core.update_refresh_forward_ns", "ns"),
    lower("core.update_refresh_cutoff_ns", "ns"),
    lower("core.update_delete_ns", "ns"),
    lower("core.clear_bit_ns", "ns"),
    lower("core.replica_event_ns", "ns"),
    lower("core.handler_allocs_per_op", "allocs/op"),
    lower("core.node_bytes_per_key", "B"),
    lower("core.justify_update_ns", "ns"),
    lower("core.justify_query_ns", "ns"),
    lower("core.hist_record_ns", "ns"),
    lower("core.hist_merge_ns", "ns"),
    lower("faults.roll_loss_ns", "ns"),
    lower("faults.behavior_gate_ns", "ns"),
    lower("faults.roll_idle_ns", "ns"),
    lower("simnet.events", "count"),
    lower("simnet.ns_per_event", "ns"),
    lower("simnet.allocs_per_event", "allocs/op"),
    lower("simnet.total_cost_hops", "hops"),
    lower("simnet.hops_per_query", "hops"),
    higher("simnet.client_hit_share", "ratio"),
    lower("simnet.dropped_share", "ratio"),
    lower("simnet.unanswered_share", "ratio"),
    higher("simnet.justified_share", "ratio"),
    lower("simnet.bytes_per_node", "B"),
    lower("simnet.build_share", "ratio"),
    lower("simnet.cup_over_std_cost", "ratio"),
    lower("simnet.cup_over_std_miss_latency", "ratio"),
    lower("runtime.start_s", "s"),
    lower("runtime.shutdown_s", "s"),
    lower("runtime.post_ns", "ns"),
    lower("runtime.quiesce_idle_us", "us"),
    lower("runtime.quiesce_wait_share", "ratio"),
    lower("runtime.hops", "count"),
    lower("runtime.hops_per_op", "hops"),
    lower("runtime.ns_per_hop", "ns"),
    lower("runtime.cpu_ns_per_hop", "ns"),
    higher("runtime.cores_busy", "cores"),
    lower("runtime.allocs_per_hop", "allocs/op"),
    lower("runtime.bytes_per_node", "B"),
    lower("runtime.probe_p50_us", "us"),
    lower("runtime.probe_p99_us", "us"),
    lower("runtime.cross_shard_share", "ratio"),
    higher("runtime.mean_batch", "count"),
    lower("runtime.batch_flushes", "count"),
    lower("runtime.retry_share", "ratio"),
    lower("runtime.dropped_share", "ratio"),
    lower("runtime.stale_share", "ratio"),
    higher("runtime.justified_share", "ratio"),
    higher("runtime.scaling_2w_over_1w_queries", "ratio"),
    higher("runtime.scaling_2w_over_1w_updates", "ratio"),
    lower("runtime.trace_overhead_share", "ratio"),
    lower("bench.trace_overhead_share", "ratio"),
    lower("bench.model_residual_share", "ratio"),
    lower("bench.model_faults_share", "ratio"),
    lower("bench.model_justify_share", "ratio"),
    higher("bench.traced_queries_per_s", "queries/s"),
    higher("bench.traced_updates_per_s", "updates/s"),
    lower("bench.spans", "count"),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
