//! One experiment's outcome: the network cost counters
//! ([`NetMetrics`], kept by the delivery kernel in `cup-faults` and
//! re-exported here) plus the aggregated node counters.

use cup_core::stats::NodeStats;

pub use cup_faults::NetMetrics;

/// The outcome of one experiment run.
///
/// Every field is integral, so `==` is byte-exact — the comparison
/// `cup-testkit::assert_deterministic` relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExperimentResult {
    /// Network hop counters.
    pub net: NetMetrics,
    /// Aggregated per-node protocol counters.
    pub nodes: NodeStats,
    /// Maintenance updates delivered whose cost was recovered by a
    /// subsequent query in the receiver's virtual subtree (§3.1).
    pub justified_updates: u64,
    /// Total maintenance updates delivered (justification denominator).
    pub tracked_updates: u64,
    /// Number of overlay nodes at the start of the run.
    pub node_count: usize,
    /// Discrete events processed by the engine (the scheduler-throughput
    /// denominator reported by the benchmark harness).
    pub events: u64,
}

impl ExperimentResult {
    /// Total cost in hops.
    pub fn total_cost(&self) -> u64 {
        self.net.total_cost()
    }

    /// Miss cost in hops.
    pub fn miss_cost(&self) -> u64 {
        self.net.miss_cost()
    }

    /// Overhead in hops.
    pub fn overhead(&self) -> u64 {
        self.net.overhead()
    }

    /// Number of client-visible misses (first-time + freshness).
    pub fn misses(&self) -> u64 {
        self.nodes.client_misses()
    }

    /// Average hops per miss — the paper's query-latency metric ("query
    /// latency measured by average number of hops needed to handle a
    /// miss", Table 2).
    pub fn miss_latency(&self) -> f64 {
        let misses = self.misses();
        if misses == 0 {
            0.0
        } else {
            self.miss_cost() as f64 / misses as f64
        }
    }

    /// The "investment return per update push": saved miss cost relative
    /// to a baseline, per overhead hop (Table 2's
    /// `SavedMissOverheadRatio`).
    pub fn saved_miss_overhead_ratio(&self, baseline_miss_cost: u64) -> f64 {
        let overhead = self.overhead();
        if overhead == 0 {
            0.0
        } else {
            baseline_miss_cost.saturating_sub(self.miss_cost()) as f64 / overhead as f64
        }
    }

    /// Fraction of tracked maintenance updates that were justified.
    pub fn justified_fraction(&self) -> f64 {
        if self.tracked_updates == 0 {
            0.0
        } else {
            self.justified_updates as f64 / self.tracked_updates as f64
        }
    }

    /// Client cache-hit rate (hits per posted client query).
    pub fn hit_rate(&self) -> f64 {
        if self.nodes.client_queries == 0 {
            0.0
        } else {
            self.nodes.client_hits as f64 / self.nodes.client_queries as f64
        }
    }

    /// Fraction of client responses that served a globally dead replica
    /// (see [`NetMetrics::stale_answers`]).
    pub fn stale_rate(&self) -> f64 {
        if self.net.client_responses == 0 {
            0.0
        } else {
            self.net.stale_answers as f64 / self.net.client_responses as f64
        }
    }

    /// Mean staleness age of stale answers, in seconds — how long a lost
    /// deletion lingered before the answer was served. Zero when no
    /// answer was stale; the fault bench reports it as recovery latency.
    pub fn recovery_latency_secs(&self) -> f64 {
        if self.net.stale_answers == 0 {
            0.0
        } else {
            self.net.stale_age_micros as f64 / self.net.stale_answers as f64 / 1e6
        }
    }

    /// Messages the run dropped, for any reason: fault-plane drops plus
    /// deliveries to churned-away nodes.
    pub fn dropped_messages(&self) -> u64 {
        self.net.faults.dropped() + self.net.dropped_messages
    }

    /// Poisoned-answer rate: fraction of client responses that served a
    /// globally dead replica. Under behavior faults this is the attack's
    /// yield (the same counter `stale_rate` reads under crash faults —
    /// named separately because the cause is malice, not loss).
    pub fn poisoned_rate(&self) -> f64 {
        self.stale_rate()
    }

    /// Audit overhead in hops (probes + replies). The defense is paying
    /// for itself while this stays below the update savings CUP buys.
    pub fn audit_overhead(&self) -> u64 {
        self.net.audit_hops
    }

    /// Audit message overhead as a fraction of the paper's total cost —
    /// the "is the defense cheaper than the disease" ratio.
    pub fn audit_overhead_ratio(&self) -> f64 {
        let total = self.total_cost();
        if total == 0 {
            0.0
        } else {
            self.net.audit_hops as f64 / total as f64
        }
    }

    /// Audit repairs applied across all nodes (evict-and-refetch events).
    pub fn audit_repairs(&self) -> u64 {
        self.nodes.audit_repairs
    }

    /// Client-query latency quantile in µs (`permille`/1000, integer
    /// arithmetic; see [`NetMetrics::query_latency`]).
    pub fn query_latency_us(&self, permille: u32) -> u64 {
        self.net.query_latency.quantile(permille)
    }

    /// Staleness-age quantile in µs (`permille`/1000) — the tail
    /// companion of the mean [`ExperimentResult::recovery_latency_secs`].
    pub fn stale_age_us(&self, permille: u32) -> u64 {
        self.net.stale_age_hist.quantile(permille)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_sums() {
        let m = NetMetrics {
            query_hops: 10,
            first_time_hops: 8,
            refresh_hops: 5,
            delete_hops: 1,
            append_hops: 2,
            clear_bit_hops: 3,
            ..NetMetrics::default()
        };
        assert_eq!(m.miss_cost(), 18);
        assert_eq!(m.overhead(), 11);
        assert_eq!(m.total_cost(), 29);
        assert_eq!(m.maintenance_hops(), 8);
    }

    #[test]
    fn audit_hops_ride_outside_the_paper_cost_model() {
        let mut r = ExperimentResult::default();
        r.net.query_hops = 40;
        r.net.first_time_hops = 40;
        r.net.refresh_hops = 20;
        r.net.audit_hops = 10;
        // §3.3 total cost is unchanged by auditing …
        assert_eq!(r.total_cost(), 100);
        // … and the defense's own bill is reported separately.
        assert_eq!(r.audit_overhead(), 10);
        assert!((r.audit_overhead_ratio() - 0.1).abs() < 1e-12);
        r.net.client_responses = 200;
        r.net.stale_answers = 3;
        assert_eq!(r.poisoned_rate(), r.stale_rate());
    }

    #[test]
    fn latency_quantiles_read_from_the_histograms() {
        let mut r = ExperimentResult::default();
        assert_eq!(r.query_latency_us(999), 0);
        for us in [100u64, 200, 400, 100_000] {
            r.net.query_latency.record(us);
            r.net.stale_age_hist.record(us * 10);
        }
        // Bucket floors: within the histogram's 25% quantization below
        // the true value, never above it.
        let p50 = r.query_latency_us(500);
        assert!(p50 > 150 && p50 <= 200, "p50 {p50} off the 200µs sample");
        assert!(r.query_latency_us(999) >= p50);
        assert!(r.stale_age_us(999) >= r.stale_age_us(500));
        assert!(r.stale_age_us(500) > r.query_latency_us(500));
    }

    #[test]
    fn result_ratios() {
        let mut r = ExperimentResult::default();
        r.net.query_hops = 50;
        r.net.first_time_hops = 50;
        r.net.refresh_hops = 20;
        r.nodes.first_time_misses = 10;
        r.nodes.freshness_misses = 10;
        assert_eq!(r.miss_latency(), 5.0);
        // Baseline missed 300 hops; we missed 100 with 20 overhead.
        assert_eq!(r.saved_miss_overhead_ratio(300), 10.0);
        assert_eq!(r.justified_fraction(), 0.0);
        r.tracked_updates = 4;
        r.justified_updates = 3;
        assert_eq!(r.justified_fraction(), 0.75);
    }

    #[test]
    fn empty_result_is_safe() {
        let r = ExperimentResult::default();
        assert_eq!(r.miss_latency(), 0.0);
        assert_eq!(r.saved_miss_overhead_ratio(100), 0.0);
    }
}
