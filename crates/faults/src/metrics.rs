//! Network-level cost accounting (the paper's §3.3 cost model): the one
//! metrics sink the delivery kernel writes, in either runtime.

use cup_core::obs::Hist;

use crate::state::FaultCounters;

/// Hop counters accumulated while a network runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Hops traveled by queries (upstream).
    pub query_hops: u64,
    /// Hops traveled by first-time updates (query responses, downstream).
    pub first_time_hops: u64,
    /// Hops traveled by refresh updates.
    pub refresh_hops: u64,
    /// Hops traveled by delete updates.
    pub delete_hops: u64,
    /// Hops traveled by append updates.
    pub append_hops: u64,
    /// Hops traveled by clear-bit control messages.
    pub clear_bit_hops: u64,
    /// Client queries answered (responses handed to local clients).
    pub client_responses: u64,
    /// Messages dropped because the destination had departed.
    pub dropped_messages: u64,
    /// Messages dropped because an overlay routing lookup failed (client
    /// queries are answered empty instead). Always zero on a well-formed
    /// static overlay.
    pub routing_failures: u64,
    /// Fault-plane drop/crash counters (all zero without a fault plan).
    /// Filled when a run's planes are folded ([`crate::Plane::totals`]);
    /// while running, the counters live in the plane's `FaultState`.
    pub faults: FaultCounters,
    /// Client responses that served a globally dead replica (a deletion
    /// the cache had not yet learned about — only tracked while a fault
    /// plan is active, since loss is what makes deletes go missing).
    pub stale_answers: u64,
    /// Summed staleness age of those answers (µs since the deletion),
    /// the numerator of the mean recovery-latency metric.
    pub stale_age_micros: u64,
    /// Hops traveled by audit probes and replies. Kept out of the paper's
    /// §3.3 `total_cost` so CUP-vs-baseline numbers stay comparable; the
    /// audit bench reports it as the defense's own overhead.
    pub audit_hops: u64,
    /// Distribution of client-query latency: µs from the client posting
    /// the query to its `RespondClient` answer, one sample per response.
    /// Logical (virtual-clock) time in the DES and under the live
    /// runtime's virtual clock; wall µs under a wall clock.
    pub query_latency: Hist,
    /// Distribution of the staleness ages summed in `stale_age_micros`:
    /// one sample (µs since the deletion) per stale answer, so loss and
    /// Byzantine sweeps report recovery *tails*, not just the mean.
    pub stale_age_hist: Hist,
}

impl NetMetrics {
    /// Miss cost: "the total number of hops incurred by all misses, i.e.
    /// freshness and first-time misses" — queries up plus responses down.
    pub fn miss_cost(&self) -> u64 {
        self.query_hops + self.first_time_hops
    }

    /// CUP overhead: "the total number of hops traveled by all updates
    /// sent downstream plus the total number of hops traveled by all
    /// clear-bit messages upstream".
    pub fn overhead(&self) -> u64 {
        self.refresh_hops + self.delete_hops + self.append_hops + self.clear_bit_hops
    }

    /// Total cost = miss cost + overhead. For standard caching this
    /// equals the miss cost (no updates, no clear-bits).
    pub fn total_cost(&self) -> u64 {
        self.miss_cost() + self.overhead()
    }

    /// Maintenance update transmissions (everything except first-time).
    pub fn maintenance_hops(&self) -> u64 {
        self.refresh_hops + self.delete_hops + self.append_hops
    }

    /// Every peer message received, audit traffic included.
    pub fn hops(&self) -> u64 {
        self.total_cost() + self.audit_hops
    }

    /// Folds the metrics of another slice of the *same* run into this
    /// one (the live runtime keeps one sink per shard). Every field is a
    /// count or a histogram of events each seen by exactly one slice, so
    /// the fold is exact, associative and commutative.
    pub fn merge(&mut self, other: &NetMetrics) {
        // No `..`: a field added to the struct and not folded here is
        // a compile error (E0027), not a counter that reads zero.
        let Self {
            query_hops,
            first_time_hops,
            refresh_hops,
            delete_hops,
            append_hops,
            clear_bit_hops,
            client_responses,
            dropped_messages,
            routing_failures,
            faults,
            stale_answers,
            stale_age_micros,
            audit_hops,
            query_latency,
            stale_age_hist,
        } = other;
        self.query_hops += query_hops;
        self.first_time_hops += first_time_hops;
        self.refresh_hops += refresh_hops;
        self.delete_hops += delete_hops;
        self.append_hops += append_hops;
        self.clear_bit_hops += clear_bit_hops;
        self.client_responses += client_responses;
        self.dropped_messages += dropped_messages;
        self.routing_failures += routing_failures;
        self.faults.merge(faults);
        self.stale_answers += stale_answers;
        self.stale_age_micros += stale_age_micros;
        self.audit_hops += audit_hops;
        self.query_latency.merge(query_latency);
        self.stale_age_hist.merge(stale_age_hist);
    }
}
