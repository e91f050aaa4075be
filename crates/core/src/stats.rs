//! Per-node protocol counters.
//!
//! These are local bookkeeping only (no network cost); the experiment
//! harness aggregates them across nodes and combines them with hop counts
//! measured at the network layer.
//!
//! Every node carries one of these, so its fixed size is paid ten
//! thousand times over: the counters are plain words and the two
//! distributions are [`LazyHist`]s, which cost a pointer each until a
//! node actually records a sample, then a block of eight buckets, and
//! beside it exactly the buckets sampled once they spread wider
//! ([`NodeStats::heap_bytes`] counts them). That is why the struct is
//! `Clone` but not `Copy` — a copy may have buckets to duplicate.

use crate::obs::LazyHist;

/// Counters maintained by one node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Queries posted by local clients.
    pub client_queries: u64,
    /// Client queries answered immediately from fresh cache or the local
    /// directory (no miss).
    pub client_hits: u64,
    /// Client queries that missed because the key had never been cached.
    pub first_time_misses: u64,
    /// Client queries that missed because every cached entry had expired
    /// (the paper's *freshness misses*).
    pub freshness_misses: u64,
    /// Queries received from neighbors.
    pub neighbor_queries: u64,
    /// Queries absorbed by an already-pending first-time update (the
    /// query-channel coalescing win of §1).
    pub coalesced_queries: u64,
    /// Updates received from upstream.
    pub updates_received: u64,
    /// Updates dropped on arrival because they had already expired (§2.6
    /// case 3).
    pub updates_expired_on_arrival: u64,
    /// Update transmissions pushed downstream (per neighbor copy).
    pub updates_forwarded: u64,
    /// Clear-bit messages sent upstream.
    pub clear_bits_sent: u64,
    /// Clear-bit messages received from downstream.
    pub clear_bits_received: u64,
    /// Cut-off decisions that ended our subscription for some key.
    pub cutoffs: u64,
    /// Queries re-pushed after a pending-first-update timeout.
    pub pfu_retries: u64,
    /// Sampled-audit rounds this node opened (rate-limited per key).
    pub audits_started: u64,
    /// Audit probes this node answered for other auditors.
    pub audit_probes_served: u64,
    /// Audit replies this node received for its own rounds.
    pub audit_replies: u64,
    /// Audit repairs applied: rounds where a dissent quorum made this
    /// node evict condemned replicas and adopt the quorum's entries.
    pub audit_repairs: u64,
    /// Distribution of how long each retried Pending-First-Update record
    /// had been stranded when the retry fired (µs since its stamp) —
    /// the tail companion of the `pfu_retries` count.
    pub pfu_retry_age: LazyHist,
    /// Distribution of audit round-trips: µs from opening a sampled
    /// audit round to each reply of that round arriving back.
    pub audit_rtt: LazyHist,
}

impl NodeStats {
    /// Total client misses (first-time plus freshness).
    pub fn client_misses(&self) -> u64 {
        self.first_time_misses + self.freshness_misses
    }

    /// Heap bytes these counters own: their two histograms' buckets.
    pub fn heap_bytes(&self) -> usize {
        self.pfu_retry_age.heap_bytes() + self.audit_rtt.heap_bytes()
    }

    /// Adds another node's counters into this one (aggregation).
    pub fn merge(&mut self, other: &NodeStats) {
        // No `..`: a field added to the struct and not folded here is
        // a compile error (E0027), not a counter that reads zero.
        let Self {
            client_queries,
            client_hits,
            first_time_misses,
            freshness_misses,
            neighbor_queries,
            coalesced_queries,
            updates_received,
            updates_expired_on_arrival,
            updates_forwarded,
            clear_bits_sent,
            clear_bits_received,
            cutoffs,
            pfu_retries,
            audits_started,
            audit_probes_served,
            audit_replies,
            audit_repairs,
            pfu_retry_age,
            audit_rtt,
        } = other;
        self.client_queries += client_queries;
        self.client_hits += client_hits;
        self.first_time_misses += first_time_misses;
        self.freshness_misses += freshness_misses;
        self.neighbor_queries += neighbor_queries;
        self.coalesced_queries += coalesced_queries;
        self.updates_received += updates_received;
        self.updates_expired_on_arrival += updates_expired_on_arrival;
        self.updates_forwarded += updates_forwarded;
        self.clear_bits_sent += clear_bits_sent;
        self.clear_bits_received += clear_bits_received;
        self.cutoffs += cutoffs;
        self.pfu_retries += pfu_retries;
        self.audits_started += audits_started;
        self.audit_probes_served += audit_probes_served;
        self.audit_replies += audit_replies;
        self.audit_repairs += audit_repairs;
        self.pfu_retry_age.merge(pfu_retry_age);
        self.audit_rtt.merge(audit_rtt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_sum_and_merge() {
        let mut a = NodeStats {
            first_time_misses: 2,
            freshness_misses: 3,
            client_queries: 10,
            ..NodeStats::default()
        };
        assert_eq!(a.client_misses(), 5);
        let b = NodeStats {
            client_queries: 4,
            coalesced_queries: 1,
            ..NodeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.client_queries, 14);
        assert_eq!(a.coalesced_queries, 1);
        assert_eq!(a.client_misses(), 5);
    }

    #[test]
    fn merge_folds_the_latency_histograms() {
        let mut a = NodeStats::default();
        a.pfu_retry_age.record(31_000_000);
        let mut b = NodeStats::default();
        b.pfu_retry_age.record(45_000_000);
        b.audit_rtt.record(900);
        a.merge(&b);
        assert_eq!(a.pfu_retry_age.count(), 2);
        assert_eq!(a.audit_rtt.count(), 1);
    }
}
