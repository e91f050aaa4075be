//! Per-node protocol counters.
//!
//! These are local bookkeeping only (no network cost); the experiment
//! harness aggregates them across nodes and combines them with hop counts
//! measured at the network layer.
//!
//! Every node carries one of these, so its fixed size is paid ten
//! thousand times over: it is 17 plain counters, `Copy`, and owns no
//! heap. Distributions (query latency, stale ages) are measured once per
//! plane, in `NetMetrics`, not per node.

/// Counters maintained by one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Queries posted by local clients.
    pub client_queries: u64,
    /// Client queries answered immediately from fresh cache or the local
    /// directory (no miss).
    pub client_hits: u64,
    /// Client queries that missed because the key had never been cached.
    pub first_time_misses: u64,
    /// Client queries that missed on a key cached here before, whose
    /// entries have all expired or been deleted since (the paper's
    /// *freshness misses*).
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
}

impl NodeStats {
    /// Total client misses (first-time plus freshness).
    pub fn client_misses(&self) -> u64 {
        self.first_time_misses + self.freshness_misses
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
}
