//! The per-key popularity measure driving cut-off decisions.
//!
//! §2.3: "Each node tracks the popularity or request frequency of each
//! non-local key K for which it receives queries. The popularity measure
//! for a key K can be the number of queries for K a node receives between
//! arrivals of consecutive updates for K."
//!
//! §3.6 shows that *when* the counter resets matters once a key has many
//! replicas: the naive implementation resets at every update arrival, so
//! more replicas mean more resets and the node mistakenly concludes the
//! key is unpopular. The fix is to make the decision (and the reset)
//! independent of the replica count by triggering both "only when updates
//! for a particular replica arrive". [`ResetMode`] selects between the two
//! behaviours so Table 3 of the paper can be reproduced.

use cup_des::ReplicaId;

/// When the popularity window resets (and cut-off decisions trigger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResetMode {
    /// Naive: every applied update for the key triggers a decision and
    /// resets the counter (the broken behaviour of §3.6, column 2 of
    /// Table 3).
    Naive,
    /// Replica-independent: only updates from one designated *tracked*
    /// replica trigger decisions and resets, keeping the measure stable as
    /// replicas are added (the fix of §3.6).
    #[default]
    ReplicaIndependent,
}

/// Popularity bookkeeping for one key at one node.
#[derive(Debug, Clone, Default)]
pub struct Popularity {
    /// Queries received since the last reset.
    queries_since_reset: u32,
    /// Consecutive decision points at which no query had arrived (drives
    /// the log-based/second-chance policies).
    consecutive_empty: u32,
    /// The replica whose updates drive decisions under
    /// [`ResetMode::ReplicaIndependent`].
    tracked_replica: Option<ReplicaId>,
}

impl Popularity {
    /// Creates a fresh (zero) measure.
    pub fn new() -> Self {
        Popularity::default()
    }

    /// Records one query arrival for the key.
    pub fn record_query(&mut self) {
        self.queries_since_reset = self.queries_since_reset.saturating_add(1);
    }

    /// Queries seen since the last reset.
    pub fn queries_since_reset(&self) -> u32 {
        self.queries_since_reset
    }

    /// Consecutive empty (query-less) update intervals observed so far.
    pub fn consecutive_empty(&self) -> u32 {
        self.consecutive_empty
    }

    /// The replica currently designated to trigger decisions, if any.
    pub fn tracked_replica(&self) -> Option<ReplicaId> {
        self.tracked_replica
    }

    /// Reports an update from `source` (see `Update::source`; `None`
    /// for an update that carries no entry) and returns `true` if a
    /// cut-off decision should be evaluated now.
    ///
    /// Under [`ResetMode::Naive`] every update triggers; under
    /// [`ResetMode::ReplicaIndependent`] only updates from the tracked
    /// replica do (the first update naming a replica designates it). An
    /// update that names no replica neither designates nor triggers
    /// there. When a decision triggers, the empty-interval history and
    /// the query window are advanced.
    pub fn on_update(&mut self, source: Option<ReplicaId>, mode: ResetMode) -> bool {
        let triggers = match mode {
            ResetMode::Naive => true,
            ResetMode::ReplicaIndependent => match (self.tracked_replica, source) {
                (_, None) => false,
                (None, Some(replica)) => {
                    self.tracked_replica = Some(replica);
                    true
                }
                (Some(tracked), Some(replica)) => tracked == replica,
            },
        };
        if triggers {
            if self.queries_since_reset == 0 {
                self.consecutive_empty = self.consecutive_empty.saturating_add(1);
            } else {
                self.consecutive_empty = 0;
            }
            self.queries_since_reset = 0;
        }
        triggers
    }

    /// The tracked replica disappeared (a delete was applied); the next
    /// update will designate a new one.
    pub fn untrack_if(&mut self, replica: ReplicaId) {
        if self.tracked_replica == Some(replica) {
            self.tracked_replica = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_accumulate_until_reset() {
        let mut p = Popularity::new();
        p.record_query();
        p.record_query();
        assert_eq!(p.queries_since_reset(), 2);
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert_eq!(p.queries_since_reset(), 0);
        assert_eq!(p.consecutive_empty(), 0, "interval had queries");
    }

    #[test]
    fn empty_intervals_counted() {
        let mut p = Popularity::new();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 1);
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 2);
        p.record_query();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 0, "a query resets the streak");
    }

    #[test]
    fn naive_mode_triggers_on_every_replica() {
        let mut p = Popularity::new();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert!(p.on_update(Some(ReplicaId(1)), ResetMode::Naive));
        assert!(p.on_update(Some(ReplicaId(2)), ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 3);
    }

    #[test]
    fn replica_independent_tracks_first_replica_only() {
        let mut p = Popularity::new();
        // First update designates replica 0 as tracked and triggers.
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(0)));
        // Updates from other replicas neither trigger nor reset.
        p.record_query();
        assert!(!p.on_update(Some(ReplicaId(1)), ResetMode::ReplicaIndependent));
        assert!(!p.on_update(Some(ReplicaId(2)), ResetMode::ReplicaIndependent));
        assert_eq!(p.queries_since_reset(), 1, "window survives other replicas");
        // The tracked replica triggers and sees the accumulated query.
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        assert_eq!(p.consecutive_empty(), 0);
        assert_eq!(p.queries_since_reset(), 0);
    }

    #[test]
    fn untrack_allows_redesignation() {
        let mut p = Popularity::new();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        p.untrack_if(ReplicaId(0));
        assert_eq!(p.tracked_replica(), None);
        assert!(p.on_update(Some(ReplicaId(5)), ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(5)));
    }

    #[test]
    fn untrack_other_replica_is_noop() {
        let mut p = Popularity::new();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        p.untrack_if(ReplicaId(9));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(0)));
    }

    #[test]
    fn no_replica_never_designates_or_triggers_when_replica_independent() {
        let mut p = Popularity::new();
        p.record_query();
        assert!(!p.on_update(None, ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), None, "nothing to track");
        assert_eq!(p.queries_since_reset(), 1, "the window survives");
        assert_eq!(p.consecutive_empty(), 0);
        // The first replica named afterwards is the one tracked.
        assert!(p.on_update(Some(ReplicaId(4)), ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(4)));
        // And a nameless update still leaves it alone.
        assert!(!p.on_update(None, ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(4)));
        assert!(p.on_update(Some(ReplicaId(4)), ResetMode::ReplicaIndependent));
        assert_eq!(p.consecutive_empty(), 1, "one empty interval since");
    }

    #[test]
    fn no_replica_still_triggers_when_naive() {
        let mut p = Popularity::new();
        p.record_query();
        assert!(p.on_update(None, ResetMode::Naive));
        assert_eq!(p.queries_since_reset(), 0);
        assert_eq!(p.consecutive_empty(), 0, "interval had a query");
        assert!(p.on_update(None, ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 1);
        assert_eq!(p.tracked_replica(), None, "naive tracks nothing");
    }
}
