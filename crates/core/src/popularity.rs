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

use std::fmt;

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
///
/// Twelve bytes (checked at compile time below), because every cached
/// key's record holds one: the tracked replica is a [`ReplicaId`] and a
/// flag rather than an `Option<ReplicaId>` (8 bytes on its own), and the
/// empty-interval streak is a `u16` that stops at 65,535. A streak is
/// only ever compared with a [`crate::CutoffPolicy::LogBased`] history
/// length, `consecutive_empty < n - 1`, so the saturated count decides
/// exactly as the full one for every `n` ≤ 65,536.
#[derive(Clone, Default)]
pub struct Popularity {
    /// Queries received since the last reset.
    queries_since_reset: u32,
    /// The replica whose updates drive decisions under
    /// [`ResetMode::ReplicaIndependent`], while `tracking` is set
    /// (meaningless otherwise).
    tracked: ReplicaId,
    /// Consecutive decision points at which no query had arrived (drives
    /// the log-based/second-chance policies), saturated at `u16::MAX`.
    consecutive_empty: u16,
    /// Whether a replica is tracked.
    tracking: bool,
}

const _: () = assert!(std::mem::size_of::<Popularity>() == 12);

impl fmt::Debug for Popularity {
    /// The measure as its accessors read it, the tracked replica as an
    /// `Option`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Popularity")
            .field("queries_since_reset", &self.queries_since_reset)
            .field("consecutive_empty", &self.consecutive_empty())
            .field("tracked_replica", &self.tracked_replica())
            .finish()
    }
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

    /// Consecutive empty (query-less) update intervals observed so far,
    /// saturated at `u16::MAX` (see the type's docs).
    pub fn consecutive_empty(&self) -> u32 {
        u32::from(self.consecutive_empty)
    }

    /// The replica currently designated to trigger decisions, if any.
    pub fn tracked_replica(&self) -> Option<ReplicaId> {
        self.tracking.then_some(self.tracked)
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
            ResetMode::ReplicaIndependent => match (self.tracked_replica(), source) {
                (_, None) => false,
                (None, Some(replica)) => {
                    self.tracked = replica;
                    self.tracking = true;
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
        if self.tracked_replica() == Some(replica) {
            self.tracking = false;
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

    #[test]
    fn the_empty_streak_stops_at_u16_max_without_wrapping() {
        use crate::policy::{CutoffContext, CutoffPolicy};
        let mut p = Popularity::new();
        let longest = CutoffPolicy::LogBased { n: 65_536 };
        let keeps = |p: &Popularity| {
            longest.keep_receiving(&CutoffContext {
                queries_since_reset: 0,
                consecutive_empty: p.consecutive_empty(),
                depth: 1,
            })
        };
        for streak in 1..=u32::from(u16::MAX) {
            assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
            assert_eq!(p.consecutive_empty(), streak);
            // n - 1 = 65,535 empty intervals cut off, fewer keep.
            assert_eq!(keeps(&p), streak < 65_535, "streak {streak}");
        }
        for _ in 0..3 {
            assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
            assert_eq!(p.consecutive_empty(), u32::from(u16::MAX), "saturates");
            assert!(!keeps(&p), "and still cuts off");
        }
        p.record_query();
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::Naive));
        assert_eq!(p.consecutive_empty(), 0, "a query still resets it");
    }

    #[test]
    fn the_largest_replica_id_is_tracked_and_untracked() {
        let top = ReplicaId(u32::MAX);
        let mut p = Popularity::new();
        assert!(p.on_update(Some(top), ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(top));
        assert!(!p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        assert!(p.on_update(Some(top), ResetMode::ReplicaIndependent));
        p.untrack_if(ReplicaId(0));
        assert_eq!(p.tracked_replica(), Some(top), "another id is a no-op");
        p.untrack_if(top);
        assert_eq!(p.tracked_replica(), None);
        assert!(p.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent));
        assert_eq!(p.tracked_replica(), Some(ReplicaId(0)), "redesignated");
    }

    #[test]
    fn debug_reads_the_accessors() {
        let mut p = Popularity::new();
        assert_eq!(
            format!("{p:?}"),
            "Popularity { queries_since_reset: 0, consecutive_empty: 0, tracked_replica: None }"
        );
        p.on_update(Some(ReplicaId(7)), ResetMode::ReplicaIndependent);
        p.record_query();
        assert_eq!(
            format!("{p:?}"),
            "Popularity { queries_since_reset: 1, consecutive_empty: 1, tracked_replica: Some(ReplicaId(7)) }"
        );
    }
}
