//! Property-based tests on core data structures and protocol invariants.

use proptest::prelude::*;

use cup::des::{DetRng, EventQueue, KeyId, NodeId, ReplicaId, SimDuration, SimTime};
use cup::faults::FaultPlan;
use cup::overlay::{can::CanOverlay, zone::Zone, Overlay};
use cup::protocol::capacity::OutgoingQueues;
use cup::protocol::obs::Hist;
use cup::protocol::policy::{CutoffContext, CutoffPolicy};
use cup::protocol::popularity::{Popularity, ResetMode};
use cup::protocol::{IndexEntry, Update, UpdateKind};

fn arb_update(kind: UpdateKind) -> impl Strategy<Value = Update> {
    (0u32..5, 0u64..1_000, 1u64..2_000).prop_map(move |(replica, at, life)| {
        let entry = IndexEntry::new(
            KeyId(1),
            ReplicaId(replica),
            SimDuration::from_secs(life),
            SimTime::from_secs(at),
        );
        Update {
            key: KeyId(1),
            kind,
            entries: vec![entry],
            replica: ReplicaId(replica),
            depth: 1,
            origin: SimTime::from_secs(at),
            window_end: entry.expires_at(),
        }
    })
}

/// Fragments of the fault-spec grammar, and numbers that overflow or
/// are not numbers, that hostile strings are made of.
const SPEC_TOKENS: &str = "drop|spike|crash|partition|stale-serve|drop-updates|lie-refresh|\
    :|@t=|..|,|0|1|2|0.5|-1|1e308|18446744073709551615|99999999999999999999|nan|inf| |";

proptest! {
    /// Hostile input is an error, never a panic: raw bytes (and the same
    /// bytes behind a header whose length matches) to `Hist::from_bytes`,
    /// token soup to the fault-spec parser.
    #[test]
    fn parsers_return_on_hostile_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        tokens in proptest::collection::vec(0..SPEC_TOKENS.split('|').count(), 0..12),
    ) {
        let _ = Hist::from_bytes(&bytes);
        if bytes.len() >= 2 {
            let mut framed = bytes.clone();
            let n = (framed.len() - 2) / 9;
            framed.truncate(2 + 9 * n);
            framed[..2].copy_from_slice(&(n as u16).to_le_bytes());
            let _ = Hist::from_bytes(&framed);
        }
        let spec: String = tokens.iter().filter_map(|&i| SPEC_TOKENS.split('|').nth(i)).collect();
        let _ = FaultPlan::parse_specs(&[spec.as_str()]);
        let _ = FaultPlan::parse_specs(&[String::from_utf8_lossy(&bytes)]);
    }

    /// Recursive zone splitting always partitions the parent exactly.
    #[test]
    fn zone_splits_partition_area(depth in 0usize..24, choices in proptest::collection::vec(any::<bool>(), 24)) {
        let mut zone = Zone::FULL;
        for &go_low in choices.iter().take(depth) {
            let Some((lo, hi)) = zone.split() else { break };
            prop_assert_eq!(lo.area() + hi.area(), zone.area());
            prop_assert!(lo.abuts(&hi), "split halves must be neighbors");
            zone = if go_low { lo } else { hi };
        }
    }

    /// A built CAN covers the space: every random point has an owner, and
    /// routing from any node reaches that owner.
    #[test]
    fn can_routing_terminates_at_owner(n in 2usize..48, seed in 0u64..500, key in 0u32..50) {
        let mut rng = DetRng::seed_from(seed);
        let can = CanOverlay::build(n, &mut rng).unwrap();
        let key = KeyId(key);
        let auth = can.authority(key);
        let start = NodeId((seed % n as u64) as u32);
        let path = can.route(start, key).unwrap();
        prop_assert_eq!(*path.last().unwrap(), auth);
        // Paths are simple (no repeated node: greedy strictly improves).
        let mut sorted: Vec<NodeId> = path.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), path.len());
    }

    /// The event queue is a stable priority queue: pops are time-ordered
    /// and FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable(times in proptest::collection::vec(0u64..50, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_secs(t));
            if let Some((pt, pi)) = prev {
                prop_assert!(pt <= t);
                if pt == t {
                    prop_assert!(pi < i, "same-time events must stay FIFO");
                }
            }
            prev = Some((t, i));
        }
    }

    /// DetRng's bounded sampler never exceeds its bound and hits both
    /// halves of the range.
    #[test]
    fn rng_bounded_sampling(seed in any::<u64>(), bound in 2u64..10_000) {
        let mut rng = DetRng::seed_from(seed);
        let mut low = false;
        let mut high = false;
        for _ in 0..200 {
            let x = rng.next_below(bound);
            prop_assert!(x < bound);
            if x < bound / 2 { low = true } else { high = true }
        }
        prop_assert!(low && high, "200 draws should cover both halves");
    }

    /// Capacity queues conserve updates: everything enqueued is either
    /// sent, still queued, or expired — never duplicated or lost.
    #[test]
    fn capacity_queues_conserve_updates(
        lives in proptest::collection::vec(1u64..500, 1..40),
        c in 0.0f64..1.0,
    ) {
        let mut q = OutgoingQueues::new();
        for (i, &life) in lives.iter().enumerate() {
            let entry = IndexEntry::new(
                KeyId(1),
                ReplicaId(i as u32),
                SimDuration::from_secs(life),
                SimTime::ZERO,
            );
            q.enqueue(NodeId((i % 3) as u32), Update {
                key: KeyId(1),
                kind: UpdateKind::Refresh,
                entries: vec![entry],
                replica: ReplicaId(i as u32),
                depth: 1,
                origin: SimTime::ZERO,
                window_end: entry.expires_at(),
            });
        }
        let now = SimTime::from_secs(100);
        let expired = lives.iter().filter(|&&l| l <= 100).count();
        q.set_capacity(c);
        let sent = q.service(now).len();
        prop_assert_eq!(sent + q.total_len() + expired, lives.len());
        // Full capacity sends everything unexpired.
        q.set_capacity(1.0);
        let sent2 = q.service(now).len();
        let drained = q.service(now).len();
        prop_assert_eq!(sent + sent2 + expired, lives.len());
        prop_assert_eq!(drained, 0);
        prop_assert_eq!(q.total_len(), 0);
    }

    /// Cut-off policies are monotone in popularity: more queries never
    /// flips a keep decision to a cut.
    #[test]
    fn policies_monotone_in_queries(
        alpha in 0.001f64..2.0,
        depth in 1u32..40,
        queries in 0u32..100,
    ) {
        for policy in [
            CutoffPolicy::Linear { alpha },
            CutoffPolicy::Logarithmic { alpha },
        ] {
            let lo = CutoffContext { queries_since_reset: queries, consecutive_empty: 0, depth };
            let hi = CutoffContext { queries_since_reset: queries + 1, consecutive_empty: 0, depth };
            if policy.keep_receiving(&lo) {
                prop_assert!(policy.keep_receiving(&hi));
            }
        }
    }

    /// Push-level decisions are monotone in depth: if a node at depth d
    /// is cut, every deeper node is cut too.
    #[test]
    fn push_level_monotone_in_depth(level in 0u32..40, depth in 0u32..40) {
        let p = CutoffPolicy::PushLevel { level };
        let at = |d: u32| p.keep_receiving(&CutoffContext {
            queries_since_reset: 0,
            consecutive_empty: 0,
            depth: d,
        });
        if !at(depth) {
            prop_assert!(!at(depth + 1));
        }
    }

    /// Replica-independent popularity is invariant under interleaving
    /// updates from other replicas.
    #[test]
    fn popularity_replica_independent(
        other_replicas in proptest::collection::vec(1u32..6, 0..20),
        queries in 0u32..5,
    ) {
        // Baseline: tracked replica only.
        let mut clean = Popularity::new();
        clean.on_update(ReplicaId(0), ResetMode::ReplicaIndependent);
        for _ in 0..queries {
            clean.record_query();
        }
        // Same sequence with arbitrary other-replica updates interleaved.
        let mut noisy = Popularity::new();
        noisy.on_update(ReplicaId(0), ResetMode::ReplicaIndependent);
        for _ in 0..queries {
            noisy.record_query();
        }
        for &r in &other_replicas {
            noisy.on_update(ReplicaId(r), ResetMode::ReplicaIndependent);
        }
        prop_assert_eq!(clean.queries_since_reset(), noisy.queries_since_reset());
        prop_assert_eq!(clean.consecutive_empty(), noisy.consecutive_empty());
    }

    /// Updates expire exactly when all their entries do.
    #[test]
    fn update_expiry_matches_entries(update in arb_update(UpdateKind::Refresh), probe in 0u64..4_000) {
        let now = SimTime::from_secs(probe);
        let all_expired = update.entries.iter().all(|e| !e.is_fresh(now));
        prop_assert_eq!(update.is_expired(now), all_expired);
    }

    /// Entry freshness is a half-open interval [stamped_at, expires_at).
    #[test]
    fn entry_freshness_interval(at in 0u64..1_000, life in 1u64..1_000, probe in 0u64..3_000) {
        let e = IndexEntry::new(
            KeyId(0),
            ReplicaId(0),
            SimDuration::from_secs(life),
            SimTime::from_secs(at),
        );
        let now = SimTime::from_secs(probe);
        prop_assert_eq!(e.is_fresh(now), probe < at + life);
    }
}
