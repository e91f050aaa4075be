//! Property-based tests on core data structures and protocol invariants.

use proptest::prelude::*;

use cup::des::{DetRng, EventQueue, KeyId, NodeId, ReplicaId, SimDuration, SimTime};
use cup::faults::{Env, FaultAction, FaultPlan, NodeArena, Plane, RoutingFailed};
use cup::overlay::{can::CanOverlay, zone::Zone, Overlay};
use cup::protocol::capacity::OutgoingQueues;
use cup::protocol::policy::{CutoffContext, CutoffPolicy};
use cup::protocol::popularity::{Popularity, ResetMode};
use cup::protocol::{
    AuditConfig, ClientId, CupNode, IndexEntry, Message, NodeConfig, Requester, Update, UpdateKind,
    SERVICE_INTERVAL,
};

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

/// An instant or a span in microseconds: within 2 000 s of zero, of
/// the middle of the clock's range, or of its end.
fn arb_micros() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..2_000_000_000).prop_map(|(region, off)| match region {
        0 => off,
        1 => u64::MAX / 2 + off,
        _ => u64::MAX - off,
    })
}

/// One step of `tracked_replica_arrived_first_and_lives`: a client or
/// neighbor query, or an update of some kind carrying up to three entries
/// drawn from replicas 0..5 (none at all for a negative answer).
fn arb_step() -> impl Strategy<Value = (u32, Vec<u32>)> {
    (0u32..7, proptest::collection::vec(0u32..5, 0..4))
}

/// The least transport a [`Plane`] runs on: a clock. A lone node routes,
/// sends and answers nothing.
struct Bare(SimTime);

impl Env for Bare {
    fn now(&self) -> SimTime {
        self.0
    }
    fn upstream_of(&mut self, _: NodeId, _: KeyId) -> Result<Option<NodeId>, RoutingFailed> {
        Ok(None)
    }
    fn enqueue(&mut self, _: NodeId, _: NodeId, _: Message, _: f64) {}
    fn respond(&mut self, _: ClientId, _: Vec<IndexEntry>) -> Option<SimTime> {
        None
    }
    fn forget_client(&mut self, _: ClientId) {}
    fn mark_path(&mut self, _: NodeId, _: KeyId, _: SimTime) -> &[NodeId] {
        &[]
    }
}

/// A model of one node's host under §2.8 capacity actions: the last
/// fraction set, whether the node runs, and when the one service wake it
/// should have outstanding is due (`Some` exactly while it is throttled).
struct Host {
    fraction: f64,
    up: bool,
    due: Option<SimTime>,
}

/// Fragments of the fault-spec grammar, and numbers that overflow or
/// are not numbers, that hostile strings are made of.
const SPEC_TOKENS: &str = "drop|spike|crash|partition|stale-serve|drop-updates|lie-refresh|\
    :|@t=|..|,|0|1|2|0.5|-1|1e308|18446744073709551615|99999999999999999999|nan|inf| |";

proptest! {
    /// Hostile input is an error, never a panic: token soup and raw
    /// bytes to the fault-spec parser.
    #[test]
    fn parsers_return_on_hostile_input(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        tokens in proptest::collection::vec(0..SPEC_TOKENS.split('|').count(), 0..12),
    ) {
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

    /// One §2.8 service loop per throttle, on the kernel's wake store:
    /// over random capacity changes, crashes and restarts at random
    /// instants (several at one instant, and some at the instant a
    /// service is due, before or after it), all applied as fault
    /// actions, the node's throttle and the plane's one service wake
    /// match a model of the host's fraction: a cut of an unthrottled,
    /// running node asks for a service one `SERVICE_INTERVAL` on, as
    /// does a service that leaves it throttled; a crash wipes the
    /// throttle and the wake, and a cut while crashed only sets the
    /// host's fraction; a restart is throttled, with its one service
    /// wake one `SERVICE_INTERVAL` on, exactly when that last fraction
    /// is below 1.
    #[test]
    fn a_throttled_node_keeps_exactly_one_service_wake(
        steps in proptest::collection::vec((0u64..3, 0u64..4, 0u64..8, 0u64..2), 1..60),
    ) {
        const NODE: NodeId = NodeId(1);
        let crash = FaultAction::Crash { node: 1 };
        let restart = FaultAction::Restart { node: 1 };
        let cut = |c| FaultAction::SetCapacity { node: 1, c };
        let mut plane = Plane::new(NodeArena::build(&[NODE], NodeConfig::cup_default()));
        let mut env = Bare(SimTime::ZERO);
        let mut model = Host { fraction: 1.0, up: true, due: None };
        let check = |plane: &Plane, model: &Host| {
            let throttled = plane.nodes.get(NODE).is_some_and(CupNode::is_throttled);
            prop_assert_eq!(throttled, model.due.is_some());
            prop_assert_eq!(plane.next_wake(), model.due);
            Ok(())
        };
        // Runs the wakes due by `env`'s now, earliest first, each at its
        // own instant: a service at a cut fraction asks for the next,
        // one at full capacity lifts the throttle.
        let run_due = |plane: &mut Plane, env: &mut Bare, model: &mut Host| {
            let now = env.0;
            while let Some(at) = plane.next_wake().filter(|&at| at <= now) {
                env.0 = at;
                prop_assert!(plane.wake_due(env));
                model.due = (model.fraction < 1.0).then_some(at + SERVICE_INTERVAL);
                check(plane, model)?;
            }
            env.0 = now;
            Ok(())
        };
        for (secs, part, op, wakes_first) in steps {
            // Whole seconds land steps on the instants wakes are due.
            let micros = [0, 1, 500_000, 999_999][part as usize];
            env.0 += SimDuration::from_secs(secs) + SimDuration::from_micros(micros);
            if wakes_first == 1 {
                run_due(&mut plane, &mut env, &mut model)?;
            }
            let now = env.0;
            let next = Some(now + SERVICE_INTERVAL);
            match op {
                6 => {
                    plane.apply(now, crash);
                    model.up = false;
                    model.due = None;
                }
                7 => {
                    plane.apply(now, restart);
                    if !model.up && model.fraction < 1.0 {
                        model.due = next;
                    }
                    model.up = true;
                }
                level => {
                    let c = [0.0, 0.25, 0.5, 0.99, 1.0, 1.0][level as usize];
                    plane.apply(now, cut(c));
                    model.fraction = c;
                    if model.up && c < 1.0 && model.due.is_none() {
                        model.due = next;
                    }
                }
            }
            check(&plane, &model)?;
            if wakes_first == 0 {
                run_due(&mut plane, &mut env, &mut model)?;
            }
        }
        // Up and back at full capacity, the next service lifts the
        // throttle and asks for no other.
        plane.apply(env.0, restart);
        plane.apply(env.0, cut(1.0));
        model.fraction = 1.0;
        env.0 += SERVICE_INTERVAL;
        run_due(&mut plane, &mut env, &mut model)?;
        prop_assert!(plane.next_wake().is_none());
        prop_assert!(!plane.nodes.get(NODE).is_some_and(CupNode::is_throttled));
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

    /// Log-based decisions are monotone in silence and in tolerance: a
    /// node that cuts after `e` consecutive empty intervals also cuts
    /// after `e + 1`, and a node kept at tolerance `n` is kept at `n + 1`.
    /// The cut falls at exactly `n - 1` empties, so second-chance (n = 3)
    /// tolerates one empty interval and cuts on the second.
    #[test]
    fn log_based_monotone_in_silence_and_tolerance(
        n in 2u32..16,
        empty in 0u32..24,
        queries in 0u32..100,
        depth in 0u32..40,
    ) {
        let keeps = |n: u32, e: u32| CutoffPolicy::LogBased { n }.keep_receiving(&CutoffContext {
            queries_since_reset: queries,
            consecutive_empty: e,
            depth,
        });
        if !keeps(n, empty) {
            prop_assert!(!keeps(n, empty + 1));
        }
        if keeps(n, empty) {
            prop_assert!(keeps(n + 1, empty));
        }
        prop_assert_eq!(keeps(n, empty), empty < n - 1);
        // Either side of the cut, whatever `empty` was drawn.
        prop_assert!(keeps(n, n - 2) && !keeps(n, n - 1));
        prop_assert!(keeps(3, 1) && !keeps(3, 2));
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
        clean.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent);
        for _ in 0..queries {
            clean.record_query();
        }
        // Same sequence with arbitrary other-replica updates interleaved.
        let mut noisy = Popularity::new();
        noisy.on_update(Some(ReplicaId(0)), ResetMode::ReplicaIndependent);
        for _ in 0..queries {
            noisy.record_query();
        }
        for &r in &other_replicas {
            noisy.on_update(Some(ReplicaId(r)), ResetMode::ReplicaIndependent);
        }
        prop_assert_eq!(clean.queries_since_reset(), noisy.queries_since_reset());
        prop_assert_eq!(clean.consecutive_empty(), noisy.consecutive_empty());
    }

    /// §3.6's tracked replica, over any interleaving of queries, updates
    /// (empty ones, and with the audit on ones whose tombstoned entries
    /// are scrubbed on arrival) and deletes at a non-authority node: it is
    /// always a replica that headed an update as the node kept it, and
    /// that no delete the node applied has removed since.
    #[test]
    fn tracked_replica_arrived_first_and_lives(
        steps in proptest::collection::vec(arb_step(), 1..40),
        audit in any::<bool>(),
    ) {
        let mut config = NodeConfig::cup_default();
        if audit {
            config = config.with_audit(AuditConfig::sampled(SimDuration::from_secs(60), 16, 1));
        }
        let mut node = CupNode::new(NodeId(1), config);
        let (key, upstream) = (KeyId(1), NodeId(9));
        // Replicas that headed a kept update and are not deleted since,
        // and replicas the node has tombstoned (the audit's scrub list).
        let (mut live_heads, mut retired) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        for (i, (op, replicas)) in steps.into_iter().enumerate() {
            let now = SimTime::from_secs(i as u64);
            out.clear();
            let kind = match op {
                0 | 1 => {
                    let from = if op == 0 {
                        Requester::Client(ClientId(i as u64))
                    } else {
                        Requester::Neighbor(NodeId(5))
                    };
                    node.handle_query_into(now, key, from, Some(upstream), &mut out);
                    continue;
                }
                2 | 3 => UpdateKind::FirstTime,
                4 => UpdateKind::Append,
                5 => UpdateKind::Refresh,
                _ => UpdateKind::Delete,
            };
            let entries: Vec<IndexEntry> = replicas
                .iter()
                .map(|&r| IndexEntry::new(key, ReplicaId(r), SimDuration::from_secs(1_000_000), now))
                .collect();
            let kept: Vec<ReplicaId> = entries
                .iter()
                .map(|e| e.replica)
                .filter(|r| !(audit && retired.contains(r)))
                .collect();
            let update = Update {
                key,
                kind,
                replica: ReplicaId(0),
                window_end: entries.iter().map(IndexEntry::expires_at).max().unwrap_or(SimTime::MAX),
                entries,
                depth: 2,
                origin: now,
            };
            let scrubbed_away = kept.is_empty() && !update.entries.is_empty();
            node.handle_update_into(now, upstream, update, &mut out);
            if scrubbed_away && kind != UpdateKind::FirstTime {
                continue;
            }
            if let Some(&head) = kept.first() {
                if !live_heads.contains(&head) {
                    live_heads.push(head);
                }
            }
            // A delete is applied even when it triggers a cut-off.
            if kind == UpdateKind::Delete {
                live_heads.retain(|r| !kept.contains(r));
                retired.extend(kept);
            }
            let tracked = node.key_state(key).and_then(|st| st.popularity.tracked_replica());
            if let Some(tracked) = tracked {
                prop_assert!(
                    live_heads.contains(&tracked),
                    "step {}: tracked {:?}, live heads {:?}",
                    i,
                    tracked,
                    live_heads
                );
            }
        }
    }

    /// Updates expire exactly when all their entries do.
    #[test]
    fn update_expiry_matches_entries(update in arb_update(UpdateKind::Refresh), probe in 0u64..4_000) {
        let now = SimTime::from_secs(probe);
        let all_expired = update.entries.iter().all(|e| !e.is_fresh(now));
        prop_assert_eq!(update.is_expired(now), all_expired);
    }

    /// Entry freshness is §2.1's rule over the clock's whole range. An
    /// entry stamped at `t` with lifetime `l` expires at `t + l`,
    /// saturated at `SimTime::MAX`, and is fresh exactly before that
    /// instant: for a probe at or after the stamp and short of
    /// `SimTime::MAX`, exactly while `now − t` is below `l`. A refresh
    /// restamps it by the same rule. Stamps, lifetimes and probes are
    /// drawn near zero, mid-range and near `SimTime::MAX`, and half the
    /// probes land within two microseconds of the expiry.
    #[test]
    fn entry_freshness_interval(
        stamp in arb_micros(),
        life in arb_micros(),
        restamp in arb_micros(),
        relife in arb_micros(),
        probe in (0u8..2, arb_micros(), 0u64..5),
    ) {
        let mut e = IndexEntry::new(
            KeyId(0),
            ReplicaId(0),
            SimDuration::from_micros(life),
            SimTime::from_micros(stamp),
        );
        for (step, (t, l)) in [(stamp, life), (restamp, relife)].into_iter().enumerate() {
            if step == 1 {
                e.refresh(SimDuration::from_micros(l), SimTime::from_micros(t));
            }
            let expiry = t.saturating_add(l);
            prop_assert_eq!(e.expires_at(), SimTime::from_micros(expiry), "step {}", step);
            let (near, anywhere, nudge) = probe;
            let now = match near {
                0 => expiry.saturating_sub(2).saturating_add(nudge),
                _ => anywhere,
            };
            let fresh = e.is_fresh(SimTime::from_micros(now));
            prop_assert_eq!(fresh, now < expiry, "step {}: probe at {}", step, now);
            if t <= now && now < u64::MAX {
                prop_assert_eq!(fresh, now - t < l, "step {}: §2.1 at {}", step, now);
            }
        }
    }
}
