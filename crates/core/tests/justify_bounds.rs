//! Memory bounds on [`cup_core::JustificationTracker`].
//!
//! The tracker is always-on in both runtimes, so its window store must
//! stay bounded however long the update/query stream runs: settled
//! windows (justified, or closed unjustified) are pruned opportunistically
//! by the event hooks, and [`JustificationTracker::prune_settled`]
//! reclaims slots the stream abandoned. These properties pin that the
//! live window count is a function of the *open* state, not of the stream
//! length — and that the tracker partitions exactly by node, which is
//! what lets the live runtime keep one per shard.

use proptest::prelude::*;

use cup_core::JustificationTracker;
use cup_des::{KeyId, NodeId, SimTime};

/// Nodes and keys the generated streams touch.
const NODES: u64 = 8;
const KEYS: u64 = 4;
/// Longest justification window a generated update can carry (seconds).
const MAX_WINDOW: u64 = 30;

/// One generated stream event.
#[derive(Debug, Clone, Copy)]
struct Ev {
    /// Seconds since the previous event (at least 1: time advances).
    dt: u64,
    node: u64,
    key: u64,
    /// `Some(window_secs)` = update delivery, `None` = query posted at
    /// `node` walking a short virtual path.
    window: Option<u64>,
}

fn arb_event() -> impl Strategy<Value = Ev> {
    (1u64..5, 0..NODES, 0..KEYS, 0u64..MAX_WINDOW + 1).prop_map(|(dt, node, key, w)| Ev {
        dt,
        node,
        key,
        // w = 0 doubles as "this event is a query".
        window: (w > 0).then_some(w),
    })
}

proptest! {
    /// However long the mixed stream runs, the tracker holds at most the
    /// windows that can still change state: per (node, key) slot, only
    /// windows opened within the last MAX_WINDOW seconds survive, and
    /// time advances ≥ 1 s per event — so the live set is bounded by
    /// slots × MAX_WINDOW no matter how many events streamed through.
    #[test]
    fn window_store_is_bounded_by_open_state(events in proptest::collection::vec(arb_event(), 1..1_200)) {
        let mut t = JustificationTracker::new();
        let mut now = SimTime::ZERO;
        let bound = (NODES * KEYS * MAX_WINDOW) as usize;
        let mut total = 0u64;
        for ev in &events {
            now += cup_des::SimDuration::from_secs(ev.dt);
            match ev.window {
                Some(w) => {
                    t.on_update_delivered(
                        NodeId(ev.node as u32),
                        KeyId(ev.key as u32),
                        now,
                        now + cup_des::SimDuration::from_secs(w),
                    );
                    total += 1;
                }
                None => {
                    // A short virtual path through neighboring ids.
                    let path = [
                        NodeId(ev.node as u32),
                        NodeId(((ev.node + 1) % NODES) as u32),
                        NodeId(((ev.node + 2) % NODES) as u32),
                    ];
                    t.on_query(KeyId(ev.key as u32), now, &path);
                }
            }
            prop_assert!(
                t.open_windows() <= bound,
                "open windows {} exceeded the open-state bound {bound} (stream position is unbounded)",
                t.open_windows()
            );
        }
        prop_assert_eq!(t.total(), total);
        prop_assert!(t.justified() <= t.total());

        // Counters are history: pruning the settled remainder rewrites
        // nothing and empties the store once every window has closed.
        let (justified, tracked) = (t.justified(), t.total());
        t.prune_settled(now + cup_des::SimDuration::from_secs(MAX_WINDOW + 1));
        prop_assert_eq!(t.open_windows(), 0);
        prop_assert_eq!((t.justified(), t.total()), (justified, tracked));
    }

    /// The partition law the sharded live runtime rests on: windows are
    /// keyed by `(node, key)`, so K trackers that each own a slice of
    /// the nodes — every update recorded with its node's tracker, every
    /// query handed to each tracker with only that tracker's path nodes —
    /// sum to the single tracker, counter for counter, at every step.
    #[test]
    fn trackers_partitioned_by_node_sum_to_the_single_tracker(
        events in proptest::collection::vec(arb_event(), 1..600),
        k in 1usize..6,
    ) {
        let mut single = JustificationTracker::new();
        let mut parts: Vec<JustificationTracker> = (0..k).map(|_| JustificationTracker::new()).collect();
        let owner = |node: NodeId| node.index() % k;
        let mut now = SimTime::ZERO;
        for ev in &events {
            now += cup_des::SimDuration::from_secs(ev.dt);
            let (node, key) = (NodeId(ev.node as u32), KeyId(ev.key as u32));
            match ev.window {
                Some(w) => {
                    let closes = now + cup_des::SimDuration::from_secs(w);
                    single.on_update_delivered(node, key, now, closes);
                    parts[owner(node)].on_update_delivered(node, key, now, closes);
                }
                None => {
                    let path = [
                        node,
                        NodeId(((ev.node + 1) % NODES) as u32),
                        NodeId(((ev.node + 2) % NODES) as u32),
                    ];
                    single.on_query(key, now, &path);
                    for (i, part) in parts.iter_mut().enumerate() {
                        let own: Vec<NodeId> =
                            path.iter().copied().filter(|&n| owner(n) == i).collect();
                        part.on_query(key, now, &own);
                    }
                }
            }
            prop_assert_eq!(parts.iter().map(|p| p.justified()).sum::<u64>(), single.justified());
            prop_assert_eq!(parts.iter().map(|p| p.total()).sum::<u64>(), single.total());
            prop_assert_eq!(
                parts.iter().map(|p| p.open_windows()).sum::<usize>(),
                single.open_windows()
            );
        }
    }

    /// Justified windows never linger: the query that justifies a window
    /// also settles it, so a hot (node, key) slot saturated with queries
    /// holds at most the windows delivered since the last query.
    #[test]
    fn justified_windows_do_not_accumulate(rounds in 1usize..200) {
        let mut t = JustificationTracker::new();
        for r in 0..rounds {
            let now = SimTime::from_secs(10 * r as u64);
            t.on_update_delivered(NodeId(1), KeyId(0), now, now + cup_des::SimDuration::from_secs(1_000_000));
            t.on_query(KeyId(0), now + cup_des::SimDuration::from_secs(1), &[NodeId(1)]);
            prop_assert_eq!(t.open_windows(), 0, "round {}", r);
        }
        prop_assert_eq!(t.justified(), rounds as u64);
        prop_assert_eq!(t.total(), rounds as u64);
    }
}
