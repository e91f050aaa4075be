//! Memory bounds on [`cup_core::JustificationTracker`].
//!
//! The tracker is always-on in both runtimes, so its window store must
//! stay bounded however long the update/query stream runs: settled
//! windows (justified, or closed unjustified) are pruned opportunistically
//! by the event hooks, and the table sweeps itself with
//! [`JustificationTracker::prune_settled`] whenever it has doubled, which
//! reclaims slots the stream abandoned. These properties pin that the
//! live window count is a function of the *open* state, not of the stream
//! length, that the slot count is too even when nobody ever calls a
//! prune — and that the tracker partitions exactly by node, which is
//! what lets the live runtime keep one per shard.

mod common;

use proptest::prelude::*;

use common::ReferenceTracker;
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

    /// Nobody calls `prune_settled` here, and the traffic *moves*: every
    /// sixteen events the stream shifts one node further along, so the
    /// `(node, key)` pairs ever touched grow with the stream while the
    /// pairs with an unsettled window stay a few dozen. The table must
    /// follow the second number: it holds at most twice the slots that
    /// had an unsettled window at some instant so far (it sweeps when it
    /// has doubled, and a sweep leaves exactly those), so slots whose
    /// updates stopped and whose paths no query walks again come back.
    /// The oracle, swept by hand at every step, counts the unsettled.
    #[test]
    fn held_slots_are_bounded_by_twice_the_unsettled_ones(events in proptest::collection::vec(arb_event(), 1..1_200)) {
        let mut t = JustificationTracker::new();
        let mut oracle = ReferenceTracker::new();
        let mut now = SimTime::ZERO;
        let mut peak_unsettled = 1;
        for (i, ev) in events.iter().enumerate() {
            now += cup_des::SimDuration::from_secs(ev.dt);
            let node = |offset: u64| NodeId((i as u64 / 16 + ev.node + offset) as u32);
            let key = KeyId(ev.key as u32);
            match ev.window {
                Some(w) => {
                    let closes = now + cup_des::SimDuration::from_secs(w);
                    t.on_update_delivered(node(0), key, now, closes);
                    oracle.on_update_delivered(node(0), key, now, closes);
                }
                None => {
                    let path = [node(0), node(1), node(2)];
                    t.on_query(key, now, &path);
                    oracle.on_query(key, now, &path);
                }
            }
            oracle.prune_settled(now);
            peak_unsettled = peak_unsettled.max(oracle.held_slots());
            prop_assert!(
                t.held_slots() <= 2 * peak_unsettled,
                "{} slots held at event {}, never more than {} unsettled at once",
                t.held_slots(), i, peak_unsettled
            );
        }
        prop_assert_eq!((t.justified(), t.total()), (oracle.justified(), oracle.total()));
        // Once everything has closed, the next sweep leaves only the
        // update that triggered it.
        let end = now + cup_des::SimDuration::from_secs(MAX_WINDOW + 1);
        for n in 0..2 * peak_unsettled as u32 {
            t.on_update_delivered(NodeId(1_000_000 + n), KeyId(0), end, end + cup_des::SimDuration::from_secs(1));
        }
        prop_assert!(t.held_slots() <= 2 * peak_unsettled);
        prop_assert!(t.open_windows() <= 2 * peak_unsettled, "the stream's windows are gone");
    }

    /// The partition law the sharded live runtime rests on: windows are
    /// keyed by `(node, key)`, so K trackers that each own a slice of
    /// the nodes — every update recorded with its node's tracker, every
    /// query handed to each tracker with only that tracker's path nodes —
    /// sum to the single tracker, counter for counter, at every step.
    /// What each *holds* may differ in between — a tracker prunes itself
    /// when its own table doubles, and K small tables double at other
    /// moments than one large one — but never in what is still open.
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
        }
        single.prune_settled(now);
        parts.iter_mut().for_each(|p| p.prune_settled(now));
        prop_assert_eq!(
            parts.iter().map(|p| p.open_windows()).sum::<usize>(),
            single.open_windows()
        );
        prop_assert_eq!(
            parts.iter().map(|p| p.held_slots()).sum::<usize>(),
            single.held_slots()
        );
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
