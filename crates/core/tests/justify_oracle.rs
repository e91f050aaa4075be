//! [`cup_core::JustificationTracker`] against its oracle, op for op.
//!
//! The tracker's storage is a hashed table with windows in place; the
//! oracle (`common::ReferenceTracker`) is the `BTreeMap` of `Vec`s it
//! replaced. Both are fed the same generated stream — update deliveries
//! (some closed on arrival), queries whose instants may run *behind*
//! updates already recorded (a live shard's `JustifyMark` arrives after
//! the shard moved on), explicit `prune_settled` calls — and after every
//! call `justified`, `total`, `open_windows` and `held_slots` must agree.
//!
//! The stream reaches every form a slot takes: most windows last under
//! 31 s and sit in place, while bursts put three to five windows on one
//! slot, and some windows last `u32::MAX` µs give or take 3 µs (the
//! longest span a slot keeps in place), thousands of seconds, or until
//! `SimTime::MAX`. A jump of about `u32::MAX` µs lets the longest of
//! them close inside a run, and queries land on the very microsecond a
//! window opened or one either side of it.
//!
//! The new tracker has exactly one freedom the oracle lacks: inside
//! `on_update_delivered(.., now, ..)` it may run `prune_settled(now)` on
//! itself (it does when its table has doubled). So when the two disagree
//! about what they *hold* right after an update, the harness grants the
//! oracle that same prune and then demands equality again — which checks
//! that a self-prune removes what `prune_settled(now)` removes and
//! nothing else. The counters get no such allowance.

mod common;

use proptest::prelude::*;

use common::ReferenceTracker;
use cup_core::JustificationTracker;
use cup_des::{KeyId, NodeId, SimDuration, SimTime};

/// Enough `(node, key)` pairs that a stream doubles the table several
/// times over, few enough that slots are revisited.
const NODES: u32 = 24;
const KEYS: u32 = 4;

/// The longest span a slot keeps in place, in µs.
const LONGEST: u64 = u32::MAX as u64;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `copies` updates at one instant, the `i`-th window closing
    /// `span + i` s after delivery (`span` in µs; 0: closed on arrival),
    /// or all at `SimTime::MAX` when `span` is `None`.
    Update {
        node: u32,
        key: u32,
        span: Option<u64>,
        copies: u64,
    },
    /// A query posted `lag` µs ago at `node`, walking three nodes.
    Query { node: u32, key: u32, lag: u64 },
    /// `prune_settled` as of now.
    Prune,
    /// The clock moves on by `by` µs.
    Jump { by: u64 },
}

/// `(seconds since the previous op, op)`; several ops may share an
/// instant.
fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    (0u64..4, 0u32..24, 0..NODES, 0..KEYS, any::<u64>()).prop_map(|(dt, pick, node, key, r)| {
        const S: u64 = 1_000_000;
        // Around `LONGEST`, 3 µs either side.
        let near_longest = LONGEST + r % 7 - 3;
        let update = |span, copies| Op::Update {
            node,
            key,
            span,
            copies,
        };
        let op = match pick {
            0..=9 => update(Some(r % 31 * S), 1),
            10 => update(Some(near_longest), 1),
            11 => update(Some((4_300 + r % 5_000) * S), 1),
            12 => update(None, 1),
            13..=14 => {
                let span = match (r >> 32) % 4 {
                    0 => Some(near_longest),
                    1 => None,
                    _ => Some((1 + r % 30) * S),
                };
                update(span, 3 + (r >> 40) % 3)
            }
            15..=20 => Op::Query {
                node,
                key,
                // Whole seconds, then the microsecond either side.
                lag: (r % 12 * S + (r >> 32) % 3).saturating_sub(1),
            },
            21 => Op::Query {
                node,
                key,
                lag: r % 5_000 * S,
            },
            22 => Op::Prune,
            _ => Op::Jump { by: near_longest },
        };
        (dt, op)
    })
}

fn held(new: &JustificationTracker, oracle: &ReferenceTracker) -> [(usize, usize); 2] {
    [
        (new.open_windows(), oracle.open_windows()),
        (new.held_slots(), oracle.held_slots()),
    ]
}

proptest! {
    #[test]
    fn the_hashed_tracker_matches_the_btreemap_oracle(steps in proptest::collection::vec(arb_step(), 1..1_500)) {
        let mut new = JustificationTracker::new();
        let mut oracle = ReferenceTracker::new();
        let mut now = SimTime::ZERO;
        for (i, &(dt, op)) in steps.iter().enumerate() {
            now += SimDuration::from_secs(dt);
            match op {
                Op::Update { node, key, span, copies } => {
                    for copy in 0..copies {
                        let closes = match span {
                            Some(span) => now + SimDuration::from_micros(span) + SimDuration::from_secs(copy),
                            None => SimTime::MAX,
                        };
                        new.on_update_delivered(NodeId(node), KeyId(key), now, closes);
                        oracle.on_update_delivered(NodeId(node), KeyId(key), now, closes);
                        if held(&new, &oracle).iter().any(|(n, o)| n != o) {
                            // The table doubled and swept itself.
                            oracle.prune_settled(now);
                        }
                    }
                }
                Op::Query { node, key, lag } => {
                    let at = SimTime::from_micros(now.as_micros().saturating_sub(lag));
                    let path = [node, (node + 1) % NODES, (node + 2) % NODES].map(NodeId);
                    new.on_query(KeyId(key), at, &path);
                    oracle.on_query(KeyId(key), at, &path);
                }
                Op::Prune => {
                    new.prune_settled(now);
                    oracle.prune_settled(now);
                }
                Op::Jump { by } => now += SimDuration::from_micros(by),
            }
            prop_assert_eq!(
                (new.justified(), new.total()),
                (oracle.justified(), oracle.total()),
                "counters after step {} ({:?})", i, op
            );
            for (n, o) in held(&new, &oracle) {
                prop_assert_eq!(n, o, "held state after step {} ({:?})", i, op);
            }
        }
    }
}
