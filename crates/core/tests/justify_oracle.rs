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

#[derive(Debug, Clone, Copy)]
enum Op {
    /// An update whose window closes `window` seconds after delivery
    /// (0: closed on arrival).
    Update { node: u32, key: u32, window: u64 },
    /// A query posted `lag` seconds ago at `node`, walking three nodes.
    Query { node: u32, key: u32, lag: u64 },
    /// `prune_settled` as of now.
    Prune,
}

/// `(seconds since the previous op, op)`; several ops may share an
/// instant.
fn arb_step() -> impl Strategy<Value = (u64, Op)> {
    (0u64..4, 0u32..12, 0..NODES, 0..KEYS, 0u64..31).prop_map(|(dt, pick, node, key, secs)| {
        let op = match pick {
            0..=5 => Op::Update {
                node,
                key,
                window: secs,
            },
            6..=10 => Op::Query {
                node,
                key,
                lag: secs % 12,
            },
            _ => Op::Prune,
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
                Op::Update { node, key, window } => {
                    let closes = now + SimDuration::from_secs(window);
                    new.on_update_delivered(NodeId(node), KeyId(key), now, closes);
                    oracle.on_update_delivered(NodeId(node), KeyId(key), now, closes);
                    if held(&new, &oracle).iter().any(|(n, o)| n != o) {
                        // The table doubled and swept itself.
                        oracle.prune_settled(now);
                    }
                }
                Op::Query { node, key, lag } => {
                    let at = SimTime::from_micros(now.as_micros().saturating_sub(lag * 1_000_000));
                    let path = [node, (node + 1) % NODES, (node + 2) % NODES].map(NodeId);
                    new.on_query(KeyId(key), at, &path);
                    oracle.on_query(KeyId(key), at, &path);
                }
                Op::Prune => {
                    new.prune_settled(now);
                    oracle.prune_settled(now);
                }
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
