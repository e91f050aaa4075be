//! Replica equivalence of the fault plane.
//!
//! The live runtime keeps one [`FaultState`] per shard instead of one
//! behind a global lock: every replica is built from the same seed and
//! fed every action, and each rolls only the sends of the nodes it owns.
//! That is sound because a verdict's only mutable input is the per-link
//! sequence number, and a link's sends all come from one sender. These
//! properties pin it: K replicas, sends split by sender and interleaved
//! arbitrarily between actions, reach the verdicts of a single state
//! send for send, and their counters fold back
//! ([`FaultState::merged_counters`]) to the single state's.

use proptest::prelude::*;

use cup_core::{Message, Update, UpdateKind};
use cup_des::{KeyId, NodeId, ReplicaId, SimTime};
use cup_faults::{Behavior, DropVerdict, FaultAction, FaultState};

/// Nodes the generated streams touch.
const NODES: u64 = 12;

/// One generated stream event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A plane action: applied to every replica, at this position.
    Act(FaultAction),
    /// A peer send, handled by the sender's replica. `pick` steers the
    /// interleaving of the replicas' work between two actions.
    Send { from: u32, to: u32, pick: u64 },
    /// A delivery, handled by the receiver's replica.
    Recv { to: u32 },
}

fn arb_event() -> impl Strategy<Value = Ev> {
    (0u32..24, 0..NODES, 0..NODES, 0u64..1_000).prop_map(|(kind, a, b, grist)| {
        let node = a as usize;
        match kind {
            0 => Ev::Act(FaultAction::SetLoss {
                rate: grist as f64 / 1_000.0,
            }),
            1 => Ev::Act(FaultAction::Crash { node }),
            2 => Ev::Act(FaultAction::Restart { node }),
            3 => Ev::Act(FaultAction::Partition {
                groups: 2 + (grist % 3) as u32,
            }),
            4 => Ev::Act(FaultAction::Heal),
            5 => Ev::Act(FaultAction::SetBehavior {
                node,
                behavior: [
                    Behavior::StaleServe,
                    Behavior::DropUpdates,
                    Behavior::LieRefresh,
                ][(grist % 3) as usize],
            }),
            6..=8 => Ev::Recv { to: a as u32 },
            _ => Ev::Send {
                from: a as u32,
                to: b as u32,
                pick: grist,
            },
        }
    })
}

fn deletion() -> Message {
    Message::Update(Update {
        key: KeyId(1),
        kind: UpdateKind::Delete,
        entries: Vec::new(),
        replica: ReplicaId(0),
        depth: 1,
        origin: SimTime::ZERO,
        window_end: SimTime::MAX,
    })
}

/// What a runtime does per send: the behavior gate, then the roll.
/// `None` is a send the sender's behavior fault suppressed.
fn send(plane: &mut FaultState, from: u32, to: u32) -> Option<DropVerdict> {
    let mut msg = deletion();
    plane
        .behavior_send(NodeId(from), &mut msg)
        .then(|| plane.roll(NodeId(from), NodeId(to)))
}

proptest! {
    #[test]
    fn replicas_split_by_sender_reach_the_single_state_verdicts(
        events in proptest::collection::vec(arb_event(), 1..400),
        k in 1usize..6,
        seed in 0u64..1_000,
    ) {
        // The reference: one state, stream order.
        let mut single = FaultState::new(seed);
        let mut expected = vec![None; events.len()];
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                Ev::Act(action) => {
                    single.apply(action);
                }
                Ev::Send { from, to, .. } => expected[i] = send(&mut single, from, to),
                Ev::Recv { to } => {
                    single.behavior_recv(NodeId(to), &deletion());
                }
            }
        }

        // The replicas: actions are barriers; between two of them each
        // sender's sends keep their order but the senders' sequences are
        // merged in a generated order.
        let mut replicas: Vec<FaultState> = (0..k).map(|_| FaultState::new(seed)).collect();
        let mut got = vec![None; events.len()];
        let mut segment: Vec<Vec<(usize, u32, u32, u64)>> = vec![Vec::new(); NODES as usize];
        let mut drain = |segment: &mut Vec<Vec<(usize, u32, u32, u64)>>,
                         replicas: &mut Vec<FaultState>| {
            loop {
                let ready: Vec<usize> = (0..segment.len())
                    .filter(|&s| !segment[s].is_empty())
                    .collect();
                let Some(&first) = ready.first() else { break };
                let sender = ready[(segment[first][0].3 as usize) % ready.len()];
                let (i, from, to, _) = segment[sender].remove(0);
                got[i] = send(&mut replicas[from as usize % k], from, to);
            }
        };
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                Ev::Act(action) => {
                    drain(&mut segment, &mut replicas);
                    for replica in &mut replicas {
                        replica.apply(action);
                    }
                }
                Ev::Send { from, to, pick } => segment[from as usize].push((i, from, to, pick)),
                Ev::Recv { to } => {
                    replicas[to as usize % k].behavior_recv(NodeId(to), &deletion());
                }
            }
        }
        drain(&mut segment, &mut replicas);

        prop_assert_eq!(got, expected);
        prop_assert_eq!(FaultState::merged_counters(&replicas), single.counters);
    }
}

#[test]
#[should_panic(expected = "unequal epochs")]
fn a_replica_that_skipped_an_action_is_caught() {
    let mut replicas = [FaultState::new(3), FaultState::new(3)];
    replicas[0].apply(FaultAction::SetLoss { rate: 0.5 });
    FaultState::merged_counters(&replicas);
}
