//! The live fault plane: current loss/crash/partition state plus the
//! deterministic drop decision both runtimes share.

use std::collections::HashMap;

use cup_core::justify::grow_only_map_bytes;
use cup_core::{Message, UpdateKind};
use cup_des::NodeId;

use crate::plan::{Behavior, FaultAction};

/// What the fault plane says about one about-to-be-sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropVerdict {
    /// Deliver normally.
    Deliver,
    /// Dropped by probabilistic link loss.
    Loss,
    /// Dropped because sender and receiver sit in different partition
    /// groups.
    Partitioned,
    /// Dropped because the receiver is crashed.
    TargetCrashed,
}

/// Fault-plane counters, identical in shape across the DES and the live
/// runtime (the conformance harness compares them field by field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped by probabilistic link loss.
    pub dropped_loss: u64,
    /// Messages dropped at a partition boundary.
    pub dropped_partition: u64,
    /// Messages dropped because their receiver was crashed.
    pub dropped_to_crashed: u64,
    /// Crash actions applied (to previously live nodes).
    pub crashes: u64,
    /// Restart actions applied (to previously crashed nodes).
    pub restarts: u64,
    /// Client queries swallowed because the posting node was crashed.
    pub queries_at_crashed: u64,
    /// Replica lifecycle events lost at a crashed authority.
    pub replica_at_crashed: u64,
    /// Outbound maintenance updates a `drop-updates` node suppressed
    /// before they entered any queue.
    pub byz_updates_dropped: u64,
    /// Inbound deletions and audit repairs a `stale-serve` node swallowed
    /// after delivery (the hop was paid; the node ignored the content).
    pub byz_updates_swallowed: u64,
    /// Deletions a `lie-refresh` node rewrote into refreshes on the way
    /// out (delivered, but carrying a false version).
    pub byz_refresh_lies: u64,
}

impl FaultCounters {
    /// Total messages the fault plane dropped (suppressed sends count;
    /// swallowed-after-delivery and rewritten messages do not).
    pub fn dropped(&self) -> u64 {
        self.dropped_loss
            + self.dropped_partition
            + self.dropped_to_crashed
            + self.byz_updates_dropped
    }

    /// Folds the counters of another replica of the *same* plane into
    /// this one. Message-level counters are bumped only by the replica
    /// that saw the message, so they add; `crashes`/`restarts` count
    /// applied actions, which every replica applies alike, so they are
    /// taken once. Associative and commutative, like `NodeStats::merge`.
    pub fn merge(&mut self, other: &FaultCounters) {
        // No `..`: a field added to the struct and not folded here is
        // a compile error (E0027), not a counter that reads zero.
        let Self {
            dropped_loss,
            dropped_partition,
            dropped_to_crashed,
            crashes,
            restarts,
            queries_at_crashed,
            replica_at_crashed,
            byz_updates_dropped,
            byz_updates_swallowed,
            byz_refresh_lies,
        } = other;
        self.dropped_loss += dropped_loss;
        self.dropped_partition += dropped_partition;
        self.dropped_to_crashed += dropped_to_crashed;
        self.crashes = self.crashes.max(*crashes);
        self.restarts = self.restarts.max(*restarts);
        self.queries_at_crashed += queries_at_crashed;
        self.replica_at_crashed += replica_at_crashed;
        self.byz_updates_dropped += byz_updates_dropped;
        self.byz_updates_swallowed += byz_updates_swallowed;
        self.byz_refresh_lies += byz_refresh_lies;
    }
}

/// An active partition: group assignment by seeded hash.
#[derive(Debug, Clone, Copy)]
struct Partition {
    groups: u32,
    salt: u64,
}

/// The mutable fault plane consulted on every send.
///
/// Drop decisions are *counter-mode*: message `n` on link `(from, to)`
/// hashes `(seed, epoch, from, to, n)` into a uniform variate compared
/// against the loss rate. The per-link counters are advanced only by the
/// sender's execution context (drops are decided before enqueue), so the
/// DES and a sharded live run consume them in the same per-link order and
/// reach identical verdicts.
#[derive(Debug)]
pub struct FaultState {
    seed: u64,
    /// Bumped on every applied action: successive loss phases draw from
    /// decorrelated hash streams.
    epoch: u64,
    loss_rate: f64,
    latency_factor: f64,
    crashed: Vec<bool>,
    crashed_count: usize,
    partition: Option<Partition>,
    link_seq: HashMap<(u32, u32), u64>,
    /// Per-node behavior override bitmasks (see the `*_BIT` consts).
    behaviors: Vec<u8>,
    /// How many behavior bits are set across all nodes (hot-path gate).
    behavior_count: usize,
    /// Per-node host capacity fractions, 1.0 past the end (see
    /// [`FaultAction::SetCapacity`]). No send reads them, so they stay
    /// out of [`FaultState::active`].
    capacity: Vec<f64>,
    /// What the plane has dropped and toggled so far.
    pub counters: FaultCounters,
}

/// Behavior bitmask: the node swallows inbound deletions/audit repairs.
const STALE_SERVE_BIT: u8 = 1;
/// Behavior bitmask: the node suppresses outbound maintenance updates.
const DROP_UPDATES_BIT: u8 = 1 << 1;
/// Behavior bitmask: the node rewrites outbound deletions into refreshes.
const LIE_REFRESH_BIT: u8 = 1 << 2;

fn behavior_bit(behavior: Behavior) -> u8 {
    match behavior {
        Behavior::StaleServe => STALE_SERVE_BIT,
        Behavior::DropUpdates => DROP_UPDATES_BIT,
        Behavior::LieRefresh => LIE_REFRESH_BIT,
    }
}

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash (53 high bits, like `DetRng::next_f64`).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Default for FaultState {
    /// A fault-free plane keyed by seed 0.
    fn default() -> Self {
        FaultState::new(0)
    }
}

impl FaultState {
    /// A fault-free plane keyed by `seed` (derive the seed from the
    /// experiment's `DetRng` so fault decisions are part of the same
    /// reproducible universe).
    pub fn new(seed: u64) -> Self {
        FaultState {
            seed,
            epoch: 0,
            loss_rate: 0.0,
            latency_factor: 1.0,
            crashed: Vec::new(),
            crashed_count: 0,
            partition: None,
            link_seq: HashMap::new(),
            behaviors: Vec::new(),
            behavior_count: 0,
            capacity: Vec::new(),
            counters: FaultCounters::default(),
        }
    }

    /// Returns `true` while any fault is in effect (the hot-path gate:
    /// an inactive plane never touches the per-link counters).
    #[inline]
    pub fn active(&self) -> bool {
        self.loss_rate > 0.0
            || self.crashed_count > 0
            || self.partition.is_some()
            || self.latency_factor != 1.0
            || self.behavior_count > 0
    }

    /// The counters of one logical plane kept as several replicas: one
    /// `FaultState` per execution context, all built from one seed and
    /// fed every action, each rolling only the sends of the nodes it
    /// owns (so every `link_seq` entry lives in exactly one replica).
    /// Folded with [`FaultCounters::merge`], they equal the counters of a
    /// single state that saw every send.
    ///
    /// # Panics
    ///
    /// Panics if the replicas' epochs differ: one of them skipped an
    /// action, so its verdicts came from a different plane and the fold
    /// would be a sum over two fault universes.
    pub fn merged_counters<'a>(
        replicas: impl IntoIterator<Item = &'a FaultState>,
    ) -> FaultCounters {
        let mut merged = FaultCounters::default();
        let mut epoch = None;
        for replica in replicas {
            let first = *epoch.get_or_insert(replica.epoch);
            assert_eq!(
                replica.epoch, first,
                "fault-plane replicas at unequal epochs: one skipped an action"
            );
            merged.merge(&replica.counters);
        }
        merged
    }

    /// Heap bytes the plane owns: the per-link message counters, which
    /// are nearly all of it, the per-node crash and behavior flags and
    /// the per-node capacity fractions.
    /// The counters only grow (a link keeps its count for the run), so
    /// the map's capacity names its buckets exactly.
    pub fn heap_bytes(&self) -> usize {
        grow_only_map_bytes::<((u32, u32), u64)>(self.link_seq.capacity())
            + self.crashed.capacity()
            + self.behaviors.capacity()
            + self.capacity.capacity() * std::mem::size_of::<f64>()
    }

    /// The current per-hop latency multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Returns `true` if `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.index()).copied().unwrap_or(false)
    }

    /// `node`'s host capacity fraction: 1.0 until an action cuts it.
    pub fn capacity(&self, node: NodeId) -> f64 {
        self.capacity.get(node.index()).copied().unwrap_or(1.0)
    }

    /// The partition group of `node` under the active partition, if any.
    pub fn partition_group(&self, node: NodeId) -> Option<u32> {
        self.partition
            .map(|p| (mix64(p.salt ^ (node.index() as u64)) % u64::from(p.groups)) as u32)
    }

    /// Applies one action to the fault state. Crash/restart verdicts
    /// and capacity fractions change here; what they do to a node is
    /// `Plane::apply`'s, which rebuilds a crashed node cold in its arena
    /// and throttles a live one.
    ///
    /// Returns `true` if the action changed anything (a crash of an
    /// already-crashed node, a restart of a live one, or a node's
    /// fraction set to what it was, is a no-op).
    pub fn apply(&mut self, action: FaultAction) -> bool {
        self.epoch += 1;
        match action {
            FaultAction::SetLoss { rate } => {
                self.loss_rate = rate.clamp(0.0, 1.0);
                true
            }
            FaultAction::SetLatencyFactor { factor } => {
                self.latency_factor = if factor.is_finite() && factor > 0.0 {
                    factor
                } else {
                    1.0
                };
                true
            }
            FaultAction::Crash { node } => {
                if self.crashed.len() <= node {
                    self.crashed.resize(node + 1, false);
                }
                if self.crashed[node] {
                    return false;
                }
                self.crashed[node] = true;
                self.crashed_count += 1;
                self.counters.crashes += 1;
                true
            }
            FaultAction::Restart { node } => {
                if !self.crashed.get(node).copied().unwrap_or(false) {
                    return false;
                }
                self.crashed[node] = false;
                self.crashed_count -= 1;
                self.counters.restarts += 1;
                true
            }
            FaultAction::Partition { groups } => {
                self.partition = Some(Partition {
                    groups: groups.max(2),
                    salt: mix64(self.seed ^ self.epoch),
                });
                true
            }
            FaultAction::Heal => {
                self.partition = None;
                true
            }
            FaultAction::SetBehavior { node, behavior } => {
                if self.behaviors.len() <= node {
                    self.behaviors.resize(node + 1, 0);
                }
                let bit = behavior_bit(behavior);
                if self.behaviors[node] & bit != 0 {
                    return false;
                }
                self.behaviors[node] |= bit;
                self.behavior_count += 1;
                true
            }
            FaultAction::ClearBehavior { node, behavior } => {
                let bit = behavior_bit(behavior);
                if self.behaviors.get(node).copied().unwrap_or(0) & bit == 0 {
                    return false;
                }
                self.behaviors[node] &= !bit;
                self.behavior_count -= 1;
                true
            }
            FaultAction::SetCapacity { node, c } => {
                if self.capacity.len() <= node {
                    self.capacity.resize(node + 1, 1.0);
                }
                std::mem::replace(&mut self.capacity[node], c) != c
            }
        }
    }

    /// Returns `true` if `node` currently has `behavior` installed.
    pub fn has_behavior(&self, node: NodeId, behavior: Behavior) -> bool {
        self.behaviors.get(node.index()).copied().unwrap_or(0) & behavior_bit(behavior) != 0
    }

    /// Sender-side behavior gate, called once per peer send *before*
    /// [`FaultState::roll`] (a suppressed message never advances the
    /// per-link loss counter and never enters a queue, in either
    /// runtime). May rewrite the message in place (`lie-refresh`).
    ///
    /// Returns `false` if the send must be suppressed.
    pub fn behavior_send(&mut self, from: NodeId, msg: &mut Message) -> bool {
        if self.behavior_count == 0 {
            return true;
        }
        let mask = self.behaviors.get(from.index()).copied().unwrap_or(0);
        if mask == 0 {
            return true;
        }
        if let Message::Update(update) = msg {
            // Drop-updates: maintenance traffic dies here; first-time
            // answers (and queries, clear-bits, audits) still flow, so
            // the node looks healthy while starving its subtree.
            if mask & DROP_UPDATES_BIT != 0 && update.kind != UpdateKind::FirstTime {
                self.counters.byz_updates_dropped += 1;
                return false;
            }
            // Lie-refresh: a forwarded deletion becomes a refresh. The
            // delete carries the entry being removed (with its original,
            // still-running lifetime), so the kind flip alone resurrects
            // the dead replica downstream.
            if mask & LIE_REFRESH_BIT != 0 && update.kind == UpdateKind::Delete {
                update.kind = UpdateKind::Refresh;
                self.counters.byz_refresh_lies += 1;
            }
        }
        true
    }

    /// Receiver-side behavior gate, called after delivery accounting
    /// (the hop is paid) and the crashed-receiver check, *before* the
    /// protocol handler runs.
    ///
    /// Returns `false` if the node swallows the message: a `stale-serve`
    /// node ignores inbound deletions and audit repairs, so it keeps
    /// serving entries the rest of the network has retired. It still
    /// answers audit probes — with its poisoned entries.
    pub fn behavior_recv(&mut self, to: NodeId, msg: &Message) -> bool {
        if self.behavior_count == 0 {
            return true;
        }
        let mask = self.behaviors.get(to.index()).copied().unwrap_or(0);
        if mask & STALE_SERVE_BIT == 0 {
            return true;
        }
        let swallowed = match msg {
            Message::Update(update) => update.kind == UpdateKind::Delete,
            Message::AuditReply { .. } => true,
            _ => false,
        };
        if swallowed {
            self.counters.byz_updates_swallowed += 1;
        }
        !swallowed
    }

    /// Decides the fate of one message about to be sent on `(from, to)`,
    /// counting any drop. Call exactly once per send, sender-side, before
    /// the message enters any queue.
    pub fn roll(&mut self, from: NodeId, to: NodeId) -> DropVerdict {
        if !self.active() {
            return DropVerdict::Deliver;
        }
        if self.is_crashed(to) {
            self.counters.dropped_to_crashed += 1;
            return DropVerdict::TargetCrashed;
        }
        if self.partition.is_some() && self.partition_group(from) != self.partition_group(to) {
            self.counters.dropped_partition += 1;
            return DropVerdict::Partitioned;
        }
        if self.loss_rate > 0.0 {
            let seq = self
                .link_seq
                .entry((from.index() as u32, to.index() as u32))
                .or_insert(0);
            let n = *seq;
            *seq += 1;
            let h = mix64(
                self.seed
                    ^ mix64(
                        self.epoch
                            ^ mix64(((from.index() as u64) << 32 | to.index() as u64) ^ mix64(n)),
                    ),
            );
            if unit(h) < self.loss_rate {
                self.counters.dropped_loss += 1;
                return DropVerdict::Loss;
            }
        }
        DropVerdict::Deliver
    }

    /// Records a client query swallowed at a crashed node.
    pub fn note_query_at_crashed(&mut self) {
        self.counters.queries_at_crashed += 1;
    }

    /// Records a replica lifecycle event lost at a crashed authority.
    pub fn note_replica_at_crashed(&mut self) {
        self.counters.replica_at_crashed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn inactive_plane_delivers_everything() {
        let mut st = FaultState::new(1);
        assert!(!st.active());
        for i in 0..100 {
            assert_eq!(st.roll(n(i), n(i + 1)), DropVerdict::Deliver);
        }
        assert_eq!(st.counters, FaultCounters::default());
    }

    #[test]
    fn loss_rate_drops_about_the_right_fraction() {
        let mut st = FaultState::new(7);
        st.apply(FaultAction::SetLoss { rate: 0.2 });
        let total = 10_000u32;
        let mut dropped = 0u32;
        for i in 0..total {
            if st.roll(n(i % 50), n((i + 1) % 50)) == DropVerdict::Loss {
                dropped += 1;
            }
        }
        assert_eq!(u64::from(dropped), st.counters.dropped_loss);
        let rate = f64::from(dropped) / f64::from(total);
        assert!(
            (0.17..0.23).contains(&rate),
            "empirical loss {rate} far from 0.2"
        );
    }

    #[test]
    fn rolls_are_reproducible_and_link_local() {
        let script = |st: &mut FaultState| -> Vec<DropVerdict> {
            st.apply(FaultAction::SetLoss { rate: 0.5 });
            (0..64).map(|i| st.roll(n(i % 4), n(4 + i % 3))).collect()
        };
        let a = script(&mut FaultState::new(42));
        let b = script(&mut FaultState::new(42));
        assert_eq!(a, b, "same seed, same verdicts");
        let c = script(&mut FaultState::new(43));
        assert_ne!(a, c, "different seeds diverge");

        // Link-locality: interleaving traffic on other links must not
        // perturb a given link's verdict sequence.
        let mut lone = FaultState::new(9);
        lone.apply(FaultAction::SetLoss { rate: 0.5 });
        let solo: Vec<DropVerdict> = (0..32).map(|_| lone.roll(n(1), n(2))).collect();
        let mut busy = FaultState::new(9);
        busy.apply(FaultAction::SetLoss { rate: 0.5 });
        let mut interleaved = Vec::new();
        for _ in 0..32 {
            busy.roll(n(7), n(8));
            interleaved.push(busy.roll(n(1), n(2)));
            busy.roll(n(3), n(1));
        }
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn crash_restart_toggle_and_count_once() {
        let mut st = FaultState::new(3);
        assert!(st.apply(FaultAction::Crash { node: 5 }));
        assert!(!st.apply(FaultAction::Crash { node: 5 }), "idempotent");
        assert!(st.is_crashed(n(5)));
        assert!(st.active());
        assert_eq!(st.roll(n(1), n(5)), DropVerdict::TargetCrashed);
        assert_eq!(st.roll(n(1), n(2)), DropVerdict::Deliver);
        assert!(st.apply(FaultAction::Restart { node: 5 }));
        assert!(!st.apply(FaultAction::Restart { node: 5 }));
        assert!(!st.is_crashed(n(5)));
        assert!(!st.active());
        assert_eq!(st.counters.crashes, 1);
        assert_eq!(st.counters.restarts, 1);
        assert_eq!(st.counters.dropped_to_crashed, 1);
    }

    #[test]
    fn partition_splits_and_heals() {
        let mut st = FaultState::new(11);
        st.apply(FaultAction::Partition { groups: 2 });
        let groups: Vec<u32> = (0..64).map(|i| st.partition_group(n(i)).unwrap()).collect();
        assert!(groups.contains(&0) && groups.contains(&1));
        let (a, b) = (
            groups.iter().position(|&g| g == 0).unwrap() as u32,
            groups.iter().position(|&g| g == 1).unwrap() as u32,
        );
        assert_eq!(st.roll(n(a), n(b)), DropVerdict::Partitioned);
        let same: Vec<u32> = (0..64).filter(|&i| groups[i as usize] == 0).collect();
        assert_eq!(st.roll(n(same[0]), n(same[1])), DropVerdict::Deliver);
        st.apply(FaultAction::Heal);
        assert_eq!(st.partition_group(n(a)), None);
        assert_eq!(st.roll(n(a), n(b)), DropVerdict::Deliver);
        assert_eq!(st.counters.dropped_partition, 1);
    }

    #[test]
    fn epochs_decorrelate_loss_phases() {
        // The same link sequence under the same rate in two different
        // epochs must not produce the same drop pattern.
        let mut st = FaultState::new(5);
        st.apply(FaultAction::SetLoss { rate: 0.5 });
        let phase1: Vec<DropVerdict> = (0..64).map(|_| st.roll(n(0), n(1))).collect();
        st.apply(FaultAction::SetLoss { rate: 0.0 });
        st.apply(FaultAction::SetLoss { rate: 0.5 });
        let phase2: Vec<DropVerdict> = (0..64).map(|_| st.roll(n(0), n(1))).collect();
        assert_ne!(phase1, phase2);
    }

    #[test]
    fn behavior_overrides_toggle_and_gate_active() {
        let mut st = FaultState::new(4);
        assert!(!st.active());
        assert!(st.apply(FaultAction::SetBehavior {
            node: 3,
            behavior: Behavior::StaleServe,
        }));
        assert!(st.active(), "a behavior override arms the plane");
        assert!(
            !st.apply(FaultAction::SetBehavior {
                node: 3,
                behavior: Behavior::StaleServe,
            }),
            "idempotent"
        );
        assert!(st.has_behavior(n(3), Behavior::StaleServe));
        assert!(!st.has_behavior(n(3), Behavior::LieRefresh));
        // Independent bits on the same node.
        assert!(st.apply(FaultAction::SetBehavior {
            node: 3,
            behavior: Behavior::DropUpdates,
        }));
        assert!(st.apply(FaultAction::ClearBehavior {
            node: 3,
            behavior: Behavior::StaleServe,
        }));
        assert!(!st.apply(FaultAction::ClearBehavior {
            node: 3,
            behavior: Behavior::StaleServe,
        }));
        assert!(st.has_behavior(n(3), Behavior::DropUpdates));
        assert!(st.apply(FaultAction::ClearBehavior {
            node: 3,
            behavior: Behavior::DropUpdates,
        }));
        assert!(!st.active(), "all overrides lifted");
        // Honest messages were never perturbed.
        assert_eq!(st.counters.byz_updates_dropped, 0);
        assert_eq!(st.counters.byz_refresh_lies, 0);
    }

    #[test]
    fn behavior_send_suppresses_and_rewrites() {
        use cup_core::{IndexEntry, Update};
        use cup_des::{KeyId, ReplicaId, SimDuration, SimTime};

        let key = KeyId(7);
        let entry = IndexEntry::new(
            key,
            ReplicaId(2),
            SimDuration::from_secs(100),
            SimTime::ZERO,
        );
        let update = |kind: UpdateKind| {
            Message::Update(Update {
                key,
                kind,
                entries: vec![entry],
                replica: ReplicaId(2),
                depth: 1,
                origin: SimTime::ZERO,
                window_end: SimTime::MAX,
            })
        };

        let mut st = FaultState::new(6);
        st.apply(FaultAction::SetBehavior {
            node: 1,
            behavior: Behavior::DropUpdates,
        });
        st.apply(FaultAction::SetBehavior {
            node: 2,
            behavior: Behavior::LieRefresh,
        });

        // Drop-updates: maintenance suppressed, first-time and queries flow.
        let mut msg = update(UpdateKind::Refresh);
        assert!(!st.behavior_send(n(1), &mut msg));
        let mut msg = update(UpdateKind::Delete);
        assert!(!st.behavior_send(n(1), &mut msg));
        let mut msg = update(UpdateKind::FirstTime);
        assert!(st.behavior_send(n(1), &mut msg));
        let mut msg = Message::Query { key };
        assert!(st.behavior_send(n(1), &mut msg));
        assert_eq!(st.counters.byz_updates_dropped, 2);
        assert_eq!(st.counters.dropped(), 2, "suppressed sends count as drops");

        // Lie-refresh: deletions flip kind in place, everything delivered.
        let mut msg = update(UpdateKind::Delete);
        assert!(st.behavior_send(n(2), &mut msg));
        match &msg {
            Message::Update(u) => assert_eq!(u.kind, UpdateKind::Refresh),
            other => panic!("unexpected {other:?}"),
        }
        let mut msg = update(UpdateKind::Append);
        assert!(st.behavior_send(n(2), &mut msg));
        match &msg {
            Message::Update(u) => assert_eq!(u.kind, UpdateKind::Append),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.counters.byz_refresh_lies, 1);

        // Honest senders are untouched.
        let mut msg = update(UpdateKind::Delete);
        assert!(st.behavior_send(n(0), &mut msg));
        match &msg {
            Message::Update(u) => assert_eq!(u.kind, UpdateKind::Delete),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn behavior_recv_swallows_deletes_and_repairs_at_stale_servers() {
        use cup_core::Update;
        use cup_des::{KeyId, ReplicaId, SimTime};

        let key = KeyId(3);
        let delete = Message::Update(Update {
            key,
            kind: UpdateKind::Delete,
            entries: Vec::new(),
            replica: ReplicaId(1),
            depth: 1,
            origin: SimTime::ZERO,
            window_end: SimTime::MAX,
        });
        let reply = Message::AuditReply {
            key,
            round: 1,
            entries: Vec::new(),
            retired: vec![ReplicaId(1)],
        };
        let probe = Message::AuditProbe { key, round: 1 };

        let mut st = FaultState::new(8);
        st.apply(FaultAction::SetBehavior {
            node: 5,
            behavior: Behavior::StaleServe,
        });
        assert!(!st.behavior_recv(n(5), &delete), "deletion swallowed");
        assert!(!st.behavior_recv(n(5), &reply), "audit repair swallowed");
        assert!(st.behavior_recv(n(5), &probe), "still answers audit probes");
        assert!(st.behavior_recv(n(5), &Message::Query { key }));
        assert!(st.behavior_recv(n(4), &delete), "honest nodes unaffected");
        assert_eq!(st.counters.byz_updates_swallowed, 2);
        assert_eq!(st.counters.dropped(), 0, "the hop was already paid");
    }

    #[test]
    fn a_capacity_fraction_is_kept_per_node_and_gates_nothing() {
        let mut st = FaultState::new(12);
        assert_eq!(st.capacity(n(4)), 1.0, "full until cut");
        assert!(st.apply(FaultAction::SetCapacity { node: 4, c: 0.5 }));
        assert!(!st.apply(FaultAction::SetCapacity { node: 4, c: 0.5 }));
        assert!(!st.active(), "a cut drops no message");
        // A crash and a restart leave the host's fraction alone.
        st.apply(FaultAction::Crash { node: 4 });
        st.apply(FaultAction::Restart { node: 4 });
        assert_eq!((st.capacity(n(4)), st.capacity(n(3))), (0.5, 1.0));
        assert!(st.apply(FaultAction::SetCapacity { node: 4, c: 1.0 }));
        assert_eq!(st.capacity(n(4)), 1.0);
        assert_eq!(st.roll(n(1), n(4)), DropVerdict::Deliver);
    }

    #[test]
    fn latency_factor_and_notes() {
        let mut st = FaultState::new(2);
        assert_eq!(st.latency_factor(), 1.0);
        st.apply(FaultAction::SetLatencyFactor { factor: 2.5 });
        assert_eq!(st.latency_factor(), 2.5);
        assert!(st.active());
        st.note_query_at_crashed();
        st.note_replica_at_crashed();
        assert_eq!(st.counters.queries_at_crashed, 1);
        assert_eq!(st.counters.replica_at_crashed, 1);
        assert_eq!(st.counters.dropped(), 0);
    }
}
