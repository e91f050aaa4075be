//! Adaptive control of update push (§2.8).
//!
//! A node's capacity for pushing updates varies with its workload. Under
//! limited capacity, outgoing updates wait in per-neighbor queues; at each
//! service opportunity the node divides its push budget among the
//! channels proportionally to their queue lengths ("this allocation
//! maintains the queues roughly equally sized"), re-orders queued updates
//! by impact (first-time, deletes, refreshes, appends; earlier expiry
//! first within a class), and eliminates expired updates. The queues are
//! therefore "bounded by the expiration times of the entries in the
//! queues": even a completely shut-off channel drains as entries expire.
//!
//! The queues also own the node's throttle. A cut below full capacity
//! throttles the node, and forwarded updates wait here from then on; the
//! first service that finds the fraction back at full drains the backlog
//! in one go and lifts the throttle.

use std::collections::BTreeMap;

use cup_des::{NodeId, SimTime};

use crate::message::Update;

/// Per-neighbor outgoing update queues with capacity-controlled service.
#[derive(Debug, Clone, Default)]
pub struct OutgoingQueues {
    queues: BTreeMap<NodeId, Vec<Update>>,
    /// Updates enqueued since the last service (basis for the budget).
    enqueued_since_service: u64,
    /// Fractional budget carried between services.
    carry: f64,
    /// The capacity fraction while the node is throttled (1 is full, 0
    /// pushes nothing); `None` at full capacity, unthrottled.
    throttle: Option<f64>,
}

impl OutgoingQueues {
    /// Creates empty queues at full capacity, unthrottled.
    pub fn new() -> Self {
        OutgoingQueues::default()
    }

    /// Sets the capacity fraction. A cut from full capacity to below it
    /// throttles the node and returns `true`: a service loop must start.
    /// Any other change returns `false` — a recovery to full capacity
    /// takes effect at the next service.
    pub fn set_capacity(&mut self, c: f64) -> bool {
        let cut = c < 1.0 && self.throttle.unwrap_or(1.0) >= 1.0;
        if cut || self.throttle.is_some() {
            self.throttle = Some(c);
        }
        cut
    }

    /// Whether forwarded updates wait here for a service.
    pub fn is_throttled(&self) -> bool {
        self.throttle.is_some()
    }

    /// Queues an update for one neighbor.
    pub fn enqueue(&mut self, to: NodeId, update: Update) {
        self.queues.entry(to).or_default().push(update);
        self.enqueued_since_service += 1;
    }

    /// Total queued updates across all channels.
    pub fn total_len(&self) -> usize {
        self.queues.values().map(Vec::len).sum()
    }

    /// Queue length for one neighbor.
    pub fn len_for(&self, to: NodeId) -> usize {
        self.queues.get(&to).map_or(0, Vec::len)
    }

    /// Removes expired updates from all queues, returning how many were
    /// dropped.
    pub fn drop_expired(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        for q in self.queues.values_mut() {
            let before = q.len();
            q.retain(|u| !u.is_expired(now));
            dropped += before - q.len();
        }
        self.queues.retain(|_, q| !q.is_empty());
        dropped
    }

    /// Removes every update queued toward `neighbor` (it departed).
    pub fn drop_neighbor(&mut self, neighbor: NodeId) -> usize {
        self.queues.remove(&neighbor).map_or(0, |q| q.len())
    }

    /// Removes updates for one key queued toward one neighbor (a
    /// clear-bit arrived while updates were still waiting).
    pub fn drop_matching(&mut self, neighbor: NodeId, key: cup_des::KeyId) -> usize {
        let Some(q) = self.queues.get_mut(&neighbor) else {
            return 0;
        };
        let before = q.len();
        q.retain(|u| u.key != key);
        let dropped = before - q.len();
        if q.is_empty() {
            self.queues.remove(&neighbor);
        }
        dropped
    }

    /// Services the queues at the capacity fraction `c` last set (1 when
    /// unthrottled): the node pushes out roughly `c` times the updates it
    /// enqueued since the last service, plus any fractional carry-over.
    /// Expired updates are eliminated first; the budget is split across
    /// channels proportionally to queue length; each channel sends its
    /// highest-impact updates first.
    ///
    /// Returns the `(neighbor, update)` pairs to transmit now.
    pub fn service(&mut self, now: SimTime) -> Vec<(NodeId, Update)> {
        self.drop_expired(now);
        let arrived = std::mem::take(&mut self.enqueued_since_service);
        let c = self.throttle.unwrap_or(1.0);
        if c >= 1.0 {
            // Full capacity: no limit — drain everything, including any
            // backlog accumulated while the node was degraded, and stop
            // throttling.
            self.carry = 0.0;
            self.throttle = None;
            let mut out = Vec::with_capacity(self.total_len());
            for (to, mut q) in std::mem::take(&mut self.queues) {
                q.sort_by_key(|u| (u.kind.priority(), u.window_end));
                out.extend(q.into_iter().map(|u| (to, u)));
            }
            return out;
        }
        let entitled = c.clamp(0.0, 1.0) * arrived as f64 + self.carry;
        let mut budget = entitled.floor() as usize;
        self.carry = entitled - entitled.floor();
        let total = self.total_len();
        if budget == 0 || total == 0 {
            // Cap the carry so a long-idle node cannot burst unboundedly.
            self.carry = self.carry.min(1.0);
            return Vec::new();
        }
        budget = budget.min(total);

        // Re-order every channel by impact: kind priority, then earliest
        // justification-window end (closest to expiring first).
        for q in self.queues.values_mut() {
            q.sort_by_key(|u| (u.kind.priority(), u.window_end));
        }

        // Proportional allocation, remainders to the longest queues — this
        // drains channels toward equal length as §2.8 prescribes.
        let mut out = Vec::with_capacity(budget);
        let mut shares: Vec<(NodeId, usize, usize)> = self
            .queues
            .iter()
            .map(|(&to, q)| {
                let share = budget * q.len() / total;
                (to, share.min(q.len()), q.len())
            })
            .collect();
        let mut allocated: usize = shares.iter().map(|&(_, s, _)| s).sum();
        // Distribute the remainder one update at a time to the channel
        // with the most still-queued updates.
        while allocated < budget {
            let Some(best) = shares
                .iter_mut()
                .filter(|(_, share, len)| share < len)
                .max_by_key(|&&mut (to, share, len)| (len - share, std::cmp::Reverse(to)))
            else {
                break;
            };
            best.1 += 1;
            allocated += 1;
        }
        for (to, share, _) in shares {
            if share == 0 {
                continue;
            }
            let q = self.queues.get_mut(&to).expect("share implies queue");
            for u in q.drain(..share) {
                out.push((to, u));
            }
        }
        self.queues.retain(|_, q| !q.is_empty());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::IndexEntry;
    use crate::message::UpdateKind;
    use cup_des::{KeyId, ReplicaId, SimDuration};

    fn update(kind: UpdateKind, window_secs: u64) -> Update {
        Update {
            key: KeyId(1),
            kind,
            entries: vec![IndexEntry::new(
                KeyId(1),
                ReplicaId(0),
                SimDuration::from_secs(window_secs),
                SimTime::ZERO,
            )],
            replica: ReplicaId(0),
            depth: 1,
            origin: SimTime::ZERO,
            window_end: SimTime::from_secs(window_secs),
        }
    }

    #[test]
    fn full_capacity_sends_everything() {
        let mut q = OutgoingQueues::new();
        for i in 0..5 {
            q.enqueue(NodeId(i % 2), update(UpdateKind::Refresh, 300));
        }
        let sent = q.service(SimTime::from_secs(1));
        assert_eq!(sent.len(), 5);
        assert_eq!(q.total_len(), 0);
    }

    #[test]
    fn zero_capacity_sends_nothing() {
        let mut q = OutgoingQueues::new();
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 300));
        q.set_capacity(0.0);
        let sent = q.service(SimTime::from_secs(1));
        assert!(sent.is_empty());
        assert_eq!(q.total_len(), 1, "update stays queued");
    }

    #[test]
    fn fractional_capacity_accumulates_carry() {
        let mut q = OutgoingQueues::new();
        // One update per service at c = 0.5: sends on every second call.
        q.set_capacity(0.5);
        let mut sent_total = 0;
        for round in 0..4 {
            q.enqueue(NodeId(0), update(UpdateKind::Refresh, 300));
            sent_total += q.service(SimTime::from_secs(round)).len();
        }
        assert_eq!(sent_total, 2, "half the enqueued updates were pushed");
    }

    #[test]
    fn expired_updates_are_eliminated() {
        let mut q = OutgoingQueues::new();
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 10));
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 1_000));
        let sent = q.service(SimTime::from_secs(100));
        assert_eq!(sent.len(), 1, "expired update dropped, fresh one sent");
        assert_eq!(sent[0].1.window_end, SimTime::from_secs(1_000));
    }

    #[test]
    fn reordering_prioritizes_kind_then_expiry() {
        let mut q = OutgoingQueues::new();
        q.enqueue(NodeId(0), update(UpdateKind::Append, 500));
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 900));
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 400));
        q.enqueue(NodeId(0), update(UpdateKind::Delete, 700));
        q.enqueue(NodeId(0), update(UpdateKind::FirstTime, 600));
        // Budget of 3 out of 5 queued.
        q.enqueued_since_service = 5;
        q.set_capacity(0.6);
        let sent = q.service(SimTime::from_secs(1));
        let kinds: Vec<UpdateKind> = sent.iter().map(|(_, u)| u.kind).collect();
        assert_eq!(
            kinds,
            vec![
                UpdateKind::FirstTime,
                UpdateKind::Delete,
                UpdateKind::Refresh
            ]
        );
        // The refresh sent is the one closest to expiring.
        assert_eq!(sent[2].1.window_end, SimTime::from_secs(400));
    }

    #[test]
    fn budget_split_proportionally_to_queue_length() {
        let mut q = OutgoingQueues::new();
        for _ in 0..8 {
            q.enqueue(NodeId(0), update(UpdateKind::Refresh, 300));
        }
        for _ in 0..2 {
            q.enqueue(NodeId(1), update(UpdateKind::Refresh, 300));
        }
        // Budget = 5 of 10: channel 0 (80% of queue) should get 4.
        q.set_capacity(0.5);
        let sent = q.service(SimTime::from_secs(1));
        let to0 = sent.iter().filter(|(to, _)| *to == NodeId(0)).count();
        let to1 = sent.iter().filter(|(to, _)| *to == NodeId(1)).count();
        assert_eq!(to0 + to1, 5);
        assert_eq!(to0, 4);
        assert_eq!(to1, 1);
    }

    #[test]
    fn drop_neighbor_clears_channel() {
        let mut q = OutgoingQueues::new();
        q.enqueue(NodeId(0), update(UpdateKind::Refresh, 300));
        q.enqueue(NodeId(1), update(UpdateKind::Refresh, 300));
        assert_eq!(q.drop_neighbor(NodeId(0)), 1);
        assert_eq!(q.total_len(), 1);
        assert_eq!(q.len_for(NodeId(0)), 0);
    }

    #[test]
    fn queues_bounded_by_expiration() {
        // Even with zero capacity forever, the queue empties as entries
        // expire (§2.8).
        let mut q = OutgoingQueues::new();
        q.set_capacity(0.0);
        for w in [10u64, 20, 30] {
            q.enqueue(NodeId(0), update(UpdateKind::Refresh, w));
        }
        assert!(q.service(SimTime::from_secs(5)).is_empty());
        assert_eq!(q.total_len(), 3);
        assert!(q.service(SimTime::from_secs(25)).is_empty());
        assert_eq!(q.total_len(), 1);
        assert!(q.service(SimTime::from_secs(35)).is_empty());
        assert_eq!(q.total_len(), 0);
    }
}
