//! Micro-benchmarks of the building blocks: overlay routing, protocol
//! handlers, capacity queues, and the event queue.

use criterion::{criterion_group, criterion_main, Criterion};

use cup_core::capacity::OutgoingQueues;
use cup_core::message::ClientId;
use cup_core::{CupNode, IndexEntry, NodeConfig, Requester, Update, UpdateKind};
use cup_des::{DetRng, EventQueue, KeyId, NodeId, ReplicaId, SimDuration, SimTime};
use cup_overlay::{can::CanOverlay, chord::ChordOverlay, Overlay};

fn bench_routing(c: &mut Criterion) {
    let mut rng = DetRng::seed_from(1);
    let can = CanOverlay::build(1_024, &mut rng).unwrap();
    let chord = ChordOverlay::build(1_024).unwrap();
    let mut group = c.benchmark_group("routing");
    group.bench_function("can_route_1024", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = k.wrapping_add(1);
            can.route(NodeId(3), KeyId(k % 512)).unwrap().len()
        })
    });
    group.bench_function("chord_route_1024", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = k.wrapping_add(1);
            chord.route(NodeId(3), KeyId(k % 512)).unwrap().len()
        })
    });
    group.finish();
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    group.bench_function("query_fresh_hit", |b| {
        let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
        let entry = IndexEntry::new(
            KeyId(1),
            ReplicaId(0),
            SimDuration::from_secs(1_000_000),
            SimTime::ZERO,
        );
        let mut out = Vec::new();
        node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Client(ClientId(0)),
            Some(NodeId(9)),
            &mut out,
        );
        node.handle_update_into(
            SimTime::from_secs(1),
            NodeId(9),
            Update {
                key: KeyId(1),
                kind: UpdateKind::FirstTime,
                entries: vec![entry],
                replica: ReplicaId(0),
                depth: 1,
                origin: SimTime::ZERO,
                window_end: SimTime::MAX,
            },
            &mut out,
        );
        let mut t = 2u64;
        b.iter(|| {
            t += 1;
            out.clear();
            node.handle_query_into(
                SimTime::from_secs(t),
                KeyId(1),
                Requester::Client(ClientId(t)),
                Some(NodeId(9)),
                &mut out,
            );
            out.len()
        })
    });
    group.bench_function("refresh_apply_and_forward", |b| {
        let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
        let mut out = Vec::new();
        node.handle_query_into(
            SimTime::ZERO,
            KeyId(1),
            Requester::Neighbor(NodeId(4)),
            Some(NodeId(9)),
            &mut out,
        );
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let entry = IndexEntry::new(
                KeyId(1),
                ReplicaId(0),
                SimDuration::from_secs(300),
                SimTime::from_secs(t),
            );
            out.clear();
            node.handle_update_into(
                SimTime::from_secs(t),
                NodeId(9),
                Update {
                    key: KeyId(1),
                    kind: UpdateKind::Refresh,
                    entries: vec![entry],
                    replica: ReplicaId(0),
                    depth: 1,
                    origin: SimTime::from_secs(t),
                    window_end: entry.expires_at(),
                },
                &mut out,
            );
            out.len()
        })
    });
    group.finish();
}

fn bench_capacity_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("capacity_queue");
    group.bench_function("enqueue_service_100", |b| {
        b.iter(|| {
            let mut q = OutgoingQueues::new();
            for i in 0..100u32 {
                let entry = IndexEntry::new(
                    KeyId(1),
                    ReplicaId(i),
                    SimDuration::from_secs(300),
                    SimTime::ZERO,
                );
                q.enqueue(
                    NodeId(i % 8),
                    Update {
                        key: KeyId(1),
                        kind: UpdateKind::Refresh,
                        entries: vec![entry],
                        replica: ReplicaId(i),
                        depth: 1,
                        origin: SimTime::ZERO,
                        window_end: entry.expires_at(),
                    },
                );
            }
            q.service(SimTime::from_secs(1), 0.5).len()
        })
    });
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.bench_function("schedule_pop_10k", |b| {
        let mut rng = DetRng::seed_from(3);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_micros(rng.next_below(1_000_000)), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_routing,
    bench_protocol,
    bench_capacity_queue,
    bench_event_queue
);
criterion_main!(benches);
