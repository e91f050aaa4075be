//! The per-key memory gate.
//!
//! CUP's scaling argument is that what a node keeps per cached key is
//! tiny, and ten thousand nodes times a hundred keys is where the
//! runtimes' memory goes. This test holds the layout to it with a
//! counting allocator: a node that caches 128 single-replica keys
//! through the protocol's own path owns at most 300 live heap bytes per
//! key, and a repeat pass of hits and refreshes over them allocates
//! nothing but the answer payloads (`Action::RespondClient` owns a
//! `Vec<IndexEntry>`). At the ledger's own sizes (256 and 160 keys,
//! counting the node's struct as `core.node_bytes_per_key` does) the
//! bytes per key are pinned at their measured readings, so a
//! fatter record or key index fails here and not only in the CI ledger.
//!
//! The other tests hold the per-hop path to the same standard. A
//! node's fixed bytes stay at most 376 (its two histograms allocate on
//! first use). A handler that passes an update on moves the payload into
//! the last recipient and clones it for the others, so a relay through a
//! fan-out-1 node allocates nothing, fan-out 4 exactly three copies, a
//! response relayed to one waiting neighbor nothing and one answered to
//! a waiting client exactly its payload. And the justification tracker,
//! which sees every update and every query path, allocates nothing once
//! its slots exist.
//!
//! The allocator is the process's but the counters are thread-local and
//! the harness runs each test on a thread of its own, so the tests do
//! not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cup_core::{
    Action, ClientId, CupNode, IndexEntry, JustificationTracker, Message, NodeConfig, Requester,
    Update, UpdateKind,
};
use cup_des::{KeyId, NodeId, ReplicaId, SimDuration, SimTime};

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: i64) {
    // A thread being torn down has no counters left; its frees are not
    // this test's.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches
// only destructor-free thread-locals, so it cannot allocate, unwind or
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are the caller's, passed through
        // unchanged; `ptr` came from `System` via `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: u32 = 128;
const LIFE: SimDuration = SimDuration::from_secs(300);
const UPSTREAM: NodeId = NodeId(9);

fn update(key: u32, kind: UpdateKind, at: SimTime) -> Update {
    let entry = IndexEntry::new(KeyId(key), ReplicaId(0), LIFE, at);
    Update {
        key: KeyId(key),
        kind,
        entries: vec![entry],
        replica: ReplicaId(0),
        depth: 3,
        origin: at,
        window_end: entry.expires_at(),
    }
}

#[test]
fn a_cached_key_costs_at_most_300_heap_bytes_and_steady_traffic_allocates_only_payloads() {
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let t0 = SimTime::from_secs(1);
    let t1 = SimTime::from_secs(2);
    // What the allocation-counted pass consumes is built beforehand.
    let refreshes: Vec<Update> = (0..KEYS)
        .map(|k| update(k, UpdateKind::Refresh, t1))
        .collect();
    let client = |k: u32| Requester::Client(ClientId(u64::from(k)));

    let live_before = LIVE_BYTES.get();
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    // The protocol's own path: a miss, then its first-time update
    // (built and dropped inside the measured stretch, so net zero).
    for k in 0..KEYS {
        node.handle_query_into(t0, KeyId(k), client(k), Some(UPSTREAM), &mut out);
        out.clear();
    }
    for k in 0..KEYS {
        let u = update(k, UpdateKind::FirstTime, t0);
        node.handle_update_into(t0, UPSTREAM, u, &mut out);
        assert!(matches!(out[..], [Action::RespondClient { .. }]));
        out.clear();
    }
    let per_key = (LIVE_BYTES.get() - live_before) / i64::from(KEYS);
    assert!(
        (1..=300).contains(&per_key),
        "{per_key} live heap bytes per cached key"
    );

    // Hits: one answer each, and the answer's entries are the only
    // allocation.
    let allocs_before = ALLOCS.get();
    for k in 0..KEYS {
        node.handle_query_into(t1, KeyId(k), client(k), Some(UPSTREAM), &mut out);
        assert!(matches!(out[..], [Action::RespondClient { .. }]));
        out.clear();
    }
    assert_eq!(
        ALLOCS.get() - allocs_before,
        u64::from(KEYS),
        "a hit allocates its answer's payload and nothing else"
    );

    // Refreshes of keys nobody downstream subscribed to: applied in
    // place (the hits above keep every key popular), nothing to build.
    let allocs_before = ALLOCS.get();
    for u in refreshes {
        node.handle_update_into(t1, UPSTREAM, u, &mut out);
        assert!(out.is_empty(), "kept and applied, nothing forwarded");
    }
    assert_eq!(
        ALLOCS.get() - allocs_before,
        0,
        "a refresh allocates nothing"
    );
    assert_eq!(node.stats.client_hits, u64::from(KEYS));
    assert_eq!(node.stats.cutoffs, 0);
}

/// Bytes per key of a node that cached `keys` keys through a client miss
/// and its first-time update each, counting the node's live heap and its
/// own struct — what the ledger's `core.node_bytes_per_key` row measures
/// (its nodes sit in a `Vec`).
fn bytes_per_cached_key(keys: u32) -> f64 {
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let t0 = SimTime::from_secs(1);
    let live_before = LIVE_BYTES.get();
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    for k in 0..keys {
        let client = Requester::Client(ClientId(u64::from(k)));
        node.handle_query_into(t0, KeyId(k), client, Some(UPSTREAM), &mut out);
        out.clear();
    }
    // Each answer is built and dropped inside the measured stretch.
    for k in 0..keys {
        let u = update(k, UpdateKind::FirstTime, t0);
        node.handle_update_into(t0, UPSTREAM, u, &mut out);
        out.clear();
    }
    let held = LIVE_BYTES.get() - live_before + std::mem::size_of_val(&node) as i64;
    held as f64 / f64::from(keys)
}

/// `core.node_bytes_per_key`. The record array grows by a quarter and
/// the key index by doubling: 160 keys sit in 175 records, 256 keys in
/// 272. A 128-byte record reads 145.47 B a key at 256 keys and 155.15 B
/// at 160. BENCH_28.json's 136-byte record read 154.59 B and 164.9 B;
/// the 128-byte record saved 8 bytes on each of 272 and 175 records,
/// less the 16 bytes the node's §2.8 throttle added to its struct, and
/// one cut-off policy per node in place of an 8-class table took 176
/// bytes off the struct. The 256-key pin once moved *up*, from
/// 154.125 B, when the array stopped doubling: doubling filled it
/// exactly at a power of two, which a quarter step does not.
#[test]
fn a_cached_key_costs_what_the_ledger_reads() {
    for (keys, ledger) in [(256, 145.5), (160, 155.2)] {
        let per_key = bytes_per_cached_key(keys);
        assert!(
            per_key <= ledger,
            "{keys} keys: {per_key} bytes per key, the ledger reads {ledger}"
        );
    }
}

#[test]
fn a_node_is_at_most_376_bytes_before_it_caches_anything() {
    let size = std::mem::size_of::<CupNode>();
    assert!(size <= 376, "CupNode is {size} bytes");
    // And owns nothing on the heap yet: ten thousand idle nodes are ten
    // thousand times the number above.
    let live_before = LIVE_BYTES.get();
    let node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    assert_eq!(LIVE_BYTES.get() - live_before, 0, "an idle node's heap");
    assert_eq!(node.stats.pfu_retry_age.count(), 0);
}

/// A node caching `KEYS` keys, each with `fan_out` subscribed neighbors
/// (ids 100…), through the protocol's own path: their misses, then the
/// first-time update that answers them.
fn relay_node(fan_out: u32, out: &mut Vec<Action>) -> CupNode {
    let t0 = SimTime::from_secs(1);
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    for k in 0..KEYS {
        for n in 0..fan_out {
            let from = Requester::Neighbor(NodeId(100 + n));
            node.handle_query_into(t0, KeyId(k), from, Some(UPSTREAM), out);
        }
        out.clear();
        node.handle_update_into(t0, UPSTREAM, update(k, UpdateKind::FirstTime, t0), out);
        assert_eq!(out.len(), fan_out as usize, "one answer per neighbor");
        out.clear();
    }
    node
}

#[test]
fn a_forwarded_refresh_allocates_one_payload_per_recipient_but_the_last() {
    for fan_out in [1u32, 4] {
        let mut out: Vec<Action> = Vec::with_capacity(8);
        let mut node = relay_node(fan_out, &mut out);
        let t1 = SimTime::from_secs(2);
        let refreshes: Vec<Update> = (0..KEYS)
            .map(|k| update(k, UpdateKind::Refresh, t1))
            .collect();
        let allocs_before = ALLOCS.get();
        for u in refreshes {
            node.handle_update_into(t1, UPSTREAM, u, &mut out);
            assert_eq!(out.len(), fan_out as usize);
            // Dropping the copies frees; it never allocates.
            out.clear();
        }
        assert_eq!(
            ALLOCS.get() - allocs_before,
            u64::from(KEYS * (fan_out - 1)),
            "fan-out {fan_out}: the received payload moves into the last copy"
        );
        assert_eq!(
            node.stats.updates_forwarded,
            2 * u64::from(KEYS * fan_out),
            "answers and refreshes were all sent"
        );
    }
}

#[test]
fn a_first_time_update_moves_to_a_waiting_neighbor_and_builds_one_answer_for_a_client() {
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let t0 = SimTime::from_secs(1);
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    // Even keys are awaited by a neighbor, odd keys by a client.
    let waiter = |k: u32| match k % 2 {
        0 => Requester::Neighbor(NodeId(100)),
        _ => Requester::Client(ClientId(u64::from(k))),
    };
    for k in 0..KEYS {
        node.handle_query_into(t0, KeyId(k), waiter(k), Some(UPSTREAM), &mut out);
        out.clear();
    }
    let answers: Vec<Update> = (0..KEYS)
        .map(|k| update(k, UpdateKind::FirstTime, t0))
        .collect();
    for (k, u) in (0..KEYS).zip(answers) {
        let payload = u.entries.as_ptr();
        let allocs_before = ALLOCS.get();
        node.handle_update_into(t0, UPSTREAM, u, &mut out);
        let allocs = ALLOCS.get() - allocs_before;
        match &out[..] {
            [Action::Send {
                msg: Message::Update(relayed),
                ..
            }] => {
                assert_eq!(allocs, 0, "key {k}: relayed to one neighbor");
                assert_eq!(relayed.entries.as_ptr(), payload, "the very same block");
                assert_eq!(relayed.depth, 4, "one hop further down");
            }
            [Action::RespondClient { entries, .. }] => {
                assert_eq!(allocs, 1, "key {k}: the client's answer and nothing else");
                assert_eq!(entries.len(), 1);
            }
            other => panic!("key {k}: unexpected actions {other:?}"),
        }
        out.clear();
    }
}

#[test]
fn tracker_cycles_over_existing_slots_allocate_nothing() {
    const PATH: u32 = 8;
    let mut tracker = JustificationTracker::new();
    let paths: Vec<[NodeId; PATH as usize]> = (0..KEYS)
        .map(|k| std::array::from_fn(|i| NodeId(k * PATH + i as u32)))
        .collect();
    // One cycle: every path node of every key gets a refresh (a window
    // opens), then a query walks the path (and settles all eight).
    let mut now = SimTime::from_secs(1);
    let mut cycle = |tracker: &mut JustificationTracker| {
        now += SimDuration::from_secs(1);
        for (k, path) in (0..KEYS).zip(&paths) {
            for &node in path {
                tracker.on_update_delivered(node, KeyId(k), now, now + LIFE);
            }
        }
        for (k, path) in (0..KEYS).zip(&paths) {
            tracker.on_query(KeyId(k), now, path);
        }
    };
    // Warm-up: the table grows to its working size.
    cycle(&mut tracker);
    cycle(&mut tracker);
    let allocs_before = ALLOCS.get();
    for _ in 0..10 {
        cycle(&mut tracker);
    }
    assert_eq!(
        ALLOCS.get() - allocs_before,
        0,
        "10 240 updates and 1 280 path walks over slots that exist"
    );
    let delivered = 12 * u64::from(KEYS * PATH);
    assert_eq!(
        (tracker.justified(), tracker.total()),
        (delivered, delivered)
    );
    assert_eq!(tracker.held_slots(), 0, "a settled slot is given back");
}
