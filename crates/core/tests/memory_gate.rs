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
//! The key table's own count of its bytes (`CupNode::key_table_bytes`)
//! is held to the allocator's, to the byte, and a record that holds a
//! dead replica's expired entry beside a live one's owns no heap byte
//! once the live replica's next refresh has dropped the dead entry.
//!
//! The other tests hold the per-hop path to the same standard. A
//! node's fixed bytes stay at most 352 (its two histograms allocate on
//! first use). A handler that passes an update on moves the payload into
//! the last recipient and clones it for the others, so a relay through a
//! fan-out-1 node allocates nothing, fan-out 4 exactly three copies, a
//! response relayed to one waiting neighbor nothing and one answered to
//! a waiting client exactly its payload. And the justification tracker,
//! which sees every update and every query path, allocates nothing once
//! its slots exist, and its count of its own bytes is the allocator's
//! (as is a per-node histogram's, spread over twelve buckets).
//!
//! The allocator is the process's but the counters are thread-local and
//! the harness runs each test on a thread of its own, so the tests do
//! not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cup_core::keystate::KeyState;
use cup_core::{
    Action, AuditConfig, ClientId, CupNode, IndexEntry, JustificationTracker, LazyHist, Message,
    NodeConfig, Requester, Update, UpdateKind,
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

// The per-key record and the entry it caches, pinned at compile time: a
// record is seven eighths of a cache line, at an alignment the allocator gives
// without an aligned allocation (see `cup_core::keystate`), and an entry
// keeps its expiry instant, not a lifetime and a stamp.
const _: () = assert!(std::mem::size_of::<KeyState>() == 56);
const _: () = assert!(std::mem::align_of::<KeyState>() <= 16);
const _: () = assert!(std::mem::size_of::<IndexEntry>() == 16);
// A node's two histograms are a pointer each until they are sampled.
const _: () = assert!(std::mem::size_of::<LazyHist>() == 8);

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

/// A node that cached `keys` keys through a client miss and its
/// first-time update each, and the live heap bytes it holds.
fn cached_node(keys: u32) -> (CupNode, i64) {
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
    let live = LIVE_BYTES.get() - live_before;
    (node, live)
}

/// Bytes per key of [`cached_node`], counting the node's live heap and
/// its own struct — what the ledger's `core.node_bytes_per_key` row
/// measures (its nodes sit in a `Vec`).
fn bytes_per_cached_key(keys: u32) -> f64 {
    let (node, live) = cached_node(keys);
    let held = live + std::mem::size_of_val(&node) as i64;
    held as f64 / f64::from(keys)
}

/// `core.node_bytes_per_key`. The record array grows by a quarter and
/// the key index by doubling once it would pass ¾ full: 160 keys sit in
/// 175 records behind a 256-word index (1,024 B), 256 keys in 272 behind
/// a 512-word one (2,048 B), plus the node's 352-byte struct. A 56-byte
/// record reads 68.875 B a key at 256 keys and 69.85 B at 160: three
/// interested neighbors in place and a 12-byte popularity measure took 8
/// bytes off each of 272 and 175 records, and the ¾ index rule halved
/// the 160-key node's index (77.375 B and 85.0 B before). A 64-byte
/// record read that: one cache line, with the key in the entry slot and
/// everything rare in one side box, took 32 bytes off each of 272 and
/// 175 records (111.375 B and 120.0 B before). A 96-byte record read that: the
/// 16-byte entry and the tombstones' move into the audit's box took 24
/// bytes off each record (136.875 B and 146.25 B before).
/// BENCH_28.json's 136-byte record read 154.59 B and 164.9 B;
/// the 128-byte record saved 8 bytes on each of 272 and 175 records,
/// less the 16 bytes the node's §2.8 throttle added to its struct, one
/// cut-off policy per node in place of an 8-class table took 176 bytes
/// off the struct, and the PFU timeout's move from the config to a
/// constant 8 more. Stateless cut-off policies took 8 bytes off each
/// record (145.44 B and 155.1 B before), and the audit's sample size
/// and quorum as constants 8 bytes off the struct (136.91 B and 146.3 B
/// before). The 256-key pin once moved
/// *up*, from 154.125 B, when the array stopped doubling: doubling
/// filled it exactly at a power of two, which a quarter step does not.
#[test]
fn a_cached_key_costs_what_the_ledger_reads() {
    for (keys, ledger) in [(256, 68.875), (160, 69.85)] {
        let per_key = bytes_per_cached_key(keys);
        assert!(
            per_key <= ledger,
            "{keys} keys: {per_key} bytes per key, the ledger reads {ledger}"
        );
    }
}

/// The key table's count of its own bytes is the allocator's count: for
/// the ledger's two nodes, and for one that holds every rare thing a
/// record can — a pending miss whose waiters spilled, a two-entry key, a
/// six-neighbor interest set, and audit state with spilled tombstones.
#[test]
fn the_key_table_counts_the_bytes_the_allocator_does() {
    for keys in [160, 256] {
        let (node, live) = cached_node(keys);
        assert_eq!(node.key_table_bytes() as i64, live, "{keys} keys");
    }

    let audit = AuditConfig::sampled(SimDuration::from_secs(60), 16, 1);
    let mut out: Vec<Action> = Vec::with_capacity(64);
    let (t0, t1) = (SimTime::from_secs(1), SimTime::from_secs(100));
    let answer = |key: u32, replicas: u32| {
        let mut u = update(key, UpdateKind::FirstTime, t0);
        u.entries = (0..replicas)
            .map(|r| IndexEntry::new(KeyId(key), ReplicaId(r), LIFE, t0))
            .collect();
        u
    };
    let client = |k: u32| Requester::Client(ClientId(u64::from(k)));
    let live_before = LIVE_BYTES.get();
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default().with_audit(audit));
    // Key 0: a miss still pending.
    node.handle_query_into(t0, KeyId(0), client(0), Some(UPSTREAM), &mut out);
    // Key 1: two cached entries.
    node.handle_query_into(t0, KeyId(1), client(1), Some(UPSTREAM), &mut out);
    node.handle_update_into(t0, UPSTREAM, answer(1, 2), &mut out);
    // Key 2: six interested neighbors, all still waiting.
    for n in 0..6 {
        let from = Requester::Neighbor(NodeId(100 + n));
        node.handle_query_into(t0, KeyId(2), from, Some(UPSTREAM), &mut out);
    }
    // Key 3: a hit opens an audit round, and four deletes leave four
    // tombstones.
    node.handle_query_into(t0, KeyId(3), client(3), Some(UPSTREAM), &mut out);
    node.handle_update_into(t0, UPSTREAM, answer(3, 5), &mut out);
    node.handle_query_into(t1, KeyId(3), client(3), Some(UPSTREAM), &mut out);
    assert_eq!(node.stats.audits_started, 1);
    for r in 0..4 {
        let mut delete = update(3, UpdateKind::Delete, t1);
        delete.entries[0] = IndexEntry::new(KeyId(3), ReplicaId(r), LIFE, t1);
        node.handle_update_into(t1, UPSTREAM, delete, &mut out);
    }
    out.clear();
    let st = |k: u32| node.key_state(KeyId(k)).expect("seen");
    assert!(st(0).pending_since().is_some());
    assert_eq!(st(1).entries().len(), 2);
    assert_eq!(st(2).interest().len(), 6);
    assert_eq!(st(3).retired().len(), 4);
    assert_eq!(
        node.key_table_bytes() as i64,
        LIVE_BYTES.get() - live_before
    );
}

/// Delete tombstones are the sampled audit's and nobody else's: a node
/// without the audit drops a deleted replica and remembers nothing of
/// it, where an auditing node keeps the tombstone.
#[test]
fn an_audit_off_node_keeps_no_tombstones() {
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let t0 = SimTime::from_secs(1);
    let t1 = SimTime::from_secs(2);
    let audit = AuditConfig::sampled(SimDuration::from_secs(60), 16, 1);
    for config in [
        NodeConfig::cup_default(),
        NodeConfig::cup_default().with_audit(audit),
    ] {
        let auditing = config.audit.is_some();
        let mut node = CupNode::new(NodeId(1), config);
        for k in 0..KEYS {
            let client = Requester::Client(ClientId(u64::from(k)));
            node.handle_query_into(t0, KeyId(k), client, Some(UPSTREAM), &mut out);
            let u = update(k, UpdateKind::FirstTime, t0);
            node.handle_update_into(t0, UPSTREAM, u, &mut out);
            // A hit keeps the key popular, so the delete is applied.
            node.handle_query_into(t1, KeyId(k), client, Some(UPSTREAM), &mut out);
            out.clear();
        }
        let deletes: Vec<Update> = (0..KEYS)
            .map(|k| update(k, UpdateKind::Delete, t1))
            .collect();
        let allocs_before = ALLOCS.get();
        for u in deletes {
            node.handle_update_into(t1, UPSTREAM, u, &mut out);
            assert!(out.is_empty(), "applied, nothing forwarded");
        }
        let allocs = ALLOCS.get() - allocs_before;
        for k in 0..KEYS {
            let st = node.key_state(KeyId(k)).expect("cached");
            assert!(st.entries().is_empty(), "key {k}: the replica is gone");
            let expected: &[ReplicaId] = if auditing { &[ReplicaId(0)] } else { &[] };
            assert_eq!(st.retired(), expected, "key {k}, audit {auditing}");
        }
        if !auditing {
            assert_eq!(allocs, 0, "an audit-off delete allocates nothing");
        }
    }
}

/// An entry lives only as long as its lifetime: a record that holds a
/// dead replica's expired entry (its delete never came here) beside a
/// live replica's keeps both in a side box, and the live replica's next
/// refresh drops the dead entry, moves the list back in place and gives
/// the box back: the record owns no heap byte after it.
#[test]
fn an_expired_entry_leaves_with_the_next_refresh_and_takes_its_box() {
    let (t0, t1) = (SimTime::from_secs(1), SimTime::from_secs(100));
    // Built beforehand, so only the record's own bytes are counted.
    let mut answer = update(1, UpdateKind::FirstTime, t0);
    let dead = IndexEntry::new(KeyId(1), ReplicaId(7), SimDuration::from_secs(10), t0);
    answer.entries.insert(0, dead);
    let refresh = update(1, UpdateKind::Refresh, t1);
    let live_before = LIVE_BYTES.get();
    let mut st = KeyState::new(KeyId(1));
    st.apply(&answer, t0, false);
    assert_eq!(st.entries().len(), 2);
    assert!(
        LIVE_BYTES.get() - live_before > 0,
        "two entries spill to a side box"
    );
    // Replica 7's entry expired at 11 s.
    st.apply(&refresh, t1, false);
    assert_eq!(st.entries(), refresh.entries.as_slice());
    assert_eq!(LIVE_BYTES.get() - live_before, 0, "the side box is gone");
    assert!(!st.never_cached());
}

#[test]
fn a_node_is_at_most_352_bytes_before_it_caches_anything() {
    let size = std::mem::size_of::<CupNode>();
    assert!(size <= 352, "CupNode is {size} bytes");
    // And owns nothing on the heap yet: ten thousand idle nodes are ten
    // thousand times the number above.
    let live_before = LIVE_BYTES.get();
    let node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    assert_eq!(LIVE_BYTES.get() - live_before, 0, "an idle node's heap");
    assert_eq!(node.stats.pfu_retry_age.count(), 0);
}

/// A Pending-First-Update retry records the stranded record's age, and
/// a node whose answers keep getting lost retries at ages 31, 62 and
/// 93 s: seven adjacent buckets, which the histogram's one block holds.
/// A whole boxed `Hist` was 1,032 bytes of it.
#[test]
fn a_node_that_retried_three_times_owns_one_small_histogram_block() {
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let client = Requester::Client(ClientId(1));
    let live_before = LIVE_BYTES.get();
    let mut node = CupNode::new(NodeId(1), NodeConfig::cup_default());
    let mut at = SimTime::ZERO;
    for age in [0, 31, 62, 93] {
        at += SimDuration::from_secs(age);
        node.handle_query_into(at, KeyId(0), client, Some(UPSTREAM), &mut out);
        assert_eq!(out.len(), 1, "age {age} s: the query goes upstream");
        out.clear();
    }
    assert_eq!(node.stats.pfu_retries, 3);
    let ages = node.stats.pfu_retry_age.to_hist();
    assert_eq!(
        (ages.quantile(1), ages.quantile(1000)),
        (29_360_128, 83_886_080)
    );
    let histograms = LIVE_BYTES.get() - live_before - node.key_table_bytes() as i64;
    assert_eq!(histograms, node.stats.heap_bytes() as i64);
    assert!(histograms <= 96, "{histograms} heap bytes of histogram");
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
    for fan_out in [1u32, 4, 6] {
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

/// The tracker's count of its own bytes is the allocator's, through a
/// stream that takes its tables through every reallocation and every
/// form a slot has: 3,000 slots, of which every fifth spills with a
/// second and third window and every seventh with a window too long to
/// keep in place; a late mark that settles the first windows, so most
/// spilled slots move back in place; a prune that sweeps the closed
/// slots out and shrinks the table; and queries that settle the rest,
/// which leaves the table's buckets behind as tombstones.
#[test]
fn the_tracker_counts_the_bytes_the_allocator_does() {
    const SLOTS: u32 = 3_000;
    let path: Vec<NodeId> = (0..2 * SLOTS).map(NodeId).collect();
    let live_before = LIVE_BYTES.get();
    let mut tracker = JustificationTracker::new();
    let check = |tracker: &JustificationTracker, when: &str| {
        let live = LIVE_BYTES.get() - live_before;
        assert_eq!(tracker.heap_bytes() as i64, live, "{when}");
    };
    let at = SimTime::from_secs;
    let longest = SimDuration::from_micros(u64::from(u32::MAX));
    let (early, late) = (at(1), SimTime::from_millis(1_500));
    for n in 0..SLOTS {
        tracker.on_update_delivered(NodeId(n), KeyId(0), early, at(10));
        if n % 5 == 0 {
            tracker.on_update_delivered(NodeId(n), KeyId(0), late, at(11));
            tracker.on_update_delivered(NodeId(n), KeyId(0), late, at(12));
        }
        if n % 7 == 0 {
            let too_long = late + longest + SimDuration::from_secs(1);
            tracker.on_update_delivered(NodeId(n), KeyId(0), late, too_long);
        }
    }
    assert_eq!(tracker.held_slots(), SLOTS as usize);
    check(&tracker, "spilled");

    tracker.on_query(KeyId(0), early, &path);
    assert_eq!(tracker.justified(), u64::from(SLOTS));
    check(&tracker, "moved back in place");

    // Long after those windows closed, new slots whose windows each shut
    // a millisecond later double the table, and the prune leaves only the
    // long windows and the one just opened.
    for n in 0..2 * SLOTS {
        let (held, now) = (
            tracker.held_slots(),
            at(100) + SimDuration::from_millis(n.into()),
        );
        tracker.on_update_delivered(NodeId(n), KeyId(1), now, now + SimDuration::from_millis(1));
        if tracker.held_slots() < held {
            break;
        }
    }
    assert_eq!(tracker.held_slots(), 429 + 1);
    check(&tracker, "pruned and shrunk");

    let settle = late + longest;
    tracker.on_query(KeyId(0), settle, &path);
    tracker.on_query(KeyId(1), settle, &path);
    assert_eq!(tracker.held_slots(), 0);
    check(&tracker, "settled");
}

/// A table that fills to its last free bucket and then empties keeps
/// its buckets, whatever `capacity()` reads after the removals (their
/// tombstones take 129,421 off it here, so a count derived from it would
/// read half the buckets): the tracker follows its bucket count, and
/// counts the bytes the allocator does.
#[test]
fn a_tracker_emptied_from_full_still_counts_its_buckets() {
    // 10,000 nodes by 23 keys, less 624: the 229,376 slots fill 262,144
    // buckets to the seven eighths they hold.
    const NODES: u32 = 10_000;
    const SLOTS: u32 = 229_376;
    let path: Vec<NodeId> = (0..NODES).map(NodeId).collect();
    let live_before = LIVE_BYTES.get();
    let mut tracker = JustificationTracker::new();
    let now = SimTime::from_secs(1);
    for s in 0..SLOTS {
        tracker.on_update_delivered(NodeId(s % NODES), KeyId(s / NODES), now, now + LIFE);
    }
    let full = tracker.heap_bytes();
    assert_eq!(full, 262_144 * 33 + 16);
    for key in 0..20 {
        tracker.on_query(KeyId(key), now, &path);
    }
    assert_eq!(tracker.held_slots(), 29_376);
    assert_eq!(tracker.heap_bytes(), full, "no bucket was given back");
    assert_eq!(tracker.heap_bytes() as i64, LIVE_BYTES.get() - live_before);
}

/// A histogram whose samples spread over twelve buckets keeps them in a
/// block of exactly twelve beside its eight-bucket one: 168 heap bytes,
/// where a whole `Hist` beside the block was 1,104.
#[test]
fn a_histogram_spread_over_twelve_buckets_owns_twelve_more() {
    let live_before = LIVE_BYTES.get();
    let mut hist = LazyHist::default();
    // Buckets 76, 82 and 87: the first two fit the block, the third
    // spreads the samples over twelve.
    for v in [1 << 20, 3 << 20, 7 << 20] {
        hist.record(v);
    }
    let live = LIVE_BYTES.get() - live_before;
    assert_eq!(live, hist.heap_bytes() as i64);
    assert_eq!(live, 72 + 12 * 8);
    let read = hist.to_hist();
    assert_eq!(
        (read.count(), read.quantile(1), read.quantile(1000)),
        (3, 1 << 20, 7 << 20)
    );
}
