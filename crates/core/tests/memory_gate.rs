//! The per-key memory gate.
//!
//! CUP's scaling argument is that what a node keeps per cached key is
//! tiny, and ten thousand nodes times a hundred keys is where the
//! runtimes' memory goes. This test holds the layout to it with a
//! counting allocator: a node that caches 128 single-replica keys
//! through the protocol's own path owns at most 300 live heap bytes per
//! key, and a repeat pass of hits and refreshes over them allocates
//! nothing but the answer payloads (`Action::RespondClient` owns a
//! `Vec<IndexEntry>`). One test per binary: the counters are
//! thread-local, but the allocator is the process's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cup_core::{Action, ClientId, CupNode, IndexEntry, NodeConfig, Requester, Update, UpdateKind};
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
