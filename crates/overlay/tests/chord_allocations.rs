//! What a Chord overlay holds on the heap, counted by the allocator.
//!
//! A node's fingers are its distinct finger-table entries, built in one
//! scratch list reused across nodes and boxed once, so a built ring owns
//! one heap block per live node plus its node table and its sorted ring,
//! and about a hundred bytes a node in all.
//! A ledger run builds its overlay once per repeat, so a block more per
//! node would show in every allocation row.
//!
//! The allocator is the process's but the counters are thread-local and
//! the harness runs each test on a thread of its own, so the tests do
//! not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cup_des::NodeId;
use cup_overlay::chord::ChordOverlay;

thread_local! {
    // Const-initialized and without destructors, so touching them from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocs: u64, blocks: i64, bytes: i64) {
    // A thread being torn down has no counters left; its frees are not
    // this test's.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BLOCKS.try_with(|c| c.set(c.get() + blocks));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches
// only destructor-free thread-locals, so it cannot allocate, unwind or
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 1, layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -1, -(layout.size() as i64));
        // SAFETY: `ptr` and `layout` are the caller's, passed through
        // unchanged; `ptr` came from `System` via `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc moves a block; it makes no new one.
        count(0, 0, new_size as i64 - layout.size() as i64);
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_built_ring_owns_one_finger_block_per_live_node() {
    for n in [1u32, 17, 3000] {
        let (allocs, blocks, bytes) = (ALLOCS.get(), LIVE_BLOCKS.get(), LIVE_BYTES.get());
        let mut overlay = ChordOverlay::build(n as usize).unwrap();
        // The finger lists, the node table, the ring and the scratch list.
        assert_eq!(ALLOCS.get() - allocs, u64::from(n) + 3, "n = {n}: built");
        // Everything but the scratch list is kept.
        let owned = |live: u32| i64::from(live) + 2;
        assert_eq!(LIVE_BLOCKS.get() - blocks, owned(n), "n = {n}: kept");
        // A node's slot (32 B), its ring entry (16 B, rounded up to the
        // ring's capacity) and its distinct fingers (4 B each, about
        // twelve at 3000 nodes) read about 101 B; the 64-entry tables
        // alone were 256.
        let held = LIVE_BYTES.get() - bytes;
        assert!(held <= 128 * i64::from(n), "n = {n}: {held} bytes held");
        if n > 1 {
            // A node that leaves gives its fingers back.
            overlay.leave(NodeId(n / 2)).unwrap();
            assert_eq!(LIVE_BLOCKS.get() - blocks, owned(n - 1), "n = {n}: left");
        }
        drop(overlay);
        assert_eq!(LIVE_BLOCKS.get(), blocks, "n = {n}: all given back");
    }
}
