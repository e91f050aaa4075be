//! The fault plane's count of its own heap bytes is the allocator's.
//!
//! Under link loss every send bumps a per-link counter, so the counter
//! map grows with the links a run uses: about 115k of capacity per shard
//! at the end of a 10k-node Chord run. `FaultState::heap_bytes` reads
//! that map's buckets off its capacity; a counting allocator holds the
//! reading to the bytes really live, at no link, one link and about
//! 100k, with a crash flag, a behavior flag and a capacity fraction
//! allocated beside them.
//!
//! The counters are thread-local and the harness runs each test on a
//! thread of its own, so tests do not see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cup_des::NodeId;
use cup_faults::{Behavior, DropVerdict, FaultAction, FaultState};

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64) {
    // A thread being torn down has no counter left; its frees are not
    // this test's.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping touches
// only a destructor-free thread-local, so it cannot allocate, unwind or
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn the_fault_plane_counts_the_bytes_the_allocator_does() {
    let live_before = LIVE_BYTES.get();
    let live = || LIVE_BYTES.get() - live_before;
    let mut faults = FaultState::new(7);
    assert_eq!(faults.heap_bytes(), 0);
    assert_eq!(live(), 0, "a fault-free plane allocates nothing");

    faults.apply(FaultAction::SetLoss { rate: 0.02 });
    faults.apply(FaultAction::Crash { node: 999 });
    faults.apply(FaultAction::SetBehavior {
        node: 99,
        behavior: Behavior::StaleServe,
    });
    assert_eq!(faults.heap_bytes() as i64, live(), "no link yet");
    let flags = live();
    assert!(flags >= 1_000 + 100, "one flag a node, {flags} B");
    faults.apply(FaultAction::SetCapacity {
        node: 4_999,
        c: 0.5,
    });
    assert_eq!(faults.heap_bytes() as i64, live(), "a capacity fraction");
    let fractions = live() - flags;
    assert!(fractions >= 5_000 * 8, "one f64 a node, {fractions} B");
    // A fraction below the highest node named takes no more room.
    faults.apply(FaultAction::SetCapacity { node: 7, c: 0.0 });
    assert_eq!(live() - flags, fractions);

    faults.roll(NodeId(1), NodeId(2));
    assert_eq!(faults.heap_bytes() as i64, live(), "one link");
    // A link the plane has seen takes no more room.
    for _ in 0..10 {
        faults.roll(NodeId(1), NodeId(2));
    }
    assert_eq!(faults.heap_bytes() as i64, live(), "one link, eleven sends");

    // About 100k distinct links: every sender to 101 receivers, none of
    // them the crashed node (whose sends are dropped before a count).
    let mut links = 1;
    'links: for from in 0..1_000u32 {
        for to in 0..101 {
            if links == 100_000 {
                break 'links;
            }
            if (from, to) == (1, 2) {
                continue;
            }
            let verdict = faults.roll(NodeId(from), NodeId(to));
            assert_ne!(verdict, DropVerdict::TargetCrashed);
            links += 1;
        }
    }
    let bytes = faults.heap_bytes();
    assert_eq!(bytes as i64, live(), "{links} links");
    // 131,072 buckets of 16 bytes, a control byte each, one probe group.
    assert!(bytes > 131_072 * 17, "{bytes} B for {links} links");
}
