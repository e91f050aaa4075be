//! A counting `GlobalAlloc` for the traced binary.
//!
//! `cupbench-trace` installs [`Counting`] as its global allocator; the
//! end-to-end binary keeps the system allocator untouched, which is why
//! there are two binaries. Counters are sharded by thread and padded to
//! a cache line each, so the live runtime's two workers and the load
//! generator do not serialize on one counter (a single shared atomic
//! would itself be the bottleneck this benchmark exists to find).
//! Counting can be switched off at run time for the untraced reruns the
//! traced pass compares itself against.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat seed, never read
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes_allocated: AtomicU64::new(0),
    bytes_freed: AtomicU64::new(0),
};

static SHARD_TABLE: [Shard; SHARDS] = [EMPTY; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn shard() -> &'static Shard {
    let index = MY_SHARD
        .try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            slot.get()
        })
        .unwrap_or(0);
    &SHARD_TABLE[index]
}

/// The allocator; install with `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping around the
// call touches only atomics and a destructor-free thread-local, so it
// cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            let s = shard();
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.bytes_allocated
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Ordering::Relaxed) {
            shard()
                .bytes_freed
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` and `layout` are the caller's, passed through
        // unchanged; `ptr` came from `System` via `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            let s = shard();
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.bytes_allocated
                .fetch_add(new_size as u64, Ordering::Relaxed);
            s.bytes_freed
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: arguments are the caller's, passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters. Differences between two readings taken
/// while counting stayed on are exact once the threads in between have
/// quiesced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// Allocation calls (`alloc` + `realloc`).
    pub allocs: u64,
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: i64,
}

/// Switches counting on or off. Without [`Counting`] installed (the
/// end-to-end binary) this does nothing and every reading stays zero.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn read() -> Reading {
    let mut r = Reading::default();
    for s in &SHARD_TABLE {
        r.allocs += s.allocs.load(Ordering::Relaxed);
        r.live_bytes += s.bytes_allocated.load(Ordering::Relaxed) as i64
            - s.bytes_freed.load(Ordering::Relaxed) as i64;
    }
    r
}
