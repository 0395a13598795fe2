//! A counting global allocator: every `*allocs*` / `*bytes*` metric reads it
//! at a span boundary. It forwards to the system allocator and bumps four
//! counters of the calling thread.
//!
//! The counters are per thread, plain cells in thread-local storage, and
//! [`snapshot`] reads the calling thread's: the benchmark's main thread,
//! where every single-threaded layer runs. They began as shared relaxed
//! atomics, which two measurements ruled out: the two workers of a parallel
//! search fought over the counters' cache line and the search ran three
//! times slower than in the binary; and even uncontended, at 124 allocations
//! an event `stream.push` ran a fifth slower than in the daemon. A span with
//! threads of its own therefore sees its main thread's allocations only, and
//! no metric is read from one.
//!
//! It counts the benchmark process — the in-process layers of the traced
//! run. The `cal-check` / `cal-serve` children run with the allocator they
//! ship with; their memory shows as `peak_rss_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

/// The counters at one instant, for one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes this thread allocated minus bytes it freed. Signed: it may free
    /// what another thread allocated.
    pub live: i64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: i64,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it never
    // allocates and is sound at any point of a thread's life.
    static COUNTERS: Cell<Snapshot> = const { Cell::new(Snapshot { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

fn update(change: impl FnOnce(&mut Snapshot)) {
    COUNTERS.with(|cell| {
        let mut counters = cell.get();
        change(&mut counters);
        cell.set(counters);
    });
}

fn grew(counters: &mut Snapshot, bytes: usize) {
    counters.allocs += 1;
    counters.bytes += bytes as u64;
    counters.live += bytes as i64;
    counters.peak = counters.peak.max(counters.live);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            update(|c| grew(c, layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) };
        update(|c| c.live -= layout.size() as i64);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            update(|c| {
                c.live -= layout.size() as i64;
                grew(c, new_size);
            });
        }
        q
    }
}

/// The calling thread's counters.
pub fn snapshot() -> Snapshot {
    COUNTERS.with(Cell::get)
}

/// Restarts the calling thread's live high-water mark from what is live now.
pub fn reset_peak() {
    update(|c| c.peak = c.live);
}
