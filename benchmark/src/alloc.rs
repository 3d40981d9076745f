//! A counting global allocator, off unless a measurement is running.
//!
//! The program's own memory numbers are *modeled*
//! (`charge_alloc(modeled_bytes())`); this measures what the route call
//! really asks the system allocator for. It is switched on only around
//! the memory pass (and around one `from_text` in the setup pass), so
//! the timed pass pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

struct Counting;

// Statistics only: no other data is published through these, so
// `Relaxed` is enough (rust guide, "Threads and shared state").
static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one measured call asked of the heap, relative to the heap as it
/// stood when the call began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Highest live bytes above the starting level (all threads).
    pub peak_bytes: u64,
    /// Live bytes above the starting level when the call returned — what
    /// its return value keeps allocated.
    pub retained_bytes: u64,
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
}

/// Whether counting is on right now (it is only inside [`measure`]).
pub fn counting() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with counting on. Not re-entrant and not for concurrent
/// callers: the benchmark runs one pass at a time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapStats) {
    assert!(!counting(), "heap measurements do not nest");
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    // Counting must stop even if `f` unwinds (the caller catches panics
    // of the program under test and carries on).
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
    let off = Off;
    let out = f();
    drop(off);
    let stats = HeapStats {
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
        retained_bytes: LIVE.load(Ordering::Relaxed).max(0) as u64,
        allocs: ALLOCS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    };
    (out, stats)
}
