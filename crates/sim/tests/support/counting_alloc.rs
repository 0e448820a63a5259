//! A counting global allocator for allocation-budget tests, included by
//! path from the test files that use it (here and in `aas-core`). It
//! wraps the system allocator, but it is **thread-enrolled**: it counts
//! only while `MEASURING` is set and only on threads that opted in
//! (`enroll()`). That makes the measurement
//! shard-aware — the coordinator thread may allocate (it owns the merge
//! buffers and metric flushes), while the K worker threads executing
//! event windows must not allocate at all once warm.
//!
//! The allocator state is process-global, so the tests serialize on a
//! mutex instead of relying on `--test-threads=1`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Global gate: when false the allocator counts nothing anywhere.
static MEASURING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` init keeps TLS access allocation-free and destructor-free,
    // so reading it inside the allocator itself is safe.
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

/// Opts the calling thread into allocation counting. Passed to the
/// sharded kernel as the worker start hook so exactly the K event-loop
/// threads are measured.
pub fn enroll() {
    ENROLLED.with(|e| e.set(true));
}

/// Opts the calling thread out again.
pub fn unenroll() {
    ENROLLED.with(|e| e.set(false));
}

fn counting() -> bool {
    MEASURING.load(Ordering::Relaxed) && ENROLLED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of one test binary: MEASURING/ALLOCS are
/// process-global.
pub static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with counting enabled and returns the allocations it charged
/// to enrolled threads.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.store(true, Ordering::SeqCst);
    let r = f();
    MEASURING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}
