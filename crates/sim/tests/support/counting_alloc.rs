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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out and bytes taken back while counting; their difference
/// is how much the live heap grew.
static BYTES_IN: AtomicU64 = AtomicU64::new(0);
static BYTES_OUT: AtomicU64 = AtomicU64::new(0);
/// How far the live heap has risen since the measurement began, and the
/// highest it has been; a `realloc` counts as freeing the old block
/// before asking for the new one.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
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

fn count_block(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_IN.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn count_free(size: usize) {
    BYTES_OUT.fetch_add(size as u64, Ordering::Relaxed);
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            count_block(layout.size());
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            count_free(layout.size());
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            count_free(layout.size());
            count_block(new_size);
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

/// What a measured call did to the heap, in bytes.
// Only the footprint tests read bytes; the budget tests count calls.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
pub struct HeapDelta {
    /// Bytes the call asked for, freed again or not.
    pub allocated: u64,
    /// How much the live heap grew over the call: `allocated` minus what
    /// it freed, what it returned still alive.
    pub grown: i64,
    /// How far above its starting point the live heap rose at its
    /// highest during the call.
    pub peak: i64,
}

/// Runs `f` with counting enabled and returns what it did to the heap on
/// enrolled threads. `f`'s result is still alive when the delta is read.
#[allow(dead_code)]
pub fn measured_heap<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    let read = || {
        (
            BYTES_IN.load(Ordering::Relaxed),
            BYTES_OUT.load(Ordering::Relaxed),
        )
    };
    let (in_before, out_before) = read();
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    let (r, _) = measured(f);
    let (bytes_in, bytes_out) = read();
    let allocated = bytes_in - in_before;
    let delta = HeapDelta {
        allocated,
        grown: allocated as i64 - (bytes_out - out_before) as i64,
        peak: PEAK.load(Ordering::Relaxed),
    };
    (r, delta)
}
