//! A counting global allocator: the source of `allocs_per_msg`,
//! `peak_heap_mb`, `bench.allocs` and `bench.alloc_bytes`.
//!
//! Always on, in this package only. Every counter is a statistic that
//! publishes no other data, so all atomics are `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts calls, bytes, live bytes
/// and the live-byte peak.
#[derive(Debug)]
pub struct CountingAlloc;

fn count_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout, and this
        // allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            count_alloc(new_size);
        }
        p
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes live now.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

impl AllocSnapshot {
    /// Calls and bytes since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &AllocSnapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Reads the counters.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_pattern() {
        // Other tests allocate on their own threads at the same time, so
        // the counters can only be bounded from below; the peak of a
        // 1 MiB block is far above anything they hold.
        const N: u64 = 100;
        const BIG: usize = 1 << 20;
        let before = snapshot();
        let boxes: Vec<Box<[u8; 64]>> = (0..N).map(|_| Box::new([0u8; 64])).collect();
        let mid = snapshot();
        let (allocs, bytes) = mid.since(&before);
        assert!(allocs > N, "{N} boxes and their vector, saw {allocs}");
        assert!(bytes >= N * 64, "saw {bytes} bytes");

        reset_peak();
        let big = vec![1u8; BIG];
        std::hint::black_box(&big);
        let held = snapshot();
        drop(big);
        drop(boxes);
        let after = snapshot();
        assert!(held.peak >= held.live && held.live >= BIG as u64);
        assert!(after.peak >= BIG as u64, "peak survives the free");
        assert!(after.live + (BIG as u64) / 2 < held.live, "live fell");
    }
}
