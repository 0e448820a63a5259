//! Proves the kernel's cache-hit send path is allocation-free — for the
//! serial kernel on the caller thread, and for the sharded kernel on
//! every worker thread.
//!
//! A counting global allocator wraps the system allocator, but it is
//! **thread-enrolled**: it counts only while `MEASURING` is set and only
//! on threads that opted in (`enroll()`). That makes the measurement
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

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

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
fn enroll() {
    ENROLLED.with(|e| e.set(true));
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

/// Serializes the tests in this file: MEASURING/ALLOCS are process-global.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with counting enabled and returns the allocations it charged
/// to enrolled threads.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.store(true, Ordering::SeqCst);
    let r = f();
    MEASURING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn cache_hit_send_path_allocates_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll(); // the serial kernel runs right here on the test thread

    let topo = Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: Kernel<u64> = Kernel::new(topo, 1401);
    let nodes: Vec<_> = k.topology().node_ids().collect();
    let channels: Vec<_> = (0..nodes.len())
        .map(|i| k.open_channel(nodes[i], nodes[(i + 5) % nodes.len()]))
        .collect();

    // Warm-up: populate the route cache for every (pair, size) the loop
    // uses, and let the event queue / channel buffers reach capacity.
    let run = |k: &mut Kernel<u64>, msgs: u64| {
        let mut delivered = 0u64;
        for i in 0..msgs {
            let ch = channels[(i % channels.len() as u64) as usize];
            let size = if (i / channels.len() as u64).is_multiple_of(2) {
                256
            } else {
                4096
            };
            k.send(ch, i, size);
            if let Some((_, Fired::Delivered { .. })) = k.step() {
                delivered += 1;
            }
        }
        while let Some((_, fired)) = k.step() {
            if matches!(fired, Fired::Delivered { .. }) {
                delivered += 1;
            }
        }
        delivered
    };
    let warm = run(&mut k, 4096);
    assert_eq!(warm, 4096, "warm-up must deliver everything");

    // Measured phase: every route resolves from the cache, so the loop
    // must not touch the allocator at all.
    let (delivered, delta) = measured(|| run(&mut k, 10_000));
    assert_eq!(delivered, 10_000, "measured phase must deliver everything");
    assert_eq!(
        delta, 0,
        "cache-hit send path performed {delta} heap allocations over 10k sends"
    );

    let stats = k.route_cache_stats();
    assert_eq!(
        stats.misses,
        channels.len() as u64 * 2,
        "one miss per (channel, size) pair, everything else hits"
    );
    assert!(stats.hits >= 10_000);
    ENROLLED.with(|e| e.set(false));
}

/// The same property under K=4 with real worker threads: only the
/// workers are enrolled (via the start hook), the coordinator thread is
/// not — so the assertion is precisely "a warm shard event loop never
/// allocates", independent of coordinator-side merge bookkeeping.
#[test]
fn sharded_worker_event_loops_allocate_nothing_when_warm() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let topo = Topology::clique(8, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: ShardedKernel<u64> =
        ShardedKernel::with_mode_and_hook(topo, 4, ExecMode::Threads, Some(enroll));
    let channels: Vec<_> = (0..8u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 3) % 8)))
        .collect();

    // One schedule, issued twice over disjoint time ranges: the warm pass
    // grows every per-shard heap, outbox, inbox and fired buffer to the
    // exact peak the measured pass will need.
    let schedule = |k: &mut ShardedKernel<u64>, base_us: u64| {
        for i in 0..4000u64 {
            let ch = channels[(i % 8) as usize];
            let size = if i.is_multiple_of(2) { 256 } else { 4096 };
            k.send_at(SimTime::from_micros(base_us + i * 11), ch, i, size);
        }
    };
    let count_delivered = |events: &[aas_sim::shard::MergedEvent<u64>]| {
        events
            .iter()
            .filter(|e| matches!(e.what, Fired::Delivered { .. }))
            .count()
    };

    // Two warm passes: the first grows every per-shard heap, outbox
    // batch, inbox slot and fired buffer; the second runs with the
    // adaptive window widths already at steady state, so its (wider)
    // sub-round batches reach the true capacity peak the measured pass
    // will replay.
    let mut now_us = 0;
    for _ in 0..2 {
        schedule(&mut k, now_us);
        let warm = k.drain();
        assert_eq!(
            count_delivered(&warm),
            4000,
            "warm pass must deliver everything"
        );
        now_us += 4000 * 11 + 60_000;
    }

    // Measured pass: identical load, so workers stay within the
    // capacities the warm passes established. Scheduling happens on the
    // (un-enrolled) main thread; only window execution is charged.
    schedule(&mut k, now_us);
    let (events, delta) = measured(|| k.drain());
    assert_eq!(
        count_delivered(&events),
        4000,
        "measured pass must deliver everything"
    );
    assert_eq!(
        delta, 0,
        "warm sharded event loops performed {delta} heap allocations over 4k sends"
    );
    assert_eq!(k.stats().early_crossings, 0);
}
