//! What the control plane's reads and forks may cost in memory, counted
//! with the thread-enrolled allocator of `dispatch_allocs.rs`, in the
//! profile the benchmark builds with.
//!
//! A histogram weighs the octaves it has seen, so `observe()` reads the
//! system without copying it and a twin fork's throwaway telemetry bundle
//! is a fraction of the mainline's.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/media_pipelines.rs"]
mod media_pipelines;

use counting_alloc::{enroll, measured_heap, unenroll, HeapDelta, GATE};

use aas_core::runtime::Runtime;
use aas_obs::{AtomicHistogram, Histogram};
use aas_sim::time::SimDuration;

fn heap_of<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();
    let measured = measured_heap(f);
    unenroll();
    measured
}

/// `dispatch_allocs.rs`'s 64 pipelines, two virtual seconds in: every
/// latency histogram and every custom metric has been written.
fn warm_deployment() -> Runtime {
    let mut rt = media_pipelines::deploy(64);
    rt.run_for(SimDuration::from_millis(2_020));
    rt
}

#[test]
fn an_empty_histogram_allocates_nothing() {
    let (h, heap) = heap_of(|| {
        let mut h = Histogram::new();
        h.merge(&Histogram::new());
        h.observe(f64::NAN);
        let _ = (h.quantile(0.5), h.fraction_below(1.0));
        h.clone()
    });
    assert_eq!(h.count(), 0);
    assert_eq!(heap.allocated, 0, "{heap:?}");
}

/// Shared as the registry shares it: the 71 unset slots and two 128 B
/// blocks. Dense, its 71 x 16 cells were 9,088 B.
#[test]
fn an_atomic_histogram_weighs_the_octaves_it_has_seen() {
    let (h, heap) = heap_of(|| {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        for i in 0..1_000 {
            // [2, 8): two octaves.
            h.observe(2.0 + f64::from(i) * 0.006);
        }
        h
    });
    assert_eq!(h.snapshot().count(), 1_000);
    assert!(heap.grown <= 1_536, "{heap:?}");
}

/// What `observe()` asks the allocator for and does not return is the
/// slack of the vectors it collects into (42,792 B here, its 192-entry
/// component list alone is 24 KiB) — not a copy of anything it reads. At
/// `e2b94c6` the same call asked for 3,625,464 B to return 92,952 B: the
/// 1,136 buckets of every latency and custom histogram, copied for one
/// mean or p99 each.
#[test]
fn observe_reads_the_histograms_in_place() {
    let rt = warm_deployment();
    let (snap, heap) = heap_of(|| rt.observe());
    assert_eq!(snap.components.len(), 192);
    assert!(snap.components.iter().all(|c| c.p99_latency_ms > 0.0));
    let transient = heap.allocated as i64 - heap.grown;
    assert!(
        transient < 64 * 1024,
        "observe() asked for {transient} B it did not return: {heap:?}"
    );
}

/// A fork's throwaway telemetry bundle registers every histogram of the
/// mainline's, empty, and its tracer ring takes memory only as it records.
/// Each component is restored from a snapshot map the fork drops again.
#[test]
fn a_fork_grows_the_heap_by_no_more_than_its_pinned_figure() {
    /// Live-heap growth of this very fork: 4,110,168 B at `e2b94c6`,
    /// 992,328 B at `7646886`, whose fork reserved 1,024 tracer records
    /// (80 KiB) it never wrote. No frame is under way at the fork, so the
    /// fork keeps no payload map.
    const PINNED: i64 = 910_408;
    /// What the fork asks the allocator for, kept or not: 1,155,246 B at
    /// `0cf57a8`, where each of the 192 snapshot maps was a 632 B B-tree
    /// leaf; a buffer of four entries is 224 B.
    const ASKED: u64 = 1_076_910;
    let rt = warm_deployment();
    let (fork, heap) = heap_of(|| rt.fork_twin());
    assert!(fork.is_some());
    assert!(heap.grown <= PINNED, "{heap:?}");
    assert!(heap.allocated <= ASKED, "{heap:?}");
}
