//! E11's per-message primitives, held to what the host cannot move: once
//! warm, a `counter.incr`, a `gauge.set` and a `histogram.observe`
//! allocate nothing. Their ns/call is E11's timed column, which a loaded
//! host moves; a count of allocations it does not.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use aas_obs::MetricsRegistry;
use counting_alloc::{enroll, measured, unenroll, GATE};

/// Calls of each primitive counted.
const N: u32 = 10_000;

#[test]
fn warm_per_message_primitives_allocate_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let registry = MetricsRegistry::new();
    let counter = registry.counter("e11.counter");
    let gauge = registry.gauge("e11.gauge");
    let histogram = registry.histogram("e11.histogram");
    // Latency-shaped values (1-80 ms: seven octaves), each seen once
    // before counting, so the histogram holds their buckets.
    let latency = |i: u32| 1.0 + f64::from(i % 1_000) * 0.079;
    for i in 0..1_000 {
        histogram.observe(latency(i));
    }
    counter.incr();
    gauge.set(0.0);

    enroll();
    let ((), incr) = measured(|| (0..N).for_each(|_| counter.incr()));
    let ((), set) = measured(|| (0..N).for_each(|i| gauge.set(f64::from(i))));
    let ((), observe) = measured(|| (0..N).for_each(|i| histogram.observe(latency(i))));
    unenroll();

    assert_eq!(
        (incr, set, observe),
        (0, 0, 0),
        "allocations per {N} calls of counter.incr, gauge.set, histogram.observe"
    );
    assert_eq!(counter.get(), u64::from(N) + 1);
    assert_eq!(histogram.count(), u64::from(N) + 1_000);
}
