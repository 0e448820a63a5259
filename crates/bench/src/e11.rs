//! E11 — observation overhead on the hot message path.
//!
//! Paper claim (§2): "adaptations should be realized without degrading the
//! availability of the applications". The RAML meta level can only watch
//! the base level continuously if watching is close to free; this
//! experiment prices every observation primitive the kernel and runtime
//! put on the per-message path.
//!
//! The budget: with tracing disabled (the default), one hop check must
//! cost at most [`BUDGET_NS`] nanoseconds — it is a single relaxed atomic
//! load plus a branch. Counters and histogram recording are also measured;
//! they sit on the delivery path, not the per-hop path, and are lock-free.

use crate::table::{ex, ns_per_call, timed, Col, Table, Tier};
use aas_obs::{MetricsRegistry, Tracer};

/// The per-event budget (ns) for the disabled tracing path.
pub const BUDGET_NS: f64 = 50.0;

/// Iterations timed per trial of each primitive.
const N: u64 = 2_000_000;

/// Appends the row of one primitive: ns/call over [`N`] calls per trial.
fn price<T>(table: &mut Table, primitive: &str, mut f: impl FnMut() -> T) {
    table.trials(|| vec![ex(primitive), ex(N), timed(ns_per_call(N, &mut f), 2)]);
}

/// Prices every observation primitive. The first row is the one the
/// budget is about — the disabled hop-sampling check; the unit test holds
/// its median to [`BUDGET_NS`] (a host-clock verdict is not an exact
/// value, so the table does not record one).
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e11",
        tier,
        format!("E11: observation overhead (budget: disabled trace check <= {BUDGET_NS} ns)"),
        vec![
            Col::Exact("primitive"),
            Col::Exact("iterations"),
            Col::Timed("ns/call"),
        ],
    );

    // Tracing disabled (the default): one relaxed load + branch.
    let tracer = Tracer::new();
    assert_eq!(tracer.hop_sampling(), 0, "tracing must default to off");
    price(&mut table, "tracer.sample_hop (disabled)", || {
        tracer.sample_hop()
    });

    // Sampled 1-in-1024: the check pays one fetch_add; only matching
    // events pay the ring-buffer push, so the *check* stays cheap.
    let sampled = Tracer::new();
    sampled.set_hop_sampling(1024);
    price(&mut table, "tracer.sample_hop (1-in-1024)", || {
        sampled.sample_hop()
    });

    // Counter increment: one relaxed fetch_add through an Arc.
    let registry = MetricsRegistry::new();
    let counter = registry.counter("e11.counter");
    price(&mut table, "counter.incr", || counter.incr());

    // Histogram record: float-bits bucket index + relaxed adds.
    let histogram = registry.histogram("e11.histogram");
    let mut x = 0.0f64;
    price(&mut table, "histogram.observe", || {
        x += 0.1;
        histogram.observe(x);
    });

    // Gauge store: one relaxed store of the value's bits.
    let gauge = registry.gauge("e11.gauge");
    price(&mut table, "gauge.set", || gauge.set(42.0));

    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    #[test]
    fn disabled_trace_check_is_within_budget_and_primitives_are_cheap() {
        let table = run(Tier::Smoke);
        for (i, row) in table.rows.iter().enumerate() {
            let Value::Timed(ns) = &row[2] else {
                panic!("ns/call is timed")
            };
            let ns = ns.quartiles().1;
            let limit = if i == 0 { BUDGET_NS } else { 1_000.0 };
            assert!(ns <= limit, "{}: {ns:.1} ns, limit {limit} ns", row[0]);
        }
    }
}
