//! E11 — observation overhead on the hot message path.
//!
//! Paper claim (§2): "adaptations should be realized without degrading the
//! availability of the applications". The RAML meta level can only watch
//! the base level continuously if watching is close to free; this
//! experiment prices every observation primitive the kernel and runtime
//! put on the per-message path.
//!
//! What a delivery records is metrics: a counter increment and a gauge
//! store are one relaxed atomic each and must cost at most [`BUDGET_NS`]
//! nanoseconds; a histogram records under its own mutex, which only the
//! thread driving the runtime takes, so the lock is never contended. The
//! kernel itself records nothing per message beyond its own counters, and
//! what reconfiguration does goes to the typed audit log, whose appends
//! the `control_plane_footprint` tests hold to zero allocations.
//!
//! The last three rows price the other side, a *read*: a mean and a p99
//! off a latency-shaped histogram in place, the copy of it that
//! `snapshot()` makes, and one whole `Runtime::observe()` of 64 media
//! pipelines — what the meta level pays per tick.

use crate::common::experiment_registry;
use crate::table::{ex, ns_per_call, timed, Col, Table, Tier};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::message::{Message, Value};
use aas_core::runtime::Runtime;
use aas_obs::MetricsRegistry;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;

/// The per-call budget (ns) for a counter increment and a gauge store.
pub const BUDGET_NS: f64 = 50.0;

/// Iterations timed per trial of each per-message primitive.
const N: u64 = 2_000_000;

/// Appends the row of one primitive: ns/call over `n` calls per trial.
fn price<T>(table: &mut Table, primitive: &str, n: u64, mut f: impl FnMut() -> T) {
    table.trials(|| vec![ex(primitive), ex(n), timed(ns_per_call(n, &mut f), 2)]);
}

/// 64 `MediaSource → Transcoder → MediaSink` pipelines of four sessions
/// each on a three-node clique, two virtual seconds in: 192 latency
/// histograms and 192 custom ones, all written.
fn pipelines_64() -> Runtime {
    const PIPELINES: usize = 64;
    let topology = Topology::clique(3, 64_000.0, SimDuration::from_millis(1), 1e7);
    let mut rt = Runtime::new(topology, 11, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.connector(ConnectorSpec::direct("wire"));
    for i in 0..PIPELINES {
        let mut source = ComponentDecl::new("MediaSource", 1, NodeId(0));
        source.props.insert("level".into(), Value::Int(0));
        cfg.component(format!("src{i}"), source);
        cfg.component(
            format!("tc{i}"),
            ComponentDecl::new("Transcoder", 1, NodeId(1)),
        );
        cfg.component(
            format!("sink{i}"),
            ComponentDecl::new("MediaSink", 1, NodeId(2)),
        );
        for (from, to) in [("src", "tc"), ("tc", "sink")] {
            cfg.bind(BindingDecl::new(
                format!("{from}{i}"),
                "out",
                "wire",
                format!("{to}{i}"),
                "in",
            ));
        }
    }
    rt.deploy(&cfg).expect("deploy");
    for i in 0..PIPELINES {
        let src = format!("src{i}");
        rt.inject(&src, Message::event("init", Value::Null))
            .expect("inject");
        for _ in 0..4 {
            rt.inject(&src, Message::event("session_start", Value::Null))
                .expect("inject");
        }
    }
    rt.run_for(SimDuration::from_secs(2));
    rt
}

/// Prices every observation primitive. The unit test holds the medians
/// of `counter.incr` and `gauge.set` to [`BUDGET_NS`] (a host-clock
/// verdict is not an exact value, so the table does not record one).
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e11",
        tier,
        format!("E11: observation overhead (budget: counter and gauge <= {BUDGET_NS} ns)"),
        vec![
            Col::Exact("primitive"),
            Col::Exact("iterations"),
            Col::Timed("ns/call"),
        ],
    );

    // Counter increment: one relaxed fetch_add through an Arc.
    let registry = MetricsRegistry::new();
    let counter = registry.counter("e11.counter");
    price(&mut table, "counter.incr", N, || counter.incr());

    // Histogram record: an uncontended lock, a float-bits bucket index
    // and plain adds.
    let histogram = registry.histogram("e11.histogram");
    let mut x = 0.0f64;
    price(&mut table, "histogram.observe", N, || {
        x += 0.1;
        histogram.observe(x);
    });

    // Gauge store: one relaxed store of the value's bits.
    let gauge = registry.gauge("e11.gauge");
    price(&mut table, "gauge.set", N, || gauge.set(42.0));

    // A read of a latency-shaped histogram (1-80 ms: seven octaves), in
    // place and by copy.
    let latency = registry.histogram("e11.latency_ms");
    for i in 0..10_000 {
        latency.observe(1.0 + f64::from(i % 1_000) * 0.079);
    }
    price(&mut table, "histogram.mean+p99 (in place)", N / 10, || {
        (latency.mean(), latency.quantile(0.99))
    });
    price(&mut table, "histogram.snapshot", N / 10, || {
        latency.snapshot()
    });

    // The whole introspection snapshot the meta level takes per tick.
    let rt = pipelines_64();
    price(
        &mut table,
        "runtime.observe (64 pipelines)",
        N / 1_000,
        || rt.observe(),
    );

    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Value;

    #[test]
    fn per_message_primitives_are_within_budget() {
        let table = run(Tier::Smoke);
        // The three per-message primitives; the read rows after them are
        // the meta level's cost per tick, not the message path's.
        for row in table.rows.iter().take(3) {
            let Value::Timed(ns) = &row[2] else {
                panic!("ns/call is timed")
            };
            let ns = ns.quartiles().1;
            let limit = if row[0] == ex("histogram.observe") {
                1_000.0
            } else {
                BUDGET_NS
            };
            assert!(ns <= limit, "{}: {ns:.1} ns, limit {limit} ns", row[0]);
        }
    }
}
