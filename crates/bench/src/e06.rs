//! E6 — compile-time (inlined) vs run-time composition filters.
//!
//! Paper claim (§2): filters "can be compiled into source code or be
//! preserved as run-time message manipulation modules. In case of run-time
//! implementation, filters can be dynamically attached to or removed from
//! the components." The implied trade: inlined filters are cheaper per
//! message but frozen; runtime filters are swappable but taxed.
//!
//! Harness: pipelines of increasing depth in both modes; we report the
//! modelled per-message work units and the measured wall-clock nanoseconds
//! per message of the filter machinery itself.

use crate::table::{ex, exact, timed, Col, Table, Tier};
use aas_adapt::filters::{FilterMode, FilterPipeline, RejectFilter, TransformFilter};
use aas_core::message::{Message, Value};
use std::time::Instant;

const MESSAGES: u64 = 20_000;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Filter count.
    pub depth: usize,
    /// Pipeline mode.
    pub mode: FilterMode,
    /// Modelled work units per message.
    pub work_units: f64,
    /// Measured wall nanoseconds per message.
    pub ns_per_msg: f64,
}

fn build_pipeline(mode: FilterMode, depth: usize) -> FilterPipeline {
    let mut p = FilterPipeline::new(mode);
    for i in 0..depth {
        if i % 2 == 0 {
            p.attach(Box::new(RejectFilter::new(["never_matches_*"])))
                .expect("attach");
        } else {
            p.attach(Box::new(TransformFilter::new("*", "hop", |_| {
                Value::Bool(true)
            })))
            .expect("attach");
        }
    }
    p
}

/// Measures one `(mode, depth)` cell.
#[must_use]
pub fn run_cell(mode: FilterMode, depth: usize) -> Cell {
    let mut pipeline = build_pipeline(mode, depth);
    let mut msg = Message::request("op", Value::map([("k", Value::from(1))]));
    // Modelled cost from one evaluation.
    let outcome = pipeline.run(&mut msg);
    let work_units = outcome.cost;
    // Wall-clock measurement.
    let start = Instant::now();
    for _ in 0..MESSAGES {
        let mut m = Message::request("op", Value::map([("k", Value::from(1))]));
        let _ = pipeline.run(&mut m);
    }
    let ns_per_msg = start.elapsed().as_nanos() as f64 / MESSAGES as f64;
    Cell {
        depth,
        mode,
        work_units,
        ns_per_msg,
    }
}

/// Runs the sweep.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e06",
        tier,
        "E6: inlined vs runtime composition filters — per-message cost",
        [
            exact(&["depth", "mode", "work-units/msg"]),
            vec![Col::Timed("ns/msg")],
        ]
        .concat(),
    );
    for depth in [0usize, 2, 4, 8, 16] {
        for mode in [FilterMode::Inlined, FilterMode::Runtime] {
            table.trials(|| {
                let c = run_cell(mode, depth);
                vec![
                    ex(c.depth),
                    ex(format!("{:?}", c.mode).to_lowercase()),
                    ex(format!("{:.4}", c.work_units)),
                    timed(c.ns_per_msg, 2),
                ]
            });
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inlined_work_units_always_cheaper() {
        for depth in [0, 4, 16] {
            let inl = run_cell(FilterMode::Inlined, depth);
            let run = run_cell(FilterMode::Runtime, depth);
            assert!(
                inl.work_units < run.work_units,
                "depth {depth}: {} !< {}",
                inl.work_units,
                run.work_units
            );
        }
    }

    #[test]
    fn cost_grows_with_depth() {
        let shallow = run_cell(FilterMode::Runtime, 2);
        let deep = run_cell(FilterMode::Runtime, 16);
        assert!(deep.work_units > shallow.work_units);
    }

    #[test]
    fn only_runtime_mode_is_mutable_after_use() {
        let mut inl = build_pipeline(FilterMode::Inlined, 2);
        let mut m = Message::request("op", Value::Null);
        let _ = inl.run(&mut m);
        assert!(inl.attach(Box::new(RejectFilter::new(["x"]))).is_err());
        let mut rt = build_pipeline(FilterMode::Runtime, 2);
        let _ = rt.run(&mut m);
        assert!(rt.attach(Box::new(RejectFilter::new(["x"]))).is_ok());
    }
}
