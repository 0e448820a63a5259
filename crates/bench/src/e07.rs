//! E7 — strong vs weak dynamic reconfiguration.
//!
//! Paper concept (§1): strong dynamic reconfiguration initializes "new
//! components … with adequate internal state variables, contexts, program
//! counters and registers"; weak reconfiguration merely redirects future
//! calls. Strong costs state capture/transfer; weak costs state.
//!
//! Harness: a stateful worker is swapped mid-stream with both transfer
//! modes across state sizes. Reported: whether the message counter
//! survived, the bytes transferred and the blackout.

use crate::common::{experiment_registry, Worker};
use crate::table::{exact, f2, Table, Tier};
use aas_core::component::Component;
use aas_core::config::{ComponentDecl, Configuration};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

const PREFIX_MESSAGES: u64 = 50;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// State blob size (bytes).
    pub state_bytes: i64,
    /// Transfer mode.
    pub transfer: StateTransfer,
    /// Counter value reported by the first post-swap reply (state
    /// continuity indicator: `PREFIX + 1` for strong, `1` for weak).
    pub first_count_after: i64,
    /// Bytes the engine moved.
    pub transferred: u64,
    /// Blackout of the swap.
    pub blackout_ms: f64,
}

/// Runs one `(state size, transfer)` cell.
#[must_use]
pub fn run_cell(state_bytes: i64, transfer: StateTransfer) -> Cell {
    let topo = Topology::clique(2, 1000.0, SimDuration::from_millis(1), 1e6);
    let mut rt = Runtime::new(topo, 3, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.component(
        "w",
        ComponentDecl::new("Worker", 1, NodeId(0))
            .with_prop("cost", Value::Float(0.2))
            .with_prop("state_bytes", Value::Int(state_bytes)),
    );
    rt.deploy(&cfg).expect("deploy");

    for i in 0..PREFIX_MESSAGES {
        rt.inject_after(
            SimDuration::from_millis(i * 10),
            "w",
            Message::request("work", Value::Null),
        )
        .expect("inject");
    }
    rt.run_until(SimTime::from_secs(2));
    rt.take_outbox();

    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
        name: "w".into(),
        type_name: "Worker".into(),
        version: 1,
        transfer,
    }));
    rt.run_until(SimTime::from_secs(20));
    let report = rt.reports().last().expect("swap ran").clone();
    assert!(report.success, "{:?}", report.failure);

    rt.inject("w", Message::request("work", Value::Null))
        .expect("probe");
    rt.run_for(SimDuration::from_secs(5));
    let first_count_after = rt
        .take_outbox()
        .first()
        .and_then(|(_, m)| m.value.as_int())
        .expect("probe reply");

    Cell {
        state_bytes,
        transfer,
        first_count_after,
        transferred: report.state_bytes_transferred,
        blackout_ms: report.max_blackout().as_micros() as f64 / 1e3,
    }
}

/// Runs the sweep.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e07",
        tier,
        "E7: strong vs weak reconfiguration — state continuity and its cost",
        exact(&[
            "state(B)",
            "transfer",
            "count-after",
            "continuity",
            "bytes-moved",
            "blackout(ms)",
        ]),
    );
    for state_bytes in [0i64, 10_000, 1_000_000, 10_000_000] {
        for transfer in [StateTransfer::None, StateTransfer::Snapshot] {
            let c = run_cell(state_bytes, transfer);
            let continuity = if c.first_count_after == PREFIX_MESSAGES as i64 + 1 {
                "preserved"
            } else {
                "reset"
            };
            table.row(vec![
                c.state_bytes.to_string(),
                c.transfer.to_string(),
                c.first_count_after.to_string(),
                continuity.to_owned(),
                c.transferred.to_string(),
                f2(c.blackout_ms),
            ]);
        }
    }
    let worker = Worker::new(1.0, 100_000);
    table.note_ns_per_call("snapshot 100 kB ns", 20_000, || worker.snapshot());
    let snap = worker.snapshot();
    let mut target = Worker::new(1.0, 0);
    table.note_ns_per_call("restore 100 kB ns", 20_000, || {
        target.restore(&snap).expect("restore");
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_preserves_weak_resets() {
        let strong = run_cell(10_000, StateTransfer::Snapshot);
        assert_eq!(strong.first_count_after, PREFIX_MESSAGES as i64 + 1);
        assert!(strong.transferred > 10_000);
        let weak = run_cell(10_000, StateTransfer::None);
        assert_eq!(weak.first_count_after, 1);
        assert_eq!(weak.transferred, 0);
    }

    #[test]
    fn strong_blackout_grows_with_state() {
        let small = run_cell(0, StateTransfer::Snapshot);
        let big = run_cell(10_000_000, StateTransfer::Snapshot);
        assert!(
            big.blackout_ms > small.blackout_ms,
            "big {} !> small {}",
            big.blackout_ms,
            small.blackout_ms
        );
    }
}
