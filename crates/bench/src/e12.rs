//! E12 — availability and repair latency under fault storms.
//!
//! Paper claim (§1): fault tolerance is a primary driver of dynamic
//! reconfiguration — "geographical reconfiguration" relocates components
//! "in case of failures" so the application survives its infrastructure.
//!
//! Harness: a request/reply service runs under fail-stop semantics while a
//! probabilistic fault process crashes its host node repeatedly (exponential
//! MTBF/MTTR). A heartbeat failure detector watches every node; the repair
//! policy varies per cell: `no-repair` (failures only observed), `restart`
//! (weak: re-instantiate in place once the node returns), `failover`
//! (strong: migrate to the coolest live node, restoring from checkpoint).
//! Availability = answered fraction × within-SLA fraction; MTTD/MTTR come
//! from the runtime's `heal.*` histograms.

use crate::common::experiment_registry;
use crate::table::{exact, f2, pct, Table, Tier};
use aas_core::config::{ComponentDecl, Configuration};
use aas_core::detector::{DetectorConfig, FailureDetector};
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::runtime::Runtime;
use aas_sim::fault::FaultProcess;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};

const SEED: u64 = 1203;
const HORIZON_SECS: u64 = 60;
const REQUEST_GAP_MS: u64 = 10;
const SLA_MS: f64 = 15.0;
/// Mean time between crashes of the service's host node (seconds).
const MTBF_SECS: f64 = 6.0;
/// Mean outage duration (seconds).
const MTTR_SECS: f64 = 2.0;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Repair policy label.
    pub policy: &'static str,
    /// Requests issued.
    pub requests: u64,
    /// Requests answered at all.
    pub answered: u64,
    /// Answered × within-SLA fraction.
    pub availability: f64,
    /// Mean crash → suspicion latency (ms); NaN when never measured.
    pub mttd_ms: f64,
    /// Mean crash → repair-committed latency (ms); NaN when never measured.
    pub mttr_ms: f64,
    /// Queued handler jobs lost to crashes (the dropped-on-crash counter).
    pub lost_in_crash: u64,
}

fn build(policy: RepairPolicy) -> Runtime {
    let topo = Topology::clique(3, 1500.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, SEED, experiment_registry());
    let mut cfg = Configuration::new();
    cfg.component(
        "svc",
        // Work cost 6.0 at capacity 1500 ⇒ the service is busy ~40% of the
        // time, so crashes regularly catch handler jobs in flight (feeding
        // the dropped-on-crash accounting) while the queue stays stable.
        ComponentDecl::new("Worker", 1, NodeId(1))
            .with_prop("cost", Value::Float(6.0))
            .with_prop("state_bytes", Value::Int(200_000)),
    );
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(policy);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    let storm = FaultProcess::new()
        .crash_node(NodeId(1), MTBF_SECS, MTTR_SECS)
        .generate(
            SimTime::from_secs(HORIZON_SECS),
            &mut SimRng::seed_from(SEED),
        );
    rt.inject_faults(storm);
    rt
}

/// Runs one policy cell.
#[must_use]
pub fn run_cell(policy: RepairPolicy) -> Cell {
    let label = policy.label();
    let mut rt = build(policy);
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let mut t = SimDuration::ZERO;
    let mut requests = 0u64;
    while SimTime::ZERO + t < horizon {
        rt.inject_after(t, "svc", Message::request("work", Value::Null))
            .expect("inject");
        requests += 1;
        t += SimDuration::from_millis(REQUEST_GAP_MS);
    }
    rt.run_until(horizon + SimDuration::from_secs(10));

    let answered = rt.take_outbox().len() as u64;
    let m = rt.metrics();
    // Within-SLA fraction of the answered requests, by quantile bisection.
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        if m.rtt.quantile(mid) <= SLA_MS {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let within_sla = if m.rtt.count() == 0 { 0.0 } else { lo };
    let availability = within_sla * answered as f64 / requests.max(1) as f64;
    Cell {
        policy: label,
        requests,
        answered,
        availability,
        mttd_ms: if m.mttd_ms.count() == 0 {
            f64::NAN
        } else {
            m.mttd_ms.mean()
        },
        mttr_ms: if m.mttr_ms.count() == 0 {
            f64::NAN
        } else {
            m.mttr_ms.mean()
        },
        lost_in_crash: m.dropped_on_crash,
    }
}

/// Runs the policy sweep.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e12",
        tier,
        format!(
            "E12: self-healing under a fault storm \
             (MTBF {MTBF_SECS}s / outage {MTTR_SECS}s, SLA = {SLA_MS} ms RTT)"
        ),
        exact(&[
            "policy",
            "requests",
            "answered",
            "availability",
            "MTTD(ms)",
            "MTTR(ms)",
            "lost-in-crash",
        ]),
    );
    for policy in [
        RepairPolicy::None,
        RepairPolicy::RestartInPlace,
        RepairPolicy::FailoverMigrate,
    ] {
        let c = run_cell(policy);
        table.row(vec![
            c.policy.to_owned(),
            c.requests.to_string(),
            c.answered.to_string(),
            pct(c.availability),
            if c.mttd_ms.is_nan() {
                "-".into()
            } else {
                f2(c.mttd_ms)
            },
            if c.mttr_ms.is_nan() {
                "-".into()
            } else {
                f2(c.mttr_ms)
            },
            c.lost_in_crash.to_string(),
        ]);
    }
    // The hot self-healing primitives: one detector pass over 16 watched
    // nodes, one failover plan over the deployed system's snapshot.
    let period = SimDuration::from_millis(50);
    let mut detector = FailureDetector::new(DetectorConfig::new(period, 2.0, NodeId(0)));
    for n in 1..=16u32 {
        detector.watch(NodeId(n), SimTime::ZERO);
    }
    let mut at = SimTime::ZERO;
    table.note_ns_per_call("detector evaluate 16 nodes ns", 200_000, || {
        at += period;
        detector.evaluate(at)
    });
    let snap = build(RepairPolicy::None).observe();
    table.note_ns_per_call("failover plan_for ns", 200_000, || {
        RepairPolicy::FailoverMigrate.plan_for(NodeId(1), &snap)
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_repair_collapses_failover_stays_up() {
        let none = run_cell(RepairPolicy::None);
        let failover = run_cell(RepairPolicy::FailoverMigrate);
        assert!(
            none.availability < 0.5,
            "no-repair should collapse, got {:.3}",
            none.availability
        );
        assert!(
            failover.availability >= 0.99,
            "failover should hold ≥99%, got {:.3}",
            failover.availability
        );
        assert!(failover.mttr_ms > 0.0 && failover.mttr_ms < 1000.0);
    }

    #[test]
    fn restart_sits_between_the_extremes() {
        let none = run_cell(RepairPolicy::None);
        let restart = run_cell(RepairPolicy::RestartInPlace);
        let failover = run_cell(RepairPolicy::FailoverMigrate);
        assert!(
            restart.availability > none.availability,
            "restart {:.3} !> none {:.3}",
            restart.availability,
            none.availability
        );
        assert!(
            restart.availability < failover.availability,
            "restart {:.3} !< failover {:.3}",
            restart.availability,
            failover.availability
        );
        // Every cell lost some queued work to crashes, and the loss is
        // accounted rather than silent.
        assert!(restart.lost_in_crash > 0 || none.lost_in_crash > 0);
    }

    #[test]
    fn detection_latency_is_measured_and_bounded() {
        let c = run_cell(RepairPolicy::FailoverMigrate);
        assert!(c.mttd_ms > 0.0, "MTTD was measured");
        // Threshold 2.0 at a 50 ms heartbeat period fires after ≈230 ms of
        // silence; allow generous slack for EWMA widening.
        assert!(c.mttd_ms < 2000.0, "MTTD {} out of bounds", c.mttd_ms);
    }
}
