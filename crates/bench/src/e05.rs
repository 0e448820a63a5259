//! E5 — geographical reconfiguration for load balancing.
//!
//! Paper claim (§1): geographical changes serve "load balancing, fault
//! tolerance, and adaptation to the fluctuation of available resources";
//! an alternative reconfiguration "host\[s\] components on a less loaded
//! hardware, so that the components can execute faster".
//!
//! Harness: eight workers all start on one node of a four-node cluster
//! (the hotspot). Under a steady request load, the *static* policy leaves
//! them there; the *rebalance* policy periodically migrates a worker from
//! the hottest to the coolest node. Reported: p99 request latency and
//! final node-utilization spread.

use crate::common::experiment_registry;
use crate::table::{exact, f2, f3, Table, Tier};
use aas_core::config::{ComponentDecl, Configuration};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::runtime::Runtime;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

const WORKERS: usize = 8;
const HORIZON_SECS: u64 = 30;

/// One measured policy at one load level.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Policy name.
    pub policy: &'static str,
    /// Offered requests/s.
    pub rate: u64,
    /// Mean RTT (ms).
    pub mean_ms: f64,
    /// p99 RTT (ms).
    pub p99_ms: f64,
    /// max-min node utilization at the end.
    pub spread: f64,
    /// Migrations performed.
    pub migrations: usize,
}

fn build(seed: u64) -> Runtime {
    let topo = Topology::clique(4, 400.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, experiment_registry());
    let mut cfg = Configuration::new();
    for i in 0..WORKERS {
        cfg.component(
            format!("w{i}"),
            ComponentDecl::new("Worker", 1, NodeId(0))
                .with_prop("cost", Value::Float(1.0))
                .with_prop("state_bytes", Value::Int(2_000)),
        );
    }
    rt.deploy(&cfg).expect("deploy");
    rt
}

/// Runs one policy at `rate` requests/s.
#[must_use]
pub fn run_cell(rebalance: bool, rate: u64) -> Cell {
    let mut rt = build(13);
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let gap = SimDuration::from_micros(1_000_000 / rate);
    let mut t = SimDuration::ZERO;
    let mut k = 0usize;
    while SimTime::ZERO + t < horizon {
        rt.inject_after(
            t,
            &format!("w{}", k % WORKERS),
            Message::request("work", Value::Null),
        )
        .expect("inject");
        t += gap;
        k += 1;
    }

    if rebalance {
        let mut at = SimTime::from_secs(1);
        while at < horizon {
            rt.run_until(at);
            let snap = rt.observe();
            let (hottest, coolest) = match (snap.hottest_node(), snap.coolest_node()) {
                (Some(h), Some(c)) => (h.clone(), c.clone()),
                _ => break,
            };
            if hottest.utilization - coolest.utilization > 0.1 {
                if let Some(victim) = snap.hosted(hottest.id).next() {
                    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
                        name: victim.name.to_string(),
                        to: coolest.id,
                    }));
                }
            }
            at += SimDuration::from_secs(1);
        }
    }
    rt.run_until(horizon + SimDuration::from_secs(120));

    let spread = rt.topology().utilization_spread(rt.now());
    Cell {
        policy: if rebalance { "rebalance" } else { "static" },
        rate,
        mean_ms: rt.metrics().rtt.mean(),
        p99_ms: rt.metrics().rtt.quantile(0.99),
        spread,
        migrations: rt.reports().iter().filter(|r| r.success).count(),
    }
}

/// Runs the sweep.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e05",
        tier,
        "E5: migration-based load balancing vs static placement",
        exact(&[
            "rate(req/s)",
            "policy",
            "mean(ms)",
            "p99(ms)",
            "util-spread",
            "migrations",
        ]),
    );
    for rate in [200u64, 400, 800] {
        for rebalance in [false, true] {
            let c = run_cell(rebalance, rate);
            table.row(vec![
                c.rate.to_string(),
                c.policy.to_owned(),
                f2(c.mean_ms),
                f2(c.p99_ms),
                f3(c.spread),
                c.migrations.to_string(),
            ]);
        }
    }
    let topo = Topology::clique(16, 100.0, SimDuration::from_millis(1), 1e6);
    table.note_ns_per_call("route 16-node clique ns", 200_000, || {
        topo.route(NodeId(0), NodeId(15), 1000)
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalancing_cuts_latency_and_spread_under_overload() {
        // 800 req/s * 1 unit = 800 u/s demand vs 400 u/s on one node:
        // the hotspot saturates; spread across 4 nodes it fits.
        let stat = run_cell(false, 800);
        let reb = run_cell(true, 800);
        assert!(reb.migrations > 0);
        assert!(
            reb.mean_ms < stat.mean_ms / 2.0,
            "rebalance {:.1}ms !<< static {:.1}ms",
            reb.mean_ms,
            stat.mean_ms
        );
        assert!(
            reb.spread < stat.spread,
            "spread {:.3} !< {:.3}",
            reb.spread,
            stat.spread
        );
    }
}
