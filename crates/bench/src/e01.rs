//! E1 — adaptation vs reconfiguration under increasing change frequency.
//!
//! Paper claim (§2): dynamic adaptability is "light-weight \[and\] highly
//! reactive" and "should be preferred to dynamic reconfiguration … when
//! fast and frequent reactions are required".
//!
//! Harness: a 3-stage media pipeline carries 100 frames/s for 30 s of
//! virtual time. The same environmental change is applied every `interval`
//! by (a) connector interchange (adaptation) and (b) strong implementation
//! swap (reconfiguration). We report delivery latency and accumulated
//! blackout.

use crate::common::{frame, pipeline_runtime};
use crate::table::{exact, f2, Table, Tier};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_sim::time::{SimDuration, SimTime};

const HORIZON_SECS: u64 = 30;
const FRAME_GAP_MS: u64 = 10;

/// Result of one cell of the experiment.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Mechanism name.
    pub mechanism: &'static str,
    /// Change interval.
    pub interval: SimDuration,
    /// Frames delivered (out of the fixed offered count).
    pub delivered: u64,
    /// Mean frame latency (ms).
    pub mean_ms: f64,
    /// p99 frame latency (ms).
    pub p99_ms: f64,
    /// Total service blackout accumulated.
    pub blackout: SimDuration,
    /// Number of switches applied.
    pub switches: u64,
}

fn run_cell(interval: SimDuration, adapt: bool) -> Cell {
    let mut rt = pipeline_runtime(3, 42);
    let horizon = SimTime::from_secs(HORIZON_SECS);

    let mut t = SimDuration::ZERO;
    while SimTime::ZERO + t < horizon {
        rt.inject_after(t, "coder", frame(1000, 0.1))
            .expect("inject");
        t += SimDuration::from_millis(FRAME_GAP_MS);
    }

    let mut switches = 0u64;
    let mut at = SimTime::ZERO + interval;
    let mut flip = false;
    while at < horizon {
        rt.run_until(at);
        if adapt {
            let spec = if flip {
                ConnectorSpec::direct("s2").with_aspect(ConnectorAspect::Metering)
            } else {
                ConnectorSpec::direct("s2")
            };
            rt.adapt_connector("s2", spec).expect("adapt");
        } else {
            rt.request_reconfig(ReconfigPlan::single(ReconfigAction::SwapImplementation {
                name: "coder".into(),
                type_name: "Transcoder".into(),
                version: 1,
                transfer: StateTransfer::Snapshot,
            }));
        }
        flip = !flip;
        switches += 1;
        at += interval;
    }
    rt.run_until(horizon + SimDuration::from_secs(30));

    let snap = rt.observe();
    let sink = snap.component("sink").expect("sink");
    let blackout = rt
        .reports()
        .iter()
        .map(|r| r.max_blackout())
        .fold(SimDuration::ZERO, |a, b| a + b);
    Cell {
        mechanism: if adapt {
            "adaptation"
        } else {
            "reconfiguration"
        },
        interval,
        delivered: sink.processed,
        mean_ms: sink.mean_latency_ms,
        p99_ms: sink.p99_latency_ms,
        blackout,
        switches,
    }
}

/// Runs the full sweep and returns the result table.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e01",
        tier,
        "E1: adaptation vs reconfiguration — latency under change frequency",
        exact(&[
            "interval",
            "mechanism",
            "switches",
            "delivered",
            "mean(ms)",
            "p99(ms)",
            "blackout(ms)",
        ]),
    );
    for interval in [
        SimDuration::from_secs(10),
        SimDuration::from_secs(2),
        SimDuration::from_millis(500),
    ] {
        for adapt in [true, false] {
            let c = run_cell(interval, adapt);
            table.row(vec![
                interval.to_string(),
                c.mechanism.to_owned(),
                c.switches.to_string(),
                c.delivered.to_string(),
                f2(c.mean_ms),
                f2(c.p99_ms),
                f2(c.blackout.as_micros() as f64 / 1e3),
            ]);
        }
    }
    let mut rt = pipeline_runtime(3, 1);
    let mut flip = false;
    table.note_ns_per_call("connector interchange ns", 200_000, || {
        let spec = ConnectorSpec::direct("s2");
        flip = !flip;
        let spec = if flip {
            spec.with_aspect(ConnectorAspect::Metering)
        } else {
            spec
        };
        rt.adapt_connector("s2", spec).expect("adapt");
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptation_has_no_blackout_reconfiguration_does() {
        let interval = SimDuration::from_secs(2);
        let a = run_cell(interval, true);
        let r = run_cell(interval, false);
        assert_eq!(a.blackout, SimDuration::ZERO);
        assert!(r.blackout > SimDuration::ZERO);
        // Both deliver everything (channel preservation)...
        assert_eq!(a.delivered, r.delivered);
        // ...but reconfiguration's tail latency is worse.
        assert!(r.p99_ms >= a.p99_ms, "r {} vs a {}", r.p99_ms, a.p99_ms);
    }

    #[test]
    fn blackout_grows_with_change_frequency() {
        let slow = run_cell(SimDuration::from_secs(10), false);
        let fast = run_cell(SimDuration::from_millis(500), false);
        assert!(fast.blackout > slow.blackout);
        assert!(fast.switches > slow.switches);
    }
}
