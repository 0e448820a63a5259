//! The benchmark's definition in one place: workloads with the reason for
//! each, end-to-end metrics with unit, direction and bound, per-layer
//! metrics with unit, direction and the end-to-end metric each should
//! move. `BENCHMARK.json` is rendered from this module (`manifest`
//! subcommand) and a test keeps the two in step.

use crate::json::Json;
use crate::sizes::Workload;

/// Host seconds one run spends on untraced trials (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name in result files.
    pub name: &'static str,
    /// Unit; names host or virtual time where a time is involved.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// True when two trials of one seed must agree on it exactly.
    pub deterministic: bool,
}

/// The six end-to-end metrics, defined on every workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "frames_per_s",
        unit: "frames/ref_s",
        better: Better::Higher,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "allocs_per_msg",
        unit: "allocs/msg",
        better: Better::Lower,
        bound: 0.02,
        deterministic: true,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.02,
        deterministic: true,
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "virtual_ms",
        better: Better::Lower,
        bound: 0.15,
        deterministic: true,
    },
    EndToEnd {
        name: "goodput_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        deterministic: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name: crate prefix, then the quantity.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction in which a change to the layer is expected to help.
    pub better: Better,
    /// The end-to-end metric this one should move, and where.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s, all workloads";
const DATA: &str = "frames_per_s on steady_stream";
const LOSS: &str = "goodput_ratio on fault_storm, twin_repair, overload_negotiated";
const EXEC: &str = "frames_per_s and sim_p99_ms on reconfig_churn; flat on steady_stream";
const HEAL: &str = "frames_per_s and goodput_ratio on fault_storm";
const TWIN: &str = "frames_per_s and peak_heap_mb on twin_repair only";
const NEGO: &str = "frames_per_s and goodput_ratio on overload_negotiated";
const ROUTE: &str = "frames_per_s on fault_storm; at most the kernel's share on steady_stream";
const HEAP: &str = "allocs_per_msg and peak_heap_mb on overload_negotiated, reconfig_churn";
const GOOD: &str = "goodput_ratio, all workloads";

use Better::{Higher, Lower};

/// The per-layer metrics a traced run reports.
pub const PER_LAYER: [PerLayer; 77] = [
    layer("topo.generate_s", "host_s", Lower, SETUP),
    layer("topo.nodes", "count", Lower, SETUP),
    layer("topo.links", "count", Lower, SETUP),
    layer("adl.parse_s", "host_s", Lower, SETUP),
    layer("adl.validate_s", "host_s", Lower, SETUP),
    layer("adl.compile_s", "host_s", Lower, SETUP),
    layer("adl.source_bytes", "bytes", Lower, SETUP),
    layer("scenario.build_s", "host_s", Lower, SETUP),
    layer("scenario.faults", "count", Lower, SETUP),
    layer("scenario.plans", "count", Lower, SETUP),
    layer("core.deploy_s", "host_s", Lower, SETUP),
    layer("core.warmup_s", "host_s", Lower, SETUP),
    layer("core.run_s", "host_s", Lower, DATA),
    layer("core.inject_s", "host_s", Lower, NEGO),
    layer("core.ns_per_delivery", "host_ns", Lower, DATA),
    layer("core.run.slice_ms_p50", "host_ms", Lower, DATA),
    layer("core.run.slice_ms_tail", "host_ms", Lower, DATA),
    layer("core.run.slice_tail_pct", "percentile", Higher, DATA),
    layer("core.run.slice_ms_max", "host_ms", Lower, DATA),
    layer("core.delivered", "count", Higher, DATA),
    layer("core.dropped", "count", Lower, LOSS),
    layer("core.unrouted", "count", Lower, LOSS),
    layer("core.shed", "count", Lower, LOSS),
    layer("core.retries", "count", Lower, LOSS),
    layer("core.dropped_on_crash", "count", Lower, LOSS),
    layer("core.handler_errors", "count", Lower, LOSS),
    layer("core.observe_s", "host_s", Lower, DATA),
    layer("core.exec.request_s", "host_s", Lower, EXEC),
    layer("core.exec.submitted", "count", Higher, EXEC),
    layer("core.exec.committed", "count", Higher, EXEC),
    layer("core.exec.rejected", "count", Lower, EXEC),
    layer("core.exec.rolled_back", "count", Lower, EXEC),
    layer("core.exec.blackout_ms_max", "virtual_ms", Lower, EXEC),
    layer("core.detect.heartbeats", "count", Lower, HEAL),
    layer("core.detect.suspicions", "count", Lower, HEAL),
    layer("core.heal.repairs", "count", Higher, HEAL),
    layer("core.heal.mttd_ms_mean", "virtual_ms", Lower, HEAL),
    layer("core.heal.mttr_ms_mean", "virtual_ms", Lower, HEAL),
    layer("core.twin.fork_s", "host_s", Lower, TWIN),
    layer("core.twin.fork_heap_mb", "MiB", Lower, TWIN),
    layer("core.twin.decisions", "count", Lower, TWIN),
    layer("core.negotiate.rounds", "count", Higher, NEGO),
    layer("core.negotiate.granted", "count", Higher, NEGO),
    layer("core.negotiate.denied", "count", Lower, NEGO),
    layer("core.negotiate.jain", "ratio", Higher, NEGO),
    layer("control.negotiate_ns", "host_ns", Lower, NEGO),
    layer("control.agents", "count", Lower, NEGO),
    layer("sim.sent", "count", Lower, ROUTE),
    layer("sim.delivered", "count", Higher, ROUTE),
    layer("sim.dropped", "count", Lower, LOSS),
    layer("sim.held", "count", Lower, EXEC),
    layer("sim.released", "count", Higher, EXEC),
    layer("sim.faults_applied", "count", Lower, ROUTE),
    layer("sim.events_per_frame", "events/frame", Lower, DATA),
    layer("sim.replay.ns_per_event", "host_ns", Lower, ROUTE),
    layer("sim.replay.events_per_s", "events/host_s", Higher, ROUTE),
    layer(
        "sim.replay_sharded.events_per_s",
        "events/host_s",
        Higher,
        ROUTE,
    ),
    layer("sim.replay_sharded.windows", "count", Lower, ROUTE),
    layer("sim.route.hits", "count", Higher, ROUTE),
    layer("sim.route.misses", "count", Lower, ROUTE),
    layer("sim.route.invalidations", "count", Lower, ROUTE),
    layer("sim.route.settled", "count", Lower, ROUTE),
    layer("sim.route.hit_ratio", "ratio", Higher, ROUTE),
    layer("sim.route_hier.settled", "count", Lower, ROUTE),
    layer("sim.fork_s", "host_s", Lower, TWIN),
    layer("obs.audit_entries", "count", Lower, HEAP),
    layer("obs.metric_series", "count", Lower, HEAP),
    layer("obs.export_s", "host_s", Lower, HEAP),
    layer("obs.trace_overhead", "ratio", Lower, HEAP),
    layer("obs.trace_coverage", "ratio", Higher, HEAP),
    layer("bench.allocs", "count", Lower, HEAP),
    layer("bench.alloc_bytes", "bytes", Lower, HEAP),
    layer("bench.host_speed", "ratio", Higher, DATA),
    layer("telecom.frames_offered", "count", Higher, GOOD),
    layer("telecom.frames_sunk", "count", Higher, GOOD),
    layer("telecom.frames_lost", "count", Lower, GOOD),
    layer("telecom.seq_anomalies", "count", Lower, GOOD),
];

/// Why each workload is in the benchmark, in one line.
#[must_use]
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::SteadyStream => {
            "the data plane (core dispatch, sim kernel, telecom components) does all the work and every adaptive layer is idle: control-plane changes must read no change here"
        }
        Workload::FaultStorm => {
            "heartbeats, route-cache flushes with whole-graph recomputes, and repair planning dominate: routing, detector and heal work shows here and not in steady_stream"
        }
        Workload::TwinRepair => {
            "the storm recipe on a small grid with twin verification on: fork_twin and the forks' play-forward are the largest share, isolating the twin layer"
        }
        Workload::OverloadNegotiated => {
            "negotiator, situational model, shedding path and audit log do most of the work on a trivial topology where routing costs nothing"
        }
        Workload::ReconfigChurn => {
            "write beside read: the dispatch and binding structures steady_stream only reads are blocked, rebound and rolled back here at 300 plans per virtual second"
        }
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
#[must_use]
pub fn manifest() -> Json {
    let text = |s: &str| Json::from(s);
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .into_iter()
                .map(text)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| Json::obj([("name", text(w.name())), ("why", text(why(w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(!m.moves.is_empty());
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for w in Workload::ALL {
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_the_rendered_catalogue() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate it with the `manifest` subcommand"
        );
    }
}
