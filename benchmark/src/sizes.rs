//! The five workloads and their fixed sizes.
//!
//! The sizes are part of the benchmark's definition: a number measured
//! with other sizes is not comparable. They are recorded in every result
//! file and tabulated in the README; change them only in a change that
//! redefines the baseline.

use crate::json::Json;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_030_519;
/// Seed kept away from tuning: a later performance claim must also hold
/// on it.
pub const HELD_OUT_SEED: u64 = 7_919;
/// Seed of the tiered grid. The grid, the transcoder hosts on it and the
/// storm that shakes them are the same on every run: a crash or a flap
/// flushes the route cache, and what the refill costs depends on where
/// the heartbeat monitor sits among the metros, so a grid drawn from
/// `--seed` moved `frames_per_s` by ±15% from seed to seed with nothing
/// changed in the program. `--seed` places the sources and sinks on the
/// edge tier, seeds the kernel, and draws the plan and injection streams:
/// it moves where the load sits, not how much of it there is.
pub const GRID_SEED: u64 = 2003;
/// Seed of the `aas-scenario` storm waves (see [`GRID_SEED`]). Outage
/// counts drawn per `--seed` are Poisson and spread host time 2–5×.
pub const STORM_SEED: u64 = 2003;
/// Width of one driver slice of virtual time, in milliseconds.
pub const SLICE_MS: u64 = 100;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Fault-free streaming: the data plane does all the work.
    SteadyStream,
    /// Crash and link-flap storm under failover repair, twin off.
    FaultStorm,
    /// The same storm recipe on a smaller grid with twin verification on.
    TwinRepair,
    /// Benchmark-injected overload arbitrated by the negotiator.
    OverloadNegotiated,
    /// Streaming while a seeded stream of reconfiguration plans executes.
    ReconfigChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SteadyStream,
        Workload::FaultStorm,
        Workload::TwinRepair,
        Workload::OverloadNegotiated,
        Workload::ReconfigChurn,
    ];

    /// The name used on the command line and in result files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyStream => "steady_stream",
            Workload::FaultStorm => "fault_storm",
            Workload::TwinRepair => "twin_repair",
            Workload::OverloadNegotiated => "overload_negotiated",
            Workload::ReconfigChurn => "reconfig_churn",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether faults are injected (frames may then be lost by design).
    #[must_use]
    pub fn has_faults(self) -> bool {
        matches!(self, Workload::FaultStorm | Workload::TwinRepair)
    }

    /// Whether every offered frame must reach its sink.
    #[must_use]
    pub fn is_lossless(self) -> bool {
        matches!(self, Workload::SteadyStream | Workload::ReconfigChurn)
    }
}

/// Sizes of one workload. Fields a workload does not use are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Nodes of the tiered grid (of the clique for `overload_negotiated`).
    pub nodes: u32,
    /// Source→transcoder→sink pipelines (transcoder agents for
    /// `overload_negotiated`).
    pub pipelines: usize,
    /// Sessions started on every source.
    pub sessions: u32,
    /// Nodes the transcoders are spread over.
    pub hosts: usize,
    /// Untimed virtual warm-up, milliseconds.
    pub warmup_ms: u64,
    /// Timed virtual window, milliseconds.
    pub timed_ms: u64,
    /// Virtual grace period after the sessions end, milliseconds.
    pub grace_ms: u64,
    /// Mean virtual seconds between crashes of one transcoder host.
    pub crash_mtbf_s: f64,
    /// Mean virtual seconds a crashed host stays down.
    pub crash_mttr_s: f64,
    /// Metro regions whose interior links flap (regions `1..=n`).
    pub flap_regions: u32,
    /// Links flapped per region.
    pub flap_links: usize,
    /// Mean virtual seconds between flaps of one link.
    pub flap_mtbf_s: f64,
    /// Mean virtual seconds a flapped link stays down.
    pub flap_mttr_s: f64,
    /// Offered load as a multiple of the hosts' service rate.
    pub overload: f64,
    /// Reconfiguration plans submitted per virtual second.
    pub plans_per_s: u32,
}

impl Sizes {
    const NONE: Sizes = Sizes {
        nodes: 0,
        pipelines: 0,
        sessions: 0,
        hosts: 0,
        warmup_ms: 0,
        timed_ms: 0,
        grace_ms: 0,
        crash_mtbf_s: 0.0,
        crash_mttr_s: 0.0,
        flap_regions: 0,
        flap_links: 0,
        flap_mtbf_s: 0.0,
        flap_mttr_s: 0.0,
        overload: 0.0,
        plans_per_s: 0,
    };

    /// The benchmark's sizes for `workload`.
    #[must_use]
    pub fn full(workload: Workload) -> Sizes {
        let grid = Sizes {
            nodes: 1000,
            pipelines: 64,
            sessions: 4,
            hosts: 8,
            warmup_ms: 2_000,
            grace_ms: 3_000,
            ..Sizes::NONE
        };
        let storm = Sizes {
            crash_mtbf_s: 8.0,
            crash_mttr_s: 2.0,
            flap_links: 2,
            flap_mtbf_s: 8.0,
            flap_mttr_s: 2.0,
            grace_ms: 8_000,
            ..grid.clone()
        };
        match workload {
            Workload::SteadyStream => Sizes {
                timed_ms: 30_000,
                ..grid
            },
            Workload::FaultStorm => Sizes {
                timed_ms: 13_000,
                flap_regions: 4,
                ..storm
            },
            Workload::TwinRepair => Sizes {
                nodes: 256,
                pipelines: 32,
                hosts: 4,
                timed_ms: 20_000,
                flap_regions: 2,
                ..storm
            },
            Workload::OverloadNegotiated => Sizes {
                nodes: 9,
                pipelines: 32,
                hosts: 4,
                warmup_ms: 1_000,
                timed_ms: 20_000,
                grace_ms: 3_000,
                overload: 4.8,
                ..Sizes::NONE
            },
            Workload::ReconfigChurn => Sizes {
                timed_ms: 15_000,
                plans_per_s: 300,
                ..grid
            },
        }
    }

    /// Tiny sizes for the smoke test: same shape, a fraction of the work.
    #[must_use]
    pub fn smoke(workload: Workload) -> Sizes {
        let full = Sizes::full(workload);
        let small = Sizes {
            warmup_ms: 500,
            timed_ms: 2_000,
            grace_ms: full.grace_ms.min(4_000),
            ..full
        };
        match workload {
            Workload::OverloadNegotiated => Sizes {
                pipelines: 8,
                hosts: 2,
                ..small
            },
            _ => Sizes {
                nodes: 96,
                pipelines: 8,
                sessions: 2,
                hosts: 2,
                flap_regions: small.flap_regions.min(1),
                ..small
            },
        }
    }

    /// Slices in the timed window.
    #[must_use]
    pub fn timed_slices(&self) -> u64 {
        self.timed_ms / SLICE_MS
    }

    /// The sizes as a JSON object for result files.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::from(u64::from(self.nodes))),
            ("pipelines", Json::from(self.pipelines as u64)),
            ("sessions", Json::from(u64::from(self.sessions))),
            ("hosts", Json::from(self.hosts as u64)),
            ("warmup_virtual_ms", Json::from(self.warmup_ms)),
            ("timed_virtual_ms", Json::from(self.timed_ms)),
            ("grace_virtual_ms", Json::from(self.grace_ms)),
            ("crash_mtbf_s", Json::Num(self.crash_mtbf_s)),
            ("crash_mttr_s", Json::Num(self.crash_mttr_s)),
            ("flap_regions", Json::from(u64::from(self.flap_regions))),
            ("flap_links", Json::from(self.flap_links as u64)),
            ("flap_mtbf_s", Json::Num(self.flap_mtbf_s)),
            ("flap_mttr_s", Json::Num(self.flap_mttr_s)),
            ("overload", Json::Num(self.overload)),
            ("plans_per_s", Json::from(u64::from(self.plans_per_s))),
        ])
    }
}
