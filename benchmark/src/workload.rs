//! Set-up of the five workloads: generate the inputs from the seed, write
//! them as ADL text, push that text through `aas-adl`, deploy the result
//! on a fresh [`Runtime`] and switch on the control planes the workload
//! needs. Everything here goes through the crates' public functions; the
//! spans around those calls are the per-layer set-up metrics.

use crate::sizes::{Sizes, Workload, GRID_SEED, SLICE_MS, STORM_SEED};
use crate::spans::Recorder;
use aas_adl::deploy::compile;
use aas_adl::parser::parse_system;
use aas_adl::validate::validate;
use aas_control::negotiate::{ObjectiveVector, ResourceVector, UtilityCurve};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{AgentProfile, CoordinationMode, NegotiateConfig, Runtime, TwinConfig};
use aas_scenario::{ScenarioSpec, StormWave};
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::network::{RegionId, Topology};
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use aas_topo::tiered::TieredSpec;
use aas_topo::tiers::Tier;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Codec ladder level of every source: the cheapest one, so that eight
/// transcoders fit a metro router (capacity 200) and one sink fits an
/// edge leaf (capacity 10) without queueing.
const CODEC_LEVEL: i64 = 0;
/// Work units per frame injected by `overload_negotiated`.
const OVERLOAD_FRAME_COST: f64 = 2.0;
/// Node capacity of the `overload_negotiated` clique, work units/second.
const CLIQUE_CAPACITY: f64 = 2000.0;
/// The node heartbeats converge on (a core node of the grid; the idle
/// injection node of the clique).
const MONITOR: NodeId = NodeId(0);

/// What the benchmark does at the start of every timed slice.
#[derive(Debug)]
pub enum Driver {
    /// Nothing: the sources generate the load.
    Idle,
    /// Inject `per_slice` frames at seeded offsets and targets.
    Overload {
        /// Offsets and targets.
        rng: SimRng,
        /// Frames per slice.
        per_slice: u32,
    },
    /// Submit the plans scheduled for the slice.
    Churn {
        /// `(slice, plan)` in slice order.
        plans: VecDeque<(u64, ReconfigPlan)>,
    },
}

/// A deployed workload, ready for warm-up.
#[derive(Debug)]
pub struct Deployed {
    /// The system under test.
    pub rt: Runtime,
    /// Copy of the deployed topology, for the bare-kernel probes.
    pub topology: Topology,
    /// Frame sources (none when the benchmark injects the frames).
    pub sources: Vec<String>,
    /// Transcoders.
    pub agents: Vec<String>,
    /// Frame sinks.
    pub sinks: Vec<String>,
    /// Registry names of the sources' `active_sessions` histograms. A
    /// source records its session count once per frame tick and emits that
    /// many frames, so the histograms' sums add up to the frames offered.
    pub source_meters: Vec<String>,
    /// Per-slice driver.
    pub driver: Driver,
    /// The fault schedule injected into the runtime, in time order.
    pub faults: Vec<(SimTime, FaultKind)>,
    /// The heartbeat monitor, when the failure detector is on.
    pub monitor: Option<NodeId>,
    /// Set-up metrics by name: host seconds and exact counts.
    pub layer: Vec<(&'static str, f64)>,
}

struct Pipeline {
    source: Option<NodeId>,
    agent: NodeId,
    sink: NodeId,
}

/// Renders a topology and its pipelines as ADL text. Nodes and links are
/// written in id order, so the compiled topology assigns the same ids.
fn render_adl(topo: &Topology, pipelines: &[Pipeline], aspects: &str) -> String {
    let mut s = String::with_capacity(64 * (topo.node_count() + topo.link_count()));
    s.push_str("system Bench {\n");
    let name = |n: NodeId| topo.node(n).spec().name.as_str();
    for node in topo.nodes() {
        let spec = node.spec();
        let _ = writeln!(
            s,
            "  node {} {{ capacity = {}; }}",
            spec.name, spec.capacity
        );
    }
    for link in topo.links() {
        let l = link.spec();
        let _ = writeln!(
            s,
            "  link {} -- {} {{ latency_ms = {}; bandwidth = {}; }}",
            name(l.a),
            name(l.b),
            l.latency.as_micros() as f64 / 1e3,
            l.bandwidth
        );
    }
    for (i, p) in pipelines.iter().enumerate() {
        if let Some(src) = p.source {
            let _ = writeln!(
                s,
                "  component src{i} : MediaSource v1 on {} {{ level = {CODEC_LEVEL}; }}",
                name(src)
            );
            let _ = writeln!(s, "  connector a{i} {{ policy direct;{aspects} }}");
            let _ = writeln!(s, "  bind src{i}.out -> a{i} -> tc{i}.in;");
        }
        let _ = writeln!(s, "  component tc{i} : Transcoder v1 on {}", name(p.agent));
        let _ = writeln!(s, "  component sink{i} : MediaSink v1 on {}", name(p.sink));
        let _ = writeln!(s, "  connector b{i} {{ policy direct;{aspects} }}");
        let _ = writeln!(s, "  bind tc{i}.out -> b{i} -> sink{i}.in;");
    }
    s.push_str("}\n");
    s
}

/// The storm of the two fault workloads (see [`STORM_SEED`]), shifted past
/// the warm-up.
fn build_storm(
    sizes: &Sizes,
    generated: &aas_topo::tiers::Generated,
    hosts: &[NodeId],
) -> Vec<(SimTime, FaultKind)> {
    let mut spec = ScenarioSpec::new(STORM_SEED, SimTime::from_micros(sizes.timed_ms * 1000), 1);
    spec.storms = vec![
        StormWave::node_crashes(hosts.to_vec(), sizes.crash_mtbf_s, sizes.crash_mttr_s),
        StormWave::region_flaps(
            (1..=sizes.flap_regions).map(RegionId).collect(),
            sizes.flap_mtbf_s,
            sizes.flap_mttr_s,
        )
        .with_links_per_region(sizes.flap_links),
    ];
    let shift = SimDuration::from_millis(sizes.warmup_ms);
    spec.build_generated(generated)
        .fault_entries()
        .into_iter()
        .map(|(at, kind)| (at + shift, kind))
        .collect()
}

/// The seeded plan stream of `reconfig_churn`. Every slice submits the
/// same mix (a migration, a snapshot swap, two connector swaps and two
/// plans validation must refuse, repeated); the seed draws the order and
/// the targets, so every seed does the same amount of plan work.
fn build_plans(sizes: &Sizes, seed: u64, hosts: &[NodeId]) -> VecDeque<(u64, ReconfigPlan)> {
    let mut rng = SimRng::seed_from(seed).split("bench.churn");
    let per_slice = u64::from(sizes.plans_per_s) * SLICE_MS / 1000;
    let mut plans = VecDeque::new();
    for slice in 0..sizes.timed_slices() {
        let mut kinds: Vec<u64> = (0..per_slice).map(|k| k % 6).collect();
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let i = rng.below(sizes.pipelines as u64);
            let action = match kind {
                0 => ReconfigAction::Migrate {
                    name: format!("tc{i}"),
                    to: hosts[rng.below(hosts.len() as u64) as usize],
                },
                1 => ReconfigAction::SwapImplementation {
                    name: format!("tc{i}"),
                    type_name: "Transcoder".into(),
                    version: 1,
                    transfer: StateTransfer::Snapshot,
                },
                2 | 3 => {
                    let name = format!("{}{i}", if kind == 2 { "a" } else { "b" });
                    let mut spec = ConnectorSpec::direct(name.clone())
                        .with_aspect(ConnectorAspect::SequenceCheck);
                    if rng.chance(0.5) {
                        spec = spec.with_aspect(ConnectorAspect::Metering);
                    }
                    ReconfigAction::SwapConnector { name, spec }
                }
                // Deliberately impossible: validation must refuse these
                // without touching the graph.
                4 => ReconfigAction::Migrate {
                    name: format!("ghost{i}"),
                    to: hosts[0],
                },
                _ => ReconfigAction::RemoveConnector {
                    name: format!("b{i}"),
                },
            };
            plans.push_back((slice, ReconfigPlan::single(action)));
        }
    }
    plans
}

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r
}

/// The frame `overload_negotiated` injects.
#[must_use]
pub fn overload_frame() -> Message {
    Message::event(
        "frame",
        Value::map([
            ("bytes", Value::Int(400)),
            ("cost", Value::Float(OVERLOAD_FRAME_COST)),
            ("quality", Value::Float(1.0)),
        ]),
    )
}

/// Builds and deploys `workload` from `seed`. Spans land in `rec` under
/// the caller's open `setup` span; warm-up is the caller's next step.
///
/// # Errors
///
/// Returns a description when the generated ADL does not parse, validate,
/// compile or deploy — an API drift in `crates/*`, reported not panicked.
pub fn deploy(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Deployed, String> {
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut place = SimRng::seed_from(seed).split("bench.place");
    let on_grid = workload != Workload::OverloadNegotiated;

    // Topology and placement.
    let open = rec.begin("topo.generate");
    let generated = on_grid.then(|| TieredSpec::sized(sizes.nodes).generate(GRID_SEED));
    let clique = (!on_grid).then(|| {
        Topology::clique(
            sizes.nodes as usize,
            CLIQUE_CAPACITY,
            SimDuration::from_millis(1),
            1e7,
        )
    });
    layer.push(("topo.generate_s", rec.end(open)));
    let source_topo = generated
        .as_ref()
        .map(|g| &g.topology)
        .or(clique.as_ref())
        .expect("one of the two was generated");
    layer.push(("topo.nodes", source_topo.node_count() as f64));
    layer.push(("topo.links", source_topo.link_count() as f64));

    let (pipelines, hosts): (Vec<Pipeline>, Vec<NodeId>) = match &generated {
        Some(g) => {
            let mut edges = g.nodes_of_tier(Tier::Edge);
            let routers = g.nodes_of_tier(Tier::Metro);
            place.shuffle(&mut edges);
            if edges.len() < 2 * sizes.pipelines || routers.len() < sizes.hosts {
                return Err(format!(
                    "grid of {} nodes is too small for {} pipelines on {} hosts",
                    sizes.nodes, sizes.pipelines, sizes.hosts
                ));
            }
            let stride = routers.len() / sizes.hosts;
            let hosts: Vec<NodeId> = routers
                .iter()
                .step_by(stride)
                .take(sizes.hosts)
                .copied()
                .collect();
            let pipelines = (0..sizes.pipelines)
                .map(|i| Pipeline {
                    source: Some(edges[i]),
                    agent: hosts[i % hosts.len()],
                    sink: edges[sizes.pipelines + i],
                })
                .collect();
            (pipelines, hosts)
        }
        None => {
            // Node 0 injects and monitors, the next `hosts` nodes carry
            // the transcoders, the rest carry the sinks.
            let hosts: Vec<NodeId> = (1..=sizes.hosts as u32).map(NodeId).collect();
            let sink_nodes: Vec<NodeId> =
                (sizes.hosts as u32 + 1..sizes.nodes).map(NodeId).collect();
            if sink_nodes.is_empty() {
                return Err("clique has no node left for the sinks".into());
            }
            let pipelines = (0..sizes.pipelines)
                .map(|i| Pipeline {
                    source: None,
                    agent: hosts[i % hosts.len()],
                    sink: sink_nodes[i % sink_nodes.len()],
                })
                .collect();
            (pipelines, hosts)
        }
    };

    // ADL: text out, deployment back.
    let aspects = if workload == Workload::ReconfigChurn {
        " aspect sequence_check; aspect metering;"
    } else {
        ""
    };
    let text = render_adl(source_topo, &pipelines, aspects);
    layer.push(("adl.source_bytes", text.len() as f64));
    let adl = rec.begin("adl.compile");
    let open = rec.begin("adl.parse");
    let parsed = parse_system(&text);
    layer.push(("adl.parse_s", rec.end(open)));
    let sys = parsed.map_err(|e| format!("generated ADL does not parse: {e}"))?;
    let open = rec.begin("adl.validate");
    let issues = validate(&sys);
    layer.push(("adl.validate_s", rec.end(open)));
    if let Some(issue) = issues.first() {
        let _ = rec.end(adl);
        return Err(format!("generated ADL does not validate: {issue}"));
    }
    let open = rec.begin("adl.lower");
    let compiled = compile(&sys);
    layer.push(("adl.compile_s", rec.end(open)));
    let _ = rec.end(adl);
    let mut deployment = compiled.map_err(|e| format!("generated ADL does not compile: {e}"))?;
    if deployment.topology.node_count() != source_topo.node_count()
        || deployment.topology.link_count() != source_topo.link_count()
    {
        return Err("compiled topology differs from the generated one".into());
    }
    // The ADL has no word for regions; carry them over so the probes can
    // switch hierarchical routing on.
    for node in source_topo.node_ids() {
        if let Some(region) = source_topo.region_of(node) {
            deployment.topology.set_node_region(node, region);
        }
    }

    // Fault schedule and plan stream.
    let open = rec.begin("scenario.build");
    let faults = match (&generated, workload.has_faults()) {
        (Some(g), true) => build_storm(sizes, g, &hosts),
        _ => Vec::new(),
    };
    let driver = match workload {
        Workload::ReconfigChurn => Driver::Churn {
            plans: build_plans(sizes, seed, &hosts),
        },
        Workload::OverloadNegotiated => {
            let service_rate = sizes.hosts as f64 * CLIQUE_CAPACITY / OVERLOAD_FRAME_COST;
            Driver::Overload {
                rng: SimRng::seed_from(seed).split("bench.overload"),
                per_slice: (sizes.overload * service_rate * SLICE_MS as f64 / 1e3).round() as u32,
            }
        }
        _ => Driver::Idle,
    };
    layer.push(("scenario.build_s", rec.end(open)));
    layer.push(("scenario.faults", faults.len() as f64));
    layer.push((
        "scenario.plans",
        match &driver {
            Driver::Churn { plans } => plans.len() as f64,
            _ => 0.0,
        },
    ));

    // Deploy and configure.
    let open = rec.begin("core.deploy");
    let topology = deployment.topology.clone();
    let mut rt = Runtime::new(deployment.topology, seed, registry());
    rt.deploy(&deployment.configuration)
        .map_err(|e| format!("deploy failed: {e}"))?;
    let mut monitor = None;
    if workload.has_faults() {
        rt.set_fail_stop(true);
        rt.set_repair_policy(RepairPolicy::FailoverMigrate);
        rt.enable_failure_detector(DetectorConfig::new(
            SimDuration::from_millis(100),
            3.0,
            MONITOR,
        ));
        monitor = Some(MONITOR);
        let mut schedule = FaultSchedule::new();
        for (at, kind) in &faults {
            schedule.at(*at, *kind);
        }
        rt.inject_faults(schedule);
    }
    if workload == Workload::TwinRepair {
        rt.enable_twin(TwinConfig::default());
    }
    if workload == Workload::OverloadNegotiated {
        configure_negotiation(&mut rt, sizes);
    }
    let names = |prefix: &str| -> Vec<String> {
        (0..sizes.pipelines)
            .map(|i| format!("{prefix}{i}"))
            .collect()
    };
    let sources = if on_grid { names("src") } else { Vec::new() };
    for src in &sources {
        let sent = rt
            .inject(src, Message::event("init", Value::Null))
            .and_then(|_| {
                (0..sizes.sessions).try_for_each(|_| {
                    rt.inject(src, Message::event("session_start", Value::Null))
                        .map(|_| ())
                })
            });
        sent.map_err(|e| format!("starting sessions on {src} failed: {e}"))?;
    }
    layer.push(("core.deploy_s", rec.end(open)));

    let source_meters = sources
        .iter()
        .map(|src| format!("comp.{src}.active_sessions"))
        .collect();
    Ok(Deployed {
        rt,
        topology,
        sources,
        agents: names("tc"),
        sinks: names("sink"),
        source_meters,
        driver,
        faults,
        monitor,
        layer,
    })
}

/// Mixed priorities and floors over the transcoders, exempt sinks, a
/// budget equal to the hosts' service rate, and the GORNA tick at 50 ms.
fn configure_negotiation(rt: &mut Runtime, sizes: &Sizes) {
    for i in 0..sizes.pipelines {
        let profile = match i % 3 {
            0 => AgentProfile {
                priority: 3,
                objectives: ObjectiveVector {
                    latency: 2.0,
                    availability: 2.0,
                    cost: 0.5,
                },
                curve: UtilityCurve::Diminishing { knee: 0.5 },
                floor_fraction: 0.10,
                exempt: false,
            },
            1 => AgentProfile {
                priority: 2,
                floor_fraction: 0.08,
                ..AgentProfile::default()
            },
            _ => AgentProfile {
                priority: 1,
                floor_fraction: 0.05,
                ..AgentProfile::default()
            },
        };
        rt.set_agent_profile(&format!("tc{i}"), profile);
        rt.set_agent_profile(
            &format!("sink{i}"),
            AgentProfile {
                exempt: true,
                ..AgentProfile::default()
            },
        );
    }
    rt.enable_negotiation(NegotiateConfig {
        interval: SimDuration::from_millis(50),
        budget: ResourceVector {
            capacity: sizes.pipelines as f64,
            work_rate: sizes.hosts as f64 * CLIQUE_CAPACITY / OVERLOAD_FRAME_COST,
            retry_budget: 64.0,
            twin_horizon: 4.0,
        },
        mode: CoordinationMode::Negotiated,
        nominal_cost: OVERLOAD_FRAME_COST,
        floor_fraction: 0.05,
        ..NegotiateConfig::default()
    });
}
