//! Region-scoped routing through the `Runtime`: exact end to end, and a
//! tenth of the search work.
//!
//! One tiered-grid deployment — media pipelines, the failure detector,
//! `FailoverMigrate` and a fixed storm of node crashes and region-interior
//! link flaps — runs through two runtimes. One gets the generator's
//! topology, whose full region map makes `Runtime` route through the
//! region-scoped router; the other a copy rebuilt node by node and link by
//! link without the map, which keeps the flat epoch-flushed cache. Every
//! route either serves is a shortest one, so everything an operator can
//! read of the two runs must be equal; what differs is what routing cost,
//! and that is gated on the settled-node count, which no host moves.
//!
//! A migration prices its state transfer through the same router, so a
//! second case drives one seeded stream of `Migrate` plans through both
//! runtimes and holds every transfer delay to a fresh `Topology::route`.

use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, ReconfigReport};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{RouteStats, Runtime};
use aas_sim::fault::FaultSchedule;
use aas_sim::network::{RegionId, Topology};
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use aas_topo::tiered::TieredSpec;
use aas_topo::tiers::{Generated, Tier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PIPELINES: usize = 12;
const HOSTS: usize = 3;
/// The detector's monitor: a core node, so heartbeats cross regions.
const MONITOR: NodeId = NodeId(0);
/// Nodes the mapped run may settle. Measured when this file was written:
/// 28,710 in 324 searches for 4,398 misses (the unmapped run: 566,723 in
/// 6,748). A router that starts one search per miss again, or flushes on
/// every flap, is far above it.
const MAPPED_SETTLED_MAX: u64 = 32_000;

/// The same nodes and links in the same order, and no region map.
fn without_region_map(mapped: &Topology) -> Topology {
    let mut flat = Topology::new();
    for node in mapped.nodes() {
        flat.add_node(node.spec().clone());
    }
    for link in mapped.links() {
        flat.add_link(link.spec().clone());
    }
    assert_eq!(flat.region_count(), 0);
    flat
}

/// Transcoders on every `stride`-th metro router, sources and sinks on
/// edge leaves spread over the metros.
fn configuration(grid: &Generated) -> (Configuration, Vec<NodeId>) {
    let routers = grid.nodes_of_tier(Tier::Metro);
    let edges = grid.nodes_of_tier(Tier::Edge);
    let hosts: Vec<NodeId> = routers
        .iter()
        .step_by(routers.len() / HOSTS)
        .take(HOSTS)
        .copied()
        .collect();
    let stride = edges.len() / (2 * PIPELINES);
    let mut cfg = Configuration::new();
    cfg.connector(ConnectorSpec::direct("wire"));
    for i in 0..PIPELINES {
        let mut source = ComponentDecl::new("MediaSource", 1, edges[2 * i * stride]);
        source.props.insert("level".into(), Value::Int(0));
        cfg.component(format!("src{i}"), source);
        cfg.component(
            format!("tc{i}"),
            ComponentDecl::new("Transcoder", 1, hosts[i % HOSTS]),
        );
        cfg.component(
            format!("sink{i}"),
            ComponentDecl::new("MediaSink", 1, edges[(2 * i + 1) * stride]),
        );
        cfg.bind(BindingDecl::new(
            format!("src{i}"),
            "out",
            "wire",
            format!("tc{i}"),
            "in",
        ));
        cfg.bind(BindingDecl::new(
            format!("tc{i}"),
            "out",
            "wire",
            format!("sink{i}"),
            "in",
        ));
    }
    (cfg, hosts)
}

/// Two transcoder hosts crash and recover; in each of regions 1-3 two
/// interior links flap, staggered so that recoveries (which stale every
/// memoized route) and degradations (which stale only crossing ones)
/// interleave with the repairs.
fn storm(topo: &Topology, hosts: &[NodeId]) -> FaultSchedule {
    let ms = SimTime::from_millis;
    let mut schedule = FaultSchedule::new();
    schedule.node_outage(hosts[0], ms(2_050), ms(4_050));
    schedule.node_outage(hosts[1], ms(5_250), ms(7_250));
    for region in 1..=3u32 {
        let interior = topo
            .links()
            .filter(|l| {
                let s = l.spec();
                topo.region_of(s.a) == Some(RegionId(region))
                    && topo.region_of(s.b) == Some(RegionId(region))
            })
            .map(|l| l.id());
        for (k, link) in interior.step_by(17).take(2).enumerate() {
            let from = 1_500 + 1_300 * u64::from(region) + 2_900 * k as u64;
            schedule.link_outage(link, ms(from), ms(from + 1_700));
        }
    }
    schedule
}

/// Everything an operator can read of a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `RuntimeMetrics`, every histogram's buckets, sum, min and max
    /// included, rendered with round-trip float formatting.
    metrics: String,
    kernel_counters: String,
    reports: Vec<ReconfigReport>,
    graph: String,
}

fn run(topology: Topology, cfg: &Configuration, faults: FaultSchedule) -> (Outcome, RouteStats) {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let mut rt = Runtime::new(topology, 16, registry);
    rt.deploy(cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(100),
        3.0,
        MONITOR,
    ));
    rt.inject_faults(faults);
    for i in 0..PIPELINES {
        let src = format!("src{i}");
        rt.inject(&src, Message::event("init", Value::Null))
            .expect("inject");
        for _ in 0..2 {
            rt.inject(&src, Message::event("session_start", Value::Null))
                .expect("inject");
        }
    }
    rt.run_until(SimTime::from_secs(12));
    let outcome = Outcome {
        metrics: format!("{:?}", rt.metrics()),
        kernel_counters: format!("{:?}", rt.kernel_counters()),
        reports: rt.reports().to_vec(),
        graph: rt.graph_fingerprint(),
    };
    (outcome, rt.route_stats())
}

#[test]
fn mapped_and_unmapped_runs_agree_and_the_mapped_one_settles_a_tenth() {
    let grid = TieredSpec::sized(400).generate(16);
    assert!(grid.topology.regions_fully_assigned());
    let (cfg, hosts) = configuration(&grid);
    // The storm is drawn from the mapped topology both times: link and
    // node ids are the same in the copy.
    let faults = || storm(&grid.topology, &hosts);
    let unmapped_topology = without_region_map(&grid.topology);

    let (mapped, mapped_stats) = run(grid.topology.clone(), &cfg, faults());
    let (unmapped, unmapped_stats) = run(unmapped_topology, &cfg, faults());

    // The scenario exercised what it is here for.
    let metrics = mapped.metrics.as_str();
    assert!(!mapped.reports.is_empty(), "no repair ran: {metrics}");
    assert!(
        mapped.reports.iter().any(|r| !r.migrated.is_empty()),
        "no failover migrated anything"
    );
    assert!(
        mapped_stats.cell_rebuilds > 0,
        "the mapped run did not route by region: {mapped_stats:?}"
    );
    assert_eq!(
        unmapped_stats.cell_rebuilds, 0,
        "the unmapped run must keep the flat cache: {unmapped_stats:?}"
    );
    assert!(
        unmapped_stats.stale_evictions >= 16,
        "every flap flushes the flat cache: {unmapped_stats:?}"
    );

    // Exactness, end to end.
    assert_eq!(mapped, unmapped);

    // The work gate.
    assert!(
        mapped_stats.searches < mapped_stats.misses,
        "misses to one destination must share a search: {mapped_stats:?}"
    );
    assert!(
        mapped_stats.settled <= MAPPED_SETTLED_MAX,
        "mapped run settled {} nodes (pinned at {MAPPED_SETTLED_MAX}): {mapped_stats:?}",
        mapped_stats.settled
    );
    assert!(
        mapped_stats.settled * 10 <= unmapped_stats.settled,
        "mapped {mapped_stats:?} vs unmapped {unmapped_stats:?}"
    );
}

/// What the topology does around one migration of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Around {
    Calm,
    /// The source node is down: the state comes from its checkpoint and
    /// nothing is routed.
    SourceDown,
    /// The middle link of the calm route is down: the transfer detours.
    LinkDown,
    /// Every link of the target is down: the target is up and unreachable.
    TargetCutOff,
}

#[derive(Debug, Clone, Copy)]
struct Move {
    mover: usize,
    to: NodeId,
    around: Around,
}

const MOVERS: usize = 6;

fn moves(seed: u64, nodes: usize) -> Vec<Move> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let kinds = [
        Around::Calm,
        Around::SourceDown,
        Around::LinkDown,
        Around::TargetCutOff,
    ];
    (0..48)
        .map(|i| Move {
            mover: rng.random_range(0..MOVERS as u64) as usize,
            to: NodeId(rng.random_range(0..nodes as u64) as u32),
            around: kinds[i % kinds.len()],
        })
        .collect()
}

/// What a runtime made of the stream.
struct Migrated {
    reports: Vec<ReconfigReport>,
    graph: String,
    /// Migrations that asked the router for a route.
    routed: u64,
    stats: RouteStats,
}

/// Drives `moves` through a runtime of idle transcoders, one plan at a
/// time, each inside its own fault window.
fn migrate(topology: Topology, moves: &[Move]) -> Migrated {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    let mut rt = Runtime::new(topology, 16, registry);
    let mut cfg = Configuration::new();
    for i in 0..MOVERS {
        let at = NodeId(i as u32 * 50);
        cfg.component(format!("m{i}"), ComponentDecl::new("Transcoder", 1, at));
    }
    rt.deploy(&cfg).expect("deploy");

    let mut routed = 0;
    for (i, mv) in moves.iter().enumerate() {
        // A second of its own each: down at 1 ms, submitted at 2 ms, back
        // up at 400 ms.
        let ms = |ms| SimTime::from_millis(1_000 * i as u64 + ms);
        let name = format!("m{}", mv.mover);
        let from = rt.node_of(&name).expect("deployed");
        let calm = rt.topology().route(from, mv.to, 0).expect("connected");
        let (down, up) = (ms(1), ms(400));
        let mut faults = FaultSchedule::new();
        match mv.around {
            Around::Calm => {}
            Around::SourceDown => {
                faults.node_outage(from, down, up);
            }
            Around::LinkDown => {
                if let Some(&link) = calm.links.get(calm.links.len() / 2) {
                    faults.link_outage(link, down, up);
                }
            }
            Around::TargetCutOff => {
                for link in rt.topology().links() {
                    if link.spec().a == mv.to || link.spec().b == mv.to {
                        faults.link_outage(link.id(), down, up);
                    }
                }
            }
        }
        rt.inject_faults(faults);
        rt.run_until(ms(2));

        let done = rt.reports().len();
        rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
            name,
            to: mv.to,
        }));
        // The transfer ends and the faults still hold.
        rt.run_until(ms(300));
        let report = &rt.reports()[done];
        let fresh = rt
            .topology()
            .route(from, mv.to, report.state_bytes_transferred);
        match mv.around {
            Around::SourceDown => assert!(report.success, "{mv:?}: {report:?}"),
            Around::TargetCutOff if from != mv.to => {
                assert!(fresh.is_none() && !report.success, "{mv:?}: {report:?}");
                routed += 1;
            }
            _ => {
                let fresh = fresh.expect("one link down at most");
                assert!(report.success, "{mv:?}: {report:?}");
                assert_eq!(report.duration(), fresh.transit, "{mv:?}");
                if mv.around == Around::LinkDown && from != mv.to {
                    assert_ne!(fresh.links, calm.links, "{mv:?} took the downed link");
                }
                routed += 1;
            }
        }
        rt.run_until(ms(999));
    }
    Migrated {
        reports: rt.reports().to_vec(),
        graph: rt.graph_fingerprint(),
        routed,
        stats: rt.route_stats(),
    }
}

#[test]
fn migrations_are_priced_alike_by_both_routers_and_as_a_fresh_search_would() {
    let grid = TieredSpec::sized(400).generate(16);
    let moves = moves(19, grid.topology.node_count());

    let mapped = migrate(grid.topology.clone(), &moves);
    let unmapped = migrate(without_region_map(&grid.topology), &moves);

    assert_eq!(mapped.reports, unmapped.reports);
    assert_eq!(mapped.graph, unmapped.graph);
    assert!(
        mapped.reports.iter().any(|r| !r.success),
        "no target was cut off"
    );
    // Nothing else sends here, so what the routers answered is the
    // migrations: they count in `route_stats()`.
    for run in [&mapped, &unmapped] {
        let stats = run.stats;
        assert_eq!(stats.hits + stats.misses, run.routed, "{stats:?}");
    }
    assert!(mapped.stats.cell_rebuilds > 0, "{:?}", mapped.stats);
    assert_eq!(unmapped.stats.cell_rebuilds, 0, "{:?}", unmapped.stats);
}
