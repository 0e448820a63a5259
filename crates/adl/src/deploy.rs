//! Compilation of a validated system declaration into deployable artifacts:
//! an `aas-sim` topology, an `aas-core` configuration, behavioural
//! constraints, and a RAML meta-level executing the system's interaction
//! rules — "the descriptions of applications … automate the deployment
//! process" (UniCon/Olan/Aster/C2 lineage).
//!
//! Components placed `on auto` go through the placement planner: greedy
//! load-balanced assignment under memory constraints, refined by local
//! search — the paper's deployment concern of "load balancing and
//! performance".

use crate::ast::{ActionDecl, AspectAst, Placement, PolicyAst, SystemDecl, TemporalOp};
use crate::rules::RuleMonitor;
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec, RoutingPolicy};
use aas_core::lts::{Label, Lts};
use aas_core::raml::{Constraint, Intercession, Raml, Rule, SystemSnapshot};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_sim::link::LinkSpec;
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::time::{SimDuration, SimTime};
use core::fmt;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A compile-time problem (references are expected to have been validated;
/// these are the residual failure modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A referenced node is not declared.
    UnknownNode(String),
    /// No node can host a component (memory exhausted everywhere).
    Unplaceable(String),
    /// The system declares no nodes but has components.
    NoNodes,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            CompileError::Unplaceable(c) => {
                write!(f, "no node can host component `{c}`")
            }
            CompileError::NoNodes => f.write_str("system declares components but no nodes"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiled deployment.
#[derive(Debug)]
pub struct Deployment {
    /// The simulated topology.
    pub topology: Topology,
    /// The component/connector/binding configuration.
    pub configuration: Configuration,
    /// Behavioural constraints for RAML.
    pub constraints: Vec<Constraint>,
    /// Node name → id mapping.
    pub node_ids: BTreeMap<String, NodeId>,
    /// Final component placements (including planner decisions).
    pub placements: BTreeMap<String, NodeId>,
}

/// Compiles a system declaration.
///
/// # Errors
///
/// Returns [`CompileError`] for unresolvable placements.
pub fn compile(sys: &SystemDecl) -> Result<Deployment, CompileError> {
    if sys.nodes.is_empty() && !sys.components.is_empty() {
        return Err(CompileError::NoNodes);
    }

    // Topology.
    let mut topology = Topology::new();
    let mut node_ids = BTreeMap::new();
    for n in &sys.nodes {
        let id = topology.add_node(NodeSpec::new(n.name.clone(), n.capacity).with_memory(n.memory));
        node_ids.insert(n.name.clone(), id);
    }
    for l in &sys.links {
        let a = *node_ids
            .get(&l.a)
            .ok_or_else(|| CompileError::UnknownNode(l.a.clone()))?;
        let b = *node_ids
            .get(&l.b)
            .ok_or_else(|| CompileError::UnknownNode(l.b.clone()))?;
        topology.add_link(LinkSpec::new(
            a,
            b,
            SimDuration::from_secs_f64(l.latency_ms / 1e3),
            l.bandwidth,
        ));
    }

    // Placement.
    let placements = plan_placement(sys, &node_ids)?;

    // Configuration.
    let mut configuration = Configuration::new();
    for c in &sys.components {
        let node = placements[&c.name];
        let mut decl = ComponentDecl::new(c.type_name.clone(), c.version, node);
        decl.props = c.props.clone();
        configuration.component(c.name.clone(), decl);
    }
    for c in &sys.connectors {
        configuration.connector(connector_spec(c));
    }
    for b in &sys.bindings {
        configuration.bind(BindingDecl {
            from: b.from.clone(),
            via: b.via.clone(),
            to: b.to.clone(),
        });
    }

    // Constraints.
    let mut constraints = Vec::new();
    for c in &sys.constraints {
        let limit = c.limit.unwrap_or(0.0);
        let constraint = match c.kind.as_str() {
            "max_mean_latency" => Constraint::MaxMeanLatencyMs {
                component: c.subject.clone(),
                limit_ms: limit,
            },
            "max_p99_latency" => Constraint::MaxP99LatencyMs {
                component: c.subject.clone(),
                limit_ms: limit,
            },
            "max_error_rate" => Constraint::MaxErrorRate {
                component: c.subject.clone(),
                limit,
            },
            "max_node_utilization" => Constraint::MaxNodeUtilization {
                node: *node_ids
                    .get(&c.subject)
                    .ok_or_else(|| CompileError::UnknownNode(c.subject.clone()))?,
                limit,
            },
            "no_sequence_anomalies" => Constraint::NoSequenceAnomalies {
                component: c.subject.clone(),
            },
            _ => continue, // validation already flagged it
        };
        constraints.push(constraint);
    }

    Ok(Deployment {
        topology,
        configuration,
        constraints,
        node_ids,
        placements,
    })
}

fn connector_spec(c: &crate::ast::ConnectorDeclAst) -> ConnectorSpec {
    let mut spec = ConnectorSpec::direct(c.name.clone()).with_policy(match c.policy {
        PolicyAst::Direct => RoutingPolicy::Direct,
        PolicyAst::RoundRobin => RoutingPolicy::RoundRobin,
        PolicyAst::Broadcast => RoutingPolicy::Broadcast,
    });
    for a in &c.aspects {
        let aspect = match a {
            AspectAst::Logging => ConnectorAspect::Logging,
            AspectAst::Metering => ConnectorAspect::Metering,
            AspectAst::SequenceCheck => ConnectorAspect::SequenceCheck,
            AspectAst::Encryption(cost) => ConnectorAspect::Encryption { cost: *cost },
            AspectAst::Compression(ratio, cost) => ConnectorAspect::Compression {
                ratio: *ratio,
                cost: *cost,
            },
        };
        spec = spec.with_aspect(aspect);
    }
    if let Some(cost) = c.cost {
        spec = spec.with_base_cost(cost);
    }
    if c.request_reply {
        let mut lts = Lts::new(format!("{}-proto", c.name));
        let idle = lts.add_state("idle");
        let busy = lts.add_state("busy");
        lts.set_initial(idle);
        lts.mark_final(idle);
        lts.add_transition(idle, Label::recv("request"), busy);
        lts.add_transition(busy, Label::recv("request.reply"), idle);
        spec = spec.with_protocol(lts);
    }
    spec
}

/// Plans placements: pinned components keep their nodes; `auto` components
/// are assigned greedily (largest expected load first, least-utilized
/// feasible node) and refined by local search minimizing the maximum
/// projected node utilization.
///
/// # Errors
///
/// Returns [`CompileError`] if a pinned node is unknown or no feasible node
/// exists for an auto component.
pub fn plan_placement(
    sys: &SystemDecl,
    node_ids: &BTreeMap<String, NodeId>,
) -> Result<BTreeMap<String, NodeId>, CompileError> {
    let mut placements = BTreeMap::new();
    let mut node_load: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut node_mem_left: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut node_capacity: BTreeMap<NodeId, f64> = BTreeMap::new();
    for n in &sys.nodes {
        let id = node_ids[&n.name];
        node_load.insert(id, 0.0);
        node_mem_left.insert(id, n.memory);
        node_capacity.insert(id, n.capacity.max(1e-9));
    }

    // Pinned first.
    let mut autos = Vec::new();
    for c in &sys.components {
        match &c.placement {
            Placement::On(node) => {
                let id = *node_ids
                    .get(node)
                    .ok_or_else(|| CompileError::UnknownNode(node.clone()))?;
                placements.insert(c.name.clone(), id);
                *node_load.get_mut(&id).expect("known node") += c.expected_load;
                let mem = node_mem_left.get_mut(&id).expect("known node");
                *mem = mem.saturating_sub(c.memory_demand);
            }
            Placement::Auto => autos.push(c),
        }
    }

    // Greedy: heaviest first onto the least utilized feasible node.
    autos.sort_by(|a, b| b.expected_load.total_cmp(&a.expected_load));
    for c in &autos {
        let best = node_load
            .iter()
            .filter(|(id, _)| node_mem_left[id] >= c.memory_demand)
            .min_by(|(a_id, a_load), (b_id, b_load)| {
                let ua = **a_load / node_capacity[a_id];
                let ub = **b_load / node_capacity[b_id];
                ua.total_cmp(&ub)
            })
            .map(|(id, _)| *id)
            .ok_or_else(|| CompileError::Unplaceable(c.name.clone()))?;
        placements.insert(c.name.clone(), best);
        *node_load.get_mut(&best).expect("known node") += c.expected_load;
        let mem = node_mem_left.get_mut(&best).expect("known node");
        *mem = mem.saturating_sub(c.memory_demand);
    }

    // Local search: move one auto component at a time if it lowers the max
    // projected utilization.
    let projected_max = |loads: &BTreeMap<NodeId, f64>| {
        loads
            .iter()
            .map(|(id, l)| l / node_capacity[id])
            .fold(0.0_f64, f64::max)
    };
    for _ in 0..64 {
        let mut improved = false;
        for c in &autos {
            let current = placements[&c.name];
            let base = projected_max(&node_load);
            let mut best_move: Option<(NodeId, f64)> = None;
            for &candidate in node_capacity.keys() {
                if candidate == current || node_mem_left[&candidate] < c.memory_demand {
                    continue;
                }
                let mut trial = node_load.clone();
                *trial.get_mut(&current).expect("known") -= c.expected_load;
                *trial.get_mut(&candidate).expect("known") += c.expected_load;
                let score = projected_max(&trial);
                if score + 1e-12 < best_move.map_or(base, |(_, s)| s) {
                    best_move = Some((candidate, score));
                }
            }
            if let Some((to, _)) = best_move {
                *node_load.get_mut(&current).expect("known") -= c.expected_load;
                *node_load.get_mut(&to).expect("known") += c.expected_load;
                *node_mem_left.get_mut(&current).expect("known") += c.memory_demand;
                let mem = node_mem_left.get_mut(&to).expect("known");
                *mem = mem.saturating_sub(c.memory_demand);
                placements.insert(c.name.clone(), to);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    Ok(placements)
}

/// Builds a RAML meta-level executing the system's interaction rules with
/// FLO/C temporal semantics. `interval` is the observation period;
/// reconfiguring actions get `action_cooldown` between firings.
#[must_use]
pub fn build_raml(
    sys: &SystemDecl,
    node_ids: &BTreeMap<String, NodeId>,
    interval: SimDuration,
    action_cooldown: SimDuration,
) -> Raml {
    let mut raml = Raml::new(interval);
    for r in &sys.rules {
        let monitor = Mutex::new(RuleMonitor::new(r.op, r.cmp, r.threshold));
        let metric = r.condition.metric.clone();
        let subject = r.condition.subject.clone();
        let ids = node_ids.clone();
        let intercession = action_to_intercession(&r.action, node_ids);
        let cooldown = match r.action {
            ActionDecl::Notify(_) => SimDuration::ZERO,
            _ => action_cooldown,
        };
        // WaitUntil monitors re-arm after the cooldown elapses, so the
        // rule can respond to later episodes too.
        let rearm = matches!(r.op, TemporalOp::WaitUntil);
        let last_fire = Mutex::new(SimTime::ZERO);
        raml.add_rule(
            Rule::when(r.name.clone(), move |snap: &SystemSnapshot| {
                let Some(value) = metric_value(snap, &metric, &subject, &ids) else {
                    return false;
                };
                let mut m = monitor.lock().expect("rule monitor");
                if rearm {
                    let mut last = last_fire.lock().expect("fire time");
                    if !cooldown.is_zero() && snap.at.saturating_since(*last) >= cooldown * 2 {
                        m.rearm();
                        *last = snap.at;
                    }
                }
                m.step(value)
            })
            .cooldown(cooldown)
            .then(move |_snap| vec![intercession.clone()]),
        );
    }
    raml
}

/// Reads a rule metric from a snapshot.
#[must_use]
pub fn metric_value(
    snap: &SystemSnapshot,
    metric: &str,
    subject: &str,
    node_ids: &BTreeMap<String, NodeId>,
) -> Option<f64> {
    match metric {
        "latency" => snap.component(subject).map(|c| c.mean_latency_ms),
        "p99_latency" => snap.component(subject).map(|c| c.p99_latency_ms),
        "error_rate" => snap.component(subject).map(|c| c.error_rate()),
        "inflight" => snap.component(subject).map(|c| f64::from(c.inflight)),
        "processed" => snap.component(subject).map(|c| c.processed as f64),
        "seq_anomalies" => snap.component(subject).map(|c| c.seq_anomalies as f64),
        "utilization" => {
            let id = node_ids.get(subject)?;
            snap.node(*id).map(|n| n.utilization)
        }
        "backlog" => {
            let id = node_ids.get(subject)?;
            snap.node(*id).map(|n| n.backlog_ms)
        }
        "capacity" => {
            let id = node_ids.get(subject)?;
            snap.node(*id).map(|n| n.effective_capacity)
        }
        _ => None,
    }
}

fn action_to_intercession(
    action: &ActionDecl,
    node_ids: &BTreeMap<String, NodeId>,
) -> Intercession {
    match action {
        ActionDecl::Migrate { component, to_node } => {
            let to = node_ids.get(to_node).copied().unwrap_or(NodeId(0));
            Intercession::Reconfigure(ReconfigPlan::single(ReconfigAction::Migrate {
                name: component.clone(),
                to,
            }))
        }
        ActionDecl::Swap {
            component,
            type_name,
            version,
        } => Intercession::Reconfigure(ReconfigPlan::single(ReconfigAction::SwapImplementation {
            name: component.clone(),
            type_name: type_name.clone(),
            version: *version,
            transfer: StateTransfer::Snapshot,
        })),
        ActionDecl::Notify(text) => Intercession::Notify(text.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_system;

    fn demo() -> SystemDecl {
        parse_system(
            r#"
            system Demo {
                node small { capacity = 100.0; memory = 100; }
                node big { capacity = 1000.0; memory = 1000; }
                link small -- big { latency_ms = 2.0; bandwidth = 1e6; }
                component pinned : P v1 on small { expected_load = 10.0; }
                component heavy : H v1 on auto { expected_load = 500.0; memory_demand = 200; }
                component light : L v1 on auto { expected_load = 10.0; }
                connector w { policy direct; aspect metering; cost 0.1; }
                bind pinned.out -> w -> heavy.in;
                constraint max_mean_latency(heavy, 100.0);
                constraint max_node_utilization(big, 0.9);
                rule hot: utilization(small) > 0.8 implies migrate(light, big);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn compile_builds_topology_and_config() {
        let d = compile(&demo()).unwrap();
        assert_eq!(d.topology.node_count(), 2);
        assert_eq!(d.topology.link_count(), 1);
        assert_eq!(d.configuration.component_names().count(), 3);
        assert!(d.configuration.connector_spec("w").is_some());
        assert_eq!(d.configuration.bindings().len(), 1);
        assert_eq!(d.constraints.len(), 2);
    }

    #[test]
    fn heavy_auto_component_goes_to_big_node() {
        let d = compile(&demo()).unwrap();
        let big = d.node_ids["big"];
        assert_eq!(d.placements["heavy"], big, "heavy belongs on big");
        assert_eq!(d.placements["pinned"], d.node_ids["small"], "pins hold");
    }

    #[test]
    fn memory_constraints_respected() {
        let sys = parse_system(
            r#"
            system M {
                node tiny { capacity = 10000.0; memory = 10; }
                node roomy { capacity = 1.0; memory = 1000; }
                component fat : F v1 on auto { memory_demand = 500; expected_load = 1.0; }
            }
            "#,
        )
        .unwrap();
        let d = compile(&sys).unwrap();
        // Tiny has far more CPU but cannot fit the component.
        assert_eq!(d.placements["fat"], d.node_ids["roomy"]);
    }

    #[test]
    fn unplaceable_component_errors() {
        let sys = parse_system(
            r#"
            system U {
                node n { memory = 1; }
                component fat : F v1 on auto { memory_demand = 100; }
            }
            "#,
        )
        .unwrap();
        assert_eq!(
            compile(&sys).unwrap_err(),
            CompileError::Unplaceable("fat".into())
        );
    }

    #[test]
    fn no_nodes_with_components_errors() {
        let sys = parse_system("system X { component a : A v1 on auto }").unwrap();
        assert_eq!(compile(&sys).unwrap_err(), CompileError::NoNodes);
    }

    #[test]
    fn placement_balances_many_equal_components() {
        let mut src =
            String::from("system B { node a { capacity = 100.0; } node b { capacity = 100.0; } ");
        for i in 0..10 {
            src.push_str(&format!(
                "component c{i} : C v1 on auto {{ expected_load = 10.0; }} "
            ));
        }
        src.push('}');
        let sys = parse_system(&src).unwrap();
        let d = compile(&sys).unwrap();
        let on_a = d
            .placements
            .values()
            .filter(|&&n| n == d.node_ids["a"])
            .count();
        assert_eq!(on_a, 5, "even split");
    }

    #[test]
    fn connector_spec_carries_aspects_and_protocol() {
        let sys = parse_system(
            r#"
            system C {
                node n { }
                component a : A v1 on n
                component b : B v1 on n
                connector w { aspect compression(0.5, 0.1); protocol request_reply; }
                bind a.out -> w -> b.in;
            }
            "#,
        )
        .unwrap();
        let d = compile(&sys).unwrap();
        let spec = d.configuration.connector_spec("w").unwrap();
        assert_eq!(spec.aspects.len(), 1);
        assert!(spec.protocol.is_some());
    }

    #[test]
    fn build_raml_installs_rules() {
        let sys = demo();
        let d = compile(&sys).unwrap();
        let raml = build_raml(
            &sys,
            &d.node_ids,
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        assert_eq!(raml.rules().len(), 1);
        assert_eq!(raml.rules()[0].name(), "hot");
    }

    #[test]
    fn metric_value_reads_components_and_nodes() {
        let sys = demo();
        let d = compile(&sys).unwrap();
        let mut snap = SystemSnapshot::default();
        snap.components.push(aas_core::raml::ComponentObservation {
            name: "heavy".into(),
            type_name: "H".into(),
            version: 1,
            node: d.node_ids["big"],
            lifecycle: aas_core::component::Lifecycle::Active,
            inflight: 2,
            processed: 10,
            errors: 1,
            mean_latency_ms: 42.0,
            p99_latency_ms: 99.0,
            seq_anomalies: 0,
        });
        snap.nodes.push(aas_core::raml::NodeObservation {
            id: d.node_ids["big"],
            up: true,
            utilization: 0.5,
            backlog_ms: 7.0,
            effective_capacity: 1000.0,
        });
        let ids = &d.node_ids;
        assert_eq!(metric_value(&snap, "latency", "heavy", ids), Some(42.0));
        assert_eq!(metric_value(&snap, "p99_latency", "heavy", ids), Some(99.0));
        assert_eq!(metric_value(&snap, "error_rate", "heavy", ids), Some(0.1));
        assert_eq!(metric_value(&snap, "inflight", "heavy", ids), Some(2.0));
        assert_eq!(metric_value(&snap, "utilization", "big", ids), Some(0.5));
        assert_eq!(metric_value(&snap, "backlog", "big", ids), Some(7.0));
        assert_eq!(metric_value(&snap, "capacity", "big", ids), Some(1000.0));
        assert_eq!(metric_value(&snap, "latency", "ghost", ids), None);
        assert_eq!(metric_value(&snap, "bogus", "heavy", ids), None);
    }
}
