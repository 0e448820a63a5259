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

use crate::ast::{ActionDecl, AspectAst, Placement, PolicyAst, SystemDecl};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec, RoutingPolicy};
use aas_core::lts::{Label, Lts};
use aas_core::raml::{Constraint, Intercession, Metric, MetricOf, Raml, Rule, RuleMonitor};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_sim::link::LinkSpec;
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::time::SimDuration;
use core::fmt;
use std::collections::BTreeMap;

/// A compile-time problem (references are expected to have been validated;
/// these are the residual failure modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A referenced node is not declared.
    UnknownNode(String),
    /// A rule observes a metric the language does not define.
    UnknownMetric(String),
    /// A constraint is of a kind the language does not define.
    UnknownConstraintKind(String),
    /// A constraint of this kind, which needs a limit, declares none.
    MissingLimit(String),
    /// No node can host a component (memory exhausted everywhere).
    Unplaceable(String),
    /// The system declares no nodes but has components.
    NoNodes,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            CompileError::UnknownMetric(m) => write!(f, "unknown metric `{m}`"),
            CompileError::UnknownConstraintKind(k) => write!(f, "unknown constraint kind `{k}`"),
            CompileError::MissingLimit(k) => write!(f, "constraint `{k}` needs a limit"),
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
        topology.add_link(LinkSpec::new(
            node_id(&node_ids, &l.a)?,
            node_id(&node_ids, &l.b)?,
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

    Ok(Deployment {
        topology,
        configuration,
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
                let id = node_id(node_ids, node)?;
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

/// The id of the node declared as `name`.
fn node_id(node_ids: &BTreeMap<String, NodeId>, name: &str) -> Result<NodeId, CompileError> {
    node_ids
        .get(name)
        .copied()
        .ok_or_else(|| CompileError::UnknownNode(name.to_owned()))
}

/// Builds the RAML meta-level of a system: its behavioural constraints,
/// and its interaction rules as [`Rule`] values with FLO/C temporal
/// semantics. `interval` is the observation period; reconfiguring actions
/// get `action_cooldown` between firings.
///
/// # Errors
///
/// [`CompileError::UnknownNode`] when a constraint, a rule's metric or a
/// migration names an undeclared node; [`CompileError::UnknownMetric`]
/// when a rule observes a metric the language does not define;
/// [`CompileError::UnknownConstraintKind`] and
/// [`CompileError::MissingLimit`] for a constraint validation would flag.
pub fn build_raml(
    sys: &SystemDecl,
    node_ids: &BTreeMap<String, NodeId>,
    interval: SimDuration,
    action_cooldown: SimDuration,
) -> Result<Raml, CompileError> {
    let mut raml = Raml::new(interval);
    for c in &sys.constraints {
        let limit = || {
            c.limit
                .ok_or_else(|| CompileError::MissingLimit(c.kind.clone()))
        };
        let component = c.subject.clone();
        raml.add_constraint(match c.kind.as_str() {
            "max_mean_latency" => Constraint::MaxMeanLatencyMs {
                component,
                limit_ms: limit()?,
            },
            "max_p99_latency" => Constraint::MaxP99LatencyMs {
                component,
                limit_ms: limit()?,
            },
            "max_error_rate" => Constraint::MaxErrorRate {
                component,
                limit: limit()?,
            },
            "max_node_utilization" => Constraint::MaxNodeUtilization {
                node: node_id(node_ids, &c.subject)?,
                limit: limit()?,
            },
            "no_sequence_anomalies" => Constraint::NoSequenceAnomalies { component },
            _ => return Err(CompileError::UnknownConstraintKind(c.kind.clone())),
        });
    }
    for r in &sys.rules {
        let subject = &r.condition.subject;
        let metric = match Metric::named(&r.condition.metric) {
            Some(MetricOf::Component(metric)) => metric(subject.into()),
            Some(MetricOf::Node(metric)) => metric(node_id(node_ids, subject)?),
            None => return Err(CompileError::UnknownMetric(r.condition.metric.clone())),
        };
        let (intercession, cooldown) = match &r.action {
            ActionDecl::Migrate { component, to_node } => (
                Intercession::Reconfigure(ReconfigPlan::single(ReconfigAction::Migrate {
                    name: component.clone(),
                    to: node_id(node_ids, to_node)?,
                })),
                action_cooldown,
            ),
            ActionDecl::Swap {
                component,
                type_name,
                version,
            } => (
                Intercession::Reconfigure(ReconfigPlan::single(
                    ReconfigAction::SwapImplementation {
                        name: component.clone(),
                        type_name: type_name.clone(),
                        version: *version,
                        transfer: StateTransfer::Snapshot,
                    },
                )),
                action_cooldown,
            ),
            ActionDecl::Notify(text) => (Intercession::Notify(text.clone()), SimDuration::ZERO),
        };
        raml.add_rule(Rule::new(
            r.name.clone(),
            metric,
            RuleMonitor::new(r.op, r.cmp, r.threshold),
            intercession,
            cooldown,
        ));
    }
    Ok(raml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_system;
    use aas_core::raml::{ComponentObservation, SystemSnapshot};
    use aas_sim::time::SimTime;

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
    fn build_raml_installs_rules_and_constraints() {
        let sys = demo();
        let mut raml = deployed(
            &sys,
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        assert_eq!(raml.rules().len(), 1);
        assert_eq!(raml.rules()[0].name(), "hot");
        let mut snap = latency_at(1, Some(500.0));
        snap.components[0].name = "heavy".into();
        raml.evaluate(&snap);
        let logged: Vec<String> = raml
            .violations()
            .iter()
            .map(|(_, v)| v.to_string())
            .collect();
        assert_eq!(
            logged,
            ["max-mean-latency violated by heavy: 500.000 > 100.000"]
        );
    }

    #[test]
    fn build_raml_rejects_unknown_nodes_and_metrics() {
        let build = |decl: &str| {
            let sys = parse_system(&format!(
                "system U {{ node n0 {{ }} component a : A v1 on n0 {decl}; }}"
            ))
            .unwrap();
            let d = compile(&sys).unwrap();
            build_raml(
                &sys,
                &d.node_ids,
                SimDuration::from_secs(1),
                SimDuration::ZERO,
            )
            .map(|raml| raml.rules().len())
        };
        assert_eq!(
            build("rule r: latency(a) > 1.0 implies migrate(a, n0)"),
            Ok(1)
        );
        assert_eq!(
            build("rule r: latency(a) > 1.0 implies migrate(a, ghost)"),
            Err(CompileError::UnknownNode("ghost".into()))
        );
        assert_eq!(
            build("rule r: utilization(ghost) > 0.5 implies notify(\"hot\")"),
            Err(CompileError::UnknownNode("ghost".into()))
        );
        assert_eq!(
            build("rule r: temperature(a) > 50.0 implies notify(\"hot\")"),
            Err(CompileError::UnknownMetric("temperature".into()))
        );
        assert_eq!(
            build("constraint max_temperature(a, 50.0)"),
            Err(CompileError::UnknownConstraintKind(
                "max_temperature".into()
            ))
        );
        assert_eq!(
            build("constraint max_mean_latency(a)"),
            Err(CompileError::MissingLimit("max_mean_latency".into()))
        );
    }

    /// A snapshot at `secs` in which component `a` reads `latency` (and
    /// is absent when it is `None`).
    fn latency_at(secs: u64, latency: Option<f64>) -> SystemSnapshot {
        let mut snap = SystemSnapshot {
            at: SimTime::from_secs(secs),
            ..SystemSnapshot::default()
        };
        snap.components
            .extend(latency.map(|ms| ComponentObservation {
                name: "a".into(),
                type_name: "A".into(),
                version: 1,
                node: NodeId(0),
                lifecycle: aas_core::component::Lifecycle::Active,
                inflight: 0,
                processed: 0,
                errors: 0,
                mean_latency_ms: ms,
                p99_latency_ms: ms,
                seq_anomalies: 0,
            }));
        snap
    }

    fn deployed(sys: &SystemDecl, interval: SimDuration, cooldown: SimDuration) -> Raml {
        build_raml(sys, &compile(sys).unwrap().node_ids, interval, cooldown).unwrap()
    }

    /// Each FLO/C operator, deployed from ADL as `latency(a) > 10` with a
    /// migration (so a 2 s cooldown applies) and observed once a second:
    /// the tick indices at which the rule fires. A tick in cooldown or
    /// without `a` does not step the monitor. `wait_until` re-arms once
    /// twice the cooldown has passed since it last re-armed (from t = 0):
    /// at tick 5 and again at tick 9. Its cooldown after tick 3 swallows
    /// the fall at tick 4, so tick 5 is no edge though the monitor is armed.
    #[test]
    fn deployed_rules_fire_per_operator_under_cooldown() {
        const N: Option<f64> = None;
        const fn s(v: f64) -> Option<f64> {
            Some(v)
        }
        /// An operator, its metric series, the ticks it fires at.
        type Row = (&'static str, [Option<f64>; 12], &'static [usize]);
        #[rustfmt::skip]
        let rows: [Row; 5] = [
            ("implies",
             [s(5.), s(15.), s(15.), N, s(15.), s(15.), s(5.), s(5.), s(15.), s(15.), s(15.), s(5.)],
             &[1, 4, 8, 10]),
            ("implies_later",
             [s(15.), s(5.), s(5.), s(15.), N, s(5.), s(15.), s(15.), s(5.), s(5.), s(15.), s(5.)],
             &[1, 5, 8, 11]),
            ("implies_before",
             [s(5.), s(9.), s(12.), s(12.), s(9.), s(8.), N, s(12.), s(9.), s(10.), s(5.), s(9.)],
             &[1, 4, 8, 11]),
            ("permitted_if",
             [s(5.), s(15.), s(5.), s(5.), s(15.), s(15.), s(15.), s(5.), N, s(15.), s(5.), s(15.)],
             &[1, 4, 6, 9, 11]),
            ("wait_until",
             [s(5.), s(5.), s(5.), s(15.), s(5.), s(15.), s(5.), s(15.), s(5.), s(5.), s(15.), s(5.)],
             &[3, 7, 10]),
        ];
        for (op, series, expected) in rows {
            let sys = parse_system(&format!(
                "system T {{ node n0 {{ }} node n1 {{ }} \
                 component a : A v1 on n0 component b : B v1 on n0 \
                 rule r: latency(a) > 10.0 {op} migrate(b, n1); }}"
            ))
            .unwrap();
            let mut raml = deployed(&sys, SimDuration::from_secs(1), SimDuration::from_secs(2));
            let fired: Vec<usize> = (0..series.len())
                .filter(|&i| !raml.evaluate(&latency_at(i as u64, series[i])).is_empty())
                .collect();
            assert_eq!(fired, expected, "{op}");
            assert_eq!(raml.rules()[0].fired_count(), expected.len() as u64, "{op}");
        }
    }
}
