//! Abstract syntax for the AAS architecture description language.
//!
//! A `system` declaration bundles everything the paper expects an ADL to
//! express: "components hierarchy, … interactions, application deployment
//! and the dynamic features of applications" — here as nodes, links,
//! components, connectors, bindings, behavioural constraints and FLO/C-
//! style interaction rules.

use aas_core::message::Value;
use std::collections::BTreeMap;

pub use aas_core::raml::{Cmp, TemporalOp};

/// A parsed `system` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemDecl {
    /// System name.
    pub name: String,
    /// Declared nodes, in order (order defines `NodeId`s).
    pub nodes: Vec<NodeDecl>,
    /// Declared links.
    pub links: Vec<LinkDecl>,
    /// Declared component instances.
    pub components: Vec<ComponentDeclAst>,
    /// Declared connectors.
    pub connectors: Vec<ConnectorDeclAst>,
    /// Declared bindings.
    pub bindings: Vec<BindDecl>,
    /// Declared constraints.
    pub constraints: Vec<ConstraintDecl>,
    /// Declared interaction rules.
    pub rules: Vec<RuleDecl>,
}

/// `node <name> { capacity = <f>; memory = <int>; }`
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDecl {
    /// Node name.
    pub name: String,
    /// Processing capacity (work units / s).
    pub capacity: f64,
    /// Memory units available for placement.
    pub memory: u64,
}

/// `link <a> -- <b> { latency_ms = <f>; bandwidth = <f>; }`
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDecl {
    /// One endpoint (node name).
    pub a: String,
    /// Other endpoint (node name).
    pub b: String,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

/// Where a component is placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Pinned to a named node.
    On(String),
    /// Left to the deployment planner.
    Auto,
}

/// `component <name> : <Type> v<ver> on <node|auto> { k = v; ... }`
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDeclAst {
    /// Instance name.
    pub name: String,
    /// Implementation type name.
    pub type_name: String,
    /// Implementation version.
    pub version: u32,
    /// Placement.
    pub placement: Placement,
    /// Construction properties.
    pub props: BTreeMap<String, Value>,
    /// Expected load in work units/s (placement planner input); 1.0 if
    /// unspecified.
    pub expected_load: f64,
    /// Memory demand for placement; 0 if unspecified.
    pub memory_demand: u64,
}

/// A connector aspect in the ADL.
#[derive(Debug, Clone, PartialEq)]
pub enum AspectAst {
    /// `aspect logging;`
    Logging,
    /// `aspect metering;`
    Metering,
    /// `aspect sequence_check;`
    SequenceCheck,
    /// `aspect encryption(cost);`
    Encryption(f64),
    /// `aspect compression(ratio, cost);`
    Compression(f64, f64),
}

/// Routing policy in the ADL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyAst {
    /// `policy direct;`
    #[default]
    Direct,
    /// `policy round_robin;`
    RoundRobin,
    /// `policy broadcast;`
    Broadcast,
}

/// `connector <name> { policy ...; aspect ...; cost <f>; protocol request_reply; }`
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectorDeclAst {
    /// Connector name.
    pub name: String,
    /// Routing policy.
    pub policy: PolicyAst,
    /// Aspect chain.
    pub aspects: Vec<AspectAst>,
    /// Base mediation cost; default when `None`.
    pub cost: Option<f64>,
    /// Whether to attach the request/reply collaboration protocol.
    pub request_reply: bool,
}

/// `bind <inst>.<port> -> <connector> -> <inst>.<port> (, <inst>.<port>)*;`
#[derive(Debug, Clone, PartialEq)]
pub struct BindDecl {
    /// Source `(instance, port)`.
    pub from: (String, String),
    /// Connector name.
    pub via: String,
    /// Targets.
    pub to: Vec<(String, String)>,
}

/// `constraint <kind>(<subject>, <limit>);`
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintDecl {
    /// Constraint kind: `max_mean_latency`, `max_p99_latency`,
    /// `max_error_rate`, `max_node_utilization`, `no_sequence_anomalies`.
    pub kind: String,
    /// The component or node the constraint applies to.
    pub subject: String,
    /// The limit (absent for `no_sequence_anomalies`).
    pub limit: Option<f64>,
}

/// A metric reference `metric(subject)` in a rule condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRef {
    /// Metric name: one of the component metrics `latency`, `p99_latency`,
    /// `error_rate`, `inflight`, `processed`, `seq_anomalies`, or the node
    /// metrics `utilization`, `backlog`, `capacity` (see
    /// [`aas_core::raml::Metric::named`]).
    pub metric: String,
    /// The component or node observed.
    pub subject: String,
}

/// A rule action.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionDecl {
    /// `migrate(<component>, <node>)`
    Migrate {
        /// Component to move.
        component: String,
        /// Destination node name.
        to_node: String,
    },
    /// `swap(<component>, <Type>, <version>)`
    Swap {
        /// Component to re-implement.
        component: String,
        /// New type name.
        type_name: String,
        /// New version.
        version: u32,
    },
    /// `notify(<string>)`
    Notify(String),
}

impl ActionDecl {
    /// The component the action affects, if any.
    #[must_use]
    pub fn affected_component(&self) -> Option<&str> {
        match self {
            ActionDecl::Migrate { component, .. } | ActionDecl::Swap { component, .. } => {
                Some(component)
            }
            ActionDecl::Notify(_) => None,
        }
    }
}

/// `rule <name>: <metric>(<subject>) <cmp> <limit> <op> <action>;`
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecl {
    /// Rule name.
    pub name: String,
    /// Observed metric.
    pub condition: MetricRef,
    /// Comparison.
    pub cmp: Cmp,
    /// Threshold.
    pub threshold: f64,
    /// Temporal operator.
    pub op: TemporalOp,
    /// Action.
    pub action: ActionDecl,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_affected_component() {
        let m = ActionDecl::Migrate {
            component: "svc".into(),
            to_node: "n1".into(),
        };
        assert_eq!(m.affected_component(), Some("svc"));
        assert_eq!(ActionDecl::Notify("x".into()).affected_component(), None);
    }
}
