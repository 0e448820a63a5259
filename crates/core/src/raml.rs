//! RAML — the Reconfiguration and Adaptation Meta-Level.
//!
//! The paper's vision: "setting up a Reconfiguration and Adaptation
//! Meta-Level (RAML) which is in charge of observing the system, checking
//! the compliancy of each application with its behavioral constraints and
//! properties, and undertaking adaptation or reconfiguration actions."
//!
//! The split follows the reflection literature the paper builds on:
//!
//! - **introspection** — [`SystemSnapshot`]: a read-only observation of
//!   every component, node and connector, produced by the runtime on a
//!   periodic meta-protocol tick;
//! - **intercession** — [`Intercession`]: commands that change the system
//!   (submit a reconfiguration plan, interchange a connector, notify);
//! - **compliance** — [`Constraint`]s checked against every snapshot, with
//!   violations logged and exposed;
//! - **policy** — [`Rule`]s: condition → action pairs with cooldowns,
//!   covering both of the paper's trigger styles ("specified criteria" and
//!   "periodical measurements on the evolving infrastructure").

use crate::component::Lifecycle;
use crate::connector::ConnectorSpec;
use crate::message::Name;
use crate::reconfig::ReconfigPlan;
use aas_sim::fault::FaultKind;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use core::fmt;

/// Introspected state of one component instance.
#[derive(Debug, Clone)]
pub struct ComponentObservation {
    /// Instance name.
    pub name: Name,
    /// Implementation type.
    pub type_name: Name,
    /// Implementation version.
    pub version: u32,
    /// Hosting node.
    pub node: NodeId,
    /// Lifecycle state.
    pub lifecycle: Lifecycle,
    /// Messages currently being processed.
    pub inflight: u32,
    /// Messages processed so far.
    pub processed: u64,
    /// Handler errors so far.
    pub errors: u64,
    /// Mean end-to-end message latency (milliseconds).
    pub mean_latency_ms: f64,
    /// 99th-percentile end-to-end latency (milliseconds).
    pub p99_latency_ms: f64,
    /// Sequence anomalies observed at this component's inbox.
    pub seq_anomalies: u64,
}

impl ComponentObservation {
    /// Error rate in `[0, 1]`; zero when nothing was processed.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.errors as f64 / self.processed as f64
        }
    }
}

/// Introspected state of one node.
#[derive(Debug, Clone)]
pub struct NodeObservation {
    /// Node id.
    pub id: NodeId,
    /// Whether the node is up.
    pub up: bool,
    /// Utilization over the run so far, in `[0, 1]`.
    pub utilization: f64,
    /// Current queue backlog (milliseconds of queued work).
    pub backlog_ms: f64,
    /// Effective capacity right now (work units per second).
    pub effective_capacity: f64,
}

/// Introspected state of one connector.
#[derive(Debug, Clone)]
pub struct ConnectorObservation {
    /// Connector name.
    pub name: Name,
    /// Messages mediated.
    pub mediated: u64,
    /// Protocol violations seen.
    pub violations: u64,
    /// Sequence anomalies seen by the connector's own check.
    pub seq_anomalies: u64,
    /// Mean latency metered by the connector (ms), if metering is on.
    pub mean_metered_latency_ms: f64,
}

/// The mean of one custom metric a component emitted.
#[derive(Debug, Clone)]
pub struct CustomMean {
    /// The emitting component.
    pub component: Name,
    /// The metric's name.
    pub metric: Name,
    /// Mean of the values emitted so far.
    pub mean: f64,
}

/// A full introspection of the running system at one instant.
///
/// Every name in it is shared with the runtime, not copied, and no record
/// holds a collection of its own: what a node hosts is read off the
/// components ([`SystemSnapshot::hosted`]), and the custom metrics of all
/// components are one list ([`SystemSnapshot::custom_mean`]).
#[derive(Debug, Clone, Default)]
pub struct SystemSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// All component observations.
    pub components: Vec<ComponentObservation>,
    /// All node observations.
    pub nodes: Vec<NodeObservation>,
    /// All connector observations.
    pub connectors: Vec<ConnectorObservation>,
    /// Means of component-emitted custom metrics, by component name, then
    /// metric name.
    pub custom: Vec<CustomMean>,
    /// Total messages delivered so far.
    pub delivered: u64,
    /// Total application messages dropped so far, each counted once: the
    /// runtime's own `runtime.dropped` (refused sends, drops in transit
    /// and at delivery, jobs lost with their host). Lost heartbeats are
    /// the detection signal, not loss, and are not in it.
    pub dropped: u64,
}

impl SystemSnapshot {
    /// Finds a component observation by instance name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentObservation> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Finds a node observation.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&NodeObservation> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The components hosted on `node`, in name order.
    pub fn hosted(&self, node: NodeId) -> impl Iterator<Item = &ComponentObservation> {
        self.components.iter().filter(move |c| c.node == node)
    }

    /// The mean of the custom metric `metric` emitted by `component`, if
    /// it emitted any.
    #[must_use]
    pub fn custom_mean(&self, component: &str, metric: &str) -> Option<f64> {
        self.custom
            .iter()
            .find(|m| m.component == component && m.metric == metric)
            .map(|m| m.mean)
    }

    /// Finds a connector observation by name.
    #[must_use]
    pub fn connector(&self, name: &str) -> Option<&ConnectorObservation> {
        self.connectors.iter().find(|c| c.name == name)
    }

    /// The most utilized up node, if any.
    #[must_use]
    pub fn hottest_node(&self) -> Option<&NodeObservation> {
        self.nodes
            .iter()
            .filter(|n| n.up)
            .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
    }

    /// The least utilized up node, if any.
    #[must_use]
    pub fn coolest_node(&self) -> Option<&NodeObservation> {
        self.nodes
            .iter()
            .filter(|n| n.up)
            .min_by(|a, b| a.utilization.total_cmp(&b.utilization))
    }
}

/// An intercession command RAML can issue against the running system.
#[derive(Debug, Clone)]
pub enum Intercession {
    /// Submit a reconfiguration plan (the heavyweight path: quiescence,
    /// channel blocking, state transfer).
    Reconfigure(ReconfigPlan),
    /// Interchange a connector in place — the lightweight adaptation path:
    /// no quiescence, no blocking, takes effect on the next message.
    AdaptConnector {
        /// Connector to replace.
        name: String,
        /// Its new spec.
        spec: ConnectorSpec,
    },
    /// Surface a named event to the event log without changing anything.
    Notify(String),
}

/// A recorded constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which constraint.
    pub constraint: String,
    /// The offending subject (component/node name).
    pub subject: String,
    /// The measured value.
    pub measured: f64,
    /// The configured limit.
    pub limit: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated by {}: {:.3} > {:.3}",
            self.constraint, self.subject, self.measured, self.limit
        )
    }
}

/// A behavioural constraint checked on every snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// A component's mean end-to-end latency must stay under `limit_ms`.
    MaxMeanLatencyMs {
        /// Component instance name.
        component: String,
        /// Limit in milliseconds.
        limit_ms: f64,
    },
    /// A component's p99 latency must stay under `limit_ms`.
    MaxP99LatencyMs {
        /// Component instance name.
        component: String,
        /// Limit in milliseconds.
        limit_ms: f64,
    },
    /// A component's error rate must stay under `limit`.
    MaxErrorRate {
        /// Component instance name.
        component: String,
        /// Limit in `[0, 1]`.
        limit: f64,
    },
    /// A node's utilization must stay under `limit`.
    MaxNodeUtilization {
        /// The node.
        node: NodeId,
        /// Limit in `[0, 1]`.
        limit: f64,
    },
    /// No sequence anomalies are tolerated at this component (channel
    /// preservation obligation).
    NoSequenceAnomalies {
        /// Component instance name.
        component: String,
    },
}

impl Constraint {
    /// Checks the constraint against a snapshot; `None` means compliant.
    #[must_use]
    pub fn check(&self, snap: &SystemSnapshot) -> Option<Violation> {
        let (constraint, subject, measured, limit): (_, &dyn fmt::Display, _, _) = match self {
            Constraint::MaxMeanLatencyMs {
                component,
                limit_ms,
            } => {
                let c = snap.component(component)?;
                ("max-mean-latency", component, c.mean_latency_ms, *limit_ms)
            }
            Constraint::MaxP99LatencyMs {
                component,
                limit_ms,
            } => {
                let c = snap.component(component)?;
                ("max-p99-latency", component, c.p99_latency_ms, *limit_ms)
            }
            Constraint::MaxErrorRate { component, limit } => {
                let c = snap.component(component)?;
                ("max-error-rate", component, c.error_rate(), *limit)
            }
            Constraint::MaxNodeUtilization { node, limit } => {
                let n = snap.node(*node)?;
                ("max-node-utilization", node, n.utilization, *limit)
            }
            Constraint::NoSequenceAnomalies { component } => {
                let c = snap.component(component)?;
                (
                    "no-sequence-anomalies",
                    component,
                    c.seq_anomalies as f64,
                    0.0,
                )
            }
        };
        (measured > limit).then(|| Violation {
            constraint: constraint.into(),
            subject: subject.to_string(),
            measured,
            limit,
        })
    }
}

type Condition = Box<dyn Fn(&SystemSnapshot) -> bool + Send>;
type Action = Box<dyn Fn(&SystemSnapshot) -> Vec<Intercession> + Send>;
type FaultAction = Box<dyn Fn(FaultKind, &SystemSnapshot) -> Vec<Intercession> + Send>;

/// An event-triggered rule reacting to injected faults — the Durra-style
/// "reconfiguration … used for error recovery purposes, where the
/// reconfiguration is based on event-triggering mechanism".
pub struct FaultRule {
    name: String,
    action: FaultAction,
    fired_count: u64,
}

impl fmt::Debug for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultRule")
            .field("name", &self.name)
            .field("fired_count", &self.fired_count)
            .finish_non_exhaustive()
    }
}

impl FaultRule {
    /// A fault rule named `name`; `action` receives the fault and a fresh
    /// system snapshot and returns the intercessions to execute.
    #[must_use]
    pub fn new<A>(name: impl Into<String>, action: A) -> Self
    where
        A: Fn(FaultKind, &SystemSnapshot) -> Vec<Intercession> + Send + 'static,
    {
        FaultRule {
            name: name.into(),
            action: Box::new(action),
            fired_count: 0,
        }
    }

    /// The rule's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Times this rule has fired.
    #[must_use]
    pub fn fired_count(&self) -> u64 {
        self.fired_count
    }
}

/// A trigger rule: when `condition` holds on a snapshot (and the cooldown
/// has elapsed), `action` produces intercessions.
pub struct Rule {
    name: String,
    condition: Condition,
    action: Action,
    cooldown: SimDuration,
    last_fired: Option<SimTime>,
    fired_count: u64,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("cooldown", &self.cooldown)
            .field("fired_count", &self.fired_count)
            .finish_non_exhaustive()
    }
}

impl Rule {
    /// Starts building a rule: `Rule::when(name, cond).then(action)`.
    pub fn when<C>(name: impl Into<String>, condition: C) -> RuleBuilder
    where
        C: Fn(&SystemSnapshot) -> bool + Send + 'static,
    {
        RuleBuilder {
            name: name.into(),
            condition: Box::new(condition),
            cooldown: SimDuration::ZERO,
        }
    }

    /// The rule's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many times the rule has fired.
    #[must_use]
    pub fn fired_count(&self) -> u64 {
        self.fired_count
    }
}

/// Intermediate rule builder produced by [`Rule::when`].
pub struct RuleBuilder {
    name: String,
    condition: Condition,
    cooldown: SimDuration,
}

impl fmt::Debug for RuleBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleBuilder")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl RuleBuilder {
    /// Sets the minimum interval between firings.
    #[must_use]
    pub fn cooldown(mut self, d: SimDuration) -> Self {
        self.cooldown = d;
        self
    }

    /// Completes the rule with its action.
    pub fn then<A>(self, action: A) -> Rule
    where
        A: Fn(&SystemSnapshot) -> Vec<Intercession> + Send + 'static,
    {
        Rule {
            name: self.name,
            condition: self.condition,
            action: Box::new(action),
            cooldown: self.cooldown,
            last_fired: None,
            fired_count: 0,
        }
    }
}

/// The meta-level: constraints + rules + the violation log.
#[derive(Debug)]
pub struct Raml {
    interval: SimDuration,
    rules: Vec<Rule>,
    fault_rules: Vec<FaultRule>,
    constraints: Vec<Constraint>,
    violations: Vec<(SimTime, Violation)>,
    snapshots_taken: u64,
}

impl Raml {
    /// A meta-level that observes every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "observation interval must be non-zero");
        Raml {
            interval,
            rules: Vec::new(),
            fault_rules: Vec::new(),
            constraints: Vec::new(),
            violations: Vec::new(),
            snapshots_taken: 0,
        }
    }

    /// The observation interval.
    #[must_use]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Installs a rule.
    pub fn add_rule(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Installs an event-triggered fault rule.
    pub fn add_fault_rule(&mut self, rule: FaultRule) -> &mut Self {
        self.fault_rules.push(rule);
        self
    }

    /// Reacts to an injected fault: every fault rule sees the fault and
    /// the snapshot; their intercessions are concatenated.
    pub fn on_fault(&mut self, kind: FaultKind, snap: &SystemSnapshot) -> Vec<Intercession> {
        let mut out = Vec::new();
        for rule in &mut self.fault_rules {
            let actions = (rule.action)(kind, snap);
            if !actions.is_empty() {
                rule.fired_count += 1;
            }
            out.extend(actions);
        }
        out
    }

    /// Installed fault rules (for inspection).
    #[must_use]
    pub fn fault_rules(&self) -> &[FaultRule] {
        &self.fault_rules
    }

    /// Installs a constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self
    }

    /// Evaluates constraints and rules against `snap`, returning the
    /// intercessions to execute. Violations are logged.
    pub fn evaluate(&mut self, snap: &SystemSnapshot) -> Vec<Intercession> {
        self.snapshots_taken += 1;
        for c in &self.constraints {
            if let Some(v) = c.check(snap) {
                self.violations.push((snap.at, v));
            }
        }
        let mut out = Vec::new();
        for rule in &mut self.rules {
            let cooled = rule
                .last_fired
                .is_none_or(|t| snap.at.saturating_since(t) >= rule.cooldown);
            if cooled && (rule.condition)(snap) {
                rule.last_fired = Some(snap.at);
                rule.fired_count += 1;
                out.extend((rule.action)(snap));
            }
        }
        out
    }

    /// The violation log.
    #[must_use]
    pub fn violations(&self) -> &[(SimTime, Violation)] {
        &self.violations
    }

    /// Number of snapshots evaluated.
    #[must_use]
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Installed rules (for inspection).
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with_latency(at: SimTime, mean_ms: f64) -> SystemSnapshot {
        SystemSnapshot {
            at,
            components: vec![ComponentObservation {
                name: "svc".into(),
                type_name: "S".into(),
                version: 1,
                node: NodeId(0),
                lifecycle: Lifecycle::Active,
                inflight: 0,
                processed: 100,
                errors: 5,
                mean_latency_ms: mean_ms,
                p99_latency_ms: mean_ms * 3.0,
                seq_anomalies: 0,
            }],
            nodes: vec![NodeObservation {
                id: NodeId(0),
                up: true,
                utilization: 0.9,
                backlog_ms: 5.0,
                effective_capacity: 100.0,
            }],
            connectors: Vec::new(),
            custom: vec![CustomMean {
                component: "svc".into(),
                metric: "ticks".into(),
                mean: 2.5,
            }],
            delivered: 100,
            dropped: 0,
        }
    }

    #[test]
    fn constraint_latency_flags_violation() {
        let c = Constraint::MaxMeanLatencyMs {
            component: "svc".into(),
            limit_ms: 10.0,
        };
        assert!(c.check(&snap_with_latency(SimTime::ZERO, 5.0)).is_none());
        let v = c.check(&snap_with_latency(SimTime::ZERO, 50.0)).unwrap();
        assert_eq!(v.subject, "svc");
        assert!(v.to_string().contains("max-mean-latency"));
    }

    #[test]
    fn constraint_error_rate() {
        let c = Constraint::MaxErrorRate {
            component: "svc".into(),
            limit: 0.01,
        };
        // 5 errors / 100 processed = 0.05 > 0.01.
        assert!(c.check(&snap_with_latency(SimTime::ZERO, 1.0)).is_some());
    }

    #[test]
    fn constraint_node_utilization() {
        let c = Constraint::MaxNodeUtilization {
            node: NodeId(0),
            limit: 0.8,
        };
        assert!(c.check(&snap_with_latency(SimTime::ZERO, 1.0)).is_some());
        let missing = Constraint::MaxNodeUtilization {
            node: NodeId(9),
            limit: 0.8,
        };
        assert!(missing
            .check(&snap_with_latency(SimTime::ZERO, 1.0))
            .is_none());
    }

    #[test]
    fn rule_fires_once_per_cooldown() {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_rule(
            Rule::when("hot", |s: &SystemSnapshot| {
                s.component("svc").is_some_and(|c| c.mean_latency_ms > 10.0)
            })
            .cooldown(SimDuration::from_secs(1))
            .then(|_| vec![Intercession::Notify("hot!".into())]),
        );
        // Fires at t=0.
        let a1 = raml.evaluate(&snap_with_latency(SimTime::ZERO, 50.0));
        assert_eq!(a1.len(), 1);
        // Within cooldown: silent.
        let a2 = raml.evaluate(&snap_with_latency(SimTime::from_millis(500), 50.0));
        assert!(a2.is_empty());
        // After cooldown: fires again.
        let a3 = raml.evaluate(&snap_with_latency(SimTime::from_secs(2), 50.0));
        assert_eq!(a3.len(), 1);
        assert_eq!(raml.rules()[0].fired_count(), 2);
    }

    #[test]
    fn rule_respects_condition() {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_rule(
            Rule::when("never", |_| false).then(|_| vec![Intercession::Notify("x".into())]),
        );
        assert!(raml
            .evaluate(&snap_with_latency(SimTime::ZERO, 50.0))
            .is_empty());
    }

    #[test]
    fn violations_accumulate_in_log() {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_constraint(Constraint::MaxMeanLatencyMs {
            component: "svc".into(),
            limit_ms: 1.0,
        });
        raml.evaluate(&snap_with_latency(SimTime::from_secs(1), 10.0));
        raml.evaluate(&snap_with_latency(SimTime::from_secs(2), 0.5));
        raml.evaluate(&snap_with_latency(SimTime::from_secs(3), 20.0));
        assert_eq!(raml.violations().len(), 2);
        assert_eq!(raml.snapshots_taken(), 3);
    }

    #[test]
    fn snapshot_hottest_coolest() {
        let mut snap = snap_with_latency(SimTime::ZERO, 1.0);
        snap.nodes.push(NodeObservation {
            id: NodeId(1),
            up: true,
            utilization: 0.1,
            backlog_ms: 0.0,
            effective_capacity: 100.0,
        });
        snap.nodes.push(NodeObservation {
            id: NodeId(2),
            up: false,
            utilization: 0.0,
            backlog_ms: 0.0,
            effective_capacity: 0.0,
        });
        assert_eq!(snap.hottest_node().unwrap().id, NodeId(0));
        assert_eq!(snap.coolest_node().unwrap().id, NodeId(1));
    }

    #[test]
    fn snapshot_reads_hosted_and_custom_off_the_components() {
        let snap = snap_with_latency(SimTime::ZERO, 1.0);
        let hosted: Vec<&str> = snap.hosted(NodeId(0)).map(|c| c.name.as_str()).collect();
        assert_eq!(hosted, ["svc"]);
        assert_eq!(snap.hosted(NodeId(1)).count(), 0);
        assert_eq!(snap.custom_mean("svc", "ticks"), Some(2.5));
        assert_eq!(snap.custom_mean("svc", "tocks"), None);
        assert_eq!(snap.custom_mean("other", "ticks"), None);
    }

    #[test]
    fn error_rate_handles_zero_processed() {
        let mut snap = snap_with_latency(SimTime::ZERO, 1.0);
        snap.components[0].processed = 0;
        snap.components[0].errors = 0;
        assert_eq!(snap.components[0].error_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let _ = Raml::new(SimDuration::ZERO);
    }
}
