//! RAML — the Reconfiguration and Adaptation Meta-Level.
//!
//! The paper's vision: "setting up a Reconfiguration and Adaptation
//! Meta-Level (RAML) which is in charge of observing the system, checking
//! the compliancy of each application with its behavioral constraints and
//! properties, and undertaking adaptation or reconfiguration actions."
//!
//! The split follows the reflection literature the paper builds on:
//!
//! - **introspection** — [`Observe`]: a read-only observation of every
//!   component and node, which the runtime's meta tick reads in place and
//!   [`SystemSnapshot`] holds as a copy for readers outside it;
//! - **intercession** — [`Intercession`]: commands that change the system
//!   (submit a reconfiguration plan, interchange a connector, notify);
//! - **compliance** — [`Constraint`]s checked against every snapshot, with
//!   violations logged and exposed;
//! - **policy** — [`Rule`]s: FLO/C interaction rules held as values (a
//!   [`Metric`], a [`RuleMonitor`] over a threshold, an [`Intercession`]
//!   and a cooldown), evaluated on the same periodic snapshots — the
//!   paper's "periodical measurements on the evolving infrastructure".

use crate::component::Lifecycle;
use crate::connector::ConnectorSpec;
use crate::message::Name;
use crate::reconfig::ReconfigPlan;
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

/// What the meta-level reads of the running system: the runtime's own
/// view, read in place at a meta tick, or a [`SystemSnapshot`] taken once.
/// Rules, constraints and repair policies read through it, so they read
/// either alike.
pub trait Observe {
    /// When the reading is taken.
    fn at(&self) -> SimTime;
    /// The live component instance named `name`.
    fn component(&self, name: &str) -> Option<ComponentObservation>;
    /// Every node, ascending by id.
    fn nodes(&self) -> impl Iterator<Item = NodeObservation> + '_;
    /// The node `id`, if there is one.
    fn node(&self, id: NodeId) -> Option<NodeObservation>;
    /// The components hosted on `node`, in name order.
    fn hosted(&self, node: NodeId) -> impl Iterator<Item = ComponentObservation> + '_;
}

impl Observe for SystemSnapshot {
    fn at(&self) -> SimTime {
        self.at
    }

    fn component(&self, name: &str) -> Option<ComponentObservation> {
        SystemSnapshot::component(self, name).cloned()
    }

    fn nodes(&self) -> impl Iterator<Item = NodeObservation> + '_ {
        self.nodes.iter().cloned()
    }

    fn node(&self, id: NodeId) -> Option<NodeObservation> {
        SystemSnapshot::node(self, id).cloned()
    }

    fn hosted(&self, node: NodeId) -> impl Iterator<Item = ComponentObservation> + '_ {
        SystemSnapshot::hosted(self, node).cloned()
    }
}

/// An intercession command RAML can issue against the running system.
#[derive(Debug, Clone)]
pub enum Intercession {
    /// Submit a reconfiguration plan (the heavyweight path: quiescence,
    /// channel blocking, state transfer).
    Reconfigure(ReconfigPlan),
    /// Interchange a connector in place — the lightweight adaptation path:
    /// no quiescence, no blocking, takes effect on the next message. The
    /// swap is refused, and nothing changes, where a plan's
    /// [`ReconfigAction::SwapConnector`](crate::reconfig::ReconfigAction::SwapConnector)
    /// would be: the connector is unknown or mid-collaboration, or the new
    /// protocol deadlocks with a bound target. A refused repair is booked
    /// as a failed one and planned again at the detector's next instant.
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
    /// Checks the constraint against a reading; `None` means compliant.
    #[must_use]
    pub fn check(&self, snap: &impl Observe) -> Option<Violation> {
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

/// One reading a rule watches: a component's or a node's, as the ADL
/// names it (`latency(coder)`, `utilization(edge)`).
#[derive(Debug, Clone)]
pub enum Metric {
    /// `latency(c)`: mean end-to-end latency (ms).
    Latency(Name),
    /// `p99_latency(c)`: 99th-percentile latency (ms).
    P99Latency(Name),
    /// `error_rate(c)`: handler errors per message processed.
    ErrorRate(Name),
    /// `inflight(c)`: messages being processed.
    Inflight(Name),
    /// `processed(c)`: messages processed so far.
    Processed(Name),
    /// `seq_anomalies(c)`: sequence anomalies at the inbox.
    SeqAnomalies(Name),
    /// `utilization(n)`: utilization over the run so far.
    Utilization(NodeId),
    /// `backlog(n)`: queued work (ms).
    Backlog(NodeId),
    /// `capacity(n)`: effective capacity (work units per second).
    Capacity(NodeId),
}

/// What an ADL metric name is read off, with the constructor of its
/// [`Metric`].
#[derive(Debug, Clone, Copy)]
pub enum MetricOf {
    /// A component metric.
    Component(fn(Name) -> Metric),
    /// A node metric.
    Node(fn(NodeId) -> Metric),
}

/// The ADL's metric names: the one list of them.
const METRICS: [(&str, MetricOf); 9] = [
    ("latency", MetricOf::Component(Metric::Latency)),
    ("p99_latency", MetricOf::Component(Metric::P99Latency)),
    ("error_rate", MetricOf::Component(Metric::ErrorRate)),
    ("inflight", MetricOf::Component(Metric::Inflight)),
    ("processed", MetricOf::Component(Metric::Processed)),
    ("seq_anomalies", MetricOf::Component(Metric::SeqAnomalies)),
    ("utilization", MetricOf::Node(Metric::Utilization)),
    ("backlog", MetricOf::Node(Metric::Backlog)),
    ("capacity", MetricOf::Node(Metric::Capacity)),
];

impl Metric {
    /// Looks up the metric the ADL calls `name`; `None` if it is none.
    #[must_use]
    pub fn named(name: &str) -> Option<MetricOf> {
        METRICS.iter().find(|(n, _)| *n == name).map(|&(_, of)| of)
    }

    /// The reading in `snap`; `None` while its subject is absent.
    #[must_use]
    pub fn read(&self, snap: &impl Observe) -> Option<f64> {
        match self {
            Metric::Latency(c) => snap.component(c).map(|c| c.mean_latency_ms),
            Metric::P99Latency(c) => snap.component(c).map(|c| c.p99_latency_ms),
            Metric::ErrorRate(c) => snap.component(c).map(|c| c.error_rate()),
            Metric::Inflight(c) => snap.component(c).map(|c| f64::from(c.inflight)),
            Metric::Processed(c) => snap.component(c).map(|c| c.processed as f64),
            Metric::SeqAnomalies(c) => snap.component(c).map(|c| c.seq_anomalies as f64),
            Metric::Utilization(n) => snap.node(*n).map(|n| n.utilization),
            Metric::Backlog(n) => snap.node(*n).map(|n| n.backlog_ms),
            Metric::Capacity(n) => snap.node(*n).map(|n| n.effective_capacity),
        }
    }
}

/// Comparison operator in rule conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
}

impl Cmp {
    /// Evaluates `lhs CMP rhs`.
    #[must_use]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Gt => ">",
            Cmp::Lt => "<",
            Cmp::Ge => ">=",
            Cmp::Le => "<=",
        };
        f.write_str(s)
    }
}

/// The FLO/C temporal operators, as the paper lists them: "impliesLater,
/// implies, impliesBefore, permittedIf, and waitUntil".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemporalOp {
    /// Fire while the condition holds (level-triggered, with cooldown).
    Implies,
    /// Fire one observation tick after the condition held.
    ImpliesLater,
    /// Fire *in anticipation*: when the metric reaches 80% of the
    /// threshold, before the condition itself becomes true.
    ImpliesBefore,
    /// The action is *permitted* (and taken) only while the condition
    /// holds.
    PermittedIf,
    /// Arm immediately; fire on the first false→true transition.
    WaitUntil,
}

impl fmt::Display for TemporalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TemporalOp::Implies => "implies",
            TemporalOp::ImpliesLater => "implies_later",
            TemporalOp::ImpliesBefore => "implies_before",
            TemporalOp::PermittedIf => "permitted_if",
            TemporalOp::WaitUntil => "wait_until",
        };
        f.write_str(s)
    }
}

/// The executable meaning of one FLO/C interaction rule over the periodic
/// observation stream. The paper (citing FLO/C) lists five operators:
///
/// - **implies** — fire whenever the condition holds (level-triggered).
/// - **implies_later** — fire one observation *after* the condition held
///   (delayed action).
/// - **implies_before** — anticipatory: fire when the metric is within 80%
///   of the threshold, before the condition itself becomes true.
/// - **permitted_if** — the action is permitted, and taken, only while the
///   condition holds.
/// - **wait_until** — armed immediately; fires once on the first
///   false→true transition, then disarms until re-armed.
#[derive(Debug, Clone)]
pub struct RuleMonitor {
    op: TemporalOp,
    cmp: Cmp,
    threshold: f64,
    prev_condition: bool,
    pending_later: bool,
    armed: bool,
}

impl RuleMonitor {
    /// A monitor for `metric CMP threshold` under `op`.
    #[must_use]
    pub fn new(op: TemporalOp, cmp: Cmp, threshold: f64) -> Self {
        RuleMonitor {
            op,
            cmp,
            threshold,
            prev_condition: false,
            pending_later: false,
            armed: true,
        }
    }

    /// Feeds one observation; returns `true` if the rule's action should
    /// fire now.
    pub fn step(&mut self, value: f64) -> bool {
        let cond = self.cmp.eval(value, self.threshold);
        let fire = match self.op {
            TemporalOp::Implies | TemporalOp::PermittedIf => cond,
            TemporalOp::ImpliesLater => {
                let fire = self.pending_later;
                self.pending_later = cond;
                fire
            }
            TemporalOp::ImpliesBefore => {
                // Anticipate: fire when within 80% of the threshold, in the
                // direction of the comparison.
                let approaching = match self.cmp {
                    Cmp::Gt | Cmp::Ge => value >= self.threshold * 0.8,
                    Cmp::Lt | Cmp::Le => value <= self.threshold * 1.25,
                };
                approaching && !cond
            }
            TemporalOp::WaitUntil => {
                let fire = cond && !self.prev_condition && self.armed;
                self.armed &= !fire;
                fire
            }
        };
        self.prev_condition = cond;
        fire
    }

    /// Re-arms a `wait_until` monitor so it can fire again.
    pub fn rearm(&mut self) {
        self.armed = true;
    }
}

/// A trigger rule, held as the value it was declared as: when its monitor
/// fires on the [`Metric`] it reads (and the cooldown has elapsed), it
/// issues its [`Intercession`].
#[derive(Debug, Clone)]
pub struct Rule {
    name: String,
    metric: Metric,
    monitor: RuleMonitor,
    intercession: Intercession,
    cooldown: SimDuration,
    last_fired: Option<SimTime>,
    last_rearmed: SimTime,
    fired_count: u64,
}

impl Rule {
    /// A rule named `name` issuing `intercession` when `monitor` fires on
    /// `metric`, at most once per `cooldown`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        metric: Metric,
        monitor: RuleMonitor,
        intercession: Intercession,
        cooldown: SimDuration,
    ) -> Self {
        Rule {
            name: name.into(),
            metric,
            monitor,
            intercession,
            cooldown,
            last_fired: None,
            last_rearmed: SimTime::ZERO,
            fired_count: 0,
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

    /// Shows the rule one reading; `true` if it fires. The monitor steps
    /// only out of cooldown and while the metric reads a value. Before it
    /// steps, a `wait_until` rule with a cooldown re-arms once twice its
    /// cooldown has passed since it last did (from t = 0), so it can answer
    /// later episodes too.
    fn fires(&mut self, snap: &impl Observe) -> bool {
        let at = snap.at();
        let cooled = self
            .last_fired
            .is_none_or(|t| at.saturating_since(t) >= self.cooldown);
        let Some(value) = cooled.then(|| self.metric.read(snap)).flatten() else {
            return false;
        };
        if self.monitor.op == TemporalOp::WaitUntil
            && !self.cooldown.is_zero()
            && at.saturating_since(self.last_rearmed) >= self.cooldown * 2
        {
            self.monitor.rearm();
            self.last_rearmed = at;
        }
        let fire = self.monitor.step(value);
        if fire {
            self.last_fired = Some(at);
            self.fired_count += 1;
        }
        fire
    }
}

/// The meta-level: constraints + rules + the violation log.
#[derive(Debug)]
pub struct Raml {
    interval: SimDuration,
    rules: Vec<Rule>,
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

    /// Installs a constraint.
    pub fn add_constraint(&mut self, constraint: Constraint) -> &mut Self {
        self.constraints.push(constraint);
        self
    }

    /// Evaluates constraints and rules against `snap`, returning the
    /// intercessions to execute. Violations are logged.
    pub fn evaluate(&mut self, snap: &impl Observe) -> Vec<Intercession> {
        self.snapshots_taken += 1;
        for c in &self.constraints {
            if let Some(v) = c.check(snap) {
                self.violations.push((snap.at(), v));
            }
        }
        self.rules
            .iter_mut()
            .filter_map(|rule| rule.fires(snap).then(|| rule.intercession.clone()))
            .collect()
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

    fn notify_rule(name: &str, metric: Metric, limit: f64, cooldown: SimDuration) -> Rule {
        Rule::new(
            name,
            metric,
            RuleMonitor::new(TemporalOp::Implies, Cmp::Gt, limit),
            Intercession::Notify(format!("{name}!")),
            cooldown,
        )
    }

    #[test]
    fn rule_fires_once_per_cooldown() {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_rule(notify_rule(
            "hot",
            Metric::Latency("svc".into()),
            10.0,
            SimDuration::from_secs(1),
        ));
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
    fn rule_respects_condition_and_absent_subjects() {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_rule(notify_rule(
            "never",
            Metric::Latency("svc".into()),
            1000.0,
            SimDuration::ZERO,
        ));
        raml.add_rule(notify_rule(
            "ghost",
            Metric::Latency("ghost".into()),
            0.0,
            SimDuration::ZERO,
        ));
        assert!(raml
            .evaluate(&snap_with_latency(SimTime::ZERO, 50.0))
            .is_empty());
    }

    #[test]
    fn metrics_are_named_once_and_read_off_the_snapshot() {
        let snap = snap_with_latency(SimTime::ZERO, 42.0);
        let read = |name: &str| match Metric::named(name).expect("a metric") {
            MetricOf::Component(metric) => metric("svc".into()).read(&snap),
            MetricOf::Node(metric) => metric(NodeId(0)).read(&snap),
        };
        assert_eq!(read("latency"), Some(42.0));
        assert_eq!(read("p99_latency"), Some(126.0));
        assert_eq!(read("error_rate"), Some(0.05));
        assert_eq!(read("inflight"), Some(0.0));
        assert_eq!(read("processed"), Some(100.0));
        assert_eq!(read("seq_anomalies"), Some(0.0));
        assert_eq!(read("utilization"), Some(0.9));
        assert_eq!(read("backlog"), Some(5.0));
        assert_eq!(read("capacity"), Some(100.0));
        assert!(Metric::named("temperature").is_none());
        assert_eq!(Metric::Latency("ghost".into()).read(&snap), None);
        assert_eq!(Metric::Utilization(NodeId(9)).read(&snap), None);
    }

    #[test]
    fn cmp_eval_table() {
        assert!(Cmp::Gt.eval(2.0, 1.0));
        assert!(!Cmp::Gt.eval(1.0, 1.0));
        assert!(Cmp::Ge.eval(1.0, 1.0));
        assert!(Cmp::Lt.eval(0.0, 1.0));
        assert!(Cmp::Le.eval(1.0, 1.0));
    }

    #[test]
    fn displays() {
        assert_eq!(TemporalOp::ImpliesLater.to_string(), "implies_later");
        assert_eq!(Cmp::Ge.to_string(), ">=");
    }

    #[test]
    fn implies_is_level_triggered() {
        let mut m = RuleMonitor::new(TemporalOp::Implies, Cmp::Gt, 10.0);
        assert!(!m.step(5.0));
        assert!(m.step(15.0));
        assert!(m.step(15.0), "fires every tick while true");
        assert!(!m.step(5.0));
    }

    #[test]
    fn implies_later_fires_one_tick_late() {
        let mut m = RuleMonitor::new(TemporalOp::ImpliesLater, Cmp::Gt, 10.0);
        assert!(!m.step(15.0), "condition true now, action later");
        assert!(m.step(5.0), "fires for the previous tick");
        assert!(!m.step(5.0));
    }

    #[test]
    fn implies_before_anticipates_upward() {
        let mut m = RuleMonitor::new(TemporalOp::ImpliesBefore, Cmp::Gt, 100.0);
        assert!(!m.step(50.0), "far below");
        assert!(m.step(85.0), "within 80%: act before the violation");
        assert!(
            !m.step(150.0),
            "condition already true: too late to act before"
        );
    }

    #[test]
    fn implies_before_anticipates_downward() {
        let mut m = RuleMonitor::new(TemporalOp::ImpliesBefore, Cmp::Lt, 10.0);
        assert!(!m.step(50.0));
        assert!(m.step(12.0), "within 1.25x of a lower threshold");
        assert!(!m.step(5.0), "already below");
    }

    #[test]
    fn permitted_if_fires_while_permitted() {
        let mut m = RuleMonitor::new(TemporalOp::PermittedIf, Cmp::Le, 0.5);
        assert!(m.step(0.3));
        assert!(!m.step(0.9));
        assert!(m.step(0.5));
    }

    #[test]
    fn wait_until_fires_once_on_rising_edge() {
        let mut m = RuleMonitor::new(TemporalOp::WaitUntil, Cmp::Gt, 10.0);
        assert!(!m.step(5.0));
        assert!(m.step(20.0), "rising edge");
        assert!(!m.step(25.0), "still true, no refire");
        assert!(!m.step(5.0));
        assert!(!m.step(20.0), "disarmed: second edge ignored");
        m.rearm();
        assert!(!m.step(25.0), "no edge: was already true");
        assert!(!m.step(5.0));
        assert!(m.step(30.0), "re-armed and edge");
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
