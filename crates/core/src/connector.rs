//! Connectors: first-class component glue.
//!
//! The paper's vision makes connectors the centre of gravity: "a connector
//! is a light-weight component which functions as a glue of components and
//! induces a low overload", modelled "using first order automata, which
//! defines the states of collaboration", and generated by a
//! "connector-factory … according to the description of elementary services
//! and aspects that are selected for a specific collaboration": here the
//! [`ConnectorSpec::direct`] builder, whose `with_*` steps select the
//! routing policy, the aspects and the protocol.
//!
//! A [`Connector`] mediates every message that crosses it: it enforces an
//! optional LTS protocol, applies an aspect chain (logging, metering,
//! encryption, compression, sequencing), and routes to one or more targets
//! according to its [`RoutingPolicy`]. Connectors can be interchanged at
//! run time without touching the components they glue, at a final state
//! of their protocol.

use crate::lts::{Label, Lts, LtsRunner, ProtocolViolation};
use crate::message::{Message, Name};
use aas_obs::Summary;
use aas_sim::time::{SimDuration, SimTime};
use core::fmt;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Unique identifier of a connector instance within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnectorId(pub u64);

impl fmt::Display for ConnectorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// How a connector distributes messages among its bound targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoutingPolicy {
    /// Always the first (usually only) target.
    #[default]
    Direct,
    /// Cycle through targets.
    RoundRobin,
    /// Deliver a copy to every target.
    Broadcast,
}

/// An aspect woven into a connector's mediation chain.
///
/// Aspects are the crosscutting concerns of the paper's §2: behaviour that
/// "cannot be encapsulated by a single component" and is instead attached
/// to the interaction itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConnectorAspect {
    /// Counts and remembers the last operation seen.
    Logging,
    /// Records end-to-end latency observations (visible to RAML).
    Metering,
    /// Simulated encryption: adds processing cost per message.
    Encryption {
        /// Extra work units per message.
        cost: f64,
    },
    /// Simulated compression: scales wire size, adds processing cost.
    Compression {
        /// Multiplier on the message's wire size (e.g. `0.5` halves it).
        ratio: f64,
        /// Extra work units per message.
        cost: f64,
    },
    /// Verifies per-flow sequence numbers and counts anomalies.
    SequenceCheck,
}

impl ConnectorAspect {
    /// The aspect's short name (for reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ConnectorAspect::Logging => "logging",
            ConnectorAspect::Metering => "metering",
            ConnectorAspect::Encryption { .. } => "encryption",
            ConnectorAspect::Compression { .. } => "compression",
            ConnectorAspect::SequenceCheck => "sequence-check",
        }
    }
}

/// Per-binding retry/timeout/backoff policy a connector applies to
/// messages that fail to deliver (destination down, route lost).
///
/// A dropped delivery is re-sent after `base_delay`, then again after
/// `base_delay * multiplier`, and so on, up to `max_attempts` total
/// attempts — classic capped exponential backoff, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total send attempts (the initial send counts as the first).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: SimDuration,
    /// Multiplier applied to the delay after each failed attempt.
    pub multiplier: f64,
}

impl RetryPolicy {
    /// A policy with the given attempt budget and initial delay, doubling
    /// the delay after each failure.
    #[must_use]
    pub fn new(max_attempts: u32, base_delay: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay,
            multiplier: 2.0,
        }
    }

    /// Sets the backoff multiplier (builder style).
    #[must_use]
    pub fn with_multiplier(mut self, multiplier: f64) -> Self {
        self.multiplier = multiplier;
        self
    }

    /// The backoff delay before retry number `retry` (0-based): the first
    /// retry waits `base_delay`, each later one `multiplier`× more.
    #[must_use]
    pub fn delay_for(&self, retry: u32) -> SimDuration {
        let factor = self.multiplier.max(1.0).powi(retry.min(30) as i32);
        SimDuration::from_secs_f64(self.base_delay.as_secs_f64() * factor)
    }
}

/// Declarative description of a connector; the unit of interchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnectorSpec {
    /// Connector name (unique within a configuration).
    pub name: String,
    /// Routing policy.
    pub policy: RoutingPolicy,
    /// Aspect chain, applied in order.
    pub aspects: Vec<ConnectorAspect>,
    /// Optional collaboration protocol enforced at run time.
    pub protocol: Option<Lts>,
    /// Base mediation cost in work units per message — the connector's
    /// "low overload" made explicit and measurable (experiment E2).
    pub base_cost: f64,
    /// Optional retry/backoff policy for failed deliveries.
    pub retry: Option<RetryPolicy>,
}

impl ConnectorSpec {
    /// A plain direct connector with no aspects and negligible cost.
    #[must_use]
    pub fn direct(name: impl Into<String>) -> Self {
        ConnectorSpec {
            name: name.into(),
            policy: RoutingPolicy::Direct,
            aspects: Vec::new(),
            protocol: None,
            base_cost: 0.01,
            retry: None,
        }
    }

    /// Sets the routing policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Appends an aspect (builder style).
    #[must_use]
    pub fn with_aspect(mut self, aspect: ConnectorAspect) -> Self {
        self.aspects.push(aspect);
        self
    }

    /// Sets the protocol (builder style).
    #[must_use]
    pub fn with_protocol(mut self, protocol: Lts) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Sets the base mediation cost (builder style).
    #[must_use]
    pub fn with_base_cost(mut self, cost: f64) -> Self {
        self.base_cost = cost;
        self
    }

    /// Attaches a retry/backoff policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }
}

/// Statistics a connector accumulates while mediating.
#[derive(Debug, Clone, Default)]
pub struct ConnectorStats {
    /// Messages mediated.
    pub mediated: u64,
    /// Protocol violations detected (messages still pass in open mode).
    pub violations: u64,
    /// Sequence anomalies (gaps + duplicates) seen by `SequenceCheck`.
    pub seq_anomalies: u64,
    /// Latency observations recorded by `Metering` (milliseconds).
    pub metered_latency: Summary,
    /// Last operation seen by `Logging`.
    pub last_op: Option<Name>,
}

/// Result of mediating one message through a connector.
#[derive(Debug, Clone, PartialEq)]
pub struct Mediation {
    /// Total extra work units to charge on the receiving node.
    pub extra_cost: f64,
    /// Multiplier to apply to the message's wire size.
    pub size_factor: f64,
    /// Indices (into the target list) the message should go to.
    pub targets: core::ops::Range<usize>,
    /// Protocol violation, if one was detected (message passes anyway in
    /// open mode; the violation is surfaced to RAML).
    pub violation: Option<ProtocolViolation>,
}

/// A live connector instance.
#[derive(Debug, Clone)]
pub struct Connector {
    id: ConnectorId,
    spec: ConnectorSpec,
    runner: Option<LtsRunner>,
    rr_next: usize,
    /// The next sequence number expected on each flow, by the ids of its
    /// sender and receiver.
    seq_next: BTreeMap<(u64, u64), u64>,
    stats: ConnectorStats,
}

impl Connector {
    /// Instantiates a connector from its spec.
    #[must_use]
    pub fn new(id: ConnectorId, spec: ConnectorSpec) -> Self {
        let runner = spec.protocol.clone().map(|lts| LtsRunner::new(lts, false));
        Connector {
            id,
            spec,
            runner,
            rr_next: 0,
            seq_next: BTreeMap::new(),
            stats: ConnectorStats::default(),
        }
    }

    /// This connector's id.
    #[must_use]
    pub fn id(&self) -> ConnectorId {
        self.id
    }

    /// The spec it was built from.
    #[must_use]
    pub fn spec(&self) -> &ConnectorSpec {
        &self.spec
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &ConnectorStats {
        &self.stats
    }

    /// The state its protocol's runner is in, if that is not a final one.
    /// `None` means the collaboration is at a safe interchange point, as a
    /// connector without a protocol always is.
    #[must_use]
    pub fn mid_collaboration(&self) -> Option<&str> {
        let runner = self.runner.as_ref().filter(|r| !r.at_final());
        runner.map(LtsRunner::current_state)
    }

    /// Whether the aspect chain includes [`ConnectorAspect::SequenceCheck`].
    #[must_use]
    pub fn has_sequence_check(&self) -> bool {
        self.spec
            .aspects
            .iter()
            .any(|a| matches!(a, ConnectorAspect::SequenceCheck))
    }

    /// Feeds one message's sequence number on `flow` — the ids of its
    /// sender and receiver — to the sequence-check aspect. The runtime
    /// calls this as the message is handed to its receiver, where the
    /// receiver's own tracker sees it, so a loss or a reordering on the
    /// way shows here too. The first number seen
    /// on a flow is its start: a connector put in mid-stream joins flows
    /// whose counters are already running. After that, a jump forward
    /// counts the numbers it skipped and a number at or before one seen
    /// counts once.
    pub fn observe_sequence(&mut self, flow: (u64, u64), seq: u64) {
        let next = self.seq_next.entry(flow).or_insert(seq);
        if seq >= *next {
            self.stats.seq_anomalies += seq - *next;
            *next = seq + 1;
        } else {
            self.stats.seq_anomalies += 1;
        }
    }

    /// Mediates one message heading to a set of `target_count` bound
    /// targets, returning cost/size adjustments and the chosen targets.
    ///
    /// # Panics
    ///
    /// Panics if `target_count` is zero.
    pub fn mediate(&mut self, msg: &Message, now: SimTime, target_count: usize) -> Mediation {
        assert!(target_count > 0, "connector has no targets");
        self.stats.mediated += 1;

        // Protocol step (the collaboration automaton).
        let violation = match self.runner.as_mut() {
            Some(runner) => runner.try_fire(&Label::recv(msg.op.as_str())).err(),
            None => None,
        };
        if violation.is_some() {
            self.stats.violations += 1;
        }

        // Aspect chain.
        let mut extra_cost = self.spec.base_cost;
        let mut size_factor = 1.0;
        for aspect in &self.spec.aspects {
            match aspect {
                ConnectorAspect::Logging => {
                    self.stats.last_op = Some(msg.op.clone());
                }
                ConnectorAspect::Metering => {
                    let latency_ms = now.saturating_since(msg.sent_at).as_micros() as f64 / 1e3;
                    self.stats.metered_latency.observe(latency_ms);
                }
                ConnectorAspect::Encryption { cost } => {
                    extra_cost += cost;
                }
                ConnectorAspect::Compression { ratio, cost } => {
                    size_factor *= ratio;
                    extra_cost += cost;
                }
                // Sequence checking happens at delivery; see
                // `observe_sequence`.
                ConnectorAspect::SequenceCheck => {}
            }
        }
        // Routing.
        let targets = match self.spec.policy {
            RoutingPolicy::Direct => 0..1,
            RoutingPolicy::RoundRobin => {
                let t = self.rr_next % target_count;
                self.rr_next = self.rr_next.wrapping_add(1);
                t..t + 1
            }
            RoutingPolicy::Broadcast => 0..target_count,
        };

        Mediation {
            extra_cost,
            size_factor,
            targets,
            violation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Value;

    fn msg(op: &str, seq: u64, from: &str) -> Message {
        let mut m = Message::request(op.to_owned(), Value::from(1));
        m.seq = seq;
        m.from = from.to_owned().into();
        m
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        use aas_sim::time::SimDuration;
        let p = RetryPolicy::new(4, SimDuration::from_millis(10));
        assert_eq!(p.delay_for(0), SimDuration::from_millis(10));
        assert_eq!(p.delay_for(1), SimDuration::from_millis(20));
        assert_eq!(p.delay_for(2), SimDuration::from_millis(40));
        let flat = RetryPolicy::new(3, SimDuration::from_millis(5)).with_multiplier(1.0);
        assert_eq!(flat.delay_for(5), SimDuration::from_millis(5));
        let spec = ConnectorSpec::direct("r").with_retry(p);
        assert_eq!(spec.retry.unwrap().max_attempts, 4);
    }

    #[test]
    fn direct_routes_to_first() {
        let mut c = Connector::new(ConnectorId(0), ConnectorSpec::direct("d"));
        let m = c.mediate(&msg("op", 0, "a"), SimTime::ZERO, 3);
        assert_eq!(m.targets, 0..1);
        assert!(m.violation.is_none());
        assert!((m.size_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_robin_cycles() {
        let spec = ConnectorSpec::direct("rr").with_policy(RoutingPolicy::RoundRobin);
        let mut c = Connector::new(ConnectorId(0), spec);
        let picks: Vec<_> = (0..4)
            .map(|i| c.mediate(&msg("op", i, "a"), SimTime::ZERO, 3).targets)
            .collect();
        assert_eq!(picks, vec![0..1, 1..2, 2..3, 0..1]);
    }

    #[test]
    fn broadcast_hits_everyone() {
        let spec = ConnectorSpec::direct("bc").with_policy(RoutingPolicy::Broadcast);
        let mut c = Connector::new(ConnectorId(0), spec);
        let m = c.mediate(&msg("op", 0, "a"), SimTime::ZERO, 3);
        assert_eq!(m.targets, 0..3);
    }

    #[test]
    fn compression_scales_size_and_cost() {
        let spec = ConnectorSpec::direct("z").with_aspect(ConnectorAspect::Compression {
            ratio: 0.25,
            cost: 0.5,
        });
        let mut c = Connector::new(ConnectorId(0), spec.clone());
        let m = c.mediate(&msg("op", 0, "a"), SimTime::ZERO, 1);
        assert!((m.size_factor - 0.25).abs() < 1e-12);
        assert!((m.extra_cost - (spec.base_cost + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn encryption_adds_cost_only() {
        let spec =
            ConnectorSpec::direct("e").with_aspect(ConnectorAspect::Encryption { cost: 1.5 });
        let mut c = Connector::new(ConnectorId(0), spec.clone());
        let m = c.mediate(&msg("op", 0, "a"), SimTime::ZERO, 1);
        assert!((m.extra_cost - (spec.base_cost + 1.5)).abs() < 1e-12);
        assert!((m.size_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metering_records_latency() {
        let spec = ConnectorSpec::direct("m").with_aspect(ConnectorAspect::Metering);
        let mut c = Connector::new(ConnectorId(0), spec);
        let mut m = msg("op", 0, "a");
        m.sent_at = SimTime::ZERO;
        c.mediate(&m, SimTime::from_millis(25), 1);
        assert_eq!(c.stats().metered_latency.count(), 1);
        assert!((c.stats().metered_latency.mean() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn sequence_check_counts_anomalies() {
        let spec = ConnectorSpec::direct("s").with_aspect(ConnectorAspect::SequenceCheck);
        let mut c = Connector::new(ConnectorId(0), spec);
        assert!(c.has_sequence_check());
        c.observe_sequence((1, 2), 0);
        c.observe_sequence((1, 2), 1);
        c.observe_sequence((1, 2), 5); // gap of 3
        c.observe_sequence((1, 2), 5); // duplicate
        assert_eq!(c.stats().seq_anomalies, 4);
        // A flow first seen mid-stream starts where it is seen.
        c.observe_sequence((3, 2), 49);
        c.observe_sequence((3, 2), 50);
        assert_eq!(c.stats().seq_anomalies, 4);
        assert!(!Connector::new(ConnectorId(1), ConnectorSpec::direct("d")).has_sequence_check());
    }

    #[test]
    fn logging_remembers_last_op() {
        let spec = ConnectorSpec::direct("l").with_aspect(ConnectorAspect::Logging);
        let mut c = Connector::new(ConnectorId(0), spec);
        c.mediate(&msg("alpha", 0, "a"), SimTime::ZERO, 1);
        c.mediate(&msg("beta", 1, "a"), SimTime::ZERO, 1);
        assert_eq!(c.stats().last_op.as_deref(), Some("beta"));
        assert_eq!(c.stats().mediated, 2);
    }

    #[test]
    fn protocol_violation_is_surfaced_not_fatal() {
        let mut lts = Lts::new("svc-proto");
        let idle = lts.add_state("idle");
        let busy = lts.add_state("busy");
        lts.set_initial(idle);
        lts.mark_final(idle);
        lts.add_transition(idle, Label::recv("request"), busy);
        lts.add_transition(busy, Label::recv("request.reply"), idle);
        let mut c = Connector::new(
            ConnectorId(0),
            ConnectorSpec::direct("svc").with_protocol(lts),
        );
        assert_eq!(c.mid_collaboration(), None);
        // Reply before request: violation.
        let m = c.mediate(&msg("request.reply", 0, "a"), SimTime::ZERO, 1);
        assert!(m.violation.is_some());
        assert_eq!(c.stats().violations, 1);
        // Proper request now steps the automaton.
        let m2 = c.mediate(&msg("request", 1, "a"), SimTime::ZERO, 1);
        assert!(m2.violation.is_none());
        assert_eq!(c.mid_collaboration(), Some("busy"));
    }

    #[test]
    #[should_panic(expected = "no targets")]
    fn zero_targets_rejected() {
        let mut c = Connector::new(ConnectorId(0), ConnectorSpec::direct("d"));
        let _ = c.mediate(&msg("op", 0, "a"), SimTime::ZERO, 0);
    }
}
