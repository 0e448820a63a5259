//! Simulated hardware nodes.
//!
//! A node executes component work serially at a (possibly fluctuating)
//! capacity, measured in abstract *work units per second*. Jobs queue behind
//! one another, so an overloaded node exhibits the queueing delays that
//! drive the paper's load-balancing reconfigurations.

use crate::time::{SimDuration, SimTime};
use crate::trace::ResourceTrace;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Static description of a node, used when building a topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name.
    pub name: String,
    /// Nominal processing capacity in work units per second.
    pub capacity: f64,
    /// Memory capacity in abstract units (placement constraint input).
    pub memory: u64,
    /// Optional multiplier trace in `[0, 1]` modelling capacity fluctuation.
    pub capacity_trace: Option<ResourceTrace>,
}

impl NodeSpec {
    /// A node with the given name and nominal capacity.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity: f64) -> Self {
        NodeSpec {
            name: name.into(),
            capacity,
            memory: u64::MAX,
            capacity_trace: None,
        }
    }

    /// Sets the memory capacity.
    #[must_use]
    pub fn with_memory(mut self, memory: u64) -> Self {
        self.memory = memory;
        self
    }

    /// Attaches a capacity-fluctuation trace (multiplier, clamped to
    /// `[0.01, 1]` at sample time so capacity never reaches zero).
    #[must_use]
    pub fn with_capacity_trace(mut self, trace: ResourceTrace) -> Self {
        self.capacity_trace = Some(trace);
        self
    }
}

/// Runtime state of a node inside the kernel.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    /// Never written after the node is built, so a clone shares it.
    spec: Arc<NodeSpec>,
    up: bool,
    busy_until: SimTime,
    busy_total: SimDuration,
    jobs_run: u64,
}

impl Node {
    pub(crate) fn new(id: NodeId, spec: NodeSpec) -> Self {
        Node {
            id,
            spec: Arc::new(spec),
            up: true,
            busy_until: SimTime::ZERO,
            busy_total: SimDuration::ZERO,
            jobs_run: 0,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The static spec this node was built from.
    #[must_use]
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// Whether the node is currently up.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Effective capacity at time `t`: nominal capacity times the clamped
    /// fluctuation trace.
    #[must_use]
    pub fn effective_capacity(&self, t: SimTime) -> f64 {
        let mult = self
            .spec
            .capacity_trace
            .as_ref()
            .map_or(1.0, |tr| tr.sample(t).clamp(0.01, 1.0));
        self.spec.capacity * mult
    }

    /// Enqueues a job of `cost` work units submitted at `now` and returns
    /// the total delay until completion (queueing + service).
    ///
    /// Jobs run serially: a job submitted while another is in progress
    /// starts when the node frees up.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is negative or non-finite.
    pub fn run_job(&mut self, now: SimTime, cost: f64) -> SimDuration {
        assert!(cost.is_finite() && cost >= 0.0, "bad job cost {cost}");
        let start = self.busy_until.max(now);
        let service = SimDuration::from_secs_f64(cost / self.effective_capacity(start));
        let finish = start + service;
        self.busy_until = finish;
        self.busy_total += service;
        self.jobs_run += 1;
        finish.saturating_since(now)
    }

    /// The time at which the node's queue drains, given no further jobs.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Queueing backlog at `now`: how long a zero-cost job would wait.
    #[must_use]
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Total busy time accumulated so far.
    #[must_use]
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Utilization over `[SimTime::ZERO, now]`, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total.as_secs_f64() / now.as_secs_f64()).min(1.0)
    }

    /// Number of jobs executed on this node.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(capacity: f64) -> Node {
        Node::new(NodeId(0), NodeSpec::new("n", capacity))
    }

    #[test]
    fn idle_node_runs_job_in_service_time() {
        let mut n = node(100.0); // 100 units/sec
        let d = n.run_job(SimTime::ZERO, 50.0); // 0.5 s
        assert_eq!(d, SimDuration::from_millis(500));
    }

    #[test]
    fn jobs_queue_serially() {
        let mut n = node(100.0);
        let d1 = n.run_job(SimTime::ZERO, 100.0); // 1 s
        let d2 = n.run_job(SimTime::ZERO, 100.0); // queues behind: 2 s total
        assert_eq!(d1, SimDuration::from_secs(1));
        assert_eq!(d2, SimDuration::from_secs(2));
    }

    #[test]
    fn queue_drains_over_time() {
        let mut n = node(100.0);
        n.run_job(SimTime::ZERO, 100.0);
        // Submitted after the queue drained: no queueing delay.
        let d = n.run_job(SimTime::from_secs(5), 100.0);
        assert_eq!(d, SimDuration::from_secs(1));
        assert_eq!(n.backlog(SimTime::from_secs(6)), SimDuration::ZERO);
    }

    #[test]
    fn capacity_trace_slows_node() {
        let spec = NodeSpec::new("n", 100.0).with_capacity_trace(ResourceTrace::constant(0.5));
        let mut n = Node::new(NodeId(1), spec);
        let d = n.run_job(SimTime::ZERO, 100.0);
        assert_eq!(d, SimDuration::from_secs(2));
    }

    #[test]
    fn capacity_never_hits_zero() {
        let spec = NodeSpec::new("n", 100.0).with_capacity_trace(ResourceTrace::constant(0.0));
        let n = Node::new(NodeId(1), spec);
        assert!(n.effective_capacity(SimTime::ZERO) >= 1.0);
    }

    #[test]
    fn utilization_accumulates() {
        let mut n = node(100.0);
        n.run_job(SimTime::ZERO, 100.0); // busy 1s
        assert!((n.utilization(SimTime::from_secs(2)) - 0.5).abs() < 1e-9);
        assert_eq!(n.jobs_run(), 1);
    }

    #[test]
    fn utilization_before_start_is_zero() {
        let n = node(10.0);
        assert_eq!(n.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad job cost")]
    fn negative_cost_rejected() {
        let mut n = node(10.0);
        let _ = n.run_job(SimTime::ZERO, -1.0);
    }
}
