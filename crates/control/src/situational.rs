//! The global situational model the negotiation coordinator arbitrates
//! against (DESIGN.md §2.10).
//!
//! The paper's RAML meta-level decides adaptation *globally*, against a
//! picture of the whole system, not per-loop. [`SituationalModel`] is that
//! picture: a plain, deterministic snapshot of offered load, sustainable
//! capacity, per-agent demand observations, per-node health (utilization,
//! backlog, failure-detector suspicion) and the region epoch, stamped with
//! the instant it was observed.
//!
//! The model is pure data: the runtime (aas-core) keeps it and refreshes
//! it in place each negotiation tick from what its meta-level reads of
//! the instances and nodes — an agent's entry is added when the instance
//! appears and removed when it leaves, every other entry is overwritten —
//! and the [`Negotiator`](crate::negotiate::Negotiator) consumes it
//! read-only. Keeping it a value type is what makes arbitration
//! replayable byte-for-byte: same model + same requests = same grants.

use crate::negotiate::Fnv1a;
use aas_sim::time::SimTime;
use core::fmt::Write as _;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the coordinator knows about one budget agent's recent behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentObservation {
    /// Node currently hosting the agent.
    pub node: u32,
    /// Messages delivered to the agent since the previous tick.
    pub arrivals: u64,
    /// Jobs currently in flight on the agent.
    pub inflight: u64,
    /// Total messages the agent has processed.
    pub processed: u64,
    /// Total errors the agent has raised.
    pub errors: u64,
    /// Mean service latency observed for the agent, in milliseconds.
    pub mean_latency_ms: f64,
}

impl AgentObservation {
    /// An idle observation on `node` — the state of an agent that has
    /// received no traffic yet.
    #[must_use]
    pub fn idle(node: u32) -> Self {
        AgentObservation {
            node,
            arrivals: 0,
            inflight: 0,
            processed: 0,
            errors: 0,
            mean_latency_ms: 0.0,
        }
    }
}

/// What the coordinator knows about one node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSituation {
    /// Whether the node is up.
    pub up: bool,
    /// Utilization of the node's service capacity, 1.0 = saturated.
    pub utilization: f64,
    /// Backlog of queued work on the node, in milliseconds of service time.
    pub backlog_ms: f64,
    /// Remaining effective service capacity (work units per second).
    pub effective_capacity: f64,
    /// Phi-accrual suspicion level from the failure detector (0 when no
    /// detector is running or the node looks healthy).
    pub suspicion: f64,
}

impl NodeSituation {
    /// A healthy, idle node with the given capacity.
    #[must_use]
    pub fn healthy(effective_capacity: f64) -> Self {
        NodeSituation {
            up: true,
            utilization: 0.0,
            backlog_ms: 0.0,
            effective_capacity,
            suspicion: 0.0,
        }
    }
}

/// The coordinator's global picture of the system at one instant.
///
/// All collections are `BTreeMap`s so iteration order — and therefore
/// everything derived from the model, including grant fingerprints — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SituationalModel {
    /// When the model was assembled.
    pub observed_at: SimTime,
    /// Global offered load over the last observation interval, events/s.
    pub arrival_rate: f64,
    /// Global sustainable service rate across up nodes, events/s.
    pub capacity_rate: f64,
    /// Per-agent observations, keyed by agent (instance) name.
    pub agents: BTreeMap<String, AgentObservation>,
    /// Per-node situations, keyed by node id.
    pub nodes: BTreeMap<u32, NodeSituation>,
    /// Topology region epoch at observation time (0 when regions are not
    /// in play).
    pub region_epoch: u64,
}

impl SituationalModel {
    /// A model observed at `now` with no agents and no nodes.
    #[must_use]
    pub fn empty(now: SimTime) -> Self {
        SituationalModel {
            observed_at: now,
            ..SituationalModel::default()
        }
    }

    /// FNV-1a fingerprint of every field, with floats rendered at fixed
    /// precision so the digest is byte-stable across replays.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        let _ = write!(
            h,
            "at={} arr={:.6} cap={:.6} epoch={}",
            self.observed_at.as_micros(),
            self.arrival_rate,
            self.capacity_rate,
            self.region_epoch
        );
        for (name, a) in &self.agents {
            let _ = write!(
                h,
                "|a:{name}:{}:{}:{}:{}:{}:{:.6}",
                a.node, a.arrivals, a.inflight, a.processed, a.errors, a.mean_latency_ms
            );
        }
        for (id, n) in &self.nodes {
            let _ = write!(
                h,
                "|n:{id}:{}:{:.6}:{:.6}:{:.6}:{:.6}",
                u8::from(n.up),
                n.utilization,
                n.backlog_ms,
                n.effective_capacity,
                n.suspicion
            );
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SituationalModel {
        let mut m = SituationalModel::empty(SimTime::from_micros(1_000_000));
        m.arrival_rate = 500.0;
        m.capacity_rate = 50.0;
        m.agents.insert("svc".into(), AgentObservation::idle(2));
        m.nodes.insert(0, NodeSituation::healthy(1000.0));
        m.nodes.insert(
            2,
            NodeSituation {
                up: true,
                utilization: 0.9,
                backlog_ms: 120.0,
                effective_capacity: 100.0,
                suspicion: 1.5,
            },
        );
        m
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let m = model();
        assert_eq!(m.fingerprint(), m.clone().fingerprint());
        let mut changed = model();
        changed.arrival_rate += 1.0;
        assert_ne!(m.fingerprint(), changed.fingerprint());
        let mut node_changed = model();
        node_changed.nodes.get_mut(&2).unwrap().suspicion = 0.0;
        assert_ne!(m.fingerprint(), node_changed.fingerprint());
    }
}
