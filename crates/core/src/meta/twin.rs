//! Digital-twin plan verification (DESIGN.md §2.9).
//!
//! The paper's prospective vision asks adaptive systems to *reason about*
//! a reconfiguration before enacting it, not merely validate it
//! structurally. This module does that literally: before the heal loop
//! commits to a repair policy, each candidate is played forward on its own
//! [`Runtime::fork_twin`] — an isolated clone of the whole runtime over a
//! forked kernel — for a bounded simulated horizon, and the best-scoring
//! plan wins. The twin is *predictive*, not merely reactive: the forked
//! kernel queue carries the already-injected fault schedule, so a fork
//! sees the node recovery (or continued outage) the mainline is about to
//! experience.
//!
//! Selection is deterministic: same runtime state, same forks, same
//! scores, same choice. When the forks disagree within the configured
//! margin, every candidate times out, a fork cannot be taken
//! (mid-transaction), or a twin-guided plan already failed on the mainline
//! this incident, the loop falls back to the fixed static policy — twin
//! guidance never makes repair *less* available than the E12 baseline.

use super::{repair_in_flight, MetaLevel};
use crate::component::Lifecycle;
use crate::heal::RepairPolicy;
use crate::message;
use crate::runtime::{Door, Runtime};
use aas_obs::AuditEvent;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// Configuration of the digital-twin plan verifier.
#[derive(Debug, Clone)]
pub struct TwinConfig {
    /// How far past "now" each candidate fork is simulated.
    pub horizon: SimDuration,
    /// Candidate repair policies, scored in order.
    pub candidates: Vec<RepairPolicy>,
}

impl Default for TwinConfig {
    fn default() -> Self {
        TwinConfig {
            horizon: SimDuration::from_secs(4),
            candidates: vec![RepairPolicy::RestartInPlace, RepairPolicy::FailoverMigrate],
        }
    }
}

/// Event budget per fork; exceeding it counts as a fork timeout.
const MAX_EVENTS: u64 = 50_000;
/// Availability edge required between the winner and the runner-up before
/// the twin's choice is considered decisive.
const MARGIN: f64 = 0.005;

/// What one candidate's fork predicted.
#[derive(Debug, Clone)]
pub struct TwinPrediction {
    /// Label of the candidate policy this prediction belongs to.
    pub policy_label: &'static str,
    /// Predicted availability at the horizon: the fraction of component
    /// instances in [`Lifecycle::Active`].
    pub availability: f64,
    /// Predicted time-to-repair in milliseconds (the full horizon when
    /// the fork did not complete the repair).
    pub mttr_ms: f64,
    /// Whether the fork completed the repair within the horizon.
    pub repaired: bool,
}

impl MetaLevel {
    /// Scores every candidate policy on its own fork and returns the
    /// decisively best one, or `None` to fall back to the static policy
    /// (twin disabled, fork refused, all candidates timed out or failed,
    /// forks within the margin of each other, or a twin-guided plan
    /// already failed on the mainline this incident).
    pub(super) fn twin_select_policy(
        &mut self,
        door: &Door<'_>,
        node: NodeId,
        now: SimTime,
    ) -> Option<RepairPolicy> {
        let config = self.twin.as_ref()?;
        let incident = self.heal.incidents.get(&node)?;
        if incident.twin_failed {
            return None;
        }
        // Re-planning the same incident (e.g. restart deferred until the
        // node returns) sticks with the outstanding prediction so the
        // choice is stable across detector ticks.
        if let Some(p) = &incident.prediction {
            return config
                .candidates
                .iter()
                .find(|c| c.label() == p.policy_label)
                .cloned();
        }
        let mut scored: Vec<(RepairPolicy, TwinPrediction)> = Vec::new();
        for candidate in &config.candidates {
            if let Some(pred) = self.simulate_candidate(door, candidate, node, config.horizon, now)
            {
                scored.push((candidate.clone(), pred));
            }
        }
        scored.sort_by(|a, b| {
            b.1.availability
                .partial_cmp(&a.1.availability)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.1.mttr_ms
                        .partial_cmp(&b.1.mttr_ms)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let best = scored.first()?;
        if !best.1.repaired {
            return None; // no fork repaired within the horizon
        }
        if let Some(second) = scored.get(1) {
            let decisive = best.1.availability - second.1.availability > MARGIN
                || second.1.mttr_ms - best.1.mttr_ms > 1.0;
            if !decisive {
                return None; // the forks disagree on nothing measurable
            }
        }
        let (policy, pred) = best.clone();
        door.audit(AuditEvent::TwinPredicted {
            policy: pred.policy_label,
            node: node.0,
            availability: pred.availability,
            mttr_ms: pred.mttr_ms,
        });
        self.heal.incident(node).prediction = Some(Box::new(pred));
        Some(policy)
    }

    /// Runs one candidate policy forward on a fresh fork for `horizon`
    /// and scores the outcome. `None` means the fork could not be taken
    /// or blew its event budget (a timeout).
    fn simulate_candidate(
        &self,
        door: &Door<'_>,
        candidate: &RepairPolicy,
        node: NodeId,
        horizon: SimDuration,
        now: SimTime,
    ) -> Option<TwinPrediction> {
        let mut fork = door.fork_twin(self)?;
        let deadline = now + horizon;
        // A call nested in the mainline's, sharing the thread's buffers;
        // only the outermost call trims them.
        let (in_budget, crash_at) = message::in_call(|| {
            let crash_at = fork.meta_call(|meta, door| {
                meta.heal.policy = candidate.clone();
                let incident = meta.heal.incident(node);
                incident.queued = true;
                let crash_at = incident.crashed_at;
                meta.try_repairs(door, now);
                crash_at
            });
            let mut events = 0u64;
            while fork.next_event_time().is_some_and(|t| t <= deadline) {
                events += 1;
                if events > MAX_EVENTS {
                    return (false, crash_at);
                }
                let _ = fork.step();
            }
            (true, crash_at)
        });
        if !in_budget {
            return None;
        }
        let heal = &fork.meta().heal;
        let repaired = !heal.incidents.get(&node).is_some_and(|i| i.queued)
            && !repair_in_flight(fork.view(), node);
        let (mut total, mut active) = (0usize, 0usize);
        for (_, c) in fork.view().instances() {
            total += 1;
            active += usize::from(c.lifecycle == Lifecycle::Active);
        }
        let availability = active as f64 / total.max(1) as f64;
        let mttr_ms = if repaired {
            // Zero when the incident closed with nothing to repair.
            match (heal.repaired_at.get(&node), crash_at) {
                (Some(at), Some(crash_at)) => super::ms(at.saturating_since(crash_at)),
                _ => 0.0,
            }
        } else {
            super::ms(horizon)
        };
        Some(TwinPrediction {
            policy_label: candidate.label(),
            availability,
            mttr_ms,
            repaired,
        })
    }
}

impl Runtime {
    /// Enables digital-twin plan verification: from now on the heal loop
    /// simulates `config.candidates` on forks and picks the best scorer
    /// instead of always applying the static policy.
    pub fn enable_twin(&mut self, config: TwinConfig) {
        self.meta_call(|meta, _| meta.twin = Some(config));
    }

    /// The outstanding twin prediction for `node`, if a twin-guided
    /// repair of it is in flight.
    #[must_use]
    pub fn twin_prediction(&self, node: NodeId) -> Option<&TwinPrediction> {
        self.meta().heal.incidents.get(&node)?.prediction.as_deref()
    }
}
