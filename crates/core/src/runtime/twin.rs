//! Digital-twin plan verification (DESIGN.md §2.9).
//!
//! The paper's prospective vision asks adaptive systems to *reason about*
//! a reconfiguration before enacting it, not merely validate it
//! structurally. This module does that literally: before the heal driver
//! commits to a repair policy, each candidate is played forward on its own
//! [`Runtime::fork_twin`] — an isolated clone of the whole runtime over a
//! forked kernel — for a bounded simulated horizon, and the best-scoring
//! plan wins. The twin is *predictive*, not merely reactive: the forked
//! kernel queue carries the already-injected fault schedule, so a fork
//! sees the node recovery (or continued outage) the mainline is about to
//! experience.
//!
//! Isolation guarantees (checked by `twin_verification` tests):
//!
//! - the fork shares **no** mutable state with the mainline — the kernel
//!   is forked ([`aas_sim::kernel::Kernel::fork`]), components are
//!   re-instantiated from the registry and restored from snapshots, and
//!   metrics/audit go to a throwaway [`Obs`] bundle. What the fork never
//!   writes — binding declarations, component props, the topology's node
//!   specs and adjacency — is shared, not copied;
//! - dropping (or running) a twin leaves the mainline's fingerprints,
//!   metrics, audit log and RNG stream untouched;
//! - selection is deterministic: same runtime state, same forks, same
//!   scores, same choice.
//!
//! When the forks disagree within the configured margin, every candidate
//! times out, a fork cannot be taken (mid-transaction), or a twin-guided
//! plan already failed on the mainline this incident, the driver falls
//! back to the fixed static policy — twin guidance never makes repair
//! *less* available than the E12 baseline.

use super::*;

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

/// Twin state hung off the runtime. What the twin knows about an incident
/// — its outstanding prediction, whether its plan failed — lives in the
/// incident's record (`heal_driver::Incident`).
#[derive(Debug, Default)]
pub(super) struct TwinState {
    /// Twin verification is active iff this is set.
    pub(super) config: Option<TwinConfig>,
}

impl Runtime {
    /// Enables digital-twin plan verification: from now on the heal
    /// driver simulates `config.candidates` on forks and picks the best
    /// scorer instead of always applying the static policy.
    pub fn enable_twin(&mut self, config: TwinConfig) {
        self.twin.config = Some(config);
    }

    /// The outstanding twin prediction for `node`, if a twin-guided
    /// repair of it is in flight.
    #[must_use]
    pub fn twin_prediction(&self, node: NodeId) -> Option<&TwinPrediction> {
        self.heal.incidents.get(&node)?.prediction.as_deref()
    }

    /// Forks the runtime into an isolated digital twin.
    ///
    /// The twin owns a forked kernel (same pending events, channel
    /// halves, RNG stream) with its own copy of the messages in flight
    /// those events refer to, re-instantiated components restored from the
    /// originals' snapshots, cloned connectors/bindings/timers/detector/
    /// heal state — and a **throwaway** [`Obs`] bundle, so nothing the
    /// twin does shows up in mainline metrics, traces or the audit log.
    /// Each instance's latency and custom histograms, and the detector's
    /// per-node `phi` gauge, are handles no registry names: they start
    /// empty and record only the fork's run, which `observe()` reads
    /// through them, but nothing is registered per instance or per node.
    /// Binding declarations and props are shared with the original.
    /// The twin's RAML meta-level is detached and its own twin config is
    /// unset (forks never fork recursively).
    ///
    /// Returns `None` while a reconfiguration transaction is active or
    /// queued (mid-transaction journals hold live component state that
    /// cannot be duplicated), or if any component fails to re-instantiate
    /// or restore.
    #[must_use]
    pub fn fork_twin(&self) -> Option<Runtime> {
        if self.exec.active.is_some() || !self.exec.queued.is_empty() {
            return None;
        }
        let obs = Obs::new();
        let kernel = self.kernel.fork();
        let m = MetricHandles::new(&obs);
        // Same names, same ids: the cloned in-flight envelopes and timers
        // address instances by them.
        let instances = self.instances.try_map(|inst| {
            let (type_name, mut component) = self
                .registry
                .instantiate_named(&inst.type_name, inst.version, &inst.props)
                .ok()?;
            component.restore(&inst.component.snapshot()).ok()?;
            let custom = inst
                .custom
                .keys()
                .map(|k| (k.clone(), HistogramHandle::new()))
                .collect();
            Some(Instance {
                name: inst.name.clone(),
                node: inst.node,
                type_name,
                version: inst.version,
                props: Arc::clone(&inst.props),
                component,
                lifecycle: inst.lifecycle,
                inflight: inst.inflight,
                processed: inst.processed,
                errors: inst.errors,
                latency: HistogramHandle::new(),
                tracker: inst.tracker.clone(),
                custom,
                blocked_at: inst.blocked_at,
                external: inst.external,
                ports: inst.ports.clone(),
            })
        })?;
        let detector = self.detector.as_ref().map(|d| d.fork(&obs));
        Some(Runtime {
            kernel,
            arena: self.arena.clone(),
            registry: self.registry.clone(),
            instances,
            connectors: self.connectors.clone(),
            external: self.external,
            reply_channels: self.reply_channels.clone(),
            timers: self.timers.clone(),
            flow_seq: self.flow_seq.clone(),
            effects_buf: Vec::new(),
            pending_requests: self.pending_requests.clone(),
            next_msg_id: self.next_msg_id,
            next_connector_id: self.next_connector_id,
            pending_connector_swaps: self.pending_connector_swaps.clone(),
            exec: self.exec.fork(),
            raml: None,
            detector,
            heal: self.heal.fork(),
            negotiate: self.negotiate.fork(),
            coverage: AdaptationCoverage::new(),
            notifications: Vec::new(),
            outbox: Vec::new(),
            obs,
            m,
            twin: TwinState::default(),
            first_violations: None,
            _idle: IdleRelease,
        })
    }

    /// Scores every candidate policy on its own fork and returns the
    /// decisively best one, or `None` to fall back to the static policy
    /// (twin disabled, fork refused, all candidates timed out or failed,
    /// forks within the margin of each other, or a twin-guided plan
    /// already failed on the mainline this incident).
    pub(super) fn twin_select_policy(
        &mut self,
        node: NodeId,
        now: SimTime,
    ) -> Option<RepairPolicy> {
        let config = self.twin.config.as_ref()?;
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
            if let Some(pred) = self.simulate_candidate(candidate, node, config, now) {
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
        let predicted = AuditEvent::TwinPredicted {
            policy: pred.policy_label,
            node: node.0,
            availability: pred.availability,
            mttr_ms: pred.mttr_ms,
        };
        self.obs.audit.append(now.as_micros(), predicted);
        self.heal.incident(node).prediction = Some(Box::new(pred));
        Some(policy)
    }

    /// Runs one candidate policy forward on a fresh fork for the
    /// configured horizon and scores the outcome. `None` means the fork
    /// could not be taken or blew its event budget (a timeout).
    fn simulate_candidate(
        &self,
        candidate: &RepairPolicy,
        node: NodeId,
        config: &TwinConfig,
        now: SimTime,
    ) -> Option<TwinPrediction> {
        let mut fork = self.fork_twin()?;
        fork.heal.policy = candidate.clone();
        let incident = fork.heal.incident(node);
        incident.queued = true;
        let crash_at = incident.crashed_at;
        let deadline = now + config.horizon;
        // A call nested in the mainline's, sharing the thread's buffers;
        // only the outermost call trims them.
        let in_budget = message::in_call(|| {
            fork.try_repairs(now);
            let mut events = 0u64;
            while fork.kernel.next_event_time().is_some_and(|t| t <= deadline) {
                events += 1;
                if events > MAX_EVENTS {
                    return false;
                }
                let _ = fork.step();
            }
            true
        });
        if !in_budget {
            return None;
        }
        let repaired = !fork.heal.incidents.get(&node).is_some_and(|i| i.queued)
            && !fork.repair_in_flight(node);
        let total = fork.instances.len().max(1);
        let active = fork
            .instances
            .values()
            .filter(|i| i.lifecycle == Lifecycle::Active)
            .count();
        let availability = active as f64 / total as f64;
        let mttr_ms = if repaired {
            // Zero when the incident closed with nothing to repair.
            match (fork.heal.repaired_at.get(&node), crash_at) {
                (Some(at), Some(crash_at)) => ms(at.saturating_since(crash_at)),
                _ => 0.0,
            }
        } else {
            ms(config.horizon)
        };
        Some(TwinPrediction {
            policy_label: candidate.label(),
            availability,
            mttr_ms,
            repaired,
        })
    }
}
