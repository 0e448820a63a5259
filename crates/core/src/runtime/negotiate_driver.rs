//! The GORNA resource-negotiation control plane (DESIGN.md §2.10).
//!
//! Every component instance is a budget agent. Each negotiation tick the
//! driver assembles the global [`SituationalModel`] from the runtime's
//! own introspection snapshot plus the failure detector's phi gauges,
//! derives one [`BudgetRequest`] per agent from its observed offered load,
//! and hands the batch to the [`Negotiator`] for deterministic
//! multi-objective arbitration. Grants are then *actuated*:
//!
//! - **load shedding** — the admission gate in the dispatch path keeps
//!   `keep_permille` out of every 1000 offered messages, deterministically
//!   by per-agent sequence number;
//! - **strategy downgrade** — a deeply shorted agent also cheapens each
//!   admitted message (`cost_scale < 1`), the service-ladder move;
//! - **migration** — an agent starving on an overloaded node while
//!   another node idles files an ordinary [`ReconfigPlan`] through the
//!   transactional plan path;
//! - **retry budget** — the connector retry loop is capped at the granted
//!   attempts;
//! - **twin horizon** — the heal/twin subsystem itself is an agent (named
//!   [`TWIN_AGENT`]): its fork horizon follows its granted budget.
//!
//! The same driver also runs the *independent* baseline
//! ([`CoordinationMode::Independent`]): each agent reacts only to its own
//! latency signal with a slow additive ramp and no floors — the
//! uncoordinated per-loop behaviour the negotiator is measured against in
//! EXPERIMENTS.md E20.
//!
//! Interop with self-healing: a repair plan that commits mid-tick
//! invalidates the repaired agents' outstanding grants immediately
//! (audited as `budget_renegotiated`) instead of letting a stale grant
//! throttle a freshly repaired instance until the next tick.

use super::*;
use aas_control::negotiate::{
    BudgetRequest, Grant, NegotiationOutcome, Negotiator, NegotiatorMutation, ObjectiveVector,
    ObjectiveWeights, ResourceVector, UtilityCurve,
};
use aas_control::situational::{AgentObservation, NodeSituation, SituationalModel};

/// Reserved agent name under which the heal/twin subsystem requests its
/// twin-horizon budget.
pub const TWIN_AGENT: &str = "#twin";

/// Who decides how agents adapt under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinationMode {
    /// The GORNA coordinator arbitrates a global budget into grants.
    Negotiated,
    /// The pre-negotiation baseline: every agent runs its own reactive
    /// loop on local signals only (no floors, no global budget).
    Independent,
}

/// Per-agent negotiation profile: how the agent's requests are shaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProfile {
    /// Priority class (higher floors are reserved first).
    pub priority: u8,
    /// Objective sensitivities dotted with the coordinator's weights.
    pub objectives: ObjectiveVector,
    /// Utility curve over partial grants.
    pub curve: UtilityCurve,
    /// Fraction of observed demand declared as the floor (overrides the
    /// config-wide default).
    pub floor_fraction: f64,
    /// Exempt agents sit outside the negotiation domain: they file no
    /// requests, consume no budget and are never shed or downgraded.
    /// Use for pass-through components (sinks, probes) whose admission is
    /// already governed by their granted upstreams.
    pub exempt: bool,
}

impl Default for AgentProfile {
    fn default() -> Self {
        AgentProfile {
            priority: 1,
            objectives: ObjectiveVector::default(),
            curve: UtilityCurve::Linear,
            floor_fraction: 0.1,
            exempt: false,
        }
    }
}

/// Configuration of the negotiation control plane.
#[derive(Debug, Clone)]
pub struct NegotiateConfig {
    /// Control-tick period.
    pub interval: SimDuration,
    /// The coordinator's arbitration weights.
    pub weights: ObjectiveWeights,
    /// The static global per-epoch budget (the work-rate dimension is
    /// additionally capped by the situational model's sustainable rate).
    pub budget: ResourceVector,
    /// Coordinated grants or the independent-loop baseline.
    pub mode: CoordinationMode,
    /// Mean work units per message, used to convert node service capacity
    /// into a sustainable message rate for the situational model.
    pub nominal_cost: f64,
    /// Default floor fraction for agents without an explicit profile.
    pub floor_fraction: f64,
    /// Strategy downgrade never cheapens a message below this scale.
    pub min_cost_scale: f64,
    /// Grant fraction below which a capacity-starved agent also
    /// downgrades its strategy (in addition to shedding).
    pub downgrade_below: f64,
    /// Host utilization above which a starved agent requests migration.
    pub migrate_above: f64,
}

impl Default for NegotiateConfig {
    fn default() -> Self {
        NegotiateConfig {
            interval: SimDuration::from_millis(100),
            weights: ObjectiveWeights::default(),
            budget: ResourceVector {
                capacity: 1.0,
                work_rate: 1e9,
                retry_budget: 64.0,
                twin_horizon: 4.0,
            },
            mode: CoordinationMode::Negotiated,
            nominal_cost: 1.0,
            floor_fraction: 0.1,
            min_cost_scale: 0.25,
            downgrade_below: 0.5,
            migrate_above: 2.0,
        }
    }
}

/// The per-agent actuation state the dispatch path consults. Neutral
/// values leave the hot path byte-identical to a runtime without
/// negotiation.
#[derive(Debug, Clone)]
pub(super) struct AgentActuation {
    /// Multiplier on per-message work cost (strategy downgrade).
    pub(super) cost_scale: f64,
    /// Admitted messages per 1000 offered (load shedding).
    pub(super) keep_permille: u32,
    /// Cap on connector retry attempts, if granted below the policy.
    pub(super) retry_cap: Option<u32>,
    /// Offered-message counter: drives the deterministic shed gate and
    /// the next tick's demand estimate.
    pub(super) offered: u64,
    /// Offered count at the previous tick (for the delta).
    pub(super) offered_last: u64,
    /// Node the agent was hosted on when its current grant (or deny) was
    /// issued; a repair committing for this node invalidates the grant.
    pub(super) granted_node: Option<u32>,
    /// Round at which this agent last filed a migration plan; migration
    /// is rate-limited to avoid plan churn under sustained overload.
    pub(super) migrated_round: Option<u64>,
}

impl Default for AgentActuation {
    fn default() -> Self {
        AgentActuation {
            cost_scale: 1.0,
            keep_permille: 1000,
            retry_cap: None,
            offered: 0,
            offered_last: 0,
            granted_node: None,
            migrated_round: None,
        }
    }
}

/// Rounds an agent must wait between negotiated migration requests.
/// Migration is a heavyweight response — the plan quiesces the agent and
/// holds its traffic for the duration — so the cooldown is long enough
/// for the post-release backlog to drain before the agent is eligible
/// again (otherwise the drain itself reads as overload and re-triggers).
const MIGRATE_COOLDOWN_ROUNDS: u64 = 32;

/// Grouped negotiation state hanging off the runtime. `Clone` so digital
/// twin forks carry the control plane into their simulation.
#[derive(Debug, Default, Clone)]
pub(super) struct NegotiateState {
    /// Enabled iff set.
    pub(super) config: Option<NegotiateConfig>,
    /// The coordinator (only in [`CoordinationMode::Negotiated`]).
    pub(super) negotiator: Option<Negotiator>,
    /// Outstanding grants by agent.
    pub(super) grants: BTreeMap<String, Grant>,
    /// Actuation state by agent.
    pub(super) actuation: BTreeMap<String, AgentActuation>,
    /// Per-agent request shaping.
    pub(super) profiles: BTreeMap<String, AgentProfile>,
    /// Every arbitration outcome in order — the replayable negotiation
    /// transcript the property harness and the mutation oracles read.
    pub(super) history: Vec<NegotiationOutcome>,
    /// Total messages shed by the admission gate.
    pub(super) shed_total: u64,
    /// Completed negotiation rounds.
    pub(super) rounds: u64,
    /// Last `(time_s, cumulative_utilization)` sample per node, used to
    /// derive the windowed utilization the situational model carries.
    pub(super) node_busy_last: BTreeMap<u32, (f64, f64)>,
}

impl NegotiateState {
    /// The admission gate and downgrade lookup the dispatch path runs for
    /// every delivery. Returns `(cost_scale, admit)`; neutral when the
    /// control plane is off.
    pub(super) fn admit(&mut self, instance: &str) -> (f64, bool) {
        if self.config.is_none() {
            return (1.0, true);
        }
        let act = match self.actuation.get_mut(instance) {
            Some(act) => act,
            None => self.actuation.entry(instance.to_owned()).or_default(),
        };
        let seq = act.offered;
        act.offered += 1;
        let admit = act.keep_permille >= 1000 || seq % 1000 < u64::from(act.keep_permille);
        (act.cost_scale, admit)
    }
}

impl Runtime {
    /// Enables the negotiation control plane and starts its periodic tick.
    pub fn enable_negotiation(&mut self, config: NegotiateConfig) {
        let interval = config.interval;
        self.negotiate.negotiator = (config.mode == CoordinationMode::Negotiated)
            .then(|| Negotiator::new(config.weights, config.budget));
        self.negotiate.config = Some(config);
        self.arm(interval, TimerPurpose::NegotiateTick);
    }

    /// Shapes how `agent`'s budget requests are derived (priority,
    /// objectives, utility curve, floor fraction).
    pub fn set_agent_profile(&mut self, agent: &str, profile: AgentProfile) {
        self.negotiate.profiles.insert(agent.to_owned(), profile);
    }

    /// Installs (or clears) a deliberate negotiator corruption — the seam
    /// the `aas-scenario` mutation engine flips. `None` is byte-identical
    /// to unmutated arbitration.
    pub fn set_negotiator_mutation(&mut self, mutation: Option<NegotiatorMutation>) {
        if let Some(n) = self.negotiate.negotiator.as_mut() {
            n.set_mutation(mutation);
        }
    }

    /// The most recent arbitration outcome, if a round has run.
    #[must_use]
    pub fn negotiation_outcome(&self) -> Option<&NegotiationOutcome> {
        self.negotiate.history.last()
    }

    /// Every arbitration outcome so far, in epoch order — the negotiation
    /// transcript. Empty in [`CoordinationMode::Independent`].
    #[must_use]
    pub fn negotiation_history(&self) -> &[NegotiationOutcome] {
        &self.negotiate.history
    }

    /// The outstanding grant for `agent`, if any.
    #[must_use]
    pub fn grant_of(&self, agent: &str) -> Option<&Grant> {
        self.negotiate.grants.get(agent)
    }

    /// Messages the admission gate has shed so far.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.negotiate.shed_total
    }

    /// Completed negotiation rounds.
    #[must_use]
    pub fn negotiation_rounds(&self) -> u64 {
        self.negotiate.rounds
    }

    /// The retry-budget cap for deliveries to `instance`, if one was
    /// granted below the connector policy's own limit.
    pub(super) fn negotiate_retry_cap(&self, instance: &str) -> Option<u32> {
        self.negotiate
            .config
            .as_ref()
            .and_then(|_| self.negotiate.actuation.get(instance))
            .and_then(|a| a.retry_cap)
    }

    /// One negotiation period: build the situational model, collect
    /// requests, arbitrate (or run the independent baseline), actuate the
    /// grants, export gauges, book coverage, re-arm the timer.
    pub(super) fn on_negotiate_tick(&mut self, now: SimTime) {
        let Some(config) = self.negotiate.config.clone() else {
            return;
        };
        let model = self.build_situational_model(now, &config);
        match config.mode {
            CoordinationMode::Negotiated => self.negotiated_round(&config, &model, now),
            CoordinationMode::Independent => self.independent_round(&config, &model),
        }
        // Roll the offered-delta baseline for the next tick's demand.
        for act in self.negotiate.actuation.values_mut() {
            act.offered_last = act.offered;
        }
        self.negotiate.rounds += 1;
        self.obs
            .metrics
            .gauge("negotiate.rounds")
            .set(self.negotiate.rounds as f64);
        self.arm(config.interval, TimerPurpose::NegotiateTick);
    }

    /// Assembles the coordinator's global picture from the introspection
    /// snapshot plus detector suspicion.
    fn build_situational_model(
        &mut self,
        now: SimTime,
        config: &NegotiateConfig,
    ) -> SituationalModel {
        let snap = self.observe();
        let mut model = SituationalModel::empty(now);
        let dt = config.interval.as_secs_f64().max(1e-9);
        let mut offered_total = 0u64;
        for c in &snap.components {
            let act = self.negotiate.actuation.entry(c.name.clone()).or_default();
            let arrivals = act.offered.saturating_sub(act.offered_last);
            offered_total += arrivals;
            model.agents.insert(
                c.name.clone(),
                AgentObservation {
                    node: c.node.0,
                    arrivals,
                    inflight: u64::from(c.inflight),
                    processed: c.processed,
                    errors: c.errors,
                    mean_latency_ms: c.mean_latency_ms,
                },
            );
        }
        let mut capacity_units = 0.0;
        let now_s = now.as_secs_f64();
        for n in &snap.nodes {
            if n.up {
                capacity_units += n.effective_capacity;
            }
            let suspicion = self
                .detector
                .as_ref()
                .map_or(0.0, |d| d.detector.phi(n.id, now));
            // The snapshot's utilization is cumulative since t=0; the
            // coordinator needs the *current* pressure, so differentiate
            // it over the tick window (a cumulative figure never decays,
            // which would read one historical burst as permanent overload
            // and drive endless migration).
            let last = self
                .negotiate
                .node_busy_last
                .insert(n.id.0, (now_s, n.utilization));
            let utilization = match last {
                Some((t0, u0)) if now_s > t0 + 1e-9 => {
                    ((n.utilization * now_s - u0 * t0) / (now_s - t0)).clamp(0.0, 1.0)
                }
                _ => n.utilization,
            };
            model.nodes.insert(
                n.id.0,
                NodeSituation {
                    up: n.up,
                    utilization,
                    backlog_ms: n.backlog_ms,
                    effective_capacity: n.effective_capacity,
                    suspicion,
                },
            );
        }
        model.arrival_rate = offered_total as f64 / dt;
        model.capacity_rate = capacity_units / config.nominal_cost.max(1e-9);
        model
    }

    /// Derives the per-agent request batch from observed demand.
    fn collect_requests(
        &self,
        config: &NegotiateConfig,
        model: &SituationalModel,
    ) -> Vec<BudgetRequest> {
        let mut requests = Vec::with_capacity(model.agents.len() + 1);
        for (name, obs) in &model.agents {
            let profile = self
                .negotiate
                .profiles
                .get(name)
                .copied()
                .unwrap_or(AgentProfile {
                    floor_fraction: config.floor_fraction,
                    ..AgentProfile::default()
                });
            if profile.exempt {
                continue;
            }
            let dt = config.interval.as_secs_f64().max(1e-9);
            let rate = obs.arrivals as f64 / dt;
            let mut demand = ResourceVector::ZERO;
            demand.work_rate = rate;
            demand.capacity = if rate > 0.0 { 1.0 } else { 0.0 };
            demand.retry_budget = if rate > 0.0 { 3.0 } else { 0.0 };
            let mut floor = demand.scaled(profile.floor_fraction.clamp(0.0, 1.0));
            floor.capacity = if rate > 0.0 {
                config.min_cost_scale
            } else {
                0.0
            };
            requests.push(
                BudgetRequest::new(name.clone(), floor, demand)
                    .with_priority(profile.priority)
                    .with_objectives(profile.objectives)
                    .with_curve(profile.curve),
            );
        }
        if self.twin.config.is_some() {
            let mut demand = ResourceVector::ZERO;
            demand.twin_horizon = config.budget.twin_horizon.max(1.0);
            let mut floor = ResourceVector::ZERO;
            floor.twin_horizon = 0.25;
            requests.push(BudgetRequest::new(TWIN_AGENT, floor, demand).with_priority(0));
        }
        requests
    }

    /// A coordinated round: arbitrate, audit, actuate.
    fn negotiated_round(
        &mut self,
        config: &NegotiateConfig,
        model: &SituationalModel,
        now: SimTime,
    ) {
        let requests = self.collect_requests(config, model);
        let Some(negotiator) = self.negotiate.negotiator.as_mut() else {
            return;
        };
        let outcome = negotiator.arbitrate(model, &requests);
        let epoch = format!("epoch-{}", outcome.epoch);

        // The detect phase this round is booked under: arbitration under a
        // live suspicion incident is a distinct adaptation state.
        let suspected = self.heal.incidents.values().any(|i| i.queued)
            || self
                .exec
                .in_flight()
                .any(|origin| matches!(origin, PlanOrigin::Repair { .. }))
            || self
                .detector
                .as_ref()
                .is_some_and(|d| !d.detector.suspected().is_empty());
        let phase = if suspected {
            DetectPhase::Suspected
        } else {
            DetectPhase::Steady
        };
        self.coverage
            .record(phase, "negotiate", PlanOutcome::Observed);

        // Audit and actuate denials first: a denied agent sheds hard.
        for (agent, reason) in &outcome.denied {
            self.obs
                .audit
                .budget_denied(&epoch, agent, reason.label(), now.as_micros());
            self.negotiate.grants.remove(agent);
            let act = self.negotiate.actuation.entry(agent.clone()).or_default();
            act.keep_permille = 0;
            act.cost_scale = config.min_cost_scale;
            act.retry_cap = Some(0);
            act.granted_node = model.agents.get(agent).map(|a| a.node);
        }

        // Actuate grants.
        let mut migrations: Vec<(String, NodeId)> = Vec::new();
        for grant in &outcome.grants {
            if grant.agent == TWIN_AGENT {
                if let Some(tc) = self.twin.config.as_mut() {
                    tc.horizon = SimDuration::from_secs_f64(grant.granted.twin_horizon.max(0.25));
                }
                continue;
            }
            self.obs.audit.budget_granted(
                &epoch,
                &grant.agent,
                &format!(
                    "[{}] fraction={:.6}",
                    grant.granted.render(),
                    grant.fraction
                ),
                now.as_micros(),
            );
            self.obs
                .metrics
                .gauge(&format!("negotiate.fraction.{}", grant.agent))
                .set(grant.fraction);
            let rate_frac = if grant.demand.work_rate > 0.0 {
                (grant.granted.work_rate / grant.demand.work_rate).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let act = self
                .negotiate
                .actuation
                .entry(grant.agent.clone())
                .or_default();
            if grant.demand.work_rate > 0.0 {
                act.keep_permille = (rate_frac * 1000.0).floor() as u32;
                act.cost_scale = if grant.fraction < config.downgrade_below {
                    grant.fraction.max(config.min_cost_scale)
                } else {
                    1.0
                };
                act.retry_cap = (grant.demand.retry_budget > 0.0)
                    .then(|| grant.granted.retry_budget.floor().max(0.0) as u32);
            }
            // A zero-demand agent keeps its previous throttle: an agent
            // quiesced by an executing plan observes no arrivals, and
            // opening its gate to neutral would admit the entire held
            // backlog as one unthrottled burst at plan release.
            let host = model.agents.get(&grant.agent).map(|a| a.node);
            act.granted_node = host;
            self.negotiate
                .grants
                .insert(grant.agent.clone(), grant.clone());

            // Migration request: starving on an overcommitted host while
            // another up node idles. Compiled into an ordinary plan, and
            // rate-limited per agent so sustained overload cannot turn
            // into plan churn.
            if grant.fraction < config.downgrade_below {
                if let Some(host) = host {
                    let overloaded = model
                        .nodes
                        .get(&host)
                        .is_some_and(|n| n.utilization > config.migrate_above);
                    let target = model
                        .nodes
                        .iter()
                        .filter(|(id, n)| **id != host && n.up && n.utilization < 0.5)
                        .map(|(id, _)| NodeId(*id))
                        .next();
                    let already_moving = self.instances.id(&grant.agent).is_some_and(|id| {
                        let moving = PlanOrigin::Migration { agent: id };
                        self.exec.in_flight().any(|origin| origin == moving)
                    });
                    let cooled = self
                        .negotiate
                        .actuation
                        .get(&grant.agent)
                        .and_then(|a| a.migrated_round)
                        .is_none_or(|r| self.negotiate.rounds >= r + MIGRATE_COOLDOWN_ROUNDS);
                    if overloaded && !already_moving && cooled {
                        if let Some(to) = target {
                            migrations.push((grant.agent.clone(), to));
                        }
                    }
                }
            }
        }
        self.obs
            .metrics
            .gauge("negotiate.jain")
            .set(outcome.jain_fairness());
        self.obs
            .metrics
            .gauge("negotiate.denied")
            .set(outcome.denied.len() as f64);
        self.negotiate.history.push(outcome);

        for (agent, to) in migrations {
            if let Some(act) = self.negotiate.actuation.get_mut(&agent) {
                act.migrated_round = Some(self.negotiate.rounds);
            }
            let origin = PlanOrigin::Migration {
                agent: self.instances.intern(&agent),
            };
            let plan = ReconfigPlan::single(ReconfigAction::Migrate { name: agent, to });
            self.coverage
                .record(DetectPhase::Steady, "negotiate", PlanOutcome::Planned);
            let _ = self.submit(plan, origin);
        }
    }

    /// The independent-loops baseline: no coordinator, no floors, no
    /// global budget. Each agent nudges its own admission gate from its
    /// own latency signal — an additive-increase/additive-decrease ramp
    /// that reacts only after its host is already drowning, and punishes
    /// victims as readily as culprits.
    fn independent_round(&mut self, config: &NegotiateConfig, model: &SituationalModel) {
        let mut keeps: Vec<(String, u32)> = Vec::new();
        for (name, obs) in &model.agents {
            if self.negotiate.profiles.get(name).is_some_and(|p| p.exempt) {
                continue;
            }
            let backlog = model.nodes.get(&obs.node).map_or(0.0, |n| n.backlog_ms);
            let act = self.negotiate.actuation.entry(name.clone()).or_default();
            let keep = i64::from(act.keep_permille);
            let next = if backlog > 4.0 * config.interval.as_secs_f64() * 1e3 {
                keep - 100
            } else if backlog > 1e3 * config.interval.as_secs_f64() {
                keep - 50
            } else {
                keep + 100
            };
            act.keep_permille = next.clamp(100, 1000) as u32;
            keeps.push((name.clone(), act.keep_permille));
        }
        for (name, keep) in keeps {
            self.obs
                .metrics
                .gauge(&format!("negotiate.fraction.{name}"))
                .set(f64::from(keep) / 1000.0);
        }
    }

    /// A migration the negotiator filed for `agent` left the engine; a
    /// rejected or rolled-back one leaves nothing to settle, and the agent
    /// may file again once its cooldown has passed.
    pub(super) fn migration_plan_ended(&mut self, agent: InstId, report: &ReconfigReport) {
        if report.success {
            self.coverage
                .record(DetectPhase::Steady, "negotiate", PlanOutcome::Completed);
            // The agent moved: its grant was computed for the old
            // placement, so force renegotiation next tick. Actuation is
            // *kept* — a planned migration under overload must not open
            // an unthrottled admission window until the re-grant lands.
            let agent = self.instances.name(agent).clone();
            self.invalidate_grant_of(&agent, &report.id.to_string(), report.finished_at, false);
        }
    }

    /// Invalidates one agent's outstanding grant. With `reset_actuation`
    /// the throttle also returns to neutral until the next round
    /// re-grants (the repair path: a fresh instance must not inherit a
    /// starvation grant sized for its dead placement); without it the
    /// current throttle stays in force (the planned-migration path).
    fn invalidate_grant_of(
        &mut self,
        agent: &str,
        trigger: &str,
        now: SimTime,
        reset_actuation: bool,
    ) {
        let epoch = self.negotiate.grants.remove(agent).map_or(0, |g| g.epoch);
        if let Some(act) = self.negotiate.actuation.get_mut(agent) {
            if reset_actuation {
                act.cost_scale = 1.0;
                act.keep_permille = 1000;
                act.retry_cap = None;
            }
            act.granted_node = None;
        }
        self.obs.audit.budget_renegotiated(
            &format!("epoch-{epoch}"),
            agent,
            &format!("plan {trigger} committed"),
            now.as_micros(),
        );
    }

    /// The heal/negotiate ordering fix: a repair plan committing for
    /// `node` mid-tick invalidates every outstanding budget decision
    /// issued against the pre-repair placement — grants for agents hosted
    /// there, *denials* whose hard-shed actuation was pinned to the node
    /// (a `HostSuspected` deny removes the grant entry, so the actuation
    /// table is the only record left), and agents the plan itself moved
    /// (whose current decision was arbitrated from observations of the
    /// dead placement). Without this, a freshly repaired instance keeps
    /// being throttled — or fully shed — by a decision sized for its
    /// crashed or pre-migration placement until the next tick.
    pub(super) fn invalidate_grants_on(
        &mut self,
        node: NodeId,
        plan: &str,
        moved: &[String],
        now: SimTime,
    ) {
        use std::collections::BTreeSet;
        if self.negotiate.config.is_none() {
            return;
        }
        let mut affected: BTreeSet<String> = BTreeSet::new();
        for (agent, act) in &self.negotiate.actuation {
            if act.granted_node == Some(node.0) {
                affected.insert(agent.clone());
            }
        }
        for agent in self.negotiate.grants.keys() {
            if self.instances.by_name(agent).map(|i| i.node.0) == Some(node.0) {
                affected.insert(agent.clone());
            }
        }
        for agent in moved {
            if self.negotiate.grants.contains_key(agent)
                || self.negotiate.actuation.contains_key(agent)
            {
                affected.insert(agent.clone());
            }
        }
        for agent in affected {
            self.invalidate_grant_of(&agent, plan, now, true);
            self.coverage
                .record(DetectPhase::Suspected, "negotiate", PlanOutcome::Completed);
        }
    }
}
