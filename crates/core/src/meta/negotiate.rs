//! The GORNA resource-negotiation control plane (DESIGN.md §2.10).
//!
//! Every component instance is a budget agent. The loop keeps the global
//! [`SituationalModel`] and refreshes it in place each negotiation round
//! from the meta-level's view of the instances and nodes and the
//! detector's `phi`; it refills one
//! [`BudgetRequest`] per agent from its observed offered load, and hands
//! the batch to the [`Negotiator`] for deterministic multi-objective
//! arbitration into the outcome it keeps. A model entry is added only for
//! a new instance and dropped when one leaves, and every name is shared,
//! so a warm round allocates nothing. Grants are then *actuated*:
//!
//! - **load shedding** — the admission gate in the dispatch path keeps
//!   `keep_permille` out of every 1000 offered messages, deterministically
//!   by per-agent sequence number (the gate and its throttles stay in the
//!   runtime, which runs them on every delivery; the loop sets them
//!   through the door);
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
//! The same loop also runs the *independent* baseline
//! ([`CoordinationMode::Independent`]): each agent reacts only to its own
//! latency signal with a slow additive ramp and no floors — the
//! uncoordinated per-loop behaviour the negotiator is measured against in
//! EXPERIMENTS.md E20.
//!
//! Interop with self-healing: a repair plan that commits mid-tick
//! invalidates the repaired agents' outstanding grants immediately
//! (audited as `budget_renegotiated`) instead of letting a stale grant
//! throttle a freshly repaired instance until the next round.

use super::{Loop, MetaLevel};
use crate::coverage::{DetectPhase, PlanOutcome};
use crate::raml::Observe as _;
use crate::reconfig::{ReconfigAction, ReconfigPlan, ReconfigReport};
use crate::runtime::{Door, InstId, PlanOrigin, Runtime, SlotId as _, View};
use aas_control::negotiate::{
    BudgetRequest, Grant, NegotiationOutcome, Negotiator, NegotiatorMutation, ObjectiveVector,
    ObjectiveWeights, ResourceVector, UtilityCurve,
};
use aas_control::situational::{AgentObservation, NodeSituation, SituationalModel};
use aas_obs::{AuditEvent, Gauge, Obs};
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

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
    /// Host utilization above which a starved agent requests migration.
    pub migrate_above: f64,
}

impl Default for NegotiateConfig {
    fn default() -> Self {
        NegotiateConfig {
            interval: SimDuration::from_millis(100),
            budget: ResourceVector {
                capacity: 1.0,
                work_rate: 1e9,
                retry_budget: 64.0,
                twin_horizon: 4.0,
            },
            mode: CoordinationMode::Negotiated,
            nominal_cost: 1.0,
            floor_fraction: 0.1,
            migrate_above: 2.0,
        }
    }
}

/// Rounds an agent must wait between negotiated migration requests.
/// Migration is a heavyweight response — the plan quiesces the agent and
/// holds its traffic for the duration — so the cooldown is long enough
/// for the post-release backlog to drain before the agent is eligible
/// again (otherwise the drain itself reads as overload and re-triggers).
const MIGRATE_COOLDOWN_ROUNDS: u64 = 32;
/// Strategy downgrade never cheapens a message below this scale; it is
/// also the capacity floor every active agent declares.
const MIN_COST_SCALE: f64 = 0.25;
/// Grant fraction below which a capacity-starved agent also downgrades
/// its strategy (in addition to shedding) and may ask to migrate.
const DOWNGRADE_BELOW: f64 = 0.5;

/// What the control plane holds about one agent, at the index of its
/// [`InstId`] in [`NegotiateState::agents`]. The id stands for the agent's
/// *name* for good, so a profile set before the instance exists and a
/// decision across a same-name replacement land in the same record. The
/// agent's throttle is not here: the admission gate holds it in the
/// runtime.
#[derive(Debug, Clone, Default)]
pub(crate) struct Agent {
    /// Request shaping, if [`Runtime::set_agent_profile`] set any.
    profile: Option<AgentProfile>,
    /// The gate's offered count at the previous round (for the delta).
    pub(crate) offered_last: u64,
    /// Node the agent was hosted on when its current grant (or deny) was
    /// issued; a repair committing for this node invalidates the decision.
    granted_node: Option<u32>,
    /// First round at which this agent may file a migration plan again;
    /// migration is rate-limited to avoid plan churn under sustained
    /// overload.
    migrate_from_round: u64,
    /// The outstanding grant, until a deny or a plan commit takes it.
    grant: Option<Grant>,
    /// `negotiate.fraction.<agent>`, registered at the agent's first
    /// grant. A fork's records start without it: the twin writes to its
    /// own registry.
    fraction: Option<Gauge>,
}

impl Agent {
    /// Sets the agent's `negotiate.fraction.<name>` gauge in `obs`,
    /// registering it the first time.
    fn set_fraction(&mut self, obs: &Obs, name: &str, fraction: f64) {
        self.fraction
            .get_or_insert_with(|| obs.metrics.gauge(&format!("negotiate.fraction.{name}")))
            .set(fraction);
    }
}

/// The gauges every round sets, resolved when negotiation is enabled (a
/// twin's at its first round, in its own registry).
#[derive(Debug)]
struct RoundGauges {
    rounds: Gauge,
    jain: Gauge,
    denied: Gauge,
}

impl RoundGauges {
    fn new(obs: &Obs) -> Self {
        RoundGauges {
            rounds: obs.metrics.gauge("negotiate.rounds"),
            jain: obs.metrics.gauge("negotiate.jain"),
            denied: obs.metrics.gauge("negotiate.denied"),
        }
    }
}

/// Grouped negotiation state.
#[derive(Debug, Default)]
pub(crate) struct NegotiateState {
    /// Enabled iff set.
    config: Option<NegotiateConfig>,
    /// The coordinator (only in [`CoordinationMode::Negotiated`]).
    negotiator: Option<Negotiator>,
    /// One record per agent, indexed by [`InstId`], grown on first touch.
    pub(crate) agents: Vec<Agent>,
    /// The coordinator's picture as of the last round, refreshed in place.
    pub(crate) model: SituationalModel,
    /// The last round's request batch, refilled in place.
    requests: Vec<BudgetRequest>,
    /// The most recent arbitration outcome, which the next round
    /// overwrites. The rounds before it are folded into `transcript`; a
    /// reader that wants each one steps the runtime a negotiation period
    /// at a time.
    last: Option<NegotiationOutcome>,
    /// What the rounds so far add up to.
    pub(crate) transcript: Transcript,
    /// Completed negotiation rounds.
    rounds: u64,
    /// Last `(time_s, cumulative_utilization)` sample per node, used to
    /// derive the windowed utilization the situational model carries.
    pub(crate) node_busy_last: BTreeMap<u32, (f64, f64)>,
    gauges: Option<RoundGauges>,
}

/// What the negotiation rounds add up to: the figures the invariant
/// checker holds the audit log's books to.
#[derive(Debug, Default)]
pub(crate) struct Transcript {
    /// Grants to agents other than [`TWIN_AGENT`].
    pub(crate) grants: u64,
    /// Denials.
    pub(crate) denials: u64,
    /// The rounds that granted past their budget; none in a correct run.
    pub(crate) over_budget: Vec<NegotiationOutcome>,
}

impl NegotiateState {
    /// Folds `outcome` into the transcript and keeps it as the last.
    pub(crate) fn record(&mut self, outcome: NegotiationOutcome) {
        let t = &mut self.transcript;
        let grants = outcome.grants.iter().filter(|g| g.agent != TWIN_AGENT);
        t.grants += grants.count() as u64;
        t.denials += outcome.denied.len() as u64;
        if !outcome.within_budget() {
            t.over_budget.push(outcome.clone());
        }
        self.last = Some(outcome);
    }

    /// `id`'s record, created neutral if nothing touched it before.
    pub(crate) fn agent(&mut self, id: InstId) -> &mut Agent {
        agent_in(&mut self.agents, id)
    }

    /// The control plane a digital twin starts from: the coordinator and
    /// every agent's record, but neither the model, the last requests and
    /// outcome, the transcript nor the gauges: its first round builds
    /// what it needs, the gauges in the twin's own registry.
    pub(super) fn fork(&self) -> NegotiateState {
        NegotiateState {
            config: self.config.clone(),
            negotiator: self.negotiator.clone(),
            agents: self
                .agents
                .iter()
                .map(|a| Agent {
                    fraction: None,
                    ..a.clone()
                })
                .collect(),
            rounds: self.rounds,
            node_busy_last: self.node_busy_last.clone(),
            ..NegotiateState::default()
        }
    }
}

/// `id`'s record in `agents`, created neutral if nothing touched it
/// before.
fn agent_in(agents: &mut Vec<Agent>, id: InstId) -> &mut Agent {
    if id.index() >= agents.len() {
        agents.resize_with(id.index() + 1, Agent::default);
    }
    &mut agents[id.index()]
}

impl MetaLevel {
    /// Enables the control plane in place of any earlier one: opens the
    /// admission gate and starts the rounds.
    fn enable_negotiation(&mut self, door: &mut Door<'_>, config: NegotiateConfig) {
        let state = &mut self.negotiate;
        // The arbitration weights are the control crate's defaults.
        state.negotiator = (config.mode == CoordinationMode::Negotiated)
            .then(|| Negotiator::new(ObjectiveWeights::default(), config.budget));
        state.gauges = Some(RoundGauges::new(door.obs()));
        // Every name known now has a record from the start, as it has a
        // throttle in the gate.
        if let Some(last) = door.view().names().map(|(id, _)| id).max() {
            state.agent(last);
        }
        let interval = config.interval;
        state.config = Some(config);
        door.open_gate();
        self.start(door, Loop::Negotiate, interval);
    }

    /// One negotiation round: refresh the situational model, collect
    /// requests, arbitrate (or run the independent baseline), actuate the
    /// grants, export gauges, book coverage.
    pub(super) fn negotiate(&mut self, door: &mut Door<'_>) {
        let Some(config) = self.negotiate.config.clone() else {
            return;
        };
        // A twin's gauges are resolved at its first round, in its registry.
        let gauges = &mut self.negotiate.gauges;
        gauges.get_or_insert_with(|| RoundGauges::new(door.obs()));
        self.refresh_model(door.view(), &config);
        // The round reads the model while it writes the rest of the
        // meta-level; taking it out and back moves no entry.
        let model = std::mem::take(&mut self.negotiate.model);
        match config.mode {
            CoordinationMode::Negotiated => self.negotiated_round(door, &config, &model),
            CoordinationMode::Independent => self.independent_round(door, &config, &model),
        }
        self.negotiate.model = model;
        // Roll the offered-delta baseline for the next round's demand.
        for (id, offered) in door.view().offers() {
            self.negotiate.agent(id).offered_last = offered;
        }
        self.negotiate.rounds += 1;
        if let Some(g) = &self.negotiate.gauges {
            g.rounds.set(self.negotiate.rounds as f64);
        }
    }

    /// Brings the coordinator's global picture up to now, in place, from
    /// the view's instances and nodes, plus the offered deltas, windowed
    /// utilization and suspicion only the control plane tracks. An
    /// instance that left loses its entry; a new one gains one; every
    /// other entry is overwritten.
    pub(crate) fn refresh_model(&mut self, view: View<'_>, config: &NegotiateConfig) {
        let now = view.now();
        let NegotiateState {
            model,
            agents,
            node_busy_last,
            ..
        } = &mut self.negotiate;
        model.observed_at = now;
        model.agents.retain(|name, _| view.id(name).is_some());
        let dt = config.interval.as_secs_f64().max(1e-9);
        let mut offered_total = 0u64;
        for (id, c) in view.instances() {
            let arrivals = view
                .offered(id)
                .saturating_sub(agent_in(agents, id).offered_last);
            offered_total += arrivals;
            let seen = AgentObservation {
                node: c.node.0,
                arrivals,
                inflight: u64::from(c.inflight),
                processed: c.processed,
                errors: c.errors,
                mean_latency_ms: c.mean_latency_ms,
            };
            match model.agents.get_mut(c.name.as_str()) {
                Some(slot) => *slot = seen,
                None => {
                    model.agents.insert(c.name.to_string(), seen);
                }
            }
        }
        // Nodes are only ever added, so overwriting every node's entry
        // leaves none stale.
        let mut capacity_units = 0.0;
        let now_s = now.as_secs_f64();
        for n in view.nodes() {
            if n.up {
                capacity_units += n.effective_capacity;
            }
            let suspicion = self
                .detector
                .as_ref()
                .map_or(0.0, |d| d.detector.phi(n.id, now));
            // The node's utilization is cumulative since t=0; the
            // coordinator needs the *current* pressure, so differentiate
            // it over the round's window (a cumulative figure never
            // decays, which would read one historical burst as permanent
            // overload and drive endless migration).
            let cumulative = n.utilization;
            let last = node_busy_last.insert(n.id.0, (now_s, cumulative));
            let utilization = match last {
                Some((t0, u0)) if now_s > t0 + 1e-9 => {
                    ((cumulative * now_s - u0 * t0) / (now_s - t0)).clamp(0.0, 1.0)
                }
                _ => cumulative,
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
    }

    /// Refills the request batch with what each agent's observed demand
    /// asks for.
    fn collect_requests(
        &mut self,
        view: View<'_>,
        config: &NegotiateConfig,
        model: &SituationalModel,
    ) {
        let NegotiateState {
            agents, requests, ..
        } = &mut self.negotiate;
        requests.clear();
        let dt = config.interval.as_secs_f64().max(1e-9);
        for (id, seen) in view.live_ids().zip(model.agents.values()) {
            let profile = agents[id.index()].profile.unwrap_or(AgentProfile {
                floor_fraction: config.floor_fraction,
                ..AgentProfile::default()
            });
            if profile.exempt {
                continue;
            }
            let rate = seen.arrivals as f64 / dt;
            let mut demand = ResourceVector::ZERO;
            demand.work_rate = rate;
            demand.capacity = if rate > 0.0 { 1.0 } else { 0.0 };
            demand.retry_budget = if rate > 0.0 { 3.0 } else { 0.0 };
            let mut floor = demand.scaled(profile.floor_fraction.clamp(0.0, 1.0));
            floor.capacity = if rate > 0.0 { MIN_COST_SCALE } else { 0.0 };
            requests.push(
                BudgetRequest::new(view.name(id).clone(), floor, demand)
                    .with_priority(profile.priority)
                    .with_objectives(profile.objectives)
                    .with_curve(profile.curve),
            );
        }
        if self.twin.is_some() {
            let mut demand = ResourceVector::ZERO;
            demand.twin_horizon = config.budget.twin_horizon.max(1.0);
            let mut floor = ResourceVector::ZERO;
            floor.twin_horizon = 0.25;
            requests.push(BudgetRequest::new(TWIN_AGENT, floor, demand).with_priority(0));
        }
    }

    /// A coordinated round: arbitrate into the kept outcome, audit,
    /// actuate. Each name the coordinator hands back is resolved to its id
    /// once; all of them but [`TWIN_AGENT`] are agents of the model, and a
    /// grant for any other is audited and not actuated.
    fn negotiated_round(
        &mut self,
        door: &mut Door<'_>,
        config: &NegotiateConfig,
        model: &SituationalModel,
    ) {
        self.collect_requests(door.view(), config, model);
        let state = &mut self.negotiate;
        let Some(negotiator) = state.negotiator.as_mut() else {
            return;
        };
        let mut outcome = state.last.take().unwrap_or_default();
        negotiator.arbitrate_into(model, &state.requests, &mut outcome);
        let epoch = outcome.epoch;

        // The detect phase this round is booked under: arbitration under a
        // live suspicion incident is a distinct adaptation state.
        let view = door.view();
        let suspected = self.heal.incidents.values().any(|i| i.queued)
            || view
                .in_flight()
                .any(|origin| matches!(origin, PlanOrigin::Repair { .. }))
            || self.detector.as_ref().is_some_and(|d| {
                let mut nodes = (0..view.node_count()).map(|n| NodeId(n as u32));
                nodes.any(|n| d.detector.is_suspected(n))
            });
        let phase = if suspected {
            DetectPhase::Suspected
        } else {
            DetectPhase::Steady
        };
        self.coverage
            .record(phase, "negotiate", PlanOutcome::Observed);

        // Audit and actuate denials first: a denied agent sheds hard.
        for (name, reason) in &outcome.denied {
            let id = door.view().id(name);
            door.audit(AuditEvent::BudgetDenied {
                epoch,
                agent: name.clone(),
                reason: reason.label(),
            });
            let Some(id) = id else {
                continue;
            };
            let throttle = door.throttle(id);
            throttle.keep_permille = 0;
            throttle.cost_scale = MIN_COST_SCALE;
            throttle.retry_cap = 0;
            let agent = self.negotiate.agent(id);
            agent.grant = None;
            agent.granted_node = model.agents.get(name.as_str()).map(|a| a.node);
        }

        // Actuate grants.
        let mut migrations: Vec<(InstId, NodeId)> = Vec::new();
        for grant in &outcome.grants {
            if grant.agent == TWIN_AGENT {
                if let Some(tc) = self.twin.as_mut() {
                    tc.horizon = SimDuration::from_secs_f64(grant.granted.twin_horizon.max(0.25));
                }
                continue;
            }
            let id = door.view().id(&grant.agent);
            let g = grant.granted;
            door.audit(AuditEvent::BudgetGranted {
                epoch,
                agent: grant.agent.clone(),
                granted: [g.capacity, g.work_rate, g.retry_budget, g.twin_horizon],
                fraction: grant.fraction,
            });
            let (Some(id), Some(seen)) = (id, model.agents.get(grant.agent.as_str())) else {
                continue;
            };
            let host = seen.node;
            if grant.demand.work_rate > 0.0 {
                let throttle = door.throttle(id);
                let rate_frac = (grant.granted.work_rate / grant.demand.work_rate).clamp(0.0, 1.0);
                throttle.keep_permille = (rate_frac * 1000.0).floor() as u32;
                throttle.cost_scale = if grant.fraction < DOWNGRADE_BELOW {
                    grant.fraction.max(MIN_COST_SCALE)
                } else {
                    1.0
                };
                throttle.retry_cap = if grant.demand.retry_budget > 0.0 {
                    grant.granted.retry_budget.floor().max(0.0) as u32
                } else {
                    u32::MAX
                };
            }
            // A zero-demand agent keeps its previous throttle: an agent
            // quiesced by an executing plan observes no arrivals, and
            // opening its gate to neutral would admit the entire held
            // backlog as one unthrottled burst at plan release.
            let agent = self.negotiate.agent(id);
            agent.set_fraction(door.obs(), &grant.agent, grant.fraction);
            agent.granted_node = Some(host);
            agent.grant = Some(grant.clone());

            // Migration request: starving on an overcommitted host while
            // another up node idles. Compiled into an ordinary plan, and
            // rate-limited per agent so sustained overload cannot turn
            // into plan churn.
            if grant.fraction < DOWNGRADE_BELOW {
                let overloaded = model
                    .nodes
                    .get(&host)
                    .is_some_and(|n| n.utilization > config.migrate_above);
                let target = model
                    .nodes
                    .iter()
                    .find(|(id, n)| **id != host && n.up && n.utilization < 0.5)
                    .map(|(id, _)| NodeId(*id));
                let cooled = agent.migrate_from_round <= self.negotiate.rounds;
                let moving = PlanOrigin::Migration { agent: id };
                let already_moving = door.view().in_flight().any(|origin| origin == moving);
                if let Some(to) = target.filter(|_| overloaded && !already_moving && cooled) {
                    migrations.push((id, to));
                }
            }
        }
        if let Some(g) = &self.negotiate.gauges {
            g.jain.set(outcome.jain_fairness());
            g.denied.set(outcome.denied.len() as f64);
        }
        self.negotiate.record(outcome);

        for (id, to) in migrations {
            self.negotiate.agent(id).migrate_from_round =
                self.negotiate.rounds + MIGRATE_COOLDOWN_ROUNDS;
            let name = door.view().name(id).to_string();
            let plan = ReconfigPlan::single(ReconfigAction::Migrate { name, to });
            self.coverage
                .record(DetectPhase::Steady, "negotiate", PlanOutcome::Planned);
            self.submit(door, plan, PlanOrigin::Migration { agent: id });
        }
    }

    /// The independent-loops baseline: no coordinator, no floors, no
    /// global budget. Each agent nudges its own admission gate from its
    /// own latency signal — an additive-increase/additive-decrease ramp
    /// that reacts only after its host is already drowning, and punishes
    /// victims as readily as culprits.
    fn independent_round(
        &mut self,
        door: &mut Door<'_>,
        config: &NegotiateConfig,
        model: &SituationalModel,
    ) {
        let interval_ms = config.interval.as_secs_f64() * 1e3;
        for (name, seen) in &model.agents {
            let Some(id) = door.view().id(name) else {
                continue;
            };
            let agent = self.negotiate.agent(id);
            if agent.profile.is_some_and(|p| p.exempt) {
                continue;
            }
            let backlog = model.nodes.get(&seen.node).map_or(0.0, |n| n.backlog_ms);
            let throttle = door.throttle(id);
            let keep = i64::from(throttle.keep_permille);
            let next = if backlog > 4.0 * interval_ms {
                keep - 100
            } else if backlog > interval_ms {
                keep - 50
            } else {
                keep + 100
            };
            throttle.keep_permille = next.clamp(100, 1000) as u32;
            let fraction = f64::from(throttle.keep_permille) / 1000.0;
            agent.set_fraction(door.obs(), name, fraction);
        }
    }

    /// Invalidates `id`'s outstanding grant because plan `trigger`
    /// (`None`: a connector repair) committed. With `reset_throttle` the
    /// throttle also returns to neutral until the next round re-grants
    /// (the repair path: a fresh instance must not inherit a starvation
    /// grant sized for its dead placement); without it the throttle stays
    /// in force (the planned-migration path).
    fn invalidate(
        &mut self,
        door: &mut Door<'_>,
        id: InstId,
        trigger: Option<u64>,
        now: SimTime,
        reset_throttle: bool,
    ) {
        let agent = self.negotiate.agent(id);
        let epoch = agent.grant.take().map_or(0, |g| g.epoch);
        agent.granted_node = None;
        if reset_throttle {
            door.throttle(id).reset();
        }
        let renegotiated = AuditEvent::BudgetRenegotiated {
            epoch,
            agent: door.view().name(id).clone(),
            trigger,
        };
        door.obs().audit.append(now.as_micros(), renegotiated);
    }

    /// A migration the negotiator filed for `agent` left the engine; a
    /// rejected or rolled-back one leaves nothing to settle, and the agent
    /// may file again once its cooldown has passed.
    pub(super) fn migration_plan_ended(
        &mut self,
        door: &mut Door<'_>,
        agent: InstId,
        report: &ReconfigReport,
    ) {
        if report.success {
            self.coverage
                .record(DetectPhase::Steady, "negotiate", PlanOutcome::Completed);
            // The agent moved: its grant was computed for the old
            // placement, so force renegotiation next round. The throttle
            // is *kept* — a planned migration under overload must not
            // open an unthrottled admission window until the re-grant
            // lands.
            self.invalidate(door, agent, Some(report.id.0), report.finished_at, false);
        }
    }

    /// The heal/negotiate ordering fix: a repair plan committing for
    /// `node` mid-round invalidates every outstanding budget decision
    /// issued against the pre-repair placement — grants and hard-shed
    /// *denials* pinned to the node, grants of agents hosted there now,
    /// and agents the plan itself moved (whose current decision was
    /// arbitrated from observations of the dead placement). Without this,
    /// a freshly repaired instance keeps being throttled — or fully shed —
    /// by a stale decision until the next round. In name order.
    pub(super) fn invalidate_grants_on(
        &mut self,
        door: &mut Door<'_>,
        node: NodeId,
        plan: Option<u64>,
        moved: &[String],
        now: SimTime,
    ) {
        if self.negotiate.config.is_none() {
            return;
        }
        let view = door.view();
        let agents = &self.negotiate.agents;
        let stale: Vec<InstId> = view
            .names()
            .filter(|(id, name)| {
                agents.get(id.index()).is_some_and(|agent| {
                    agent.granted_node == Some(node.0)
                        || (agent.grant.is_some() && view.node_of(*id) == Some(node))
                        || moved.iter().any(|m| m == name.as_str())
                })
            })
            .map(|(id, _)| id)
            .collect();
        for id in stale {
            self.invalidate(door, id, plan, now, true);
            self.coverage
                .record(DetectPhase::Suspected, "negotiate", PlanOutcome::Completed);
        }
    }
}

impl Runtime {
    /// Enables the negotiation control plane and starts its periodic
    /// rounds; a second call replaces the first.
    pub fn enable_negotiation(&mut self, config: NegotiateConfig) {
        self.meta_call(|meta, door| meta.enable_negotiation(door, config));
    }

    /// Shapes how `agent`'s budget requests are derived (priority,
    /// objectives, utility curve, floor fraction).
    pub fn set_agent_profile(&mut self, agent: &str, profile: AgentProfile) {
        self.meta_call(|meta, door| {
            let id = door.intern(agent);
            meta.negotiate.agent(id).profile = Some(profile);
        });
    }

    /// Installs (or clears) a deliberate negotiator corruption — the seam
    /// the `aas-scenario` mutation engine flips. `None` is byte-identical
    /// to unmutated arbitration.
    pub fn set_negotiator_mutation(&mut self, mutation: Option<NegotiatorMutation>) {
        self.meta_call(|meta, _| {
            if let Some(n) = meta.negotiate.negotiator.as_mut() {
                n.set_mutation(mutation);
            }
        });
    }

    /// The most recent arbitration outcome, if a round has run.
    #[must_use]
    pub fn negotiation_outcome(&self) -> Option<&NegotiationOutcome> {
        self.meta().negotiate.last.as_ref()
    }

    /// The outstanding grant for `agent`, if any.
    #[must_use]
    pub fn grant_of(&self, agent: &str) -> Option<&Grant> {
        let id = self.view().id(agent)?;
        self.meta().negotiate.agents.get(id.index())?.grant.as_ref()
    }

    /// Completed negotiation rounds.
    #[must_use]
    pub fn negotiation_rounds(&self) -> u64 {
        self.meta().negotiate.rounds
    }
}
