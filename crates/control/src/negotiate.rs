//! GORNA-style resource negotiation: budget requests and a
//! multi-objective arbitrating coordinator (DESIGN.md §2.10).
//!
//! The paper's prospective vision is a meta-level that decides adaptation
//! *globally* against situational goals. This module is that upgrade for
//! the control crate: instead of independent per-contract loops that fight
//! each other under overload, every agent files a [`BudgetRequest`] with a
//! utility curve over resource grants (service capacity, admission rate,
//! retry budget, twin-horizon budget), and a [`Negotiator`] solves a
//! deterministic multi-objective arbitration — weighted
//! latency/availability/cost with a lexicographic tie-break — against the
//! global [`SituationalModel`] each control tick, producing per-agent
//! [`Grant`]s. Agents never report their own demand: the runtime derives
//! each request from observed load and acts on each grant itself, by load
//! shedding, strategy downgrade, a retry cap or a migration plan.
//!
//! Everything here is pure and replayable: arbitration iterates `BTreeMap`s
//! and sorted request lists, floats render at fixed precision in
//! fingerprints, and the same `(model, requests)` input always produces a
//! byte-identical [`NegotiationOutcome`] — across replays and across
//! sharded-kernel execution modes.
//!
//! Agent names are the runtime's shared [`Name`]s, and a [`Negotiator`]
//! keeps its arbitration scratch between rounds: once warm, arbitrating
//! into an outcome the caller keeps ([`Negotiator::arbitrate_into`])
//! allocates nothing.

use crate::situational::SituationalModel;
use aas_obs::Name;
use core::fmt::{self, Write as _};
use serde::{Deserialize, Serialize};

/// FNV-1a 64-bit digest — the workspace's standard fingerprint primitive.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// An FNV-1a digest that text is `write!`n into: [`fnv1a`] of the text,
/// without building it.
#[derive(Debug)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything written so far.
    #[must_use]
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// The negotiated resource dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Service capacity: how much work per message the agent may spend
    /// (downgrading strategy cheapens each message).
    Capacity,
    /// Admission rate: how many offered messages per second the agent may
    /// accept (the rest are shed).
    WorkRate,
    /// Retry budget: delivery attempts the agent's connectors may spend.
    RetryBudget,
    /// Twin-horizon budget: seconds of digital-twin simulation the heal
    /// path may spend verifying plans on this agent's behalf.
    TwinHorizon,
}

impl ResourceKind {
    /// Every dimension, in canonical order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Capacity,
        ResourceKind::WorkRate,
        ResourceKind::RetryBudget,
        ResourceKind::TwinHorizon,
    ];

    /// Stable machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Capacity => "capacity",
            ResourceKind::WorkRate => "work-rate",
            ResourceKind::RetryBudget => "retry-budget",
            ResourceKind::TwinHorizon => "twin-horizon",
        }
    }
}

/// A vector over the four negotiated resource dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourceVector {
    /// Work units per message the agent may spend.
    pub capacity: f64,
    /// Messages per second the agent may admit.
    pub work_rate: f64,
    /// Delivery attempts per message.
    pub retry_budget: f64,
    /// Seconds of twin simulation.
    pub twin_horizon: f64,
}

impl ResourceVector {
    /// The zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        capacity: 0.0,
        work_rate: 0.0,
        retry_budget: 0.0,
        twin_horizon: 0.0,
    };

    /// Reads one dimension.
    #[must_use]
    pub fn get(&self, kind: ResourceKind) -> f64 {
        match kind {
            ResourceKind::Capacity => self.capacity,
            ResourceKind::WorkRate => self.work_rate,
            ResourceKind::RetryBudget => self.retry_budget,
            ResourceKind::TwinHorizon => self.twin_horizon,
        }
    }

    /// Writes one dimension.
    pub fn set(&mut self, kind: ResourceKind, v: f64) {
        match kind {
            ResourceKind::Capacity => self.capacity = v,
            ResourceKind::WorkRate => self.work_rate = v,
            ResourceKind::RetryBudget => self.retry_budget = v,
            ResourceKind::TwinHorizon => self.twin_horizon = v,
        }
    }

    /// Element-wise sum.
    #[must_use]
    pub fn plus(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out.set(k, out.get(k) + other.get(k));
        }
        out
    }

    /// Element-wise scale.
    #[must_use]
    pub fn scaled(&self, f: f64) -> ResourceVector {
        let mut out = *self;
        for k in ResourceKind::ALL {
            out.set(k, out.get(k) * f);
        }
        out
    }

    /// `self <= other + eps` on every dimension.
    #[must_use]
    pub fn fits_within(&self, other: &ResourceVector, eps: f64) -> bool {
        ResourceKind::ALL
            .iter()
            .all(|&k| self.get(k) <= other.get(k) + eps)
    }

    /// The smallest `granted/demand` ratio over dimensions where demand is
    /// positive; 1.0 when nothing was demanded. This is the "fraction of
    /// what I asked for" that utility curves are evaluated at.
    #[must_use]
    pub fn fraction_of(&self, demand: &ResourceVector) -> f64 {
        let mut frac = 1.0_f64;
        for k in ResourceKind::ALL {
            let d = demand.get(k);
            if d > 0.0 {
                frac = frac.min((self.get(k) / d).clamp(0.0, 1.0));
            }
        }
        frac
    }

    /// The fixed-precision [`Display`](fmt::Display) rendering, as a
    /// string.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Fixed precision, as fingerprints and audit details print it.
impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cap={:.6} rate={:.6} retry={:.6} twin={:.6}",
            self.capacity, self.work_rate, self.retry_budget, self.twin_horizon
        )
    }
}

/// How an agent values partial grants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum UtilityCurve {
    /// Utility grows linearly with the granted fraction.
    #[default]
    Linear,
    /// Concave: most of the utility arrives by `knee` (0 < knee <= 1);
    /// grants beyond the knee add little. Models elastic batch work.
    Diminishing {
        /// Fraction of demand at which utility reaches ~2/3.
        knee: f64,
    },
    /// All-or-nothing at `threshold`: below it the grant is nearly
    /// useless. Models inelastic interactive work.
    Step {
        /// Minimum useful fraction of demand.
        threshold: f64,
    },
}

impl UtilityCurve {
    /// Utility in `[0, 1]` of receiving `fraction` of demand.
    #[must_use]
    pub fn utility(&self, fraction: f64) -> f64 {
        let f = fraction.clamp(0.0, 1.0);
        match *self {
            UtilityCurve::Linear => f,
            UtilityCurve::Diminishing { knee } => {
                let k = knee.clamp(1e-6, 1.0);
                // Saturating curve normalized so utility(1.0) == 1.0.
                let raw = f / (f + k);
                let norm = 1.0 / (1.0 + k);
                raw / norm
            }
            UtilityCurve::Step { threshold } => {
                if f + 1e-12 >= threshold {
                    1.0
                } else {
                    f * 0.1
                }
            }
        }
    }
}

/// The agent's sensitivity to each arbitration objective. The coordinator
/// dots this with its own [`ObjectiveWeights`] to get the agent's
/// effective weight in surplus distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveVector {
    /// How much the agent's mission suffers from added latency.
    pub latency: f64,
    /// How much it suffers from unavailability.
    pub availability: f64,
    /// How much each granted unit costs to serve.
    pub cost: f64,
}

impl Default for ObjectiveVector {
    fn default() -> Self {
        ObjectiveVector {
            latency: 1.0,
            availability: 1.0,
            cost: 1.0,
        }
    }
}

/// The coordinator's arbitration policy: relative importance of the three
/// objectives when trading grants between agents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveWeights {
    /// Weight on latency-sensitivity.
    pub latency: f64,
    /// Weight on availability-sensitivity.
    pub availability: f64,
    /// Weight (negative pressure) on cost: costly agents weigh less.
    pub cost: f64,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        ObjectiveWeights {
            latency: 1.0,
            availability: 1.0,
            cost: 0.5,
        }
    }
}

impl ObjectiveWeights {
    /// The effective arbitration weight of an agent: latency and
    /// availability sensitivity pull budget toward it, cost pushes budget
    /// away. Clamped to a small positive floor so no agent's weight is
    /// exactly zero (which would starve it out of the surplus round
    /// entirely and make fairness undefined).
    #[must_use]
    pub fn effective_weight(&self, v: &ObjectiveVector) -> f64 {
        let w = self.latency * v.latency + self.availability * v.availability - self.cost * v.cost;
        w.max(1e-3)
    }
}

/// One agent's request for the next negotiation round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetRequest {
    /// Agent (instance) name; the arbitration tie-break key.
    pub agent: Name,
    /// The minimum viable grant: below this the agent cannot meet its
    /// contract at all. Guaranteed or explicitly denied, never silently
    /// shorted.
    pub floor: ResourceVector,
    /// The full demand: what the agent could usefully consume.
    pub demand: ResourceVector,
    /// Objective sensitivities, dotted with the coordinator's weights.
    pub objectives: ObjectiveVector,
    /// Coarse priority class; higher classes get floors reserved first.
    pub priority: u8,
    /// How the agent values partial grants.
    pub curve: UtilityCurve,
}

impl BudgetRequest {
    /// A request with default (balanced, linear-utility, priority-1)
    /// shape.
    #[must_use]
    pub fn new(agent: impl Into<Name>, floor: ResourceVector, demand: ResourceVector) -> Self {
        BudgetRequest {
            agent: agent.into(),
            floor,
            demand,
            objectives: ObjectiveVector::default(),
            priority: 1,
            curve: UtilityCurve::default(),
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the objective sensitivities.
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveVector) -> Self {
        self.objectives = objectives;
        self
    }

    /// Sets the utility curve.
    #[must_use]
    pub fn with_curve(mut self, curve: UtilityCurve) -> Self {
        self.curve = curve;
        self
    }
}

/// A per-agent allocation for one negotiation epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grant {
    /// The agent the grant belongs to.
    pub agent: Name,
    /// The granted vector (floor + surplus share, capped at demand).
    pub granted: ResourceVector,
    /// What the agent demanded (kept for fraction/utility accounting).
    pub demand: ResourceVector,
    /// `granted.fraction_of(demand)`.
    pub fraction: f64,
    /// Utility the agent derives from this grant under its curve.
    pub utility: f64,
    /// Negotiation epoch the grant was issued in.
    pub epoch: u64,
}

/// Why a request was denied. Denials are always audited: "every agent gets
/// its floor or an audited deny" is the harness's core safety property.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenyReason {
    /// The remaining budget could not cover the agent's floor.
    FloorUnsatisfiable,
    /// The agent's host node is down. Suspicion alone denies nothing: it
    /// only enters the model's fingerprint.
    HostSuspected,
}

impl DenyReason {
    /// Stable machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DenyReason::FloorUnsatisfiable => "floor-unsatisfiable",
            DenyReason::HostSuspected => "host-suspected",
        }
    }
}

/// Fault-injection seam for the negotiation mutation engine
/// (EXPERIMENTS.md E20): each variant is a plausible implementation bug
/// the adversarial harness must kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NegotiatorMutation {
    /// A greedy agent inflates its request tenfold before arbitration —
    /// the first agent in arbitration order lies about demand and floor.
    InflateRequests,
    /// The coordinator ignores floors entirely: nothing is reserved and
    /// nothing is denied, agents are silently shorted.
    IgnoreFloors,
    /// The coordinator keeps arbitrating against the first situational
    /// model it ever saw, blind to overload onset and failures.
    StaleModel,
}

impl NegotiatorMutation {
    /// Every negotiator mutant.
    pub const ALL: [NegotiatorMutation; 3] = [
        NegotiatorMutation::InflateRequests,
        NegotiatorMutation::IgnoreFloors,
        NegotiatorMutation::StaleModel,
    ];

    /// Stable machine-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NegotiatorMutation::InflateRequests => "inflate-requests",
            NegotiatorMutation::IgnoreFloors => "ignore-floors",
            NegotiatorMutation::StaleModel => "stale-model",
        }
    }
}

/// The outcome of one arbitration epoch: grants, audited denials, and the
/// inputs they were derived from. Byte-identically fingerprintable. The
/// default is an empty outcome for [`Negotiator::arbitrate_into`] to fill.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NegotiationOutcome {
    /// The epoch this outcome belongs to.
    pub epoch: u64,
    /// Fingerprint of the situational model arbitration actually used
    /// (under the stale-model mutant this differs from the live model).
    pub model_fingerprint: u64,
    /// The budget available this epoch.
    pub budget: ResourceVector,
    /// Grants, sorted by agent name.
    pub grants: Vec<Grant>,
    /// Audited denials: `(agent, reason)`, sorted by agent name.
    pub denied: Vec<(Name, DenyReason)>,
    /// Element-wise total of all grants (for the budget-cap invariant).
    pub total_granted: ResourceVector,
}

impl NegotiationOutcome {
    /// The grant for `agent`, if any.
    #[must_use]
    pub fn grant_for(&self, agent: &str) -> Option<&Grant> {
        self.grants.iter().find(|g| g.agent == agent)
    }

    /// Whether `total_granted` fits inside `budget` (the safety
    /// invariant the property harness replays 128 ways).
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.total_granted.fits_within(&self.budget, 1e-6)
    }

    /// Jain's fairness index over the granted fractions:
    /// `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair. Agents that demanded
    /// nothing are excluded; an empty round is vacuously fair.
    #[must_use]
    pub fn jain_fairness(&self) -> f64 {
        let fracs = || {
            self.grants
                .iter()
                .filter(|g| ResourceKind::ALL.iter().any(|&k| g.demand.get(k) > 0.0))
                .map(|g| g.fraction)
        };
        let n = fracs().count();
        if n == 0 {
            return 1.0;
        }
        let n = n as f64;
        let sum: f64 = fracs().sum();
        let sq: f64 = fracs().map(|x| x * x).sum();
        if sq <= 0.0 {
            return 1.0;
        }
        (sum * sum) / (n * sq)
    }

    /// FNV-1a digest of the whole outcome, floats at fixed precision.
    /// Two arbitrations agree byte-for-byte iff these agree.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        let _ = write!(
            h,
            "epoch={} model={:#018x} budget[{}] total[{}]",
            self.epoch, self.model_fingerprint, self.budget, self.total_granted
        );
        for g in &self.grants {
            let _ = write!(
                h,
                "|g:{}:[{}]:[{}]:{:.6}:{:.6}:{}",
                g.agent, g.granted, g.demand, g.fraction, g.utility, g.epoch
            );
        }
        for (agent, reason) in &self.denied {
            let _ = write!(h, "|d:{}:{}", agent, reason.label());
        }
        h.finish()
    }
}

/// The arbitrating coordinator. Holds the global budget, the objective
/// weights, the epoch counter, (for the adversarial harness) an optional
/// injected mutation, and the scratch one round fills and the next
/// reuses.
#[derive(Debug, Clone)]
pub struct Negotiator {
    weights: ObjectiveWeights,
    budget: ResourceVector,
    epoch: u64,
    mutation: Option<NegotiatorMutation>,
    frozen_model: Option<SituationalModel>,
    scratch: Scratch,
}

/// A request that reserved its floor: its index in the batch, and the
/// floor and demand arbitration holds it to (the inflate-requests mutant
/// changes both; the ignore-floors mutant zeroes the floor).
#[derive(Debug, Clone, Copy)]
struct Admitted {
    req: usize,
    floor: ResourceVector,
    demand: ResourceVector,
}

/// What one arbitration works in, cleared and refilled each round so a
/// warm round allocates nothing. Nothing in it outlives the round.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Request indices in arbitration order.
    order: Vec<usize>,
    /// Requests that reserved their floor, in arbitration order.
    admitted: Vec<Admitted>,
    /// `(position in order, reason)` for each denial.
    denied: Vec<(usize, DenyReason)>,
    /// Effective weight of each admitted request.
    weights: Vec<f64>,
    /// Surplus each admitted request has taken so far.
    extra: Vec<ResourceVector>,
    /// Admitted requests still open to surplus in this pass, and in the
    /// next.
    open: Vec<usize>,
    next_open: Vec<usize>,
    /// Indices into `admitted` in grant (name) order.
    by_name: Vec<usize>,
}

impl Negotiator {
    /// A coordinator with the given arbitration weights and global
    /// per-epoch budget.
    #[must_use]
    pub fn new(weights: ObjectiveWeights, budget: ResourceVector) -> Self {
        Negotiator {
            weights,
            budget,
            epoch: 0,
            mutation: None,
            frozen_model: None,
            scratch: Scratch::default(),
        }
    }

    /// The static global budget.
    #[must_use]
    pub fn budget(&self) -> ResourceVector {
        self.budget
    }

    /// Epochs arbitrated so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Injects (or clears) a mutant for the adversarial harness.
    pub fn set_mutation(&mut self, m: Option<NegotiatorMutation>) {
        self.mutation = m;
        self.frozen_model = None;
    }

    /// The active mutation, if any.
    #[must_use]
    pub fn mutation(&self) -> Option<NegotiatorMutation> {
        self.mutation
    }

    /// The budget actually available this epoch: the work-rate dimension
    /// tracks the situational model's sustainable capacity (never granting
    /// more admission than the system can serve), the other dimensions
    /// come from the static budget.
    #[must_use]
    pub fn effective_budget(&self, model: &SituationalModel) -> ResourceVector {
        capped(self.budget, model)
    }

    /// Runs one arbitration epoch into a fresh outcome; see
    /// [`Negotiator::arbitrate_into`].
    pub fn arbitrate(
        &mut self,
        live_model: &SituationalModel,
        requests: &[BudgetRequest],
    ) -> NegotiationOutcome {
        let mut out = NegotiationOutcome::default();
        self.arbitrate_into(live_model, requests, &mut out);
        out
    }

    /// Runs one arbitration epoch into `out`, replacing all it held: floors
    /// first (lexicographic by priority-descending then name-ascending;
    /// unsatisfiable floors are audited denials), then the surplus is
    /// water-filled proportionally to effective weight, capped at demand.
    /// Deterministic throughout. Once `out` and this negotiator have held
    /// a batch as large, it allocates nothing.
    pub fn arbitrate_into(
        &mut self,
        live_model: &SituationalModel,
        requests: &[BudgetRequest],
        out: &mut NegotiationOutcome,
    ) {
        self.epoch += 1;
        let epoch = self.epoch;
        let Scratch {
            order,
            admitted,
            denied,
            weights,
            extra,
            open,
            next_open,
            by_name,
        } = &mut self.scratch;

        // Mutant: arbitrate against the first model ever seen.
        let model: &SituationalModel = if self.mutation == Some(NegotiatorMutation::StaleModel) {
            self.frozen_model.get_or_insert_with(|| live_model.clone())
        } else {
            live_model
        };

        // Canonical arbitration order: priority desc, then name asc, then
        // batch position — a key no two requests share, so the unstable
        // sort orders them as a stable one would.
        order.clear();
        order.extend(0..requests.len());
        order.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&requests[a], &requests[b]);
            rb.priority
                .cmp(&ra.priority)
                .then_with(|| ra.agent.cmp(&rb.agent))
                .then(a.cmp(&b))
        });

        // Mutant: the first agent in arbitration order lies tenfold.
        let inflate = self.mutation == Some(NegotiatorMutation::InflateRequests);
        let ignore_floors = self.mutation == Some(NegotiatorMutation::IgnoreFloors);
        let budget = capped(self.budget, model);
        let mut remaining = budget;
        admitted.clear();
        denied.clear();

        // Step 1: reserve floors in arbitration order; deny what the
        // remaining budget cannot cover.
        for (pos, &i) in order.iter().enumerate() {
            let req = &requests[i];
            let (mut floor, mut demand) = (req.floor, req.demand);
            if inflate && pos == 0 {
                demand = demand.scaled(10.0);
                floor = floor.scaled(4.0);
            }
            if ignore_floors {
                floor = ResourceVector::ZERO;
            }
            let host_down = model
                .agents
                .get(req.agent.as_str())
                .and_then(|a| model.nodes.get(&a.node))
                .is_some_and(|n| !n.up);
            if host_down {
                denied.push((pos, DenyReason::HostSuspected));
                continue;
            }
            if !floor.fits_within(&remaining, 1e-9) {
                denied.push((pos, DenyReason::FloorUnsatisfiable));
                continue;
            }
            for k in ResourceKind::ALL {
                remaining.set(k, remaining.get(k) - floor.get(k));
            }
            admitted.push(Admitted {
                req: i,
                floor,
                demand,
            });
        }

        // Step 2: per-dimension weighted water-filling of the surplus.
        // Iterate passes: agents whose demand cap binds drop out and
        // release their share to the rest; at most n passes per dimension.
        weights.clear();
        weights.extend(
            admitted
                .iter()
                .map(|a| self.weights.effective_weight(&requests[a.req].objectives)),
        );
        extra.clear();
        extra.resize(admitted.len(), ResourceVector::ZERO);
        for k in ResourceKind::ALL {
            let mut surplus = remaining.get(k).max(0.0);
            open.clear();
            open.extend((0..admitted.len()).filter(|&i| {
                let a = &admitted[i];
                a.demand.get(k) > a.floor.get(k) + 1e-12
            }));
            while surplus > 1e-9 && !open.is_empty() {
                let total_w: f64 = open.iter().map(|&i| weights[i]).sum();
                if total_w <= 0.0 {
                    break;
                }
                next_open.clear();
                let mut distributed = 0.0;
                for &i in open.iter() {
                    let a = &admitted[i];
                    let headroom = a.demand.get(k) - a.floor.get(k) - extra[i].get(k);
                    let share = surplus * weights[i] / total_w;
                    let take = share.min(headroom);
                    let already = extra[i].get(k);
                    extra[i].set(k, already + take);
                    distributed += take;
                    if take + 1e-12 < share {
                        // Cap bound: drop out, release the rest.
                    } else {
                        next_open.push(i);
                    }
                }
                surplus -= distributed;
                if distributed <= 1e-12 {
                    break;
                }
                core::mem::swap(open, next_open);
            }
        }

        // Assemble grants. The lexicographic tie-break is already encoded
        // in arbitration order; the output is in name order (arbitration
        // order among equal names) for stable rendering.
        by_name.clear();
        by_name.extend(0..admitted.len());
        by_name.sort_unstable_by(|&a, &b| {
            let name = |i: usize| &requests[admitted[i].req].agent;
            name(a).cmp(name(b)).then(a.cmp(&b))
        });
        out.grants.clear();
        out.grants.extend(by_name.iter().map(|&i| {
            let (a, ex) = (&admitted[i], &extra[i]);
            let req = &requests[a.req];
            let granted = a.floor.plus(ex);
            let fraction = granted.fraction_of(&a.demand);
            Grant {
                agent: req.agent.clone(),
                granted,
                demand: a.demand,
                fraction,
                utility: req.curve.utility(fraction),
                epoch,
            }
        }));
        let denied_name = |pos: usize| &requests[order[pos]].agent;
        denied.sort_unstable_by(|&(a, _), &(b, _)| {
            denied_name(a).cmp(denied_name(b)).then(a.cmp(&b))
        });
        out.denied.clear();
        out.denied.extend(
            denied
                .iter()
                .map(|&(pos, reason)| (denied_name(pos).clone(), reason)),
        );

        let mut total = ResourceVector::ZERO;
        for g in &out.grants {
            total = total.plus(&g.granted);
        }

        out.epoch = epoch;
        out.model_fingerprint = model.fingerprint();
        out.budget = budget;
        out.total_granted = total;
    }
}

/// `budget` with its work rate capped at `model`'s sustainable capacity.
fn capped(mut budget: ResourceVector, model: &SituationalModel) -> ResourceVector {
    if model.capacity_rate > 0.0 {
        budget.work_rate = budget.work_rate.min(model.capacity_rate);
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::situational::{AgentObservation, NodeSituation};
    use aas_sim::time::SimTime;

    fn vec4(cap: f64, rate: f64, retry: f64, twin: f64) -> ResourceVector {
        ResourceVector {
            capacity: cap,
            work_rate: rate,
            retry_budget: retry,
            twin_horizon: twin,
        }
    }

    fn model(capacity_rate: f64) -> SituationalModel {
        let mut m = SituationalModel::empty(SimTime::from_micros(500_000));
        m.arrival_rate = 2.0 * capacity_rate;
        m.capacity_rate = capacity_rate;
        for (name, node) in [("alpha", 0u32), ("beta", 1), ("gamma", 1)] {
            m.agents.insert(name.into(), AgentObservation::idle(node));
        }
        m.nodes.insert(0, NodeSituation::healthy(1000.0));
        m.nodes.insert(1, NodeSituation::healthy(1000.0));
        m
    }

    fn requests() -> Vec<BudgetRequest> {
        vec![
            BudgetRequest::new("beta", vec4(0.2, 10.0, 1.0, 0.0), vec4(1.0, 60.0, 3.0, 0.0)),
            BudgetRequest::new(
                "alpha",
                vec4(0.2, 10.0, 1.0, 0.0),
                vec4(1.0, 60.0, 3.0, 0.0),
            )
            .with_priority(2),
            BudgetRequest::new("gamma", vec4(0.1, 5.0, 0.0, 0.0), vec4(0.5, 40.0, 2.0, 0.0)),
        ]
    }

    #[test]
    fn grants_fit_budget_and_respect_floors() {
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 100.0, 6.0, 4.0));
        let out = n.arbitrate(&model(100.0), &requests());
        assert!(out.within_budget(), "total {:?}", out.total_granted);
        assert!(out.denied.is_empty());
        for g in &out.grants {
            let req = requests().into_iter().find(|r| r.agent == g.agent).unwrap();
            assert!(
                req.floor.fits_within(&g.granted, 1e-9),
                "{} floor unmet: {:?} < {:?}",
                g.agent,
                g.granted,
                req.floor
            );
            assert!(g.granted.fits_within(&req.demand, 1e-9));
        }
    }

    #[test]
    fn floors_exceeding_budget_produce_audited_denials_lowest_priority_first() {
        // Budget covers two floors (work-rate 10+10), not three.
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(0.5, 22.0, 2.0, 0.0));
        let out = n.arbitrate(&model(22.0), &requests());
        // alpha is priority 2 (reserved first), then beta by name; gamma's
        // floor (rate 5) still fits in the remaining 2? No: 22-20=2 < 5.
        assert_eq!(out.grants.len(), 2);
        assert_eq!(out.denied.len(), 1);
        assert_eq!(out.denied[0].0, "gamma");
        assert_eq!(out.denied[0].1, DenyReason::FloorUnsatisfiable);
        assert!(out.within_budget());
    }

    #[test]
    fn down_host_is_denied_not_granted() {
        let mut m = model(100.0);
        m.nodes.get_mut(&1).unwrap().up = false;
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 100.0, 6.0, 0.0));
        let out = n.arbitrate(&m, &requests());
        let denied: Vec<&str> = out.denied.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(denied, ["beta", "gamma"]);
        assert!(out
            .denied
            .iter()
            .all(|(_, r)| *r == DenyReason::HostSuspected));
        assert!(out.grant_for("alpha").is_some());
    }

    #[test]
    fn arbitration_is_replayable_byte_for_byte() {
        let run = || {
            let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 80.0, 6.0, 4.0));
            n.arbitrate(&model(90.0), &requests()).fingerprint()
        };
        assert_eq!(run(), run());
        // Input order must not matter: requests are canonically sorted.
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 80.0, 6.0, 4.0));
        let mut shuffled = requests();
        shuffled.reverse();
        assert_eq!(n.arbitrate(&model(90.0), &shuffled).fingerprint(), run());
    }

    #[test]
    fn work_rate_budget_tracks_situational_capacity() {
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 1000.0, 6.0, 4.0));
        let out = n.arbitrate(&model(30.0), &requests());
        assert!(out.budget.work_rate <= 30.0 + 1e-9);
        assert!(out.total_granted.work_rate <= 30.0 + 1e-9);
    }

    #[test]
    fn inflate_requests_mutant_starves_honest_agents() {
        let honest = {
            let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 80.0, 6.0, 0.0));
            n.arbitrate(&model(80.0), &requests())
        };
        let mutated = {
            let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 80.0, 6.0, 0.0));
            n.set_mutation(Some(NegotiatorMutation::InflateRequests));
            n.arbitrate(&model(80.0), &requests())
        };
        // The greedy agent (alpha, highest priority) eats surplus its
        // honest self would have left; fairness over fractions collapses.
        assert!(mutated.jain_fairness() < honest.jain_fairness());
        let honest_beta = honest.grant_for("beta").unwrap().granted.work_rate;
        let mutated_beta = mutated.grant_for("beta").unwrap().granted.work_rate;
        assert!(mutated_beta < honest_beta);
    }

    #[test]
    fn ignore_floors_mutant_silently_shorts_agents() {
        // Tight budget: honestly, gamma is denied; the mutant instead
        // grants everyone something below their floor with no denial.
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(0.5, 22.0, 2.0, 0.0));
        n.set_mutation(Some(NegotiatorMutation::IgnoreFloors));
        let out = n.arbitrate(&model(22.0), &requests());
        assert!(out.denied.is_empty(), "mutant never denies");
        let shorted = out.grants.iter().any(|g| {
            let req = requests().into_iter().find(|r| r.agent == g.agent).unwrap();
            !req.floor.fits_within(&g.granted, 1e-9)
        });
        assert!(shorted, "some agent silently got less than its floor");
    }

    #[test]
    fn stale_model_mutant_ignores_capacity_collapse() {
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 1000.0, 6.0, 0.0));
        n.set_mutation(Some(NegotiatorMutation::StaleModel));
        let first = n.arbitrate(&model(200.0), &requests());
        // Capacity collapses tenfold; the stale coordinator keeps granting
        // against the old 200/s picture.
        let out = n.arbitrate(&model(20.0), &requests());
        assert_eq!(out.model_fingerprint, first.model_fingerprint);
        assert!(out.total_granted.work_rate > 20.0 + 1e-9);
        // An honest coordinator respects the new ceiling.
        let mut h = Negotiator::new(ObjectiveWeights::default(), vec4(2.0, 1000.0, 6.0, 0.0));
        h.arbitrate(&model(200.0), &requests());
        let honest = h.arbitrate(&model(20.0), &requests());
        assert!(honest.total_granted.work_rate <= 20.0 + 1e-9);
    }

    #[test]
    fn utility_curves_shape_value_of_partial_grants() {
        assert!((UtilityCurve::Linear.utility(0.5) - 0.5).abs() < 1e-12);
        let d = UtilityCurve::Diminishing { knee: 0.25 };
        assert!(d.utility(0.5) > 0.5, "concave: early grants worth more");
        assert!((d.utility(1.0) - 1.0).abs() < 1e-12);
        let s = UtilityCurve::Step { threshold: 0.8 };
        assert!(s.utility(0.79) < 0.1);
        assert!((s.utility(0.8) - 1.0).abs() < 1e-12);
    }

    /// `n` agents over four nodes (node 3 down in every third round) and
    /// their requests, at a sustainable rate that is abundant in even
    /// rounds and covers about half the floors in odd ones.
    fn batch(n: usize, round: usize) -> (SituationalModel, Vec<BudgetRequest>) {
        let mut rng = aas_sim::rng::SimRng::seed_from(round as u64);
        let mut m = SituationalModel::empty(SimTime::from_millis(50 * round as u64));
        let mut requests = Vec::new();
        for i in 0..n {
            let name = format!("a{i:02}");
            m.agents
                .insert(name.clone(), AgentObservation::idle((i % 4) as u32));
            let rate = rng.uniform(10.0, 400.0);
            let demand = vec4(1.0, rate, 3.0, if i == 0 { 2.0 } else { 0.0 });
            let floor = demand.scaled(rng.uniform(0.05, 0.3));
            let curve = match i % 3 {
                0 => UtilityCurve::Linear,
                1 => UtilityCurve::Diminishing { knee: 0.5 },
                _ => UtilityCurve::Step { threshold: 0.6 },
            };
            let objectives = ObjectiveVector {
                latency: rng.uniform(0.5, 2.0),
                ..ObjectiveVector::default()
            };
            requests.push(
                BudgetRequest::new(name, floor, demand)
                    .with_priority((i % 3) as u8)
                    .with_objectives(objectives)
                    .with_curve(curve),
            );
        }
        for node in 0..4 {
            let mut situation = NodeSituation::healthy(1000.0);
            situation.up = !(node == 3 && round % 3 == 1);
            m.nodes.insert(node, situation);
        }
        m.capacity_rate = if round.is_multiple_of(2) {
            1e6
        } else {
            10.0 * n as f64
        };
        (m, requests)
    }

    /// One negotiator and one outcome reused over batches that shrink and
    /// grow, denials that come and go and each mutant set and cleared
    /// arbitrate as a copy of the negotiator with no scratch would, into
    /// a new outcome: nothing of a longer round is left behind.
    #[test]
    fn a_reused_negotiator_arbitrates_as_a_fresh_one() {
        use NegotiatorMutation as M;
        let sizes = [32, 32, 5, 32, 5, 5, 32, 32, 5, 32, 32, 5, 32, 32];
        let mutations = [
            (1, Some(M::InflateRequests)),
            (3, None),
            (4, Some(M::IgnoreFloors)),
            (6, None),
            (8, Some(M::StaleModel)),
            (11, None),
        ];
        let mut reused = Negotiator::new(ObjectiveWeights::default(), vec4(12.0, 1e5, 60.0, 4.0));
        let mut out = NegotiationOutcome::default();
        let (mut denials, mut clean) = (0, 0);
        for (round, &n) in sizes.iter().enumerate() {
            if let Some(&(_, m)) = mutations.iter().find(|(at, _)| *at == round) {
                reused.set_mutation(m);
            }
            let (model, requests) = batch(n, round);
            let mut fresh = Negotiator {
                scratch: Scratch::default(),
                ..reused.clone()
            };
            reused.arbitrate_into(&model, &requests, &mut out);
            let expected = fresh.arbitrate(&model, &requests);
            assert_eq!(out.epoch, round as u64 + 1);
            assert_eq!(out.fingerprint(), expected.fingerprint(), "round {round}");
            assert_eq!(out, expected, "round {round}");
            assert_eq!(out.grants.len() + out.denied.len(), n, "round {round}");
            if out.denied.is_empty() {
                clean += 1;
            } else {
                denials += 1;
            }
        }
        assert!(
            denials >= 4 && clean >= 4,
            "{denials} rounds deny, {clean} do not"
        );
    }

    #[test]
    fn jain_fairness_bounds() {
        let mut n = Negotiator::new(ObjectiveWeights::default(), vec4(5.0, 500.0, 10.0, 4.0));
        let out = n.arbitrate(&model(500.0), &requests());
        let j = out.jain_fairness();
        assert!(j > 0.0 && j <= 1.0 + 1e-12);
        // Abundant budget: everyone gets full demand, perfectly fair.
        assert!(j > 0.999, "abundance should be fair, J = {j}");
    }
}
