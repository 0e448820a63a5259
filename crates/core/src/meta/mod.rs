//! The meta-level (DESIGN.md §2.1): RAML's rules, the failure detector,
//! self-healing with its digital twin, and the negotiation control plane
//! — four loops on one periodic tick, apart from the runtime they adapt.
//!
//! The loops read the runtime through one borrowed [`View`] (the instance
//! table, the topology and the connectors in place; never a copy) and
//! change it only through one [`Door`]: plan submission, connector
//! adaptation, notifications, heartbeat sends, the admission gate's
//! throttles, and audit and metric records. Module privacy holds them to
//! that: nothing here can name a field of [`Runtime`]. RAML's rules, the
//! repair policy and the negotiator's situational model all read the
//! same view, through [`crate::raml::Observe`] where they are the library's own.
//!
//! One kernel timer drives them all. Each loop keeps its period and its
//! phase: the instant it was enabled, plus whole periods. At an instant
//! where several are due each runs once, in the fixed order detect →
//! RAML → heal → negotiate, so a repair is planned after that instant's
//! suspicions and RAML intercessions and before its negotiation round.
//! Heal runs at the detector's instants. Enabling a loop again replaces
//! it, its phase taken from the new enabling.
//!
//! The meta-level is held by the runtime, which calls in when a meta tick
//! fires, a node crashes or returns, a heartbeat arrives, or a plan the
//! meta-level submitted ends on a later event ([`Runtime::meta_call`]).

mod detect;
mod heal;
mod negotiate;
mod twin;

pub use negotiate::{AgentProfile, CoordinationMode, NegotiateConfig, TWIN_AGENT};
pub use twin::{TwinConfig, TwinPrediction};

use crate::coverage::AdaptationCoverage;
use crate::raml::{Intercession, Raml};
use crate::reconfig::{ReconfigPlan, ReconfigReport};
use crate::runtime::{ms, Door, PlanOrigin, Runtime, View};
use aas_obs::{HistogramHandle, Obs, RepairBy};
use aas_sim::time::{SimDuration, SimTime};
use detect::DetectorRt;
use heal::HealState;
use negotiate::NegotiateState;

/// The loops with a period of their own, by their index in
/// [`MetaLevel::periods`]. Heal runs at the detector's instants.
#[derive(Debug, Clone, Copy)]
enum Loop {
    Detect,
    Raml,
    Negotiate,
}

/// A loop's period and the next instant it is due.
#[derive(Debug, Clone, Copy)]
struct Period {
    every: SimDuration,
    next: SimTime,
}

/// Everything the meta-level holds between ticks.
#[derive(Debug)]
pub(crate) struct MetaLevel {
    raml: Option<Raml>,
    pub(crate) detector: Option<DetectorRt>,
    pub(crate) heal: HealState,
    /// Twin verification of repairs is on iff set.
    twin: Option<TwinConfig>,
    pub(crate) negotiate: NegotiateState,
    /// Adaptation-state-space odometer (see [`crate::coverage`]).
    coverage: AdaptationCoverage,
    /// By [`Loop`]; `None` while the loop is off.
    periods: [Option<Period>; 3],
    /// `heal.mttd_ms`, `heal.mttr_ms` and `detector.phi` (the largest
    /// `phi` of each detector tick).
    pub(crate) mttd: HistogramHandle,
    pub(crate) mttr: HistogramHandle,
    phi: HistogramHandle,
}

impl MetaLevel {
    /// An idle meta-level recording into `obs`.
    pub(crate) fn new(obs: &Obs) -> Self {
        MetaLevel {
            raml: None,
            detector: None,
            heal: HealState::default(),
            twin: None,
            negotiate: NegotiateState::default(),
            coverage: AdaptationCoverage::new(),
            periods: [None; 3],
            mttd: obs.metrics.histogram("heal.mttd_ms"),
            mttr: obs.metrics.histogram("heal.mttr_ms"),
            phi: obs.metrics.histogram("detector.phi"),
        }
    }

    /// The meta-level a digital twin runs, recording into the twin's
    /// `obs`: the detector, the healing picture and the control plane,
    /// but no RAML, no twin of its own (forks never fork) and no
    /// coverage yet.
    pub(crate) fn fork(&self, obs: &Obs) -> Self {
        let mut periods = self.periods;
        periods[Loop::Raml as usize] = None;
        MetaLevel {
            detector: self.detector.as_ref().map(|d| d.fork(obs)),
            heal: self.heal.fork(),
            negotiate: self.negotiate.fork(),
            periods,
            ..MetaLevel::new(obs)
        }
    }

    /// Starts `which` with period `every` from now, in place of any
    /// earlier start, and makes sure a tick fires when it is due.
    fn start(&mut self, door: &mut Door<'_>, which: Loop, every: SimDuration) {
        let next = door.now() + every;
        let due = self.next_due();
        self.periods[which as usize] = Some(Period { every, next });
        if due.is_none_or(|due| next < due) {
            door.arm_tick(next);
        }
    }

    /// The next instant any loop is due.
    fn next_due(&self) -> Option<SimTime> {
        self.periods.iter().flatten().map(|p| p.next).min()
    }

    /// The meta tick: every loop due now runs once, in the fixed order,
    /// then the tick is armed for the next due instant.
    pub(crate) fn on_tick(&mut self, door: &mut Door<'_>, now: SimTime) {
        let due = |which: Loop| self.periods[which as usize].is_some_and(|p| p.next == now);
        let (detect, raml, negotiate) = (due(Loop::Detect), due(Loop::Raml), due(Loop::Negotiate));
        if detect {
            self.detect(door, now);
        }
        if raml {
            self.raml_tick(door, now);
        }
        if detect {
            self.try_repairs(door, now);
        }
        if negotiate {
            self.negotiate(door);
        }
        for p in self.periods.iter_mut().flatten() {
            if p.next == now {
                p.next = now + p.every;
            }
        }
        if let Some(next) = self.next_due() {
            door.arm_tick(next);
        }
    }

    /// Shows RAML the view and carries out what its rules ask for.
    fn raml_tick(&mut self, door: &mut Door<'_>, now: SimTime) {
        let Some(raml) = self.raml.as_mut() else {
            return;
        };
        let intercessions = raml.evaluate(&door.view());
        self.apply(door, intercessions, PlanOrigin::Raml, now);
    }

    /// Carries out what the meta-level — RAML's rules, or the repair
    /// policy of a [`PlanOrigin::Repair`] — asked for. A plan goes through
    /// the engine under `origin`; a connector adaptation is the
    /// lightweight path: the new connector mediates the very next
    /// message, so a repair made that way is planned and complete here.
    fn apply(
        &mut self,
        door: &mut Door<'_>,
        intercessions: Vec<Intercession>,
        origin: PlanOrigin,
        now: SimTime,
    ) {
        for cmd in intercessions {
            match cmd {
                Intercession::Reconfigure(plan) => self.submit(door, plan, origin),
                Intercession::AdaptConnector { name, spec } => {
                    door.adapt_connector(&name, spec);
                    if let PlanOrigin::Repair { node, label } = origin {
                        self.note_repair_planned(door, node, label, RepairBy::Connector(name));
                        self.complete_repair(door, None, node, label, &[], now);
                    }
                }
                Intercession::Notify(text) => door.notify(text),
            }
        }
    }

    /// Submits `plan` through the door and books it with its submitter:
    /// a repair is recorded as planned, and a plan that ended inside the
    /// call is settled as [`MetaLevel::plan_ended`] settles later ones.
    fn submit(&mut self, door: &mut Door<'_>, plan: ReconfigPlan, origin: PlanOrigin) {
        let actions = plan.len() as u64;
        let (id, ended) = door.submit(plan, origin);
        if let PlanOrigin::Repair { node, label } = origin {
            let by = RepairBy::Plan { id: id.0, actions };
            self.note_repair_planned(door, node, label, by);
        }
        if let Some(report) = ended {
            self.plan_ended(door, origin, &report);
            door.publish(report);
        }
    }

    /// A plan the meta-level submitted left the engine.
    pub(crate) fn plan_ended(
        &mut self,
        door: &mut Door<'_>,
        origin: PlanOrigin,
        report: &ReconfigReport,
    ) {
        match origin {
            PlanOrigin::User | PlanOrigin::Raml => {}
            PlanOrigin::Repair { node, label } => self.repair_plan_ended(door, node, label, report),
            PlanOrigin::Migration { agent } => self.migration_plan_ended(door, agent, report),
        }
    }
}

impl Runtime {
    /// Installs the meta-level's rules and constraints and starts their
    /// periodic evaluation; a second call replaces the first.
    pub fn install_raml(&mut self, raml: Raml) {
        self.meta_call(|meta, door| {
            meta.start(door, Loop::Raml, raml.interval());
            meta.raml = Some(raml);
        });
    }

    /// The installed meta-level rules, if any.
    #[must_use]
    pub fn raml(&self) -> Option<&Raml> {
        self.meta().raml.as_ref()
    }

    /// The adaptation-state-space odometer: every (detector-phase ×
    /// repair-policy × plan-outcome) cell the detect→plan→repair loop has
    /// visited so far. Harnesses clone and merge these across runs to
    /// report coverage of [`crate::coverage::reachable_cells`].
    #[must_use]
    pub fn adaptation_coverage(&self) -> &AdaptationCoverage {
        &self.meta().coverage
    }
}

/// Whether a repair plan for `node` is executing or queued.
fn repair_in_flight(view: View<'_>, node: aas_sim::node::NodeId) -> bool {
    view.in_flight()
        .any(|origin| matches!(origin, PlanOrigin::Repair { node: n, .. } if n == node))
}
