//! The policy mutation engine: deliberately broken adaptation logic run
//! under factory trajectories, with oracles expected to notice.
//!
//! Bartel et al. mutate the *adaptation model* rather than the business
//! logic, because an adaptive system whose repair planner silently drops
//! actions or whose detector never fires still passes every happy-path
//! test. This module ports that idea onto the workspace's detect → plan →
//! repair loop and the `aas-adapt` filter/strategy mechanisms:
//!
//! - [`Mutation`] catalogues eleven named corruptions — detector
//!   thresholds inverted to extremes, repair actions dropped / reordered,
//!   failover targets swapped to the suspect or the hottest node, guard
//!   filters disabled or pattern-inverted, strategy switch rules inverted
//!   or frozen.
//! - [`run_scenario`] replays one compiled [`ScenarioSchedule`] against a
//!   fixed five-node telecom harness with the mutation installed and
//!   evaluates the oracle suite: the runtime's own settled check
//!   ([`Runtime::check_settled`]: repair convergence, suspicion clearance,
//!   audit reconciliation), safe-path exactly-once, a chaos-path
//!   availability floor, detector sanity, and flaky-host avoidance.
//! - [`run_engine`] runs the unmutated baseline (which must be clean on
//!   every seed) plus every mutant over a seed set and reports the
//!   mutation-kill score.
//! - [`coverage_sweep`] drives the same harness unmutated under all four
//!   repair policies and merges `aas-core`'s adaptation-coverage odometer
//!   into a [`CoverageReport`] — how much of the (detector phase × repair
//!   policy × plan outcome) space a test tier actually visits.
//!
//! Everything is a pure function of the seed set: two invocations with
//! the same seeds produce byte-identical reports (see
//! [`EngineReport::fingerprint`]).

use aas_adapt::filters::{FilterMode, FilterPipeline, FilteredComponent, RejectFilter};
use aas_adapt::strategy::{FnStrategy, IntrospectiveSwitcher, StrategyContext};
use aas_core::component::{CallCtx, Component, EchoComponent};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorAspect, ConnectorSpec, RetryPolicy};
use aas_core::coverage::AdaptationCoverage;
use aas_core::detector::DetectorConfig;
use aas_core::heal::{PlanMutation, RepairPolicy};
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_obs::AuditKind;
use aas_sim::fault::FaultKind;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;

use crate::trajectory::{fnv1a, LoadWave, ScenarioSchedule, ScenarioSpec, StormWave};

/// Harness geometry: nodes 0–1 are the safe island (0 is the detector's
/// monitor), node 2 is the storm target, node 4 hosts the furnace.
const NODES: usize = 5;
const MONITOR: NodeId = NodeId(0);
/// The node the oracle scenario's fault storm shakes.
pub(crate) const STORM_NODE: NodeId = NodeId(2);
/// Grace period past the trajectory horizon: plans drain, suspicions clear.
pub(crate) const END: SimTime = SimTime::from_secs(40);
/// Trajectory horizon: traffic and outage onsets all land before this.
const HORIZON: SimTime = SimTime::from_secs(16);
/// Chaos-path delivery floor the availability oracle demands.
const AVAILABILITY_FLOOR: f64 = 0.80;

/// A deliberate, named corruption of adaptation logic — the shaking-table
/// mutant catalogue. Each variant models a plausible implementation bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Detector threshold pushed to `1e9`: suspicion never fires, crashes
    /// go unnoticed, nothing is ever repaired.
    DetectorNeverFires,
    /// Detector threshold pushed to `0.0`: every watched node is suspected
    /// on the first tick and, since φ can never drop below the threshold,
    /// no suspicion is ever cleared.
    DetectorHairTrigger,
    /// Repair policy silently replaced with [`RepairPolicy::None`].
    DisableRepair,
    /// [`PlanMutation::DropActions`]: planning "succeeds" with an empty
    /// plan; suspects are dequeued unrepaired.
    DropRepairActions,
    /// [`PlanMutation::ReverseActions`]: repair actions emitted in reverse
    /// order. The expected survivor — per-component repair actions are
    /// independent, so reordering commutes (see EXPERIMENTS.md E17).
    ReverseRepairActions,
    /// [`PlanMutation::TargetSuspect`]: failover migrates *onto* the
    /// suspected node instead of away from it.
    FailoverToSuspect,
    /// [`PlanMutation::TargetHottest`]: failover targets the busiest live
    /// node (a flipped `min`/`max`), parking the service behind the
    /// furnace node's backlog.
    FailoverToHottest,
    /// The guard filter pipeline is left empty: poison operations reach
    /// the protected component.
    DisableGuardFilter,
    /// The guard filter's reject pattern is inverted: legitimate traffic
    /// is absorbed, poison passes.
    InvertFilterPattern,
    /// The introspective switcher's rules are swapped: high load selects
    /// the high-quality strategy and vice versa.
    InvertSwitchRules,
    /// The switcher has no rules at all: the initial strategy stays active
    /// regardless of load.
    SwitcherStuck,
}

/// Which sub-harness a mutation corrupts (and which oracles can kill it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MutationKind {
    /// The runtime storm harness (detector / repair planning).
    Runtime,
    /// The composition-filter guard harness.
    Filter,
    /// The strategy-switcher harness.
    Strategy,
}

impl Mutation {
    /// Every mutation, in stable report order.
    pub const ALL: [Mutation; 11] = [
        Mutation::DetectorNeverFires,
        Mutation::DetectorHairTrigger,
        Mutation::DisableRepair,
        Mutation::DropRepairActions,
        Mutation::ReverseRepairActions,
        Mutation::FailoverToSuspect,
        Mutation::FailoverToHottest,
        Mutation::DisableGuardFilter,
        Mutation::InvertFilterPattern,
        Mutation::InvertSwitchRules,
        Mutation::SwitcherStuck,
    ];

    /// Short stable label (report tables, fingerprints, BENCH artifacts).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mutation::DetectorNeverFires => "detector-never-fires",
            Mutation::DetectorHairTrigger => "detector-hair-trigger",
            Mutation::DisableRepair => "disable-repair",
            Mutation::DropRepairActions => "drop-repair-actions",
            Mutation::ReverseRepairActions => "reverse-repair-actions",
            Mutation::FailoverToSuspect => "failover-to-suspect",
            Mutation::FailoverToHottest => "failover-to-hottest",
            Mutation::DisableGuardFilter => "disable-guard-filter",
            Mutation::InvertFilterPattern => "invert-filter-pattern",
            Mutation::InvertSwitchRules => "invert-switch-rules",
            Mutation::SwitcherStuck => "switcher-stuck",
        }
    }

    /// Whether this mutant is *expected* to survive the oracle suite.
    ///
    /// `ReverseRepairActions` is semantics-preserving for this harness:
    /// every repair plan's actions are per-component and independent, so
    /// executing them in reverse order reaches the same configuration.
    /// An oracle that killed it would be overfitted to action order.
    #[must_use]
    pub fn expected_survivor(self) -> bool {
        matches!(self, Mutation::ReverseRepairActions)
    }

    fn kind(self) -> MutationKind {
        match self {
            Mutation::DetectorNeverFires
            | Mutation::DetectorHairTrigger
            | Mutation::DisableRepair
            | Mutation::DropRepairActions
            | Mutation::ReverseRepairActions
            | Mutation::FailoverToSuspect
            | Mutation::FailoverToHottest => MutationKind::Runtime,
            Mutation::DisableGuardFilter | Mutation::InvertFilterPattern => MutationKind::Filter,
            Mutation::InvertSwitchRules | Mutation::SwitcherStuck => MutationKind::Strategy,
        }
    }
}

/// The engine's reference trajectory: diurnal + 4× flash-crowd load with
/// a load-correlated crash storm on the chaos node — faults bunch exactly
/// where the traffic peaks.
#[must_use]
pub fn oracle_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(seed, HORIZON, 2);
    spec.load = LoadWave::flat(40.0)
        .with_diurnal(SimDuration::from_secs(16), 0.6)
        .with_flash_crowd(
            SimTime::from_secs(3),
            SimTime::from_secs(7),
            4.0,
            SimDuration::from_millis(500),
        );
    spec.storms = vec![StormWave::node_crashes(vec![STORM_NODE], 5.0, 2.0).correlated()];
    spec
}

/// The coverage sweep's trajectory: the same load wave, but the storm
/// additionally shakes the empty node 4 so the "suspected node hosts
/// nothing" repair cells become reachable.
#[must_use]
pub fn coverage_spec(seed: u64) -> ScenarioSpec {
    let mut spec = oracle_spec(seed);
    spec.storms = vec![StormWave::node_crashes(
        vec![STORM_NODE, NodeId(4)],
        5.0,
        2.0,
    )];
    spec
}

/// The topology every harness run uses; schedules must be compiled
/// against it so flow counts and storm targets line up.
#[must_use]
pub fn harness_topology() -> Topology {
    Topology::clique(NODES, 2000.0, SimDuration::from_millis(2), 1e7)
}

pub(crate) fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r
}

pub(crate) fn frame(cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([
            ("bytes", Value::Int(400)),
            ("cost", Value::Float(cost)),
            ("quality", Value::Float(1.0)),
        ]),
    )
}

/// Safe pipeline `relay → safesink` on nodes {0, 1}; chaos pipeline
/// `svc → csink` on nodes {2, 3} behind a retrying connector; optional
/// furnace pair on node 4 that the hot-load wave saturates.
pub(crate) fn build_runtime(
    seed: u64,
    policy: RepairPolicy,
    threshold: f64,
    furnace: bool,
) -> Runtime {
    let mut rt = Runtime::new(harness_topology(), seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("relay", ComponentDecl::new("Transcoder", 1, NodeId(0)));
    cfg.component("safesink", ComponentDecl::new("MediaSink", 1, NodeId(1)));
    cfg.component("svc", ComponentDecl::new("Transcoder", 1, NodeId(2)));
    cfg.component("csink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("s_safe").with_aspect(ConnectorAspect::SequenceCheck));
    cfg.connector(
        ConnectorSpec::direct("c_wire")
            .with_retry(RetryPolicy::new(3, SimDuration::from_millis(40))),
    );
    cfg.bind(BindingDecl::new("relay", "out", "s_safe", "safesink", "in"));
    cfg.bind(BindingDecl::new("svc", "out", "c_wire", "csink", "in"));
    if furnace {
        cfg.component("furnace", ComponentDecl::new("Transcoder", 1, NodeId(4)));
        cfg.component("fsink", ComponentDecl::new("MediaSink", 1, NodeId(4)));
        cfg.connector(ConnectorSpec::direct("f_wire"));
        cfg.bind(BindingDecl::new("furnace", "out", "f_wire", "fsink", "in"));
    }
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(policy);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        threshold,
        MONITOR,
    ));
    rt
}

/// Replays the schedule's faults and traffic (even flows → safe path,
/// odd flows → chaos path), optionally stokes the furnace, and runs the
/// universe to the grace deadline. Returns (safe, chaos) frame counts.
pub(crate) fn drive_schedule(
    rt: &mut Runtime,
    schedule: &ScenarioSchedule,
    furnace: bool,
) -> (u64, u64) {
    rt.inject_faults(schedule.faults.clone());
    let (mut safe, mut chaos) = (0u64, 0u64);
    for (at, flow) in &schedule.traffic {
        let delay = SimDuration::from_micros(at.as_micros());
        if flow % 2 == 0 {
            rt.inject_after(delay, "relay", frame(0.05))
                .expect("inject");
            safe += 1;
        } else {
            rt.inject_after(delay, "svc", frame(2.0)).expect("inject");
            chaos += 1;
        }
    }
    if furnace {
        // 100 ms of work arriving every 10 ms: node 4 runs at ~10×
        // capacity for the whole active window, so its backlog reaches
        // far past the grace deadline — the trap the hottest-target
        // mutant walks into.
        let mut t = SimDuration::ZERO;
        while SimTime::ZERO + t < HORIZON {
            rt.inject_after(t, "furnace", frame(200.0)).expect("inject");
            t += SimDuration::from_millis(10);
        }
    }
    rt.run_until(END);
    (safe, chaos)
}

/// The oracle verdict for one `(schedule, mutation)` run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The schedule's master seed.
    pub seed: u64,
    /// The installed mutation (`None` = baseline).
    pub mutation: Option<Mutation>,
    /// Every oracle violation observed; empty means the run looked
    /// healthy. Any violation kills a mutant — and disqualifies a
    /// baseline.
    pub violations: Vec<String>,
    /// Safe-path frames injected (0 for filter/strategy-only runs).
    pub safe_expected: u64,
    /// Safe-path frames the safe sink processed.
    pub safe_delivered: u64,
    /// Chaos-path frames injected.
    pub chaos_expected: u64,
    /// Chaos-path frames the chaos sink processed.
    pub chaos_delivered: u64,
    /// `chaos_delivered / chaos_expected` (1.0 when not applicable).
    pub availability: f64,
    /// Nodes still suspected at the grace deadline.
    pub suspected_at_end: usize,
}

impl ScenarioOutcome {
    /// Whether the oracle suite flagged this run.
    #[must_use]
    pub fn killed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Runs one compiled schedule under one (optional) mutation and applies
/// the oracle suite. The baseline (`mutation: None`) exercises all three
/// sub-harnesses; a mutant exercises only the sub-harness it corrupts —
/// the others are byte-identical to baseline by construction.
#[must_use]
pub fn run_scenario(schedule: &ScenarioSchedule, mutation: Option<Mutation>) -> ScenarioOutcome {
    let mut outcome = ScenarioOutcome {
        seed: schedule.seed,
        mutation,
        violations: Vec::new(),
        safe_expected: 0,
        safe_delivered: 0,
        chaos_expected: 0,
        chaos_delivered: 0,
        availability: 1.0,
        suspected_at_end: 0,
    };
    let kinds: &[MutationKind] = match mutation.map(Mutation::kind) {
        None => &[
            MutationKind::Runtime,
            MutationKind::Filter,
            MutationKind::Strategy,
        ],
        Some(MutationKind::Runtime) => &[MutationKind::Runtime],
        Some(MutationKind::Filter) => &[MutationKind::Filter],
        Some(MutationKind::Strategy) => &[MutationKind::Strategy],
    };
    for kind in kinds {
        match kind {
            MutationKind::Runtime => run_storm_harness(schedule, mutation, &mut outcome),
            MutationKind::Filter => outcome
                .violations
                .extend(filter_violations(schedule, mutation)),
            MutationKind::Strategy => outcome
                .violations
                .extend(strategy_violations(schedule, mutation)),
        }
    }
    outcome
}

/// The runtime storm harness: detector + repair policy under the fault
/// trajectory, with the full oracle suite.
fn run_storm_harness(
    schedule: &ScenarioSchedule,
    mutation: Option<Mutation>,
    outcome: &mut ScenarioOutcome,
) {
    let threshold = match mutation {
        Some(Mutation::DetectorNeverFires) => 1e9,
        Some(Mutation::DetectorHairTrigger) => 0.0,
        _ => 2.0,
    };
    let policy = match mutation {
        Some(Mutation::DisableRepair) => RepairPolicy::None,
        _ => RepairPolicy::FailoverMigrate,
    };
    let reference_policy = matches!(policy, RepairPolicy::FailoverMigrate);
    let mut rt = build_runtime(schedule.seed, policy, threshold, true);
    rt.set_plan_mutation(match mutation {
        Some(Mutation::DropRepairActions) => Some(PlanMutation::DropActions),
        Some(Mutation::ReverseRepairActions) => Some(PlanMutation::ReverseActions),
        Some(Mutation::FailoverToSuspect) => Some(PlanMutation::TargetSuspect),
        Some(Mutation::FailoverToHottest) => Some(PlanMutation::TargetHottest),
        _ => None,
    });
    let (safe_expected, chaos_expected) = drive_schedule(&mut rt, schedule, true);
    outcome.safe_expected = safe_expected;
    outcome.chaos_expected = chaos_expected;
    outcome.suspected_at_end = rt.failure_detector().map_or(0, |d| d.suspected().len());
    let v = &mut outcome.violations;

    // Oracles 1–3 — convergence, suspicion clearance and audit
    // reconciliation: the runtime's own books, once the grace period ends.
    v.extend(rt.check_settled().iter().map(ToString::to_string));

    // Oracle 4 — safe-path exactly-once: nodes 0/1 are never faulted, so
    // the sequenced pipeline must deliver every frame exactly once.
    let snap = rt.observe();
    let relay = snap.component("relay").expect("relay");
    let sink = snap.component("safesink").expect("safesink");
    outcome.safe_delivered = sink.processed;
    if relay.processed != safe_expected || sink.processed != safe_expected {
        v.push(format!(
            "exactly-once: safe path delivered {}/{} (relay {})",
            sink.processed, safe_expected, relay.processed
        ));
    }
    if relay.seq_anomalies != 0 || sink.seq_anomalies != 0 {
        v.push(format!(
            "exactly-once: safe path saw gaps/dups (relay {}, sink {})",
            relay.seq_anomalies, sink.seq_anomalies
        ));
    }

    // Oracle 5 — availability floor: repair must keep the chaos path
    // delivering through the storm.
    let csink = snap.component("csink").expect("csink");
    outcome.chaos_delivered = csink.processed;
    outcome.availability = if chaos_expected == 0 {
        1.0
    } else {
        csink.processed as f64 / chaos_expected as f64
    };
    if chaos_expected > 0 && outcome.availability < AVAILABILITY_FLOOR {
        v.push(format!(
            "availability: chaos path delivered {}/{} = {:.3} < {AVAILABILITY_FLOOR}",
            csink.processed, chaos_expected, outcome.availability
        ));
    }

    // Oracle 6 — detector sanity: an outage of the storm node lasting two
    // or more seconds cannot go unsuspected.
    let suspicions = rt.obs().audit.books().count(AuditKind::FailureSuspected);
    if longest_storm_outage_secs(schedule) >= 2.0 && suspicions == 0 {
        v.push("detector: a ≥2 s crash of the storm node raised no suspicion".to_owned());
    }

    // Oracle 7 — flaky-host avoidance: with failover repair in force, the
    // chaos service must not end the run parked on the storm-target node.
    if reference_policy && rt.node_of("svc") == Some(STORM_NODE) {
        v.push(format!(
            "flaky-host: `svc` ended the run back on storm target {STORM_NODE}"
        ));
    }
}

/// Longest crash→recover window of the storm node in the schedule, in
/// seconds (0.0 when the storm never fired).
fn longest_storm_outage_secs(schedule: &ScenarioSchedule) -> f64 {
    let mut longest = 0.0_f64;
    let mut down_at: Option<SimTime> = None;
    for (at, kind) in schedule.fault_entries() {
        match kind {
            FaultKind::NodeCrash(n) if n == STORM_NODE => down_at = Some(at),
            FaultKind::NodeRecover(n) if n == STORM_NODE => {
                if let Some(from) = down_at.take() {
                    longest = longest.max(at.saturating_since(from).as_micros() as f64 / 1e6);
                }
            }
            _ => {}
        }
    }
    longest
}

/// The composition-filter guard harness: a `RejectFilter` protecting an
/// echo service from poison operations, fed the schedule's traffic
/// instants (every 7th-ish instant poisoned).
fn filter_violations(schedule: &ScenarioSchedule, mutation: Option<Mutation>) -> Vec<String> {
    let mut pipeline = FilterPipeline::new(FilterMode::Runtime);
    match mutation {
        Some(Mutation::DisableGuardFilter) => {}
        Some(Mutation::InvertFilterPattern) => pipeline
            .attach(Box::new(RejectFilter::new(["echo"])))
            .expect("runtime pipeline accepts filters"),
        _ => pipeline
            .attach(Box::new(RejectFilter::new(["poison_*"])))
            .expect("runtime pipeline accepts filters"),
    }
    let mut guard = FilteredComponent::new(Box::new(EchoComponent::default()), pipeline);
    let (mut poison, mut legit, mut replies, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for (i, (at, _)) in schedule.traffic.iter().enumerate() {
        let mut ctx = CallCtx::new(*at, "guard");
        let msg = if i % 7 == 3 {
            poison += 1;
            Message::request("poison_flood", Value::Int(i as i64))
        } else {
            legit += 1;
            Message::request("echo", Value::Int(i as i64))
        };
        if guard.on_message(&mut ctx, msg).is_err() {
            errors += 1;
        }
        replies += ctx.into_effects().len() as u64;
    }
    let mut v = Vec::new();
    if poison == 0 || legit == 0 {
        v.push("guard: trajectory produced no traffic to filter".to_owned());
        return v;
    }
    if guard.absorbed() != poison {
        v.push(format!(
            "guard: filter absorbed {}/{} poison operations",
            guard.absorbed(),
            poison
        ));
    }
    if replies != legit {
        v.push(format!(
            "guard: {replies}/{legit} legitimate requests were answered"
        ));
    }
    if errors != 0 {
        v.push(format!(
            "guard: {errors} poison operations reached the protected component"
        ));
    }
    v
}

/// The strategy-switcher harness: an introspective switcher driving an
/// hq/lq strategy pair along the schedule's normalized load curve.
fn strategy_violations(schedule: &ScenarioSchedule, mutation: Option<Mutation>) -> Vec<String> {
    let mut ctx: StrategyContext<f64, f64> = StrategyContext::new();
    ctx.register(Box::new(FnStrategy::new("hq", |bw: &f64| bw * 0.9)));
    ctx.register(Box::new(FnStrategy::new("lq", |bw: &f64| bw * 0.4)));
    let mut switcher = IntrospectiveSwitcher::new();
    match mutation {
        Some(Mutation::InvertSwitchRules) => {
            switcher.rule("hq", |l| l > 0.75);
            switcher.rule("lq", |l| l < 0.35);
        }
        Some(Mutation::SwitcherStuck) => {}
        _ => {
            switcher.rule("lq", |l| l > 0.75);
            switcher.rule("hq", |l| l < 0.35);
        }
    }
    let mut v = Vec::new();
    let (mut high, mut low) = (0u64, 0u64);
    for (at, level) in &schedule.load_curve {
        switcher.observe(*level, &mut ctx);
        if *level > 0.9 {
            high += 1;
            if ctx.active() != Some("lq") {
                v.push(format!(
                    "strategy: load {level:.2} at {at} but {:?} active (want lq)",
                    ctx.active()
                ));
            }
        } else if *level < 0.2 {
            low += 1;
            if ctx.active() != Some("hq") {
                v.push(format!(
                    "strategy: load {level:.2} at {at} but {:?} active (want hq)",
                    ctx.active()
                ));
            }
        }
    }
    if high == 0 || low == 0 {
        v.push(format!(
            "strategy: load curve never exercised both extremes (high {high}, low {low})"
        ));
    }
    v
}

/// The engine's verdict on one mutant across every seed.
#[derive(Debug, Clone)]
pub struct MutantVerdict {
    /// The mutant.
    pub mutation: Mutation,
    /// Whether any seed's oracle suite flagged it.
    pub killed: bool,
    /// Every violation across every seed, prefixed with the seed.
    pub violations: Vec<String>,
}

/// The mutation engine's full report: baseline health plus a verdict per
/// mutant. Byte-identical per seed set.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The seeds the engine ran.
    pub seeds: Vec<u64>,
    /// Baseline (unmutated) outcomes, one per seed — all must be clean.
    pub baseline: Vec<ScenarioOutcome>,
    /// One verdict per [`Mutation::ALL`] entry, in that order.
    pub verdicts: Vec<MutantVerdict>,
}

impl EngineReport {
    /// Whether the unmutated harness passed every oracle on every seed.
    #[must_use]
    pub fn baseline_clean(&self) -> bool {
        self.baseline.iter().all(|o| !o.killed())
    }

    /// Mutants flagged by at least one seed.
    #[must_use]
    pub fn killed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.killed).count()
    }

    /// Total mutants run.
    #[must_use]
    pub fn total(&self) -> usize {
        self.verdicts.len()
    }

    /// `killed / total`.
    #[must_use]
    pub fn kill_rate(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        self.killed() as f64 / self.total() as f64
    }

    /// The surviving mutants (each must be individually justified).
    #[must_use]
    pub fn survivors(&self) -> Vec<Mutation> {
        self.verdicts
            .iter()
            .filter(|v| !v.killed)
            .map(|v| v.mutation)
            .collect()
    }

    /// Deterministic rendering of everything the report claims — byte-
    /// equal across replays of the same seed set.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for o in &self.baseline {
            let _ = write!(
                out,
                "B{}:{}/{}:{}/{}:s{};",
                o.seed,
                o.safe_delivered,
                o.safe_expected,
                o.chaos_delivered,
                o.chaos_expected,
                o.suspected_at_end
            );
        }
        for v in &self.verdicts {
            let _ = write!(
                out,
                "M{}={}:{};",
                v.mutation.label(),
                u8::from(v.killed),
                v.violations.len()
            );
        }
        out
    }

    /// FNV-1a hash of [`EngineReport::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// Runs the full mutation engine: compiles the oracle trajectory for each
/// seed, runs the baseline (which must be clean for the kill score to
/// mean anything — check [`EngineReport::baseline_clean`]), then runs
/// every mutant in [`Mutation::ALL`] over every seed.
#[must_use]
pub fn run_engine(seeds: &[u64]) -> EngineReport {
    let topo = harness_topology();
    let schedules: Vec<ScenarioSchedule> =
        seeds.iter().map(|&s| oracle_spec(s).build(&topo)).collect();
    let baseline: Vec<ScenarioOutcome> = schedules.iter().map(|s| run_scenario(s, None)).collect();
    let verdicts = Mutation::ALL
        .iter()
        .map(|&m| {
            let mut violations = Vec::new();
            for schedule in &schedules {
                let outcome = run_scenario(schedule, Some(m));
                violations.extend(
                    outcome
                        .violations
                        .into_iter()
                        .map(|v| format!("seed {}: {v}", schedule.seed)),
                );
            }
            MutantVerdict {
                mutation: m,
                killed: !violations.is_empty(),
                violations,
            }
        })
        .collect();
    EngineReport {
        seeds: seeds.to_vec(),
        baseline,
        verdicts,
    }
}

/// Adaptation-state-space coverage after a sweep of unmutated runs.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Reachable cells visited at least once.
    pub visited: usize,
    /// Size of the reachable-cell model.
    pub reachable: usize,
    /// `visited / reachable`, in `[0, 1]`.
    pub percent: f64,
    /// Full export rows (`aas_obs::export::coverage_jsonl` shape): every
    /// reachable cell with its merged visit count, zero rows included.
    pub rows: Vec<(String, u64, bool)>,
}

impl CoverageReport {
    /// The rows as JSONL, one `coverage_cell` object per line.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        aas_obs::export::coverage_jsonl(&self.rows)
    }

    /// Deterministic rendering of the rows.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (cell, count, reachable) in &self.rows {
            let _ = write!(out, "{cell}={count}:{};", u8::from(*reachable));
        }
        out
    }

    /// FNV-1a hash of [`CoverageReport::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// Drives the storm harness unmutated under all four repair policies for
/// every seed (coverage trajectory: storms on the chaos node *and* the
/// empty node) and merges the runtime's adaptation-coverage odometer.
#[must_use]
pub fn coverage_sweep(seeds: &[u64]) -> CoverageReport {
    report_from(coverage_sweep_odometer(seeds))
}

/// Renders a merged odometer as a [`CoverageReport`].
#[must_use]
pub fn report_from(merged: AdaptationCoverage) -> CoverageReport {
    let rows = merged.export_rows();
    let reachable = aas_core::coverage::reachable_cells().len();
    let visited = rows
        .iter()
        .filter(|(_, count, reachable)| *reachable && *count > 0)
        .count();
    CoverageReport {
        visited,
        reachable,
        percent: merged.percent_of_reachable(),
        rows,
    }
}

/// The raw merged odometer behind [`coverage_sweep`], so other tiers
/// (e.g. the negotiation sweep) can fold their own cells in before
/// rendering a combined report.
#[must_use]
pub fn coverage_sweep_odometer(seeds: &[u64]) -> AdaptationCoverage {
    let topo = harness_topology();
    let mut merged = AdaptationCoverage::new();
    for &seed in seeds {
        let schedule = coverage_spec(seed).build(&topo);
        let policies = [
            RepairPolicy::None,
            RepairPolicy::RestartInPlace,
            RepairPolicy::FailoverMigrate,
            RepairPolicy::DegradeToBackup {
                connector: "c_wire".to_owned(),
                backup: Box::new(ConnectorSpec::direct("c_wire")),
            },
        ];
        for policy in policies {
            let mut rt = build_runtime(seed, policy, 2.0, false);
            drive_schedule(&mut rt, &schedule, false);
            merged.merge(rt.adaptation_coverage());
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_labels_are_distinct_and_stable() {
        let mut labels: Vec<&str> = Mutation::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Mutation::ALL.len());
        assert_eq!(
            Mutation::ALL
                .iter()
                .filter(|m| m.expected_survivor())
                .count(),
            1,
            "exactly one expected survivor"
        );
    }

    #[test]
    fn filter_oracles_kill_both_filter_mutants_and_pass_baseline() {
        let schedule = oracle_spec(11).build(&harness_topology());
        assert!(filter_violations(&schedule, None).is_empty());
        assert!(!filter_violations(&schedule, Some(Mutation::DisableGuardFilter)).is_empty());
        assert!(!filter_violations(&schedule, Some(Mutation::InvertFilterPattern)).is_empty());
    }

    #[test]
    fn strategy_oracles_kill_both_switch_mutants_and_pass_baseline() {
        let schedule = oracle_spec(11).build(&harness_topology());
        assert!(strategy_violations(&schedule, None).is_empty());
        assert!(!strategy_violations(&schedule, Some(Mutation::InvertSwitchRules)).is_empty());
        assert!(!strategy_violations(&schedule, Some(Mutation::SwitcherStuck)).is_empty());
    }

    #[test]
    fn baseline_storm_run_is_clean_on_a_reference_seed() {
        let schedule = oracle_spec(11).build(&harness_topology());
        let outcome = run_scenario(&schedule, None);
        assert!(
            outcome.violations.is_empty(),
            "baseline violations: {:?}",
            outcome.violations
        );
        assert!(outcome.availability >= AVAILABILITY_FLOOR);
    }
}
