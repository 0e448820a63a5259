//! The E20 graceful-degradation harness: a 10× overload trajectory run
//! differentially — independent per-agent control loops versus the GORNA
//! negotiation control plane — plus the negotiator's own mutation tier.
//!
//! The question E20 answers is the one the paper's prospective vision
//! poses for resource negotiation: when offered load is an order of
//! magnitude past sustainable capacity, does a *coordinated* budget
//! arbitration degrade the system gracefully where *uncoordinated*
//! reactive loops collapse? The harness measures it:
//!
//! - **goodput** — frames that cleared the saturated stage within the
//!   [`DEADLINE_MS`] latency deadline. Raw throughput is the wrong
//!   metric under overload: a work-conserving queue delivers at capacity
//!   no matter how badly admission is managed; what collapses is the
//!   fraction delivered *while still useful*.
//! - **availability** — deadline-met fraction of admitted frames. The
//!   independent baseline admits far beyond capacity, builds a standing
//!   backlog it can never drain, and its availability collapses; the
//!   negotiator sheds to the granted budget and stays responsive.
//! - **fairness** — Jain's index over granted fractions must stay above
//!   [`JAIN_FLOOR`] while still respecting the gold class's priority.
//!
//! The same harness drives the negotiator mutation tier: three deliberate
//! corruptions of arbitration ([`NegotiatorMutation`]) run under the same
//! overload, with oracles — grants within budget, floor-or-audited-deny,
//! no false denial of the priority class, situational-model freshness —
//! that must kill every one of them while passing the honest coordinator.

use aas_control::negotiate::{
    NegotiationOutcome, NegotiatorMutation, ObjectiveVector, ResourceVector, UtilityCurve,
};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::coverage::AdaptationCoverage;
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::runtime::{AgentProfile, CoordinationMode, NegotiateConfig, Runtime};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

use crate::mutation::{frame, registry, report_from, CoverageReport};
use crate::trajectory::{fnv1a, LoadWave, ScenarioSchedule, ScenarioSpec, StormWave};

/// Node hosting both contending transcoders — the saturated stage.
const HOST: NodeId = NodeId(1);
/// Trajectory horizon: the overload runs for this long.
const HORIZON: SimTime = SimTime::from_secs(4);
/// Run deadline: half a second of grace past the horizon.
const END: SimTime = SimTime::from_micros(4_500_000);
/// The negotiation period.
const INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Latency deadline a frame must meet at the saturated stage to count as
/// goodput (milliseconds).
pub const DEADLINE_MS: f64 = 250.0;
/// Offered load in frames/second across both classes — ≈10× the host
/// node's ~1000 frames/s service rate at [`FRAME_COST`].
const OFFERED_RATE: f64 = 10_000.0;
/// Work units per injected frame.
const FRAME_COST: f64 = 2.0;
/// The coordinator's global admission budget (frames/second).
const BUDGET_RATE: f64 = 1000.0;
/// Gold declares this fraction of demand as its floor.
const GOLD_FLOOR: f64 = 0.10;
/// Silver declares this fraction of demand as its floor.
const SILVER_FLOOR: f64 = 0.08;
/// Negotiated availability must stay at or above this.
pub const NEGOTIATED_AVAILABILITY_FLOOR: f64 = 0.70;
/// The independent baseline collapses below this under 10× overload.
pub const COLLAPSE_CEILING: f64 = 0.50;
/// Jain fairness floor over negotiated grant fractions.
pub const JAIN_FLOOR: f64 = 0.8;

/// The E20 reference trajectory: flat 10× overload, no faults — pure
/// resource pressure, so the differential isolates admission control.
#[must_use]
pub fn overload_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(seed, HORIZON, 2);
    spec.load = LoadWave::flat(OFFERED_RATE);
    spec
}

/// The coverage variant: the same overload with a crash storm on the
/// saturated host, so repairs commit *while grants are outstanding* —
/// the heal/negotiate interop cells become reachable.
#[must_use]
pub fn overload_storm_spec(seed: u64) -> ScenarioSpec {
    let mut spec = overload_spec(seed);
    spec.storms = vec![StormWave::node_crashes(vec![HOST], 2.5, 1.0)];
    spec
}

/// The harness topology: injection/monitor node 0, saturated host 1,
/// sink nodes 2–3.
#[must_use]
pub fn overload_topology() -> Topology {
    Topology::clique(4, 2000.0, SimDuration::from_millis(1), 1e7)
}

/// Host-utilization threshold above which a starved agent files a
/// migration plan (the default E20 setting; the storm-coverage sweep
/// disables migration so agents stay on the host until it crashes).
pub const MIGRATE_ABOVE: f64 = 0.9;

/// Builds the differential runtime: `gold` and `silver` transcoders
/// contending on node `HOST`, exempt sinks downstream, failure detection and
/// failover repair on, and the negotiation control plane in `mode` (with
/// an optional injected negotiator mutation). `migrate_above` is the
/// host-utilization threshold for negotiated migration — pass a value
/// above 1.0 to disable migration entirely.
#[must_use]
pub fn build_overload_runtime(
    seed: u64,
    mode: CoordinationMode,
    mutation: Option<NegotiatorMutation>,
    migrate_above: f64,
) -> Runtime {
    let mut rt = Runtime::new(overload_topology(), seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("gold", ComponentDecl::new("Transcoder", 1, HOST));
    cfg.component("silver", ComponentDecl::new("Transcoder", 1, HOST));
    cfg.component("gsink", ComponentDecl::new("MediaSink", 1, NodeId(2)));
    cfg.component("ssink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("g_wire"));
    cfg.connector(ConnectorSpec::direct("s_wire"));
    cfg.bind(BindingDecl::new("gold", "out", "g_wire", "gsink", "in"));
    cfg.bind(BindingDecl::new("silver", "out", "s_wire", "ssink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    rt.set_agent_profile(
        "gold",
        AgentProfile {
            priority: 3,
            objectives: ObjectiveVector {
                latency: 2.0,
                availability: 2.0,
                cost: 0.5,
            },
            curve: UtilityCurve::Diminishing { knee: 0.5 },
            floor_fraction: GOLD_FLOOR,
            exempt: false,
        },
    );
    rt.set_agent_profile(
        "silver",
        AgentProfile {
            priority: 1,
            floor_fraction: SILVER_FLOOR,
            ..AgentProfile::default()
        },
    );
    for sink in ["gsink", "ssink"] {
        rt.set_agent_profile(
            sink,
            AgentProfile {
                exempt: true,
                ..AgentProfile::default()
            },
        );
    }
    rt.enable_negotiation(NegotiateConfig {
        interval: INTERVAL,
        budget: ResourceVector {
            capacity: 4.0,
            work_rate: BUDGET_RATE,
            retry_budget: 64.0,
            twin_horizon: 4.0,
        },
        mode,
        nominal_cost: FRAME_COST,
        floor_fraction: 0.05,
        migrate_above,
    });
    rt.set_negotiator_mutation(mutation);
    rt
}

/// Injects the schedule's traffic (even flows → gold, odd → silver) plus
/// its faults and runs to the grace deadline. Returns per-class offered
/// counts.
pub fn drive_overload(rt: &mut Runtime, schedule: &ScenarioSchedule) -> (u64, u64) {
    fold_overload(rt, schedule, |_| {})
}

/// [`drive_overload`], handing `round` each arbitration outcome as its
/// round ends: the runtime keeps only the last outcome, so a reader of
/// every round folds them here. The run advances one negotiation period
/// at a time; `run_until` steps the same events either way.
pub fn fold_overload(
    rt: &mut Runtime,
    schedule: &ScenarioSchedule,
    mut round: impl FnMut(&NegotiationOutcome),
) -> (u64, u64) {
    rt.inject_faults(schedule.faults.clone());
    let (mut gold, mut silver) = (0u64, 0u64);
    for (at, flow) in &schedule.traffic {
        let delay = SimDuration::from_micros(at.as_micros());
        if flow % 2 == 0 {
            rt.inject_after(delay, "gold", frame(FRAME_COST))
                .expect("inject");
            gold += 1;
        } else {
            rt.inject_after(delay, "silver", frame(FRAME_COST))
                .expect("inject");
            silver += 1;
        }
    }
    let (mut at, mut rounds) = (rt.now(), rt.negotiation_rounds());
    while at < END {
        at = (at + INTERVAL).min(END);
        rt.run_until(at);
        let ended = rt.negotiation_rounds();
        assert!(ended <= rounds + 1, "two rounds in one period");
        if let Some(outcome) = rt.negotiation_outcome().filter(|_| ended > rounds) {
            round(outcome);
        }
        rounds = ended;
    }
    (gold, silver)
}

/// One mode's degradation measurements under the overload trajectory.
#[derive(Debug, Clone)]
pub struct DegradationRun {
    /// The schedule's master seed.
    pub seed: u64,
    /// `"independent"` or `"negotiated"`.
    pub mode: &'static str,
    /// Frames offered to gold / silver.
    pub offered_gold: u64,
    /// Frames offered to silver.
    pub offered_silver: u64,
    /// Frames the saturated stage actually processed per class (admitted
    /// and completed by the deadline of the run).
    pub admitted_gold: u64,
    /// Silver frames processed at the saturated stage.
    pub admitted_silver: u64,
    /// Admitted frames that met [`DEADLINE_MS`] per class.
    pub goodput_gold: u64,
    /// Silver frames that met the deadline.
    pub goodput_silver: u64,
    /// Frames the sinks received end-to-end.
    pub delivered_sinks: u64,
    /// Frames the admission gate shed.
    pub shed: u64,
    /// Negotiation rounds completed.
    pub rounds: u64,
    /// p99 latency at the gold stage (ms).
    pub p99_gold_ms: f64,
    /// p99 latency at the silver stage (ms).
    pub p99_silver_ms: f64,
    /// Fairness: Jain over the final round's grant fractions
    /// (negotiated), or over per-class admission ratios (independent).
    pub jain: f64,
    /// Fingerprint of the final arbitration outcome (0 when independent).
    pub outcome_fingerprint: u64,
}

impl DegradationRun {
    /// Total deadline-met frames.
    #[must_use]
    pub fn goodput(&self) -> u64 {
        self.goodput_gold + self.goodput_silver
    }

    /// Deadline-met fraction of admitted frames — the availability the
    /// collapse oracle watches. 1.0 when nothing was admitted.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let admitted = self.admitted_gold + self.admitted_silver;
        if admitted == 0 {
            return 1.0;
        }
        self.goodput() as f64 / admitted as f64
    }

    /// Deterministic rendering of every measurement.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "seed={} mode={} offered={}/{} admitted={}/{} goodput={}/{} sinks={} shed={} \
             rounds={} p99={:.3}/{:.3} jain={:.6} outcome={:#018x}",
            self.seed,
            self.mode,
            self.offered_gold,
            self.offered_silver,
            self.admitted_gold,
            self.admitted_silver,
            self.goodput_gold,
            self.goodput_silver,
            self.delivered_sinks,
            self.shed,
            self.rounds,
            self.p99_gold_ms,
            self.p99_silver_ms,
            self.jain,
            self.outcome_fingerprint,
        )
    }

    /// FNV-1a hash of [`DegradationRun::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// Runs the overload trajectory once in `mode` and measures degradation;
/// `migrate_above` as in [`build_overload_runtime`].
#[must_use]
pub fn run_degradation(seed: u64, mode: CoordinationMode, migrate_above: f64) -> DegradationRun {
    let schedule = overload_spec(seed).build(&overload_topology());
    let mut rt = build_overload_runtime(seed, mode, None, migrate_above);
    let (offered_gold, offered_silver) = drive_overload(&mut rt, &schedule);
    measure(&rt, seed, mode, offered_gold, offered_silver)
}

fn measure(
    rt: &Runtime,
    seed: u64,
    mode: CoordinationMode,
    offered_gold: u64,
    offered_silver: u64,
) -> DegradationRun {
    let h_gold = rt
        .obs()
        .metrics
        .histogram("comp.gold.latency_ms")
        .snapshot();
    let h_silver = rt
        .obs()
        .metrics
        .histogram("comp.silver.latency_ms")
        .snapshot();
    let goodput_of =
        |h: &aas_obs::Histogram| (h.count() as f64 * h.fraction_below(DEADLINE_MS)).round() as u64;
    let snap = rt.observe();
    let sinks = ["gsink", "ssink"]
        .iter()
        .filter_map(|s| snap.component(s))
        .map(|c| c.processed)
        .sum();
    let jain = match mode {
        CoordinationMode::Negotiated => rt.negotiation_outcome().map_or(
            1.0,
            aas_control::negotiate::NegotiationOutcome::jain_fairness,
        ),
        CoordinationMode::Independent => {
            // Admission-ratio fairness: what fraction of each class's
            // offered frames the reactive gates let through.
            let fracs: Vec<f64> = [
                (h_gold.count(), offered_gold),
                (h_silver.count(), offered_silver),
            ]
            .iter()
            .filter(|(_, off)| *off > 0)
            .map(|(adm, off)| *adm as f64 / *off as f64)
            .collect();
            let n = fracs.len() as f64;
            let sum: f64 = fracs.iter().sum();
            let sq: f64 = fracs.iter().map(|x| x * x).sum();
            if sq <= 0.0 {
                1.0
            } else {
                (sum * sum) / (n * sq)
            }
        }
    };
    DegradationRun {
        seed,
        mode: match mode {
            CoordinationMode::Negotiated => "negotiated",
            CoordinationMode::Independent => "independent",
        },
        offered_gold,
        offered_silver,
        admitted_gold: h_gold.count(),
        admitted_silver: h_silver.count(),
        goodput_gold: goodput_of(&h_gold),
        goodput_silver: goodput_of(&h_silver),
        delivered_sinks: sinks,
        shed: rt.shed_total(),
        rounds: rt.negotiation_rounds(),
        p99_gold_ms: h_gold.p99(),
        p99_silver_ms: h_silver.p99(),
        jain,
        outcome_fingerprint: rt.negotiation_outcome().map_or(0, |o| o.fingerprint()),
    }
}

/// Both modes over the same trajectory — the E20 degradation frontier
/// point for one seed.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    /// The uncoordinated baseline.
    pub baseline: DegradationRun,
    /// The GORNA-coordinated run.
    pub negotiated: DegradationRun,
}

impl DifferentialReport {
    /// The E20 acceptance predicate: the negotiator strictly dominates —
    /// higher deadline goodput AND no availability collapse (while the
    /// baseline does collapse) AND fair grants.
    #[must_use]
    pub fn negotiated_dominates(&self) -> bool {
        self.negotiated.goodput() > self.baseline.goodput()
            && self.negotiated.availability() >= NEGOTIATED_AVAILABILITY_FLOOR
            && self.baseline.availability() < COLLAPSE_CEILING
            && self.negotiated.jain >= JAIN_FLOOR
    }

    /// Deterministic rendering of both runs.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}",
            self.baseline.fingerprint(),
            self.negotiated.fingerprint()
        )
    }

    /// FNV-1a hash of [`DifferentialReport::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// Runs the full differential for one seed.
#[must_use]
pub fn run_differential(seed: u64) -> DifferentialReport {
    DifferentialReport {
        baseline: run_degradation(seed, CoordinationMode::Independent, MIGRATE_ABOVE),
        negotiated: run_degradation(seed, CoordinationMode::Negotiated, MIGRATE_ABOVE),
    }
}

/// The oracle suite for one negotiated overload run (optionally mutated):
/// every violation found, empty for a healthy coordinator.
///
/// - **budget** — the runtime's own books ([`Runtime::check_invariants`]):
///   no arbitration round grants past the global budget, every grant and
///   denial is audited, and the plan and repair records reconcile;
/// - **floor-or-deny** — a granted agent's work-rate share never lands
///   below its configured floor fraction of the demand the coordinator
///   recorded (a shortfall must surface as an audited denial instead);
/// - **no systematic false denial** — the gold class's floor fits within
///   the budget at the true offered rate, so gold denial must stay rare.
///   (A completed migration re-delivers the drained backlog through the
///   admission gate, so an isolated post-migration round can legitimately
///   observe a demand spike whose floor overflows the budget; a
///   coordinator that denies gold in more than a tenth of its rounds is
///   broken, e.g. the request-inflation mutant.);
/// - **freshness** — the situational-model fingerprint must change across
///   rounds (it timestamps every observation; a frozen model is the
///   stale-arbitration bug).
#[must_use]
pub fn negotiation_violations(seed: u64, mutation: Option<NegotiatorMutation>) -> Vec<String> {
    let schedule = overload_spec(seed).build(&overload_topology());
    let mut rt =
        build_overload_runtime(seed, CoordinationMode::Negotiated, mutation, MIGRATE_ABOVE);
    let floor_of = |agent: &str| match agent {
        "gold" => GOLD_FLOOR,
        "silver" => SILVER_FLOOR,
        _ => 0.0,
    };
    let (mut rounds, mut gold_denied, mut floors) = (0, 0, Vec::new());
    let (mut first_model, mut frozen) = (None, true);
    fold_overload(&mut rt, &schedule, |outcome| {
        rounds += 1;
        for g in &outcome.grants {
            let floor = floor_of(&g.agent) * g.demand.work_rate;
            if g.granted.work_rate + 1e-6 < floor {
                floors.push(format!(
                    "floor: epoch {} granted `{}` {:.3} f/s, below its floor {:.3}",
                    outcome.epoch, g.agent, g.granted.work_rate, floor
                ));
            }
        }
        if outcome.denied.iter().any(|(agent, _)| agent == "gold") {
            gold_denied += 1;
        }
        let first = *first_model.get_or_insert(outcome.model_fingerprint);
        frozen &= outcome.model_fingerprint == first;
    });
    if rounds < 3 {
        return vec![format!("rounds: only {rounds} arbitration rounds ran")];
    }
    let mut v = Vec::new();
    v.extend(rt.check_invariants().iter().map(ToString::to_string));
    v.extend(floors);
    if gold_denied * 10 > rounds {
        v.push(format!(
            "false-denial: the priority class was denied in {gold_denied}/{rounds} rounds"
        ));
    }
    if let Some(first_model) = first_model.filter(|_| frozen) {
        v.push(format!(
            "freshness: situational model frozen at {first_model:#018x} across {rounds} rounds"
        ));
    }
    v
}

/// One negotiator mutant's verdict across a seed set.
#[derive(Debug, Clone)]
pub struct NegotiationMutantVerdict {
    /// The mutant.
    pub mutation: NegotiatorMutation,
    /// Whether any seed's oracles flagged it.
    pub killed: bool,
    /// Every violation, prefixed with its seed.
    pub violations: Vec<String>,
}

/// The negotiation mutation tier's report.
#[derive(Debug, Clone)]
pub struct NegotiationMutationReport {
    /// The seeds the tier ran.
    pub seeds: Vec<u64>,
    /// Violations of the *unmutated* coordinator per seed — all must be
    /// empty for the kill score to mean anything.
    pub baseline_violations: Vec<String>,
    /// One verdict per [`NegotiatorMutation::ALL`] entry, in order.
    pub verdicts: Vec<NegotiationMutantVerdict>,
}

impl NegotiationMutationReport {
    /// Whether the honest coordinator passed every oracle on every seed.
    #[must_use]
    pub fn baseline_clean(&self) -> bool {
        self.baseline_violations.is_empty()
    }

    /// Mutants killed.
    #[must_use]
    pub fn killed(&self) -> usize {
        self.verdicts.iter().filter(|v| v.killed).count()
    }

    /// `killed / total`.
    #[must_use]
    pub fn kill_rate(&self) -> f64 {
        if self.verdicts.is_empty() {
            return 0.0;
        }
        self.killed() as f64 / self.verdicts.len() as f64
    }

    /// Deterministic rendering, byte-equal across replays.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "base={};", self.baseline_violations.len());
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

    /// FNV-1a hash of [`NegotiationMutationReport::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// Runs the negotiation mutation tier: honest baseline per seed, then
/// every [`NegotiatorMutation`] per seed.
#[must_use]
pub fn run_negotiation_mutants(seeds: &[u64]) -> NegotiationMutationReport {
    let baseline_violations = seeds
        .iter()
        .flat_map(|&s| {
            negotiation_violations(s, None)
                .into_iter()
                .map(move |v| format!("seed {s}: {v}"))
        })
        .collect();
    let verdicts = NegotiatorMutation::ALL
        .iter()
        .map(|&m| {
            let violations: Vec<String> = seeds
                .iter()
                .flat_map(|&s| {
                    negotiation_violations(s, Some(m))
                        .into_iter()
                        .map(move |v| format!("seed {s}: {v}"))
                })
                .collect();
            NegotiationMutantVerdict {
                mutation: m,
                killed: !violations.is_empty(),
                violations,
            }
        })
        .collect();
    NegotiationMutationReport {
        seeds: seeds.to_vec(),
        baseline_violations,
        verdicts,
    }
}

/// The negotiation tier's adaptation-coverage odometer: the overload run
/// (steady-phase negotiate cells, including the migration plan path) plus
/// the storm variant (arbitration under suspicion, grant invalidation on
/// repair commit), merged across seeds.
#[must_use]
pub fn negotiation_coverage_odometer(seeds: &[u64]) -> AdaptationCoverage {
    let topo = overload_topology();
    let mut merged = AdaptationCoverage::new();
    for &seed in seeds {
        // The pure-overload run reaches the steady-phase cells, including
        // the negotiated-migration plan path.
        let mut rt =
            build_overload_runtime(seed, CoordinationMode::Negotiated, None, MIGRATE_ABOVE);
        drive_overload(&mut rt, &overload_spec(seed).build(&topo));
        merged.merge(rt.adaptation_coverage());
        // The storm run disables negotiated migration so the agents are
        // still on the host when it crashes: arbitration under suspicion
        // and grant invalidation on repair commit become reachable.
        let mut rt = build_overload_runtime(seed, CoordinationMode::Negotiated, None, 2.0);
        drive_overload(&mut rt, &overload_storm_spec(seed).build(&topo));
        merged.merge(rt.adaptation_coverage());
    }
    merged
}

/// [`negotiation_coverage_odometer`] rendered as a report.
#[must_use]
pub fn negotiation_coverage(seeds: &[u64]) -> CoverageReport {
    report_from(negotiation_coverage_odometer(seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_spec_is_ten_times_capacity() {
        let schedule = overload_spec(7).build(&overload_topology());
        let offered = schedule.traffic.len() as f64 / HORIZON.as_micros() as f64 * 1e6;
        // Poisson thinning keeps the realized rate near the nominal one.
        assert!(
            (offered - OFFERED_RATE).abs() / OFFERED_RATE < 0.1,
            "offered {offered:.0} f/s should be ~{OFFERED_RATE} f/s"
        );
        assert!(schedule.faults.is_empty());
    }

    #[test]
    fn negotiated_overload_run_grants_within_budget_and_sheds() {
        let run = run_degradation(11, CoordinationMode::Negotiated, MIGRATE_ABOVE);
        assert!(run.rounds > 10, "rounds {}", run.rounds);
        assert!(run.shed > 0, "10× overload must shed");
        assert!(run.jain >= JAIN_FLOOR, "jain {}", run.jain);
        assert!(run.outcome_fingerprint != 0);
    }

    #[test]
    fn independent_mode_runs_without_a_negotiator() {
        let run = run_degradation(11, CoordinationMode::Independent, MIGRATE_ABOVE);
        assert_eq!(run.outcome_fingerprint, 0);
        assert!(run.rounds > 10, "the reactive loops still tick");
        assert!(run.shed > 0, "the reactive gates shed too");
    }
}
