//! GORNA negotiation control plane: property harness, graceful
//! degradation differential, negotiator mutation tier, and heal/negotiate
//! interop (DESIGN.md §2.10, EXPERIMENTS.md E20).
//!
//! Fast tier:
//! - a 128-case seeded property harness over the arbitration core: grants
//!   never exceed the global budget, every agent gets its floor or an
//!   explicit deny (never a silent short), grants never exceed demand,
//!   and arbitration is byte-identical across replays;
//! - full-runtime replay determinism of the negotiation transcript, with
//!   every grant and every deny audited;
//! - kernel-level replay of the E20 overload trajectory byte-identical
//!   across K=1-inline and K=4-threads exec modes;
//! - the E20 differential: at 10× overload the negotiated control plane
//!   strictly dominates independent reactive loops — higher deadline
//!   goodput, no availability collapse, Jain-fair grants;
//! - all three negotiator mutants killed on a clean baseline, and the
//!   five negotiate cells visited in the adaptation-coverage model;
//! - the heal/negotiate ordering regression: a repair plan committing
//!   mid-tick invalidates the repaired agent's outstanding grant
//!   immediately (audited as `budget_renegotiated`), rather than letting
//!   a stale grant throttle the freshly repaired instance.
//!
//! Deep tier (`--ignored`, CI nightly): the property harness at 512
//! cases over a wider seed space, plus the differential and mutation
//! floors over the full E20 seed grid.

use aas_control::negotiate::{
    BudgetRequest, Negotiator, NegotiatorMutation, ObjectiveWeights, ResourceVector, UtilityCurve,
};
use aas_control::situational::SituationalModel;
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::ConnectorSpec;
use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{CoordinationMode, NegotiateConfig, Runtime};
use aas_obs::{AuditEntry, AuditKind};
use aas_scenario::negotiation::{
    build_overload_runtime, fold_overload, negotiation_coverage, overload_spec, overload_topology,
    run_differential, run_negotiation_mutants, COLLAPSE_CEILING, JAIN_FLOOR, MIGRATE_ABOVE,
    NEGOTIATED_AVAILABILITY_FLOOR,
};
use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::services::register_telecom_components;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Satellite 1a: the arbitration property harness.
// ---------------------------------------------------------------------

/// One generated agent: (demand rate, floor percent, priority, curve tag).
type AgentSpec = (u32, u8, u8, u8);

fn curve_of(tag: u8) -> UtilityCurve {
    match tag % 3 {
        0 => UtilityCurve::Linear,
        1 => UtilityCurve::Diminishing { knee: 0.5 },
        _ => UtilityCurve::Step { threshold: 0.3 },
    }
}

fn requests_of(specs: &[AgentSpec]) -> Vec<BudgetRequest> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(rate, floor_pct, priority, curve))| {
            let demand = ResourceVector {
                capacity: 1.0,
                work_rate: f64::from(rate),
                retry_budget: 3.0,
                twin_horizon: 0.0,
            };
            let floor = demand.scaled(f64::from(floor_pct.min(60)) / 100.0);
            BudgetRequest::new(format!("agent-{i:02}"), floor, demand)
                .with_priority(priority % 4)
                .with_curve(curve_of(curve))
        })
        .collect()
}

/// The core property body: budget conservation, floor-or-deny with
/// exhaustive accounting, demand caps, and replay byte-identity.
fn arbitration_props_body(budget_rate: u32, specs: Vec<AgentSpec>) -> Result<(), TestCaseError> {
    let budget = ResourceVector {
        capacity: specs.len() as f64,
        work_rate: f64::from(budget_rate.max(1)),
        retry_budget: 64.0,
        twin_horizon: 4.0,
    };
    let model = SituationalModel::empty(SimTime::from_millis(100));
    let requests = requests_of(&specs);
    let mut negotiator = Negotiator::new(ObjectiveWeights::default(), budget);
    let outcome = negotiator.arbitrate(&model, &requests);

    // P1 — the sum of grants never exceeds the global budget.
    prop_assert!(
        outcome.within_budget(),
        "granted [{}] exceeds budget [{}]",
        outcome.total_granted.render(),
        outcome.budget.render()
    );

    // P2 — every agent is accounted for exactly once: a grant at or above
    // its floor, or an explicit deny. Never both, never neither, never a
    // silent short, never more than it asked for.
    for req in &requests {
        let grant = outcome.grant_for(&req.agent);
        let denied = outcome.denied.iter().any(|(a, _)| a == &req.agent);
        prop_assert!(
            grant.is_some() != denied,
            "`{}` must be granted XOR denied (grant {:?}, denied {})",
            req.agent,
            grant.map(|g| g.granted.render()),
            denied
        );
        if let Some(g) = grant {
            prop_assert!(
                req.floor.fits_within(&g.granted, 1e-6),
                "`{}` silently shorted: floor [{}] vs granted [{}]",
                req.agent,
                req.floor.render(),
                g.granted.render()
            );
            prop_assert!(
                g.granted.fits_within(&req.demand, 1e-6),
                "`{}` over-granted: demand [{}] vs granted [{}]",
                req.agent,
                req.demand.render(),
                g.granted.render()
            );
        }
    }

    // P3 — arbitration is a pure function of (model, requests, epoch): a
    // fresh negotiator replaying the same inputs produces a byte-identical
    // outcome fingerprint.
    let mut replay = Negotiator::new(ObjectiveWeights::default(), budget);
    let again = replay.arbitrate(&model, &requests);
    prop_assert_eq!(
        outcome.fingerprint(),
        again.fingerprint(),
        "arbitration diverged across replays"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    #[test]
    fn arbitration_holds_budget_floor_and_replay_properties(
        budget_rate in 50u32..3_000,
        specs in prop::collection::vec((0u32..3_000, 0u8..60, 0u8..4, 0u8..3), 1..6),
    ) {
        arbitration_props_body(budget_rate, specs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    #[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
    fn deep_arbitration_holds_budget_floor_and_replay_properties(
        budget_rate in 1u32..100_000,
        specs in prop::collection::vec((0u32..100_000, 0u8..60, 0u8..4, 0u8..3), 1..9),
    ) {
        arbitration_props_body(budget_rate, specs)?;
    }
}

// ---------------------------------------------------------------------
// Satellite 1b: full-runtime transcript determinism + audited outcomes.
// ---------------------------------------------------------------------

/// One negotiated overload run's per-round outcome fingerprints. Every
/// round stays within its budget and every grant and deny in the
/// transcript has its audit record — "every agent gets its floor or an
/// *audited* deny": the runtime's books balance.
fn negotiated_transcript(seed: u64) -> Vec<u64> {
    let schedule = overload_spec(seed).build(&overload_topology());
    let mut rt = build_overload_runtime(seed, CoordinationMode::Negotiated, None, MIGRATE_ABOVE);
    let mut fingerprints = Vec::new();
    fold_overload(&mut rt, &schedule, |o| fingerprints.push(o.fingerprint()));
    assert_eq!(rt.check_invariants(), []);
    assert_eq!(rt.violations_seen(), []);
    fingerprints
}

#[test]
fn negotiation_transcript_replays_byte_identically_and_is_fully_audited() {
    let fps = negotiated_transcript(11);
    assert!(fps.len() > 10, "only {} arbitration rounds", fps.len());
    assert_eq!(fps, negotiated_transcript(11), "diverged on replay");
}

#[test]
fn overload_trajectory_replays_identically_across_exec_modes() {
    // The compiled E20 trajectory is exec-mode independent at the kernel
    // layer: K=1 inline and K=4 worker threads drain byte-identical
    // occurrence streams, so the negotiation tiers above replay the same
    // schedule regardless of how the substrate is sharded.
    let schedule = overload_spec(11).build(&overload_topology());
    let run = |shards: u32, mode: ExecMode| {
        let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(overload_topology(), shards, mode);
        let applied = schedule.apply_to_kernel(&mut k, 512);
        assert!(applied.sent > 10_000, "overload trajectory lost its load");
        let events = k.drain();
        let mut log = String::new();
        for e in &events {
            use std::fmt::Write as _;
            let _ = writeln!(log, "{} {} {:?}", e.at, e.key, e.what);
        }
        log
    };
    assert_eq!(
        run(1, ExecMode::Inline),
        run(4, ExecMode::Threads),
        "overload replay diverged across exec modes"
    );
}

// ---------------------------------------------------------------------
// Satellite 2: the graceful-degradation differential.
// ---------------------------------------------------------------------

#[test]
fn negotiated_control_plane_dominates_independent_loops_at_ten_x_overload() {
    let r = run_differential(11);
    assert!(
        r.negotiated.goodput() > r.baseline.goodput(),
        "goodput: negotiated {} ≤ baseline {}",
        r.negotiated.goodput(),
        r.baseline.goodput()
    );
    assert!(
        r.negotiated.availability() >= NEGOTIATED_AVAILABILITY_FLOOR,
        "negotiated availability {:.3} under overload",
        r.negotiated.availability()
    );
    assert!(
        r.baseline.availability() < COLLAPSE_CEILING,
        "the independent baseline failed to collapse ({:.3}) — the \
         differential has lost its contrast",
        r.baseline.availability()
    );
    assert!(
        r.negotiated.jain >= JAIN_FLOOR,
        "grant fairness {:.3} below the Jain floor",
        r.negotiated.jain
    );
    assert!(r.negotiated_dominates(), "dominance predicate disagrees");
    assert!(
        r.negotiated.shed > 0,
        "a negotiated 10× overload run must shed"
    );
    // The differential itself replays byte-identically.
    assert_eq!(
        r.fingerprint_hash(),
        run_differential(11).fingerprint_hash(),
        "differential report diverged on replay"
    );
}

// ---------------------------------------------------------------------
// Satellite 3: negotiator mutants and adaptation coverage.
// ---------------------------------------------------------------------

#[test]
fn negotiator_mutants_are_all_killed_on_a_clean_baseline() {
    let report = run_negotiation_mutants(&[11]);
    assert!(
        report.baseline_clean(),
        "honest coordinator violated its own oracles: {:?}",
        report.baseline_violations
    );
    assert_eq!(report.verdicts.len(), NegotiatorMutation::ALL.len());
    for v in &report.verdicts {
        assert!(
            v.killed,
            "negotiator mutant `{}` survived the oracle suite",
            v.mutation.label()
        );
    }
    assert!((report.kill_rate() - 1.0).abs() < f64::EPSILON);
    // The tier's verdict is replayable.
    assert_eq!(
        report.fingerprint(),
        run_negotiation_mutants(&[11]).fingerprint()
    );
}

#[test]
fn negotiation_visits_its_five_adaptation_coverage_cells() {
    let cov = negotiation_coverage(&[11]);
    assert_eq!(cov.reachable, 25, "reachable-cell model changed size");
    let visited: Vec<&str> = cov
        .rows
        .iter()
        .filter(|(cell, count, reachable)| *reachable && *count > 0 && cell.contains("negotiate"))
        .map(|(cell, ..)| cell.as_str())
        .collect();
    assert_eq!(
        visited.len(),
        5,
        "negotiate cells visited: {visited:?} — want steady \
         observed/planned/completed plus suspected observed/completed"
    );
}

// ---------------------------------------------------------------------
// Satellite 4: heal/negotiate interop — a repair plan committing mid-tick
// invalidates the repaired agent's outstanding grant.
// ---------------------------------------------------------------------

/// Node 2 hosts the victim service; node 0 is the detector's monitor.
const VICTIM: NodeId = NodeId(2);

fn registry() -> ImplementationRegistry {
    let mut r = ImplementationRegistry::new();
    register_telecom_components(&mut r);
    r
}

fn frame(cost: f64) -> Message {
    Message::event(
        "frame",
        Value::map([("bytes", Value::Int(200)), ("cost", Value::Float(cost))]),
    )
}

/// The twin_verification-style incident harness with the negotiation
/// control plane enabled: `svc` on the victim node holds a live grant
/// when the node crashes and failover repair commits.
fn interop_harness(seed: u64) -> Runtime {
    let topo = Topology::clique(4, 1000.0, SimDuration::from_millis(2), 1e7);
    let mut rt = Runtime::new(topo, seed, registry());
    let mut cfg = Configuration::new();
    cfg.component("svc", ComponentDecl::new("Transcoder", 1, VICTIM));
    cfg.component("sink", ComponentDecl::new("MediaSink", 1, NodeId(3)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("svc", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).expect("deploy");
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    rt.enable_negotiation(NegotiateConfig {
        interval: SimDuration::from_millis(50),
        ..NegotiateConfig::default()
    });
    let mut faults = FaultSchedule::new();
    faults.node_outage(VICTIM, SimTime::from_secs(1), SimTime::from_secs(4));
    rt.inject_faults(faults);
    for i in 0..300u64 {
        rt.inject_after(SimDuration::from_millis(i * 10), "svc", frame(0.05))
            .expect("inject");
    }
    rt
}

#[test]
fn repair_commit_invalidates_the_outstanding_grant_mid_tick() {
    let mut rt = interop_harness(7);

    // Before the incident: the agent holds a grant issued for the victim
    // placement.
    rt.run_until(SimTime::from_millis(900));
    let pre = rt.grant_of("svc").expect("a grant before the crash");
    let pre_epoch = pre.epoch;

    // Through the crash, suspicion, failover repair and recovery.
    rt.run_until(SimTime::from_secs(6));
    let reneg = rt.obs().audit.of_kind(AuditKind::BudgetRenegotiated);
    assert!(
        reneg.iter().any(|e| e.subject() == "svc"),
        "the committed repair plan did not invalidate `svc`'s grant — \
         the stale-grant hazard is back"
    );
    // The invalidation names the plan that triggered it, so the audit
    // trail links the repair commit to the renegotiation.
    assert!(
        reneg
            .iter()
            .filter(|e| e.subject() == "svc")
            .all(|e| e.outcome().contains("plan") && e.outcome().contains("committed")),
        "renegotiation audit lost its trigger: {:?}",
        reneg.iter().map(AuditEntry::outcome).collect::<Vec<_>>()
    );
    // And the agent was re-granted in a later epoch: invalidation forces
    // renegotiation, it does not strand the agent grantless.
    let post = rt.grant_of("svc").expect("a fresh grant after repair");
    assert!(
        post.epoch > pre_epoch,
        "post-repair grant epoch {} does not supersede {}",
        post.epoch,
        pre_epoch
    );
    assert_ne!(
        rt.node_of("svc"),
        Some(VICTIM),
        "failover never moved the victim service"
    );
}

// ---------------------------------------------------------------------
// Satellite 6: the committed E20 artifact replays byte-identically.
// ---------------------------------------------------------------------

#[test]
fn bench_e20_artifact_reproduces_byte_identically_from_recorded_seeds() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/BENCH_e20.json");
    let committed = std::fs::read_to_string(path).expect("committed BENCH_e20.json");
    // Every exact value — seeds, the per-seed differential fingerprints
    // and frontier points, the mutation and coverage fingerprints,
    // killed/total, coverage visited/reachable — must equal the artifact.
    let fresh = aas_bench::e20::run(aas_bench::Tier::Default);
    assert_eq!(fresh.exact_drift(&committed), Vec::<String>::new());
    let note = |name: &str| {
        let (_, value) = fresh.summary.iter().find(|(n, _)| *n == name).unwrap();
        value.to_string()
    };
    assert_eq!(note("all dominate"), "true");
    assert_eq!(note("baseline"), "clean");
}

// ---------------------------------------------------------------------
// Deep tier.
// ---------------------------------------------------------------------

#[test]
#[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
fn deep_differential_dominates_on_the_full_seed_grid() {
    for seed in [11u64, 23, 47] {
        let r = run_differential(seed);
        assert!(
            r.negotiated_dominates(),
            "seed {seed}: negotiation does not dominate — baseline \
             ({} good, {:.3} avail) vs negotiated ({} good, {:.3} avail, jain {:.3})",
            r.baseline.goodput(),
            r.baseline.availability(),
            r.negotiated.goodput(),
            r.negotiated.availability(),
            r.negotiated.jain
        );
    }
}

#[test]
#[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
fn deep_negotiator_mutants_are_killed_across_seeds() {
    let report = run_negotiation_mutants(&[11, 23, 47]);
    assert!(report.baseline_clean(), "{:?}", report.baseline_violations);
    assert!((report.kill_rate() - 1.0).abs() < f64::EPSILON);
    assert_eq!(
        report.fingerprint(),
        run_negotiation_mutants(&[11, 23, 47]).fingerprint(),
        "deep mutation report not byte-identical across replays"
    );
}
