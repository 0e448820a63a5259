//! Adversarial scenario factory: shaking-table trajectories, policy
//! mutation, and adaptation-state-space coverage (E17).
//!
//! Fast tier: byte-identical trajectory replay, a clean unmutated
//! baseline, a ≥90 % mutation-kill score with every survivor
//! individually expected, the mutants the runtime's own checker kills
//! alone, a ≥70 % adaptation-coverage floor with JSONL export, and
//! reproduction of every exact value of the committed `BENCH_e17.json`
//! artifact by the default tier.
//!
//! Deep tier (`--ignored`, CI nightly): the same floors over the
//! ten-seed grid plus engine-fingerprint determinism across replays.

use aas_bench::e17::{self, DEEP_SEEDS, FAST_SEEDS};
use aas_scenario::mutation::{harness_topology, oracle_spec, run_engine};
use aas_scenario::{coverage_sweep, Mutation};
use aas_sim::time::SimTime;

#[test]
fn factory_replay_is_byte_identical_across_builds() {
    for &seed in &FAST_SEEDS {
        let a = oracle_spec(seed).build(&harness_topology());
        let b = oracle_spec(seed).build(&harness_topology());
        assert_eq!(a.fingerprint(), b.fingerprint(), "seed {seed} diverged");
        assert_eq!(a.fingerprint_hash(), b.fingerprint_hash());
        assert!(
            !a.fault_entries().is_empty(),
            "seed {seed}: storm never fired"
        );
        assert!(!a.traffic.is_empty(), "seed {seed}: no traffic");
        assert!(
            a.onsets().iter().all(|&t| t < a.horizon),
            "seed {seed}: an onset escaped the horizon"
        );
    }
    let a = oracle_spec(FAST_SEEDS[0]).build(&harness_topology());
    let b = oracle_spec(FAST_SEEDS[1]).build(&harness_topology());
    assert_ne!(
        a.fingerprint_hash(),
        b.fingerprint_hash(),
        "distinct seeds compiled identical trajectories"
    );
}

#[test]
fn correlated_storm_bunches_onsets_into_the_load_peak() {
    // The oracle trajectory's storm is load-correlated and its flash
    // crowd quadruples the rate over [3 s, 7 s). That window is 25 % of
    // the horizon, so across the engine seeds the onset share inside it
    // must beat the uniform share (per-seed counts are too small to
    // test individually: mtbf 5 s over 16 s yields only a handful).
    let (mut inside, mut total) = (0usize, 0usize);
    for &seed in &FAST_SEEDS {
        let schedule = oracle_spec(seed).build(&harness_topology());
        let onsets = schedule.onsets();
        inside += onsets
            .iter()
            .filter(|&&t| t >= SimTime::from_secs(3) && t < SimTime::from_secs(7))
            .count();
        total += onsets.len();
    }
    assert!(total > 0, "the storm never fired on any seed");
    assert!(
        inside * 4 > total,
        "only {inside}/{total} onsets in the flash crowd — correlation lost"
    );
}

#[test]
fn mutation_engine_holds_the_kill_floor_on_a_clean_baseline() {
    let report = run_engine(&FAST_SEEDS);
    for o in &report.baseline {
        assert!(
            !o.killed(),
            "baseline seed {} violated oracles: {:?}",
            o.seed,
            o.violations
        );
    }
    assert_eq!(report.total(), Mutation::ALL.len());
    assert!(
        report.kill_rate() >= 0.9,
        "kill rate {:.3} below floor; survivors {:?}",
        report.kill_rate(),
        report.survivors()
    );
    for survivor in report.survivors() {
        assert!(
            survivor.expected_survivor(),
            "unexpected survivor {survivor:?} — either the mutant is \
             semantics-preserving (justify it in EXPERIMENTS.md) or an \
             oracle lost its teeth"
        );
    }
    // Every mutant expected to die did die, and the expected survivor
    // actually survived (an oracle overfitted to action order would be
    // as much a regression as a lost kill).
    for v in &report.verdicts {
        assert_eq!(
            v.killed,
            !v.mutation.expected_survivor(),
            "{} verdict flipped: {:?}",
            v.mutation.label(),
            v.violations
        );
    }
    // What the runtime's own books catch without the harness's oracles
    // (EXPERIMENTS.md E17 tables the rest).
    let harness = "exactly-once availability detector flaky-host guard strategy";
    let by_checker = |v: &String| !harness.split(' ').any(|h| v.split(": ").nth(1) == Some(h));
    let verdicts = report.verdicts.iter();
    let killed = verdicts.filter(|v| v.violations.iter().any(by_checker));
    let killed: Vec<&str> = killed.map(|v| v.mutation.label()).collect();
    assert_eq!(
        killed.join(" "),
        "detector-hair-trigger disable-repair drop-repair-actions failover-to-hottest"
    );
}

#[test]
fn coverage_fast_tier_meets_floor_and_exports_jsonl() {
    let cov = coverage_sweep(&FAST_SEEDS);
    assert!(
        cov.percent >= 0.70,
        "adaptation coverage {:.3} below the fast-tier floor",
        cov.percent
    );
    assert_eq!(cov.reachable, 25, "reachable-cell model changed size");
    let jsonl = cov.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), cov.rows.len(), "one JSONL line per cell");
    for line in &lines {
        assert!(line.starts_with("{\"type\":\"coverage_cell\",\"cell\":\""));
        assert!(line.ends_with('}'));
    }
    // Zero-count reachable cells stay visible in the export — coverage
    // gaps must be inspectable, not silently dropped.
    assert!(
        cov.rows
            .iter()
            .any(|(_, count, reachable)| *reachable && *count == 0)
            == (cov.visited < cov.reachable),
        "export hides unvisited reachable cells"
    );
}

#[test]
fn bench_artifact_reproduces_byte_identically_from_recorded_seeds() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/BENCH_e17.json");
    let committed = std::fs::read_to_string(path).expect("committed BENCH_e17.json");
    // The default tier runs FAST_SEEDS; every exact column — seeds, both
    // fingerprints, killed/total, coverage visited/reachable, baseline —
    // must equal what the artifact records.
    let fresh = e17::run(aas_bench::Tier::Default);
    assert_eq!(fresh.exact_drift(&committed), Vec::<String>::new());
    assert_eq!(fresh.exact(0, "seeds"), format!("{FAST_SEEDS:?}"));
    assert_eq!(fresh.exact(0, "baseline"), "clean");
}

#[test]
#[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
fn deep_mutation_engine_holds_the_kill_floor() {
    let report = run_engine(&DEEP_SEEDS);
    assert!(report.baseline_clean(), "deep baseline dirty");
    assert!(
        report.kill_rate() >= 0.9,
        "deep kill rate {:.3}; survivors {:?}",
        report.kill_rate(),
        report.survivors()
    );
    for survivor in report.survivors() {
        assert!(
            survivor.expected_survivor(),
            "unexpected deep survivor {survivor:?}"
        );
    }
    let replay = run_engine(&DEEP_SEEDS);
    assert_eq!(
        report.fingerprint(),
        replay.fingerprint(),
        "deep engine report not byte-identical across replays"
    );
}

#[test]
#[ignore = "deep tier: run with -- --ignored (CI nightly job)"]
fn deep_coverage_holds_the_floor() {
    let cov = coverage_sweep(&DEEP_SEEDS);
    assert!(
        cov.percent >= 0.70,
        "deep adaptation coverage {:.3} below floor",
        cov.percent
    );
    assert!(cov.visited >= coverage_sweep(&FAST_SEEDS).visited);
}
