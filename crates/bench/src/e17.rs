//! E17 — adversarial scenario factory: mutation-kill score, adaptation
//! state-space coverage, and scenario throughput.
//!
//! The scenario factory (`aas-scenario`) compiles seeded shaking-table
//! trajectories — diurnal + flash-crowd load with a load-correlated
//! crash storm — and the mutation engine replays them against eleven
//! named corruptions of the adaptation logic (detector thresholds,
//! repair planning, failover targeting, guard filters, strategy switch
//! rules). Reported here: the mutation-kill score (the fraction of
//! mutants at least one oracle flags), the adaptation-coverage
//! percentage (visited cells of the detector-phase × repair-policy ×
//! plan-outcome space under an unmutated four-policy sweep), and
//! scenario throughput.
//!
//! Every number except `scenarios/s` is a pure function of the seed
//! set; the engine and coverage fingerprints pin that — the
//! `BENCH_e17.json` artifact records them and
//! `tests/adversarial_scenarios.rs` checks the default tier against it
//! on every run.
//!
//! Tiers: `smoke` runs the first fast seed, the default tier
//! [`FAST_SEEDS`], `full` the nightly [`DEEP_SEEDS`].

use crate::table::{ex, exact, timed, Col, Table, Tier};
use aas_scenario::mutation::run_engine;
use aas_scenario::{coverage_sweep, Mutation};
use std::time::Instant;

/// The reference fast-tier seed set (validated: baseline clean, ten of
/// eleven mutants killed, `reverse-repair-actions` the sole survivor).
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 10] = [11, 23, 47, 59, 71, 83, 97, 109, 131, 151];

/// Runs the engine and the four-policy coverage sweep over the tier's
/// seed set.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let seeds = tier.seeds(&FAST_SEEDS, &DEEP_SEEDS);
    let mut table = Table::new(
        "e17",
        tier,
        format!(
            "E17: adversarial scenario factory — mutation kill score and \
             adaptation coverage (seeds {seeds:?})"
        ),
        [
            exact(&["seeds", "baseline", "killed", "kill rate", "survivors"]),
            exact(&["engine fingerprint", "coverage", "coverage %"]),
            exact(&["coverage fingerprint", "runs"]),
            vec![Col::Timed("scenarios/s")],
        ]
        .concat(),
    );
    // The engine runs once; the sweep is the cell repeated per trial, so
    // `scenarios/s` is the throughput of unmutated four-policy scenarios.
    let report = run_engine(seeds);
    let survivors: Vec<&str> = report.survivors().iter().map(|m| m.label()).collect();
    table.trials(|| {
        let t0 = Instant::now();
        let cov = coverage_sweep(seeds);
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        vec![
            ex(format!("{seeds:?}")),
            ex(if report.baseline_clean() {
                "clean"
            } else {
                "DIRTY"
            }),
            ex(format!("{}/{}", report.killed(), report.total())),
            ex(format!("{:.3}", report.kill_rate())),
            ex(if survivors.is_empty() {
                "-".to_owned()
            } else {
                survivors.join(",")
            }),
            ex(format!("{:#018x}", report.fingerprint_hash())),
            ex(format!("{}/{}", cov.visited, cov.reachable)),
            ex(format!("{:.1}", cov.percent * 100.0)),
            ex(format!("{:#018x}", cov.fingerprint_hash())),
            // Engine: one baseline + |ALL| mutants per seed; sweep: four
            // repair policies per seed.
            ex(seeds.len() * (1 + Mutation::ALL.len() + 4)),
            timed((seeds.len() * 4) as f64 / wall, 1),
        ]
    });
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_is_sound_and_deterministic() {
        let a = run(Tier::Smoke);
        assert_eq!(a.exact(0, "baseline"), "clean");
        assert_eq!(a.exact(0, "killed"), "10/11");
        assert_eq!(a.exact(0, "survivors"), "reverse-repair-actions");
        assert!(a.exact(0, "coverage %").parse::<f64>().unwrap() >= 70.0);
        // Fingerprints included: a second run moves no exact value.
        assert_eq!(
            run(Tier::Smoke).exact_drift(&a.to_json()),
            Vec::<String>::new()
        );
    }
}
