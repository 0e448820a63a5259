//! E20 — GORNA negotiation control plane: graceful degradation under
//! 10× overload.
//!
//! The same seeded overload trajectory (10,000 f/s against a stage that
//! sustains ~1,000) is replayed twice per seed: once with every agent
//! running its own reactive admission loop (the uncoordinated baseline)
//! and once with the GORNA coordinator arbitrating a global budget into
//! per-agent grants (floors first, then weighted water-filling).
//! Reported per seed: deadline goodput, availability (deadline-met
//! fraction of admitted frames), Jain fairness over grant fractions, and
//! whether the negotiator *strictly dominates* — more goodput AND no
//! availability collapse while the baseline does collapse. One more
//! negotiated run per seed with migration off (`migrate_above` out of
//! reach) is the isolating cell of *negotiated migration* in the
//! mechanism ledger (DESIGN.md §2.11). On top of the
//! frontier, the negotiator mutation tier (inflated requests, ignored
//! floors, stale situational model) reports its kill score, and the
//! negotiation coverage sweep its visited adaptation cells.
//!
//! Every number except `runs/s` is a pure function of the seed set; the differential,
//! mutation and coverage fingerprints pin that — the `BENCH_e20.json`
//! artifact records them and `tests/negotiation_props.rs` checks the
//! default tier against it on every run.
//!
//! Tiers: `smoke` runs the first fast seed, the default tier
//! [`FAST_SEEDS`], `full` the nightly [`DEEP_SEEDS`].

use crate::table::{ex, exact, timed, Col, Table, Tier};
use aas_core::runtime::CoordinationMode;
use aas_scenario::negotiation::run_degradation;
use aas_scenario::{negotiation_coverage, run_differential, run_negotiation_mutants};
use std::time::Instant;

/// The reference fast-tier seed set (validated: negotiator dominates on
/// every seed, baseline clean, all three mutants killed).
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 6] = [11, 23, 47, 59, 71, 83];

/// Runs the tier's seed set: one row per seed on the overload
/// degradation frontier (baseline and negotiated goodput, availability,
/// Jain fairness over the final grant fractions, strict dominance, the
/// differential fingerprint, the negotiated run again with migration off,
/// and the throughput of the seed's two differential runs — the one cell
/// repeated per trial); the mutation tier
/// and the coverage sweep, run once, as table-wide values.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let seeds = tier.seeds(&FAST_SEEDS, &DEEP_SEEDS);
    let mut table = Table::new(
        "e20",
        tier,
        format!("E20: GORNA negotiation vs independent loops at 10x overload (seeds {seeds:?})"),
        [
            exact(&["seed", "base goodput", "base avail", "nego goodput"]),
            exact(&["nego avail", "jain", "dominates", "fingerprint"]),
            exact(&["nego goodput, no migration", "nego avail, no migration"]),
            vec![Col::Timed("runs/s")],
        ]
        .concat(),
    );
    let mut all_dominate = true;
    for &seed in seeds {
        // Exact and outside the timed cell, so run once, not per trial.
        let pinned = run_degradation(seed, CoordinationMode::Negotiated, 2.0);
        table.trials(|| {
            let t0 = Instant::now();
            let d = run_differential(seed);
            let wall = t0.elapsed().as_secs_f64().max(1e-9);
            all_dominate &= d.negotiated_dominates();
            vec![
                ex(seed),
                ex(d.baseline.goodput()),
                ex(format!("{:.4}", d.baseline.availability())),
                ex(d.negotiated.goodput()),
                ex(format!("{:.4}", d.negotiated.availability())),
                ex(format!("{:.4}", d.negotiated.jain)),
                ex(if d.negotiated_dominates() {
                    "yes"
                } else {
                    "NO"
                }),
                ex(format!("{:#018x}", d.fingerprint_hash())),
                ex(pinned.goodput()),
                ex(format!("{:.4}", pinned.availability())),
                timed(2.0 / wall, 1),
            ]
        });
    }
    let mutants = run_negotiation_mutants(seeds);
    let cov = negotiation_coverage(seeds);
    table.note("all dominate", ex(all_dominate));
    let baseline = if mutants.baseline_clean() {
        "clean"
    } else {
        "DIRTY"
    };
    table.note("baseline", ex(baseline));
    let killed = format!("{}/{}", mutants.killed(), mutants.verdicts.len());
    table.note("mutants killed", ex(killed));
    table.note("kill rate", ex(format!("{:.3}", mutants.kill_rate())));
    let fingerprint = format!("{:#018x}", mutants.fingerprint_hash());
    table.note("mutation fingerprint", ex(fingerprint));
    table.note("coverage", ex(format!("{}/{}", cov.visited, cov.reachable)));
    let fingerprint = format!("{:#018x}", cov.fingerprint_hash());
    table.note("coverage fingerprint", ex(fingerprint));
    // Differential: 2 runs per seed; mutation tier: baseline + 3 mutants
    // per seed; coverage: overload + storm run per seed. The ledger's
    // no-migration run is beside the E20 protocol and not in this count.
    table.note("runs", ex(seeds.len() * (2 + 4 + 2)));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_is_sound_and_deterministic() {
        let a = run(Tier::Smoke);
        assert_eq!(a.exact(0, "dominates"), "yes", "{a}");
        let notes: Vec<String> = a.summary.iter().map(|(_, v)| v.to_string()).collect();
        assert_eq!(notes[..3], ["true", "clean", "3/3"], "{a}");
        assert_eq!(notes[5], "10/25", "reachable-cell model changed size");
        // Differential, mutation and coverage fingerprints included: a
        // replay moves no exact value.
        assert_eq!(
            run(Tier::Smoke).exact_drift(&a.to_json()),
            Vec::<String>::new()
        );
    }
}
