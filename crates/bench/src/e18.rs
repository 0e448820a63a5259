//! E18 — digital-twin plan verification: twin-guided repair vs the
//! static E12 failover policy under the scenario-factory storm corpus.
//!
//! Each seed compiles one `aas-scenario` oracle trajectory (diurnal +
//! flash-crowd load with a load-correlated crash storm) and replays it
//! through two otherwise-identical runtimes: the static leg repairs with
//! the fixed failover-migrate policy E12 measured best, the twin leg
//! lets `Runtime::enable_twin` play every candidate repair forward on a
//! forked runtime first and commit the best scorer. Reported here: how
//! often the twin leg beats or ties the static leg on chaos-path
//! availability (the E18 acceptance predicate demands ≥ 90 %), both
//! legs' mean MTTR, the number of twin decisions actually committed, and
//! the mean predicted-vs-actual MTTR error across reconciled
//! `twin_predicted`/`twin_actual` audit pairs.
//!
//! Everything except `scenarios/s` is a pure function of the seed set
//! (both legs are fully deterministic); the corpus fingerprint pins that
//! and lands in the `BENCH_e18.json` artifact.
//!
//! Tiers: `smoke` runs the first fast seed, the default tier
//! [`FAST_SEEDS`], `full` the nightly [`DEEP_SEEDS`].

use crate::table::{ex, exact, timed, Col, Table, Tier, Value};
use aas_scenario::{run_twin_corpus, TwinComparison};
use std::time::Instant;

/// The reference fast-tier seed set.
pub const FAST_SEEDS: [u64; 3] = [11, 23, 47];

/// The nightly deep-tier seed set (a superset of [`FAST_SEEDS`]).
pub const DEEP_SEEDS: [u64; 10] = [11, 23, 47, 59, 71, 83, 97, 109, 131, 151];

/// Runs the twin corpus over the tier's seed set.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let seeds = tier.seeds(&FAST_SEEDS, &DEEP_SEEDS);
    let mut table = Table::new(
        "e18",
        tier,
        format!(
            "E18: digital-twin plan verification — twin-guided vs static \
             failover repair (seeds {seeds:?})"
        ),
        [
            exact(&["seeds", "win/tie", "strict wins", "rate", "static avail"]),
            exact(&["twin avail", "static mttr ms", "twin mttr ms", "decisions"]),
            exact(&["mttr err ms", "corpus fingerprint", "runs"]),
            vec![Col::Timed("scenarios/s")],
        ]
        .concat(),
    );
    // The corpus is one call and the only timed cell (0.1 s at the default
    // tier), so it is what repeats per trial.
    table.trials(|| {
        let t0 = Instant::now();
        let report = run_twin_corpus(seeds);
        let wall = t0.elapsed().as_secs_f64().max(1e-9);
        let all = &report.comparisons;
        let mean = |f: &dyn Fn(&TwinComparison) -> f64| {
            all.iter().map(f).sum::<f64>() / all.len().max(1) as f64
        };
        let wins_or_ties = all.iter().filter(|c| c.twin_at_least_as_good()).count();
        // Decisions committed (one `twin_predicted` audit entry each) and
        // how many of them reconciled against a completed repair.
        let reconciled: u64 = all.iter().map(|c| c.twin_reconciled).sum();
        let error = report.mean_mttr_error_ms();
        vec![
            ex(format!("{seeds:?}")),
            ex(format!("{wins_or_ties}/{}", seeds.len())),
            ex(report.strict_wins()),
            ex(format!("{:.3}", report.win_or_tie_rate())),
            ex(format!("{:.4}", mean(&|c| c.static_leg.availability))),
            ex(format!("{:.4}", mean(&|c| c.twin_leg.availability))),
            ex(format!("{:.3}", mean(&|c| c.static_leg.mean_mttr_ms))),
            ex(format!("{:.3}", mean(&|c| c.twin_leg.mean_mttr_ms))),
            ex(format!("{reconciled}/{}", report.total_decisions())),
            error.map_or(Value::Na, |e| ex(format!("{e:.3}"))),
            ex(format!("{:#018x}", report.fingerprint_hash())),
            ex(seeds.len() * 2),
            timed((seeds.len() * 2) as f64 / wall, 2),
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
        assert_eq!(a.exact(0, "win/tie"), "1/1", "twin lost to static");
        assert!(a.exact(0, "static avail").parse::<f64>().unwrap() > 0.0);
        assert!(a.exact(0, "twin avail").parse::<f64>().unwrap() > 0.0);
        assert_eq!(
            run(Tier::Smoke).exact_drift(&a.to_json()),
            Vec::<String>::new()
        );
    }
}
