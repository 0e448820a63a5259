//! The E18 twin-verification corpus: twin-guided repair vs the static
//! E12 failover policy over the factory's storm trajectories.
//!
//! For every seed the harness compiles one [`oracle_spec`] schedule and
//! replays it twice against the five-node storm harness from
//! [`crate::mutation`]:
//!
//! - the **static leg** repairs with the fixed
//!   [`RepairPolicy::FailoverMigrate`] order that E12 measured as the
//!   best static policy;
//! - the **twin leg** additionally calls [`Runtime::enable_twin`], so
//!   every incident is first played forward on candidate forks
//!   (restart-in-place vs failover-migrate) and the best-scoring plan is
//!   committed — falling back to the static policy whenever the forks
//!   abstain.
//!
//! Both legs see byte-identical traffic and fault schedules, so the
//! comparison isolates exactly one variable: who chooses the repair
//! plan. Per seed the harness scores chaos-path availability (delivered
//! over injected frames on the storm-facing pipeline) and mean MTTR, and
//! reconciles the twin's `twin_predicted` audit entries against their
//! `twin_actual` partners into a predicted-vs-actual MTTR error — the
//! paper's "reason about a reconfiguration before enacting it" claim,
//! measured instead of asserted.

use aas_core::heal::RepairPolicy;
use aas_core::runtime::{Runtime, TwinConfig};
use aas_obs::{AuditEvent, AuditKind};

use crate::mutation::{build_runtime, drive_schedule, harness_topology, oracle_spec};
use crate::trajectory::fnv1a;

/// Detector threshold both legs run with (the engine baseline).
const THRESHOLD: f64 = 2.0;

/// One leg's measurements: availability, repair latency, incident count.
#[derive(Debug, Clone, Copy)]
pub struct LegScore {
    /// Chaos-path frames delivered over frames injected.
    pub availability: f64,
    /// Mean repair time across the leg's incidents, in milliseconds
    /// (0.0 when no repair completed).
    pub mean_mttr_ms: f64,
    /// Completed repairs.
    pub repairs: u64,
}

/// The twin-vs-static verdict for one seed.
#[derive(Debug, Clone)]
pub struct TwinComparison {
    /// The schedule's master seed.
    pub seed: u64,
    /// Chaos-path frames both legs had injected.
    pub chaos_expected: u64,
    /// The static E12 failover leg.
    pub static_leg: LegScore,
    /// The twin-guided leg.
    pub twin_leg: LegScore,
    /// Incidents where the twin's choice was committed (a
    /// `twin_predicted` audit entry exists).
    pub twin_decisions: u64,
    /// Predictions reconciled against an actual outcome.
    pub twin_reconciled: u64,
    /// Mean |predicted − actual| MTTR over reconciled incidents, in
    /// milliseconds (`None` when nothing reconciled).
    pub mttr_error_ms: Option<f64>,
}

impl TwinComparison {
    /// Whether the twin leg beat **or tied** the static leg on
    /// availability — the E18 acceptance predicate. Ties count: the twin
    /// must never make repair worse than the E12 baseline.
    #[must_use]
    pub fn twin_at_least_as_good(&self) -> bool {
        self.twin_leg.availability >= self.static_leg.availability - 1e-9
    }
}

/// The corpus-level E18 report.
#[derive(Debug, Clone)]
pub struct TwinCorpusReport {
    /// One comparison per seed, in seed order.
    pub comparisons: Vec<TwinComparison>,
}

impl TwinCorpusReport {
    /// Fraction of scenarios where the twin leg beat or tied the static
    /// leg on availability.
    #[must_use]
    pub fn win_or_tie_rate(&self) -> f64 {
        if self.comparisons.is_empty() {
            return 1.0;
        }
        let wins = self
            .comparisons
            .iter()
            .filter(|c| c.twin_at_least_as_good())
            .count();
        wins as f64 / self.comparisons.len() as f64
    }

    /// Scenarios where the twin strictly improved availability.
    #[must_use]
    pub fn strict_wins(&self) -> usize {
        self.comparisons
            .iter()
            .filter(|c| c.twin_leg.availability > c.static_leg.availability + 1e-9)
            .count()
    }

    /// Mean predicted-vs-actual MTTR error across every reconciled
    /// incident in the corpus, in milliseconds.
    #[must_use]
    pub fn mean_mttr_error_ms(&self) -> Option<f64> {
        let errs: Vec<f64> = self
            .comparisons
            .iter()
            .filter_map(|c| c.mttr_error_ms)
            .collect();
        if errs.is_empty() {
            return None;
        }
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }

    /// Twin decisions committed across the corpus.
    #[must_use]
    pub fn total_decisions(&self) -> u64 {
        self.comparisons.iter().map(|c| c.twin_decisions).sum()
    }

    /// Deterministic rendering of everything the report claims — byte-
    /// equal across replays of the same seed set.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.comparisons {
            let _ = write!(
                out,
                "S{}:st{:.4}/{:.3}:tw{:.4}/{:.3}:d{}:r{};",
                c.seed,
                c.static_leg.availability,
                c.static_leg.mean_mttr_ms,
                c.twin_leg.availability,
                c.twin_leg.mean_mttr_ms,
                c.twin_decisions,
                c.twin_reconciled
            );
        }
        out
    }

    /// FNV-1a hash of [`TwinCorpusReport::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }
}

/// The twin configuration the E18 corpus runs: the default candidate set
/// (restart-in-place vs failover-migrate) over a 4 s horizon.
#[must_use]
pub fn e18_twin_config() -> TwinConfig {
    TwinConfig::default()
}

fn leg_score(rt: &Runtime, chaos_expected: u64) -> LegScore {
    let snap = rt.observe();
    let delivered = snap.component("csink").map_or(0, |c| c.processed);
    let mttr = rt.metrics().mttr_ms;
    LegScore {
        availability: if chaos_expected == 0 {
            1.0
        } else {
            delivered as f64 / chaos_expected as f64
        },
        mean_mttr_ms: if mttr.count() == 0 { 0.0 } else { mttr.mean() },
        repairs: mttr.count(),
    }
}

/// Runs one seed's schedule through both legs and compares them.
#[must_use]
pub fn run_comparison(seed: u64) -> TwinComparison {
    let topo = harness_topology();
    let schedule = oracle_spec(seed).build(&topo);

    let mut static_rt = build_runtime(seed, RepairPolicy::FailoverMigrate, THRESHOLD, false);
    let (_, chaos_expected) = drive_schedule(&mut static_rt, &schedule, false);

    let mut twin_rt = build_runtime(seed, RepairPolicy::FailoverMigrate, THRESHOLD, false);
    twin_rt.enable_twin(e18_twin_config());
    let (_, twin_chaos) = drive_schedule(&mut twin_rt, &schedule, false);
    debug_assert_eq!(chaos_expected, twin_chaos, "legs must see the same traffic");

    let audit = &twin_rt.obs().audit;
    let twin_decisions = audit.books().count(AuditKind::TwinPredicted);
    let actual = audit.of_kind(AuditKind::TwinActual);
    let errors: Vec<f64> = actual
        .iter()
        .filter_map(|a| match a.event {
            AuditEvent::TwinActual {
                mttr_ms: Some(v),
                predicted_mttr_ms: p,
                ..
            } => Some((p - v).abs()),
            _ => None,
        })
        .collect();
    let mttr_error_ms = if errors.is_empty() {
        None
    } else {
        Some(errors.iter().sum::<f64>() / errors.len() as f64)
    };

    TwinComparison {
        seed,
        chaos_expected,
        static_leg: leg_score(&static_rt, chaos_expected),
        twin_leg: leg_score(&twin_rt, chaos_expected),
        twin_decisions,
        twin_reconciled: actual.len() as u64,
        mttr_error_ms,
    }
}

/// Runs the full E18 corpus over `seeds`.
#[must_use]
pub fn run_twin_corpus(seeds: &[u64]) -> TwinCorpusReport {
    TwinCorpusReport {
        comparisons: seeds.iter().map(|&s| run_comparison(s)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_is_deterministic() {
        let a = run_comparison(3);
        let b = run_comparison(3);
        assert_eq!(
            run_twin_corpus(&[3]).fingerprint(),
            run_twin_corpus(&[3]).fingerprint()
        );
        assert_eq!(a.chaos_expected, b.chaos_expected);
        assert!((a.twin_leg.availability - b.twin_leg.availability).abs() < 1e-12);
    }

    #[test]
    fn twin_leg_never_loses_to_static_on_a_small_corpus() {
        let report = run_twin_corpus(&[1, 2]);
        assert_eq!(report.comparisons.len(), 2);
        for c in &report.comparisons {
            assert!(c.chaos_expected > 0, "oracle schedules carry chaos traffic");
            assert!(
                c.twin_at_least_as_good(),
                "seed {}: twin {:.4} < static {:.4}",
                c.seed,
                c.twin_leg.availability,
                c.static_leg.availability
            );
        }
    }

    #[test]
    fn reconciliation_never_exceeds_decisions() {
        let report = run_twin_corpus(&[5]);
        let c = &report.comparisons[0];
        assert!(c.twin_reconciled <= c.twin_decisions);
        if c.twin_reconciled > 0 {
            assert!(c.mttr_error_ms.is_some());
        }
    }
}
