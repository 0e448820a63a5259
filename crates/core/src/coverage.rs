//! Adaptation-state-space coverage: which (detector-phase × repair-policy
//! × plan-outcome) cells a run actually exercised.
//!
//! Munoz & Baudry's *artificial shaking table* critique (see PAPERS.md)
//! is that adaptive systems are usually validated by counting green tests,
//! not by measuring how much of the *adaptation* state space those tests
//! visit. This module gives the runtime an odometer for exactly that: the
//! drivers in [`crate::runtime`] record a cell every time the detect →
//! plan → repair loop reaches a distinct combination of
//!
//! - **detector phase** — was the loop idling ([`DetectPhase::Steady`]),
//!   reacting to a live suspicion ([`DetectPhase::Suspected`]) or clearing
//!   one ([`DetectPhase::Restored`])?
//! - **repair policy** — the [`crate::heal::RepairPolicy::label`] in force;
//! - **plan outcome** — what planning produced: nothing to do, a deferral,
//!   a submitted plan, a completed repair, or a failed one.
//!
//! Harnesses merge the per-run tallies and report *N% of reachable cells
//! exercised* (against [`reachable_cells`]) instead of a raw test count;
//! `aas-obs`'s `coverage_jsonl` renders the same map one JSON object per
//! cell so regressions diff line-by-line across PRs.

use std::collections::BTreeMap;

/// Where the detect→plan→repair loop was when a cell got recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DetectPhase {
    /// A detector tick with no suspicion events: the loop is idling.
    Steady,
    /// A node is suspected and the repair queue is being driven.
    Suspected,
    /// A previously suspected node came back and suspicion cleared.
    Restored,
}

impl DetectPhase {
    /// Short stable label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DetectPhase::Steady => "steady",
            DetectPhase::Suspected => "suspected",
            DetectPhase::Restored => "restored",
        }
    }
}

/// What planning produced for the suspect in question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanOutcome {
    /// Planning ran but produced nothing to do (nothing hosted, policy
    /// `None`, or a phase — steady/restored — where observing is the act).
    Observed,
    /// The policy must wait (restart-in-place with the node still down).
    Deferred,
    /// A repair plan was submitted to the transactional engine.
    Planned,
    /// A submitted repair completed and was booked (MTTR, audit).
    Completed,
    /// A submitted repair was rejected or rolled back; the node stays
    /// queued and the next tick re-plans.
    Failed,
}

impl PlanOutcome {
    /// Short stable label used in exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlanOutcome::Observed => "observed",
            PlanOutcome::Deferred => "deferred",
            PlanOutcome::Planned => "planned",
            PlanOutcome::Completed => "completed",
            PlanOutcome::Failed => "failed",
        }
    }
}

/// One coverage cell: (detector phase, repair-policy label, plan outcome).
pub type CoverageCell = (DetectPhase, &'static str, PlanOutcome);

/// Renders a cell as the stable `phase/policy/outcome` key used in
/// exports and fingerprints.
#[must_use]
pub fn cell_key(cell: CoverageCell) -> String {
    format!("{}/{}/{}", cell.0.label(), cell.1, cell.2.label())
}

/// The visited-cell odometer. Owned by the runtime; harnesses clone and
/// [`AdaptationCoverage::merge`] tallies across runs.
#[derive(Debug, Default, Clone)]
pub struct AdaptationCoverage {
    cells: BTreeMap<CoverageCell, u64>,
}

impl AdaptationCoverage {
    /// An empty odometer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a cell's visit count (driver-internal).
    pub(crate) fn record(&mut self, phase: DetectPhase, policy: &'static str, out: PlanOutcome) {
        *self.cells.entry((phase, policy, out)).or_insert(0) += 1;
    }

    /// Number of distinct cells visited at least once.
    #[must_use]
    pub fn visited(&self) -> usize {
        self.cells.len()
    }

    /// Visit count for one cell (zero if never reached).
    #[must_use]
    pub fn count(&self, cell: CoverageCell) -> u64 {
        self.cells.get(&cell).copied().unwrap_or(0)
    }

    /// The visited cells as stable `(key, count)` rows, sorted by cell.
    #[must_use]
    pub fn cells(&self) -> Vec<(String, u64)> {
        self.cells.iter().map(|(c, n)| (cell_key(*c), *n)).collect()
    }

    /// Folds another odometer's tallies into this one.
    pub fn merge(&mut self, other: &AdaptationCoverage) {
        for (cell, n) in &other.cells {
            *self.cells.entry(*cell).or_insert(0) += n;
        }
    }

    /// Fraction of [`reachable_cells`] visited, in `[0, 1]`. Cells outside
    /// the reachable model (there should be none) are ignored.
    #[must_use]
    pub fn percent_of_reachable(&self) -> f64 {
        let reachable = reachable_cells();
        let hit = reachable
            .iter()
            .filter(|c| self.cells.contains_key(*c))
            .count();
        hit as f64 / reachable.len() as f64
    }

    /// Full export rows over the reachable model: every reachable cell
    /// with its visit count (zero included, so a regression shows up as a
    /// count dropping to 0 rather than a vanished line), plus any visited
    /// cell the model missed, flagged unreachable. Feed to
    /// `aas_obs::export::coverage_jsonl`.
    #[must_use]
    pub fn export_rows(&self) -> Vec<(String, u64, bool)> {
        let reachable = reachable_cells();
        let mut rows: Vec<(String, u64, bool)> = reachable
            .iter()
            .map(|c| (cell_key(*c), self.count(*c), true))
            .collect();
        for (cell, n) in &self.cells {
            if !reachable.contains(cell) {
                rows.push((cell_key(*cell), *n, false));
            }
        }
        rows.sort();
        rows
    }
}

/// The cells the current detect→plan→repair implementation can reach, per
/// policy semantics:
///
/// - every policy idles (`steady`) and observes restorations;
/// - `no-repair` only ever observes a suspicion;
/// - `restart` defers while the node is down, observes empty hosts, and
///   its submitted plans complete or fail;
/// - `failover` plans immediately (no deferral — it does not wait for the
///   suspect), observes empty hosts, completes or fails;
/// - `degrade` swaps a connector synchronously, so it plans and completes
///   at once and can neither defer nor observe. A swap the runtime refuses
///   (a backup connector that does not exist, a protocol that deadlocks
///   with a bound target, a connector mid-collaboration) books
///   `suspected/degrade/failed`, which this model leaves out: no harness
///   that measures coverage configures such a backup;
/// - `negotiate` is the resource-negotiation control plane (DESIGN.md
///   §2.10): a tick with grants but no structural action observes
///   (`steady/negotiate/observed`), a migration request compiled into a
///   reconfiguration plan books `planned` and, on commit, `completed`; a
///   tick arbitrating under live suspicion (denials included) books
///   `suspected/negotiate/observed`, and a repair committing mid-tick that
///   invalidates an outstanding grant books `suspected/negotiate/completed`.
#[must_use]
pub fn reachable_cells() -> Vec<CoverageCell> {
    use DetectPhase::{Restored, Steady, Suspected};
    use PlanOutcome::{Completed, Deferred, Failed, Observed, Planned};
    let mut cells = Vec::new();
    for policy in ["no-repair", "restart", "failover", "degrade"] {
        cells.push((Steady, policy, Observed));
        cells.push((Restored, policy, Observed));
    }
    cells.push((Suspected, "no-repair", Observed));
    for out in [Observed, Deferred, Planned, Completed, Failed] {
        cells.push((Suspected, "restart", out));
    }
    for out in [Observed, Planned, Completed, Failed] {
        cells.push((Suspected, "failover", out));
    }
    for out in [Planned, Completed] {
        cells.push((Suspected, "degrade", out));
    }
    for out in [Observed, Planned, Completed] {
        cells.push((Steady, "negotiate", out));
    }
    for out in [Observed, Completed] {
        cells.push((Suspected, "negotiate", out));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_model_has_twenty_five_distinct_cells() {
        let cells = reachable_cells();
        assert_eq!(cells.len(), 25);
        let distinct: std::collections::BTreeSet<_> = cells.iter().collect();
        assert_eq!(distinct.len(), cells.len(), "cells must be distinct");
    }

    #[test]
    fn record_merge_and_percent() {
        let mut a = AdaptationCoverage::new();
        a.record(DetectPhase::Steady, "failover", PlanOutcome::Observed);
        a.record(DetectPhase::Steady, "failover", PlanOutcome::Observed);
        let mut b = AdaptationCoverage::new();
        b.record(DetectPhase::Suspected, "failover", PlanOutcome::Planned);
        a.merge(&b);
        assert_eq!(a.visited(), 2);
        assert_eq!(
            a.count((DetectPhase::Steady, "failover", PlanOutcome::Observed)),
            2
        );
        assert!((a.percent_of_reachable() - 2.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn export_rows_keep_zero_count_reachable_cells() {
        let mut cov = AdaptationCoverage::new();
        cov.record(DetectPhase::Suspected, "restart", PlanOutcome::Deferred);
        let rows = cov.export_rows();
        assert_eq!(rows.len(), 25, "one row per reachable cell");
        let zero = rows.iter().filter(|(_, n, _)| *n == 0).count();
        assert_eq!(zero, 24);
        assert!(rows
            .iter()
            .any(|(k, n, r)| k == "suspected/restart/deferred" && *n == 1 && *r));
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "rows sorted");
    }

    #[test]
    fn keys_are_stable() {
        assert_eq!(
            cell_key((DetectPhase::Restored, "degrade", PlanOutcome::Completed)),
            "restored/degrade/completed"
        );
    }
}
