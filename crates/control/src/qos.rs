//! QoS contracts, compliance tracking and service-level ladders.
//!
//! "Systems should also keep compliant with the contracted quality of
//! service" — a [`QosContract`] is that contract, a [`ComplianceTracker`]
//! integrates how long the system honoured it, and a [`ServiceLadder`]
//! models the degrade-gracefully alternative to "dropping calls \[or\]
//! rejecting packets arbitrarily with no care about the rendering".

use aas_sim::time::{SimDuration, SimTime};
use core::fmt;
use serde::{Deserialize, Serialize};

/// Which side of the limit is compliant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bound {
    /// Values at or below the limit comply (e.g. latency).
    UpperBound,
    /// Values at or above the limit comply (e.g. throughput, quality).
    LowerBound,
}

/// A contracted bound on one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosContract {
    /// Metric name (e.g. `"latency_ms"`).
    pub metric: String,
    /// Bound direction.
    pub bound: Bound,
    /// The contracted limit.
    pub limit: f64,
}

impl QosContract {
    /// An upper-bound contract: `metric <= limit`.
    #[must_use]
    pub fn upper(metric: impl Into<String>, limit: f64) -> Self {
        QosContract {
            metric: metric.into(),
            bound: Bound::UpperBound,
            limit,
        }
    }

    /// A lower-bound contract: `metric >= limit`.
    #[must_use]
    pub fn lower(metric: impl Into<String>, limit: f64) -> Self {
        QosContract {
            metric: metric.into(),
            bound: Bound::LowerBound,
            limit,
        }
    }

    /// Whether `value` complies with the contract.
    #[must_use]
    pub fn complies(&self, value: f64) -> bool {
        match self.bound {
            Bound::UpperBound => value <= self.limit,
            Bound::LowerBound => value >= self.limit,
        }
    }
}

impl fmt::Display for QosContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.bound {
            Bound::UpperBound => "<=",
            Bound::LowerBound => ">=",
        };
        write!(f, "{} {} {}", self.metric, op, self.limit)
    }
}

/// Integrates compliance of a sampled metric over virtual time.
///
/// Between two samples, the compliance state of the *earlier* sample is
/// assumed to hold (zero-order hold).
///
/// # Examples
///
/// ```
/// use aas_control::qos::{ComplianceTracker, QosContract};
/// use aas_sim::time::SimTime;
///
/// let mut t = ComplianceTracker::new(QosContract::upper("latency_ms", 100.0));
/// t.sample(SimTime::from_secs(0), 50.0);   // compliant
/// t.sample(SimTime::from_secs(10), 200.0); // violation starts
/// t.sample(SimTime::from_secs(15), 60.0);  // back in contract
/// assert!((t.violation_fraction() - 5.0 / 15.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComplianceTracker {
    contract: QosContract,
    observed: SimDuration,
    violated: SimDuration,
    last: Option<(SimTime, bool)>,
    violations_entered: u64,
    worst: f64,
}

impl ComplianceTracker {
    /// A tracker for `contract`.
    #[must_use]
    pub fn new(contract: QosContract) -> Self {
        ComplianceTracker {
            contract,
            observed: SimDuration::ZERO,
            violated: SimDuration::ZERO,
            last: None,
            violations_entered: 0,
            worst: f64::NAN,
        }
    }

    /// The tracked contract.
    #[must_use]
    pub fn contract(&self) -> &QosContract {
        &self.contract
    }

    /// Feeds one sample at time `at`.
    pub fn sample(&mut self, at: SimTime, value: f64) {
        let ok = self.contract.complies(value);
        if let Some((prev_at, prev_ok)) = self.last {
            let span = at.saturating_since(prev_at);
            self.observed += span;
            if !prev_ok {
                self.violated += span;
            }
            if !ok && prev_ok {
                self.violations_entered += 1;
            }
        } else if !ok {
            self.violations_entered += 1;
        }
        let excess = match self.contract.bound {
            Bound::UpperBound => value - self.contract.limit,
            Bound::LowerBound => self.contract.limit - value,
        };
        if self.worst.is_nan() || excess > self.worst {
            self.worst = excess;
        }
        self.last = Some((at, ok));
    }

    /// Total observed span.
    #[must_use]
    pub fn observed(&self) -> SimDuration {
        self.observed
    }

    /// Time spent in violation.
    #[must_use]
    pub fn violated(&self) -> SimDuration {
        self.violated
    }

    /// Fraction of observed time in violation, in `[0, 1]`.
    #[must_use]
    pub fn violation_fraction(&self) -> f64 {
        if self.observed.is_zero() {
            0.0
        } else {
            self.violated.as_secs_f64() / self.observed.as_secs_f64()
        }
    }

    /// Number of distinct violation episodes entered.
    #[must_use]
    pub fn violations_entered(&self) -> u64 {
        self.violations_entered
    }

    /// Worst excess beyond the limit (negative means never violated).
    #[must_use]
    pub fn worst_excess(&self) -> f64 {
        if self.worst.is_nan() {
            0.0
        } else {
            self.worst
        }
    }
}

/// One service level on a degradation ladder (e.g. a codec profile).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceLevel {
    /// Level name (e.g. `"1080p"`).
    pub name: String,
    /// Delivered quality (utility), higher is better.
    pub quality: f64,
    /// Resource cost per unit of service (work units, bitrate, …).
    pub cost: f64,
}

impl ServiceLevel {
    /// A new level.
    #[must_use]
    pub fn new(name: impl Into<String>, quality: f64, cost: f64) -> Self {
        ServiceLevel {
            name: name.into(),
            quality,
            cost,
        }
    }
}

/// An ordered ladder of service levels, worst (cheapest) first, with a
/// current position that controllers nudge up and down.
///
/// # Examples
///
/// ```
/// use aas_control::qos::{ServiceLadder, ServiceLevel};
///
/// let mut ladder = ServiceLadder::new(vec![
///     ServiceLevel::new("audio-only", 0.2, 1.0),
///     ServiceLevel::new("480p", 0.6, 4.0),
///     ServiceLevel::new("1080p", 1.0, 10.0),
/// ]).expect("non-empty");
/// assert_eq!(ladder.current().name, "1080p"); // starts at the top
/// ladder.adjust(-1);
/// assert_eq!(ladder.current().name, "480p");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceLadder {
    levels: Vec<ServiceLevel>,
    current: usize,
    switches: u64,
}

impl ServiceLadder {
    /// Builds a ladder; starts at the *highest* level. Returns `None` when
    /// `levels` is empty.
    #[must_use]
    pub fn new(levels: Vec<ServiceLevel>) -> Option<Self> {
        if levels.is_empty() {
            return None;
        }
        let current = levels.len() - 1;
        Some(ServiceLadder {
            levels,
            current,
            switches: 0,
        })
    }

    /// The current level.
    #[must_use]
    pub fn current(&self) -> &ServiceLevel {
        &self.levels[self.current]
    }

    /// Current position (0 = lowest).
    #[must_use]
    pub fn position(&self) -> usize {
        self.current
    }

    /// Number of levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the ladder is a single level.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // a ladder always has at least one level by construction
    }

    /// Moves `delta` levels (positive = up), clamped to the ladder ends.
    /// Returns `true` if the level actually changed.
    pub fn adjust(&mut self, delta: i64) -> bool {
        let target = (self.current as i64 + delta).clamp(0, self.levels.len() as i64 - 1) as usize;
        if target != self.current {
            self.current = target;
            self.switches += 1;
            true
        } else {
            false
        }
    }

    /// How many times the level changed.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// All levels, lowest first.
    #[must_use]
    pub fn levels(&self) -> &[ServiceLevel] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_bounds() {
        let up = QosContract::upper("lat", 100.0);
        assert!(up.complies(100.0));
        assert!(!up.complies(100.1));
        let lo = QosContract::lower("fps", 24.0);
        assert!(lo.complies(30.0));
        assert!(!lo.complies(20.0));
        assert_eq!(up.to_string(), "lat <= 100");
    }

    #[test]
    fn tracker_integrates_violation_time() {
        let mut t = ComplianceTracker::new(QosContract::upper("lat", 10.0));
        t.sample(SimTime::from_secs(0), 5.0);
        t.sample(SimTime::from_secs(4), 50.0); // violation from t=4
        t.sample(SimTime::from_secs(6), 50.0); // still violating
        t.sample(SimTime::from_secs(10), 5.0); // recovered at t=10
        assert_eq!(t.observed(), SimDuration::from_secs(10));
        assert_eq!(t.violated(), SimDuration::from_secs(6));
        assert!((t.violation_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(t.violations_entered(), 1);
        assert!((t.worst_excess() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_counts_episodes() {
        let mut t = ComplianceTracker::new(QosContract::upper("lat", 10.0));
        for (s, v) in [(0, 5.0), (1, 20.0), (2, 5.0), (3, 30.0), (4, 5.0)] {
            t.sample(SimTime::from_secs(s), v);
        }
        assert_eq!(t.violations_entered(), 2);
    }

    #[test]
    fn tracker_never_violated_reports_negative_excess() {
        let mut t = ComplianceTracker::new(QosContract::upper("lat", 10.0));
        t.sample(SimTime::from_secs(0), 3.0);
        t.sample(SimTime::from_secs(5), 8.0);
        assert_eq!(t.violation_fraction(), 0.0);
        assert!(t.worst_excess() < 0.0);
    }

    #[test]
    fn tracker_empty_is_zero() {
        let t = ComplianceTracker::new(QosContract::upper("lat", 10.0));
        assert_eq!(t.violation_fraction(), 0.0);
        assert_eq!(t.worst_excess(), 0.0);
    }

    #[test]
    fn ladder_starts_high_and_clamps() {
        let mut l = ServiceLadder::new(vec![
            ServiceLevel::new("low", 0.1, 1.0),
            ServiceLevel::new("high", 1.0, 10.0),
        ])
        .unwrap();
        assert_eq!(l.current().name, "high");
        assert!(!l.adjust(5), "already at top");
        assert!(l.adjust(-1));
        assert_eq!(l.current().name, "low");
        assert!(!l.adjust(-3), "already at bottom");
        assert_eq!(l.switches(), 1);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn empty_ladder_is_none() {
        assert!(ServiceLadder::new(Vec::new()).is_none());
    }
}
