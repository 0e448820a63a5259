//! QoS monitors: smoothed metric tracking plus contract compliance.
//!
//! The paper's quality-aware middleware "adopt\[s\] control architecture to
//! monitor and improve the quality of service parameters"; a [`QosMonitor`]
//! is the *monitor* leg of that loop, combining a smoothed signal (EWMA),
//! distribution statistics and a [`ComplianceTracker`].
//!
//! Monitors run in one of two modes. In *push* mode ([`QosMonitor::new`])
//! the caller feeds raw samples and the monitor keeps its own histogram.
//! In *pull* mode ([`QosMonitor::from_registry`]) the distribution already
//! lives in the shared `aas-obs` registry — recorded lock-free by the
//! runtime — and the monitor reads it ([`QosMonitor::poll`]) instead of
//! recomputing its own statistics from raw message traffic.
//!
//! Pull mode is also how *failure detection* feeds the control plane: the
//! runtime's heartbeat failure detector exports its per-tick maximum
//! suspicion level into the shared `detector.phi` histogram, so an upper
//! contract on that metric turns node-failure suspicion into the same
//! compliance signal every other QoS dimension uses.

use crate::qos::{ComplianceTracker, QosContract};
use aas_obs::{Ewma, Histogram, HistogramHandle};
use aas_sim::time::SimTime;
use core::fmt;
use std::collections::BTreeMap;

/// Monitors one metric against one contract.
///
/// # Examples
///
/// ```
/// use aas_control::monitor::QosMonitor;
/// use aas_control::qos::QosContract;
/// use aas_sim::time::SimTime;
///
/// let mut m = QosMonitor::new(QosContract::upper("latency_ms", 100.0), 0.3);
/// m.observe(SimTime::from_secs(1), 80.0);
/// m.observe(SimTime::from_secs(2), 120.0); // violation begins here
/// m.observe(SimTime::from_secs(3), 120.0);
/// assert!(m.smoothed() > 80.0);
/// assert!(m.compliance().violation_fraction() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct QosMonitor {
    ewma: Ewma,
    source: MetricSource,
    compliance: ComplianceTracker,
    samples: u64,
}

/// Where a monitor's distribution lives.
#[derive(Debug, Clone)]
enum MetricSource {
    /// Push mode: the monitor owns its histogram and fills it from
    /// [`QosMonitor::observe`] calls.
    Own(Histogram),
    /// Pull mode: the distribution is a shared registry histogram the
    /// base level already records into; the monitor only reads it.
    Registry(HistogramHandle),
}

impl QosMonitor {
    /// A push-mode monitor for `contract` with EWMA smoothing factor
    /// `alpha`.
    #[must_use]
    pub fn new(contract: QosContract, alpha: f64) -> Self {
        QosMonitor {
            ewma: Ewma::new(alpha),
            source: MetricSource::Own(Histogram::new()),
            compliance: ComplianceTracker::new(contract),
            samples: 0,
        }
    }

    /// A pull-mode monitor reading an existing registry histogram (e.g.
    /// `runtime.e2e_latency_ms`) instead of accumulating its own copy.
    ///
    /// # Examples
    ///
    /// ```
    /// use aas_control::monitor::QosMonitor;
    /// use aas_control::qos::QosContract;
    /// use aas_obs::MetricsRegistry;
    /// use aas_sim::time::SimTime;
    ///
    /// let reg = MetricsRegistry::new();
    /// let lat = reg.histogram("runtime.e2e_latency_ms");
    /// let mut m =
    ///     QosMonitor::from_registry(QosContract::upper("lat", 100.0), 0.3, lat.clone());
    /// lat.observe(250.0); // the base level records; the monitor reads
    /// let p99 = m.poll(SimTime::from_secs(1));
    /// assert!(p99 > 100.0);
    /// assert!(m.compliance().violation_fraction() >= 0.0);
    /// ```
    #[must_use]
    pub fn from_registry(contract: QosContract, alpha: f64, source: HistogramHandle) -> Self {
        QosMonitor {
            ewma: Ewma::new(alpha),
            source: MetricSource::Registry(source),
            compliance: ComplianceTracker::new(contract),
            samples: 0,
        }
    }

    /// Feeds one observation (push mode; in pull mode the distribution is
    /// read from the registry, so only the smoothed signal and compliance
    /// are updated).
    pub fn observe(&mut self, at: SimTime, value: f64) {
        self.ewma.observe(value);
        if let MetricSource::Own(h) = &mut self.source {
            h.observe(value);
        }
        self.compliance.sample(at, value);
        self.samples += 1;
    }

    /// Pull-mode tick: reads the current p99 from the source histogram,
    /// feeds it into the smoothed signal and compliance, and returns it.
    /// Works in push mode too (reading the monitor's own histogram).
    pub fn poll(&mut self, at: SimTime) -> f64 {
        let p99 = self.quantile(0.99);
        self.ewma.observe(p99);
        self.compliance.sample(at, p99);
        self.samples += 1;
        p99
    }

    /// The EWMA-smoothed value.
    #[must_use]
    pub fn smoothed(&self) -> f64 {
        self.ewma.value()
    }

    /// Quantile of the monitored distribution — the monitor's own
    /// histogram in push mode, the shared registry histogram in pull mode.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        match &self.source {
            MetricSource::Own(h) => h.quantile(q),
            MetricSource::Registry(h) => h.quantile(q),
        }
    }

    /// The compliance tracker.
    #[must_use]
    pub fn compliance(&self) -> &ComplianceTracker {
        &self.compliance
    }

    /// Number of observations.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// A named collection of monitors.
#[derive(Debug, Clone, Default)]
pub struct MonitorSet {
    monitors: BTreeMap<String, QosMonitor>,
}

impl MonitorSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        MonitorSet::default()
    }

    /// Installs a push-mode monitor for `contract`, keyed by its metric
    /// name.
    pub fn install(&mut self, contract: QosContract, alpha: f64) {
        self.monitors
            .insert(contract.metric.clone(), QosMonitor::new(contract, alpha));
    }

    /// Installs a pull-mode monitor reading `source` from the shared
    /// registry, keyed by the contract's metric name.
    pub fn install_from_registry(
        &mut self,
        contract: QosContract,
        alpha: f64,
        source: HistogramHandle,
    ) {
        self.monitors.insert(
            contract.metric.clone(),
            QosMonitor::from_registry(contract, alpha, source),
        );
    }

    /// Polls every monitor at `at` (see [`QosMonitor::poll`]).
    pub fn poll_all(&mut self, at: SimTime) {
        for m in self.monitors.values_mut() {
            m.poll(at);
        }
    }

    /// Feeds an observation to the monitor for `metric`, if installed.
    pub fn observe(&mut self, metric: &str, at: SimTime, value: f64) {
        if let Some(m) = self.monitors.get_mut(metric) {
            m.observe(at, value);
        }
    }

    /// The monitor for `metric`.
    #[must_use]
    pub fn get(&self, metric: &str) -> Option<&QosMonitor> {
        self.monitors.get(metric)
    }

    /// Iterates over `(metric, monitor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &QosMonitor)> {
        self.monitors.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl fmt::Display for MonitorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, m) in &self.monitors {
            writeln!(
                f,
                "{name}: smoothed={:.3} p99={:.3} violation={:.1}%",
                m.smoothed(),
                m.quantile(0.99),
                m.compliance().violation_fraction() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_tracks_signal_and_compliance() {
        let mut m = QosMonitor::new(QosContract::upper("lat", 50.0), 0.5);
        for s in 0..10 {
            m.observe(SimTime::from_secs(s), 40.0);
        }
        assert!((m.smoothed() - 40.0).abs() < 1.0);
        assert_eq!(m.compliance().violation_fraction(), 0.0);
        for s in 10..20 {
            m.observe(SimTime::from_secs(s), 200.0);
        }
        assert!(m.smoothed() > 150.0);
        assert!(m.compliance().violation_fraction() > 0.3);
        assert_eq!(m.samples(), 20);
    }

    #[test]
    fn quantiles_come_from_all_samples() {
        let mut m = QosMonitor::new(QosContract::upper("lat", 1e9), 0.1);
        for i in 1..=100 {
            m.observe(SimTime::from_secs(i), f64::from(i as u32));
        }
        let p50 = m.quantile(0.5);
        assert!((p50 - 50.0).abs() < 5.0, "p50 {p50}");
    }

    #[test]
    fn monitor_set_routes_by_metric() {
        let mut set = MonitorSet::new();
        set.install(QosContract::upper("lat", 100.0), 0.2);
        set.install(QosContract::lower("fps", 24.0), 0.2);
        set.observe("lat", SimTime::from_secs(1), 50.0);
        set.observe("fps", SimTime::from_secs(1), 30.0);
        set.observe("unknown", SimTime::from_secs(1), 1.0); // ignored
        assert_eq!(set.get("lat").unwrap().samples(), 1);
        assert_eq!(set.get("fps").unwrap().samples(), 1);
        assert!(set.get("unknown").is_none());
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn pull_mode_reads_registry_histogram() {
        let reg = aas_obs::MetricsRegistry::new();
        let lat = reg.histogram("runtime.e2e_latency_ms");
        let mut m = QosMonitor::from_registry(QosContract::upper("lat", 100.0), 0.5, lat.clone());
        // The base level records into the shared histogram; the monitor
        // never sees the raw samples.
        for _ in 0..95 {
            lat.observe(10.0);
        }
        for _ in 0..5 {
            lat.observe(500.0);
        }
        let p99 = m.poll(SimTime::from_secs(1));
        assert!(p99 > 100.0, "p99 {p99} should see the tail");
        m.poll(SimTime::from_secs(2)); // violation time accrues between polls
        assert!(m.compliance().violation_fraction() > 0.0);
        assert_eq!(m.samples(), 2);
        // observe() in pull mode still drives the smoothed signal.
        m.observe(SimTime::from_secs(3), 20.0);
        assert_eq!(m.samples(), 3);
        // quantile still reads the shared distribution, not pushed values.
        assert!(m.quantile(0.5) < 15.0);
    }

    #[test]
    fn failure_suspicion_feeds_a_pull_mode_contract() {
        // The runtime exports the detector's max phi per tick into the
        // shared `detector.phi` histogram; a monitor with an upper
        // contract on it converts suspicion into contract compliance.
        let reg = aas_obs::MetricsRegistry::new();
        let phi = reg.histogram("detector.phi");
        let mut m =
            QosMonitor::from_registry(QosContract::upper("detector.phi", 2.0), 0.5, phi.clone());
        // Healthy cluster: heartbeats keep phi near zero.
        for _ in 0..20 {
            phi.observe(0.1);
        }
        m.poll(SimTime::from_secs(1));
        assert_eq!(m.compliance().violation_fraction(), 0.0);
        // A node goes silent: phi accrues past the threshold.
        for _ in 0..20 {
            phi.observe(4.5);
        }
        m.poll(SimTime::from_secs(2));
        m.poll(SimTime::from_secs(3));
        assert!(
            m.compliance().violation_fraction() > 0.0,
            "suspicion shows up as contract violation time"
        );
        assert!(m.quantile(0.99) > 2.0);
    }

    #[test]
    fn monitor_set_polls_registry_monitors() {
        let reg = aas_obs::MetricsRegistry::new();
        let rtt = reg.histogram("runtime.rtt_ms");
        rtt.observe(80.0);
        let mut set = MonitorSet::new();
        set.install_from_registry(QosContract::upper("rtt", 50.0), 0.2, rtt);
        set.poll_all(SimTime::from_secs(1));
        let m = set.get("rtt").unwrap();
        assert_eq!(m.samples(), 1);
        assert!(m.smoothed() > 50.0);
    }

    #[test]
    fn display_summarizes() {
        let mut set = MonitorSet::new();
        set.install(QosContract::upper("lat", 100.0), 0.2);
        set.observe("lat", SimTime::from_secs(1), 42.0);
        let text = set.to_string();
        assert!(text.contains("lat:"));
        assert!(text.contains("smoothed=42"));
    }
}
