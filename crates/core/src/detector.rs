//! Virtual-time heartbeat failure detection.
//!
//! The paper's §1 names fault tolerance as a primary driver of geographical
//! and structural reconfiguration — but repair needs *detection* first. This
//! module implements a phi-accrual-style failure detector (Hayashibara et
//! al.): every monitored node emits periodic heartbeats over ordinary kernel
//! channels, and the detector turns the time since the last heartbeat into a
//! continuous suspicion level `phi` instead of a binary timeout.
//!
//! With exponentially distributed inter-arrival assumptions,
//! `phi = log10(e) * elapsed / mean_interval`, so a configurable threshold
//! trades detection latency against false positives: a threshold of 2 fires
//! after ≈4.6 mean intervals, 3 after ≈6.9. The mean interval is tracked
//! per node with an exponential moving average, so network-jittered
//! heartbeats widen the window automatically.
//!
//! The detector is a pure state machine over virtual time — the
//! [`crate::runtime::Runtime`] owns heartbeat transport (sends from a
//! crashed or partitioned node fail in the kernel, which is exactly what
//! starves the detector) and feeds arrivals in via
//! [`FailureDetector::record_heartbeat`].

use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// log10(e): converts a survival exponent to a base-10 suspicion level.
const LOG10_E: f64 = std::f64::consts::LOG10_E;
/// Smoothing factor of the per-node mean-interval EWMA: moderate, so a
/// few jittered heartbeats widen the window without one outlier doing so.
const ALPHA: f64 = 0.2;

/// Configuration for the heartbeat failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Heartbeat (and evaluation) period.
    pub interval: SimDuration,
    /// Suspicion threshold: a node whose `phi` crosses this is suspected.
    pub threshold: f64,
    /// The node the heartbeats converge on. The monitor cannot suspect
    /// itself; deploy it on the most reliable node available.
    pub monitor: NodeId,
}

impl DetectorConfig {
    /// A detector with the given period and threshold, monitoring from
    /// `monitor`.
    #[must_use]
    pub fn new(interval: SimDuration, threshold: f64, monitor: NodeId) -> Self {
        DetectorConfig {
            interval,
            threshold,
            monitor,
        }
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::new(SimDuration::from_millis(100), 3.0, NodeId(0))
    }
}

/// A suspicion transition produced by [`FailureDetector::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorEvent {
    /// `phi` crossed the threshold: the node is now suspected, with the
    /// suspicion level at crossing time.
    Suspected(NodeId, f64),
    /// A suspected node's heartbeats resumed: suspicion withdrawn.
    Restored(NodeId),
}

#[derive(Debug, Clone)]
struct NodeTrack {
    last_heard: SimTime,
    mean_interval: SimDuration,
    suspected: bool,
}

impl NodeTrack {
    /// Suspicion level at `now`: grows linearly with silence under the
    /// exponential model.
    fn phi(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.last_heard).as_secs_f64();
        let mean = self.mean_interval.as_secs_f64().max(1e-9);
        LOG10_E * elapsed / mean
    }
}

/// Phi-accrual-style failure detector over virtual-time heartbeats.
///
/// # Examples
///
/// ```
/// use aas_core::detector::{DetectorConfig, DetectorEvent, FailureDetector};
/// use aas_sim::node::NodeId;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// let cfg = DetectorConfig::new(SimDuration::from_millis(100), 2.0, NodeId(0));
/// let mut d = FailureDetector::new(cfg);
/// d.watch(NodeId(1), SimTime::ZERO);
///
/// // Regular heartbeats: no suspicion.
/// for k in 1..=5 {
///     d.record_heartbeat(NodeId(1), SimTime::from_millis(100 * k));
/// }
/// assert!(d.evaluate(SimTime::from_millis(600)).is_empty());
///
/// // Silence: suspicion accrues until the threshold fires.
/// let events = d.evaluate(SimTime::from_millis(1200));
/// assert!(matches!(events[0], DetectorEvent::Suspected(NodeId(1), _)));
/// ```
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: DetectorConfig,
    /// Indexed by node id, `None` where a node is not watched: a heartbeat
    /// finds its track without a search, and walking the table visits the
    /// watched nodes in ascending id order.
    tracks: Vec<Option<NodeTrack>>,
}

impl FailureDetector {
    /// An empty detector; add nodes with [`Self::watch`].
    #[must_use]
    pub fn new(config: DetectorConfig) -> Self {
        FailureDetector {
            config,
            tracks: Vec::new(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Starts monitoring `node`, treating `now` as its first heartbeat.
    /// The table holds a slot for every id up to the largest watched.
    pub fn watch(&mut self, node: NodeId, now: SimTime) {
        let at = node.0 as usize;
        if at >= self.tracks.len() {
            self.tracks.resize_with(at + 1, || None);
        }
        self.tracks[at].get_or_insert(NodeTrack {
            last_heard: now,
            mean_interval: self.config.interval,
            suspected: false,
        });
    }

    fn track(&self, node: NodeId) -> Option<&NodeTrack> {
        self.tracks.get(node.0 as usize)?.as_ref()
    }

    /// The watched nodes' tracks, ascending by id.
    fn tracked(&self) -> impl Iterator<Item = (NodeId, &NodeTrack)> {
        self.tracks
            .iter()
            .enumerate()
            .filter_map(|(at, t)| Some((NodeId(at as u32), t.as_ref()?)))
    }

    /// Records a heartbeat from `node` at `now`, updating its interval
    /// estimate. Heartbeats from unwatched nodes are ignored.
    pub fn record_heartbeat(&mut self, node: NodeId, now: SimTime) {
        let Some(Some(t)) = self.tracks.get_mut(node.0 as usize) else {
            return;
        };
        let observed = now.saturating_since(t.last_heard).as_secs_f64();
        let mean = t.mean_interval.as_secs_f64();
        t.mean_interval = SimDuration::from_secs_f64(mean + ALPHA * (observed - mean));
        t.last_heard = now;
    }

    /// Current suspicion level of `node` at `now`; zero for unwatched
    /// nodes. Grows linearly with silence under the exponential model.
    #[must_use]
    pub fn phi(&self, node: NodeId, now: SimTime) -> f64 {
        self.track(node).map_or(0.0, |t| t.phi(now))
    }

    /// Whether `node` is currently suspected.
    #[must_use]
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.track(node).is_some_and(|t| t.suspected)
    }

    /// The suspected nodes, ascending by id.
    #[must_use]
    pub fn suspected(&self) -> Vec<NodeId> {
        self.tracked()
            .filter(|(_, t)| t.suspected)
            .map(|(n, _)| n)
            .collect()
    }

    /// The watched nodes, ascending by id.
    #[must_use]
    pub fn watched(&self) -> Vec<NodeId> {
        self.tracked().map(|(n, _)| n).collect()
    }

    /// Re-evaluates every watched node at `now`, returning the suspicion
    /// transitions since the previous evaluation (deterministic order:
    /// ascending node id).
    pub fn evaluate(&mut self, now: SimTime) -> Vec<DetectorEvent> {
        let threshold = self.config.threshold;
        let mut events = Vec::new();
        for (at, t) in self.tracks.iter_mut().enumerate() {
            let Some(t) = t else { continue };
            let node = NodeId(at as u32);
            let phi = t.phi(now);
            if phi >= threshold && !t.suspected {
                t.suspected = true;
                events.push(DetectorEvent::Suspected(node, phi));
            } else if phi < threshold && t.suspected {
                t.suspected = false;
                events.push(DetectorEvent::Restored(node));
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(threshold: f64) -> FailureDetector {
        let cfg = DetectorConfig::new(SimDuration::from_millis(100), threshold, NodeId(0));
        let mut d = FailureDetector::new(cfg);
        d.watch(NodeId(1), SimTime::ZERO);
        d.watch(NodeId(2), SimTime::ZERO);
        d
    }

    #[test]
    fn steady_heartbeats_keep_phi_low() {
        let mut d = detector(2.0);
        for k in 1..=20u64 {
            d.record_heartbeat(NodeId(1), SimTime::from_millis(100 * k));
            d.record_heartbeat(NodeId(2), SimTime::from_millis(100 * k));
        }
        let now = SimTime::from_millis(2050);
        assert!(d.phi(NodeId(1), now) < 1.0);
        assert!(d.evaluate(now).is_empty());
    }

    #[test]
    fn silence_accrues_suspicion_then_restores() {
        let mut d = detector(2.0);
        for k in 1..=10u64 {
            d.record_heartbeat(NodeId(1), SimTime::from_millis(100 * k));
            d.record_heartbeat(NodeId(2), SimTime::from_millis(100 * k));
        }
        // Node 1 goes silent; node 2 keeps beating.
        for k in 11..=20u64 {
            d.record_heartbeat(NodeId(2), SimTime::from_millis(100 * k));
        }
        let events = d.evaluate(SimTime::from_millis(2000));
        assert_eq!(events.len(), 1);
        let DetectorEvent::Suspected(node, phi) = events[0] else {
            panic!("expected suspicion, got {:?}", events[0]);
        };
        assert_eq!(node, NodeId(1));
        assert!(phi >= 2.0);
        assert!(d.is_suspected(NodeId(1)));
        assert!(!d.is_suspected(NodeId(2)));
        assert_eq!(d.suspected(), vec![NodeId(1)]);

        // Suspicion fires once, not repeatedly.
        assert!(d.evaluate(SimTime::from_millis(2100)).is_empty());

        // Heartbeats resume: suspicion withdrawn.
        d.record_heartbeat(NodeId(1), SimTime::from_millis(2200));
        let events = d.evaluate(SimTime::from_millis(2250));
        assert_eq!(events, vec![DetectorEvent::Restored(NodeId(1))]);
        assert!(!d.is_suspected(NodeId(1)));
    }

    #[test]
    fn threshold_trades_latency_for_confidence() {
        // A higher threshold needs strictly more silence to fire.
        let fire_time = |threshold: f64| -> u64 {
            let cfg = DetectorConfig::new(SimDuration::from_millis(100), threshold, NodeId(0));
            let mut d = FailureDetector::new(cfg);
            d.watch(NodeId(1), SimTime::ZERO);
            for k in 1..=10u64 {
                d.record_heartbeat(NodeId(1), SimTime::from_millis(100 * k));
            }
            let mut t = 1000;
            loop {
                t += 50;
                if !d.evaluate(SimTime::from_millis(t)).is_empty() {
                    return t;
                }
                assert!(t < 60_000, "never fired");
            }
        };
        assert!(fire_time(1.0) < fire_time(3.0));
    }

    #[test]
    fn jittery_heartbeats_widen_the_window() {
        let mut slow = detector(2.0);
        // Heartbeats arriving at half pace pull the mean interval up, so
        // the same absolute silence yields a lower phi.
        for k in 1..=10u64 {
            slow.record_heartbeat(NodeId(1), SimTime::from_millis(200 * k));
        }
        let tight = detector(2.0);
        let probe_gap = SimDuration::from_millis(300);
        let slow_phi = slow.phi(NodeId(1), SimTime::from_millis(2000) + probe_gap);
        let tight_phi = tight.phi(NodeId(1), SimTime::ZERO + probe_gap);
        assert!(slow_phi < tight_phi, "{slow_phi} vs {tight_phi}");
    }

    #[test]
    fn events_come_out_in_ascending_node_order_across_gaps() {
        let cfg = DetectorConfig::new(SimDuration::from_millis(100), 2.0, NodeId(0));
        let mut d = FailureDetector::new(cfg);
        for n in [40, 7, 2] {
            d.watch(NodeId(n), SimTime::ZERO);
        }
        let ids = |ns: Vec<NodeId>| ns.into_iter().map(|n| n.0).collect::<Vec<_>>();
        assert_eq!(ids(d.watched()), [2, 7, 40]);
        let events = d.evaluate(SimTime::from_secs(2));
        let suspected: Vec<u32> = events
            .iter()
            .map(|e| match e {
                DetectorEvent::Suspected(n, _) => n.0,
                DetectorEvent::Restored(n) => panic!("{n} was never suspected"),
            })
            .collect();
        assert_eq!(suspected, [2, 7, 40]);
        assert_eq!(ids(d.suspected()), [2, 7, 40]);
        assert!(!d.is_suspected(NodeId(3)) && !d.is_suspected(NodeId(41)));

        for n in [40, 2] {
            d.record_heartbeat(NodeId(n), SimTime::from_millis(2_050));
        }
        assert_eq!(
            d.evaluate(SimTime::from_millis(2_100)),
            [
                DetectorEvent::Restored(NodeId(2)),
                DetectorEvent::Restored(NodeId(40))
            ]
        );
        assert_eq!(ids(d.suspected()), [7]);
    }

    #[test]
    fn unwatched_nodes_are_inert() {
        let mut d = detector(2.0);
        d.record_heartbeat(NodeId(9), SimTime::from_secs(1));
        assert_eq!(d.phi(NodeId(9), SimTime::from_secs(10)), 0.0);
        assert!(!d.is_suspected(NodeId(9)));
        assert_eq!(d.watched(), vec![NodeId(1), NodeId(2)]);
    }
}
