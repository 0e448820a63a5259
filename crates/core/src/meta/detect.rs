//! The failure detector's loop: heartbeat transport over ordinary kernel
//! channels, phi-accrual suspicion, and the repair queue it feeds.

use super::{Loop, MetaLevel};
use crate::coverage::{DetectPhase, PlanOutcome};
use crate::detector::{DetectorConfig, DetectorEvent, FailureDetector};
use crate::runtime::{Door, Runtime};
use aas_obs::{AuditEvent, Gauge, Obs};
use aas_sim::channel::ChannelId;
use aas_sim::node::NodeId;
use aas_sim::time::SimTime;

/// One watched node: its heartbeat channel to the monitor node and its
/// `detector.phi.<node>` gauge (in a twin fork, one gauge no registry
/// names, shared by every watched node).
#[derive(Debug)]
struct Watched {
    node: NodeId,
    channel: ChannelId,
    phi: Gauge,
}

/// The failure detector plus its heartbeat transport and gauges, resolved
/// once when the detector is enabled (or forked into a twin, whose gauges
/// are its own).
#[derive(Debug)]
pub(crate) struct DetectorRt {
    pub(crate) detector: FailureDetector,
    /// Ascending by node id.
    watched: Vec<Watched>,
    suspected: Gauge,
}

impl DetectorRt {
    /// The detector a twin fork runs: the same state and heartbeat
    /// channels, its `suspected` gauge in `obs`, and one `phi` gauge no
    /// registry names for every watched node — nothing reads a fork's
    /// per-node `phi`.
    pub(super) fn fork(&self, obs: &Obs) -> Self {
        let phi = Gauge::new();
        DetectorRt {
            detector: self.detector.clone(),
            watched: self
                .watched
                .iter()
                .map(|w| Watched {
                    node: w.node,
                    channel: w.channel,
                    phi: phi.clone(),
                })
                .collect(),
            suspected: obs.metrics.gauge("detector.suspected"),
        }
    }
}

impl MetaLevel {
    /// Installs the detector in place of any earlier one. Every node other
    /// than the monitor is watched: each tick it emits a heartbeat over a
    /// kernel channel to the monitor node, so crashes and partitions
    /// starve the detector naturally. A node already sending to the same
    /// monitor keeps its channel.
    fn enable_detector(&mut self, door: &mut Door<'_>, config: DetectorConfig) {
        let (now, monitor, interval) = (door.now(), config.monitor, config.interval);
        let kept = self
            .detector
            .take()
            .filter(|d| d.detector.config().monitor == monitor)
            .map(|d| d.watched);
        let mut detector = FailureDetector::new(config);
        let nodes = door.view().node_count();
        let mut watched = Vec::with_capacity(nodes.saturating_sub(1));
        for i in 0..nodes {
            let node = NodeId(i as u32);
            if node == monitor {
                continue;
            }
            detector.watch(node, now);
            let channel = kept
                .iter()
                .flatten()
                .find(|w| w.node == node)
                .map_or_else(|| door.heartbeat_channel(node, monitor), |w| w.channel);
            watched.push(Watched {
                node,
                channel,
                phi: door.obs().metrics.gauge(&format!("detector.phi.{node}")),
            });
        }
        let suspected = door.obs().metrics.gauge("detector.suspected");
        self.detector = Some(DetectorRt {
            detector,
            watched,
            suspected,
        });
        self.start(door, Loop::Detect, interval);
    }

    /// A heartbeat from `node` reached the monitor at `at`.
    pub(crate) fn heartbeat(&mut self, node: NodeId, at: SimTime) {
        if let Some(drt) = self.detector.as_mut() {
            drt.detector.record_heartbeat(node, at);
        }
    }

    /// One detector period: emit heartbeats, re-evaluate suspicion, export
    /// `phi`, and queue suspects for repair.
    pub(super) fn detect(&mut self, door: &mut Door<'_>, now: SimTime) {
        let Some(drt) = self.detector.as_mut() else {
            return;
        };
        for w in &drt.watched {
            door.send_heartbeat(w.channel, w.node);
        }
        let events = drt.detector.evaluate(now);
        let mut max_phi: f64 = 0.0;
        let mut suspects = 0u32;
        for w in &drt.watched {
            let phi = drt.detector.phi(w.node, now);
            max_phi = max_phi.max(phi);
            w.phi.set(phi);
            suspects += u32::from(drt.detector.is_suspected(w.node));
        }
        self.phi.observe(max_phi);
        drt.suspected.set(f64::from(suspects));
        let policy = self.heal.policy.label();
        if events.is_empty() {
            // A quiet tick: the detect→plan→repair loop idled under the
            // policy in force — itself a coverage-worthy state.
            self.coverage
                .record(DetectPhase::Steady, policy, PlanOutcome::Observed);
        }
        for ev in events {
            match ev {
                DetectorEvent::Suspected(node, phi) => {
                    door.audit(AuditEvent::FailureSuspected { node: node.0, phi });
                    let incident = self.heal.incident(node);
                    incident.queued = true;
                    if let Some(crash_at) = incident.crashed_at {
                        self.mttd.observe(super::ms(now.saturating_since(crash_at)));
                    }
                }
                DetectorEvent::Restored(node) => {
                    self.coverage
                        .record(DetectPhase::Restored, policy, PlanOutcome::Observed);
                    door.audit(AuditEvent::FailureCleared { node: node.0 });
                }
            }
        }
    }
}

impl Runtime {
    /// Installs the heartbeat failure detector and starts its periodic
    /// tick; a second call replaces the first. Every node other than the
    /// monitor is watched: each tick it emits a heartbeat over an ordinary
    /// kernel channel to the monitor node, so crashes and partitions
    /// starve the detector naturally.
    pub fn enable_failure_detector(&mut self, config: DetectorConfig) {
        self.meta_call(|meta, door| meta.enable_detector(door, config));
    }

    /// The installed failure detector, if any.
    #[must_use]
    pub fn failure_detector(&self) -> Option<&FailureDetector> {
        self.meta().detector.as_ref().map(|d| &d.detector)
    }
}
