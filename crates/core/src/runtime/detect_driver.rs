use super::*;

impl DetectorRt {
    /// Resolves the gauges of `detector`'s watched nodes in `obs`.
    pub(super) fn new(
        detector: FailureDetector,
        watched: impl IntoIterator<Item = (NodeId, ChannelId)>,
        obs: &Obs,
    ) -> Self {
        DetectorRt {
            detector,
            watched: watched
                .into_iter()
                .map(|(node, channel)| Watched {
                    node,
                    channel,
                    phi: obs.metrics.gauge(&format!("detector.phi.{node}")),
                })
                .collect(),
            suspected: obs.metrics.gauge("detector.suspected"),
        }
    }

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

impl Runtime {
    // ------------------------------------------------------------------
    // Self-healing: failure detection and repair
    // ------------------------------------------------------------------

    /// Installs the heartbeat failure detector and starts its periodic
    /// tick. Every node other than the monitor is watched: each tick it
    /// emits a heartbeat over an ordinary kernel channel to the monitor
    /// node, so crashes and partitions starve the detector naturally.
    pub fn enable_failure_detector(&mut self, config: DetectorConfig) {
        let now = self.kernel.now();
        let monitor = config.monitor;
        let interval = config.interval;
        let mut detector = FailureDetector::new(config);
        let mut watched = Vec::new();
        for i in 0..self.kernel.topology().node_count() {
            let node = NodeId(i as u32);
            if node == monitor {
                continue;
            }
            detector.watch(node, now);
            watched.push((node, self.kernel.open_channel(node, monitor)));
        }
        self.detector = Some(DetectorRt::new(detector, watched, &self.obs));
        self.arm(interval, TimerPurpose::DetectorTick);
    }

    /// The installed failure detector, if any.
    #[must_use]
    pub fn failure_detector(&self) -> Option<&FailureDetector> {
        self.detector.as_ref().map(|d| &d.detector)
    }

    /// One detector period: emit heartbeats, re-evaluate suspicion,
    /// export `phi`, and drive the repair queue.
    pub(super) fn on_detector_tick(&mut self, now: SimTime) {
        let Some(mut drt) = self.detector.take() else {
            return;
        };
        // Each watched node emits a heartbeat towards the monitor. A send
        // from a down node (or across a dead route) fails in the kernel —
        // that silence is exactly what accrues suspicion.
        for w in &drt.watched {
            let _ = self.kernel.send(w.channel, MsgRef::heartbeat(w.node), 16);
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
        self.m.phi.observe(max_phi);
        drt.suspected.set(f64::from(suspects));
        let interval = drt.detector.config().interval;
        self.detector = Some(drt);
        if events.is_empty() {
            // A quiet tick: the detect→plan→repair loop idled under the
            // policy in force — itself a coverage-worthy state.
            self.coverage.record(
                DetectPhase::Steady,
                self.heal.policy.label(),
                PlanOutcome::Observed,
            );
        }
        for ev in events {
            match ev {
                DetectorEvent::Suspected(node, phi) => {
                    let suspected = AuditEvent::FailureSuspected { node: node.0, phi };
                    self.obs.audit.append(now.as_micros(), suspected);
                    let incident = self.heal.incident(node);
                    incident.queued = true;
                    if let Some(crash_at) = incident.crashed_at {
                        self.m.mttd.observe(ms(now.saturating_since(crash_at)));
                    }
                }
                DetectorEvent::Restored(node) => {
                    self.coverage.record(
                        DetectPhase::Restored,
                        self.heal.policy.label(),
                        PlanOutcome::Observed,
                    );
                    let cleared = AuditEvent::FailureCleared { node: node.0 };
                    self.obs.audit.append(now.as_micros(), cleared);
                }
            }
        }
        self.try_repairs(now);
        self.arm(interval, TimerPurpose::DetectorTick);
    }
}
