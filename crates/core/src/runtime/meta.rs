use super::*;

impl Runtime {
    // ------------------------------------------------------------------
    // RAML
    // ------------------------------------------------------------------

    /// Installs the meta-level and starts its periodic observation tick.
    pub fn install_raml(&mut self, raml: Raml) {
        let interval = raml.interval();
        self.raml = Some(raml);
        self.arm(interval, TimerPurpose::RamlTick);
    }

    /// The installed meta-level, if any.
    #[must_use]
    pub fn raml(&self) -> Option<&Raml> {
        self.raml.as_ref()
    }

    /// Takes a full introspection snapshot right now. It costs what it
    /// reads: one pass over the instance table (means and p99s are read
    /// from the histograms in place), one over the nodes, one over the
    /// connectors. Names are shared with the runtime, not copied, so the
    /// snapshot's four lists — components, nodes, connectors and custom
    /// means, each sized up front — are all it allocates.
    #[must_use]
    pub fn observe(&self) -> SystemSnapshot {
        let now = self.kernel.now();
        let topology = self.kernel.topology();
        let mut components = Vec::with_capacity(self.instances.len());
        let mut custom = Vec::with_capacity(self.instances.values().map(|i| i.custom.len()).sum());
        for inst in self.instances.values() {
            components.push(inst.observation());
            custom.extend(inst.custom.iter().map(|(metric, s)| CustomMean {
                component: inst.name.clone(),
                metric: metric.clone(),
                mean: s.mean(),
            }));
        }
        let mut nodes = Vec::with_capacity(topology.node_count());
        nodes.extend(topology.nodes().map(|n| node_observation(n, now)));
        let mut connectors = Vec::with_capacity(self.connectors.len());
        connectors.extend(self.connectors.iter().map(|(id, c)| ConnectorObservation {
            name: self.connectors.name(id).clone(),
            mediated: c.stats().mediated,
            violations: c.stats().violations,
            seq_anomalies: c.stats().seq_anomalies,
            mean_metered_latency_ms: c.stats().metered_latency.mean(),
        }));
        SystemSnapshot {
            at: now,
            components,
            nodes,
            connectors,
            custom,
            delivered: self.kernel.counter(KernelCounter::Delivered),
            dropped: self.m.dropped.get(),
        }
    }

    /// Applies the effects a handler of `from` buffered, in order, and
    /// hands the emptied buffer back for the next handler call. `request`
    /// is the request that handler was given, if it was given one: a
    /// reply to anything else goes nowhere.
    pub(super) fn apply_effects(
        &mut self,
        from: InstId,
        mut effects: Vec<Effect>,
        request: Option<&Request>,
        now: SimTime,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { port, message } => {
                    self.dispatch_send(from, &port, message);
                }
                Effect::Reply { value } => {
                    if let Some(req) = request {
                        let reply = Message::reply(req.id, &req.op, value);
                        self.route_reply(from, req.from, reply, now);
                    }
                }
                Effect::SetTimer { delay, tag } => {
                    self.arm(
                        delay,
                        TimerPurpose::ComponentTimer {
                            instance: from,
                            tag,
                        },
                    );
                }
                Effect::Metric { name, value } => {
                    let metrics = &self.obs.metrics;
                    if let Some(inst) = self.instances.get_mut(from) {
                        let owner = &inst.name;
                        inst.custom
                            .entry(name)
                            .or_insert_with_key(|key| {
                                metrics.histogram(&format!("comp.{owner}.{key}"))
                            })
                            .observe(value);
                    }
                }
            }
        }
        self.effects_buf = effects;
    }

    /// Shows RAML a fresh snapshot, carries out what its rules ask for and
    /// arms the next tick.
    pub(super) fn on_raml_tick(&mut self, now: SimTime) {
        let Some(mut raml) = self.raml.take() else {
            return;
        };
        let intercessions = raml.evaluate(&self.observe());
        let interval = raml.interval();
        self.raml = Some(raml);
        self.apply_intercessions(intercessions, PlanOrigin::Raml, now);
        self.arm(interval, TimerPurpose::RamlTick);
    }

    /// Carries out what the meta-level — RAML's rules, or the repair
    /// policy of a [`PlanOrigin::Repair`] — asked for. A plan goes through
    /// the engine under `origin`; a connector adaptation is the
    /// lightweight path: the new connector mediates the very next
    /// message, so a repair made that way is planned and complete here.
    pub(super) fn apply_intercessions(
        &mut self,
        intercessions: Vec<Intercession>,
        origin: PlanOrigin,
        now: SimTime,
    ) {
        for cmd in intercessions {
            match cmd {
                Intercession::Reconfigure(plan) => {
                    let _ = self.submit(plan, origin);
                }
                Intercession::AdaptConnector { name, spec } => {
                    let _ = self.adapt_connector(&name, spec);
                    if let PlanOrigin::Repair { node, label } = origin {
                        self.note_repair_planned(node, label, RepairBy::Connector(name), now);
                        self.complete_repair(None, node, label, &[], now);
                    }
                }
                Intercession::Notify(text) => self.notifications.push((now, text)),
            }
        }
    }
}

impl Instance {
    /// What the meta-level reads of this instance: its latency mean and
    /// p99 from the histogram in place, its names shared.
    pub(super) fn observation(&self) -> ComponentObservation {
        ComponentObservation {
            name: self.name.clone(),
            type_name: self.type_name.clone(),
            version: self.version,
            node: self.node,
            lifecycle: self.lifecycle,
            inflight: self.inflight,
            processed: self.processed,
            errors: self.errors,
            mean_latency_ms: self.latency.mean(),
            p99_latency_ms: self.latency.quantile(0.99),
            seq_anomalies: self.tracker.gaps() + self.tracker.duplicates(),
        }
    }
}

/// What the meta-level reads of node `n` at `now`.
pub(super) fn node_observation(n: &aas_sim::node::Node, now: SimTime) -> NodeObservation {
    NodeObservation {
        id: n.id(),
        up: n.is_up(),
        utilization: n.utilization(now),
        backlog_ms: n.backlog(now).as_micros() as f64 / 1e3,
        effective_capacity: n.effective_capacity(now),
    }
}
