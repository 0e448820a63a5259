//! What the meta-level sees of the runtime (DESIGN.md §2.1): one borrowed
//! [`View`] it reads the system through, and one [`Door`] every change it
//! makes passes. Both live here, inside `runtime`, so they see its fields;
//! the loops in [`crate::meta`] live outside and see only these two.

use super::*;
use crate::meta::MetaLevel;
use crate::raml::Observe;

/// The running system at one instant, read in place: the instance table,
/// the topology, the connectors and the plans in flight. It borrows and
/// keeps nothing; [`View::collect`] copies it into a [`SystemSnapshot`]
/// for readers outside the runtime.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    rt: &'a Runtime,
}

impl<'a> View<'a> {
    pub(crate) fn now(self) -> SimTime {
        self.rt.kernel.now()
    }

    /// Every live instance with its id, in name order.
    pub(crate) fn instances(self) -> impl Iterator<Item = (InstId, ComponentObservation)> + 'a {
        let instances = &self.rt.instances;
        instances.iter().map(|(id, inst)| (id, inst.observation()))
    }

    /// The ids of the live instances, in name order.
    pub(crate) fn live_ids(self) -> impl Iterator<Item = InstId> + 'a {
        self.rt.instances.live_ids()
    }

    /// Every name an instance ever bore, with its id, in name order.
    pub(crate) fn names(self) -> impl Iterator<Item = (InstId, &'a Name)> + 'a {
        let instances = &self.rt.instances;
        instances.ids().map(|id| (id, instances.name(id)))
    }

    pub(crate) fn id(self, name: &str) -> Option<InstId> {
        self.rt.instances.id(name)
    }

    pub(crate) fn name(self, id: InstId) -> &'a Name {
        self.rt.instances.name(id)
    }

    /// The node hosting whatever bears `id`'s name now.
    pub(crate) fn node_of(self, id: InstId) -> Option<NodeId> {
        self.rt.instances.get(id).map(|i| i.node)
    }

    pub(crate) fn node_count(self) -> usize {
        self.rt.kernel.topology().node_count()
    }

    /// Whether a node crash kills the instances it hosts.
    pub(crate) fn fail_stop(self) -> bool {
        self.rt.fail_stop
    }

    /// The messages the admission gate has been offered for `id`.
    pub(crate) fn offered(self, id: InstId) -> u64 {
        self.rt.gate.offered(id)
    }

    /// Every id the admission gate keeps a count for, with the count.
    pub(crate) fn offers(self) -> impl Iterator<Item = (InstId, u64)> + 'a {
        self.rt.gate.offers()
    }

    /// The origins of the plans in the engine: the active one, then the
    /// queued ones.
    pub(crate) fn in_flight(self) -> impl Iterator<Item = PlanOrigin> + 'a {
        self.rt.exec.in_flight()
    }

    /// The view as a snapshot: one pass over the instance table (means
    /// and p99s read from the histograms in place), one over the nodes,
    /// one over the connectors. Names are shared with the runtime, not
    /// copied, so the snapshot's four lists — components, nodes,
    /// connectors and custom means, each sized up front — are all it
    /// allocates.
    pub(crate) fn collect(self) -> SystemSnapshot {
        let rt = self.rt;
        let mut components = Vec::with_capacity(rt.instances.len());
        let mut custom = Vec::with_capacity(rt.instances.values().map(|i| i.custom.len()).sum());
        for inst in rt.instances.values() {
            components.push(inst.observation());
            custom.extend(inst.custom.iter().map(|(metric, s)| CustomMean {
                component: inst.name.clone(),
                metric: metric.clone(),
                mean: s.mean(),
            }));
        }
        let mut nodes = Vec::with_capacity(self.node_count());
        nodes.extend(self.nodes());
        let mut connectors = Vec::with_capacity(rt.connectors.len());
        connectors.extend(rt.connectors.iter().map(|(id, c)| ConnectorObservation {
            name: rt.connectors.name(id).clone(),
            mediated: c.stats().mediated,
            violations: c.stats().violations,
            seq_anomalies: c.stats().seq_anomalies,
            mean_metered_latency_ms: c.stats().metered_latency.mean(),
        }));
        SystemSnapshot {
            at: self.now(),
            components,
            nodes,
            connectors,
            custom,
            delivered: rt.kernel.counter(KernelCounter::Delivered),
            dropped: rt.m.dropped.get(),
        }
    }
}

impl Observe for View<'_> {
    fn at(&self) -> SimTime {
        self.now()
    }

    fn component(&self, name: &str) -> Option<ComponentObservation> {
        self.rt.instances.by_name(name).map(Instance::observation)
    }

    fn nodes(&self) -> impl Iterator<Item = NodeObservation> + '_ {
        let now = self.now();
        let topology = self.rt.kernel.topology();
        topology.nodes().map(move |n| node_observation(n, now))
    }

    fn node(&self, id: NodeId) -> Option<NodeObservation> {
        let topology = self.rt.kernel.topology();
        ((id.0 as usize) < topology.node_count())
            .then(|| node_observation(topology.node(id), self.now()))
    }

    fn hosted(&self, node: NodeId) -> impl Iterator<Item = ComponentObservation> + '_ {
        let hosted = self.rt.instances.values().filter(move |i| i.node == node);
        hosted.map(Instance::observation)
    }
}

impl Instance {
    /// What the meta-level reads of this instance: its latency mean and
    /// p99 from the histogram in place, its names shared.
    fn observation(&self) -> ComponentObservation {
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
fn node_observation(n: &aas_sim::node::Node, now: SimTime) -> NodeObservation {
    NodeObservation {
        id: n.id(),
        up: n.is_up(),
        utilization: n.utilization(now),
        backlog_ms: n.backlog(now).as_micros() as f64 / 1e3,
        effective_capacity: n.effective_capacity(now),
    }
}

/// The one way the meta-level changes the runtime: plans, connector
/// adaptation, notifications, heartbeats, the admission gate's throttles,
/// audit and metric records, and its own tick.
pub(crate) struct Door<'a> {
    rt: &'a mut Runtime,
}

impl Door<'_> {
    pub(crate) fn view(&self) -> View<'_> {
        self.rt.view()
    }

    pub(crate) fn now(&self) -> SimTime {
        self.rt.kernel.now()
    }

    /// Submits `plan` on behalf of `origin`. The report comes back if the
    /// plan ended inside the call; the caller books it, then
    /// [`Door::publish`]es it.
    pub(crate) fn submit(
        &mut self,
        plan: ReconfigPlan,
        origin: PlanOrigin,
    ) -> (ReconfigId, Option<ReconfigReport>) {
        self.rt.submit(plan, origin)
    }

    /// Adds the report of a plan that ended inside [`Door::submit`] to
    /// [`Runtime::reports`].
    pub(crate) fn publish(&mut self, report: ReconfigReport) {
        self.rt.exec.reports.push(report);
    }

    /// Interchanges a connector in place: the lightweight path.
    pub(crate) fn adapt_connector(&mut self, name: &str, spec: ConnectorSpec) {
        let _ = self.rt.adapt_connector(name, spec);
    }

    /// Hands `text` to the embedder ([`Runtime::drain_events`]).
    pub(crate) fn notify(&mut self, text: String) {
        let now = self.now();
        self.rt.notifications.push((now, text));
    }

    /// Opens a channel heartbeats from `node` travel to `monitor` on.
    pub(crate) fn heartbeat_channel(&mut self, node: NodeId, monitor: NodeId) -> ChannelId {
        self.rt.kernel.open_channel(node, monitor)
    }

    /// Sends `node`'s heartbeat on `channel`. A send from a down node (or
    /// across a dead route) fails in the kernel: that silence is what the
    /// detector reads.
    pub(crate) fn send_heartbeat(&mut self, channel: ChannelId, node: NodeId) {
        let _ = self.rt.kernel.send(channel, MsgRef::heartbeat(node), 16);
    }

    /// The metrics registry and the audit log.
    pub(crate) fn obs(&self) -> &Obs {
        &self.rt.obs
    }

    /// Appends `event` to the audit log, stamped now.
    pub(crate) fn audit(&self, event: AuditEvent) {
        self.rt.obs.audit.append(self.now().as_micros(), event);
    }

    /// Turns the admission gate on: from now on every delivery is counted
    /// and throttled.
    pub(crate) fn open_gate(&mut self) {
        let ids = self.rt.instances.ids().count();
        self.rt.gate.open(ids);
    }

    /// The throttle the admission gate applies to `id`, created neutral
    /// if nothing set one before.
    pub(crate) fn throttle(&mut self, id: InstId) -> &mut Throttle {
        self.rt.gate.throttle(id)
    }

    /// The id that stands for `name` for good, whether or not an
    /// instance bears it.
    pub(crate) fn intern(&mut self, name: &str) -> InstId {
        self.rt.instances.intern(name)
    }

    /// A digital twin of the runtime, its meta-level forked from `meta`
    /// (the one in place is taken out while the door is open).
    pub(crate) fn fork_twin(&self, meta: &MetaLevel) -> Option<Runtime> {
        self.rt.fork_with(meta)
    }

    /// Arms the meta tick to fire at `at`; a tick armed before it fires
    /// for nothing.
    pub(crate) fn arm_tick(&mut self, at: SimTime) {
        let delay = at.saturating_since(self.now());
        self.rt.meta_tick = Some(self.rt.arm(delay, TimerPurpose::MetaTick));
    }
}

impl Runtime {
    /// What the meta-level reads of the system right now.
    pub(crate) fn view(&self) -> View<'_> {
        View { rt: self }
    }

    /// The meta-level, in place.
    pub(crate) fn meta(&self) -> &MetaLevel {
        self.meta.as_ref().expect("the meta-level is in place")
    }

    pub(super) fn meta_mut(&mut self) -> &mut MetaLevel {
        self.meta.as_mut().expect("the meta-level is in place")
    }

    /// Runs `f` on the meta-level with the door open. The meta-level is
    /// taken out of the runtime for the call and put back after it.
    pub(crate) fn meta_call<R>(&mut self, f: impl FnOnce(&mut MetaLevel, &mut Door<'_>) -> R) -> R {
        let mut meta = self.meta.take().expect("the meta-level is in place");
        let out = f(&mut meta, &mut Door { rt: self });
        self.meta = Some(meta);
        out
    }

    /// The time of the next kernel event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.kernel.next_event_time()
    }

    /// Takes a full introspection snapshot right now: the meta-level's
    /// view, collected (`View::collect`).
    #[must_use]
    pub fn observe(&self) -> SystemSnapshot {
        self.view().collect()
    }
}
