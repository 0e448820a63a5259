//! The component runtime: hosts instances, mediates messages through
//! connectors, and executes reconfiguration plans with quiescence, channel
//! blocking and state transfer.
//!
//! The runtime drives an [`aas_sim::Kernel`] event loop. Application
//! messages travel as envelopes over kernel channels; processing cost
//! is charged to the hosting node (so overload produces queueing delay);
//! and the meta-level (`crate::meta`) observes the whole system on a
//! periodic meta-protocol tick, through the view and the door in `door`.
//!
//! # Transactional reconfiguration protocol
//!
//! Executing a [`ReconfigPlan`] is a *transaction* (a `PlanTxn`, private
//! to the `exec` submodule)
//! over the configuration graph, combining the Polylith-style channel
//! discipline the paper describes — "waiting to reach a reconfiguration
//! point; and blocking communication channels (to manage the messages in
//! transit) while the module context is encoded and a new module is
//! created" — with Kramer & Magee-style quiescence and full rollback:
//!
//! 1. **Validate**: the plan is checked against the current configuration
//!    graph before any mutation (unknown components/nodes, duplicate adds,
//!    interface-incompatible swaps and rebinds, dead or overloaded
//!    migration targets, removals that would strand bindings). Structurally
//!    impossible plans are *rejected* — audited, reported, never started.
//! 2. **Quiesce/Block**: for each disruptive action, all channels
//!    delivering into the target are blocked and the target drains to its
//!    reconfiguration point (`Quiescing` → `Quiescent`). Held messages are
//!    kept, not lost, and targets stay blocked until the whole plan
//!    resolves so rollback restores exactly the pre-plan picture.
//! 3. **Apply (journaled)**: each action asks its structural check again
//!    against the graph as it now stands, is applied, and a compensating
//!    inverse is journaled (re-insert the captured instance/binding/
//!    connector, migrate back, restore the previous implementation).
//!    Channel closures implied by removals are *deferred to commit*.
//! 4. **Commit / Rollback**: when every action has applied, deferred
//!    closures run, blocked channels release their held messages in order,
//!    and targets return to `Active` — the block→release window is each
//!    component's *blackout*. If any action fails mid-flight, the journal
//!    is replayed in reverse (each undo audited as `action_compensated`),
//!    blocked channels are released, and the configuration graph is
//!    exactly as the plan found it.
//!
//! Queued plans are re-validated at dequeue time: a plan that was
//! submitted against a graph later changed by an aborted or competing
//! plan is rejected instead of executed blindly.
//!
//! # What the runtime reports
//!
//! Each fact the runtime records is kept once: plan outcomes in
//! [`Runtime::reports`] and the audit log ([`Runtime::obs`]); deliveries,
//! drops and handler errors in [`Runtime::metrics`] and the metrics
//! registry; applied faults in [`Runtime::kernel_counters`]; what each
//! component, node and connector reads in [`Runtime::observe`].
//! [`Runtime::drain_events`] hands over the one thing kept nowhere else:
//! the texts RAML `Notify` intercessions address to the embedder.
//!
//! # Module map
//!
//! The runtime is layered into focused submodules (DESIGN.md §2.1):
//! this facade owns the state, construction, the kernel event loop and
//! introspection; [`mod@self`]'s children own the rest —
//! `structure` (deployment and structural edits), `table` (the
//! name-indexed slot tables instances and connectors live in, so that the
//! message path indexes by id and only the write path looks names up),
//! `arena` (the messages in flight, each stored once and passed around
//! as a 4-byte handle), `dispatch` (message routing, retries, replies,
//! handler effects and the admission gate), `exec` (the transactional
//! plan engine),
//! `validate` (the structural rules, and the up-front validation pass
//! that asks them of a whole plan), `door` (the meta-level's borrowed
//! view of the runtime and its one door into it), `twin` (forking the
//! runtime into a digital twin), `metrics` (aggregate metric handles)
//! and `invariants` (the runtime's check of its own books). The
//! meta-level's four loops — RAML, failure detection, self-healing and
//! negotiation — live outside, in `crate::meta`.

use crate::component::{CallCtx, Component, Effect, Lifecycle};
use crate::config::{BindingDecl, ComponentDecl, Configuration};
use crate::connector::{Connector, ConnectorId, ConnectorSpec};
use crate::error::RuntimeError;
use crate::message::{
    self, IdleRelease, Message, MessageId, MessageKind, Name, SequenceTracker, Value,
};
use crate::meta::MetaLevel;
use crate::raml::{
    ComponentObservation, ConnectorObservation, CustomMean, NodeObservation, SystemSnapshot,
};
use crate::reconfig::{ReconfigAction, ReconfigId, ReconfigPlan, ReconfigReport, StateTransfer};
use crate::registry::{ImplementationRegistry, Props};
use aas_obs::{AuditEvent, HistogramHandle, Obs, PlanTally};
use aas_sim::channel::ChannelId;
use aas_sim::fault::FaultKind;
use aas_sim::kernel::{Fired, Kernel, KernelCounter};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

mod arena;
mod dispatch;
mod door;
mod exec;
mod invariants;
mod metrics;
mod structure;
mod table;
#[cfg(test)]
mod tests;
mod twin;
mod validate;

pub use crate::meta::{
    AgentProfile, CoordinationMode, NegotiateConfig, TwinConfig, TwinPrediction, TWIN_AGENT,
};
pub use arena::InFlight;
pub use invariants::Violation;
pub use metrics::{RouteStats, RuntimeMetrics};

pub(crate) use dispatch::Throttle;
pub(crate) use door::{Door, View};
pub(crate) use exec::PlanOrigin;
pub(crate) use table::{InstId, SlotId};

use arena::{Arena, MsgRef, Slots, Stage};
use dispatch::Gate;
use exec::ExecState;
use metrics::{DropCause, MetricHandles};
use table::{ConnId, Table};

/// The sender name used for injected (external) workload messages.
pub const EXTERNAL: &str = "external";

/// Milliseconds represented by a sim duration — the workspace-wide unit
/// for latency metrics.
pub(crate) fn ms(d: SimDuration) -> f64 {
    d.as_micros() as f64 / 1e3
}

/// A message in flight between two component instances, stored once in
/// the runtime's [`Arena`]. It names its endpoints and its connector by
/// table id, so it reaches whatever bears those names when it arrives.
#[derive(Debug, Clone)]
struct Envelope {
    msg: Message,
    /// The sender (the runtime's `external` id for injected workload); a
    /// reply to `msg` is routed back here.
    from: InstId,
    to: InstId,
    extra_cost: f64,
    /// Connector that mediated this copy, if any.
    via: Option<ConnId>,
    /// How many times this copy has already been (re)sent.
    attempt: u32,
}

/// What an [`Effect::Reply`] needs of the request a handler was given,
/// saved at hand-off: the handler owns the message itself.
#[derive(Debug)]
struct Request {
    /// The requester, where the reply goes.
    from: InstId,
    id: MessageId,
    op: Name,
}

#[derive(Debug)]
struct Instance {
    name: Name,
    node: NodeId,
    /// The registry's own copy of the implementation's name, shared by
    /// every instance of it.
    type_name: Name,
    version: u32,
    /// Written once by `add_component`; a twin fork shares it.
    props: Arc<Props>,
    component: Box<dyn Component>,
    lifecycle: Lifecycle,
    inflight: u32,
    processed: u64,
    errors: u64,
    /// Handle into the shared registry (`comp.<name>.latency_ms`); in a
    /// twin fork, a histogram no registry names.
    latency: HistogramHandle,
    tracker: SequenceTracker,
    /// Handles into the shared registry (`comp.<name>.<metric>`), interned
    /// per custom metric name; in a twin fork, those the original had
    /// when forked are histograms no registry names.
    custom: BTreeMap<Name, HistogramHandle>,
    blocked_at: Option<SimTime>,
    /// The channel injected workload arrives on.
    external: ChannelId,
    /// The bindings rooted at this instance's required ports, sorted by
    /// port name. Only `put_binding` / `take_binding` write it.
    ports: Vec<BindingRt>,
}

impl Instance {
    /// Index into `ports` of the binding at `port`, or where it would go.
    fn port(&self, port: &str) -> Result<usize, usize> {
        self.ports
            .binary_search_by(|b| b.decl.from.1.as_str().cmp(port))
    }
}

/// A binding as the dispatch path reads it: the declaration's names
/// resolved to table ids when it was wired.
#[derive(Debug, Clone)]
struct BindingRt {
    /// Written once by `add_binding`; a twin fork shares it.
    decl: Arc<BindingDecl>,
    via: ConnId,
    /// One `(target, channel)` per `decl.to` entry, in its order.
    targets: Vec<(InstId, ChannelId)>,
}

/// What a kernel timer the runtime armed for itself is for. (A timer that
/// belongs to a message in flight is tagged with the message's handle
/// instead and has no entry here.)
#[derive(Debug, Clone, Copy)]
enum TimerPurpose {
    ComponentTimer {
        instance: InstId,
        tag: u64,
    },
    TransferDone,
    /// The meta-level's periodic tick (see [`crate::meta`]).
    MetaTick,
}

const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<TimerPurpose>();
    assert!(std::mem::size_of::<TimerPurpose>() <= 16);
};

/// The component runtime.
///
/// # Examples
///
/// ```
/// use aas_core::component::EchoComponent;
/// use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
/// use aas_core::connector::ConnectorSpec;
/// use aas_core::message::{Message, Value};
/// use aas_core::registry::ImplementationRegistry;
/// use aas_core::runtime::Runtime;
/// use aas_sim::network::Topology;
/// use aas_sim::node::NodeId;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut registry = ImplementationRegistry::new();
/// registry.register("Echo", 1, |_| Box::new(EchoComponent::default()));
///
/// let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
/// let mut rt = Runtime::new(topo, 42, registry);
///
/// let mut cfg = Configuration::new();
/// cfg.component("echo", ComponentDecl::new("Echo", 1, NodeId(0)));
/// rt.deploy(&cfg)?;
///
/// rt.inject("echo", Message::request("echo", Value::from("hi")))?;
/// rt.run_until(SimTime::from_secs(1));
/// let replies = rt.take_outbox();
/// assert_eq!(replies.len(), 1);
/// assert_eq!(replies[0].1.value, Value::from("hi"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runtime {
    kernel: Kernel<MsgRef>,
    /// Every message in flight; the kernel, its held queues and the
    /// message timers carry handles into it.
    arena: Arena,
    registry: ImplementationRegistry,
    /// The configuration graph (DESIGN.md §2.1): instances with their
    /// outgoing bindings, and connectors, each addressed by table id.
    instances: Table<InstId, Instance>,
    connectors: Table<ConnId, Connector>,
    /// The id of the [`EXTERNAL`] sender, which bears no instance.
    external: InstId,
    /// Reply channels by `(replier, requester)`, opened on first use.
    reply_channels: BTreeMap<(InstId, InstId), ChannelId>,
    /// What each pending kernel timer of the runtime's own is for; the
    /// timer's tag is the slot.
    timers: Slots<TimerPurpose>,
    /// Per-flow send sequence numbers by `(sender, target)`.
    flow_seq: BTreeMap<(InstId, InstId), u64>,
    /// The one effects buffer every handler call fills and
    /// `apply_effects` drains.
    effects_buf: Vec<Effect>,
    /// Send times of requests still awaiting their reply.
    pending_requests: BTreeMap<MessageId, SimTime>,
    next_msg_id: u64,
    next_connector_id: u64,
    pending_connector_swaps: BTreeMap<ConnId, ConnectorSpec>,
    /// Transactional plan-execution state (see [`exec`]).
    exec: ExecState,
    /// The admission gate the negotiator throttles.
    gate: Gate,
    /// Whether a node crash kills its hosted instances (fail-stop).
    fail_stop: bool,
    /// The meta-level, taken out while [`Runtime::meta_call`] runs it.
    meta: Option<MetaLevel>,
    /// The timer slot of the one meta tick that counts; an earlier one
    /// that has not fired yet fires for nothing.
    meta_tick: Option<u32>,
    /// What RAML's `Notify` intercessions asked to hand the embedder,
    /// until [`Runtime::drain_events`] takes it.
    notifications: Vec<(SimTime, String)>,
    outbox: Vec<(SimTime, Message)>,
    obs: Obs,
    m: MetricHandles,
    /// Debug builds: the first violation of each invariant the check after
    /// every event found, at that event's time; `None` on a twin fork,
    /// whose throwaway log never balances.
    first_violations: Option<Vec<Violation>>,
    /// Last, so that it drops after every map the runtime holds: frees
    /// the thread's idle payload buffers (see [`message::Fields`]).
    _idle: IdleRelease,
}

impl Runtime {
    /// Creates a runtime over `topology`, seeded for determinism, with the
    /// given implementation registry.
    #[must_use]
    pub fn new(topology: Topology, seed: u64, registry: ImplementationRegistry) -> Self {
        let obs = Obs::new();
        let m = MetricHandles::new(&obs);
        let mut kernel = Kernel::new(topology, seed);
        // A full region map is what region-scoped routing needs; a
        // topology without one keeps the flat cache.
        if kernel.topology().region_count() > 0 && kernel.topology().regions_fully_assigned() {
            kernel.enable_hier_routing();
        }
        let mut instances = Table::new();
        let external = instances.intern(EXTERNAL);
        Runtime {
            kernel,
            arena: Arena::new(),
            registry,
            instances,
            connectors: Table::new(),
            external,
            reply_channels: BTreeMap::new(),
            timers: Slots::new(),
            flow_seq: BTreeMap::new(),
            effects_buf: Vec::new(),
            pending_requests: BTreeMap::new(),
            next_msg_id: 1,
            next_connector_id: 1,
            pending_connector_swaps: BTreeMap::new(),
            exec: ExecState::default(),
            gate: Gate::default(),
            fail_stop: false,
            meta: Some(MetaLevel::new(&obs)),
            meta_tick: None,
            notifications: Vec::new(),
            outbox: Vec::new(),
            obs,
            m,
            first_violations: Some(Vec::new()),
            _idle: IdleRelease,
        }
    }

    // ------------------------------------------------------------------
    // Workload
    // ------------------------------------------------------------------

    /// Injects an external message to `target` right now, returning the
    /// assigned message id.
    ///
    /// # Errors
    ///
    /// Fails if `target` does not exist.
    pub fn inject(&mut self, target: &str, msg: Message) -> Result<MessageId, RuntimeError> {
        let target = self
            .instances
            .id(target)
            .ok_or_else(|| RuntimeError::UnknownComponent(target.to_owned()))?;
        let r = self.park_injection(target, msg);
        Ok(self.launch(r).expect("target is live"))
    }

    /// Stores an external message for `target`, to be launched now or
    /// when its timer fires.
    fn park_injection(&mut self, target: InstId, msg: Message) -> MsgRef {
        let env = Envelope {
            msg,
            from: self.external,
            to: target,
            extra_cost: 0.0,
            via: None,
            attempt: 0,
        };
        self.arena.insert(env, Stage::Inject)
    }

    /// Sends a parked injection to whatever bears its target's name now;
    /// `None`, and the message is dropped, if nothing does.
    fn launch(&mut self, r: MsgRef) -> Option<MessageId> {
        let Some(inst) = self.instances.get(self.arena[r].to) else {
            self.drop_unaddressed(r);
            return None;
        };
        let ch = inst.external;
        self.arena.set_stage(r, Stage::Transit);
        self.stamp(r);
        let msg = &self.arena[r].msg;
        let (id, size) = (msg.id, msg.wire_size());
        self.send_on(ch, r, size);
        Some(id)
    }

    /// Schedules an external message for `delay` from now.
    ///
    /// # Errors
    ///
    /// Fails if `target` does not exist.
    pub fn inject_after(
        &mut self,
        delay: SimDuration,
        target: &str,
        msg: Message,
    ) -> Result<(), RuntimeError> {
        let target = self
            .instances
            .id(target)
            .ok_or_else(|| RuntimeError::UnknownComponent(target.to_owned()))?;
        let r = self.park_injection(target, msg);
        self.arm_message(delay, r);
        Ok(())
    }

    /// Schedules `purpose` for `delay` from now; returns the timer's slot.
    fn arm(&mut self, delay: SimDuration, purpose: TimerPurpose) -> u32 {
        let tag = self.timers.insert(purpose);
        self.kernel.set_timer_with_tag(delay, u64::from(tag));
        tag
    }

    /// Schedules the one timer of the stored message `r`; what it means
    /// when it fires is `r`'s stage then.
    fn arm_message(&mut self, delay: SimDuration, r: MsgRef) {
        self.kernel.set_timer_with_tag(delay, r.timer_tag());
    }

    /// How many messages are in flight right now, by where they are.
    /// With message conservation this closes the books at any instant:
    /// everything sent is delivered, dropped, shed or counted here.
    #[must_use]
    pub fn in_flight(&self) -> InFlight {
        self.arena.in_flight()
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Processes one kernel event; returns its time, or `None` when idle.
    /// A step of its own is not a call: the payload maps it builds and
    /// drops reuse the thread's idle buffers as the application's own do,
    /// and nothing trims them until a [`Runtime::run_until`] returns. A
    /// debug build then checks the books ([`Runtime::check_invariants`]).
    pub fn step(&mut self) -> Option<SimTime> {
        let (at, fired) = self.kernel.step()?;
        match fired {
            Fired::Delivered { msg, .. } => match msg.as_heartbeat() {
                Some(node) => self.meta_mut().heartbeat(node, at),
                None => self.on_delivered(msg),
            },
            Fired::Timer { tag } => self.on_timer(tag, at),
            Fired::Fault(kind) => self.on_topology_fault(kind, at),
            Fired::Dropped { msg, reason, .. } => {
                // A lost heartbeat *is* the detection signal, not loss.
                if msg.as_heartbeat().is_none() {
                    self.m.count_cause(&self.obs, DropCause::Kernel(reason));
                    self.on_dropped(msg);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_event(at);
        Some(at)
    }

    /// Runs until no event at or before `deadline` remains, as one call:
    /// payload maps built and dropped during it reuse the thread's
    /// buffers, and when it returns the thread keeps only the idle ones
    /// the next call and the frames built before it may take.
    pub fn run_until(&mut self, deadline: SimTime) {
        message::in_call(|| {
            while self.kernel.next_event_time().is_some_and(|t| t <= deadline) {
                let _ = self.step();
            }
        });
    }

    /// Runs for `d` of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.kernel.now() + d;
        self.run_until(deadline);
    }

    fn on_timer(&mut self, tag: u64, now: SimTime) {
        if let Some(r) = MsgRef::from_timer_tag(tag) {
            return self.on_message_timer(r, now);
        }
        let tag = u32::try_from(tag).expect("a tag `arm` gave");
        let purpose = *self.timers.get(tag);
        self.timers.free(tag);
        match purpose {
            TimerPurpose::ComponentTimer { instance, tag } => {
                if let Some(inst) = self.instances.get_mut(instance) {
                    let buf = std::mem::take(&mut self.effects_buf);
                    let mut ctx = CallCtx::with_buffer(now, &inst.name, buf);
                    inst.component.on_timer(&mut ctx, tag);
                    let effects = ctx.into_effects();
                    self.apply_effects(instance, effects, None, now);
                }
            }
            TimerPurpose::TransferDone => self.advance_reconfig(),
            TimerPurpose::MetaTick => {
                if self.meta_tick == Some(tag) {
                    self.meta_tick = None;
                    self.meta_call(|meta, door| meta.on_tick(door, now));
                }
            }
        }
    }

    /// The timer of the stored message `r` fired.
    fn on_message_timer(&mut self, r: MsgRef, now: SimTime) {
        match self.arena.stage(r) {
            Some(Stage::InService) => self.on_job_done(r, now),
            Some(Stage::Retry) => self.resend(r),
            Some(Stage::Inject) => {
                let _ = self.launch(r);
            }
            // The job was cancelled when its host crashed; only now does
            // nothing refer to the slot any more.
            None => self.arena.free(r),
            Some(Stage::Transit) => unreachable!("a message in transit has no timer"),
        }
    }

    /// A node crashed or came back. A crash opens (or extends) the
    /// node's incident, cancels the handler jobs queued there and, under
    /// fail-stop, kills its instances; a return lets the heal loop plan
    /// what the outage left to repair.
    fn on_topology_fault(&mut self, kind: FaultKind, now: SimTime) {
        match kind {
            FaultKind::NodeCrash(node) => {
                self.meta_mut().heal.crashed(node, now);
                self.cancel_jobs_on(node, now);
                if self.fail_stop {
                    for inst in self.instances.values_mut() {
                        if inst.node == node && inst.lifecycle == Lifecycle::Active {
                            inst.lifecycle = Lifecycle::Failed;
                        }
                    }
                }
            }
            FaultKind::NodeRecover(node) => {
                self.meta_call(|meta, door| meta.recovered(door, node, now));
            }
            FaultKind::LinkDown(_) | FaultKind::LinkUp(_) => {}
        }
    }

    /// Handler jobs queued on a crashing node are cancelled here, each
    /// one counted, with an audit entry per affected instance.
    fn cancel_jobs_on(&mut self, node: NodeId, now: SimTime) {
        let instances = &mut self.instances;
        let mut lost: BTreeMap<Name, u64> = BTreeMap::new();
        self.arena
            .cancel_in_service(|env| match instances.get_mut(env.to) {
                Some(inst) if inst.node == node => {
                    inst.inflight = inst.inflight.saturating_sub(1);
                    *lost.entry(inst.name.clone()).or_insert(0) += 1;
                    true
                }
                _ => false,
            });
        let mut drained = false;
        for (instance, count) in &lost {
            self.m.dropped.add(*count);
            self.m.dropped_on_crash.add(*count);
            let dropped = AuditEvent::DroppedOnCrash {
                instance: instance.clone(),
                jobs: *count,
                node: node.0,
            };
            self.obs.audit.append(now.as_micros(), dropped);
            if let Some(inst) = self.instances.by_name_mut(instance) {
                if inst.lifecycle == Lifecycle::Quiescing && inst.inflight == 0 {
                    inst.lifecycle = Lifecycle::Quiescent;
                    drained = true;
                }
            }
        }
        if drained {
            self.advance_reconfig();
        }
    }

    // ------------------------------------------------------------------
    // Introspection helpers
    // ------------------------------------------------------------------

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The topology (read access).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.kernel.topology()
    }

    /// Injects a fault schedule into the underlying kernel.
    pub fn inject_faults(&mut self, schedule: aas_sim::fault::FaultSchedule) {
        self.kernel.inject_faults(schedule);
    }

    /// Aggregated runtime metrics, assembled on demand from the shared
    /// `aas-obs` registry.
    #[must_use]
    pub fn metrics(&self) -> RuntimeMetrics {
        RuntimeMetrics {
            e2e_latency: self.m.e2e_latency.snapshot(),
            rtt: self.m.rtt.snapshot(),
            delivered: self.m.delivered.get(),
            unrouted: self.m.unrouted.get(),
            dropped: self.m.dropped.get(),
            handler_errors: self.m.handler_errors.get(),
            dropped_on_crash: self.m.dropped_on_crash.get(),
            retries: self.m.retries.get(),
            shed: self.m.shed.get(),
            mttd_ms: self.meta().mttd.snapshot(),
            mttr_ms: self.meta().mttr.snapshot(),
        }
    }

    /// What routing has cost since this runtime was created (a twin fork
    /// starts from zero): every send's route, and every migration's, whose
    /// state transfer is priced by the same router.
    #[must_use]
    pub fn route_stats(&self) -> RouteStats {
        match self.kernel.hier_stats() {
            Some(h) => RouteStats {
                hits: h.hits,
                misses: h.misses,
                searches: h.overlay_queries + h.full_fallbacks,
                settled: h.settled,
                cell_rebuilds: h.cell_rebuilds,
                stale_evictions: h.stale_evictions,
            },
            None => {
                let f = self.kernel.route_cache_stats();
                RouteStats {
                    hits: f.hits,
                    misses: f.misses,
                    searches: f.misses,
                    settled: f.settled,
                    cell_rebuilds: 0,
                    stale_evictions: f.invalidations,
                }
            }
        }
    }

    /// The runtime's telemetry bundle: shared metrics registry and the
    /// reconfiguration audit log.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Kernel-level counters (`sent`, `delivered`, `dropped`, `held`, …),
    /// exported on demand from the kernel's enum-indexed fast array.
    #[must_use]
    pub fn kernel_counters(&self) -> aas_obs::Counters {
        self.kernel.counters()
    }

    /// Messages the admission gate has shed so far.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.m.shed.get()
    }

    /// Switches fail-stop semantics on or off (default: off). Under
    /// fail-stop, a node crash kills its hosted component instances —
    /// they enter [`Lifecycle::Failed`] and discard deliveries until a
    /// repair plan reinstates or relocates them. Without it, a crash
    /// merely pauses the node and instances resume with it.
    pub fn set_fail_stop(&mut self, on: bool) {
        self.fail_stop = on;
    }

    /// Lifecycle of an instance, if it exists.
    #[must_use]
    pub fn lifecycle(&self, name: &str) -> Option<Lifecycle> {
        self.instances.by_name(name).map(|i| i.lifecycle)
    }

    /// The node currently hosting an instance.
    #[must_use]
    pub fn node_of(&self, name: &str) -> Option<NodeId> {
        self.instances.by_name(name).map(|i| i.node)
    }

    /// Removes and returns all replies addressed to the external client.
    pub fn take_outbox(&mut self) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.outbox)
    }

    /// Removes and returns the texts RAML's `notify` rules asked to hand
    /// the embedding application, each at the time its rule fired. What
    /// else the runtime did is read where it is recorded: plan outcomes
    /// in [`Runtime::reports`] and the audit log, drops, handler errors
    /// and applied faults in [`Runtime::metrics`] and
    /// [`Runtime::kernel_counters`], protocol violations in
    /// [`Runtime::observe`].
    pub fn drain_events(&mut self) -> Vec<(SimTime, String)> {
        std::mem::take(&mut self.notifications)
    }

    /// Names of live component instances.
    pub fn instance_names(&self) -> impl Iterator<Item = &str> {
        self.instances.values().map(|i| i.name.as_str())
    }

    /// A deterministic textual rendering of the configuration graph:
    /// every component (implementation, version, placement), connector
    /// (spec) and binding (source port, connector, targets), in sorted
    /// order. Two runtimes with equal fingerprints host structurally
    /// identical architectures — the transactional tests use this to
    /// prove that rejected and rolled-back plans leave the graph exactly
    /// as they found it.
    #[must_use]
    pub fn graph_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for inst in self.instances.values() {
            let _ = writeln!(
                out,
                "component {}: {} v{} on {}",
                inst.name, inst.type_name, inst.version, inst.node
            );
        }
        for (id, c) in self.connectors.iter() {
            let _ = writeln!(
                out,
                "connector {}: {:?}",
                self.connectors.name(id),
                c.spec()
            );
        }
        for b in self.bindings() {
            let _ = writeln!(
                out,
                "binding {}.{} via {} -> {:?}",
                b.decl.from.0, b.decl.from.1, b.decl.via, b.decl.to
            );
        }
        out
    }

    /// A deterministic textual rendering of every component's state
    /// snapshot, in name order. Combined with
    /// [`Runtime::graph_fingerprint`] this captures graph *and* state:
    /// in a quiet system, both must be byte-identical around a rejected
    /// or rolled-back plan.
    #[must_use]
    pub fn state_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for inst in self.instances.values() {
            let _ = writeln!(out, "state {}: {:?}", inst.name, inst.component.snapshot());
        }
        out
    }
}
