//! Forking the runtime into a digital twin (DESIGN.md §2.9), which the
//! heal loop plays candidate repairs forward on ([`crate::meta`]).
//!
//! Isolation guarantees (checked by `twin_verification` tests):
//!
//! - the fork shares **no** mutable state with the mainline — the kernel
//!   is forked ([`aas_sim::kernel::Kernel::fork`]), components are
//!   re-instantiated from the registry and restored from snapshots, and
//!   metrics/audit go to a throwaway [`Obs`] bundle. What the fork never
//!   writes — binding declarations, component props, the topology's node
//!   specs and adjacency — is shared, not copied;
//! - dropping (or running) a twin leaves the mainline's fingerprints,
//!   metrics, audit log and RNG stream untouched.

use super::*;

impl Runtime {
    /// Forks the runtime into an isolated digital twin.
    ///
    /// The twin owns a forked kernel (same pending events, channel
    /// halves, RNG stream) with its own copy of the messages in flight
    /// those events refer to, re-instantiated components restored from the
    /// originals' snapshots, cloned connectors/bindings/timers/detector/
    /// heal state — and a **throwaway** [`Obs`] bundle, so nothing the
    /// twin does shows up in mainline metrics, traces or the audit log.
    /// Each instance's latency and custom histograms, and the detector's
    /// per-node `phi` gauge, are handles no registry names: they start
    /// empty and record only the fork's run, which `observe()` reads
    /// through them, but nothing is registered per instance or per node.
    /// Binding declarations and props are shared with the original.
    /// The twin's RAML meta-level is detached and its own twin config is
    /// unset (forks never fork recursively).
    ///
    /// Returns `None` while a reconfiguration transaction is active or
    /// queued (mid-transaction journals hold live component state that
    /// cannot be duplicated), or if any component fails to re-instantiate
    /// or restore.
    #[must_use]
    pub fn fork_twin(&self) -> Option<Runtime> {
        self.fork_with(self.meta())
    }

    /// [`Runtime::fork_twin`], the twin's meta-level forked from `meta`.
    pub(super) fn fork_with(&self, meta: &MetaLevel) -> Option<Runtime> {
        if self.exec.active.is_some() || !self.exec.queued.is_empty() {
            return None;
        }
        let obs = Obs::new();
        let kernel = self.kernel.fork();
        let m = MetricHandles::new(&obs);
        // Same names, same ids: the cloned in-flight envelopes and timers
        // address instances by them.
        let instances = self.instances.try_map(|inst| {
            let (type_name, mut component) = self
                .registry
                .instantiate_named(&inst.type_name, inst.version, &inst.props)
                .ok()?;
            component.restore(&inst.component.snapshot()).ok()?;
            let custom = inst
                .custom
                .keys()
                .map(|k| (k.clone(), HistogramHandle::new()))
                .collect();
            Some(Instance {
                name: inst.name.clone(),
                node: inst.node,
                type_name,
                version: inst.version,
                props: Arc::clone(&inst.props),
                component,
                lifecycle: inst.lifecycle,
                inflight: inst.inflight,
                processed: inst.processed,
                errors: inst.errors,
                latency: HistogramHandle::new(),
                tracker: inst.tracker.clone(),
                custom,
                blocked_at: inst.blocked_at,
                external: inst.external,
                ports: inst.ports.clone(),
            })
        })?;
        let meta = meta.fork(&obs);
        Some(Runtime {
            kernel,
            arena: self.arena.clone(),
            registry: self.registry.clone(),
            instances,
            connectors: self.connectors.clone(),
            external: self.external,
            reply_channels: self.reply_channels.clone(),
            timers: self.timers.clone(),
            flow_seq: self.flow_seq.clone(),
            effects_buf: Vec::new(),
            pending_requests: self.pending_requests.clone(),
            next_msg_id: self.next_msg_id,
            next_connector_id: self.next_connector_id,
            pending_connector_swaps: self.pending_connector_swaps.clone(),
            exec: self.exec.fork(),
            gate: self.gate.clone(),
            fail_stop: self.fail_stop,
            meta: Some(meta),
            meta_tick: self.meta_tick,
            notifications: Vec::new(),
            outbox: Vec::new(),
            obs,
            m,
            first_violations: None,
            _idle: IdleRelease,
        })
    }
}
