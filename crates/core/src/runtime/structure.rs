//! Deployment and the direct structural API. Each call asks the
//! structural check of its action kind (`validate.rs`) against the live
//! graph before it changes anything.

use super::validate::Shadow;
use super::*;

impl Runtime {
    // ------------------------------------------------------------------
    // Deployment and structure
    // ------------------------------------------------------------------

    /// Deploys a full configuration onto an empty runtime.
    ///
    /// # Errors
    ///
    /// Returns the first [`RuntimeError`] hit while instantiating
    /// components, connectors or bindings.
    pub fn deploy(&mut self, config: &Configuration) -> Result<(), RuntimeError> {
        for spec in config.connectors() {
            self.add_connector(spec.clone())?;
        }
        for name in config
            .component_names()
            .map(str::to_owned)
            .collect::<Vec<_>>()
        {
            let decl = config.component_decl(&name).expect("declared").clone();
            self.add_component(&name, &decl)?;
        }
        for b in config.bindings() {
            self.add_binding(b.clone())?;
        }
        Ok(())
    }

    /// Instantiates and hosts a new component.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names, unknown implementations or bad nodes.
    pub fn add_component(&mut self, name: &str, decl: &ComponentDecl) -> Result<(), RuntimeError> {
        Shadow::live(self).add_component(name, decl)?;
        let (type_name, component) =
            self.registry
                .instantiate_named(&decl.type_name, decl.version, &decl.props)?;
        let external = self.kernel.open_channel(decl.node, decl.node);
        let id = self.instances.intern(name);
        self.instances.insert(
            name,
            Instance {
                name: self.instances.name(id).clone(),
                node: decl.node,
                type_name,
                version: decl.version,
                props: Arc::new(decl.props.clone()),
                component,
                lifecycle: Lifecycle::Active,
                inflight: 0,
                processed: 0,
                errors: 0,
                latency: self
                    .obs
                    .metrics
                    .histogram(&format!("comp.{name}.latency_ms")),
                tracker: SequenceTracker::new(),
                custom: BTreeMap::new(),
                blocked_at: None,
                external,
                ports: Vec::new(),
            },
        );
        Ok(())
    }

    /// Creates a connector instance.
    ///
    /// # Errors
    ///
    /// Fails if a connector with this name already exists.
    pub fn add_connector(&mut self, spec: ConnectorSpec) -> Result<(), RuntimeError> {
        Shadow::live(self).add_connector(&spec.name, &spec)?;
        let id = ConnectorId(self.next_connector_id);
        self.next_connector_id += 1;
        let name = spec.name.clone();
        self.connectors.insert(&name, Connector::new(id, spec));
        Ok(())
    }

    /// Wires a binding, opening one kernel channel per target.
    ///
    /// # Errors
    ///
    /// Fails if any referenced component or the connector is missing, or
    /// the source port is already bound.
    pub fn add_binding(&mut self, decl: BindingDecl) -> Result<(), RuntimeError> {
        Shadow::live(self).bind(&decl)?;
        let src_node = self.instances.by_name(&decl.from.0).expect("checked").node;
        let via = self.connectors.id(&decl.via).expect("checked");
        let mut targets = Vec::with_capacity(decl.to.len());
        for (inst, _) in &decl.to {
            let to = self.instances.id(inst).expect("checked");
            let dst_node = self.instances.get(to).expect("id is live").node;
            targets.push((to, self.kernel.open_channel(src_node, dst_node)));
        }
        self.put_binding(BindingRt {
            decl: Arc::new(decl),
            via,
            targets,
        });
        Ok(())
    }

    /// Removes the binding rooted at `(instance, port)`, closing its
    /// channels.
    ///
    /// # Errors
    ///
    /// Fails if no such binding exists.
    pub fn remove_binding(&mut self, from: &(String, String)) -> Result<(), RuntimeError> {
        Shadow::live(self).unbind(from)?;
        let b = self.take_binding(from).expect("checked");
        for (_, ch) in b.targets {
            self.kernel.close_channel(ch);
        }
        Ok(())
    }

    /// Every binding, ordered by `(instance, port)`.
    pub(super) fn bindings(&self) -> impl Iterator<Item = &BindingRt> {
        self.instances.values().flat_map(|inst| &inst.ports)
    }

    /// The binding rooted at `(instance, port)`.
    pub(super) fn binding(&self, from: &(String, String)) -> Option<&BindingRt> {
        let inst = self.instances.by_name(&from.0)?;
        Some(&inst.ports[inst.port(&from.1).ok()?])
    }

    /// Takes the binding rooted at `(instance, port)` out of the graph,
    /// channels still open.
    pub(super) fn take_binding(&mut self, from: &(String, String)) -> Option<BindingRt> {
        let inst = self.instances.by_name_mut(&from.0)?;
        let at = inst.port(&from.1).ok()?;
        Some(inst.ports.remove(at))
    }

    /// Roots `binding` at its source port, which must be free on a live
    /// instance (a binding only exists while its source does).
    pub(super) fn put_binding(&mut self, binding: BindingRt) {
        let from = &binding.decl.from;
        let inst = self
            .instances
            .by_name_mut(&from.0)
            .expect("binding source is live");
        let at = inst.port(&from.1).expect_err("source port is free");
        inst.ports.insert(at, binding);
    }

    /// Interchanges a connector in place — the **lightweight adaptation
    /// path**: no quiescence, no channel blocking; the new connector
    /// mediates the very next message. Bindings are preserved.
    ///
    /// # Errors
    ///
    /// Fails if the connector does not exist.
    pub fn adapt_connector(&mut self, name: &str, spec: ConnectorSpec) -> Result<(), RuntimeError> {
        self.replace_connector(name, spec).map(drop)
    }

    /// Puts a new connector built from `spec` in place of `name`, keeping
    /// its bindings, and hands back the one it displaced (id and
    /// statistics intact).
    pub(super) fn replace_connector(
        &mut self,
        name: &str,
        spec: ConnectorSpec,
    ) -> Result<Connector, RuntimeError> {
        Shadow::live(self).swap_connector(name, &spec)?;
        let id = ConnectorId(self.next_connector_id);
        self.next_connector_id += 1;
        let prior = self.connectors.insert(name, Connector::new(id, spec));
        Ok(prior.expect("checked"))
    }

    /// Interchanges a connector **at its next quiescent point**: if the
    /// connector's collaboration automaton is mid-interaction (e.g. a
    /// request awaiting its reply), the swap is deferred until the
    /// automaton returns to a final state — "connectors are modeled using
    /// first order automata, which defines the states of collaboration",
    /// and those states gate safe interchange. Connectors without a
    /// protocol are always quiescent and swap immediately.
    ///
    /// A later pending swap for the same connector replaces an earlier one.
    /// Returns `true` if the swap applied immediately, `false` if deferred.
    ///
    /// # Errors
    ///
    /// Fails if the connector does not exist.
    pub fn adapt_connector_at_quiescence(
        &mut self,
        name: &str,
        spec: ConnectorSpec,
    ) -> Result<bool, RuntimeError> {
        Shadow::live(self).swap_connector(name, &spec)?;
        let id = self.connectors.id(name).expect("checked");
        if self
            .connectors
            .get(id)
            .expect("id is live")
            .at_quiescent_point()
        {
            self.adapt_connector(name, spec)?;
            Ok(true)
        } else {
            self.pending_connector_swaps.insert(id, spec);
            Ok(false)
        }
    }

    /// Connectors with a deferred interchange waiting for quiescence.
    pub fn pending_connector_swaps(&self) -> impl Iterator<Item = &str> {
        self.pending_connector_swaps
            .keys()
            .map(|id| self.connectors.name(*id).as_str())
    }
}
