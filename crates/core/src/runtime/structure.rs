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
        if self.instances.contains(name) {
            return Err(RuntimeError::DuplicateComponent(name.to_owned()));
        }
        if (decl.node.0 as usize) >= self.kernel.topology().node_count() {
            return Err(RuntimeError::NodeUnavailable(decl.node.to_string()));
        }
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
        if self.connectors.contains(&spec.name) {
            return Err(RuntimeError::InvalidConfiguration(format!(
                "connector `{}` already exists",
                spec.name
            )));
        }
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
        let src = self
            .instances
            .by_name(&decl.from.0)
            .ok_or_else(|| RuntimeError::UnknownComponent(decl.from.0.clone()))?;
        let via = self
            .connectors
            .id(&decl.via)
            .ok_or_else(|| RuntimeError::UnknownConnector(decl.via.clone()))?;
        if src.port(&decl.from.1).is_ok() {
            return Err(RuntimeError::InvalidConfiguration(format!(
                "port `{}.{}` already bound",
                decl.from.0, decl.from.1
            )));
        }
        let src_node = src.node;
        // Composition-correctness analysis (Wright-style): if both the
        // connector and a participating component publish protocols, their
        // synchronous product must be deadlock-free.
        let conn_protocol = self
            .connectors
            .get(via)
            .and_then(|c| c.spec().protocol.as_ref());
        let mut targets = Vec::with_capacity(decl.to.len());
        for (inst, _) in &decl.to {
            let to = self
                .instances
                .id(inst)
                .ok_or_else(|| RuntimeError::UnknownComponent(inst.clone()))?;
            let dst = self.instances.get(to).expect("id is live");
            if let (Some(conn_proto), Some(comp_proto)) = (conn_protocol, dst.component.protocol())
            {
                let report = crate::lts::check_compatibility(conn_proto, &comp_proto);
                if !report.is_compatible() {
                    return Err(RuntimeError::IncompatibleProtocols {
                        connector: decl.via.clone(),
                        component: inst.clone(),
                        deadlocks: report.deadlocks,
                    });
                }
            }
            targets.push((to, self.kernel.open_channel(src_node, dst.node)));
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
        let b = self.take_binding(from).ok_or_else(|| {
            RuntimeError::InvalidConfiguration(format!("no binding at `{}.{}`", from.0, from.1))
        })?;
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
        if !self.connectors.contains(name) {
            return Err(RuntimeError::UnknownConnector(name.to_owned()));
        }
        let id = ConnectorId(self.next_connector_id);
        self.next_connector_id += 1;
        self.connectors.insert(name, Connector::new(id, spec));
        Ok(())
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
        let id = self
            .connectors
            .id(name)
            .ok_or_else(|| RuntimeError::UnknownConnector(name.to_owned()))?;
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
