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
        if self.instances.contains_key(name) {
            return Err(RuntimeError::DuplicateComponent(name.to_owned()));
        }
        if (decl.node.0 as usize) >= self.kernel.topology().node_count() {
            return Err(RuntimeError::NodeUnavailable(decl.node.to_string()));
        }
        let component = self
            .registry
            .instantiate(&decl.type_name, decl.version, &decl.props)?;
        self.instances.insert(
            name.to_owned(),
            Instance {
                node: decl.node,
                type_name: decl.type_name.clone(),
                version: decl.version,
                props: decl.props.clone(),
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
            },
        );
        let ch = self.kernel.open_channel(decl.node, decl.node);
        self.external_channels.insert(name.to_owned(), ch);
        Ok(())
    }

    /// Creates a connector instance.
    ///
    /// # Errors
    ///
    /// Fails if a connector with this name already exists.
    pub fn add_connector(&mut self, spec: ConnectorSpec) -> Result<(), RuntimeError> {
        if self.connectors.contains_key(&spec.name) {
            return Err(RuntimeError::InvalidConfiguration(format!(
                "connector `{}` already exists",
                spec.name
            )));
        }
        let id = ConnectorId(self.next_connector_id);
        self.next_connector_id += 1;
        self.connectors
            .insert(spec.name.clone(), Connector::new(id, spec));
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
            .get(&decl.from.0)
            .ok_or_else(|| RuntimeError::UnknownComponent(decl.from.0.clone()))?;
        if !self.connectors.contains_key(&decl.via) {
            return Err(RuntimeError::UnknownConnector(decl.via.clone()));
        }
        if self.bindings.contains_key(&decl.from) {
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
            .get(&decl.via)
            .and_then(|c| c.spec().protocol.clone());
        let mut channels = Vec::with_capacity(decl.to.len());
        for (inst, _) in &decl.to {
            let dst = self
                .instances
                .get(inst)
                .ok_or_else(|| RuntimeError::UnknownComponent(inst.clone()))?;
            if let (Some(conn_proto), Some(comp_proto)) =
                (conn_protocol.as_ref(), dst.component.protocol())
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
            channels.push(self.kernel.open_channel(src_node, dst.node));
        }
        self.bindings
            .insert(decl.from.clone(), BindingRt { decl, channels });
        Ok(())
    }

    /// Removes the binding rooted at `(instance, port)`, closing its
    /// channels.
    ///
    /// # Errors
    ///
    /// Fails if no such binding exists.
    pub fn remove_binding(&mut self, from: &(String, String)) -> Result<(), RuntimeError> {
        let b = self.bindings.remove(from).ok_or_else(|| {
            RuntimeError::InvalidConfiguration(format!("no binding at `{}.{}`", from.0, from.1))
        })?;
        for ch in b.channels {
            self.kernel.close_channel(ch);
        }
        Ok(())
    }

    /// Interchanges a connector in place — the **lightweight adaptation
    /// path**: no quiescence, no channel blocking; the new connector
    /// mediates the very next message. Bindings are preserved.
    ///
    /// # Errors
    ///
    /// Fails if the connector does not exist.
    pub fn adapt_connector(&mut self, name: &str, spec: ConnectorSpec) -> Result<(), RuntimeError> {
        if !self.connectors.contains_key(name) {
            return Err(RuntimeError::UnknownConnector(name.to_owned()));
        }
        let id = ConnectorId(self.next_connector_id);
        self.next_connector_id += 1;
        self.connectors
            .insert(name.to_owned(), Connector::new(id, spec));
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
        let conn = self
            .connectors
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownConnector(name.to_owned()))?;
        if conn.at_quiescent_point() {
            self.adapt_connector(name, spec)?;
            Ok(true)
        } else {
            self.pending_connector_swaps.insert(name.to_owned(), spec);
            Ok(false)
        }
    }

    /// Connectors with a deferred interchange waiting for quiescence.
    pub fn pending_connector_swaps(&self) -> impl Iterator<Item = &str> {
        self.pending_connector_swaps.keys().map(String::as_str)
    }
}
