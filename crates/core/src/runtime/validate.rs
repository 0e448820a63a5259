//! The configuration graph's structural rules, and the **Validate** phase
//! of the transaction that asks them of a whole plan.
//!
//! Every rule lives here once, as one check per [`ReconfigAction`] kind
//! read through a *shadow* of the configuration graph: the live graph
//! seen through an overlay that holds only what a plan's own earlier
//! actions added, changed or removed, so validating costs what the plan
//! is long, not what the graph is large. The rules refuse unknown names,
//! duplicate additions, interface-incompatible swaps or rebinds,
//! migration to a down or capacity-exhausted node, and removals of things
//! still referenced, each with its own [`RuntimeError`].
//!
//! Before a [`ReconfigPlan`] blocks a single channel, every action is
//! checked in order against the plan's shadow; the first refusal rejects
//! the whole plan with a `plan_rejected` audit record and zero mutations.
//! The live graph is the shadow with an empty overlay: the direct
//! structural API (`structure.rs`) and the transaction's apply step
//! (`exec.rs`) ask the same checks of it just before they mutate, so a
//! change made impossible after validation rolls its plan back with the
//! text validation would have given. What only the apply step can see —
//! a route or node job refused at transfer time, a state snapshot that
//! will not restore — is caught there, and also rolls back.

use super::exec::render;
use super::*;
use crate::interface::Interface;
use std::borrow::Cow;

/// Where a shadow component's implementation comes from: the live
/// instance (untouched so far by the plan) or a declaration introduced by
/// an earlier plan action (add or swap).
#[derive(Clone, Copy)]
enum ShadowImpl<'a> {
    Live,
    Decl {
        type_name: &'a str,
        version: u32,
        props: &'a Props,
    },
}

#[derive(Clone, Copy)]
pub(super) struct ShadowComp<'a> {
    node: NodeId,
    impl_src: ShadowImpl<'a>,
}

/// The plan's own edits so far, by name; `None` marks a removal. A name
/// that is absent here reads through to the live graph.
#[derive(Default)]
struct Overlay<'a> {
    comps: BTreeMap<&'a str, Option<ShadowComp<'a>>>,
    connectors: BTreeMap<&'a str, Option<&'a ConnectorSpec>>,
    bindings: BTreeMap<(&'a str, &'a str), Option<&'a BindingDecl>>,
}

/// The live graph seen through a plan's [`Overlay`].
pub(super) struct Shadow<'a> {
    rt: &'a Runtime,
    edits: Overlay<'a>,
}

/// What one applicable action changes, for a plan's overlay to record:
/// a component, a connector or a binding, and `None` for a removal.
pub(super) enum Edit<'a> {
    Comp(&'a str, Option<ShadowComp<'a>>),
    Connector(&'a str, Option<&'a ConnectorSpec>),
    Binding(&'a (String, String), Option<&'a BindingDecl>),
}

impl<'a> Shadow<'a> {
    /// The live graph itself: a shadow whose overlay is empty. A plan's
    /// validation starts from it; a direct structural call and the
    /// transaction's apply step ask its checks and mutate only if they
    /// pass.
    pub(super) fn live(rt: &'a Runtime) -> Self {
        Shadow {
            rt,
            edits: Overlay::default(),
        }
    }

    fn comp(&self, name: &str) -> Option<ShadowComp<'a>> {
        match self.edits.comps.get(name) {
            Some(edited) => *edited,
            None => self.rt.instances.by_name(name).map(|inst| ShadowComp {
                node: inst.node,
                impl_src: ShadowImpl::Live,
            }),
        }
    }

    fn connector(&self, name: &str) -> Option<&'a ConnectorSpec> {
        match self.edits.connectors.get(name) {
            Some(edited) => *edited,
            None => self.rt.connectors.by_name(name).map(Connector::spec),
        }
    }

    fn is_bound(&self, from: &(String, String)) -> bool {
        match self.edits.bindings.get(&(from.0.as_str(), from.1.as_str())) {
            Some(edited) => edited.is_some(),
            None => self.rt.binding(from).is_some(),
        }
    }

    /// Every binding of the shadow graph: the live ones the plan has not
    /// touched, then the ones it added.
    fn bindings(&self) -> impl Iterator<Item = &'a BindingDecl> + '_ {
        let untouched = self.rt.bindings().map(|b| &*b.decl).filter(|decl| {
            !self
                .edits
                .bindings
                .contains_key(&(decl.from.0.as_str(), decl.from.1.as_str()))
        });
        untouched.chain(self.edits.bindings.values().copied().flatten())
    }

    /// The props a shadow component was (or would be) instantiated with.
    fn props(&self, name: &str, shadow: &ShadowComp<'a>) -> &'a Props {
        match shadow.impl_src {
            ShadowImpl::Live => {
                let inst = self.rt.instances.by_name(name);
                &inst.expect("a live shadow component is live").props
            }
            ShadowImpl::Decl { props, .. } => props,
        }
    }

    /// The provided interface of a shadow component: read in place from
    /// the live instance when untouched, otherwise copied from an instance
    /// of the registry declaration an earlier plan action introduced.
    fn provided(&self, name: &str, shadow: &ShadowComp<'a>) -> Cow<'a, Interface> {
        match shadow.impl_src {
            ShadowImpl::Live => Cow::Borrowed(
                self.rt
                    .instances
                    .by_name(name)
                    .expect("a live shadow component is live")
                    .component
                    .provided(),
            ),
            ShadowImpl::Decl {
                type_name,
                version,
                props,
            } => Cow::Owned(
                self.rt
                    .registry
                    .instantiate(type_name, version, props)
                    .expect("the action that introduced it found it registered")
                    .provided()
                    .clone(),
            ),
        }
    }

    /// The behavioural protocol of a shadow component, if it publishes
    /// one.
    fn protocol(&self, name: &str, shadow: &ShadowComp<'a>) -> Option<crate::lts::Lts> {
        match shadow.impl_src {
            ShadowImpl::Live => self
                .rt
                .instances
                .by_name(name)
                .and_then(|i| i.component.protocol()),
            ShadowImpl::Decl {
                type_name,
                version,
                props,
            } => self
                .rt
                .registry
                .instantiate(type_name, version, props)
                .ok()
                .and_then(|c| c.protocol()),
        }
    }

    /// The rules of [`ReconfigAction::AddComponent`]: a new name, a node
    /// that exists, a registered implementation.
    pub(super) fn add_component(
        &self,
        name: &'a str,
        decl: &'a ComponentDecl,
    ) -> Result<Edit<'a>, RuntimeError> {
        if self.comp(name).is_some() {
            return Err(RuntimeError::DuplicateComponent(name.to_owned()));
        }
        if (decl.node.0 as usize) >= self.rt.kernel.topology().node_count() {
            return Err(RuntimeError::NodeUnavailable(decl.node.to_string()));
        }
        if !self.rt.registry.contains(&decl.type_name, decl.version) {
            return Err(RuntimeError::UnknownImplementation {
                type_name: decl.type_name.clone(),
                version: decl.version,
            });
        }
        let added = ShadowComp {
            node: decl.node,
            impl_src: ShadowImpl::Decl {
                type_name: &decl.type_name,
                version: decl.version,
                props: &decl.props,
            },
        };
        Ok(Edit::Comp(name, Some(added)))
    }

    /// The rules of [`ReconfigAction::RemoveComponent`]: the component
    /// exists and no binding starts or ends at it.
    pub(super) fn remove_component(&self, name: &'a str) -> Result<Edit<'a>, RuntimeError> {
        if self.comp(name).is_none() {
            return Err(RuntimeError::UnknownComponent(name.to_owned()));
        }
        let referenced = self
            .bindings()
            .any(|b| b.from.0 == name || b.to.iter().any(|(t, _)| t == name));
        if referenced {
            return Err(RuntimeError::ComponentInUse(name.to_owned()));
        }
        Ok(Edit::Comp(name, None))
    }

    /// The rules of [`ReconfigAction::SwapImplementation`]: the component
    /// exists, the replacement is registered, and it provides at least
    /// what the current implementation provides. Hands back the
    /// replacement it instantiated to compare interfaces, built with the
    /// component's props, so the apply step installs that one.
    pub(super) fn swap_implementation(
        &self,
        name: &'a str,
        type_name: &'a str,
        version: u32,
    ) -> Result<(Edit<'a>, Name, Box<dyn Component>), RuntimeError> {
        let shadow = self
            .comp(name)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))?;
        let props = self.props(name, &shadow);
        let (registered, replacement) = self
            .rt
            .registry
            .instantiate_named(type_name, version, props)?;
        let violations = replacement
            .provided()
            .check_backward_compatible(&self.provided(name, &shadow));
        if !violations.is_empty() {
            return Err(RuntimeError::IncompatibleInterface {
                component: name.to_owned(),
                reason: violations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            });
        }
        let swapped = ShadowComp {
            node: shadow.node,
            impl_src: ShadowImpl::Decl {
                type_name,
                version,
                props,
            },
        };
        Ok((Edit::Comp(name, Some(swapped)), registered, replacement))
    }

    /// The rules of [`ReconfigAction::Migrate`]: the component exists and
    /// the target node is up with capacity to spare.
    pub(super) fn migrate(&self, name: &'a str, to: NodeId) -> Result<Edit<'a>, RuntimeError> {
        let shadow = self
            .comp(name)
            .ok_or_else(|| RuntimeError::UnknownComponent(name.to_owned()))?;
        let topology = self.rt.kernel.topology();
        if (to.0 as usize) >= topology.node_count() || !topology.node(to).is_up() {
            return Err(RuntimeError::NodeUnavailable(to.to_string()));
        }
        if topology.node(to).effective_capacity(self.rt.kernel.now()) <= 0.0 {
            return Err(RuntimeError::NoCapacity(to.to_string()));
        }
        Ok(Edit::Comp(name, Some(ShadowComp { node: to, ..shadow })))
    }

    /// The rule of [`ReconfigAction::AddConnector`]: a new name.
    pub(super) fn add_connector(
        &self,
        name: &'a str,
        spec: &'a ConnectorSpec,
    ) -> Result<Edit<'a>, RuntimeError> {
        if self.connector(name).is_some() {
            return Err(RuntimeError::DuplicateConnector(name.to_owned()));
        }
        Ok(Edit::Connector(name, Some(spec)))
    }

    /// The rules of [`ReconfigAction::RemoveConnector`]: the connector
    /// exists and mediates no binding.
    pub(super) fn remove_connector(&self, name: &'a str) -> Result<Edit<'a>, RuntimeError> {
        if self.connector(name).is_none() {
            return Err(RuntimeError::UnknownConnector(name.to_owned()));
        }
        if self.bindings().any(|b| b.via == name) {
            return Err(RuntimeError::ConnectorInUse(name.to_owned()));
        }
        Ok(Edit::Connector(name, None))
    }

    /// The rule of [`ReconfigAction::SwapConnector`]: the connector
    /// exists.
    pub(super) fn swap_connector(
        &self,
        name: &'a str,
        spec: &'a ConnectorSpec,
    ) -> Result<Edit<'a>, RuntimeError> {
        if self.connector(name).is_none() {
            return Err(RuntimeError::UnknownConnector(name.to_owned()));
        }
        Ok(Edit::Connector(name, Some(spec)))
    }

    /// The rules of [`ReconfigAction::Bind`]: the source, the connector
    /// and every target exist, the source port is free, and where the
    /// connector and a target both publish protocols their synchronous
    /// product is deadlock-free (Wright-style composition correctness).
    pub(super) fn bind(&self, decl: &'a BindingDecl) -> Result<Edit<'a>, RuntimeError> {
        if self.comp(&decl.from.0).is_none() {
            return Err(RuntimeError::UnknownComponent(decl.from.0.clone()));
        }
        let conn_spec = self
            .connector(&decl.via)
            .ok_or_else(|| RuntimeError::UnknownConnector(decl.via.clone()))?;
        if self.is_bound(&decl.from) {
            return Err(RuntimeError::PortBound {
                component: decl.from.0.clone(),
                port: decl.from.1.clone(),
            });
        }
        for (inst, _) in &decl.to {
            let shadow = self
                .comp(inst)
                .ok_or_else(|| RuntimeError::UnknownComponent(inst.clone()))?;
            if let (Some(conn_proto), Some(comp_proto)) =
                (conn_spec.protocol.as_ref(), self.protocol(inst, &shadow))
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
        }
        Ok(Edit::Binding(&decl.from, Some(decl)))
    }

    /// The rule of [`ReconfigAction::Unbind`]: the port has a binding.
    pub(super) fn unbind(&self, from: &'a (String, String)) -> Result<Edit<'a>, RuntimeError> {
        if !self.is_bound(from) {
            return Err(RuntimeError::NoBinding {
                component: from.0.clone(),
                port: from.1.clone(),
            });
        }
        Ok(Edit::Binding(from, None))
    }

    /// The check of `action`'s kind, and the edit it would make.
    fn check(&self, action: &'a ReconfigAction) -> Result<Edit<'a>, RuntimeError> {
        match action {
            ReconfigAction::AddComponent { name, decl } => self.add_component(name, decl),
            ReconfigAction::RemoveComponent { name } => self.remove_component(name),
            ReconfigAction::SwapImplementation {
                name,
                type_name,
                version,
                ..
            } => self
                .swap_implementation(name, type_name, *version)
                .map(|(edit, ..)| edit),
            ReconfigAction::Migrate { name, to } => self.migrate(name, *to),
            ReconfigAction::AddConnector { name, spec } => self.add_connector(name, spec),
            ReconfigAction::RemoveConnector { name } => self.remove_connector(name),
            ReconfigAction::SwapConnector { name, spec } => self.swap_connector(name, spec),
            ReconfigAction::Bind(decl) => self.bind(decl),
            ReconfigAction::Unbind { from } => self.unbind(from),
        }
    }

    /// Records `edit` in the overlay, for the plan's later actions to read.
    fn record(&mut self, edit: Edit<'a>) {
        match edit {
            Edit::Comp(name, comp) => {
                self.edits.comps.insert(name, comp);
            }
            Edit::Connector(name, spec) => {
                self.edits.connectors.insert(name, spec);
            }
            Edit::Binding(from, decl) => {
                self.edits.bindings.insert((&from.0, &from.1), decl);
            }
        }
    }
}

impl Runtime {
    /// Simulates `plan` against a shadow of the live configuration graph.
    /// Returns the first structural impossibility as the refusal its
    /// report keeps, `"rejected: {action}: {error}"`, or `Ok(())` if every
    /// action is applicable in order. Only an edit a later action can
    /// read is recorded, so a one-action plan leaves the overlay empty.
    pub(super) fn validate_plan(&self, plan: &ReconfigPlan) -> Result<(), String> {
        let mut shadow = Shadow::live(self);
        let mut actions = plan.actions().iter().peekable();
        while let Some(action) = actions.next() {
            match shadow.check(action) {
                Ok(edit) if actions.peek().is_some() => shadow.record(edit),
                Ok(_) => {}
                Err(e) => return Err(render(format_args!("rejected: {action}: {e}"))),
            }
        }
        Ok(())
    }
}
