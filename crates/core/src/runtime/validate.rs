//! Up-front plan validation — the **Validate** phase of the transaction.
//!
//! Before a [`ReconfigPlan`] blocks a single channel, it is simulated
//! against a *shadow* of the current configuration graph: the live graph
//! seen through an overlay that holds only what the plan's own earlier
//! actions added, changed or removed, so validating costs what the plan
//! is long, not what the graph is large. Any
//! action that is structurally impossible against that shadow — unknown
//! names, duplicate additions, interface-incompatible swaps or rebinds,
//! migration to a down or capacity-exhausted node, removals of things
//! still referenced — rejects the whole plan with a `plan_rejected`
//! audit record and zero mutations.
//!
//! Validation is a *pre-filter*, not a proof: dynamic failures (a node
//! dying mid-plan, a state snapshot failing to restore) are still caught
//! at apply time, where they trigger rollback instead of rejection.

use super::*;
use crate::interface::Interface;

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
struct ShadowComp<'a> {
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
struct Shadow<'a> {
    rt: &'a Runtime,
    edits: Overlay<'a>,
}

impl<'a> Shadow<'a> {
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
    fn props(&self, name: &str, shadow: &ShadowComp<'a>) -> Option<&'a Props> {
        match shadow.impl_src {
            ShadowImpl::Live => self.rt.instances.by_name(name).map(|i| &*i.props),
            ShadowImpl::Decl { props, .. } => Some(props),
        }
    }

    /// The provided interface of a shadow component: read from the live
    /// instance when untouched, otherwise instantiated from the registry
    /// declaration an earlier plan action introduced.
    fn provided(&self, name: &str, shadow: &ShadowComp<'a>) -> Option<Interface> {
        match shadow.impl_src {
            ShadowImpl::Live => self
                .rt
                .instances
                .by_name(name)
                .map(|i| i.component.provided()),
            ShadowImpl::Decl {
                type_name,
                version,
                props,
            } => self
                .rt
                .registry
                .instantiate(type_name, version, props)
                .ok()
                .map(|c| c.provided()),
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

    fn apply(&mut self, action: &'a ReconfigAction) -> Result<(), String> {
        let rt = self.rt;
        match action {
            ReconfigAction::AddComponent { name, decl } => {
                if self.comp(name).is_some() {
                    return Err(format!("component `{name}` already exists"));
                }
                if (decl.node.0 as usize) >= rt.kernel.topology().node_count() {
                    return Err(format!("node `{}` unavailable", decl.node));
                }
                if !rt.registry.contains(&decl.type_name, decl.version) {
                    return Err(format!(
                        "unknown implementation `{}` v{}",
                        decl.type_name, decl.version
                    ));
                }
                self.edits.comps.insert(
                    name,
                    Some(ShadowComp {
                        node: decl.node,
                        impl_src: ShadowImpl::Decl {
                            type_name: &decl.type_name,
                            version: decl.version,
                            props: &decl.props,
                        },
                    }),
                );
                Ok(())
            }
            ReconfigAction::RemoveComponent { name } => {
                if self.comp(name).is_none() {
                    return Err(format!("unknown component `{name}`"));
                }
                let referenced = self
                    .bindings()
                    .any(|b| b.from.0 == *name || b.to.iter().any(|(t, _)| t == name));
                if referenced {
                    return Err(format!("component `{name}` still has bindings"));
                }
                self.edits.comps.insert(name, None);
                Ok(())
            }
            ReconfigAction::SwapImplementation {
                name,
                type_name,
                version,
                ..
            } => {
                let shadow = self
                    .comp(name)
                    .ok_or_else(|| format!("unknown component `{name}`"))?;
                if !rt.registry.contains(type_name, *version) {
                    return Err(format!("unknown implementation `{type_name}` v{version}"));
                }
                let props = self
                    .props(name, &shadow)
                    .expect("shadow component has props");
                // Interface compatibility: the replacement must provide at
                // least what the current implementation provides.
                if let Some(old_iface) = self.provided(name, &shadow) {
                    if let Ok(replacement) = rt.registry.instantiate(type_name, *version, props) {
                        let violations =
                            replacement.provided().check_backward_compatible(&old_iface);
                        if !violations.is_empty() {
                            return Err(format!(
                                "incompatible interface: {}",
                                violations
                                    .iter()
                                    .map(ToString::to_string)
                                    .collect::<Vec<_>>()
                                    .join("; ")
                            ));
                        }
                    }
                }
                self.edits.comps.insert(
                    name,
                    Some(ShadowComp {
                        node: shadow.node,
                        impl_src: ShadowImpl::Decl {
                            type_name,
                            version: *version,
                            props,
                        },
                    }),
                );
                Ok(())
            }
            ReconfigAction::Migrate { name, to } => {
                let Some(shadow) = self.comp(name) else {
                    return Err(format!("unknown component `{name}`"));
                };
                if (to.0 as usize) >= rt.kernel.topology().node_count()
                    || !rt.kernel.topology().node(*to).is_up()
                {
                    return Err(format!("node `{to}` unavailable"));
                }
                if rt
                    .kernel
                    .topology()
                    .node(*to)
                    .effective_capacity(rt.kernel.now())
                    <= 0.0
                {
                    return Err(format!("target `{to}` has no effective capacity"));
                }
                self.edits.comps.insert(
                    name,
                    Some(ShadowComp {
                        node: *to,
                        ..shadow
                    }),
                );
                Ok(())
            }
            ReconfigAction::AddConnector { name, spec } => {
                if self.connector(name).is_some() {
                    return Err(format!("connector `{name}` already exists"));
                }
                self.edits.connectors.insert(name, Some(spec));
                Ok(())
            }
            ReconfigAction::RemoveConnector { name } => {
                if self.connector(name).is_none() {
                    return Err(format!("unknown connector `{name}`"));
                }
                if self.bindings().any(|b| b.via == *name) {
                    return Err(format!("connector `{name}` still in use"));
                }
                self.edits.connectors.insert(name, None);
                Ok(())
            }
            ReconfigAction::SwapConnector { name, spec } => {
                if self.connector(name).is_none() {
                    return Err(format!("unknown connector `{name}`"));
                }
                self.edits.connectors.insert(name, Some(spec));
                Ok(())
            }
            ReconfigAction::Bind(decl) => {
                if self.comp(&decl.from.0).is_none() {
                    return Err(format!("unknown component `{}`", decl.from.0));
                }
                let conn_spec = self
                    .connector(&decl.via)
                    .ok_or_else(|| format!("unknown connector `{}`", decl.via))?;
                if self.is_bound(&decl.from) {
                    return Err(format!(
                        "port `{}.{}` already bound",
                        decl.from.0, decl.from.1
                    ));
                }
                for (inst, _) in &decl.to {
                    let shadow = self
                        .comp(inst)
                        .ok_or_else(|| format!("unknown component `{inst}`"))?;
                    // Protocol compatibility (interface-incompatible
                    // rebinds): when both sides publish protocols, their
                    // synchronous product must be deadlock-free.
                    if let (Some(conn_proto), Some(comp_proto)) =
                        (conn_spec.protocol.as_ref(), self.protocol(inst, &shadow))
                    {
                        let report = crate::lts::check_compatibility(conn_proto, &comp_proto);
                        if !report.is_compatible() {
                            return Err(format!(
                                "incompatible protocols between connector `{}` and `{inst}`",
                                decl.via
                            ));
                        }
                    }
                }
                self.edits
                    .bindings
                    .insert((&decl.from.0, &decl.from.1), Some(decl));
                Ok(())
            }
            ReconfigAction::Unbind { from } => {
                if !self.is_bound(from) {
                    return Err(format!("no binding at `{}.{}`", from.0, from.1));
                }
                self.edits.bindings.insert((&from.0, &from.1), None);
                Ok(())
            }
        }
    }
}

impl Runtime {
    /// Simulates `plan` against a shadow of the live configuration graph.
    /// Returns the first structural impossibility as
    /// `"{action}: {detail}"`, or `Ok(())` if every action is applicable
    /// in order.
    pub(super) fn validate_plan(&self, plan: &ReconfigPlan) -> Result<(), String> {
        let mut shadow = Shadow {
            rt: self,
            edits: Overlay::default(),
        };
        for action in plan.actions() {
            shadow
                .apply(action)
                .map_err(|detail| format!("{action}: {detail}"))?;
        }
        Ok(())
    }
}
