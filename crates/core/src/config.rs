//! Configuration graphs: the declarative description of an application.
//!
//! "A component-based program generally consists of declaration of
//! components, connectors and a configuration specification, which defines
//! the global structure of the application." A [`Configuration`] is exactly
//! that triple. Configurations are *diffable*: [`Configuration::diff`]
//! computes the [`crate::reconfig::ReconfigPlan`] that turns
//! one configuration into another — the bridge from architecture
//! description to dynamic reconfiguration.

use crate::connector::ConnectorSpec;
use crate::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use crate::registry::Props;
use aas_sim::node::NodeId;
use core::fmt;
use std::collections::BTreeMap;

/// Declaration of one component instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDecl {
    /// Implementation type name (registry key).
    pub type_name: String,
    /// Implementation version.
    pub version: u32,
    /// The node hosting the instance.
    pub node: NodeId,
    /// Construction properties.
    pub props: Props,
}

impl ComponentDecl {
    /// A declaration of `type_name` v`version` on `node` with no props.
    #[must_use]
    pub fn new(type_name: impl Into<String>, version: u32, node: NodeId) -> Self {
        ComponentDecl {
            type_name: type_name.into(),
            version,
            node,
            props: Props::new(),
        }
    }

    /// Adds a construction property (builder style).
    #[must_use]
    pub fn with_prop(mut self, key: impl Into<String>, value: crate::message::Value) -> Self {
        self.props.insert(key.into(), value);
        self
    }
}

/// Declaration of one binding: a required port wired through a connector to
/// one or more provided ports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BindingDecl {
    /// `(instance, port)` of the caller's required port.
    pub from: (String, String),
    /// Connector name mediating the interaction.
    pub via: String,
    /// `(instance, port)` targets; more than one enables round-robin or
    /// broadcast policies.
    pub to: Vec<(String, String)>,
}

impl BindingDecl {
    /// A binding from `from_inst.from_port` via `connector` to
    /// `to_inst.to_port`.
    #[must_use]
    pub fn new(
        from_inst: impl Into<String>,
        from_port: impl Into<String>,
        connector: impl Into<String>,
        to_inst: impl Into<String>,
        to_port: impl Into<String>,
    ) -> Self {
        BindingDecl {
            from: (from_inst.into(), from_port.into()),
            via: connector.into(),
            to: vec![(to_inst.into(), to_port.into())],
        }
    }

    /// Adds another target (builder style).
    #[must_use]
    pub fn also_to(mut self, inst: impl Into<String>, port: impl Into<String>) -> Self {
        self.to.push((inst.into(), port.into()));
        self
    }
}

impl fmt::Display for BindingDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} -[{}]-> ", self.from.0, self.from.1, self.via)?;
        for (i, (inst, port)) in self.to.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{inst}.{port}")?;
        }
        Ok(())
    }
}

/// The declarative structure of an application: components, connectors and
/// bindings.
///
/// # Examples
///
/// ```
/// use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
/// use aas_core::connector::ConnectorSpec;
/// use aas_sim::node::NodeId;
///
/// let mut cfg = Configuration::new();
/// cfg.component("client", ComponentDecl::new("Client", 1, NodeId(0)));
/// cfg.component("server", ComponentDecl::new("Server", 1, NodeId(1)));
/// cfg.connector(ConnectorSpec::direct("wire"));
/// cfg.bind(BindingDecl::new("client", "out", "wire", "server", "in"));
/// assert_eq!(cfg.component_names().count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    components: BTreeMap<String, ComponentDecl>,
    connectors: BTreeMap<String, ConnectorSpec>,
    bindings: Vec<BindingDecl>,
}

impl Configuration {
    /// An empty configuration.
    #[must_use]
    pub fn new() -> Self {
        Configuration::default()
    }

    /// Declares (or redeclares) a component instance.
    pub fn component(&mut self, name: impl Into<String>, decl: ComponentDecl) -> &mut Self {
        self.components.insert(name.into(), decl);
        self
    }

    /// Declares a connector (keyed by its spec name).
    pub fn connector(&mut self, spec: ConnectorSpec) -> &mut Self {
        self.connectors.insert(spec.name.clone(), spec);
        self
    }

    /// Declares a binding.
    pub fn bind(&mut self, binding: BindingDecl) -> &mut Self {
        self.bindings.push(binding);
        self
    }

    /// The declared component names, in order.
    pub fn component_names(&self) -> impl Iterator<Item = &str> {
        self.components.keys().map(String::as_str)
    }

    /// Looks up a component declaration.
    #[must_use]
    pub fn component_decl(&self, name: &str) -> Option<&ComponentDecl> {
        self.components.get(name)
    }

    /// Looks up a connector spec.
    #[must_use]
    pub fn connector_spec(&self, name: &str) -> Option<&ConnectorSpec> {
        self.connectors.get(name)
    }

    /// The declared bindings.
    #[must_use]
    pub fn bindings(&self) -> &[BindingDecl] {
        &self.bindings
    }

    /// All declared connectors.
    pub fn connectors(&self) -> impl Iterator<Item = &ConnectorSpec> {
        self.connectors.values()
    }

    /// Computes the reconfiguration plan that turns `self` into `target`.
    ///
    /// The plan's action order is chosen so that new structure exists
    /// before traffic is rebound to it and old structure is removed last:
    /// add connectors/components → swap/migrate changed ones → unbind
    /// removed bindings → bind new ones → remove leftovers.
    #[must_use]
    pub fn diff(&self, target: &Configuration) -> ReconfigPlan {
        let mut plan = ReconfigPlan::new();

        // New connectors.
        for (name, spec) in &target.connectors {
            match self.connectors.get(name) {
                None => plan.push(ReconfigAction::AddConnector {
                    name: name.clone(),
                    spec: spec.clone(),
                }),
                Some(old) if !connector_specs_equal(old, spec) => {
                    plan.push(ReconfigAction::SwapConnector {
                        name: name.clone(),
                        spec: spec.clone(),
                    });
                }
                Some(_) => {}
            }
        }

        // New components.
        for (name, decl) in &target.components {
            match self.components.get(name) {
                None => plan.push(ReconfigAction::AddComponent {
                    name: name.clone(),
                    decl: decl.clone(),
                }),
                Some(old) => {
                    if old.type_name != decl.type_name || old.version != decl.version {
                        plan.push(ReconfigAction::SwapImplementation {
                            name: name.clone(),
                            type_name: decl.type_name.clone(),
                            version: decl.version,
                            transfer: StateTransfer::Snapshot,
                        });
                    }
                    if old.node != decl.node {
                        plan.push(ReconfigAction::Migrate {
                            name: name.clone(),
                            to: decl.node,
                        });
                    }
                }
            }
        }

        // Binding changes (set difference, order-insensitive).
        let old_bindings: std::collections::BTreeSet<&BindingDecl> = self.bindings.iter().collect();
        let new_bindings: std::collections::BTreeSet<&BindingDecl> =
            target.bindings.iter().collect();
        for b in old_bindings.difference(&new_bindings) {
            plan.push(ReconfigAction::Unbind {
                from: b.from.clone(),
            });
        }
        for b in new_bindings.difference(&old_bindings) {
            plan.push(ReconfigAction::Bind((*b).clone()));
        }

        // Removals last.
        for name in self.components.keys() {
            if !target.components.contains_key(name) {
                plan.push(ReconfigAction::RemoveComponent { name: name.clone() });
            }
        }
        for name in self.connectors.keys() {
            if !target.connectors.contains_key(name) {
                plan.push(ReconfigAction::RemoveConnector { name: name.clone() });
            }
        }
        plan
    }
}

fn connector_specs_equal(a: &ConnectorSpec, b: &ConnectorSpec) -> bool {
    a.name == b.name
        && a.policy == b.policy
        && a.aspects == b.aspects
        && a.protocol == b.protocol
        && (a.base_cost - b.base_cost).abs() < f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::RoutingPolicy;

    fn base_config() -> Configuration {
        let mut cfg = Configuration::new();
        cfg.component("client", ComponentDecl::new("Client", 1, NodeId(0)));
        cfg.component("server", ComponentDecl::new("Server", 1, NodeId(1)));
        cfg.connector(ConnectorSpec::direct("wire"));
        cfg.bind(BindingDecl::new("client", "out", "wire", "server", "in"));
        cfg
    }

    #[test]
    fn diff_of_identical_configs_is_empty() {
        let a = base_config();
        let b = base_config();
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn diff_detects_version_swap() {
        let a = base_config();
        let mut b = base_config();
        b.component("server", ComponentDecl::new("Server", 2, NodeId(1)));
        let plan = a.diff(&b);
        assert_eq!(plan.len(), 1);
        assert!(matches!(
            &plan.actions()[0],
            ReconfigAction::SwapImplementation { name, version: 2, .. } if name == "server"
        ));
    }

    #[test]
    fn diff_detects_migration() {
        let a = base_config();
        let mut b = base_config();
        b.component("server", ComponentDecl::new("Server", 1, NodeId(3)));
        let plan = a.diff(&b);
        assert!(matches!(
            &plan.actions()[0],
            ReconfigAction::Migrate { name, to } if name == "server" && *to == NodeId(3)
        ));
    }

    #[test]
    fn diff_orders_adds_before_binds_before_removes() {
        let a = base_config();
        let mut b = Configuration::new();
        b.component("client", ComponentDecl::new("Client", 1, NodeId(0)));
        b.component("server2", ComponentDecl::new("Server", 2, NodeId(2)));
        b.connector(ConnectorSpec::direct("wire2").with_policy(RoutingPolicy::RoundRobin));
        b.bind(BindingDecl::new("client", "out", "wire2", "server2", "in"));
        let plan = a.diff(&b);
        let kinds: Vec<&'static str> = plan.actions().iter().map(ReconfigAction::kind).collect();
        let pos = |k: &str| kinds.iter().position(|x| *x == k).unwrap();
        assert!(pos("add-connector") < pos("bind"));
        assert!(pos("add-component") < pos("bind"));
        assert!(pos("unbind") < pos("bind"));
        assert!(pos("bind") < pos("remove-component"));
        assert!(pos("remove-component") < pos("remove-connector"));
    }

    #[test]
    fn diff_detects_connector_spec_change() {
        let a = base_config();
        let mut b = base_config();
        b.connector(ConnectorSpec::direct("wire").with_base_cost(5.0));
        let plan = a.diff(&b);
        assert!(matches!(
            &plan.actions()[0],
            ReconfigAction::SwapConnector { name, .. } if name == "wire"
        ));
    }

    #[test]
    fn binding_display_reads_naturally() {
        let b = BindingDecl::new("a", "out", "wire", "b", "in").also_to("c", "in");
        assert_eq!(b.to_string(), "a.out -[wire]-> b.in, c.in");
    }
}
