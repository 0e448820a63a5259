//! Injectors (approach 9 of the paper's ten).
//!
//! "Injectors intercept communications so that new behavior can be
//! inserted, for example for changing routing, or for transforming and
//! filtering messages. Each injection should affect a limited set of
//! specific components." (After Filman & Lee's "Redirecting by Injector";
//! the approach is inspired from programmable active networks.)
//!
//! An [`InjectorRegistry`] intercepts messages addressed to components.
//! Each [`Injector`] carries an explicit *scope* — the set of component
//! names it may affect — and one [`InjectedBehavior`]: reroute, transform,
//! or filter.

use aas_core::message::Message;
use core::fmt;
use std::collections::BTreeSet;

/// The behaviour an injector inserts into the communication path.
pub enum InjectedBehavior {
    /// Redirect the message to another component.
    Reroute {
        /// New destination component.
        to: String,
    },
    /// Rewrite the message in place.
    Transform(Box<dyn FnMut(&mut Message) + Send>),
    /// Drop messages failing the predicate.
    Filter(Box<dyn Fn(&Message) -> bool + Send>),
}

impl fmt::Debug for InjectedBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedBehavior::Reroute { to } => write!(f, "Reroute -> {to}"),
            InjectedBehavior::Transform(_) => f.write_str("Transform(..)"),
            InjectedBehavior::Filter(_) => f.write_str("Filter(..)"),
        }
    }
}

/// A scoped communication interceptor.
#[derive(Debug)]
pub struct Injector {
    name: String,
    scope: BTreeSet<String>,
    behavior: InjectedBehavior,
    interceptions: u64,
}

impl Injector {
    /// An injector named `name` affecting only components in `scope`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        scope: impl IntoIterator<Item = String>,
        behavior: InjectedBehavior,
    ) -> Self {
        Injector {
            name: name.into(),
            scope: scope.into_iter().collect(),
            behavior,
            interceptions: 0,
        }
    }

    /// The injector's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `component` is in scope.
    #[must_use]
    pub fn affects(&self, component: &str) -> bool {
        self.scope.contains(component)
    }

    /// The scope set.
    #[must_use]
    pub fn scope(&self) -> &BTreeSet<String> {
        &self.scope
    }

    /// Times this injector has intercepted a message.
    #[must_use]
    pub fn interceptions(&self) -> u64 {
        self.interceptions
    }
}

/// The outcome of running the injector chain for one message.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionOutcome {
    /// Deliver (possibly transformed) to the original target.
    Deliver,
    /// Deliver to a different component.
    Rerouted {
        /// The new destination.
        to: String,
    },
    /// Drop the message.
    Dropped {
        /// The injector that dropped it.
        by: String,
    },
}

/// An ordered set of injectors applied to component-bound messages.
///
/// # Examples
///
/// ```
/// use aas_adapt::injector::{InjectedBehavior, Injector, InjectionOutcome, InjectorRegistry};
/// use aas_core::message::{Message, Value};
///
/// let mut reg = InjectorRegistry::new();
/// reg.install(Injector::new(
///     "shadow-traffic",
///     ["billing".to_owned()],
///     InjectedBehavior::Reroute { to: "billing-v2".into() },
/// ));
///
/// let mut msg = Message::request("charge", Value::Null);
/// let outcome = reg.intercept("billing", &mut msg);
/// assert_eq!(outcome, InjectionOutcome::Rerouted { to: "billing-v2".into() });
///
/// // Out-of-scope components are untouched.
/// let outcome = reg.intercept("catalog", &mut msg);
/// assert_eq!(outcome, InjectionOutcome::Deliver);
/// ```
#[derive(Debug, Default)]
pub struct InjectorRegistry {
    injectors: Vec<Injector>,
}

impl InjectorRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        InjectorRegistry::default()
    }

    /// Installs (or replaces, by name) an injector.
    pub fn install(&mut self, injector: Injector) {
        self.injectors.retain(|i| i.name != injector.name);
        self.injectors.push(injector);
    }

    /// Removes an injector by name; `true` if removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.injectors.len();
        self.injectors.retain(|i| i.name != name);
        self.injectors.len() < before
    }

    /// Installed injector names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.injectors.iter().map(|i| i.name.as_str())
    }

    /// The injector named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Injector> {
        self.injectors.iter().find(|i| i.name == name)
    }

    /// Runs the chain for a message addressed to `target`. Injectors whose
    /// scope excludes `target` are skipped. A reroute retargets the rest of
    /// the chain; a failed filter stops it.
    pub fn intercept(&mut self, target: &str, msg: &mut Message) -> InjectionOutcome {
        let mut current_target = target.to_owned();
        let mut rerouted = false;
        for inj in &mut self.injectors {
            if !inj.affects(&current_target) {
                continue;
            }
            inj.interceptions += 1;
            match &mut inj.behavior {
                InjectedBehavior::Reroute { to } => {
                    current_target.clone_from(to);
                    rerouted = true;
                }
                InjectedBehavior::Transform(f) => f(msg),
                InjectedBehavior::Filter(pred) => {
                    if !pred(msg) {
                        return InjectionOutcome::Dropped {
                            by: inj.name.clone(),
                        };
                    }
                }
            }
        }
        if rerouted {
            InjectionOutcome::Rerouted { to: current_target }
        } else {
            InjectionOutcome::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::message::Value;

    fn msg(op: &'static str) -> Message {
        Message::request(op, Value::map::<&str>([]))
    }

    #[test]
    fn scope_limits_effect() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "t",
            ["a".to_owned()],
            InjectedBehavior::Transform(Box::new(|m| {
                m.value.set("touched", Value::Bool(true));
            })),
        ));
        let mut in_scope = msg("op");
        reg.intercept("a", &mut in_scope);
        assert_eq!(in_scope.value.get("touched"), Some(&Value::Bool(true)));

        let mut out_of_scope = msg("op");
        reg.intercept("b", &mut out_of_scope);
        assert_eq!(out_of_scope.value.get("touched"), None);
        assert_eq!(reg.get("t").unwrap().interceptions(), 1);
    }

    #[test]
    fn filter_drops_failing_messages() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "no-admin",
            ["svc".to_owned()],
            InjectedBehavior::Filter(Box::new(|m| !m.op.starts_with("admin_"))),
        ));
        let mut ok = msg("fetch");
        assert_eq!(reg.intercept("svc", &mut ok), InjectionOutcome::Deliver);
        let mut bad = msg("admin_wipe");
        assert_eq!(
            reg.intercept("svc", &mut bad),
            InjectionOutcome::Dropped {
                by: "no-admin".into()
            }
        );
    }

    #[test]
    fn reroute_retargets_rest_of_chain() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "redirect",
            ["old".to_owned()],
            InjectedBehavior::Reroute { to: "new".into() },
        ));
        // Second injector scoped to the NEW target must now fire.
        reg.install(Injector::new(
            "tag-new",
            ["new".to_owned()],
            InjectedBehavior::Transform(Box::new(|m| {
                m.value.set("at-new", Value::Bool(true));
            })),
        ));
        let mut m = msg("op");
        let outcome = reg.intercept("old", &mut m);
        assert_eq!(outcome, InjectionOutcome::Rerouted { to: "new".into() });
        assert_eq!(m.value.get("at-new"), Some(&Value::Bool(true)));
    }

    #[test]
    fn install_replaces_by_name() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "x",
            ["a".to_owned()],
            InjectedBehavior::Reroute { to: "v1".into() },
        ));
        reg.install(Injector::new(
            "x",
            ["a".to_owned()],
            InjectedBehavior::Reroute { to: "v2".into() },
        ));
        assert_eq!(reg.names().count(), 1);
        let mut m = msg("op");
        assert_eq!(
            reg.intercept("a", &mut m),
            InjectionOutcome::Rerouted { to: "v2".into() }
        );
    }

    #[test]
    fn remove_uninstalls() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "x",
            ["a".to_owned()],
            InjectedBehavior::Filter(Box::new(|_| false)),
        ));
        assert!(reg.remove("x"));
        assert!(!reg.remove("x"));
        let mut m = msg("op");
        assert_eq!(reg.intercept("a", &mut m), InjectionOutcome::Deliver);
    }

    #[test]
    fn chain_order_is_install_order() {
        let mut reg = InjectorRegistry::new();
        reg.install(Injector::new(
            "first",
            ["a".to_owned()],
            InjectedBehavior::Transform(Box::new(|m| {
                m.value.set("order", Value::from("first"));
            })),
        ));
        reg.install(Injector::new(
            "second",
            ["a".to_owned()],
            InjectedBehavior::Transform(Box::new(|m| {
                m.value.set("order", Value::from("second"));
            })),
        ));
        let mut m = msg("op");
        reg.intercept("a", &mut m);
        assert_eq!(m.value.get("order"), Some(&Value::from("second")));
    }
}
