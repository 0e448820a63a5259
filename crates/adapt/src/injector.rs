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

use crate::hook::{Chain, Hook};
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

type Scoped = (BTreeSet<String>, InjectedBehavior);

/// A scoped communication interceptor.
pub type Injector = Hook<Scoped>;

impl Injector {
    /// An injector named `name` affecting only components in `scope`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        scope: impl IntoIterator<Item = String>,
        behavior: InjectedBehavior,
    ) -> Self {
        Hook::named(name, (scope.into_iter().collect(), behavior))
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
///
/// The registry adds no rule of its own to `install` (which replaces by
/// name), `remove`, `get` and `names`: it is the injectors' bare chain,
/// and `intercept` applies the scope rule.
pub type InjectorRegistry = Chain<Scoped>;

impl InjectorRegistry {
    /// Runs the chain for a message addressed to `target`. Injectors whose
    /// scope excludes `target` are skipped. A reroute retargets the rest of
    /// the chain; a failed filter stops it.
    pub fn intercept(&mut self, target: &str, msg: &mut Message) -> InjectionOutcome {
        let mut current_target = target.to_owned();
        let mut rerouted = false;
        for inj in &mut self.0 {
            let (scope, behavior) = &mut inj.action;
            if !scope.contains(&current_target) {
                continue;
            }
            inj.runs += 1;
            match behavior {
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
        assert_eq!(reg.get("t").unwrap().runs(), 1);
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
