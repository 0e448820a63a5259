//! Interaction patterns: chained meta-objects (approach 7 of the paper's
//! ten).
//!
//! "Interaction patterns are used to chain meta-objects so that
//! meta-controllers can be composed. This requires specification of the
//! partially ordered relations among meta-objects (priority, order of the
//! declaration). Runtime composition needs detailed knowledge of all the
//! meta-objects that have been already chained, and of the important
//! properties of the wrappers (conditional, mandatory, exclusive,
//! modificatory)."
//!
//! A [`MetaChain`] composes [`MetaObject`]s under exactly those rules:
//! ordering by `(priority, declaration order)`, exclusivity groups,
//! mandatory wrappers that cannot be removed, conditional wrappers that
//! consult a predicate per message, and modificatory wrappers that are the
//! only ones allowed to rewrite messages.

use crate::hook::{Chain, Front, Hook, Opaque, Predicate, Wrapper};
use aas_core::component::Component;
use aas_core::message::Message;
use core::fmt;
use std::collections::BTreeSet;

/// Wrapper properties, as enumerated by the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrapperProp {
    /// Runs only when its condition holds (checked per message).
    Conditional,
    /// Cannot be removed from the chain once composed.
    Mandatory,
    /// At most one member of the named group may be in the chain.
    Exclusive(String),
    /// May modify messages (non-modificatory wrappers observe only).
    Modificatory,
}

/// What a meta-object holds besides its name and run count: its
/// priority, its wrapper properties, its condition and its handler.
#[derive(Debug)]
pub struct Meta {
    priority: i32,
    props: Vec<WrapperProp>,
    condition: Option<Predicate>,
    handler: Opaque<dyn FnMut(&mut Message) + Send>,
}

/// A meta-object wrapping base-level message handling.
pub type MetaObject = Hook<Meta>;

impl MetaObject {
    /// A meta-object named `name` with the given priority (lower runs
    /// first) and handler.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, priority: i32, handler: F) -> Self
    where
        F: FnMut(&mut Message) + Send + 'static,
    {
        let meta = Meta {
            priority,
            props: Vec::new(),
            condition: None,
            handler: Opaque(Box::new(handler)),
        };
        Hook::named(name, meta)
    }

    /// Adds a wrapper property (builder style).
    #[must_use]
    pub fn with_prop(mut self, prop: WrapperProp) -> Self {
        self.action.props.push(prop);
        self
    }

    /// Sets the condition for a [`WrapperProp::Conditional`] wrapper.
    #[must_use]
    pub fn with_condition<F>(mut self, condition: F) -> Self
    where
        F: Fn(&Message) -> bool + Send + 'static,
    {
        if !self.has_prop(&WrapperProp::Conditional) {
            self.action.props.push(WrapperProp::Conditional);
        }
        self.action.condition = Some(Opaque(Box::new(condition)));
        self
    }

    /// Whether the wrapper has the given property.
    #[must_use]
    pub fn has_prop(&self, prop: &WrapperProp) -> bool {
        self.action.props.contains(prop)
    }
}

impl Meta {
    fn exclusive_group(&self) -> Option<&str> {
        self.props.iter().find_map(|p| match p {
            WrapperProp::Exclusive(g) => Some(g.as_str()),
            _ => None,
        })
    }
}

/// Why a composition was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompositionError {
    /// A meta-object with this name is already chained.
    Duplicate(String),
    /// Another member of this exclusivity group is already chained.
    ExclusiveConflict {
        /// The group.
        group: String,
        /// The already-chained member.
        existing: String,
    },
    /// Attempted to remove a mandatory wrapper.
    MandatoryRemoval(String),
    /// No meta-object with this name is chained.
    Unknown(String),
}

impl fmt::Display for CompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompositionError::Duplicate(n) => write!(f, "meta-object `{n}` already chained"),
            CompositionError::ExclusiveConflict { group, existing } => {
                write!(f, "group `{group}` already has `{existing}`")
            }
            CompositionError::MandatoryRemoval(n) => {
                write!(f, "meta-object `{n}` is mandatory and cannot be removed")
            }
            CompositionError::Unknown(n) => write!(f, "no meta-object `{n}` in chain"),
        }
    }
}

impl std::error::Error for CompositionError {}

/// An ordered chain of meta-objects.
///
/// # Examples
///
/// ```
/// use aas_adapt::interaction::{MetaChain, MetaObject, WrapperProp};
/// use aas_core::message::{Message, Value};
///
/// let mut chain = MetaChain::new();
/// chain.compose(
///     MetaObject::new("auth", 0, |m| m.value.set("authed", Value::Bool(true)))
///         .with_prop(WrapperProp::Mandatory)
///         .with_prop(WrapperProp::Modificatory),
/// ).unwrap();
///
/// let mut msg = Message::request("op", Value::map::<&str>([]));
/// chain.invoke(&mut msg);
/// assert_eq!(msg.value.get("authed"), Some(&Value::Bool(true)));
/// ```
#[derive(Debug, Default)]
pub struct MetaChain {
    objects: Chain<Meta>,
    invocations: u64,
}

impl MetaChain {
    /// An empty chain.
    #[must_use]
    pub fn new() -> Self {
        MetaChain::default()
    }

    /// Composes a meta-object into the chain, enforcing duplicate and
    /// exclusivity rules, and placing it by `(priority, declaration
    /// order)`.
    ///
    /// # Errors
    ///
    /// See [`CompositionError`].
    pub fn compose(&mut self, object: MetaObject) -> Result<(), CompositionError> {
        if self.objects.get(&object.name).is_some() {
            return Err(CompositionError::Duplicate(object.name));
        }
        let chained = &mut self.objects.0;
        if let Some(group) = object.action.exclusive_group() {
            if let Some(existing) = chained
                .iter()
                .find(|o| o.action.exclusive_group() == Some(group))
            {
                return Err(CompositionError::ExclusiveConflict {
                    group: group.to_owned(),
                    existing: existing.name.clone(),
                });
            }
        }
        // Every chained object was declared earlier, so it runs first
        // unless its priority is higher.
        let pos = chained
            .iter()
            .position(|o| o.action.priority > object.action.priority)
            .unwrap_or(chained.len());
        chained.insert(pos, object);
        Ok(())
    }

    /// Removes a meta-object.
    ///
    /// # Errors
    ///
    /// Fails for mandatory or unknown objects.
    pub fn remove(&mut self, name: &str) -> Result<(), CompositionError> {
        let object = self
            .objects
            .get(name)
            .ok_or_else(|| CompositionError::Unknown(name.to_owned()))?;
        if object.has_prop(&WrapperProp::Mandatory) {
            return Err(CompositionError::MandatoryRemoval(name.to_owned()));
        }
        self.objects.remove(name);
        Ok(())
    }

    /// The chained names in execution order — the "detailed knowledge of
    /// all the meta-objects that have been already chained".
    #[must_use]
    pub fn chained(&self) -> Vec<&str> {
        self.objects.names().collect()
    }

    /// Groups currently occupied by exclusive wrappers.
    #[must_use]
    pub fn occupied_groups(&self) -> BTreeSet<String> {
        self.objects
            .0
            .iter()
            .filter_map(|o| o.action.exclusive_group().map(str::to_owned))
            .collect()
    }

    /// Runs the chain on `msg`; returns how many handlers executed.
    /// Non-modificatory wrappers see the message but their changes are
    /// discarded; conditional wrappers run only when their predicate holds.
    pub fn invoke(&mut self, msg: &mut Message) -> usize {
        self.invocations += 1;
        let mut ran = 0;
        for o in &mut self.objects.0 {
            if o.has_prop(&WrapperProp::Conditional)
                && !o.action.condition.as_ref().is_some_and(|c| (c.0)(msg))
            {
                continue;
            }
            if o.has_prop(&WrapperProp::Modificatory) {
                (o.action.handler.0)(msg);
            } else {
                (o.action.handler.0)(&mut msg.clone()); // observation only
            }
            o.runs += 1;
            ran += 1;
        }
        ran
    }

    /// Number of chain invocations.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::message::Value;

    fn msg() -> Message {
        Message::request("op", Value::map::<&str>([]))
    }

    fn stamp(key: &'static str) -> impl FnMut(&mut Message) + Send {
        move |m: &mut Message| {
            let next = m
                .value
                .get("trail")
                .and_then(Value::as_str)
                .map(|s| format!("{s},{key}"))
                .unwrap_or_else(|| key.to_owned());
            m.value.set("trail", Value::from(next));
        }
    }

    #[test]
    fn priority_orders_execution() {
        let mut chain = MetaChain::new();
        chain
            .compose(
                MetaObject::new("late", 10, stamp("late")).with_prop(WrapperProp::Modificatory),
            )
            .unwrap();
        chain
            .compose(
                MetaObject::new("early", 0, stamp("early")).with_prop(WrapperProp::Modificatory),
            )
            .unwrap();
        assert_eq!(chain.chained(), vec!["early", "late"]);
        let mut m = msg();
        chain.invoke(&mut m);
        assert_eq!(m.value.get("trail"), Some(&Value::from("early,late")));
    }

    #[test]
    fn equal_priority_keeps_declaration_order() {
        let mut chain = MetaChain::new();
        for name in ["a", "b", "c"] {
            chain
                .compose(MetaObject::new(name, 5, stamp("x")).with_prop(WrapperProp::Modificatory))
                .unwrap();
        }
        assert_eq!(chain.chained(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicates_rejected() {
        let mut chain = MetaChain::new();
        chain.compose(MetaObject::new("m", 0, |_| {})).unwrap();
        assert_eq!(
            chain.compose(MetaObject::new("m", 1, |_| {})),
            Err(CompositionError::Duplicate("m".into()))
        );
    }

    #[test]
    fn exclusive_groups_admit_one_member() {
        let mut chain = MetaChain::new();
        chain
            .compose(
                MetaObject::new("gzip", 0, |_| {})
                    .with_prop(WrapperProp::Exclusive("compression".into())),
            )
            .unwrap();
        let err = chain
            .compose(
                MetaObject::new("lz4", 1, |_| {})
                    .with_prop(WrapperProp::Exclusive("compression".into())),
            )
            .unwrap_err();
        assert_eq!(
            err,
            CompositionError::ExclusiveConflict {
                group: "compression".into(),
                existing: "gzip".into()
            }
        );
        // Removing the occupant frees the group.
        chain.remove("gzip").unwrap();
        chain
            .compose(
                MetaObject::new("lz4", 1, |_| {})
                    .with_prop(WrapperProp::Exclusive("compression".into())),
            )
            .unwrap();
        assert!(chain.occupied_groups().contains("compression"));
    }

    #[test]
    fn mandatory_cannot_be_removed() {
        let mut chain = MetaChain::new();
        chain
            .compose(MetaObject::new("auth", 0, |_| {}).with_prop(WrapperProp::Mandatory))
            .unwrap();
        assert_eq!(
            chain.remove("auth"),
            Err(CompositionError::MandatoryRemoval("auth".into()))
        );
        assert_eq!(
            chain.remove("ghost"),
            Err(CompositionError::Unknown("ghost".into()))
        );
    }

    #[test]
    fn conditional_runs_only_when_predicate_holds() {
        let mut chain = MetaChain::new();
        chain
            .compose(
                MetaObject::new("big-only", 0, stamp("big"))
                    .with_prop(WrapperProp::Modificatory)
                    .with_condition(|m| m.value.get("size").and_then(Value::as_int) > Some(100)),
            )
            .unwrap();
        let mut small = msg();
        small.value.set("size", Value::from(10));
        assert_eq!(chain.invoke(&mut small), 0);
        let mut big = msg();
        big.value.set("size", Value::from(1000));
        assert_eq!(chain.invoke(&mut big), 1);
        assert_eq!(big.value.get("trail"), Some(&Value::from("big")));
    }

    #[test]
    fn non_modificatory_observes_without_changing() {
        let mut chain = MetaChain::new();
        chain
            .compose(MetaObject::new("observer", 0, stamp("observer")))
            .unwrap();
        let mut m = msg();
        assert_eq!(chain.invoke(&mut m), 1);
        assert_eq!(m.value.get("trail"), None, "observer changes discarded");
    }

    #[test]
    fn invocation_counters_track() {
        let mut chain = MetaChain::new();
        chain.compose(MetaObject::new("m", 0, |_| {})).unwrap();
        let mut m = msg();
        chain.invoke(&mut m);
        chain.invoke(&mut m);
        assert_eq!(chain.invocations(), 2);
    }
}

/// A component wrapped by a meta-object chain: every incoming message runs
/// the chain first (meta level), then reaches the base component — the
/// interaction-pattern integration mirror of
/// [`FilteredComponent`](crate::filters::FilteredComponent).
pub type ChainedComponent = Wrapper<MetaChain>;

impl ChainedComponent {
    /// Wraps `inner` with `chain`.
    #[must_use]
    pub fn new(inner: Box<dyn Component>, chain: MetaChain) -> Self {
        Wrapper {
            inner,
            front: chain,
        }
    }

    /// The chain, for run-time composition.
    pub fn chain_mut(&mut self) -> &mut MetaChain {
        &mut self.front
    }
}

impl Front for MetaChain {
    fn before(&mut self, msg: &mut Message) -> bool {
        self.invoke(msg);
        true
    }

    fn cost(&self) -> f64 {
        0.01 * self.objects.0.len() as f64
    }
}

#[cfg(test)]
mod chained_tests {
    use super::*;
    use aas_core::component::{CallCtx, Component, EchoComponent, Effect};
    use aas_core::message::Value;
    use aas_sim::time::SimTime;

    #[test]
    fn chain_runs_before_inner() {
        let mut chain = MetaChain::new();
        chain
            .compose(
                MetaObject::new("enrich", 0, |m| {
                    m.value = Value::from("enriched");
                })
                .with_prop(WrapperProp::Modificatory),
            )
            .unwrap();
        let mut cc = ChainedComponent::new(Box::new(EchoComponent::default()), chain);
        let mut ctx = CallCtx::new(SimTime::ZERO, "cc");
        cc.on_message(
            &mut ctx,
            aas_core::message::Message::request("echo", Value::from("raw")),
        )
        .unwrap();
        let effects = ctx.into_effects();
        assert_eq!(
            effects,
            vec![Effect::Reply {
                value: Value::from("enriched")
            }]
        );
    }

    #[test]
    fn chain_is_composable_at_runtime() {
        let mut cc = ChainedComponent::new(Box::new(EchoComponent::default()), MetaChain::new());
        let base = cc.work_cost(&aas_core::message::Message::request("echo", Value::Null));
        cc.chain_mut()
            .compose(MetaObject::new("observer", 0, |_| {}))
            .unwrap();
        let with_meta = cc.work_cost(&aas_core::message::Message::request("echo", Value::Null));
        assert!(with_meta > base);
    }
}
