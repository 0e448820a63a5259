//! Composition frameworks (approach 1 of the paper's ten).
//!
//! "Composition Frameworks, with pluggable components is similar to
//! electronic cards in a cabinet, where each slot is reserved to a
//! component of a predefined family with compliant specifications. …
//! Composition Frameworks allows interchanging components and aspects
//! dynamically."
//!
//! A [`CompositionFramework`] declares named slots, each reserved for a
//! *family* (an [`Interface`] the plugged component must satisfy), and a
//! set of crosscutting [`FrameworkAspect`]s applied around every dispatch.
//! Both components and aspects interchange at run time.

use crate::hook::{Chain, Hook, Opaque};
use aas_core::component::{CallCtx, Component};
use aas_core::error::ComponentError;
use aas_core::interface::Interface;
use aas_core::message::Message;
use core::fmt;
use std::collections::BTreeMap;

/// A slot declaration: a name plus the family (required interface) that
/// any plugged component must satisfy.
#[derive(Debug, Clone)]
pub struct SlotSpec {
    /// Slot name.
    pub name: String,
    /// The family contract.
    pub family: Interface,
}

impl SlotSpec {
    /// A slot named `name` for components satisfying `family`.
    #[must_use]
    pub fn new(name: impl Into<String>, family: Interface) -> Self {
        SlotSpec {
            name: name.into(),
            family,
        }
    }
}

/// Errors raised by the framework.
#[derive(Debug)]
pub enum FrameworkError {
    /// No slot with this name.
    UnknownSlot(String),
    /// The candidate component does not satisfy the slot's family.
    FamilyMismatch {
        /// The slot.
        slot: String,
        /// The candidate's type name.
        candidate: String,
    },
    /// The slot is empty.
    EmptySlot(String),
    /// The component in the slot failed to handle the message.
    Handler {
        /// The slot.
        slot: String,
        /// What the component reported.
        error: ComponentError,
    },
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::UnknownSlot(s) => write!(f, "unknown slot `{s}`"),
            FrameworkError::FamilyMismatch { slot, candidate } => {
                write!(f, "component `{candidate}` does not fit slot `{slot}`")
            }
            FrameworkError::EmptySlot(s) => write!(f, "slot `{s}` is empty"),
            FrameworkError::Handler { slot, error } => {
                write!(f, "component in slot `{slot}` failed: {error}")
            }
        }
    }
}

impl std::error::Error for FrameworkError {}

type Before = Opaque<dyn FnMut(&str, &mut Message) + Send>;

/// A crosscutting aspect applied around every slot dispatch.
pub type FrameworkAspect = Hook<Before>;

impl FrameworkAspect {
    /// An aspect running `before(slot_name, msg)` ahead of every dispatch.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, before: F) -> Self
    where
        F: FnMut(&str, &mut Message) + Send + 'static,
    {
        Hook::named(name, Opaque(Box::new(before)))
    }
}

#[derive(Debug)]
struct Slot {
    spec: SlotSpec,
    plugged: Option<Box<dyn Component>>,
    interchanges: u64,
}

fn slot_mut<'a>(
    slots: &'a mut BTreeMap<String, Slot>,
    name: &str,
) -> Result<&'a mut Slot, FrameworkError> {
    slots
        .get_mut(name)
        .ok_or_else(|| FrameworkError::UnknownSlot(name.to_owned()))
}

/// The electronic cabinet: named slots + crosscutting aspects.
///
/// # Examples
///
/// ```
/// use aas_adapt::framework::{CompositionFramework, SlotSpec};
/// use aas_core::component::EchoComponent;
/// use aas_core::interface::{Interface, Signature};
///
/// let family = Interface::new("Echo", vec![Signature::one_way("echo")]);
/// let mut fw = CompositionFramework::new();
/// fw.declare_slot(SlotSpec::new("codec", family));
/// fw.plug("codec", Box::new(EchoComponent::default())).unwrap();
/// assert_eq!(fw.plugged_type("codec"), Some("Echo"));
/// ```
#[derive(Debug, Default)]
pub struct CompositionFramework {
    slots: BTreeMap<String, Slot>,
    aspects: Chain<Before>,
}

impl CompositionFramework {
    /// An empty framework.
    #[must_use]
    pub fn new() -> Self {
        CompositionFramework::default()
    }

    /// Declares a slot.
    pub fn declare_slot(&mut self, spec: SlotSpec) {
        self.slots.insert(
            spec.name.clone(),
            Slot {
                spec,
                plugged: None,
                interchanges: 0,
            },
        );
    }

    /// Plugs `component` into `slot`, replacing any previous occupant.
    ///
    /// # Errors
    ///
    /// Fails if the slot is unknown or the component's provided interface
    /// does not satisfy the slot's family.
    pub fn plug(
        &mut self,
        slot: &str,
        component: Box<dyn Component>,
    ) -> Result<(), FrameworkError> {
        let s = slot_mut(&mut self.slots, slot)?;
        if !component.provided().satisfies_requirement(&s.spec.family) {
            return Err(FrameworkError::FamilyMismatch {
                slot: slot.to_owned(),
                candidate: component.type_name().to_owned(),
            });
        }
        if s.plugged.is_some() {
            s.interchanges += 1;
        }
        s.plugged = Some(component);
        Ok(())
    }

    /// Unplugs and returns the occupant of `slot`.
    ///
    /// # Errors
    ///
    /// Fails if the slot is unknown.
    pub fn unplug(&mut self, slot: &str) -> Result<Option<Box<dyn Component>>, FrameworkError> {
        let s = slot_mut(&mut self.slots, slot)?;
        Ok(s.plugged.take())
    }

    /// The type name of the component in `slot`, if any.
    #[must_use]
    pub fn plugged_type(&self, slot: &str) -> Option<&str> {
        Some(self.slots.get(slot)?.plugged.as_deref()?.type_name())
    }

    /// How often `slot` has had its occupant interchanged.
    #[must_use]
    pub fn interchanges(&self, slot: &str) -> u64 {
        self.slots.get(slot).map_or(0, |s| s.interchanges)
    }

    /// Installs (or replaces, by name) a crosscutting aspect.
    pub fn install_aspect(&mut self, aspect: FrameworkAspect) {
        self.aspects.install(aspect);
    }

    /// Removes an aspect by name; `true` if removed.
    pub fn remove_aspect(&mut self, name: &str) -> bool {
        self.aspects.remove(name)
    }

    /// Declared slot names.
    pub fn slot_names(&self) -> impl Iterator<Item = &str> {
        self.slots.keys().map(String::as_str)
    }

    /// Dispatches `msg` to the component in `slot`, running every aspect's
    /// before-advice first.
    ///
    /// # Errors
    ///
    /// Fails if the slot is unknown or empty, or the component errors.
    pub fn dispatch(
        &mut self,
        slot: &str,
        ctx: &mut CallCtx,
        mut msg: Message,
    ) -> Result<(), FrameworkError> {
        let s = slot_mut(&mut self.slots, slot)?;
        for aspect in &mut self.aspects.0 {
            (aspect.action.0)(slot, &mut msg);
            aspect.runs += 1;
        }
        let comp = s
            .plugged
            .as_mut()
            .ok_or_else(|| FrameworkError::EmptySlot(slot.to_owned()))?;
        comp.on_message(ctx, msg)
            .map_err(|error| FrameworkError::Handler {
                slot: slot.to_owned(),
                error,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::component::EchoComponent;
    use aas_core::interface::Signature;
    use aas_core::message::Value;
    use aas_sim::time::SimTime;

    fn echo_family() -> Interface {
        Interface::new("Echo", vec![Signature::one_way("echo")])
    }

    fn framework() -> CompositionFramework {
        let mut fw = CompositionFramework::new();
        fw.declare_slot(SlotSpec::new("codec", echo_family()));
        fw
    }

    #[test]
    fn plug_respects_family() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        assert_eq!(fw.plugged_type("codec"), Some("Echo"));
    }

    #[test]
    fn family_mismatch_rejected() {
        let mut fw = CompositionFramework::new();
        let strict_family = Interface::new("Strict", vec![Signature::one_way("must_have_this")]);
        fw.declare_slot(SlotSpec::new("s", strict_family));
        let err = fw
            .plug("s", Box::new(EchoComponent::default()))
            .unwrap_err();
        assert!(matches!(err, FrameworkError::FamilyMismatch { .. }));
    }

    #[test]
    fn unknown_slot_rejected() {
        let mut fw = framework();
        assert!(matches!(
            fw.plug("ghost", Box::new(EchoComponent::default())),
            Err(FrameworkError::UnknownSlot(_))
        ));
    }

    #[test]
    fn interchange_counts() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        assert_eq!(fw.interchanges("codec"), 0);
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        assert_eq!(fw.interchanges("codec"), 1);
    }

    #[test]
    fn unplug_empties_slot() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        let taken = fw.unplug("codec").unwrap();
        assert!(taken.is_some());
        assert_eq!(fw.plugged_type("codec"), None);
        let mut ctx = CallCtx::new(SimTime::ZERO, "fw");
        let msg = Message::request("echo", Value::Null);
        assert!(matches!(
            fw.dispatch("codec", &mut ctx, msg),
            Err(FrameworkError::EmptySlot(_))
        ));
    }

    #[test]
    fn dispatch_runs_aspects_then_component() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        fw.install_aspect(FrameworkAspect::new("tagger", |slot, m| {
            m.value = Value::map([("slot", Value::from(slot)), ("orig", m.value.clone())]);
        }));
        let mut ctx = CallCtx::new(SimTime::ZERO, "fw");
        fw.dispatch("codec", &mut ctx, Message::request("echo", Value::from(9)))
            .unwrap();
        // Echo replied with the aspect-transformed payload.
        let effects = ctx.into_effects();
        assert_eq!(effects.len(), 1);
        if let aas_core::component::Effect::Reply { value } = &effects[0] {
            assert_eq!(value.get("slot"), Some(&Value::from("codec")));
            assert_eq!(value.get("orig"), Some(&Value::from(9)));
        } else {
            panic!("expected reply");
        }
    }

    #[test]
    fn aspects_interchange_dynamically() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        fw.install_aspect(FrameworkAspect::new("a", |_, _| {}));
        fw.install_aspect(FrameworkAspect::new("a", |_, _| {})); // replace
        let mut ctx = CallCtx::new(SimTime::ZERO, "fw");
        fw.dispatch("codec", &mut ctx, Message::request("echo", Value::Null))
            .unwrap();
        assert!(fw.remove_aspect("a"));
        assert!(!fw.remove_aspect("a"));
    }

    #[test]
    fn handler_failure_is_not_an_empty_slot() {
        let mut fw = framework();
        fw.plug("codec", Box::new(EchoComponent::default()))
            .unwrap();
        let mut ctx = CallCtx::new(SimTime::ZERO, "fw");
        let err = fw
            .dispatch("codec", &mut ctx, Message::request("nonsense", Value::Null))
            .unwrap_err();
        assert!(
            matches!(&err, FrameworkError::Handler { slot, error: aas_core::error::ComponentError::UnsupportedOperation(op) }
                if slot == "codec" && op == "nonsense"),
            "{err:?}"
        );
        let text = err.to_string();
        assert!(text.contains("failed") && !text.contains("empty"), "{text}");
        assert_eq!(fw.plugged_type("codec"), Some("Echo"), "still occupied");
    }

    #[test]
    fn slot_names_enumerate() {
        let mut fw = framework();
        fw.declare_slot(SlotSpec::new("transport", echo_family()));
        let names: Vec<&str> = fw.slot_names().collect();
        assert_eq!(names, vec!["codec", "transport"]);
    }
}
