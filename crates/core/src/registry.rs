//! The implementation registry: the runtime's "code repository".
//!
//! Rust cannot safely load code at run time, so the registry plays the role
//! a class loader or code server plays in the paper's Java/CORBA world:
//! implementations are registered up front under `(type_name, version)`
//! keys, and *implementation modification* swaps a live instance to another
//! registered implementation — dynamic binding through trait objects, the
//! same observable semantics as dynamic dispatch in AspectJ-style runtime
//! interchange.

use crate::component::Component;
use crate::error::RuntimeError;
use crate::message::{Name, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Construction properties passed to a component factory.
pub type Props = BTreeMap<String, Value>;

/// Factories are `Arc`ed so a cloned registry (a digital-twin fork's
/// "code repository") shares the immutable factory code while owning its
/// own key list.
type Factory = Arc<dyn Fn(&Props) -> Box<dyn Component> + Send + Sync>;

/// A registry of component implementations keyed by type name and version.
///
/// # Examples
///
/// ```
/// use aas_core::registry::ImplementationRegistry;
/// use aas_core::component::EchoComponent;
///
/// let mut reg = ImplementationRegistry::new();
/// reg.register("Echo", 1, |_props| Box::new(EchoComponent::default()));
/// let inst = reg.instantiate("Echo", 1, &Default::default()).unwrap();
/// assert_eq!(inst.type_name(), "Echo");
/// assert_eq!(reg.latest_version("Echo"), Some(1));
/// ```
#[derive(Default, Clone)]
pub struct ImplementationRegistry {
    /// Sorted by `(type_name, version)`. Each type name is stored once a
    /// version, and every instance of it shares that copy.
    factories: Vec<(Name, u32, Factory)>,
}

impl fmt::Debug for ImplementationRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImplementationRegistry")
            .field("entries", &self.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ImplementationRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        ImplementationRegistry::default()
    }

    /// Registers a factory for `(type_name, version)`. Re-registering the
    /// same key replaces the factory (like deploying a rebuilt artifact).
    pub fn register<F>(&mut self, type_name: impl Into<String>, version: u32, factory: F)
    where
        F: Fn(&Props) -> Box<dyn Component> + Send + Sync + 'static,
    {
        let type_name = type_name.into();
        match self.find(&type_name, version) {
            Ok(i) => self.factories[i].2 = Arc::new(factory),
            Err(i) => self
                .factories
                .insert(i, (Name::from(type_name), version, Arc::new(factory))),
        }
    }

    /// Where `(type_name, version)` is in `factories`, or where it would go.
    fn find(&self, type_name: &str, version: u32) -> Result<usize, usize> {
        self.factories
            .binary_search_by(|(n, v, _)| n.as_str().cmp(type_name).then(v.cmp(&version)))
    }

    /// Whether `(type_name, version)` is registered.
    #[must_use]
    pub fn contains(&self, type_name: &str, version: u32) -> bool {
        self.find(type_name, version).is_ok()
    }

    /// The highest registered version of `type_name`, if any.
    #[must_use]
    pub fn latest_version(&self, type_name: &str) -> Option<u32> {
        self.keys()
            .filter(|(n, _)| *n == type_name)
            .map(|(_, v)| v)
            .max()
    }

    /// Instantiates `(type_name, version)` with `props`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownImplementation`] if not registered.
    pub fn instantiate(
        &self,
        type_name: &str,
        version: u32,
        props: &Props,
    ) -> Result<Box<dyn Component>, RuntimeError> {
        self.instantiate_named(type_name, version, props)
            .map(|(_, component)| component)
    }

    /// [`ImplementationRegistry::instantiate`], also handing back the
    /// registry's own copy of `type_name` for the instance to keep.
    pub(crate) fn instantiate_named(
        &self,
        type_name: &str,
        version: u32,
        props: &Props,
    ) -> Result<(Name, Box<dyn Component>), RuntimeError> {
        let i = self
            .find(type_name, version)
            .map_err(|_| RuntimeError::UnknownImplementation {
                type_name: type_name.to_owned(),
                version,
            })?;
        let (name, _, factory) = &self.factories[i];
        Ok((name.clone(), factory(props)))
    }

    /// All registered `(type_name, version)` keys in order.
    pub fn keys(&self) -> impl Iterator<Item = (&str, u32)> {
        self.factories.iter().map(|(n, v, _)| (n.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::EchoComponent;

    #[test]
    fn register_and_instantiate() {
        let mut reg = ImplementationRegistry::new();
        reg.register("Echo", 1, |_| Box::new(EchoComponent::default()));
        assert!(reg.contains("Echo", 1));
        assert!(!reg.contains("Echo", 2));
        let c = reg.instantiate("Echo", 1, &Props::new()).unwrap();
        assert_eq!(c.type_name(), "Echo");
    }

    #[test]
    fn unknown_implementation_errors() {
        let reg = ImplementationRegistry::new();
        let err = reg.instantiate("Nope", 1, &Props::new()).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::UnknownImplementation { type_name, version: 1 } if type_name == "Nope"
        ));
    }

    #[test]
    fn latest_version_picks_max() {
        let mut reg = ImplementationRegistry::new();
        reg.register("X", 1, |_| Box::new(EchoComponent::default()));
        reg.register("X", 3, |_| Box::new(EchoComponent::default()));
        reg.register("X", 2, |_| Box::new(EchoComponent::default()));
        assert_eq!(reg.latest_version("X"), Some(3));
        assert_eq!(reg.latest_version("Y"), None);
    }

    #[test]
    fn props_reach_factory() {
        let mut reg = ImplementationRegistry::new();
        reg.register("Echo", 1, |props| {
            assert_eq!(props.get("mode").and_then(Value::as_str), Some("fast"));
            Box::new(EchoComponent::default())
        });
        let mut props = Props::new();
        props.insert("mode".into(), Value::from("fast"));
        let _ = reg.instantiate("Echo", 1, &props).unwrap();
    }

    #[test]
    fn reregistering_replaces_the_factory() {
        let mut reg = ImplementationRegistry::new();
        reg.register("Echo", 1, |_| panic!("replaced"));
        reg.register("Echo", 1, |_| Box::new(EchoComponent::default()));
        assert_eq!(reg.keys().count(), 1);
        assert!(reg.instantiate("Echo", 1, &Props::new()).is_ok());
    }

    #[test]
    fn keys_iterate_in_order() {
        let mut reg = ImplementationRegistry::new();
        reg.register("B", 1, |_| Box::new(EchoComponent::default()));
        reg.register("A", 2, |_| Box::new(EchoComponent::default()));
        let keys: Vec<(String, u32)> = reg.keys().map(|(n, v)| (n.to_owned(), v)).collect();
        assert_eq!(keys, vec![("A".into(), 2), ("B".into(), 1)]);
    }
}
