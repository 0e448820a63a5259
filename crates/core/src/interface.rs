//! Component interfaces and backward-compatibility checking.
//!
//! The paper's "interface modification" reconfiguration changes a
//! component's provided signatures "while keeping the compliancy with
//! previous versions". [`Interface::check_backward_compatible`] is the
//! machine-checkable form of that obligation: every signature of the old
//! interface must still be served, with parameter types that accept at
//! least what they used to and return types that promise no less.
//!
//! Names and lists are borrowed when they are fixed: a component whose
//! interface never changes keeps it in a `static` built at compile time
//! ([`Interface::fixed`], [`Signature::fixed`]), so reading it, comparing
//! it or holding it costs no allocation.

use core::fmt;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Dynamic type tags for operation parameters and results.
///
/// `Any` accepts every value; it is the top of the small subtype lattice
/// used by compatibility checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TypeTag {
    /// No value / unit.
    Unit,
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float. `Int` is accepted where `Float` is expected.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// A list of anything.
    List,
    /// A string-keyed map.
    Map,
    /// Any value at all.
    Any,
}

impl TypeTag {
    /// Whether a value of type `self` is acceptable where `expected` is
    /// required (`self <: expected`).
    #[must_use]
    pub fn satisfies(self, expected: TypeTag) -> bool {
        expected == TypeTag::Any
            || self == expected
            || (self == TypeTag::Int && expected == TypeTag::Float)
    }
}

impl fmt::Display for TypeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TypeTag::Unit => "unit",
            TypeTag::Bool => "bool",
            TypeTag::Int => "int",
            TypeTag::Float => "float",
            TypeTag::Str => "str",
            TypeTag::Bytes => "bytes",
            TypeTag::List => "list",
            TypeTag::Map => "map",
            TypeTag::Any => "any",
        };
        f.write_str(s)
    }
}

/// One provided operation: a name, parameter types and a result type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    /// Operation name.
    pub name: Cow<'static, str>,
    /// Parameter types, in order.
    pub params: Cow<'static, [TypeTag]>,
    /// Result type (`Unit` for one-way operations).
    pub returns: TypeTag,
}

impl Signature {
    /// A new signature.
    #[must_use]
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        params: impl Into<Cow<'static, [TypeTag]>>,
        returns: TypeTag,
    ) -> Self {
        Signature {
            name: name.into(),
            params: params.into(),
            returns,
        }
    }

    /// A signature fixed at compile time, for a `static` interface.
    #[must_use]
    pub const fn fixed(name: &'static str, params: &'static [TypeTag], returns: TypeTag) -> Self {
        Signature {
            name: Cow::Borrowed(name),
            params: Cow::Borrowed(params),
            returns,
        }
    }

    /// A one-way operation taking a single `Any` payload — the common case
    /// for message-oriented components.
    #[must_use]
    pub const fn one_way(name: &'static str) -> Self {
        Signature::fixed(name, &[TypeTag::Any], TypeTag::Unit)
    }

    /// Whether this (newer) signature can serve calls written against
    /// `older`: same arity, parameters no narrower, result no wider.
    #[must_use]
    pub fn can_replace(&self, older: &Signature) -> bool {
        self.name == older.name
            && self.params.len() == older.params.len()
            && older
                .params
                .iter()
                .zip(self.params.iter())
                .all(|(old_p, new_p)| old_p.satisfies(*new_p))
            && self.returns.satisfies(older.returns)
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.returns)
    }
}

/// A named set of provided operations with a version number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interface {
    /// Interface name.
    pub name: Cow<'static, str>,
    /// Interface version; bumped on every modification.
    pub version: u32,
    /// Provided operations.
    pub signatures: Cow<'static, [Signature]>,
}

/// Why an interface change is not backward compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompatViolation {
    /// An operation present before has disappeared.
    RemovedOperation(String),
    /// An operation still exists but its signature no longer serves old
    /// callers.
    ChangedSignature {
        /// The operation name.
        name: String,
        /// The old signature, rendered.
        old: String,
        /// The new signature, rendered.
        new: String,
    },
}

impl fmt::Display for CompatViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatViolation::RemovedOperation(n) => write!(f, "operation `{n}` removed"),
            CompatViolation::ChangedSignature { name, old, new } => {
                write!(f, "operation `{name}` changed incompatibly: {old} -> {new}")
            }
        }
    }
}

impl Interface {
    /// A new interface at version 1.
    #[must_use]
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        signatures: impl Into<Cow<'static, [Signature]>>,
    ) -> Self {
        Interface {
            name: name.into(),
            version: 1,
            signatures: signatures.into(),
        }
    }

    /// An interface at version 1 fixed at compile time, for a `static`:
    /// it holds no allocation.
    ///
    /// # Examples
    ///
    /// ```
    /// use aas_core::interface::{Interface, Signature, TypeTag};
    ///
    /// static OPS: [Signature; 2] = [
    ///     Signature::one_way("tick"),
    ///     Signature::fixed("reset", &[TypeTag::Int], TypeTag::Unit),
    /// ];
    /// static COUNTER: Interface = Interface::fixed("Counter", &OPS);
    /// assert!(COUNTER.provides("reset"));
    /// let built = vec![
    ///     Signature::one_way("tick"),
    ///     Signature::new("reset", vec![TypeTag::Int], TypeTag::Unit),
    /// ];
    /// assert_eq!(COUNTER, Interface::new("Counter", built));
    /// ```
    #[must_use]
    pub const fn fixed(name: &'static str, signatures: &'static [Signature]) -> Self {
        Interface {
            name: Cow::Borrowed(name),
            version: 1,
            signatures: Cow::Borrowed(signatures),
        }
    }

    /// An empty interface (components that only consume).
    #[must_use]
    pub fn empty(name: impl Into<Cow<'static, str>>) -> Self {
        Interface::new(name, Vec::new())
    }

    /// Looks up a signature by operation name.
    #[must_use]
    pub fn signature(&self, op: &str) -> Option<&Signature> {
        self.signatures.iter().find(|s| s.name == op)
    }

    /// Whether the interface provides operation `op`.
    #[must_use]
    pub fn provides(&self, op: &str) -> bool {
        self.signature(op).is_some()
    }

    /// Returns a new interface extending this one with `extra` operations
    /// and a bumped version — the paper's interface *extension*, which is
    /// backward compatible by construction.
    #[must_use]
    pub fn extended_with(&self, extra: Vec<Signature>) -> Interface {
        let mut signatures = self.signatures.to_vec();
        for sig in extra {
            signatures.retain(|s| s.name != sig.name);
            signatures.push(sig);
        }
        Interface {
            name: self.name.clone(),
            version: self.version + 1,
            signatures: signatures.into(),
        }
    }

    /// Checks that `self` (the newer interface) can serve every caller of
    /// `older`. Returns all violations; empty means compatible.
    #[must_use]
    pub fn check_backward_compatible(&self, older: &Interface) -> Vec<CompatViolation> {
        let mut violations = Vec::new();
        for old_sig in older.signatures.iter() {
            match self.signature(&old_sig.name) {
                None => {
                    violations.push(CompatViolation::RemovedOperation(old_sig.name.to_string()))
                }
                Some(new_sig) => {
                    if !new_sig.can_replace(old_sig) {
                        violations.push(CompatViolation::ChangedSignature {
                            name: old_sig.name.to_string(),
                            old: old_sig.to_string(),
                            new: new_sig.to_string(),
                        });
                    }
                }
            }
        }
        violations
    }

    /// Whether `self` is backward compatible with `older`.
    #[must_use]
    pub fn is_backward_compatible_with(&self, older: &Interface) -> bool {
        self.check_backward_compatible(older).is_empty()
    }

    /// Whether a *required* interface (what a caller needs) is satisfied by
    /// this provided interface: every required operation must exist with a
    /// compatible signature.
    #[must_use]
    pub fn satisfies_requirement(&self, required: &Interface) -> bool {
        required.signatures.iter().all(|req| {
            self.signature(&req.name)
                .is_some_and(|s| s.can_replace(req))
        })
    }
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} v{} {{", self.name, self.version)?;
        for (i, s) in self.signatures.iter().enumerate() {
            if i > 0 {
                f.write_str("; ")?;
            }
            write!(f, "{s}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iface_v1() -> Interface {
        Interface::new(
            "Store",
            vec![
                Signature::new("get", vec![TypeTag::Str], TypeTag::Any),
                Signature::new("put", vec![TypeTag::Str, TypeTag::Any], TypeTag::Unit),
            ],
        )
    }

    #[test]
    fn type_lattice_behaves() {
        assert!(TypeTag::Int.satisfies(TypeTag::Any));
        assert!(TypeTag::Int.satisfies(TypeTag::Float));
        assert!(!TypeTag::Float.satisfies(TypeTag::Int));
        assert!(TypeTag::Str.satisfies(TypeTag::Str));
        assert!(!TypeTag::Str.satisfies(TypeTag::Bytes));
    }

    #[test]
    fn extension_is_backward_compatible() {
        let v1 = iface_v1();
        let v2 = v1.extended_with(vec![Signature::one_way("delete")]);
        assert_eq!(v2.version, 2);
        assert!(v2.is_backward_compatible_with(&v1));
        assert!(v2.provides("delete"));
        assert!(!v1.is_backward_compatible_with(&v2), "older lacks delete");
    }

    #[test]
    fn widening_params_is_compatible() {
        let v1 = iface_v1();
        // `get` now accepts Any key instead of Str: widening, OK.
        let v2 = v1.extended_with(vec![Signature::new(
            "get",
            vec![TypeTag::Any],
            TypeTag::Any,
        )]);
        assert!(v2.is_backward_compatible_with(&v1));
    }

    #[test]
    fn narrowing_return_is_compatible_but_widening_is_not() {
        let old = Interface::new("I", vec![Signature::new("f", vec![], TypeTag::Float)]);
        // Returning Int where Float was promised: Int satisfies Float — OK.
        let narrower = Interface::new("I", vec![Signature::new("f", vec![], TypeTag::Int)]);
        assert!(narrower.is_backward_compatible_with(&old));
        // Returning Any where Float was promised: not OK.
        let wider = Interface::new("I", vec![Signature::new("f", vec![], TypeTag::Any)]);
        assert!(!wider.is_backward_compatible_with(&old));
    }

    #[test]
    fn removal_is_flagged() {
        let v1 = iface_v1();
        let broken = Interface::new(
            "Store",
            vec![Signature::new("get", vec![TypeTag::Str], TypeTag::Any)],
        );
        let violations = broken.check_backward_compatible(&v1);
        assert_eq!(
            violations,
            vec![CompatViolation::RemovedOperation("put".into())]
        );
    }

    #[test]
    fn arity_change_is_flagged() {
        let v1 = iface_v1();
        let broken = v1.extended_with(vec![Signature::new(
            "get",
            vec![TypeTag::Str, TypeTag::Str],
            TypeTag::Any,
        )]);
        let violations = broken.check_backward_compatible(&v1);
        assert!(matches!(
            &violations[..],
            [CompatViolation::ChangedSignature { name, .. }] if name == "get"
        ));
    }

    #[test]
    fn requirement_satisfaction() {
        let provided = iface_v1();
        let need_get = Interface::new(
            "NeedsGet",
            vec![Signature::new("get", vec![TypeTag::Str], TypeTag::Any)],
        );
        assert!(provided.satisfies_requirement(&need_get));
        let need_scan = Interface::new("NeedsScan", vec![Signature::one_way("scan")]);
        assert!(!provided.satisfies_requirement(&need_scan));
    }

    #[test]
    fn display_renders_signatures() {
        let s = Signature::new("get", vec![TypeTag::Str], TypeTag::Any).to_string();
        assert_eq!(s, "get(str) -> any");
        assert!(iface_v1().to_string().starts_with("Store v1 {"));
    }

    #[test]
    fn extended_with_replaces_same_name() {
        let v1 = iface_v1();
        let v2 = v1.extended_with(vec![Signature::new(
            "get",
            vec![TypeTag::Any],
            TypeTag::Any,
        )]);
        assert_eq!(v2.signatures.iter().filter(|s| s.name == "get").count(), 1);
    }
}
