//! Names that clone without allocating.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable name — operation, sender, port, metric or map key — that
/// clones without allocating: a literal is kept by reference, any other
/// string is shared. Names sit on every message, so the per-message path
/// copies and drops them freely. It lives here so that audit records can
/// share the runtime's names; its small methods are `#[inline]` because
/// the runtime compares names on every message it dispatches.
///
/// # Examples
///
/// ```
/// use aas_obs::Name;
///
/// let lit = Name::from("frame");
/// let built = Name::from(format!("fra{}", "me"));
/// assert_eq!(lit, built);
/// assert_eq!(lit, "frame");
/// assert_eq!(built.clone().as_str(), "frame");
/// ```
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Lit(&'static str),
    Shared(Arc<str>),
}

impl Name {
    /// The name as a string slice.
    #[must_use]
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Lit(s) => s,
            NameRepr::Shared(s) => s,
        }
    }
}

impl Default for Name {
    #[inline]
    fn default() -> Self {
        Name(NameRepr::Lit(""))
    }
}

impl From<&'static str> for Name {
    #[inline]
    fn from(s: &'static str) -> Name {
        Name(NameRepr::Lit(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(NameRepr::Shared(s.into()))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name(NameRepr::Shared(s.as_str().into()))
    }
}

impl Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

// Equality and order are those of the string, whichever way it is held,
// so a map keyed by `Name` can be searched with a `&str`.
impl Borrow<str> for Name {
    #[inline]
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    #[inline]
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for Name {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    #[inline]
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}
