//! Messages exchanged between components.
//!
//! Messages carry a dynamically-typed [`Value`] payload plus the metadata
//! the framework needs for its correctness obligations: per-flow sequence
//! numbers (loss/duplication detection while reconfiguring) and send
//! timestamps (delay measurement).

use aas_sim::time::SimTime;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable name — operation, sender, port, metric or map key — that
/// clones without allocating: a literal is kept by reference, any other
/// string is shared. Names sit on every message, so the per-message path
/// copies and drops them freely.
///
/// # Examples
///
/// ```
/// use aas_core::message::Name;
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
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Lit(s) => s,
            NameRepr::Shared(s) => s,
        }
    }
}

impl Default for Name {
    fn default() -> Self {
        Name(NameRepr::Lit(""))
    }
}

impl From<&'static str> for Name {
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
    fn deref(&self) -> &str {
        self.as_str()
    }
}

// Equality and order are those of the string, whichever way it is held,
// so a map keyed by `Name` can be searched with a `&str`.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> core::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
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

/// A dynamically-typed payload value.
///
/// Components, composition filters and connectors all manipulate `Value`s,
/// which is what makes filters "implementation independent" in the paper's
/// sense: a filter can inspect and rewrite any message without knowing the
/// component types involved.
///
/// # Examples
///
/// ```
/// use aas_core::message::Value;
///
/// let v = Value::map([("user", Value::from("ada")), ("age", Value::from(36))]);
/// assert_eq!(v.get("user").and_then(Value::as_str), Some("ada"));
/// assert_eq!(v.get("age").and_then(Value::as_int), Some(36));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// The absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes (length is what matters for transit cost).
    Bytes(Vec<u8>),
    /// An ordered list.
    List(Vec<Value>),
    /// A name-keyed map.
    Map(BTreeMap<Name, Value>),
}

impl Value {
    /// Builds a map value from `(key, value)` pairs; a later pair replaces
    /// an earlier one with the same key.
    pub fn map<K: Into<Name>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        // Inserted one by one: collecting would buffer the pairs in a
        // `Vec` first, a second allocation on every frame a source emits.
        let mut m = BTreeMap::new();
        for (k, v) in pairs {
            m.insert(k.into(), v);
        }
        Value::Map(m)
    }

    /// Map lookup; `None` for non-maps or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// Sets a key on a map value; does nothing on non-maps.
    pub fn set(&mut self, key: impl Into<Name>, value: Value) {
        if let Value::Map(m) = self {
            m.insert(key.into(), value);
        }
    }

    /// Reads an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Reads a float (integers widen).
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Reads a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reads a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Estimated wire size in bytes, used for transit-time computation.
    #[must_use]
    pub fn estimated_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64 + 4,
            Value::Bytes(b) => b.len() as u64 + 4,
            Value::List(items) => 4 + items.iter().map(Value::estimated_size).sum::<u64>(),
            Value::Map(m) => {
                4 + m
                    .iter()
                    .map(|(k, v)| k.len() as u64 + 4 + v.estimated_size())
                    .sum::<u64>()
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Bytes(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Unique identifier of a message within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg{}", self.0)
    }
}

/// Kinds of messages a component can receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// A request expecting processing (and possibly a reply).
    Request,
    /// A reply correlated to an earlier request.
    Reply,
    /// A one-way notification.
    Event,
}

/// A message traveling between component ports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Unique id.
    pub id: MessageId,
    /// Request/reply/event.
    pub kind: MessageKind,
    /// Operation name; matched against the target's provided interface.
    pub op: Name,
    /// Payload.
    pub value: Value,
    /// For replies: the request this answers.
    pub correlation: Option<MessageId>,
    /// Per-flow sequence number, assigned by the sending runtime; used to
    /// detect loss, duplication and reordering across reconfigurations.
    pub seq: u64,
    /// Explicit wire size in bytes, overriding the estimate derived from
    /// the payload. Media frames use this so a frame *weighs* what its
    /// codec says even though its in-memory payload is a small metadata
    /// map.
    pub size_hint: Option<u64>,
    /// Instance name of the sender ("external" for injected workload).
    pub from: Name,
    /// When the message was sent.
    pub sent_at: SimTime,
}

impl Message {
    /// Builds a request message; the runtime fills `id`, `seq`, `from` and
    /// `sent_at` at send time.
    #[must_use]
    pub fn request(op: impl Into<Name>, value: Value) -> Message {
        Message {
            id: MessageId(0),
            kind: MessageKind::Request,
            op: op.into(),
            value,
            correlation: None,
            seq: 0,
            size_hint: None,
            from: Name::default(),
            sent_at: SimTime::ZERO,
        }
    }

    /// Builds a one-way event message.
    #[must_use]
    pub fn event(op: impl Into<Name>, value: Value) -> Message {
        Message {
            kind: MessageKind::Event,
            ..Message::request(op, value)
        }
    }

    /// Builds a reply to `request` with the given payload.
    #[must_use]
    pub fn reply_to(request: &Message, value: Value) -> Message {
        Message::reply(request.id, &request.op, value)
    }

    /// Builds a reply to the request `id` of operation `op`: what
    /// [`Message::reply_to`] reads off a request, for a caller that no
    /// longer holds it.
    pub(crate) fn reply(id: MessageId, op: &str, value: Value) -> Message {
        Message {
            id: MessageId(0),
            kind: MessageKind::Reply,
            op: format!("{op}.reply").into(),
            value,
            correlation: Some(id),
            seq: 0,
            size_hint: None,
            from: Name::default(),
            sent_at: SimTime::ZERO,
        }
    }

    /// Sets the explicit wire size (builder style).
    #[must_use]
    pub fn with_size(mut self, bytes: u64) -> Message {
        self.size_hint = Some(bytes);
        self
    }

    /// Wire size: the explicit [`Message::size_hint`] when set, otherwise
    /// the payload estimate plus a fixed header.
    #[must_use]
    pub fn wire_size(&self) -> u64 {
        match self.size_hint {
            Some(bytes) => 64 + bytes,
            None => 64 + self.op.len() as u64 + self.value.estimated_size(),
        }
    }
}

/// Tracks per-flow sequence numbers on the receiving side and classifies
/// each arrival, catching the paper's three channel hazards: loss,
/// duplication and reordering.
///
/// # Examples
///
/// ```
/// use aas_core::message::{SequenceTracker, SeqVerdict};
///
/// let mut t = SequenceTracker::new();
/// assert_eq!(t.observe("a", 0), SeqVerdict::InOrder);
/// assert_eq!(t.observe("a", 1), SeqVerdict::InOrder);
/// assert_eq!(t.observe("a", 3), SeqVerdict::Gap { missing: 1 });
/// assert_eq!(t.observe("a", 3), SeqVerdict::Duplicate);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SequenceTracker {
    next_expected: BTreeMap<String, u64>,
    gaps: u64,
    duplicates: u64,
    reordered: u64,
}

/// Classification of one observed sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqVerdict {
    /// Exactly the next expected number.
    InOrder,
    /// Jumped forward; `missing` numbers were skipped (potential loss).
    Gap {
        /// How many sequence numbers were skipped.
        missing: u64,
    },
    /// A number at or before one already seen arrived again.
    Duplicate,
}

impl SequenceTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        SequenceTracker::default()
    }

    /// Observes sequence number `seq` on flow `flow` and classifies it.
    /// The flow name is only allocated the first time a flow is seen;
    /// steady-state observations look up by `&str` and allocate nothing.
    pub fn observe(&mut self, flow: &str, seq: u64) -> SeqVerdict {
        let next = match self.next_expected.get_mut(flow) {
            Some(next) => next,
            None => self.next_expected.entry(flow.to_owned()).or_insert(0),
        };
        if seq == *next {
            *next += 1;
            SeqVerdict::InOrder
        } else if seq > *next {
            let missing = seq - *next;
            self.gaps += missing;
            *next = seq + 1;
            SeqVerdict::Gap { missing }
        } else {
            self.duplicates += 1;
            self.reordered += 1;
            SeqVerdict::Duplicate
        }
    }

    /// Total sequence numbers skipped (lower bound on lost messages).
    #[must_use]
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Total duplicate/late arrivals.
    #[must_use]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// True if every flow arrived exactly in order so far.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.gaps == 0 && self.duplicates == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_roundtrip() {
        assert_eq!(Value::from(3).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from(7).as_float(), Some(7.0));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn map_get_set() {
        let mut v = Value::map([("a", Value::from(1))]);
        v.set("b", Value::from(2));
        assert_eq!(v.get("b").and_then(Value::as_int), Some(2));
        assert_eq!(v.get("zz"), None);
        // set on non-map is a no-op
        let mut n = Value::Null;
        n.set("x", Value::from(1));
        assert_eq!(n, Value::Null);
    }

    #[test]
    fn estimated_size_scales_with_content() {
        let small = Value::from("x");
        let big = Value::Bytes(vec![0; 10_000]);
        assert!(big.estimated_size() > small.estimated_size());
        let nested = Value::map([("k", Value::List(vec![Value::from(1); 100]))]);
        assert!(nested.estimated_size() > 800);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::map([
            ("n", Value::from(1)),
            ("s", Value::from("a")),
            ("l", Value::List(vec![Value::Bool(true), Value::Null])),
        ]);
        assert_eq!(v.to_string(), "{l: [true, null], n: 1, s: \"a\"}");
    }

    #[test]
    fn reply_correlates_to_request() {
        let mut req = Message::request("fetch", Value::Null);
        req.id = MessageId(42);
        let rep = Message::reply_to(&req, Value::from(1));
        assert_eq!(rep.correlation, Some(MessageId(42)));
        assert_eq!(rep.kind, MessageKind::Reply);
        assert_eq!(rep.op, "fetch.reply");
    }

    #[test]
    fn wire_size_includes_header() {
        let m = Message::request("op", Value::Null);
        assert!(m.wire_size() >= 64);
    }

    #[test]
    fn tracker_clean_run_stays_clean() {
        let mut t = SequenceTracker::new();
        for i in 0..100 {
            assert_eq!(t.observe("f", i), SeqVerdict::InOrder);
        }
        assert!(t.is_clean());
    }

    #[test]
    fn tracker_counts_gaps_and_dups() {
        let mut t = SequenceTracker::new();
        t.observe("f", 0);
        assert_eq!(t.observe("f", 5), SeqVerdict::Gap { missing: 4 });
        assert_eq!(t.observe("f", 2), SeqVerdict::Duplicate);
        assert_eq!(t.gaps(), 4);
        assert_eq!(t.duplicates(), 1);
        assert!(!t.is_clean());
    }

    #[test]
    fn tracker_flows_are_independent() {
        let mut t = SequenceTracker::new();
        t.observe("a", 0);
        assert_eq!(t.observe("b", 0), SeqVerdict::InOrder);
        assert_eq!(t.observe("a", 1), SeqVerdict::InOrder);
        assert!(t.is_clean());
    }
}
