//! Messages exchanged between components.
//!
//! Messages carry a dynamically-typed [`Value`] payload plus the metadata
//! the framework needs for its correctness obligations: per-flow sequence
//! numbers (loss/duplication detection while reconfiguring) and send
//! timestamps (delay measurement).

use aas_sim::time::SimTime;
use core::cmp::Ordering;
use core::fmt;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

pub use aas_obs::Name;

/// The entries of a [`Value::Map`]: one buffer of `(key, value)` pairs,
/// kept sorted by key and searched linearly.
///
/// The maps of this workspace hold at most eight entries, where a scan
/// reads as fast as a B-tree and faster than a binary search. One buffer
/// is also what can be reused: a map's first insert and every clone take
/// a buffer from the thread's pool, and a map that drops gives its buffer
/// back, so a source that builds a payload per frame, and an application
/// that injects one between
/// [`Runtime::run_until`](crate::runtime::Runtime::run_until) calls, stop
/// allocating once warm. When a call returns, the pool keeps only as many
/// idle buffers as the next call and what runs before it may take.
/// Iteration order, equality, `Display` and `Debug` are those of a
/// `BTreeMap<Name, Value>`.
///
/// # Examples
///
/// ```
/// use aas_core::message::{Fields, Value};
///
/// let mut f = Fields::default();
/// assert_eq!(f.insert("b".into(), Value::from(2)), None);
/// assert_eq!(f.insert("a".into(), Value::from(1)), None);
/// assert_eq!(f.insert("b".into(), Value::from(3)), Some(Value::from(2)));
/// let keys: Vec<&str> = f.iter().map(|(k, _)| k.as_str()).collect();
/// assert_eq!(keys, ["a", "b"]);
/// assert_eq!(f.get("b"), Some(&Value::from(3)));
/// assert_eq!(format!("{f:?}"), r#"{"a": Int(1), "b": Int(3)}"#);
/// ```
#[derive(Default, PartialEq)]
pub struct Fields {
    entries: Vec<(Name, Value)>,
}

/// Slots a map's first buffer reserves: a media frame carries four fields.
const FRESH_SLOTS: usize = 4;
/// Below this many entries a full buffer grows by exactly one slot, so a
/// buffer is as large as the largest map that has held it.
const EXACT_GROWTH_BELOW: usize = 8;

impl Fields {
    /// The value under `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| v)
    }

    /// Inserts `value` under `key`, returning the value it replaces (the
    /// key already held is kept).
    pub fn insert(&mut self, key: Name, value: Value) -> Option<Value> {
        let mut at = self.entries.len();
        for (i, (k, v)) in self.entries.iter_mut().enumerate() {
            match k.as_str().cmp(key.as_str()) {
                Ordering::Less => {}
                Ordering::Equal => return Some(std::mem::replace(v, value)),
                Ordering::Greater => {
                    at = i;
                    break;
                }
            }
        }
        let len = self.entries.len();
        if self.entries.capacity() == 0 {
            self.entries = take_buffer(1);
        } else if len == self.entries.capacity() && len < EXACT_GROWTH_BELOW {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(at, (key, value));
        None
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Name, &Value)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// How many entries there are.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are none.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Clone for Fields {
    fn clone(&self) -> Fields {
        if self.entries.is_empty() {
            return Fields::default();
        }
        let mut entries = take_buffer(self.entries.len());
        entries.extend_from_slice(&self.entries);
        Fields { entries }
    }
}

impl Drop for Fields {
    fn drop(&mut self) {
        if self.entries.capacity() > 0 {
            let mut buf = std::mem::take(&mut self.entries);
            // Nested maps give their buffers back before this one.
            buf.clear();
            give_buffer(buf);
        }
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The map buffers a thread reuses, always installed: every map built on
/// the thread takes its buffer from here and gives it back when it drops.
/// Idle buffers are trimmed when a runtime call returns (see [`in_call`])
/// and freed when a runtime is dropped outside any call (see
/// [`IdleRelease`]).
#[derive(Debug)]
struct MapPool {
    /// Cleared buffers, ready to be taken.
    free: Vec<Vec<(Name, Value)>>,
    /// Buffers taken and not given back: the live maps that hold one.
    out: usize,
    /// The most that were out at once during the current outermost call.
    high: usize,
    /// How many calls are under way: a twin's play-forward is one inside
    /// its mainline's.
    depth: usize,
    /// Buffers taken outside any call since the last call returned.
    taken_between: usize,
}

impl MapPool {
    fn take(&mut self) -> Option<Vec<(Name, Value)>> {
        self.out += 1;
        if self.depth == 0 {
            self.taken_between += 1;
        } else {
            self.high = self.high.max(self.out);
        }
        self.free.pop()
    }

    /// A map dropped on another thread than it was built on gives its
    /// buffer to the pool where it drops; one that finds nothing out there
    /// goes to the allocator.
    fn give(&mut self, buf: Vec<(Name, Value)>) {
        if let Some(out) = self.out.checked_sub(1) {
            self.out = out;
            self.free.push(buf);
        }
    }

    fn enter(&mut self) {
        if self.depth == 0 {
            self.high = self.out;
        }
        self.depth += 1;
    }

    /// When the outermost call returns, keeps no more idle buffers than
    /// were out at the call's height beyond what is out now, nor more than
    /// are out now or were taken before the call from outside any — what
    /// the next call and the application's frames before it may take.
    fn leave(&mut self) {
        self.depth -= 1;
        if self.depth == 0 {
            let keep = (self.high - self.out).min(self.out.max(self.taken_between));
            self.taken_between = 0;
            self.keep(keep);
        }
    }

    /// Keeps at most `n` idle buffers, and the list's own storage only if
    /// it holds one.
    fn keep(&mut self, n: usize) {
        self.free.truncate(n);
        if self.free.is_empty() {
            self.free = Vec::new();
        }
    }
}

thread_local! {
    static POOL: RefCell<MapPool> = const {
        RefCell::new(MapPool {
            free: Vec::new(),
            out: 0,
            high: 0,
            depth: 0,
            taken_between: 0,
        })
    };
}

/// Runs `f` as a runtime call: the thread's pool is trimmed when the
/// outermost call returns, also when `f` unwinds.
pub(crate) fn in_call<R>(f: impl FnOnce() -> R) -> R {
    /// Ends the call on drop.
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            let _ = POOL.try_with(|p| p.try_borrow_mut().map(|mut p| p.leave()));
        }
    }

    POOL.with(|p| p.borrow_mut().enter());
    let _leave = Leave;
    f()
}

/// Frees the thread's idle buffers when dropped outside any call, so no
/// runtime inherits another's. A [`Runtime`](crate::runtime::Runtime)
/// holds one as its last field: it drops after the runtime's own maps
/// have given their buffers back.
#[derive(Debug)]
pub(crate) struct IdleRelease;

impl Drop for IdleRelease {
    fn drop(&mut self) {
        let _ = POOL.try_with(|p| {
            if let Ok(mut p) = p.try_borrow_mut() {
                if p.depth == 0 {
                    p.taken_between = 0;
                    p.keep(0);
                }
            }
        });
    }
}

/// An empty buffer with room for `slots` entries, at least
/// [`FRESH_SLOTS`]: an idle one of the thread's pool if there is one,
/// otherwise a new one; counted as out either way.
fn take_buffer(slots: usize) -> Vec<(Name, Value)> {
    let taken = POOL.try_with(|p| p.borrow_mut().take());
    let mut buf = taken.ok().flatten().unwrap_or_default();
    buf.reserve_exact(slots.max(FRESH_SLOTS));
    buf
}

/// Gives an empty buffer back to the thread's pool. Like every path a
/// drop takes into the pool it does not panic: should the pool be busy,
/// the allocator frees the buffer.
fn give_buffer(buf: Vec<(Name, Value)>) {
    let _ = POOL.try_with(|p| p.try_borrow_mut().map(|mut p| p.give(buf)));
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
    Map(Fields),
}

impl Value {
    /// Builds a map value from `(key, value)` pairs; a later pair replaces
    /// an earlier one with the same key.
    pub fn map<K: Into<Name>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        let mut m = Fields::default();
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// A map as it was before [`Fields`], the model the differential test
    /// holds `Value::Map` to: derived `Debug` renders as `Value`'s does.
    #[derive(Debug, Clone, PartialEq)]
    enum Model {
        Int(i64),
        Str(String),
        Map(BTreeMap<Name, Model>),
    }

    impl Model {
        fn to_value(&self) -> Value {
            match self {
                Model::Int(i) => Value::Int(*i),
                Model::Str(s) => Value::Str(s.clone()),
                Model::Map(m) => Value::map(m.iter().map(|(k, v)| (k.clone(), v.to_value()))),
            }
        }

        /// `Value`'s `Display`, over the B-tree's order.
        fn display(&self) -> String {
            match self {
                Model::Int(i) => i.to_string(),
                Model::Str(s) => format!("{s:?}"),
                Model::Map(m) => {
                    let entries: Vec<String> = m
                        .iter()
                        .map(|(k, v)| format!("{k}: {}", v.display()))
                        .collect();
                    format!("{{{}}}", entries.join(", "))
                }
            }
        }

        fn estimated_size(&self) -> u64 {
            match self {
                Model::Int(_) => 8,
                Model::Str(s) => s.len() as u64 + 4,
                Model::Map(m) => {
                    4 + m
                        .iter()
                        .map(|(k, v)| k.len() as u64 + 4 + v.estimated_size())
                        .sum::<u64>()
                }
            }
        }
    }

    /// Few keys and few values, so that inserts replace and independently
    /// built maps compare equal.
    const KEYS: [&str; 7] = ["a", "b", "bytes", "cost", "quality", "transcoded", "zz"];

    /// A key, literal or shared.
    fn key(rng: &mut SmallRng) -> Name {
        let k = KEYS[rng.random_range(0..KEYS.len() as u64) as usize];
        if rng.random::<bool>() {
            Name::from(k)
        } else {
            Name::from(k.to_owned())
        }
    }

    fn model(rng: &mut SmallRng, depth: u32) -> Model {
        match rng.random_range(0..if depth > 0 { 3 } else { 2 }) {
            0 => Model::Int(rng.random_range(0..3) as i64),
            1 => Model::Str(["", "x"][rng.random_range(0..2) as usize].to_owned()),
            _ => Model::Map(entries(rng, depth - 1).into_iter().collect()),
        }
    }

    fn entries(rng: &mut SmallRng, depth: u32) -> Vec<(Name, Model)> {
        let n = rng.random_range(0..6);
        (0..n).map(|_| (key(rng), model(rng, depth))).collect()
    }

    fn agrees(v: &Value, m: &BTreeMap<Name, Model>) {
        let Value::Map(f) = v else {
            panic!("not a map: {v:?}")
        };
        let model = Model::Map(m.clone());
        assert_eq!((f.len(), f.is_empty()), (m.len(), m.is_empty()));
        for k in KEYS {
            assert_eq!(format!("{:?}", v.get(k)), format!("{:?}", m.get(k)));
        }
        let listed: Vec<String> = f.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        let modelled: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
        assert_eq!(listed, modelled);
        assert_eq!(v.to_string(), model.display());
        assert_eq!(format!("{v:?}"), format!("{model:?}"));
        assert_eq!(format!("{v:#?}"), format!("{model:#?}"));
        assert_eq!(v.estimated_size(), model.estimated_size());
    }

    /// The maps in `v` that hold a buffer, nested ones included.
    fn buffers(v: &Value) -> usize {
        match v {
            Value::Map(f) => {
                usize::from(f.entries.capacity() > 0)
                    + f.iter().map(|(_, v)| buffers(v)).sum::<usize>()
            }
            Value::List(items) => items.iter().map(buffers).sum(),
            _ => 0,
        }
    }

    fn out() -> usize {
        POOL.with(|p| p.borrow().out)
    }

    fn idle() -> usize {
        POOL.with(|p| p.borrow().free.len())
    }

    /// `sequences` random runs of build, `set`, `clone` and drop on up to
    /// four live maps, interleaved with entering and leaving calls up to
    /// two deep. After every step each map is checked against its model,
    /// and the pool's `out` against the maps that hold a buffer.
    fn differential(rng: &mut SmallRng, sequences: u32) {
        let base = out();
        let mut depth = 0;
        for _ in 0..sequences {
            let mut live: Vec<(Value, BTreeMap<Name, Model>)> = Vec::new();
            for _ in 0..rng.random_range(1..10) {
                let pick = |rng: &mut SmallRng, n: usize| rng.random_range(0..n as u64) as usize;
                match rng.random_range(0..6) {
                    4 if depth < 2 => {
                        POOL.with(|p| p.borrow_mut().enter());
                        depth += 1;
                    }
                    5 if depth > 0 => {
                        POOL.with(|p| p.borrow_mut().leave());
                        depth -= 1;
                    }
                    0 | 1 if live.len() < 4 && (live.is_empty() || rng.random::<bool>()) => {
                        let pairs = entries(rng, 2);
                        let v = Value::map(pairs.iter().map(|(k, m)| (k.clone(), m.to_value())));
                        live.push((v, pairs.into_iter().collect()));
                    }
                    0 | 1 if !live.is_empty() => {
                        let i = pick(rng, live.len());
                        let (k, m) = (key(rng), model(rng, 2));
                        live[i].0.set(k.clone(), m.to_value());
                        live[i].1.insert(k, m);
                    }
                    2 if !live.is_empty() && live.len() < 4 => {
                        let i = pick(rng, live.len());
                        live.push(live[i].clone());
                    }
                    _ if !live.is_empty() => {
                        let i = pick(rng, live.len());
                        drop(live.swap_remove(i));
                    }
                    _ => {}
                }
                for (v, m) in &live {
                    agrees(v, m);
                }
                for (a, ma) in &live {
                    for (b, mb) in &live {
                        assert_eq!(a == b, ma == mb, "{a} vs {b}");
                    }
                }
                let held: usize = live.iter().map(|(v, _)| buffers(v)).sum();
                assert_eq!(
                    out() - base,
                    held,
                    "every map holding a buffer, and no other"
                );
            }
        }
        for _ in 0..depth {
            POOL.with(|p| p.borrow_mut().leave());
        }
        assert_eq!(out(), base);
    }

    /// `Fields` is the `BTreeMap<Name, Value>` it replaced, whether its
    /// buffers are fresh or reused, built and dropped inside calls or
    /// outside any.
    #[test]
    fn fields_behave_like_the_map_they_replace() {
        let mut rng = SmallRng::seed_from_u64(0x5eed_f1e1d5);
        differential(&mut rng, 20_000);
        in_call(|| ());
        assert_eq!(
            POOL.with(|p| p.borrow().free.capacity()),
            0,
            "a call with nothing out and nothing taken before it leaves none idle"
        );
    }

    fn one_entry() -> Value {
        Value::map([("a", Value::from(1))])
    }

    fn entries_of(n: usize) -> Vec<Value> {
        (0..n).map(|_| one_entry()).collect()
    }

    #[test]
    fn a_pool_keeps_no_more_than_the_next_call_may_take() {
        // Eight out at once, five still out on return: min(8 - 5, 5) kept.
        let mut held = in_call(|| {
            let mut held = entries_of(8);
            held.truncate(5);
            held
        });
        assert_eq!((out(), idle()), (5, 3));
        // Four more, three of them reused, then six dropped: min(9 - 3, 3).
        in_call(|| {
            held.extend(entries_of(4));
            held.truncate(3);
        });
        assert_eq!((out(), idle()), (3, 3));
        // All of them back: a quiet pool keeps none, nor the list's storage.
        in_call(|| drop(held));
        assert_eq!((out(), POOL.with(|p| p.borrow().free.capacity())), (0, 0));
    }

    /// Frames an application builds between calls are counted, and the
    /// call that consumes them leaves as many idle for the next ones.
    #[test]
    fn a_pool_keeps_what_was_taken_between_calls() {
        let frames = entries_of(4);
        assert_eq!(out(), 4);
        // All four back, none out: min(4 - 0, max(0, 4)).
        in_call(|| drop(frames));
        assert_eq!((out(), idle()), (0, 4));
        // The next four reuse them.
        let frames = entries_of(4);
        assert_eq!((out(), idle()), (4, 0));
        in_call(|| drop(frames));
        assert_eq!(idle(), 4);
        // Nothing taken before this call, nothing out after it.
        in_call(|| ());
        assert_eq!(idle(), 0);
    }

    /// A call inside a call — a twin's play-forward — shares the thread's
    /// buffers, and neither its return nor a runtime dropped inside it
    /// trims them: only the outermost call does.
    #[test]
    fn a_nested_call_shares_the_pool_and_only_the_outermost_trims() {
        in_call(|| {
            let held = entries_of(4);
            in_call(|| drop(held));
            drop(IdleRelease);
            assert_eq!(idle(), 4);
            let again = entries_of(4);
            assert_eq!((out(), idle()), (4, 0));
            drop(again);
        });
        // Nothing is out now and nothing was taken before the call.
        assert_eq!((out(), idle()), (0, 0));
        // Outside any call a dropped runtime frees what is idle.
        drop(entries_of(2));
        assert_eq!(idle(), 2);
        drop(IdleRelease);
        assert_eq!(idle(), 0);
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
