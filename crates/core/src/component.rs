//! The component model: behaviour trait, state snapshots and lifecycle.
//!
//! A [`Component`] is a unit of application behaviour hosted by the
//! runtime. It interacts with the world only through the [`CallCtx`] handed
//! to its handlers, which buffers *effects* (sends, replies, timers,
//! metrics) that the runtime applies after the handler returns — keeping
//! handlers pure with respect to the runtime's internal state.
//!
//! Components must be able to capture and restore their internal state as a
//! [`StateSnapshot`]; that capability is what makes the paper's *strong
//! dynamic reconfiguration* (initializing a replacement component "with
//! adequate internal state variables, contexts, program counters") possible.

use crate::error::{ComponentError, StateError};
use crate::interface::{Interface, Signature};
use crate::lts::Lts;
use crate::message::{Message, Name, Value};
use aas_sim::time::{SimDuration, SimTime};
use core::fmt;
use serde::{Deserialize, Serialize};

/// Unique identifier of a component instance within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ComponentId(pub u64);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// Lifecycle of a component instance.
///
/// The `Quiescing → Quiescent` passage implements the paper's
/// "reconfiguration points": a quiescing component finishes its in-flight
/// work while new arrivals are held at its (blocked) channels; once
/// drained, it is quiescent and can be safely changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Lifecycle {
    /// Processing messages normally.
    Active,
    /// Finishing in-flight work; inbound channels are blocked.
    Quiescing,
    /// Drained; safe to snapshot, replace, or migrate.
    Quiescent,
    /// Killed by a host crash under fail-stop semantics; discards
    /// deliveries until a repair plan reinstates or relocates it.
    Failed,
    /// Removed from the configuration; kept only for accounting.
    Retired,
}

impl fmt::Display for Lifecycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Lifecycle::Active => "active",
            Lifecycle::Quiescing => "quiescing",
            Lifecycle::Quiescent => "quiescent",
            Lifecycle::Failed => "failed",
            Lifecycle::Retired => "retired",
        };
        f.write_str(s)
    }
}

/// A serializable capture of a component's internal state.
///
/// Snapshots are [`Value`] maps so they can cross implementation versions:
/// a successor implementation restores whichever fields it understands.
///
/// # Examples
///
/// ```
/// use aas_core::component::StateSnapshot;
/// use aas_core::message::Value;
///
/// let snap = StateSnapshot::new("Counter", 1)
///     .with_field("count", Value::from(42));
/// assert_eq!(snap.field("count").and_then(Value::as_int), Some(42));
/// assert!(snap.transfer_size() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// The component type that produced the snapshot.
    pub type_name: String,
    /// The implementation version that produced it.
    pub version: u32,
    /// The captured fields.
    pub state: Value,
}

impl StateSnapshot {
    /// An empty snapshot for the given type/version.
    #[must_use]
    pub fn new(type_name: impl Into<String>, version: u32) -> Self {
        StateSnapshot {
            type_name: type_name.into(),
            version,
            state: Value::map::<String>([]),
        }
    }

    /// Adds a field (builder style).
    #[must_use]
    pub fn with_field(mut self, key: impl Into<Name>, value: Value) -> Self {
        self.state.set(key, value);
        self
    }

    /// Reads a field.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.state.get(key)
    }

    /// Reads a required field.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::MissingField`] if absent.
    pub fn require(&self, key: &str) -> Result<&Value, StateError> {
        self.field(key)
            .ok_or_else(|| StateError::MissingField(key.to_owned()))
    }

    /// Estimated size in bytes when transferred over the network during a
    /// migration or strong swap.
    #[must_use]
    pub fn transfer_size(&self) -> u64 {
        64 + self.state.estimated_size()
    }
}

/// An effect requested by a component handler, applied by the runtime after
/// the handler returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a message out of a named required port.
    Send {
        /// The required port to send through.
        port: Name,
        /// The message (id/seq/from/sent_at are filled by the runtime).
        message: Message,
    },
    /// Reply to the message currently being handled.
    Reply {
        /// The reply payload.
        value: Value,
    },
    /// Ask for a timer callback on this component.
    SetTimer {
        /// Delay until the callback.
        delay: SimDuration,
        /// Tag passed back to [`Component::on_timer`].
        tag: u64,
    },
    /// Record a named observation into the component's metrics (visible to
    /// RAML introspection).
    Metric {
        /// Metric name.
        name: Name,
        /// Observed value.
        value: f64,
    },
}

/// The context handed to component handlers.
///
/// Provides read access to the environment and buffers effects.
#[derive(Debug)]
pub struct CallCtx<'a> {
    now: SimTime,
    self_name: &'a str,
    effects: Vec<Effect>,
}

impl<'a> CallCtx<'a> {
    /// Creates a context with an empty effects buffer.
    #[must_use]
    pub fn new(now: SimTime, self_name: &'a str) -> Self {
        CallCtx::with_buffer(now, self_name, Vec::new())
    }

    /// Creates a context that buffers into `effects` (which must be
    /// empty): the runtime hands the buffer [`CallCtx::into_effects`]
    /// returned back in, so one allocation serves every handler call.
    #[must_use]
    pub(crate) fn with_buffer(now: SimTime, self_name: &'a str, effects: Vec<Effect>) -> Self {
        debug_assert!(effects.is_empty());
        CallCtx {
            now,
            self_name,
            effects,
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instance name of the component being invoked.
    #[must_use]
    pub fn self_name(&self) -> &str {
        self.self_name
    }

    /// Sends `message` out of required port `port`.
    pub fn send(&mut self, port: impl Into<Name>, message: Message) {
        self.effects.push(Effect::Send {
            port: port.into(),
            message,
        });
    }

    /// Replies to the message currently being handled.
    pub fn reply(&mut self, value: Value) {
        self.effects.push(Effect::Reply { value });
    }

    /// Requests a timer callback after `delay`, tagged `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.effects.push(Effect::SetTimer { delay, tag });
    }

    /// Records a metric observation.
    pub fn metric(&mut self, name: impl Into<Name>, value: f64) {
        self.effects.push(Effect::Metric {
            name: name.into(),
            value,
        });
    }

    /// Consumes the context, yielding the buffered effects.
    #[must_use]
    pub fn into_effects(self) -> Vec<Effect> {
        self.effects
    }
}

/// A unit of application behaviour hosted by the runtime.
///
/// Implementations are registered in an
/// [`ImplementationRegistry`](crate::registry::ImplementationRegistry)
/// under a `(type_name, version)` key and instantiated by configurations.
///
/// # Examples
///
/// ```
/// use aas_core::component::{CallCtx, Component, StateSnapshot};
/// use aas_core::error::{ComponentError, StateError};
/// use aas_core::interface::{Interface, Signature};
/// use aas_core::message::{Message, Value};
///
/// /// Counts how many messages it has seen and replies with the count.
/// #[derive(Debug, Default)]
/// struct Counter {
///     count: i64,
/// }
///
/// impl Component for Counter {
///     fn type_name(&self) -> &str { "Counter" }
///
///     fn provided(&self) -> &Interface {
///         static OPS: [Signature; 1] = [Signature::one_way("tick")];
///         static COUNTER: Interface = Interface::fixed("Counter", &OPS);
///         &COUNTER
///     }
///
///     fn on_message(&mut self, ctx: &mut CallCtx, msg: Message)
///         -> Result<(), ComponentError>
///     {
///         if msg.op != "tick" {
///             return Err(ComponentError::UnsupportedOperation(msg.op));
///         }
///         self.count += 1;
///         ctx.reply(Value::from(self.count));
///         Ok(())
///     }
///
///     fn snapshot(&self) -> StateSnapshot {
///         StateSnapshot::new("Counter", 1).with_field("count", Value::from(self.count))
///     }
///
///     fn restore(&mut self, snap: &StateSnapshot) -> Result<(), StateError> {
///         self.count = snap.require("count")?.as_int()
///             .ok_or_else(|| StateError::SchemaMismatch("count must be int".into()))?;
///         Ok(())
///     }
/// }
/// ```
pub trait Component: Send {
    /// The implementation's type name (the registry key).
    fn type_name(&self) -> &str;

    /// The interface this component provides, read in place: a fixed
    /// interface lives in a `static` ([`Interface::fixed`]) or a field,
    /// and one that changes at run time is kept current by whatever
    /// changes it. The runtime asks on every delivered reply and on every
    /// implementation swap, so an answer is never built per question.
    fn provided(&self) -> &Interface;

    /// Handles one message, which the handler owns: it may change it and
    /// send it on, or keep any part of it, without a copy. The one thing
    /// the runtime still needs of it — a request's id and op, for an
    /// [`Effect::Reply`] — it saved before the hand-off.
    ///
    /// # Errors
    ///
    /// Implementations should return [`ComponentError`] for unsupported
    /// operations or malformed payloads; the runtime counts failures and
    /// surfaces them to RAML.
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError>;

    /// Handles a timer previously requested via [`CallCtx::set_timer`].
    fn on_timer(&mut self, ctx: &mut CallCtx, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Captures internal state for strong reconfiguration / migration.
    fn snapshot(&self) -> StateSnapshot;

    /// Restores internal state from a snapshot (possibly produced by an
    /// older implementation version).
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] if the snapshot cannot be interpreted.
    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError>;

    /// Optional behavioural protocol, used for compatibility analysis.
    fn protocol(&self) -> Option<Lts> {
        None
    }

    /// Work units consumed to process `msg` (drives node queueing).
    fn work_cost(&self, msg: &Message) -> f64 {
        let _ = msg;
        1.0
    }
}

impl fmt::Debug for dyn Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Component({})", self.type_name())
    }
}

/// A trivial component that answers `echo` with its own payload — useful
/// in tests, examples and as a connector-overhead baseline.
#[derive(Debug, Default, Clone)]
pub struct EchoComponent {
    handled: i64,
}

impl Component for EchoComponent {
    fn type_name(&self) -> &str {
        "Echo"
    }

    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("echo")];
        static ECHO: Interface = Interface::fixed("Echo", &OPS);
        &ECHO
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        if msg.op != "echo" {
            return Err(ComponentError::UnsupportedOperation(msg.op));
        }
        self.handled += 1;
        ctx.reply(msg.value);
        Ok(())
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Echo", 1).with_field("handled", Value::from(self.handled))
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        self.handled = snapshot
            .require("handled")?
            .as_int()
            .ok_or_else(|| StateError::SchemaMismatch("handled must be int".into()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    #[test]
    fn ctx_buffers_effects_in_order() {
        let mut ctx = CallCtx::new(SimTime::from_secs(1), "me");
        ctx.reply(Value::from(1));
        ctx.send("out", Message::request("op", Value::Null));
        ctx.set_timer(SimDuration::from_millis(5), 9);
        ctx.metric("latency", 1.5);
        let effects = ctx.into_effects();
        assert_eq!(effects.len(), 4);
        assert!(matches!(effects[0], Effect::Reply { .. }));
        assert!(matches!(effects[1], Effect::Send { .. }));
        assert!(matches!(effects[2], Effect::SetTimer { tag: 9, .. }));
        assert!(matches!(effects[3], Effect::Metric { .. }));
    }

    #[test]
    fn echo_replies_with_payload() {
        let mut echo = EchoComponent::default();
        let mut ctx = CallCtx::new(SimTime::ZERO, "echo");
        let msg = Message::request("echo", Value::from("hello"));
        echo.on_message(&mut ctx, msg).unwrap();
        let effects = ctx.into_effects();
        assert_eq!(
            effects,
            vec![Effect::Reply {
                value: Value::from("hello")
            }]
        );
    }

    #[test]
    fn echo_rejects_unknown_op() {
        let mut echo = EchoComponent::default();
        let mut ctx = CallCtx::new(SimTime::ZERO, "echo");
        let msg = Message::request("nope", Value::Null);
        assert!(matches!(
            echo.on_message(&mut ctx, msg),
            Err(ComponentError::UnsupportedOperation(_))
        ));
    }

    #[test]
    fn echo_snapshot_restore_roundtrip() {
        let mut a = EchoComponent::default();
        let mut ctx = CallCtx::new(SimTime::ZERO, "a");
        for _ in 0..3 {
            a.on_message(&mut ctx, Message::request("echo", Value::Null))
                .unwrap();
        }
        let snap = a.snapshot();
        let mut b = EchoComponent::default();
        b.restore(&snap).unwrap();
        assert_eq!(b.snapshot(), snap);
    }

    #[test]
    fn snapshot_missing_field_errors() {
        let snap = StateSnapshot::new("Echo", 1);
        let mut e = EchoComponent::default();
        assert!(matches!(
            e.restore(&snap),
            Err(StateError::MissingField(f)) if f == "handled"
        ));
    }

    #[test]
    fn snapshot_transfer_size_grows_with_state() {
        let small = StateSnapshot::new("T", 1).with_field("a", Value::from(1));
        let large = StateSnapshot::new("T", 1).with_field("blob", Value::Bytes(vec![0; 100_000]));
        assert!(large.transfer_size() > small.transfer_size() + 90_000);
    }

    #[test]
    fn lifecycle_displays() {
        assert_eq!(Lifecycle::Active.to_string(), "active");
        assert_eq!(Lifecycle::Quiescing.to_string(), "quiescing");
    }

    #[test]
    fn default_work_cost_is_one() {
        let e = EchoComponent::default();
        let msg = Message {
            kind: MessageKind::Request,
            ..Message::request("echo", Value::Null)
        };
        assert_eq!(e.work_cost(&msg), 1.0);
    }
}
