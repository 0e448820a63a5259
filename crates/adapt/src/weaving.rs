//! Aspect weaving (approach 3 of the paper's ten).
//!
//! "Alternative aspects are statically weaved into the source code.
//! Aspects can be interchanged at run-time using the dynamic dispatch
//! mechanisms of the Java language." — the AspectJ model. A [`Weaver`]
//! holds two advice populations: *statically woven* advice fixed at build
//! time, and *dynamic* advice slots whose content can be interchanged at
//! run time (trait-object dispatch standing in for JVM dynamic dispatch).

use crate::filters::OpPattern;
use crate::hook::{Chain, Hook, Opaque, SealedError};
use aas_core::message::Message;

/// Where advice attaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinPoint {
    /// Before a message is sent.
    BeforeSend,
    /// After a message is received (before handling).
    AfterReceive,
    /// When a handler reports an error.
    OnError,
}

/// A pointcut: a join point plus an operation pattern (exact or prefix
/// with trailing `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pointcut {
    /// The join point.
    pub join: JoinPoint,
    /// Operation pattern.
    pub op_pattern: OpPattern,
}

impl Pointcut {
    /// A pointcut at `join` matching `op_pattern`.
    #[must_use]
    pub fn new(join: JoinPoint, op_pattern: impl Into<String>) -> Self {
        Pointcut {
            join,
            op_pattern: OpPattern::new(op_pattern),
        }
    }

    /// Whether the pointcut matches.
    #[must_use]
    pub fn matches(&self, join: JoinPoint, op: &str) -> bool {
        self.join == join && self.op_pattern.matches(op)
    }
}

type AdviceBody = (Pointcut, Opaque<dyn FnMut(&mut Message) + Send>);

/// A piece of advice: a named action bound to a pointcut.
pub type Advice = Hook<AdviceBody>;

impl Advice {
    /// Creates advice.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, pointcut: Pointcut, action: F) -> Self
    where
        F: FnMut(&mut Message) + Send + 'static,
    {
        Hook::named(name, (pointcut, Opaque(Box::new(action))))
    }
}

/// Builds a weaver: static advice first, then sealed.
#[derive(Debug, Default)]
pub struct WeaverBuilder {
    static_advice: Chain<AdviceBody>,
}

impl WeaverBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        WeaverBuilder::default()
    }

    /// Weaves advice statically (fixed for the weaver's lifetime).
    #[must_use]
    pub fn weave_static(mut self, advice: Advice) -> Self {
        self.static_advice.0.push(advice);
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> Weaver {
        Weaver {
            static_advice: self.static_advice,
            dynamic_advice: Chain::default(),
        }
    }
}

/// Executes woven advice at join points.
///
/// # Examples
///
/// ```
/// use aas_adapt::weaving::{Advice, JoinPoint, Pointcut, WeaverBuilder};
/// use aas_core::message::{Message, Value};
///
/// let mut weaver = WeaverBuilder::new()
///     .weave_static(Advice::new(
///         "stamp",
///         Pointcut::new(JoinPoint::BeforeSend, "*"),
///         |msg| msg.value.set("stamped", Value::Bool(true)),
///     ))
///     .build();
///
/// let mut msg = Message::request("op", Value::map::<&str>([]));
/// weaver.execute(JoinPoint::BeforeSend, &mut msg);
/// assert_eq!(msg.value.get("stamped"), Some(&Value::Bool(true)));
/// ```
#[derive(Debug)]
pub struct Weaver {
    static_advice: Chain<AdviceBody>,
    dynamic_advice: Chain<AdviceBody>,
}

impl Weaver {
    /// Installs (or replaces, by name) dynamic advice — the run-time
    /// interchange path.
    pub fn swap_dynamic(&mut self, advice: Advice) {
        self.dynamic_advice.install(advice);
    }

    /// Removes dynamic advice by name; `true` if something was removed.
    pub fn remove_dynamic(&mut self, name: &str) -> bool {
        self.dynamic_advice.remove(name)
    }

    /// Attempting to remove static advice always fails.
    ///
    /// # Errors
    ///
    /// Always returns [`SealedError`] when `name` names static advice;
    /// `Ok(false)` when it names nothing.
    pub fn remove_static(&mut self, name: &str) -> Result<bool, SealedError> {
        self.static_advice
            .get(name)
            .map_or(Ok(false), |_| Err(SealedError))
    }

    /// Runs all matching advice (static first, then dynamic) on `msg`.
    /// Returns how many advice bodies executed.
    pub fn execute(&mut self, join: JoinPoint, msg: &mut Message) -> usize {
        let mut ran = 0;
        let statics = self.static_advice.0.iter_mut();
        for advice in statics.chain(&mut self.dynamic_advice.0) {
            let (pointcut, body) = &mut advice.action;
            if pointcut.matches(join, &msg.op) {
                (body.0)(msg);
                advice.runs += 1;
                ran += 1;
            }
        }
        ran
    }

    /// Names of dynamic advice.
    pub fn dynamic_names(&self) -> impl Iterator<Item = &str> {
        self.dynamic_advice.names()
    }

    /// Total runs of the named advice (static or dynamic).
    #[must_use]
    pub fn runs(&self, name: &str) -> u64 {
        let all = self.static_advice.0.iter().chain(&self.dynamic_advice.0);
        all.filter(|a| a.name == name).map(Hook::runs).sum()
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
    fn pointcut_matches_join_and_pattern() {
        let pc = Pointcut::new(JoinPoint::BeforeSend, "media_*");
        assert!(pc.matches(JoinPoint::BeforeSend, "media_play"));
        assert!(!pc.matches(JoinPoint::AfterReceive, "media_play"));
        assert!(!pc.matches(JoinPoint::BeforeSend, "other"));
    }

    #[test]
    fn static_advice_runs_and_cannot_be_removed() {
        let mut w = WeaverBuilder::new()
            .weave_static(Advice::new(
                "count",
                Pointcut::new(JoinPoint::AfterReceive, "*"),
                |_| {},
            ))
            .build();
        let mut m = msg("x");
        assert_eq!(w.execute(JoinPoint::AfterReceive, &mut m), 1);
        assert_eq!(w.runs("count"), 1);
        assert_eq!(w.remove_static("count"), Err(SealedError));
        assert_eq!(w.remove_static("ghost"), Ok(false));
    }

    #[test]
    fn dynamic_advice_interchanges_at_runtime() {
        let mut w = WeaverBuilder::new().build();
        w.swap_dynamic(Advice::new(
            "tag",
            Pointcut::new(JoinPoint::BeforeSend, "*"),
            |m| m.value.set("mode", Value::from("v1")),
        ));
        let mut m1 = msg("op");
        w.execute(JoinPoint::BeforeSend, &mut m1);
        assert_eq!(m1.value.get("mode"), Some(&Value::from("v1")));

        // Interchange: same name, new behavior.
        w.swap_dynamic(Advice::new(
            "tag",
            Pointcut::new(JoinPoint::BeforeSend, "*"),
            |m| m.value.set("mode", Value::from("v2")),
        ));
        let mut m2 = msg("op");
        w.execute(JoinPoint::BeforeSend, &mut m2);
        assert_eq!(m2.value.get("mode"), Some(&Value::from("v2")));
        assert_eq!(w.dynamic_names().count(), 1, "replaced, not duplicated");

        assert!(w.remove_dynamic("tag"));
        let mut m3 = msg("op");
        assert_eq!(w.execute(JoinPoint::BeforeSend, &mut m3), 0);
    }

    #[test]
    fn static_runs_before_dynamic() {
        let mut w = WeaverBuilder::new()
            .weave_static(Advice::new(
                "first",
                Pointcut::new(JoinPoint::BeforeSend, "*"),
                |m| m.value.set("order", Value::from("static")),
            ))
            .build();
        w.swap_dynamic(Advice::new(
            "second",
            Pointcut::new(JoinPoint::BeforeSend, "*"),
            |m| {
                assert_eq!(m.value.get("order"), Some(&Value::from("static")));
                m.value.set("order", Value::from("dynamic"));
            },
        ));
        let mut m = msg("op");
        assert_eq!(w.execute(JoinPoint::BeforeSend, &mut m), 2);
        assert_eq!(m.value.get("order"), Some(&Value::from("dynamic")));
    }

    #[test]
    fn non_matching_join_point_skips() {
        let mut w = WeaverBuilder::new()
            .weave_static(Advice::new(
                "err-only",
                Pointcut::new(JoinPoint::OnError, "*"),
                |_| {},
            ))
            .build();
        let mut m = msg("x");
        assert_eq!(w.execute(JoinPoint::BeforeSend, &mut m), 0);
        assert_eq!(w.execute(JoinPoint::OnError, &mut m), 1);
    }
}
