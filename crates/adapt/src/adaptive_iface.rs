//! Adaptive component interfaces (approach 10 of the paper's ten).
//!
//! "Adaptive component interfaces using dedicated programming languages
//! can be used, for example, to modify structures and components, and to
//! generate adaptive components. As an example to this approach, the
//! programming language AJ introduces a meta-level protocol to observe and
//! modify base level executions."
//!
//! [`AdaptiveComponent`] wraps a base component with an AJ-style meta
//! protocol: **observation** (an execution trace plus watchpoints that
//! fire on predicates) and **modification** (operation rewrites, disabled
//! operations, response overrides). The adaptive interface is *generated*:
//! the wrapped component's `provided()` reflects the rewrites applied to
//! the base interface. It is generated when a rewrite, a disabled or a
//! re-enabled operation changes it, and read in place in between.

use crate::hook::{Chain, Front, Hook, Opaque, Predicate, Wrapper};
use aas_core::component::{CallCtx, Component};
use aas_core::error::ComponentError;
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Name, Value};
use std::collections::{BTreeMap, BTreeSet};

/// One observed base-level execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// The operation as received (pre-rewrite).
    pub received_op: String,
    /// The operation actually executed (post-rewrite), or `None` when the
    /// message was suppressed.
    pub executed_op: Option<String>,
    /// Whether the base handler succeeded.
    pub ok: bool,
}

/// A watchpoint: fires (counts) whenever its predicate matches an incoming
/// message.
pub type Watchpoint = Hook<Predicate>;

impl Watchpoint {
    /// A watchpoint named `name` firing when `predicate` matches.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, predicate: F) -> Self
    where
        F: Fn(&Message) -> bool + Send + 'static,
    {
        Hook::named(name, Opaque(Box::new(predicate)))
    }
}

/// The AJ-style meta protocol an [`AdaptiveComponent`] puts in front of
/// its base component.
#[derive(Debug)]
pub struct MetaProtocol {
    rewrites: BTreeMap<String, String>,
    disabled: BTreeSet<String>,
    /// The interface `rewrites` and `disabled` make of the base one.
    interface: Interface,
    overrides: BTreeMap<String, Value>,
    trace: Vec<TraceEntry>,
    trace_cap: usize,
    watchpoints: Chain<Predicate>,
}

/// A component wrapped with the observe/modify meta protocol.
///
/// # Examples
///
/// ```
/// use aas_adapt::adaptive_iface::AdaptiveComponent;
/// use aas_core::component::{CallCtx, Component, EchoComponent};
/// use aas_core::message::{Message, Value};
/// use aas_sim::time::SimTime;
///
/// let mut ac = AdaptiveComponent::new(Box::new(EchoComponent::default()));
/// // Generate an adapted interface: callers may use `ping` for `echo`.
/// ac.rewrite_op("ping", "echo");
/// assert!(ac.provided().provides("ping"));
///
/// let mut ctx = CallCtx::new(SimTime::ZERO, "ac");
/// ac.on_message(&mut ctx, Message::request("ping", Value::from(1))).unwrap();
/// assert_eq!(ac.trace().len(), 1);
/// assert_eq!(ac.trace()[0].executed_op.as_deref(), Some("echo"));
/// ```
pub type AdaptiveComponent = Wrapper<MetaProtocol>;

impl AdaptiveComponent {
    /// Wraps `inner` with an initially-transparent meta protocol.
    #[must_use]
    pub fn new(inner: Box<dyn Component>) -> Self {
        let front = MetaProtocol {
            rewrites: BTreeMap::new(),
            disabled: BTreeSet::new(),
            interface: generate(inner.provided(), &BTreeMap::new(), &BTreeSet::new()),
            overrides: BTreeMap::new(),
            trace: Vec::new(),
            trace_cap: 1024,
            watchpoints: Chain::default(),
        };
        Wrapper { inner, front }
    }

    // ----- modification (intercession) --------------------------------

    /// Adds an operation alias: incoming `alias` executes as `target`.
    pub fn rewrite_op(&mut self, alias: impl Into<String>, target: impl Into<String>) {
        self.front.rewrites.insert(alias.into(), target.into());
        self.regenerate();
    }

    /// Disables an operation: messages for it are suppressed (traced, not
    /// executed).
    pub fn disable_op(&mut self, op: impl Into<String>) {
        self.front.disabled.insert(op.into());
        self.regenerate();
    }

    /// Re-enables a disabled operation.
    pub fn enable_op(&mut self, op: &str) {
        if self.front.disabled.remove(op) {
            self.regenerate();
        }
    }

    /// Generates the adaptive interface anew after a modification.
    fn regenerate(&mut self) {
        let front = &mut self.front;
        front.interface = generate(self.inner.provided(), &front.rewrites, &front.disabled);
    }

    /// Overrides responses for `op`: the base handler is bypassed and the
    /// fixed value is replied instead.
    pub fn override_response(&mut self, op: impl Into<String>, value: Value) {
        self.front.overrides.insert(op.into(), value);
    }

    /// Clears a response override.
    pub fn clear_override(&mut self, op: &str) {
        self.front.overrides.remove(op);
    }

    // ----- observation (introspection) --------------------------------

    /// Installs (or replaces, by name) a watchpoint.
    pub fn watch(&mut self, wp: Watchpoint) {
        self.front.watchpoints.install(wp);
    }

    /// The installed watchpoints.
    #[must_use]
    pub fn watchpoints(&self) -> &[Watchpoint] {
        &self.front.watchpoints.0
    }

    /// The execution trace (bounded; oldest entries drop first).
    #[must_use]
    pub fn trace(&self) -> &[TraceEntry] {
        &self.front.trace
    }
}

impl MetaProtocol {
    fn record(&mut self, received_op: String, executed_op: Option<String>, ok: bool) {
        if self.trace.len() == self.trace_cap {
            self.trace.remove(0);
        }
        self.trace.push(TraceEntry {
            received_op,
            executed_op,
            ok,
        });
    }
}

/// The adaptive interface: the base operations minus the disabled ones,
/// plus an alias for every rewrite whose target exists.
fn generate(
    base: &Interface,
    rewrites: &BTreeMap<String, String>,
    disabled: &BTreeSet<String>,
) -> Interface {
    let mut signatures: Vec<Signature> = base
        .signatures
        .iter()
        .filter(|s| !disabled.contains(&*s.name))
        .cloned()
        .collect();
    for (alias, target) in rewrites {
        if let Some(sig) = base.signature(target) {
            if !signatures.iter().any(|s| &s.name == alias) {
                signatures.push(Signature::new(
                    alias.clone(),
                    sig.params.clone(),
                    sig.returns,
                ));
            }
        }
    }
    Interface {
        name: base.name.clone(),
        version: base.version + 1,
        signatures: signatures.into(),
    }
}

impl Front for MetaProtocol {
    fn provided<'a>(&'a self, _inner: &'a dyn Component) -> &'a Interface {
        &self.interface
    }

    fn handle(
        &mut self,
        inner: &mut dyn Component,
        ctx: &mut CallCtx,
        mut msg: Message,
    ) -> Result<(), ComponentError> {
        for wp in &mut self.watchpoints.0 {
            if (wp.action.0)(&msg) {
                wp.runs += 1;
            }
        }
        let received_op = msg.op.to_string();
        if self.disabled.contains(&received_op) {
            self.record(received_op, None, true);
            return Ok(());
        }
        if let Some(v) = self.overrides.get(&received_op) {
            ctx.reply(v.clone());
            self.record(received_op, None, true);
            return Ok(());
        }
        let target = self
            .rewrites
            .get(&received_op)
            .cloned()
            .unwrap_or_else(|| received_op.clone());
        msg.op = Name::from(&target);
        let result = inner.on_message(ctx, msg);
        self.record(received_op, Some(target), result.is_ok());
        result
    }

    fn cost(&self) -> f64 {
        // The meta level costs a little on every message.
        0.02
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::component::{EchoComponent, Effect};
    use aas_sim::time::SimTime;

    fn adaptive_echo() -> AdaptiveComponent {
        AdaptiveComponent::new(Box::new(EchoComponent::default()))
    }

    fn call(
        ac: &mut AdaptiveComponent,
        op: &'static str,
    ) -> (Result<(), ComponentError>, Vec<Effect>) {
        let mut ctx = CallCtx::new(SimTime::ZERO, "ac");
        let r = ac.on_message(&mut ctx, Message::request(op, Value::from(1)));
        (r, ctx.into_effects())
    }

    #[test]
    fn transparent_by_default() {
        let mut ac = adaptive_echo();
        let (r, effects) = call(&mut ac, "echo");
        assert!(r.is_ok());
        assert_eq!(effects.len(), 1);
        assert_eq!(ac.trace().len(), 1);
        assert_eq!(ac.trace()[0].executed_op.as_deref(), Some("echo"));
    }

    #[test]
    fn rewrite_generates_adaptive_interface() {
        let mut ac = adaptive_echo();
        ac.rewrite_op("ping", "echo");
        let iface = ac.provided();
        assert!(iface.provides("ping"));
        assert!(iface.provides("echo"));
        assert_eq!(iface.version, 2, "generated interface bumps version");
        let (r, effects) = call(&mut ac, "ping");
        assert!(r.is_ok());
        assert_eq!(effects.len(), 1, "inner echoed despite alias");
    }

    #[test]
    fn disable_suppresses_without_error() {
        let mut ac = adaptive_echo();
        ac.disable_op("echo");
        assert!(!ac.provided().provides("echo"));
        let (r, effects) = call(&mut ac, "echo");
        assert!(r.is_ok());
        assert!(effects.is_empty(), "suppressed: no reply");
        assert_eq!(ac.trace()[0].executed_op, None);
        // Re-enable restores behaviour.
        ac.enable_op("echo");
        let (_, effects) = call(&mut ac, "echo");
        assert_eq!(effects.len(), 1);
    }

    #[test]
    fn override_bypasses_base_handler() {
        let mut ac = adaptive_echo();
        ac.override_response("echo", Value::from("canned"));
        let (r, effects) = call(&mut ac, "echo");
        assert!(r.is_ok());
        assert_eq!(
            effects,
            vec![Effect::Reply {
                value: Value::from("canned")
            }]
        );
        ac.clear_override("echo");
        let (_, effects) = call(&mut ac, "echo");
        assert_eq!(
            effects,
            vec![Effect::Reply {
                value: Value::from(1)
            }]
        );
    }

    #[test]
    fn watchpoints_count_matches() {
        let mut ac = adaptive_echo();
        ac.watch(Watchpoint::new("big-payload", |m| {
            m.value.as_int().is_some_and(|i| i > 100)
        }));
        let mut ctx = CallCtx::new(SimTime::ZERO, "ac");
        ac.on_message(&mut ctx, Message::request("echo", Value::from(500)))
            .unwrap();
        ac.on_message(&mut ctx, Message::request("echo", Value::from(5)))
            .unwrap();
        assert_eq!(ac.watchpoints()[0].runs(), 1);
        assert_eq!(ac.watchpoints()[0].name(), "big-payload");
    }

    #[test]
    fn trace_records_failures() {
        let mut ac = adaptive_echo();
        let (r, _) = call(&mut ac, "nonsense");
        assert!(r.is_err());
        assert!(!ac.trace()[0].ok);
    }

    #[test]
    fn trace_is_bounded() {
        let mut ac = adaptive_echo();
        ac.front.trace_cap = 4;
        for _ in 0..10 {
            let _ = call(&mut ac, "echo");
        }
        assert_eq!(ac.trace().len(), 4);
    }

    #[test]
    fn meta_level_adds_cost() {
        let ac = adaptive_echo();
        let plain = EchoComponent::default();
        let m = Message::request("echo", Value::Null);
        assert!(ac.work_cost(&m) > Component::work_cost(&plain, &m));
    }

    /// A base component of three operations of different shapes.
    struct Three;

    impl Component for Three {
        fn type_name(&self) -> &str {
            "Three"
        }
        fn provided(&self) -> &Interface {
            use aas_core::interface::TypeTag;
            static OPS: [Signature; 3] = [
                Signature::one_way("frame"),
                Signature::fixed("set_ratio", &[TypeTag::Float], TypeTag::Unit),
                Signature::fixed("stats", &[], TypeTag::Map),
            ];
            static THREE: Interface = Interface::fixed("Three", &OPS);
            &THREE
        }
        fn on_message(&mut self, _: &mut CallCtx, _: Message) -> Result<(), ComponentError> {
            Ok(())
        }
        fn snapshot(&self) -> aas_core::component::StateSnapshot {
            aas_core::component::StateSnapshot::new("Three", 1)
        }
        fn restore(
            &mut self,
            _: &aas_core::component::StateSnapshot,
        ) -> Result<(), aas_core::error::StateError> {
            Ok(())
        }
    }

    /// The adaptive interface built from scratch, as every call of
    /// `provided()` once built it: the inner component's operations that
    /// are not disabled, then one alias per rewrite, in alias order, whose
    /// target the inner component serves and whose name is not taken.
    fn built_from_scratch(ac: &AdaptiveComponent) -> Interface {
        let base = ac.inner.provided().clone();
        let mut signatures: Vec<Signature> = base
            .signatures
            .iter()
            .filter(|s| !ac.front.disabled.contains(&*s.name))
            .cloned()
            .collect();
        for (alias, target) in &ac.front.rewrites {
            let taken = signatures.iter().any(|s| &s.name == alias);
            if let (Some(sig), false) = (base.signature(target), taken) {
                let mut aliased = sig.clone();
                aliased.name = alias.clone().into();
                signatures.push(aliased);
            }
        }
        Interface {
            name: base.name,
            version: base.version + 1,
            signatures: signatures.into(),
        }
    }

    /// Rewrites, disables and re-enables drawn from a seeded stream, over
    /// the base's own operations and names it does not serve: after each
    /// call the interface read in place is the one built from scratch.
    #[test]
    fn the_kept_interface_equals_one_built_from_scratch_after_every_change() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const OPS: [&str; 6] = ["frame", "set_ratio", "stats", "ping", "pong", "gone"];
        let mut rng = SmallRng::seed_from_u64(48);
        let mut ac = AdaptiveComponent::new(Box::new(Three));
        assert_eq!(*ac.provided(), built_from_scratch(&ac));
        let mut changed = 0;
        for step in 0..400 {
            let before = ac.provided().clone();
            let mut draw = |n: usize| rng.random_range(0..n as u64) as usize;
            let op = OPS[draw(OPS.len())];
            match draw(3) {
                0 => ac.rewrite_op(op, OPS[draw(OPS.len())]),
                1 => ac.disable_op(op),
                _ => ac.enable_op(op),
            }
            assert_eq!(*ac.provided(), built_from_scratch(&ac), "step {step}");
            changed += u32::from(*ac.provided() != before);
        }
        assert!(changed > 100, "only {changed} calls changed the interface");
    }

    #[test]
    fn snapshot_passes_through() {
        let mut ac = adaptive_echo();
        let _ = call(&mut ac, "echo");
        let snap = ac.snapshot();
        assert_eq!(snap.field("handled").and_then(Value::as_int), Some(1));
    }
}
