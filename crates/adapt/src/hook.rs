//! Named behaviour run in front of a message — the one act five of the
//! paper's approaches share. Composition-framework aspects, woven advice,
//! composition filters, meta-objects, injectors and watchpoints are each a
//! [`Hook`] held in a [`Chain`], and each mechanism keeps only its paper
//! rule on top: who may add or remove a hook, and which messages it sees.
//! The three component wrappers are one [`Wrapper`] with a different
//! [`Front`]. Outside the crate these types are reached only through the
//! mechanisms' own names (`Advice`, `FilteredComponent`, …); a closure
//! strategy (`FnStrategy`) is a hook too.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::Interface;
use aas_core::message::Message;
use core::fmt;

/// A named action and how many times it acted.
#[derive(Debug)]
pub struct Hook<A> {
    pub(crate) name: String,
    pub(crate) action: A,
    pub(crate) runs: u64,
}

impl<A> Hook<A> {
    pub(crate) fn named(name: impl Into<String>, action: A) -> Self {
        Hook {
            name: name.into(),
            action,
            runs: 0,
        }
    }

    /// The hook's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// How many times the hook has acted on a message.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

/// A boxed closure; `Debug` shows only that it is there.
pub struct Opaque<F: ?Sized>(pub(crate) Box<F>);

impl<F: ?Sized> fmt::Debug for Opaque<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

/// A test on a message: a watchpoint's trigger, a meta-object's condition.
pub(crate) type Predicate = Opaque<dyn Fn(&Message) -> bool + Send>;

/// Hooks in run order. [`Chain::install`] keeps one hook per name; static
/// advice and filters are pushed, and may repeat a name.
#[derive(Debug)]
pub struct Chain<A>(pub(crate) Vec<Hook<A>>);

impl<A> Default for Chain<A> {
    fn default() -> Self {
        Chain(Vec::new())
    }
}

impl<A> Chain<A> {
    /// An empty chain.
    #[must_use]
    pub fn new() -> Self {
        Chain::default()
    }

    /// Installs `hook` at the end, replacing any hook of the same name.
    pub fn install(&mut self, hook: Hook<A>) {
        self.remove(&hook.name);
        self.0.push(hook);
    }

    /// Removes the first hook named `name`; `true` if there was one.
    pub fn remove(&mut self, name: &str) -> bool {
        let found = self.0.iter().position(|h| h.name == name);
        if let Some(i) = found {
            self.0.remove(i);
        }
        found.is_some()
    }

    /// The first hook named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Hook<A>> {
        self.0.iter().find(|h| h.name == name)
    }

    /// The hooks' names in run order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|h| h.name.as_str())
    }
}

/// Error: the hooks were fixed before the first message — an inlined
/// filter pipeline once it has run, statically woven advice — and cannot
/// change at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedError;

impl fmt::Display for SealedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sealed: these hooks cannot change at run time")
    }
}

impl std::error::Error for SealedError {}

/// What a [`Wrapper`] puts in front of its inner component.
pub trait Front: Send {
    /// Runs on `msg` before the inner component sees it; `false` absorbs
    /// the message.
    fn before(&mut self, _msg: &mut Message) -> bool {
        true
    }

    /// Handles `msg` on its way to `inner`: forwards it, rewritten or not,
    /// or answers or absorbs it without `inner` seeing it. By default,
    /// forwards what [`Front::before`] lets through.
    ///
    /// # Errors
    ///
    /// Whatever `inner` fails with.
    fn handle(
        &mut self,
        inner: &mut dyn Component,
        ctx: &mut CallCtx,
        mut msg: Message,
    ) -> Result<(), ComponentError> {
        if self.before(&mut msg) {
            inner.on_message(ctx, msg)
        } else {
            Ok(())
        }
    }

    /// The interface the wrapped component offers: by default the inner
    /// component's own.
    fn provided<'a>(&'a self, inner: &'a dyn Component) -> &'a Interface {
        inner.provided()
    }

    /// Work units the front adds to each message.
    fn cost(&self) -> f64;
}

/// A component behind a [`Front`]: everything but the message path and
/// its cost goes to the inner component unchanged.
#[derive(Debug)]
pub struct Wrapper<F> {
    pub(crate) inner: Box<dyn Component>,
    pub(crate) front: F,
}

impl<F: Front> Component for Wrapper<F> {
    fn type_name(&self) -> &str {
        self.inner.type_name()
    }

    fn provided(&self) -> &Interface {
        self.front.provided(&*self.inner)
    }

    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        self.front.handle(&mut *self.inner, ctx, msg)
    }

    fn on_timer(&mut self, ctx: &mut CallCtx, tag: u64) {
        self.inner.on_timer(ctx, tag);
    }

    fn snapshot(&self) -> StateSnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        self.inner.restore(snapshot)
    }

    fn work_cost(&self, msg: &Message) -> f64 {
        self.inner.work_cost(msg) + self.front.cost()
    }
}
