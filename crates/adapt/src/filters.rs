//! Composition filters (approach 4 of the paper's ten).
//!
//! "Filters intercept messages that are sent and received by components.
//! Filters can be applied to all input and output messages or filters can
//! select particular messages. … Since filters are defined as declarative
//! message manipulators, they are implementation independent. They can be
//! compiled into source code or be preserved as run-time message
//! manipulation modules. In case of run-time implementation, filters can be
//! dynamically attached to or removed from the components."
//!
//! A [`FilterPipeline`] is an ordered chain of [`MessageFilter`]s evaluated
//! against each message. Pipelines exist in two modes mirroring the
//! paper's compile-time/run-time split: [`FilterMode::Inlined`] pipelines
//! are frozen once they first run a message and cheap per message, while
//! [`FilterMode::Runtime`] pipelines accept dynamic attach/detach at a
//! higher per-message cost (experiment E6 quantifies the gap).
//! [`Superimposition`] applies one pipeline definition across many
//! components — the crosscutting composition the paper pairs filters with.

use crate::hook::{Chain, Front, Hook, Opaque, Wrapper};
use aas_core::component::Component;
use aas_core::message::{Message, Name, Value};
use core::fmt;
use std::collections::BTreeSet;

pub use crate::hook::SealedError;

/// What a filter decided about a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Pass unchanged to the next filter.
    Pass,
    /// Message rejected; the pipeline stops here.
    Block {
        /// Human-readable reason.
        reason: String,
    },
    /// Message was modified in place; continue down the pipeline.
    Transformed,
}

/// A declarative message manipulator.
pub trait MessageFilter: Send {
    /// A short name for reports.
    fn name(&self) -> &str;

    /// Evaluates (and possibly rewrites) `msg`.
    fn evaluate(&mut self, msg: &mut Message) -> FilterVerdict;

    /// Work units this filter charges per message (defaults to a small
    /// constant).
    fn cost(&self) -> f64 {
        0.01
    }
}

impl fmt::Debug for dyn MessageFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MessageFilter({})", self.name())
    }
}

/// Matches operations against a simple pattern: exact, or prefix with a
/// trailing `*`. Filters and pointcuts share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpPattern(String);

impl OpPattern {
    /// Creates a pattern.
    #[must_use]
    pub fn new(pattern: impl Into<String>) -> Self {
        OpPattern(pattern.into())
    }

    /// Whether `op` matches.
    #[must_use]
    pub fn matches(&self, op: &str) -> bool {
        match self.0.strip_suffix('*') {
            Some(prefix) => op.starts_with(prefix),
            None => op == self.0,
        }
    }
}

/// Rejects messages whose operation matches any listed pattern — the
/// composition-filters `Error` filter.
#[derive(Debug)]
pub struct RejectFilter {
    patterns: Vec<OpPattern>,
}

impl RejectFilter {
    /// Rejects the given op patterns.
    #[must_use]
    pub fn new(patterns: impl IntoIterator<Item = &'static str>) -> Self {
        RejectFilter {
            patterns: patterns.into_iter().map(OpPattern::new).collect(),
        }
    }
}

impl MessageFilter for RejectFilter {
    fn name(&self) -> &str {
        "reject"
    }

    fn evaluate(&mut self, msg: &mut Message) -> FilterVerdict {
        if self.patterns.iter().any(|p| p.matches(&msg.op)) {
            FilterVerdict::Block {
                reason: format!("operation `{}` rejected by filter", msg.op),
            }
        } else {
            FilterVerdict::Pass
        }
    }
}

/// Sets a payload field on matching messages — a `Meta`-style transformer.
#[derive(Debug)]
pub struct TransformFilter {
    pattern: OpPattern,
    key: String,
    compute: Opaque<dyn Fn(&Message) -> Value + Send>,
}

impl TransformFilter {
    /// Sets `key` to `compute(msg)` on messages whose op matches.
    #[must_use]
    pub fn new<F>(pattern: impl Into<String>, key: impl Into<String>, compute: F) -> Self
    where
        F: Fn(&Message) -> Value + Send + 'static,
    {
        TransformFilter {
            pattern: OpPattern::new(pattern),
            key: key.into(),
            compute: Opaque(Box::new(compute)),
        }
    }
}

impl MessageFilter for TransformFilter {
    fn name(&self) -> &str {
        "transform"
    }

    fn evaluate(&mut self, msg: &mut Message) -> FilterVerdict {
        if !self.pattern.matches(&msg.op) {
            return FilterVerdict::Pass;
        }
        let v = (self.compute.0)(msg);
        if let Value::Map(_) = msg.value {
            msg.value.set(self.key.clone(), v);
        } else {
            let old = std::mem::take(&mut msg.value);
            msg.value = Value::map([(Name::from("payload"), old), (Name::from(&self.key), v)]);
        }
        FilterVerdict::Transformed
    }
}

/// Renames operations — interface adaptation at the message level.
#[derive(Debug)]
pub struct RenameFilter {
    from: String,
    to: Name,
}

impl RenameFilter {
    /// Renames op `from` to `to`.
    #[must_use]
    pub fn new(from: impl Into<String>, to: impl Into<String>) -> Self {
        RenameFilter {
            from: from.into(),
            to: to.into().into(),
        }
    }
}

impl MessageFilter for RenameFilter {
    fn name(&self) -> &str {
        "rename"
    }

    fn evaluate(&mut self, msg: &mut Message) -> FilterVerdict {
        if msg.op == self.from {
            msg.op = self.to.clone();
            FilterVerdict::Transformed
        } else {
            FilterVerdict::Pass
        }
    }
}

/// Admits at most `limit` messages per window of `window_len` sequence
/// numbers — a declarative throttle.
#[derive(Debug)]
pub struct ThrottleFilter {
    limit: u64,
    seen: u64,
    admitted: u64,
    window_len: u64,
}

impl ThrottleFilter {
    /// Admits `limit` messages out of every `window_len`. Returns `None`
    /// when `window_len` is zero.
    #[must_use]
    pub fn new(limit: u64, window_len: u64) -> Option<Self> {
        (window_len > 0).then_some(ThrottleFilter {
            limit,
            seen: 0,
            admitted: 0,
            window_len,
        })
    }
}

impl MessageFilter for ThrottleFilter {
    fn name(&self) -> &str {
        "throttle"
    }

    fn evaluate(&mut self, _msg: &mut Message) -> FilterVerdict {
        if self.seen == self.window_len {
            self.seen = 0;
            self.admitted = 0;
        }
        self.seen += 1;
        if self.admitted < self.limit {
            self.admitted += 1;
            FilterVerdict::Pass
        } else {
            FilterVerdict::Block {
                reason: "throttled".into(),
            }
        }
    }
}

/// Whether a pipeline is frozen (compile-time analogue) or dynamic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// Fixed once it first runs a message: from then on attach/detach
    /// fail. The per-message dispatch discount models inlined, statically
    /// compiled filters.
    Inlined,
    /// Filters may be attached/detached at run time; each message pays the
    /// full indirection cost.
    Runtime,
}

/// The outcome of running a message through a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineOutcome {
    /// `None` if the message passed (possibly transformed); `Some(reason)`
    /// if it was blocked.
    pub blocked: Option<String>,
    /// Total work units charged.
    pub cost: f64,
    /// How many filters actually evaluated the message.
    pub filters_run: usize,
}

/// An ordered filter chain over component input or output messages.
///
/// # Examples
///
/// ```
/// use aas_adapt::filters::{FilterMode, FilterPipeline, RejectFilter, RenameFilter};
/// use aas_core::message::{Message, Value};
///
/// let mut p = FilterPipeline::new(FilterMode::Runtime);
/// p.attach(Box::new(RenameFilter::new("legacy_op", "op"))).unwrap();
/// p.attach(Box::new(RejectFilter::new(["debug_*"]))).unwrap();
///
/// let mut ok = Message::request("legacy_op", Value::Null);
/// assert!(p.run(&mut ok).blocked.is_none());
/// assert_eq!(ok.op, "op");
///
/// let mut bad = Message::request("debug_dump", Value::Null);
/// assert!(p.run(&mut bad).blocked.is_some());
/// ```
#[derive(Debug)]
pub struct FilterPipeline {
    mode: FilterMode,
    filters: Chain<Box<dyn MessageFilter>>,
    sealed: bool,
    evaluated: u64,
    blocked: u64,
}

/// Per-message fixed dispatch cost for a runtime pipeline.
pub const RUNTIME_DISPATCH_COST: f64 = 0.02;
/// Per-message fixed dispatch cost for an inlined pipeline.
pub const INLINED_DISPATCH_COST: f64 = 0.002;

impl FilterPipeline {
    /// An empty pipeline in the given mode.
    #[must_use]
    pub fn new(mode: FilterMode) -> Self {
        FilterPipeline {
            mode,
            filters: Chain::default(),
            sealed: false,
            evaluated: 0,
            blocked: 0,
        }
    }

    /// Appends a filter.
    ///
    /// # Errors
    ///
    /// Fails on a sealed inlined pipeline.
    pub fn attach(&mut self, filter: Box<dyn MessageFilter>) -> Result<(), SealedError> {
        if self.sealed {
            return Err(SealedError);
        }
        let name = filter.name().to_owned();
        self.filters.0.push(Hook::named(name, filter));
        Ok(())
    }

    /// Removes the first filter with the given name.
    ///
    /// # Errors
    ///
    /// Fails on a sealed inlined pipeline; returns `Ok(false)` when no
    /// filter had that name.
    pub fn detach(&mut self, name: &str) -> Result<bool, SealedError> {
        if self.sealed {
            return Err(SealedError);
        }
        Ok(self.filters.remove(name))
    }

    /// Runs `msg` through the chain in order.
    pub fn run(&mut self, msg: &mut Message) -> PipelineOutcome {
        if self.mode == FilterMode::Inlined {
            self.sealed = true;
        }
        self.evaluated += 1;
        // Inlining fuses filter bodies: half the cost per filter.
        let (mut cost, per_filter_factor) = match self.mode {
            FilterMode::Inlined => (INLINED_DISPATCH_COST, 0.5),
            FilterMode::Runtime => (RUNTIME_DISPATCH_COST, 1.0),
        };
        let mut filters_run = 0;
        let mut blocked = None;
        for f in &mut self.filters.0 {
            filters_run += 1;
            f.runs += 1;
            cost += f.action.cost() * per_filter_factor;
            if let FilterVerdict::Block { reason } = f.action.evaluate(msg) {
                self.blocked += 1;
                blocked = Some(reason);
                break;
            }
        }
        PipelineOutcome {
            blocked,
            cost,
            filters_run,
        }
    }

    /// Messages evaluated so far.
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Messages blocked so far.
    #[must_use]
    pub fn blocked_count(&self) -> u64 {
        self.blocked
    }
}

/// A component wrapped with input filters: the composition-filters
/// integration point. Input messages run through the pipeline before the
/// inner component sees them; blocked messages are absorbed (and counted)
/// without reaching it.
pub type FilteredComponent = Wrapper<FilterPipeline>;

impl FilteredComponent {
    /// Wraps `inner` with `input` filters.
    #[must_use]
    pub fn new(inner: Box<dyn Component>, input: FilterPipeline) -> Self {
        Wrapper {
            inner,
            front: input,
        }
    }

    /// Messages absorbed: those the input pipeline has blocked.
    #[must_use]
    pub fn absorbed(&self) -> u64 {
        self.front.blocked_count()
    }
}

impl Front for FilterPipeline {
    fn before(&mut self, msg: &mut Message) -> bool {
        self.run(msg).blocked.is_none()
    }

    fn cost(&self) -> f64 {
        // Filter cost is charged on top of the inner component's cost.
        let per_filter = match self.mode {
            FilterMode::Inlined => 0.005,
            FilterMode::Runtime => 0.01,
        };
        per_filter * self.filters.0.len() as f64
    }
}

/// Applies one pipeline definition across a set of components — the
/// superimposition mechanism that lets filters "express aspects".
#[derive(Debug)]
pub struct Superimposition {
    name: String,
    template: Opaque<dyn Fn() -> FilterPipeline + Send>,
    applied_to: BTreeSet<String>,
}

impl Superimposition {
    /// Creates a superimposition whose pipeline is produced by `template`.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, template: F) -> Self
    where
        F: Fn() -> FilterPipeline + Send + 'static,
    {
        Superimposition {
            name: name.into(),
            template: Opaque(Box::new(template)),
            applied_to: BTreeSet::new(),
        }
    }

    /// The superimposition's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wraps `component` (recorded under `instance_name`) with a fresh
    /// instance of the template pipeline.
    pub fn apply(
        &mut self,
        instance_name: impl Into<String>,
        component: Box<dyn Component>,
    ) -> FilteredComponent {
        self.applied_to.insert(instance_name.into());
        FilteredComponent::new(component, (self.template.0)())
    }

    /// The instances this aspect has been superimposed on.
    #[must_use]
    pub fn applied_to(&self) -> &BTreeSet<String> {
        &self.applied_to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_core::component::{CallCtx, EchoComponent};
    use aas_sim::time::SimTime;

    fn msg(op: &'static str) -> Message {
        Message::request(op, Value::from(1))
    }

    #[test]
    fn op_pattern_exact_and_prefix() {
        assert!(OpPattern::new("get").matches("get"));
        assert!(!OpPattern::new("get").matches("getAll"));
        assert!(OpPattern::new("get*").matches("getAll"));
        assert!(OpPattern::new("*").matches("anything"));
    }

    #[test]
    fn reject_filter_blocks_matching() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(RejectFilter::new(["admin_*"]))).unwrap();
        assert!(p.run(&mut msg("admin_reset")).blocked.is_some());
        assert!(p.run(&mut msg("fetch")).blocked.is_none());
        assert_eq!(p.blocked_count(), 1);
        assert_eq!(p.evaluated(), 2);
    }

    #[test]
    fn transform_filter_annotates_payload() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(TransformFilter::new("submit", "audited", |_| {
            Value::Bool(true)
        })))
        .unwrap();
        let mut m = msg("submit");
        p.run(&mut m);
        assert_eq!(m.value.get("audited"), Some(&Value::Bool(true)));
        assert_eq!(m.value.get("payload"), Some(&Value::from(1)));
        // Non-matching untouched.
        let mut other = msg("fetch");
        p.run(&mut other);
        assert_eq!(other.value, Value::from(1));
    }

    #[test]
    fn rename_filter_adapts_interface() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(RenameFilter::new("old", "new"))).unwrap();
        let mut m = msg("old");
        assert!(p.run(&mut m).blocked.is_none());
        assert_eq!(m.op, "new");
    }

    #[test]
    fn throttle_admits_limit_per_window() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(ThrottleFilter::new(2, 4).unwrap()))
            .unwrap();
        let verdicts: Vec<bool> = (0..8)
            .map(|_| p.run(&mut msg("x")).blocked.is_none())
            .collect();
        assert_eq!(
            verdicts,
            vec![true, true, false, false, true, true, false, false]
        );
    }

    #[test]
    fn throttle_needs_a_window() {
        assert!(ThrottleFilter::new(2, 0).is_none());
        assert!(ThrottleFilter::new(0, 1).is_some());
    }

    #[test]
    fn filters_run_in_order_and_stop_at_block() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(RenameFilter::new("a", "blockme")))
            .unwrap();
        p.attach(Box::new(RejectFilter::new(["blockme"]))).unwrap();
        p.attach(Box::new(TransformFilter::new("*", "seen", |_| {
            Value::Bool(true)
        })))
        .unwrap();
        let mut m = msg("a");
        let out = p.run(&mut m);
        assert!(out.blocked.is_some());
        assert_eq!(out.filters_run, 2, "third filter never ran");
        assert_eq!(m.value.get("seen"), None);
    }

    #[test]
    fn inlined_pipeline_seals_on_first_use() {
        let mut p = FilterPipeline::new(FilterMode::Inlined);
        p.attach(Box::new(RejectFilter::new(["x"]))).unwrap();
        let _ = p.run(&mut msg("y"));
        let err = p.attach(Box::new(RejectFilter::new(["z"]))).unwrap_err();
        assert_eq!(err, SealedError);
        assert!(p.detach("reject").is_err());
    }

    #[test]
    fn runtime_pipeline_attaches_and_detaches_live() {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        let _ = p.run(&mut msg("x"));
        p.attach(Box::new(RejectFilter::new(["x"]))).unwrap();
        assert!(p.run(&mut msg("x")).blocked.is_some());
        assert!(p.detach("reject").unwrap());
        assert!(p.run(&mut msg("x")).blocked.is_none());
        assert!(!p.detach("reject").unwrap(), "already gone");
    }

    #[test]
    fn inlined_costs_less_than_runtime() {
        let build = |mode| {
            let mut p = FilterPipeline::new(mode);
            for _ in 0..4 {
                p.attach(Box::new(RejectFilter::new(["never"]))).unwrap();
            }
            p
        };
        let mut inlined = build(FilterMode::Inlined);
        let mut runtime = build(FilterMode::Runtime);
        let ci = inlined.run(&mut msg("x")).cost;
        let cr = runtime.run(&mut msg("x")).cost;
        assert!(ci < cr, "inlined {ci} !< runtime {cr}");
    }

    #[test]
    fn filtered_component_absorbs_blocked_messages() {
        let mut pipeline = FilterPipeline::new(FilterMode::Runtime);
        pipeline
            .attach(Box::new(RejectFilter::new(["echo"])))
            .unwrap();
        let mut fc = FilteredComponent::new(Box::new(EchoComponent::default()), pipeline);
        let mut ctx = CallCtx::new(SimTime::ZERO, "fc");
        fc.on_message(&mut ctx, msg("echo")).unwrap();
        assert_eq!(fc.absorbed(), 1);
        assert!(ctx.into_effects().is_empty(), "inner never replied");
    }

    #[test]
    fn filtered_component_passes_allowed_messages() {
        let pipeline = FilterPipeline::new(FilterMode::Runtime);
        let mut fc = FilteredComponent::new(Box::new(EchoComponent::default()), pipeline);
        let mut ctx = CallCtx::new(SimTime::ZERO, "fc");
        fc.on_message(&mut ctx, msg("echo")).unwrap();
        assert_eq!(fc.absorbed(), 0);
        assert_eq!(ctx.into_effects().len(), 1, "inner replied");
    }

    #[test]
    fn filtered_component_cost_grows_with_filters() {
        let base = FilteredComponent::new(
            Box::new(EchoComponent::default()),
            FilterPipeline::new(FilterMode::Runtime),
        );
        let mut deep_pipeline = FilterPipeline::new(FilterMode::Runtime);
        for _ in 0..10 {
            deep_pipeline
                .attach(Box::new(RejectFilter::new(["never"])))
                .unwrap();
        }
        let deep = FilteredComponent::new(Box::new(EchoComponent::default()), deep_pipeline);
        let m = msg("echo");
        assert!(deep.work_cost(&m) > base.work_cost(&m));
    }

    #[test]
    fn superimposition_applies_template_to_many() {
        let mut aspect = Superimposition::new("audit", || {
            let mut p = FilterPipeline::new(FilterMode::Runtime);
            p.attach(Box::new(TransformFilter::new("*", "audited", |_| {
                Value::Bool(true)
            })))
            .unwrap();
            p
        });
        let _a = aspect.apply("svc-a", Box::new(EchoComponent::default()));
        let _b = aspect.apply("svc-b", Box::new(EchoComponent::default()));
        assert_eq!(aspect.applied_to().len(), 2);
        assert!(aspect.applied_to().contains("svc-a"));
        assert_eq!(aspect.name(), "audit");
    }
}
