//! The Strategy pattern (approach 2 of the paper's ten).
//!
//! "The Strategy pattern is commonly used to implement dynamically changing
//! algorithms … This pattern separates alternative algorithms that are to
//! be changed from the adaptation mechanism that implements the change.
//! Introspection mechanisms may capture state changes and set up the
//! expected adaptation, if necessary."
//!
//! [`StrategyContext`] holds the interchangeable algorithms;
//! [`IntrospectiveSwitcher`] is the separated adaptation mechanism that
//! watches a metric and switches strategy when its rules say so.

use crate::hook::{Hook, Opaque};
use crate::mechanism::{MechanismKind, SwitchMeter};
use core::fmt;
use std::collections::BTreeMap;

/// An interchangeable algorithm.
pub trait Strategy<I: ?Sized, O>: Send {
    /// The strategy's registry name.
    fn name(&self) -> &str;

    /// Applies the algorithm.
    fn apply(&mut self, input: &I) -> O;
}

/// A closure-backed strategy; its run count is how often it was applied.
pub type FnStrategy<I, O> = Hook<Opaque<dyn FnMut(&I) -> O + Send>>;

impl<I: ?Sized, O> FnStrategy<I, O> {
    /// Wraps a closure as a strategy.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, f: F) -> Self
    where
        F: FnMut(&I) -> O + Send + 'static,
    {
        Hook::named(name, Opaque(Box::new(f)))
    }
}

impl<I: ?Sized, O> Strategy<I, O> for FnStrategy<I, O> {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&mut self, input: &I) -> O {
        self.runs += 1;
        (self.action.0)(input)
    }
}

/// Error: the requested strategy is not registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStrategy(pub String);

impl fmt::Display for UnknownStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy `{}`", self.0)
    }
}

impl std::error::Error for UnknownStrategy {}

/// Holds alternative algorithms and dispatches to the active one.
///
/// # Examples
///
/// ```
/// use aas_adapt::strategy::{FnStrategy, StrategyContext};
///
/// let mut ctx: StrategyContext<i64, i64> = StrategyContext::new();
/// ctx.register(Box::new(FnStrategy::new("double", |x: &i64| x * 2)));
/// ctx.register(Box::new(FnStrategy::new("square", |x: &i64| x * x)));
/// ctx.switch_to("double").unwrap();
/// assert_eq!(ctx.apply(&5).unwrap(), 10);
/// ctx.switch_to("square").unwrap();
/// assert_eq!(ctx.apply(&5).unwrap(), 25);
/// ```
pub struct StrategyContext<I: ?Sized, O> {
    strategies: BTreeMap<String, Box<dyn Strategy<I, O>>>,
    active: Option<String>,
    switches: u64,
    applications: u64,
    meter: Option<SwitchMeter>,
}

impl<I: ?Sized, O> fmt::Debug for StrategyContext<I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StrategyContext")
            .field("strategies", &self.strategies.keys().collect::<Vec<_>>())
            .field("active", &self.active)
            .field("switches", &self.switches)
            .finish()
    }
}

impl<I: ?Sized, O> Default for StrategyContext<I, O> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: ?Sized, O> StrategyContext<I, O> {
    /// An empty context.
    #[must_use]
    pub fn new() -> Self {
        StrategyContext {
            strategies: BTreeMap::new(),
            active: None,
            switches: 0,
            applications: 0,
            meter: None,
        }
    }

    /// Attaches a [`SwitchMeter`]: every switch is then also recorded under
    /// `mech.strategy.*` in the shared metrics registry.
    pub fn set_meter(&mut self, meter: SwitchMeter) {
        self.meter = Some(meter);
    }

    /// Registers a strategy; the first registration becomes active.
    pub fn register(&mut self, strategy: Box<dyn Strategy<I, O>>) {
        let name = strategy.name().to_owned();
        if self.active.is_none() {
            self.active = Some(name.clone());
        }
        self.strategies.insert(name, strategy);
    }

    /// Switches the active strategy.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownStrategy`] if `name` is not registered.
    pub fn switch_to(&mut self, name: &str) -> Result<(), UnknownStrategy> {
        if !self.strategies.contains_key(name) {
            return Err(UnknownStrategy(name.to_owned()));
        }
        if self.active.as_deref() != Some(name) {
            self.active = Some(name.to_owned());
            self.switches += 1;
            if let Some(meter) = &self.meter {
                meter.record_profiled_switch(MechanismKind::Strategy);
            }
        }
        Ok(())
    }

    /// The active strategy's name.
    #[must_use]
    pub fn active(&self) -> Option<&str> {
        self.active.as_deref()
    }

    /// Number of strategy switches performed.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of applications dispatched.
    #[must_use]
    pub fn applications(&self) -> u64 {
        self.applications
    }

    /// Registered strategy names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.strategies.keys().map(String::as_str)
    }

    /// Applies the active strategy.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownStrategy`] if nothing is registered.
    pub fn apply(&mut self, input: &I) -> Result<O, UnknownStrategy> {
        let name = self
            .active
            .clone()
            .ok_or_else(|| UnknownStrategy("<none>".into()))?;
        let s = self
            .strategies
            .get_mut(&name)
            .ok_or(UnknownStrategy(name))?;
        self.applications += 1;
        Ok(s.apply(input))
    }
}

/// A switching rule: when `condition(metric)` holds, activate `strategy`.
pub struct SwitchRule {
    /// Target strategy name.
    pub strategy: String,
    /// Predicate over the introspected metric.
    pub condition: Box<dyn Fn(f64) -> bool + Send>,
}

impl fmt::Debug for SwitchRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SwitchRule(-> {})", self.strategy)
    }
}

/// The separated adaptation mechanism: watches one metric and drives a
/// [`StrategyContext`] through its rules (first matching rule wins).
#[derive(Debug, Default)]
pub struct IntrospectiveSwitcher {
    rules: Vec<SwitchRule>,
    evaluations: u64,
}

impl IntrospectiveSwitcher {
    /// An empty switcher.
    #[must_use]
    pub fn new() -> Self {
        IntrospectiveSwitcher::default()
    }

    /// Adds a rule: `condition` ⇒ activate `strategy`.
    pub fn rule<F>(&mut self, strategy: impl Into<String>, condition: F) -> &mut Self
    where
        F: Fn(f64) -> bool + Send + 'static,
    {
        self.rules.push(SwitchRule {
            strategy: strategy.into(),
            condition: Box::new(condition),
        });
        self
    }

    /// Observes `metric` and switches `ctx` if a rule fires. Returns the
    /// name of the newly activated strategy when a switch happened.
    pub fn observe<I: ?Sized, O>(
        &mut self,
        metric: f64,
        ctx: &mut StrategyContext<I, O>,
    ) -> Option<String> {
        self.evaluations += 1;
        let rule = self.rules.iter().find(|r| (r.condition)(metric))?;
        // A matching rule whose strategy is already active (or unknown)
        // switches nothing.
        let before = ctx.switches();
        let switched = ctx.switch_to(&rule.strategy).is_ok() && ctx.switches() > before;
        switched.then(|| rule.strategy.clone())
    }

    /// Number of observations evaluated.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality_ctx() -> StrategyContext<f64, f64> {
        let mut ctx = StrategyContext::new();
        // "Algorithms": quality produced per unit of input bandwidth.
        ctx.register(Box::new(FnStrategy::new("hq", |bw: &f64| bw * 0.9)));
        ctx.register(Box::new(FnStrategy::new("lq", |bw: &f64| bw * 0.4)));
        ctx
    }

    #[test]
    fn first_registration_is_active() {
        let ctx = quality_ctx();
        assert_eq!(ctx.active(), Some("hq"));
        assert_eq!(ctx.names().count(), 2);
    }

    #[test]
    fn switching_changes_behavior() {
        let mut ctx = quality_ctx();
        assert!((ctx.apply(&10.0).unwrap() - 9.0).abs() < 1e-12);
        ctx.switch_to("lq").unwrap();
        assert!((ctx.apply(&10.0).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(ctx.switches(), 1);
        assert_eq!(ctx.applications(), 2);
    }

    #[test]
    fn metered_switches_land_in_registry() {
        let reg = aas_obs::MetricsRegistry::new();
        let mut ctx = quality_ctx();
        ctx.set_meter(SwitchMeter::new(reg.clone()));
        ctx.switch_to("lq").unwrap();
        ctx.switch_to("lq").unwrap(); // no-op: not a switch
        ctx.switch_to("hq").unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mech.strategy.switches"), Some(2));
        let h = snap.histogram("mech.strategy.switch_cost").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn switch_to_same_is_not_counted() {
        let mut ctx = quality_ctx();
        ctx.switch_to("hq").unwrap();
        assert_eq!(ctx.switches(), 0);
    }

    #[test]
    fn unknown_strategy_errors() {
        let mut ctx = quality_ctx();
        let err = ctx.switch_to("ultra").unwrap_err();
        assert_eq!(err, UnknownStrategy("ultra".into()));
        let empty: StrategyContext<f64, f64> = StrategyContext::new();
        let mut empty = empty;
        assert!(empty.apply(&1.0).is_err());
    }

    #[test]
    fn stateful_strategies_keep_state() {
        let mut ctx: StrategyContext<i64, i64> = StrategyContext::new();
        let mut acc = 0;
        ctx.register(Box::new(FnStrategy::new("sum", move |x: &i64| {
            acc += x;
            acc
        })));
        assert_eq!(ctx.apply(&2).unwrap(), 2);
        assert_eq!(ctx.apply(&3).unwrap(), 5);
    }

    #[test]
    fn switcher_reacts_to_metric() {
        let mut ctx = quality_ctx();
        let mut switcher = IntrospectiveSwitcher::new();
        switcher
            .rule("lq", |load| load > 0.8)
            .rule("hq", |load| load < 0.3);

        // High load: drop to low quality.
        assert_eq!(switcher.observe(0.95, &mut ctx), Some("lq".into()));
        assert_eq!(ctx.active(), Some("lq"));
        // Still high: no redundant switch.
        assert_eq!(switcher.observe(0.9, &mut ctx), None);
        // Load recovered: back to high quality.
        assert_eq!(switcher.observe(0.1, &mut ctx), Some("hq".into()));
        // Mid-band: no rule fires.
        assert_eq!(switcher.observe(0.5, &mut ctx), None);
        assert_eq!(ctx.switches(), 2);
        assert_eq!(switcher.evaluations(), 4);
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut ctx = quality_ctx();
        ctx.switch_to("lq").unwrap();
        let mut switcher = IntrospectiveSwitcher::new();
        switcher.rule("hq", |x| x > 0.0).rule("lq", |x| x > 0.0);
        assert_eq!(switcher.observe(1.0, &mut ctx), Some("hq".into()));
    }
}
