//! Property-based tests for the adaptability mechanisms.

use aas_adapt::filters::{FilterMode, FilterPipeline, OpPattern, RejectFilter, ThrottleFilter};
use aas_adapt::interaction::{MetaChain, MetaObject, WrapperProp};
use aas_adapt::middleware::{AdaptiveMiddleware, ContextInfo};
use aas_adapt::paths::{CompositionPath, ServiceVariant, Stage};
use aas_adapt::strategy::{FnStrategy, StrategyContext};
use aas_core::message::{Message, Value};
use proptest::prelude::*;

proptest! {
    /// Pipeline accounting: blocked + passed == evaluated.
    #[test]
    fn pipeline_accounting(ops in prop::collection::vec(prop_oneof![Just("good"), Just("bad")], 1..100)) {
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(RejectFilter::new(["bad"]))).unwrap();
        let mut passed = 0u64;
        for op in &ops {
            let mut m = Message::request(*op, Value::Null);
            if p.run(&mut m).blocked.is_none() {
                passed += 1;
            }
        }
        prop_assert_eq!(p.evaluated(), ops.len() as u64);
        prop_assert_eq!(p.blocked_count() + passed, ops.len() as u64);
        let expected_pass = ops.iter().filter(|o| **o == "good").count() as u64;
        prop_assert_eq!(passed, expected_pass);
    }

    /// The throttle admits at most `limit` messages per window, always.
    #[test]
    fn throttle_never_exceeds_limit(
        limit in 1u64..10,
        window in 1u64..20,
        total in 1usize..200,
    ) {
        let window = window.max(limit);
        let mut p = FilterPipeline::new(FilterMode::Runtime);
        p.attach(Box::new(ThrottleFilter::new(limit, window).unwrap())).unwrap();
        let mut admitted_in_window = 0u64;
        for i in 0..total {
            if (i as u64).is_multiple_of(window) {
                admitted_in_window = 0;
            }
            let mut m = Message::request("x", Value::Null);
            if p.run(&mut m).blocked.is_none() {
                admitted_in_window += 1;
            }
            prop_assert!(admitted_in_window <= limit);
        }
    }

    /// Op patterns: a pattern with trailing `*` matches exactly the
    /// strings starting with its prefix.
    #[test]
    fn op_pattern_prefix_semantics(prefix in "[a-z]{0,6}", suffix in "[a-z]{0,6}") {
        let pat = format!("{prefix}*");
        let hit = format!("{prefix}{suffix}");
        let miss = format!("x{prefix}{suffix}");
        let p = OpPattern::new(pat);
        prop_assert!(p.matches(&hit));
        if !suffix.is_empty() && !format!("x{prefix}").starts_with(&prefix) {
            prop_assert!(!p.matches(&miss));
        }
    }

    /// MetaChain execution order is always sorted by (priority, insertion).
    #[test]
    fn meta_chain_ordering(priorities in prop::collection::vec(-10i32..10, 1..20)) {
        let mut chain = MetaChain::new();
        for (i, &p) in priorities.iter().enumerate() {
            chain.compose(MetaObject::new(format!("m{i}"), p, |_| {})).unwrap();
        }
        let order = chain.chained();
        let prios: Vec<i32> = order
            .iter()
            .map(|n| priorities[n[1..].parse::<usize>().unwrap()])
            .collect();
        prop_assert!(prios.windows(2).all(|w| w[0] <= w[1]), "{prios:?}");
        // Equal priorities keep insertion order.
        for w in order.windows(2) {
            let (i, j): (usize, usize) =
                (w[0][1..].parse().unwrap(), w[1][1..].parse().unwrap());
            if priorities[i] == priorities[j] {
                prop_assert!(i < j);
            }
        }
    }

    /// Exclusive groups never hold two members, under arbitrary
    /// compose/remove interleavings.
    #[test]
    fn exclusive_group_invariant(script in prop::collection::vec((0usize..6, prop::bool::ANY), 1..40)) {
        let mut chain = MetaChain::new();
        for (idx, add) in script {
            let name = format!("m{idx}");
            if add {
                let _ = chain.compose(
                    MetaObject::new(name, idx as i32, |_| {})
                        .with_prop(WrapperProp::Exclusive("g".into())),
                );
            } else {
                let _ = chain.remove(&name);
            }
            let members = chain
                .chained()
                .len();
            prop_assert!(members <= 1, "group g has {members} members");
        }
    }

    /// Strategy context: the active strategy is always a registered one.
    #[test]
    fn strategy_active_always_registered(switches in prop::collection::vec(0usize..6, 0..40)) {
        let mut ctx: StrategyContext<i64, i64> = StrategyContext::new();
        for i in 0..4 {
            ctx.register(Box::new(FnStrategy::new(format!("s{i}"), move |x: &i64| x + i)));
        }
        for target in switches {
            let _ = ctx.switch_to(&format!("s{target}"));
            let active = ctx.active().unwrap().to_owned();
            prop_assert!(ctx.names().any(|n| n == active));
            prop_assert!(ctx.apply(&1).is_ok());
        }
    }

    /// Middleware: the stack is a pure function of context (same context,
    /// same stack), and retry never increases effective loss.
    #[test]
    fn middleware_policy_pure(bw in 0.0f64..1.0, loss in 0.0f64..0.5, cpu in 0.0f64..1.0, sec in prop::bool::ANY) {
        let ctx = ContextInfo { bandwidth: bw, loss_rate: loss, cpu_headroom: cpu, security_required: sec };
        let mut a = AdaptiveMiddleware::with_default_policy();
        let mut b = AdaptiveMiddleware::with_default_policy();
        a.adapt(&ctx);
        b.adapt(&ctx);
        prop_assert_eq!(a.stack(), b.stack());
        let effect = a.effect(loss);
        prop_assert!(effect.effective_loss <= loss + 1e-12);
        prop_assert!(effect.size_factor > 0.0);
    }

    /// Composition paths: total cost equals the sum of active variant
    /// costs, whatever selection sequence ran before.
    #[test]
    fn path_cost_is_sum_of_active(selects in prop::collection::vec((0usize..3, 0usize..3), 0..20)) {
        let make_stage = |name: &str| {
            Stage::new(
                name,
                (0..3)
                    .map(|i| ServiceVariant::new(format!("v{i}"), f64::from(i as u32) + 1.0, 1.0, |v| v))
                    .collect(),
            )
            .unwrap()
        };
        let mut path =
            CompositionPath::new(vec![make_stage("a"), make_stage("b"), make_stage("c")]).unwrap();
        let stage_names = ["a", "b", "c"];
        let mut active = [0usize; 3];
        for (stage, variant) in selects {
            let s = stage % 3;
            path.select(stage_names[s], &format!("v{variant}")).unwrap();
            active[s] = variant;
        }
        let run = path.execute(Value::Null);
        let expected: f64 = active.iter().map(|&v| v as f64 + 1.0).sum();
        prop_assert!((run.total_cost - expected).abs() < 1e-9);
        prop_assert_eq!(path.stage_count(), 3, "stages stay frozen");
    }
}
