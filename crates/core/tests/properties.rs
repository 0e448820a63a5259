//! Property-based tests for the component model's core data structures
//! and the RAML rule monitor's temporal operators.

use aas_core::component::{CallCtx, Component, EchoComponent};
use aas_core::interface::{Interface, Signature, TypeTag};
use aas_core::lts::{check_compatibility, synthetic_ring, Dir, Label, Lts};
use aas_core::message::{Message, SeqVerdict, SequenceTracker, Value};
use aas_core::raml::{Cmp, RuleMonitor, TemporalOp};
use aas_sim::time::SimTime;
use proptest::prelude::*;

fn type_tag() -> impl Strategy<Value = TypeTag> {
    prop_oneof![
        Just(TypeTag::Unit),
        Just(TypeTag::Bool),
        Just(TypeTag::Int),
        Just(TypeTag::Float),
        Just(TypeTag::Str),
        Just(TypeTag::Bytes),
        Just(TypeTag::List),
        Just(TypeTag::Map),
        Just(TypeTag::Any),
    ]
}

fn signature() -> impl Strategy<Value = Signature> {
    (
        "[a-z][a-z0-9_]{0,8}",
        prop::collection::vec(type_tag(), 0..4),
        type_tag(),
    )
        .prop_map(|(name, params, returns)| Signature::new(name, params, returns))
}

fn interface() -> impl Strategy<Value = Interface> {
    prop::collection::vec(signature(), 0..6).prop_map(|sigs| {
        // Deduplicate names to keep interfaces well-formed.
        let mut seen = std::collections::BTreeSet::new();
        let sigs: Vec<Signature> = sigs
            .into_iter()
            .filter(|s| seen.insert(s.name.clone()))
            .collect();
        Interface::new("I", sigs)
    })
}

proptest! {
    /// Backward compatibility is reflexive.
    #[test]
    fn interface_compat_reflexive(iface in interface()) {
        prop_assert!(iface.is_backward_compatible_with(&iface));
        prop_assert!(iface.satisfies_requirement(&iface));
    }

    /// Extension never breaks backward compatibility.
    #[test]
    fn extension_preserves_compat(iface in interface(), extra in prop::collection::vec(signature(), 0..4)) {
        // Only add operations the interface does not already provide
        // (replacing an existing one may legitimately break compat).
        let fresh: Vec<Signature> = extra
            .into_iter()
            .filter(|s| !iface.provides(&s.name))
            .collect();
        let extended = iface.extended_with(fresh);
        prop_assert!(
            extended.is_backward_compatible_with(&iface),
            "extended {extended} vs {iface}"
        );
        prop_assert_eq!(extended.version, iface.version + 1);
    }

    /// The type lattice: `satisfies` is reflexive and `Any` is top.
    #[test]
    fn type_tag_lattice(tag in type_tag()) {
        prop_assert!(tag.satisfies(tag));
        prop_assert!(tag.satisfies(TypeTag::Any));
    }

    /// Product state count is bounded by |A| x |B|, and the product of
    /// complementary rings is deadlock-free.
    #[test]
    fn lts_product_bounds(n in 1usize..24, m in 1usize..24) {
        let a = synthetic_ring("a", n, Dir::Send);
        let b = synthetic_ring("b", m, Dir::Recv);
        let p = a.product(&b);
        prop_assert!(p.state_count() <= n * m + 1);
        if n == m {
            let report = check_compatibility(&a, &b);
            prop_assert!(report.is_compatible());
        }
    }

    /// Reachability: reachable states are a subset of all states and
    /// include the initial state.
    #[test]
    fn lts_reachability_sound(n in 1usize..30, extra_orphans in 0usize..5) {
        let mut l = synthetic_ring("r", n, Dir::Send);
        for i in 0..extra_orphans {
            let _ = l.add_state(format!("orphan{i}"));
        }
        let reach = l.reachable();
        prop_assert!(reach.contains(&l.initial()));
        prop_assert_eq!(reach.len(), n, "ring fully reachable, orphans not");
        prop_assert_eq!(l.unreachable_states().len(), extra_orphans);
    }

    /// An in-order stream is always clean; the tracker's gap count equals
    /// the number of skipped sequence numbers.
    #[test]
    fn sequence_tracker_gap_accounting(skips in prop::collection::vec(0u64..5, 1..50)) {
        let mut t = SequenceTracker::new();
        let mut seq = 0u64;
        let mut expected_gaps = 0u64;
        for &skip in &skips {
            seq += skip; // skip some numbers
            expected_gaps += skip;
            let v = t.observe("flow", seq);
            if skip == 0 {
                prop_assert_eq!(v, SeqVerdict::InOrder);
            } else {
                prop_assert_eq!(v, SeqVerdict::Gap { missing: skip });
            }
            seq += 1;
        }
        prop_assert_eq!(t.gaps(), expected_gaps);
        prop_assert_eq!(t.duplicates(), 0);
    }

    /// Value: estimated size is positive and grows under nesting; Display
    /// never panics.
    #[test]
    fn value_size_and_display(n in 0usize..50, s in "[a-z]{0,20}") {
        let v = Value::map([
            ("list", Value::List(vec![Value::from(1); n])),
            ("text", Value::from(s.clone())),
        ]);
        prop_assert!(v.estimated_size() > 0);
        let nested = Value::List(vec![v.clone(), v.clone()]);
        prop_assert!(nested.estimated_size() > v.estimated_size());
        let _ = format!("{nested}");
    }

    /// Echo snapshots roundtrip through arbitrary handled counts.
    #[test]
    fn echo_snapshot_roundtrip(count in 0usize..200) {
        let mut a = EchoComponent::default();
        let mut ctx = CallCtx::new(SimTime::ZERO, "a");
        for _ in 0..count {
            a.on_message(&mut ctx, Message::request("echo", Value::Null)).unwrap();
        }
        let snap = a.snapshot();
        let mut b = EchoComponent::default();
        b.restore(&snap).unwrap();
        prop_assert_eq!(b.snapshot(), snap);
    }

    /// A label never complements itself, and complementarity is symmetric.
    #[test]
    fn label_complement_symmetry(action in "[a-z]{1,8}") {
        let s = Label::send(action.clone());
        let r = Label::recv(action);
        prop_assert!(s.complements(&r));
        prop_assert!(r.complements(&s));
        prop_assert!(!s.complements(&s));
        prop_assert!(!r.complements(&r));
    }

    /// `implies` fires exactly on ticks where the condition holds.
    #[test]
    fn implies_matches_condition(values in prop::collection::vec(0.0f64..20.0, 1..100)) {
        let mut m = RuleMonitor::new(TemporalOp::Implies, Cmp::Gt, 10.0);
        for &v in &values {
            prop_assert_eq!(m.step(v), v > 10.0);
        }
    }

    /// `implies_later` fires exactly one tick after the condition held:
    /// total fires equals condition-true ticks among all but the last.
    #[test]
    fn implies_later_shifts_by_one(values in prop::collection::vec(0.0f64..20.0, 2..100)) {
        let mut m = RuleMonitor::new(TemporalOp::ImpliesLater, Cmp::Gt, 10.0);
        let mut fires = Vec::new();
        for &v in &values {
            fires.push(m.step(v));
        }
        for i in 1..values.len() {
            prop_assert_eq!(fires[i], values[i - 1] > 10.0, "at {}", i);
        }
        prop_assert!(!fires[0]);
    }

    /// `wait_until` fires at most once between rearms.
    #[test]
    fn wait_until_fires_once(values in prop::collection::vec(0.0f64..20.0, 1..100)) {
        let mut m = RuleMonitor::new(TemporalOp::WaitUntil, Cmp::Gt, 10.0);
        let mut fired = 0;
        for &v in &values {
            if m.step(v) {
                fired += 1;
            }
        }
        prop_assert!(fired <= 1);
        // It fires iff some rising edge exists.
        let mut prev = false;
        let mut has_edge = false;
        for &v in &values {
            let cond = v > 10.0;
            if cond && !prev {
                has_edge = true;
            }
            prev = cond;
        }
        prop_assert_eq!(fired == 1, has_edge);
    }

    /// `implies_before` never fires while the condition itself holds.
    #[test]
    fn implies_before_is_anticipatory(values in prop::collection::vec(0.0f64..200.0, 1..100)) {
        let mut m = RuleMonitor::new(TemporalOp::ImpliesBefore, Cmp::Gt, 100.0);
        for &v in &values {
            let fired = m.step(v);
            if v > 100.0 {
                prop_assert!(!fired, "fired during the violation at {v}");
            }
            if fired {
                prop_assert!(v >= 80.0, "fired too early at {v}");
            }
        }
    }
}

/// Deterministic check kept out of proptest: a protocol violation in one
/// runner does not corrupt the LTS for later runners.
#[test]
fn lts_runner_isolation() {
    let mut lts = Lts::new("p");
    let s0 = lts.add_state("0");
    let s1 = lts.add_state("1");
    lts.set_initial(s0);
    lts.mark_final(s0);
    lts.add_transition(s0, Label::send("go"), s1);
    lts.add_transition(s1, Label::recv("done"), s0);

    let mut r1 = aas_core::lts::LtsRunner::new(lts.clone(), false);
    assert!(r1.try_fire(&Label::recv("done")).is_err());
    let mut r2 = aas_core::lts::LtsRunner::new(lts, false);
    assert!(r2.try_fire(&Label::send("go")).is_ok());
}
