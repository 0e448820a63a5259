//! A guided tour of the paper's ten dynamic-adaptability mechanisms (§2),
//! each exercised live. Run with: `cargo run --example mechanisms_tour`

use aas_adapt::adaptive_iface::AdaptiveComponent;
use aas_adapt::connector_swap::ConnectorSelector;
use aas_adapt::filters::{FilterMode, FilterPipeline, RejectFilter, TransformFilter};
use aas_adapt::framework::{CompositionFramework, FrameworkAspect, SlotSpec};
use aas_adapt::injector::{InjectedBehavior, Injector, InjectorRegistry};
use aas_adapt::interaction::{MetaChain, MetaObject, WrapperProp};
use aas_adapt::mechanism::MechanismKind;
use aas_adapt::middleware::{AdaptiveMiddleware, ContextInfo};
use aas_adapt::paths::video_path;
use aas_adapt::strategy::{FnStrategy, IntrospectiveSwitcher, StrategyContext};
use aas_adapt::weaving::{Advice, JoinPoint, Pointcut, WeaverBuilder};
use aas_core::component::{CallCtx, Component, EchoComponent};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_sim::time::SimTime;

fn main() {
    println!("the ten dynamic-adaptability mechanisms, live:\n");

    // 1. Composition framework: slots + crosscutting aspects.
    let mut fw = CompositionFramework::new();
    fw.declare_slot(SlotSpec::new(
        "codec",
        Interface::new("Echo", vec![Signature::one_way("echo")]),
    ));
    fw.plug("codec", Box::new(EchoComponent::default()))
        .unwrap();
    fw.install_aspect(FrameworkAspect::new("audit", |slot, m| {
        m.value.set("audited-slot", Value::from(slot));
    }));
    fw.plug("codec", Box::new(EchoComponent::default()))
        .unwrap(); // interchange
    println!(
        " 1. composition-framework: slot `codec` interchanged {} time(s), aspect installed",
        fw.interchanges("codec")
    );

    // 2. Strategy pattern with introspective switching.
    let mut strategies: StrategyContext<f64, f64> = StrategyContext::new();
    strategies.register(Box::new(FnStrategy::new("hq", |x: &f64| x * 0.9)));
    strategies.register(Box::new(FnStrategy::new("lq", |x: &f64| x * 0.4)));
    let mut switcher = IntrospectiveSwitcher::new();
    switcher
        .rule("lq", |load| load > 0.8)
        .rule("hq", |load| load < 0.3);
    let switched = switcher.observe(0.95, &mut strategies);
    println!(
        " 2. strategy: high load observed -> switched to {:?} (active: {})",
        switched,
        strategies.active().unwrap()
    );

    // 3. Aspect weaving: static weave + dynamic interchange.
    let mut weaver = WeaverBuilder::new()
        .weave_static(Advice::new(
            "stamp",
            Pointcut::new(JoinPoint::BeforeSend, "*"),
            |m| m.value.set("stamped", Value::Bool(true)),
        ))
        .build();
    weaver.swap_dynamic(Advice::new(
        "trace",
        Pointcut::new(JoinPoint::BeforeSend, "media_*"),
        |_| {},
    ));
    let mut m = Message::request("media_play", Value::map::<&str>([]));
    let ran = weaver.execute(JoinPoint::BeforeSend, &mut m);
    println!(" 3. aspect-weaving: {ran} advice bodies ran (1 static + 1 dynamic)");

    // 4. Composition filters: runtime-attachable, declarative.
    let mut pipeline = FilterPipeline::new(FilterMode::Runtime);
    pipeline
        .attach(Box::new(RejectFilter::new(["debug_*"])))
        .unwrap();
    pipeline
        .attach(Box::new(TransformFilter::new("*", "filtered", |_| {
            Value::Bool(true)
        })))
        .unwrap();
    let mut ok = Message::request("play", Value::map::<&str>([]));
    let mut bad = Message::request("debug_dump", Value::Null);
    let ok_out = pipeline.run(&mut ok);
    let bad_out = pipeline.run(&mut bad);
    println!(
        " 4. composition-filters: `play` passed (cost {:.3}), `debug_dump` {}",
        ok_out.cost,
        bad_out.blocked.as_deref().unwrap_or("passed")
    );

    // 5. Connector interchange via a load-indexed selector.
    let selector = ConnectorSelector::new("wire")
        .rung(0.0, ConnectorSpec::direct("wire"))
        .rung(
            0.7,
            ConnectorSpec::direct("wire").with_aspect(ConnectorAspect::Compression {
                ratio: 0.5,
                cost: 0.2,
            }),
        );
    println!(
        " 5. connector-interchange: load 0.2 -> {} aspects; load 0.9 -> {} aspects",
        selector.select(0.2).map_or(0, |spec| spec.aspects.len()),
        selector.select(0.9).map_or(0, |spec| spec.aspects.len())
    );

    // 6. Composition paths: frozen stages, interchangeable variants.
    let mut path = video_path();
    let full = path.execute(Value::map::<&str>([]));
    path.select("coding", "audio-only").unwrap();
    path.select("transfer", "best-effort").unwrap();
    let degraded = path.execute(Value::map::<&str>([]));
    println!(
        " 6. composition-path: {} stages (frozen); cost {:.1} -> {:.1} after degrading",
        path.stage_count(),
        full.total_cost,
        degraded.total_cost
    );

    // 7. Interaction patterns: meta-object chain with wrapper properties.
    let mut chain = MetaChain::new();
    chain
        .compose(
            MetaObject::new("auth", 0, |m| m.value.set("authed", Value::Bool(true)))
                .with_prop(WrapperProp::Mandatory)
                .with_prop(WrapperProp::Modificatory),
        )
        .unwrap();
    chain
        .compose(
            MetaObject::new("gzip", 10, |_| {})
                .with_prop(WrapperProp::Exclusive("compression".into())),
        )
        .unwrap();
    let conflict = chain.compose(
        MetaObject::new("lz4", 5, |_| {}).with_prop(WrapperProp::Exclusive("compression".into())),
    );
    println!(
        " 7. interaction-pattern: chain {:?}; second compressor rejected: {}",
        chain.chained(),
        conflict.is_err()
    );

    // 8. Adaptive middleware: reflective stack reshaping.
    let mut mw = AdaptiveMiddleware::with_default_policy();
    mw.adapt(&ContextInfo {
        bandwidth: 0.15,
        loss_rate: 0.2,
        cpu_headroom: 0.9,
        security_required: true,
    });
    let names: Vec<&str> = mw.stack().iter().map(|s| s.name()).collect();
    let effect = mw.effect(0.2);
    println!(
        " 8. adaptive-middleware: starved context -> stack {:?}, loss {:.2} -> {:.5}",
        names, 0.2, effect.effective_loss
    );

    // 9. Injectors: scoped interception.
    let mut injectors = InjectorRegistry::new();
    injectors.install(Injector::new(
        "canary",
        ["billing".to_owned()],
        InjectedBehavior::Reroute {
            to: "billing-v2".into(),
        },
    ));
    let mut msg = Message::request("charge", Value::Null);
    let outcome = injectors.intercept("billing", &mut msg);
    println!(" 9. injector: `billing` traffic -> {outcome:?}");

    // 10. Adaptive interfaces: AJ-style observe + modify.
    let mut ac = AdaptiveComponent::new(Box::new(EchoComponent::default()));
    ac.rewrite_op("ping", "echo");
    ac.override_response("health", Value::from("ok"));
    let mut ctx = CallCtx::new(SimTime::ZERO, "ac");
    ac.on_message(&mut ctx, Message::request("ping", Value::from(1)))
        .unwrap();
    println!(
        "10. adaptive-interface: generated interface provides {:?}; trace {:?}",
        ac.provided()
            .signatures
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>(),
        ac.trace()
            .iter()
            .map(|t| (t.received_op.clone(), t.executed_op.clone()))
            .collect::<Vec<_>>()
    );

    // The cost catalogue used by experiments E1/E10.
    println!("\nswitch-cost vs per-message-overhead catalogue:");
    for kind in MechanismKind::adaptation_mechanisms() {
        let p = kind.profile();
        println!(
            "    {:<24} switch={:>5.2}  per-msg={:>6.3}  break-even vs reconfig: {:>8.0} msgs",
            kind.name(),
            p.switch_cost,
            p.per_message_overhead,
            p.break_even_vs_reconfig().unwrap_or(f64::NAN)
        );
    }
    let r = MechanismKind::Reconfiguration.profile();
    println!(
        "    {:<24} switch={:>5.2}  per-msg={:>6.3}  (availability-preserving: {})",
        "reconfiguration", r.switch_cost, r.per_message_overhead, r.availability_preserving
    );
}
