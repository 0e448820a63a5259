//! What a wrapper that rewrites a message before its inner component sees
//! it allocates per message, counted with the thread-enrolled allocator
//! `aas-sim`'s `alloc_free` test uses.
//!
//! A handler owns the message it is handed, so a wrapper rewrites that
//! message and forwards it: wrapped, a component allocates no more than it
//! does bare, however large the payload a copy would duplicate.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{enroll, measured, unenroll, GATE};

use aas_adapt::filters::{FilterMode, FilterPipeline, FilteredComponent, RejectFilter};
use aas_adapt::interaction::{ChainedComponent, MetaChain, MetaObject, WrapperProp};
use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_sim::time::SimTime;

const FRAMES: i64 = 1_000;

/// Sums the `bytes` of the frames it is handed and buffers no effect.
#[derive(Debug, Default)]
struct Sink {
    bytes: i64,
}

impl Component for Sink {
    fn type_name(&self) -> &str {
        "Sink"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("frame")];
        static IFACE: Interface = Interface::fixed("Sink", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        self.bytes += msg.value.get("bytes").and_then(Value::as_int).unwrap_or(0);
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Sink", 1).with_field("bytes", Value::Int(self.bytes))
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
}

/// Allocations `component` makes handling `FRAMES` frames, each with a
/// payload map (a copy of one allocates); the frames are built before
/// counting starts. Every frame must reach a `Sink`.
fn allocs_handling(component: &mut dyn Component) -> u64 {
    let frames: Vec<Message> = (0..FRAMES)
        .map(|i| {
            Message::event(
                "frame",
                Value::map([("bytes", Value::Int(i)), ("cost", Value::Float(0.1))]),
            )
        })
        .collect();
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut ctx = CallCtx::new(SimTime::ZERO, "wrapped");
    enroll();
    let (handled, allocs) = measured(|| {
        frames
            .into_iter()
            .try_for_each(|frame| component.on_message(&mut ctx, frame))
    });
    unenroll();
    handled.expect("every frame is handled");
    assert!(ctx.into_effects().is_empty());
    assert_eq!(
        component.snapshot().field("bytes"),
        Some(&Value::Int(FRAMES * (FRAMES - 1) / 2)),
        "every frame reached the sink"
    );
    allocs
}

#[test]
fn a_filtered_component_allocates_what_the_bare_one_does() {
    let bare = allocs_handling(&mut Sink::default());
    let mut pipeline = FilterPipeline::new(FilterMode::Runtime);
    pipeline
        .attach(Box::new(RejectFilter::new(["admin_*"])))
        .expect("a runtime pipeline accepts filters");
    let filtered = allocs_handling(&mut FilteredComponent::new(
        Box::new(Sink::default()),
        pipeline,
    ));
    assert!(
        filtered <= bare,
        "filtered {filtered} vs bare {bare} over {FRAMES} frames"
    );
}

#[test]
fn a_chained_component_allocates_what_the_bare_one_does() {
    let bare = allocs_handling(&mut Sink::default());
    let mut chain = MetaChain::new();
    chain
        .compose(
            MetaObject::new("stamp", 0, |m| m.value.set("seen", Value::Bool(true)))
                .with_prop(WrapperProp::Modificatory),
        )
        .expect("an empty chain takes any meta-object");
    let mut chained = ChainedComponent::new(Box::new(Sink::default()), chain);
    let allocs = allocs_handling(&mut chained);
    assert_eq!(chained.chain_mut().invocations(), FRAMES as u64);
    assert!(
        allocs <= bare,
        "chained {allocs} vs bare {bare} over {FRAMES} frames"
    );
}
