//! What the runtime's pool of payload-map buffers may keep, counted with
//! the thread-enrolled allocator of `dispatch_allocs.rs`.
//!
//! `run_until` installs the pool for its call; a map built during the call
//! takes a buffer from it and gives it back when it drops. Between calls
//! the pool keeps no more buffers than the next call may take, and none
//! once the runtime goes quiet.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/media_pipelines.rs"]
mod media_pipelines;

use counting_alloc::{enroll, measured_heap, unenroll, HeapDelta, GATE};
use media_pipelines::SESSIONS;

use aas_core::message::{Message, Value};
use aas_core::runtime::Runtime;
use aas_sim::time::{SimDuration, SimTime};

const PIPELINES: u64 = 4;
/// Frame ticks are 40 ms apart and a tick's frames are sunk within a few
/// milliseconds, so the first event after a gap this long is a tick.
const TICK_GAP_MS: u64 = 20;

fn heap_of<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();
    let measured = measured_heap(f);
    unenroll();
    measured
}

/// Sends `op` to every source once per session.
fn to_every_session(rt: &mut Runtime, op: &'static str) {
    for i in 0..PIPELINES {
        for _ in 0..SESSIONS {
            rt.inject(&format!("src{i}"), Message::event(op, Value::Null))
                .unwrap();
        }
    }
}

/// Two virtual seconds of frames driven by `step`, which installs no pool:
/// every frame allocates and frees its own buffer, and everything else a
/// frame or a session's end touches is as large as it gets. The stepping
/// stops after a frame tick — the sources' timers due at the first
/// instant after a quiet gap — and one call delivers that tick's frames
/// before the next: they were built outside any call, so the pool never
/// holds a buffer, nor a list.
fn warm_without_the_pool() -> Runtime {
    let mut rt = media_pipelines::deploy(PIPELINES);
    let step_to = |rt: &mut Runtime, ms: u64| {
        let mut last = SimTime::ZERO;
        while let Some(at) = rt.step() {
            let gap = at.saturating_since(last) >= SimDuration::from_millis(TICK_GAP_MS);
            if at >= SimTime::from_millis(ms) && gap {
                while rt.step() == Some(at) {}
                return;
            }
            last = at;
        }
    };
    step_to(&mut rt, 1_000);
    to_every_session(&mut rt, "session_end");
    step_to(&mut rt, 1_500);
    to_every_session(&mut rt, "session_start");
    step_to(&mut rt, 2_000);
    rt.run_for(SimDuration::from_millis(TICK_GAP_MS));
    rt
}

#[test]
fn a_runtime_that_goes_quiet_holds_nothing() {
    let mut rt = warm_without_the_pool();
    let ((), heap) = heap_of(|| {
        rt.run_for(SimDuration::from_secs(1));
        to_every_session(&mut rt, "session_end");
        rt.run_for(SimDuration::from_secs(1));
    });
    assert_eq!(heap.grown, 0, "{heap:?}");
}

/// A map built inside a call and dropped outside any — a reply the
/// embedding application takes from the outbox — goes to the allocator.
#[test]
fn a_map_dropped_outside_any_run_is_freed() {
    let mut rt = warm_without_the_pool();
    rt.inject("sink0", Message::request("stats", Value::Null))
        .unwrap();
    // Well before the next frame tick: the pool has no buffer to give.
    rt.run_for(SimDuration::from_millis(5));
    let (_, reply) = rt.take_outbox().pop().expect("the sink replied");
    let stats = reply.value;
    assert!(stats.get("frames").is_some(), "{stats}");
    let built_outside = stats.clone();

    let ((), dropped) = heap_of(|| drop(stats));
    let ((), reference) = heap_of(|| drop(built_outside));
    assert!(dropped.grown < 0, "{dropped:?}");
    assert_eq!(
        dropped.grown, reference.grown,
        "freed like a map no pool saw"
    );
}
