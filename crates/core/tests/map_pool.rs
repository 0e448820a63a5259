//! What the thread's pool of payload-map buffers may keep, counted with
//! the thread-enrolled allocator of `dispatch_allocs.rs`.
//!
//! Every map built on a thread takes its buffer from the thread's pool and
//! gives it back when it drops, inside a `run_until` call or outside any.
//! When the outermost call returns, the pool keeps no more idle buffers
//! than the next call and the frames an application builds before it may
//! take; a runtime dropped outside any call frees them all.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/media_pipelines.rs"]
mod media_pipelines;

use counting_alloc::{enroll, measured, measured_heap, unenroll, HeapDelta, GATE};
use media_pipelines::SESSIONS;

use aas_core::detector::DetectorConfig;
use aas_core::heal::RepairPolicy;
use aas_core::message::{Message, Value};
use aas_core::runtime::{Runtime, TwinConfig};
use aas_obs::AuditKind;
use aas_sim::fault::FaultSchedule;
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;

/// The length of the call an application makes after injecting a slice's
/// frame, as the benchmark's slices are.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Runs `f` with this thread enrolled in the counting allocator, one test
/// at a time, and returns its allocations and what it did to the heap.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, HeapDelta) {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();
    let ((r, allocs), heap) = measured_heap(|| measured(f));
    unenroll();
    (r, allocs, heap)
}

/// A frame as the benchmark's overload workload injects it.
fn frame() -> Message {
    Message::event(
        "frame",
        Value::map([("bytes", Value::Int(400)), ("quality", Value::Float(1.0))]),
    )
}

/// One pipeline whose sessions have run and ended: its sources build no
/// frame, so every payload is one the application injects. A few slices
/// of injected frames warm what a frame touches at the sink, and a quiet
/// call leaves the thread no idle buffer.
fn quiet_pipeline() -> Runtime {
    let mut rt = media_pipelines::deploy(1);
    rt.run_for(SimDuration::from_millis(1_020));
    for _ in 0..SESSIONS {
        rt.inject("src0", Message::event("session_end", Value::Null))
            .unwrap();
    }
    rt.run_for(SimDuration::from_secs(1));
    inject_slices(&mut rt, 10);
    rt.run_for(SLICE);
    rt
}

/// `slices` slices of one frame each, injected for the sink before the
/// slice's call at an offset into it, as the benchmark's overload workload
/// injects its own.
fn inject_slices(rt: &mut Runtime, slices: u64) {
    for _ in 0..slices {
        rt.inject_after(SLICE / 2, "sink0", frame()).unwrap();
        rt.run_for(SLICE);
    }
}

/// Frames injected between calls reuse the buffer the call before freed:
/// once warm, 200 slices allocate exactly what 100 do.
#[test]
fn frames_injected_between_calls_reuse_the_buffers_the_calls_freed() {
    let mut rt = quiet_pipeline();
    inject_slices(&mut rt, 10);
    let mut window = |slices| {
        let processed = |rt: &Runtime| rt.observe().component("sink0").unwrap().processed;
        let before = processed(&rt);
        let ((), allocs, _) = counted(|| inject_slices(&mut rt, slices));
        assert_eq!(processed(&rt) - before, slices, "every frame was sunk");
        allocs
    };
    let (short, long) = (window(100), window(200));
    assert_eq!(long, short, "allocations over 200 slices against 100");
}

/// After a call that takes nothing, with nothing taken between calls, the
/// thread holds no idle buffer: the frames injected before it took one
/// buffer and reused it, and the quiet call freed it with the list that
/// held it.
#[test]
fn a_quiet_call_leaves_no_idle_buffer() {
    let mut rt = quiet_pipeline();
    let ((), allocs, heap) = counted(|| {
        inject_slices(&mut rt, 100);
        rt.run_for(SLICE);
    });
    assert_eq!(heap.grown, 0, "{heap:?}");
    assert_eq!(allocs, 2, "one buffer for 100 frames, and the idle list");
}

/// Dropping a runtime outside any call leaves no idle buffer on the
/// thread: the frames injected before the drop reused one buffer, and the
/// first frame built after it finds none.
#[test]
fn a_runtime_dropped_outside_any_call_leaves_no_idle_buffer() {
    let mut rt = quiet_pipeline();
    inject_slices(&mut rt, 10);
    let (after, allocs, _) = counted(|| {
        inject_slices(&mut rt, 100);
        drop(rt);
        frame()
    });
    assert_eq!(after.value.get("bytes"), Some(&Value::Int(400)));
    assert_eq!(
        allocs, 1,
        "the frame built after the drop, and nothing else"
    );
}

/// A twin played forward inside a heal tick is a call inside the
/// mainline's: neither its return nor the fork's drop trims the thread's
/// buffers, so every call keeps the one the next injected frame takes.
#[test]
fn a_twin_played_forward_in_a_heal_tick_does_not_trim_the_mainline_call() {
    let mut rt = quiet_pipeline();
    rt.set_fail_stop(true);
    rt.set_repair_policy(RepairPolicy::FailoverMigrate);
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(50),
        2.0,
        NodeId(0),
    ));
    rt.enable_twin(TwinConfig::default());
    // The transcoder's node goes down for longer than a twin's horizon.
    let down = rt.now() + SimDuration::from_secs(1);
    let mut outage = FaultSchedule::new();
    outage.node_outage(NodeId(1), down, down + SimDuration::from_secs(30));
    rt.inject_faults(outage);
    inject_slices(&mut rt, 5);

    let end = rt.now() + SimDuration::from_secs(5);
    while rt.now() < end {
        let ((), allocs, _) = counted(|| rt.inject_after(SLICE / 2, "sink0", frame()).unwrap());
        assert_eq!(allocs, 0, "the frame injected at {:?}", rt.now());
        rt.run_for(SLICE);
    }
    let twins = rt.obs().audit.of_kind(AuditKind::TwinPredicted);
    assert_eq!(twins.len(), 1, "a twin was played forward");
    assert!(
        rt.twin_prediction(NodeId(1)).is_none(),
        "and its repair is done"
    );
}
