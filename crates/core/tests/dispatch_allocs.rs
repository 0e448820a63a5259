//! The allocation budget of the per-message path, counted with the
//! thread-enrolled allocator `aas-sim`'s `alloc_free` test uses.
//!
//! A delivery resolves no names: envelopes address instances and
//! connectors by table id, the last target gets the message by move, and
//! op, sender, port, metric and map-key names are literals or shared. A
//! handler owns the message it is handed, so the transcoder re-encodes the
//! frame it was given. What is left per frame of a source → transcoder →
//! sink pipeline is the payload's buffer, and `run_until` reuses those: a
//! call draws one frame tick's worth once, whatever its length, and a
//! frame costs nothing after that.
//!
//! The per-send tests below drive the runtime with `Runtime::step` and
//! keep every frame they receive, so no payload buffer comes back to be
//! reused: they count what dispatch itself builds and copies.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/media_pipelines.rs"]
mod media_pipelines;

use counting_alloc::{enroll, measured, unenroll, GATE};
use media_pipelines::SESSIONS;

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorSpec, RetryPolicy, RoutingPolicy};
use aas_core::detector::DetectorConfig;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::Runtime;
use aas_sim::fault::FaultSchedule;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// Heap allocations per frame through source → transcoder → sink, once
/// a call has drawn its buffers.
const ALLOCS_PER_FRAME: u64 = 0;

fn topology(nodes: usize) -> Topology {
    Topology::clique(nodes, 1000.0, SimDuration::from_millis(1), 1e7)
}

fn processed(rt: &Runtime, name: &str) -> u64 {
    rt.observe().component(name).expect("deployed").processed
}

/// `pipelines` source → transcoder → sink chains of four sessions each on
/// one runtime, sources, transcoders and sinks on a node each.
fn pipelines_allocate_a_fixed_count_per_frame(pipelines: u64) {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rt = media_pipelines::deploy(pipelines);
    let sunk = |rt: &Runtime| -> u64 {
        (0..pipelines)
            .map(|i| processed(rt, &format!("sink{i}")))
            .sum()
    };

    // Warm: route cache, channel and event buffers, the message arena,
    // the effects buffer, the sinks' metric handles. Every window ends
    // between two frame ticks (25 per virtual second), so no frame is
    // under way at either edge.
    rt.run_for(SimDuration::from_millis(2_020));
    let mut window = |secs: u64| {
        let (sunk_before, delivered) = (sunk(&rt), rt.metrics().delivered);
        enroll();
        let ((), allocs) = measured(|| rt.run_for(SimDuration::from_secs(secs)));
        unenroll();
        let frames = sunk(&rt) - sunk_before;
        assert_eq!(
            frames,
            pipelines * SESSIONS * 25 * secs,
            "4 sessions x 25 frames a second a pipeline"
        );
        assert_eq!(
            rt.metrics().delivered - delivered,
            2 * frames,
            "every frame was delivered twice and none is under way"
        );
        (frames, allocs)
    };
    let (short, refill) = window(100);
    let (long, allocs) = window(200);
    assert_eq!(
        allocs - refill,
        ALLOCS_PER_FRAME * (long - short),
        "allocations over {long} frames against {short}"
    );
    // The refill: each frame of one tick takes a new buffer and grows it
    // once for the transcoder's fifth field, and the pool's free list
    // doubles its way up to hold them.
    let burst = pipelines * SESSIONS;
    assert!(refill < 3 * burst, "{refill} allocations to refill {burst}");
}

#[test]
fn warm_pipeline_allocates_a_fixed_count_per_frame() {
    pipelines_allocate_a_fixed_count_per_frame(1);
}

/// With 256 sessions hundreds of job timers are pending at once, as in
/// the benchmark: whatever keeps them must not allocate as they come
/// and go.
#[test]
fn many_warm_pipelines_allocate_the_same_fixed_count_per_frame() {
    pipelines_allocate_a_fixed_count_per_frame(64);
}

/// Sends one fixed payload out of `out` per `go`.
#[derive(Debug, Default)]
struct Fan;

fn payload() -> Value {
    Value::map([("bytes", Value::Int(100))])
}

impl Component for Fan {
    fn type_name(&self) -> &str {
        "Fan"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("go")];
        static IFACE: Interface = Interface::fixed("Fan", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, _msg: Message) -> Result<(), ComponentError> {
        ctx.send("out", Message::event("frame", payload()));
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Fan", 1)
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
}

/// Fan sends per run; each test runs every fan twice, to warm and to count.
const SENDS: u64 = 50;

/// Keeps every frame it is handed, in room reserved up front, and counts
/// those whose payload equals the one `Fan` sends. No payload buffer comes
/// back to the thread's pool, so every payload built or cloned during a
/// test allocates exactly once.
#[derive(Debug)]
struct Check {
    expected: Value,
    kept: Vec<Message>,
}

impl Check {
    fn new() -> Check {
        Check {
            expected: payload(),
            kept: Vec::with_capacity(2 * SENDS as usize),
        }
    }
}

impl Component for Check {
    fn type_name(&self) -> &str {
        "Check"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("frame")];
        static IFACE: Interface = Interface::fixed("Check", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        self.kept.push(msg);
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        let equal = self
            .kept
            .iter()
            .filter(|msg| msg.value == self.expected)
            .count();
        StateSnapshot::new("Check", 1).with_field("equal", Value::Int(equal as i64))
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
}

#[test]
fn broadcast_clones_for_every_target_but_the_last() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut registry = ImplementationRegistry::new();
    registry.register("Fan", 1, |_| Box::new(Fan));
    registry.register("Check", 1, |_| Box::new(Check::new()));
    let mut rt = Runtime::new(topology(5), 14, registry);
    let mut cfg = Configuration::new();
    cfg.component("one", ComponentDecl::new("Fan", 1, NodeId(0)));
    cfg.component("three", ComponentDecl::new("Fan", 1, NodeId(0)));
    for (i, name) in ["k0", "k1", "k2", "k3"].into_iter().enumerate() {
        cfg.component(name, ComponentDecl::new("Check", 1, NodeId(1 + i as u32)));
    }
    cfg.connector(ConnectorSpec::direct("direct"));
    cfg.connector(ConnectorSpec::direct("all").with_policy(RoutingPolicy::Broadcast));
    cfg.bind(BindingDecl::new("one", "out", "direct", "k0", "in"));
    cfg.bind(
        BindingDecl::new("three", "out", "all", "k1", "in")
            .also_to("k2", "in")
            .also_to("k3", "in"),
    );
    rt.deploy(&cfg).unwrap();

    let mut run = |fan: &str| {
        for _ in 0..SENDS {
            rt.inject(fan, Message::event("go", Value::Null)).unwrap();
            while rt.step().is_some() {}
        }
    };
    run("one");
    run("three");
    enroll();
    let ((), direct) = measured(|| run("one"));
    let ((), broadcast) = measured(|| run("three"));
    unenroll();

    assert_eq!(direct, SENDS, "the payload is built once and moved");
    assert_eq!(
        broadcast - direct,
        2 * SENDS,
        "one payload copy for each of the first two targets"
    );
    let state = rt.state_fingerprint();
    let all_equal = format!("Int({})", 2 * SENDS);
    assert_eq!(state.matches(&all_equal).count(), 4, "{state}");
}

/// A connector with a retry policy may have to send a message again. The
/// message waits for that in the slot it was stored in when it was sent,
/// so a send through such a connector allocates what any send does.
#[test]
fn a_send_allocates_nothing_for_the_retry_it_may_need() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut registry = ImplementationRegistry::new();
    registry.register("Fan", 1, |_| Box::new(Fan));
    registry.register("Check", 1, |_| Box::new(Check::new()));
    let mut rt = Runtime::new(topology(3), 14, registry);
    let mut cfg = Configuration::new();
    cfg.component("plain", ComponentDecl::new("Fan", 1, NodeId(0)));
    cfg.component("patient", ComponentDecl::new("Fan", 1, NodeId(0)));
    cfg.component("k0", ComponentDecl::new("Check", 1, NodeId(1)));
    cfg.component("k1", ComponentDecl::new("Check", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("direct"));
    cfg.connector(
        ConnectorSpec::direct("retrying")
            .with_retry(RetryPolicy::new(3, SimDuration::from_millis(10))),
    );
    cfg.bind(BindingDecl::new("plain", "out", "direct", "k0", "in"));
    cfg.bind(BindingDecl::new("patient", "out", "retrying", "k1", "in"));
    rt.deploy(&cfg).unwrap();

    let mut run = |fan: &str| {
        for _ in 0..SENDS {
            rt.inject(fan, Message::event("go", Value::Null)).unwrap();
            while rt.step().is_some() {}
        }
    };
    run("plain");
    run("patient");
    enroll();
    let ((), plain) = measured(|| run("plain"));
    let ((), patient) = measured(|| run("patient"));
    unenroll();

    assert_eq!(plain, SENDS, "the payload is built once and moved");
    assert_eq!(patient, plain, "and kept nowhere else for a retry");
    assert_eq!(rt.metrics().retries, 0);
}

#[test]
fn heartbeat_round_allocates_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut rt = Runtime::new(topology(8), 14, ImplementationRegistry::new());
    rt.enable_failure_detector(DetectorConfig::new(
        SimDuration::from_millis(100),
        3.0,
        NodeId(0),
    ));
    rt.run_for(SimDuration::from_secs(1));
    let before = rt.kernel_counters().get("delivered");

    enroll();
    let ((), allocs) = measured(|| rt.run_for(SimDuration::from_secs(1)));
    unenroll();

    assert_eq!(
        rt.kernel_counters().get("delivered") - before,
        70,
        "ten rounds of seven heartbeats"
    );
    assert_eq!(allocs, 0, "allocations over ten detector rounds");
}

/// Forwards every message it is handed out of `out`.
#[derive(Debug, Default)]
struct Relay;

impl Component for Relay {
    fn type_name(&self) -> &str {
        "Relay"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("go")];
        static IFACE: Interface = Interface::fixed("Relay", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        ctx.send("out", msg);
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Relay", 1)
    }
    fn restore(&mut self, _snapshot: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
}

/// Frames a cycle of the drop test sends or parks.
const FRAMES: u64 = 20;

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// What `rt`'s registry counts under `runtime.dropped.<cause>`.
fn dropped_for(rt: &Runtime, cause: &str) -> u64 {
    let series = format!("runtime.dropped.{cause}");
    rt.obs().metrics.snapshot().counter(&series).unwrap_or(0)
}

/// A frame the kernel drops at delivery because its destination node
/// went down while it was in transit, and a frame whose target's name
/// nobody bears when it is due, are counted and freed: once warm, neither
/// allocates.
#[test]
fn a_dropped_frame_allocates_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut registry = ImplementationRegistry::new();
    registry.register("Relay", 1, |_| Box::new(Relay));
    let slow = Topology::clique(3, 1000.0, SimDuration::from_millis(50), 1e7);
    let mut rt = Runtime::new(slow, 14, registry);
    let mut cfg = Configuration::new();
    cfg.component("relay", ComponentDecl::new("Relay", 1, NodeId(0)));
    cfg.component("sink", ComponentDecl::new("Relay", 1, NodeId(1)));
    cfg.component("gone", ComponentDecl::new("Relay", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("relay", "out", "wire", "sink", "in"));
    rt.deploy(&cfg).unwrap();

    // Cycle `c` starts at `c` seconds: `FRAMES` frames leave the relay in
    // its first 21 ms and take 50 ms to reach the sink's node, which is
    // down from 40 ms to 200 ms in a dropping cycle and from 300 ms to
    // 400 ms, with nothing in transit, in a control cycle. Cycles 0 and 1
    // warm, 2 and 3 are measured. Then `gone` is removed, and the frames
    // parked for it fall due from 4.1 s on, the first half to warm.
    let mut faults = FaultSchedule::new();
    for (cycle, down, up) in [(0, 40, 200), (1, 300, 400), (2, 300, 400), (3, 40, 200)] {
        faults.node_outage(NodeId(1), ms(cycle * 1000 + down), ms(cycle * 1000 + up));
    }
    rt.inject_faults(faults);
    for i in 0..2 * FRAMES {
        let due = SimDuration::from_millis(4100 + 10 * i);
        rt.inject_after(due, "gone", Message::event("go", Value::Null))
            .unwrap();
    }
    let cycle = |rt: &mut Runtime, c: u64| {
        let start = ms(c * 1000).saturating_since(rt.now());
        for _ in 0..FRAMES {
            rt.inject_after(start, "relay", Message::event("go", Value::Null))
                .unwrap();
        }
        rt.run_until(ms(c * 1000 + 999));
    };
    cycle(&mut rt, 0);
    cycle(&mut rt, 1);
    let down_before = dropped_for(&rt, "destination_down");
    enroll();
    let ((), control) = measured(|| cycle(&mut rt, 2));
    let ((), dropping) = measured(|| cycle(&mut rt, 3));
    unenroll();
    assert_eq!(
        dropped_for(&rt, "destination_down") - down_before,
        FRAMES,
        "every frame of the dropping cycle was dropped at delivery"
    );
    assert_eq!(dropping, control, "allocations of {FRAMES} dropped frames");

    rt.request_reconfig(ReconfigPlan::single(ReconfigAction::RemoveComponent {
        name: "gone".into(),
    }));
    rt.run_until(ms(4095 + 10 * FRAMES));
    let unaddressed = dropped_for(&rt, "unaddressed");
    enroll();
    let ((), allocs) = measured(|| rt.run_until(ms(5000)));
    unenroll();
    assert_eq!(dropped_for(&rt, "unaddressed") - unaddressed, FRAMES);
    assert_eq!(allocs, 0, "allocations of {FRAMES} unaddressed frames");
}
