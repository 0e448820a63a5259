//! The messages in flight are stored once, in an arena the runtime owns;
//! the kernel, its held queues and the message timers carry 4-byte
//! handles. These cases hold what that design must get right:
//!
//! - **conservation** — every way a message leaves the system frees its
//!   slot and no other, so `Runtime::in_flight()` agrees at every instant
//!   with what the kernel's and the instances' own counters say is under
//!   way, and reads zero after the drain;
//! - **stale handle** — a job cancelled by its host's crash leaves a timer
//!   in the kernel that still carries the slot's handle; the slot must not
//!   be handed to another message before that timer has fired;
//! - **fork independence** — a twin fork owns a copy of the arena, so
//!   running it and dropping it cannot show on the mainline.
//!
//! Run in release as well (CI does): slot reuse order is what the
//! stale-handle case leans on, and it must hold in the profile the
//! benchmark builds with.

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::config::{BindingDecl, ComponentDecl, Configuration};
use aas_core::connector::{ConnectorSpec, RetryPolicy};
use aas_core::detector::DetectorConfig;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::{Interface, Signature};
use aas_core::message::{Message, Value};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::ImplementationRegistry;
use aas_core::runtime::{InFlight, Runtime};
use aas_obs::export::audit_jsonl;
use aas_sim::fault::FaultSchedule;
use aas_sim::link::LinkId;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use aas_topo::tiered::TieredSpec;

/// Forwards every tick out of `out`, at `cost` work units a tick.
#[derive(Debug)]
struct Fwd {
    cost: f64,
    seen: i64,
}

impl Component for Fwd {
    fn type_name(&self) -> &str {
        "Fwd"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Fwd", &OPS);
        &IFACE
    }
    fn on_message(&mut self, ctx: &mut CallCtx, _msg: Message) -> Result<(), ComponentError> {
        self.seen += 1;
        ctx.send("out", Message::event("tick", Value::Null));
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Fwd", 1).with_field("seen", Value::Int(self.seen))
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        self.seen = snapshot
            .state
            .get("seen")
            .and_then(Value::as_int)
            .unwrap_or(0);
        Ok(())
    }
    fn work_cost(&self, _msg: &Message) -> f64 {
        self.cost
    }
}

/// Counts ticks. Version 2 passes validation and cannot restore: a plan
/// that swaps it in rolls back mid-flight.
#[derive(Debug)]
struct Count {
    version: u32,
    ticks: i64,
}

impl Component for Count {
    fn type_name(&self) -> &str {
        "Count"
    }
    fn provided(&self) -> &Interface {
        static OPS: [Signature; 1] = [Signature::one_way("tick")];
        static IFACE: Interface = Interface::fixed("Count", &OPS);
        &IFACE
    }
    fn on_message(&mut self, _ctx: &mut CallCtx, _msg: Message) -> Result<(), ComponentError> {
        self.ticks += 1;
        Ok(())
    }
    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Count", self.version).with_field("ticks", Value::Int(self.ticks))
    }
    fn restore(&mut self, snapshot: &StateSnapshot) -> Result<(), StateError> {
        if self.version >= 2 {
            return Err(StateError::SchemaMismatch("v2 cannot decode v1".into()));
        }
        self.ticks = snapshot
            .state
            .get("ticks")
            .and_then(Value::as_int)
            .unwrap_or(0);
        Ok(())
    }
}

fn registry() -> ImplementationRegistry {
    let mut registry = ImplementationRegistry::new();
    registry.register("Fwd", 1, |props| {
        let cost = props.get("cost").and_then(Value::as_float).unwrap_or(4.0);
        Box::new(Fwd { cost, seen: 0 })
    });
    for version in [1, 2] {
        registry.register("Count", version, move |_| {
            Box::new(Count { version, ticks: 0 })
        });
    }
    registry
}

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

/// `src@0 → [wire, retrying] → mid@1 → [tail, retrying] → end@2` on
/// `topology`, with a tick scheduled into `src` every 2 ms for 1.6 s and
/// one straight into `mid` every 7 ms — all parked before anything runs.
/// Returns the runtime and the instants the injections are due.
fn pipeline(topology: Topology) -> (Runtime, Vec<SimTime>) {
    let mut rt = Runtime::new(topology, 1707, registry());
    let mut cfg = Configuration::new();
    cfg.component("src", ComponentDecl::new("Fwd", 1, NodeId(0)));
    cfg.component("mid", ComponentDecl::new("Fwd", 1, NodeId(1)));
    cfg.component("end", ComponentDecl::new("Count", 1, NodeId(2)));
    cfg.connector(
        ConnectorSpec::direct("wire").with_retry(RetryPolicy::new(4, SimDuration::from_millis(10))),
    );
    cfg.connector(
        ConnectorSpec::direct("tail").with_retry(RetryPolicy::new(3, SimDuration::from_millis(5))),
    );
    cfg.bind(BindingDecl::new("src", "out", "wire", "mid", "in"));
    cfg.bind(BindingDecl::new("mid", "out", "tail", "end", "in"));
    rt.deploy(&cfg).expect("deploy");
    let mut due = Vec::new();
    for i in 0..800u64 {
        due.push(ms(2 * i));
        rt.inject_after(
            SimDuration::from_millis(2 * i),
            "src",
            Message::event("tick", Value::Null),
        )
        .expect("src exists");
    }
    for i in 0..200u64 {
        due.push(ms(7 * i + 1));
        rt.inject_after(
            SimDuration::from_millis(7 * i + 1),
            "mid",
            Message::event("tick", Value::Null),
        )
        .expect("mid exists");
    }
    (rt, due)
}

fn clique() -> Topology {
    Topology::clique(5, 2000.0, SimDuration::from_millis(2), 1e7)
}

/// Replaces `mid` by a fresh `Fwd` named `mid2` on node 4, rewiring both
/// bindings to it. Committing it closes `mid`'s channels while they are
/// blocked.
fn replace_mid() -> ReconfigPlan {
    let mut plan = ReconfigPlan::new();
    for action in [
        ReconfigAction::Unbind {
            from: ("src".into(), "out".into()),
        },
        ReconfigAction::Unbind {
            from: ("mid".into(), "out".into()),
        },
        ReconfigAction::RemoveComponent { name: "mid".into() },
        ReconfigAction::AddComponent {
            name: "mid2".into(),
            decl: ComponentDecl::new("Fwd", 1, NodeId(4)),
        },
        ReconfigAction::Bind(BindingDecl::new("src", "out", "wire", "mid2", "in")),
        ReconfigAction::Bind(BindingDecl::new("mid2", "out", "tail", "end", "in")),
    ] {
        plan.push(action);
    }
    plan
}

/// What the kernel and the instances say is under way, from their own
/// counters. A refused send is `dropped` in the kernel without ever
/// having been `sent`, so only the drops that surfaced at delivery time —
/// counted here from the registry's `runtime.dropped.<cause>` series,
/// named after the kernel's reason — come off what was sent.
#[derive(Default)]
struct Books {
    dropped_at_delivery: u64,
    closed_channel_drops: u64,
    /// Drops of messages whose target's name bore no instance: in this
    /// run, `mid`'s once nothing bore the name any more.
    no_mid: u64,
}

impl Books {
    fn check(&mut self, rt: &mut Runtime, due: &[SimTime]) -> InFlight {
        let counters = rt.obs().metrics.snapshot().counters;
        let dropped = |cause: &str| {
            let series = format!("runtime.dropped.{cause}");
            counters.get(&series).copied().unwrap_or(0)
        };
        self.closed_channel_drops = dropped("channel_closed");
        self.dropped_at_delivery = dropped("destination_down") + self.closed_channel_drops;
        self.no_mid = dropped("unaddressed");
        let now = rt.now();
        let k = rt.kernel_counters();
        let f = rt.in_flight();
        assert_eq!(
            f.in_transit_or_held,
            k.get("sent") - k.get("delivered") - self.dropped_at_delivery,
            "in transit or held at {now}"
        );
        let in_service: u64 = rt
            .observe()
            .components
            .iter()
            .map(|c| u64::from(c.inflight))
            .sum();
        assert_eq!(f.in_service, in_service, "in service at {now}");
        let not_due = due.iter().filter(|at| **at > now).count() as u64;
        assert!(
            f.parked >= not_due,
            "{} parked at {now}, {not_due} injections not due",
            f.parked
        );
        f
    }
}

#[test]
fn in_flight_agrees_with_the_kernel_and_the_instances_at_every_step() {
    let (mut rt, due) = pipeline(clique());
    let mut faults = FaultSchedule::new();
    // `mid` lives on node 3 from the migration on.
    faults.node_outage(NodeId(3), ms(600), ms(700));
    // The direct links 0–3 and 2–3: traffic reroutes over two hops.
    faults.link_outage(LinkId(2), ms(800), ms(860));
    faults.link_outage(LinkId(8), ms(830), ms(900));
    faults.node_outage(NodeId(2), ms(1300), ms(1340));
    rt.inject_faults(faults);

    let mut books = Books::default();
    let start = books.check(&mut rt, &due);
    assert_eq!(
        start,
        InFlight {
            in_transit_or_held: 0,
            in_service: 0,
            parked: 1000
        }
    );
    let mut peak = InFlight::default();
    for step in 1..=400u64 {
        match step * 10 {
            200 => {
                rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
                    name: "mid".into(),
                    to: NodeId(3),
                }));
            }
            400 => {
                let mut plan = replace_mid();
                plan.push(ReconfigAction::SwapImplementation {
                    name: "end".into(),
                    type_name: "Count".into(),
                    version: 2,
                    transfer: StateTransfer::Snapshot,
                });
                rt.request_reconfig(plan);
            }
            1000 => {
                rt.request_reconfig(replace_mid());
            }
            _ => {}
        }
        rt.run_until(ms(step * 10));
        let f = books.check(&mut rt, &due);
        peak.in_transit_or_held = peak.in_transit_or_held.max(f.in_transit_or_held);
        peak.in_service = peak.in_service.max(f.in_service);
    }

    // Every exit was taken.
    let reports = rt.reports();
    let outcomes: Vec<bool> = reports.iter().map(|r| r.success).collect();
    assert_eq!(outcomes, [true, false, true], "{reports:?}");
    assert_eq!(rt.node_of("mid2"), Some(NodeId(4)));
    let (m, k) = (rt.metrics(), rt.kernel_counters());
    assert!(m.retries > 0 && m.dropped_on_crash > 0, "{m:?}");
    assert!(
        k.get("dropped") > books.dropped_at_delivery,
        "no refused send"
    );
    assert!(k.get("held") > 0, "nothing was ever held");
    assert_eq!(k.get("held"), k.get("released"));
    assert!(
        books.closed_channel_drops > 0,
        "no blocked channel was closed with a message held"
    );
    assert!(
        peak.in_transit_or_held > 0 && peak.in_service > 0,
        "{peak:?}"
    );

    // The ticks scheduled straight into `mid` that fell due after the
    // last plan removed it left the books as drops, not without trace.
    let removed_at = reports[2].finished_at;
    let due_later = (0..200).filter(|i| ms(7 * i + 1) > removed_at).count();
    assert_eq!(books.no_mid, due_later as u64, "removed at {removed_at}");

    // Drained: nothing is anywhere.
    assert_eq!(rt.in_flight(), InFlight::default());
    assert_eq!(
        k.get("sent"),
        k.get("delivered") + books.dropped_at_delivery
    );
}

#[test]
fn heartbeats_take_no_slot() {
    let grid = TieredSpec::sized(1000).generate(17);
    let watched = grid.topology.node_count() as u64 - 1;
    let run = |detector: bool| {
        let (mut rt, _) = pipeline(grid.topology.clone());
        if detector {
            rt.enable_failure_detector(DetectorConfig::new(
                SimDuration::from_millis(100),
                3.0,
                NodeId(0),
            ));
        }
        let in_flight: Vec<InFlight> = (1..=60u64)
            .map(|step| {
                rt.run_until(ms(step * 10));
                rt.in_flight()
            })
            .collect();
        (in_flight, rt.kernel_counters().get("sent"))
    };
    let (quiet, quiet_sent) = run(false);
    let (watching, watching_sent) = run(true);
    assert!(watched > 900, "a grid of about a thousand nodes");
    assert_eq!(
        watching_sent - quiet_sent,
        6 * watched,
        "six detector ticks"
    );
    assert!(quiet.iter().any(|f| f.in_transit_or_held > 0));
    assert_eq!(quiet, watching);
}

/// `busy` on node 1 takes 10 ms a tick and is offered one every 2 ms, so
/// its host's queue is dozens of jobs deep when the host crashes at
/// 200 ms: their timers stay in the kernel for up to a second. Meanwhile
/// `src → end` on other nodes keeps sending, so every slot that comes
/// free is wanted again at once.
fn crash_under_load() -> Runtime {
    let mut rt = Runtime::new(clique(), 1707, registry());
    let mut cfg = Configuration::new();
    let mut busy = ComponentDecl::new("Fwd", 1, NodeId(1));
    busy.props.insert("cost".into(), Value::Float(20.0));
    cfg.component("busy", busy);
    cfg.component("busy_end", ComponentDecl::new("Count", 1, NodeId(3)));
    let mut src = ComponentDecl::new("Fwd", 1, NodeId(0));
    src.props.insert("cost".into(), Value::Float(0.5));
    cfg.component("src", src);
    cfg.component("end", ComponentDecl::new("Count", 1, NodeId(2)));
    cfg.connector(ConnectorSpec::direct("wire"));
    cfg.bind(BindingDecl::new("busy", "out", "wire", "busy_end", "in"));
    cfg.bind(BindingDecl::new("src", "out", "wire", "end", "in"));
    rt.deploy(&cfg).expect("deploy");
    let mut faults = FaultSchedule::new();
    faults.node_outage(NodeId(1), ms(200), ms(1500));
    rt.inject_faults(faults);
    rt
}

#[test]
fn a_cancelled_jobs_timer_completes_no_other_message() {
    let mut rt = crash_under_load();
    let tick = || Message::event("tick", Value::Null);
    for step in 0..1200u64 {
        // Injected as time passes rather than parked up front, so that
        // the slots the crash frees are the ones the next sends take.
        if step % 2 == 0 && step < 400 {
            rt.inject("busy", tick()).expect("busy exists");
        }
        rt.inject("src", tick()).expect("src exists");
        rt.run_until(ms(step + 1));
    }
    rt.run_until(ms(3000));

    let seen: Vec<String> = rt
        .observe()
        .components
        .iter()
        .map(|c| {
            format!(
                "{}: processed={} inflight={} anomalies={}",
                c.name, c.processed, c.inflight, c.seq_anomalies
            )
        })
        .collect();
    let m = rt.metrics();
    // Recorded on the parent commit (97b83c3), where a job's timer owned
    // its envelope and there was no slot to reuse.
    assert_eq!(
        seen,
        [
            "busy: processed=19 inflight=0 anomalies=0",
            "busy_end: processed=19 inflight=0 anomalies=0",
            "end: processed=1200 inflight=0 anomalies=0",
            "src: processed=1200 inflight=0 anomalies=0",
        ]
    );
    assert_eq!(
        (m.delivered, m.dropped, m.dropped_on_crash, m.handler_errors),
        (2519, 181, 81, 0),
        "81 jobs lost with node 1, 100 sends into it refused while it was down"
    );
    assert_eq!(rt.in_flight(), InFlight::default());
}

/// What a run leaves for an operator: its metrics, counters, messages in
/// flight and audit log.
fn outcome(rt: &Runtime) -> (String, String, InFlight, String) {
    (
        format!("{:?}", rt.metrics()),
        format!("{:?}", rt.kernel_counters()),
        rt.in_flight(),
        audit_jsonl(rt.obs().audit.entries()),
    )
}

#[test]
fn a_fork_run_forward_and_dropped_leaves_the_mainline_as_unforked() {
    let scenario = || pipeline(clique()).0;
    let mut control = scenario();
    let mut rt = scenario();
    rt.run_until(ms(305));
    control.run_until(ms(305));
    let at_fork = rt.in_flight();
    assert!(
        at_fork.in_transit_or_held > 0 && at_fork.in_service > 0 && at_fork.parked > 0,
        "fork with messages at every stage: {at_fork:?}"
    );

    let mut fork = rt.fork_twin().expect("no transaction is active");
    assert_eq!(fork.in_flight(), at_fork);
    // The two sides part ways: the fork loses `mid`'s host and gets
    // traffic of its own, the mainline carries on.
    let mut crash = FaultSchedule::new();
    crash.node_outage(NodeId(1), ms(320), ms(500));
    fork.inject_faults(crash);
    fork.run_until(ms(400));
    rt.run_until(ms(450));
    for _ in 0..50 {
        fork.inject("src", Message::event("tick", Value::Null))
            .expect("src exists");
    }
    fork.run_until(ms(4000));
    assert_eq!(fork.in_flight(), InFlight::default());
    assert!(fork.metrics().dropped_on_crash > 0);
    assert_ne!(fork.metrics().delivered, rt.metrics().delivered);
    drop(fork);

    control.run_until(ms(450));
    assert_eq!(outcome(&rt), outcome(&control));
    rt.run_until(ms(4000));
    control.run_until(ms(4000));
    assert_eq!(outcome(&rt), outcome(&control));
    assert_eq!(rt.in_flight(), InFlight::default());
    assert_eq!(rt.state_fingerprint(), control.state_fingerprint());
}
