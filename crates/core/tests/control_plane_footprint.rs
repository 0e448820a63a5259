//! What the control plane's reads and forks may cost in memory, counted
//! with the thread-enrolled allocator of `dispatch_allocs.rs`, in the
//! profile the benchmark builds with.
//!
//! A histogram weighs the octaves it has seen, so `observe()` reads the
//! system without copying it and a twin fork's throwaway telemetry bundle
//! is a fraction of the mainline's. Names are shared, not copied: a
//! snapshot allocates its four lists whatever the system's size, the
//! instances of one type share the registry's copy of its name, and
//! asking the registry builds no key. Audit records are typed where they
//! are appended and stored as bytes, so a warm append copies no text and
//! a record holds what it encodes to; the invariant checker reads a
//! running tally, so a clean check allocates nothing. A one-action plan
//! holds one slot, and a warm one allocates what its report and audit
//! records keep, a transfer's state snapshot and a swap's replacement. The negotiator keeps its model, requests, scratch and
//! outcome across rounds, so a warm round allocates nothing beyond the
//! audit chunks its records open. The meta tick reads the runtime in
//! place, so a warm detector tick without suspicions and a warm RAML tick
//! whose rules do not fire allocate nothing.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/media_pipelines.rs"]
mod media_pipelines;

use counting_alloc::{enroll, measured, measured_heap, unenroll, HeapDelta, GATE};

use aas_core::component::{CallCtx, Component, StateSnapshot};
use aas_core::connector::{ConnectorAspect, ConnectorSpec};
use aas_core::detector::DetectorConfig;
use aas_core::error::{ComponentError, StateError};
use aas_core::interface::Interface;
use aas_core::message::{Message, Name};
use aas_core::raml::{Cmp, Constraint, Intercession, Metric, Raml, Rule, RuleMonitor, TemporalOp};
use aas_core::reconfig::{ReconfigAction, ReconfigPlan, StateTransfer};
use aas_core::registry::{ImplementationRegistry, Props};
use aas_core::runtime::{NegotiateConfig, Runtime};
use aas_obs::{AuditEvent, AuditLog, Histogram, MetricsRegistry};
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;
use aas_telecom::services::register_telecom_components;

/// Runs `f` with this thread enrolled in the counting allocator, one
/// test at a time.
fn enrolled<R>(f: impl FnOnce() -> R) -> R {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();
    let r = f();
    unenroll();
    r
}

fn heap_of<R>(f: impl FnOnce() -> R) -> (R, HeapDelta) {
    enrolled(|| measured_heap(f))
}

fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    enrolled(|| measured(f))
}

/// `dispatch_allocs.rs`'s pipelines, two virtual seconds in: every
/// latency histogram and every custom metric has been written.
fn warm(pipelines: u64) -> Runtime {
    let mut rt = media_pipelines::deploy(pipelines);
    rt.run_for(SimDuration::from_millis(2_020));
    rt
}

/// A component of no size, so building one allocates nothing.
struct Nothing;

impl Component for Nothing {
    fn type_name(&self) -> &str {
        "Nothing"
    }

    fn provided(&self) -> &Interface {
        static IFACE: Interface = Interface::fixed("Nothing", &[]);
        &IFACE
    }

    fn on_message(&mut self, _: &mut CallCtx, msg: Message) -> Result<(), ComponentError> {
        Err(ComponentError::UnsupportedOperation(msg.op))
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot::new("Nothing", 1)
    }

    fn restore(&mut self, _: &StateSnapshot) -> Result<(), StateError> {
        Ok(())
    }
}

#[test]
fn an_empty_histogram_allocates_nothing() {
    let (h, heap) = heap_of(|| {
        let mut h = Histogram::new();
        h.merge(&Histogram::new());
        h.observe(f64::NAN);
        let _ = (h.quantile(0.5), h.fraction_below(1.0));
        h.clone()
    });
    assert_eq!(h.count(), 0);
    assert_eq!(heap.allocated, 0, "{heap:?}");
}

/// A registered handle that has seen two octaves keeps its shared
/// histogram and the histogram's two-octave run of counts; the registry
/// it came from is gone. Dense, its 71 x 16 cells were 9,088 B;
/// lock-free, its 71 inline octave slots and two 128 B blocks were at
/// most 1,536 B.
#[test]
fn a_registered_histogram_weighs_the_octaves_it_has_seen() {
    let (h, heap) = heap_of(|| {
        let h = MetricsRegistry::new().histogram("lat");
        for i in 0..1_000 {
            // [2, 8): two octaves.
            h.observe(2.0 + f64::from(i) * 0.006);
        }
        h
    });
    assert_eq!(h.snapshot().count(), 1_000);
    assert!(heap.grown <= 344, "{heap:?}");
}

/// What `observe()` asks the allocator for and does not return is the
/// slack of the vectors it collects into (42,792 B here, its 192-entry
/// component list alone is 24 KiB) — not a copy of anything it reads. At
/// `e2b94c6` the same call asked for 3,625,464 B to return 92,952 B: the
/// 1,136 buckets of every latency and custom histogram, copied for one
/// mean or p99 each.
#[test]
fn observe_reads_the_histograms_in_place() {
    let rt = warm(64);
    let (snap, heap) = heap_of(|| rt.observe());
    assert_eq!(snap.components.len(), 192);
    assert!(snap.components.iter().all(|c| c.p99_latency_ms > 0.0));
    let transient = heap.allocated as i64 - heap.grown;
    assert!(
        transient < 64 * 1024,
        "observe() asked for {transient} B it did not return: {heap:?}"
    );
}

/// One list each for components, nodes, connectors and custom means, and
/// nothing per entry: 8 pipelines cost what 64 do. At `162295c` the same
/// call made 143 allocations on 8 pipelines and 1,051 on 64.
#[test]
fn observe_allocates_its_four_lists_whatever_the_size() {
    let count = |pipelines| {
        let rt = warm(pipelines);
        let (snap, allocs) = allocs_of(|| rt.observe());
        assert_eq!(snap.components.len() as u64, 3 * pipelines);
        assert!(!snap.custom.is_empty() && !snap.connectors.is_empty());
        allocs
    };
    let (small, large) = (count(8), count(64));
    assert_eq!(small, large, "allocations on 8 and on 64 pipelines");
    assert!(large <= 4, "observe() made {large} allocations");
}

/// Every instance of a type holds the registry's one copy of its name.
#[test]
fn instances_of_one_type_share_its_name() {
    let snap = media_pipelines::deploy(2).observe();
    let type_name = |name| {
        snap.component(name)
            .expect("deployed")
            .type_name
            .as_str()
            .as_ptr()
    };
    assert_eq!(type_name("tc0"), type_name("tc1"));
    assert_eq!(type_name("sink0"), type_name("sink1"));
}

/// Asking the registry builds no key: `contains` allocates nothing, and
/// neither does instantiating a component of no size.
#[test]
fn the_registry_answers_without_allocating() {
    let mut registry = ImplementationRegistry::new();
    register_telecom_components(&mut registry);
    registry.register("Nothing", 1, |_| Box::new(Nothing));
    let props = Props::new();
    let (answers, allocs) = allocs_of(|| {
        (
            registry.contains("Transcoder", 1),
            registry.contains("Transcoder", 9),
            registry.instantiate("Nothing", 1, &props).is_ok(),
        )
    });
    assert_eq!(answers, (true, false, true));
    assert_eq!(allocs, 0);
}

/// A fork's throwaway telemetry bundle registers the runtime's own series
/// and nothing per instance or per node: each instance's histograms are
/// empty handles no registry names, and neither it nor its kernel keeps a
/// second record beside the audit log. Binding declarations, props and
/// the topology's node specs and adjacency are shared, not copied. Each
/// component is restored from a snapshot map the fork drops again, and
/// the 192 snapshot maps share one buffer, which the thread keeps idle
/// after the fork.
#[test]
fn a_fork_grows_the_heap_by_no_more_than_its_pinned_figure() {
    /// Live-heap growth of this very fork: 4,110,168 B at `e2b94c6`,
    /// 992,328 B at `7646886`, whose fork reserved 1,024 tracer records
    /// (80 KiB) it never wrote, 910,408 B at `162295c`, where each
    /// instance copied its type name and the registry's clone its keys,
    /// and 908,058 B at `d8165e4`, whose snapshot maps, built outside any
    /// call, went to the allocator. No frame is under way at the fork, so
    /// the fork keeps no payload map. 908,362 B at `8a48a87`, whose fork
    /// registered each instance's histograms by name and copied the
    /// declarations and the topology's names and adjacency. 789,004 B at
    /// `3b093a8`, whose ~200 per-instance histograms were lock-free and
    /// weighed 1,192 B each when empty. 365,772 B at `73f8f82`, whose
    /// fork's telemetry bundle held an empty string tracer.
    const PINNED: i64 = 365_684;
    /// What the fork asks the allocator for, kept or not: 1,155,246 B at
    /// `0cf57a8`, where each of the 192 snapshot maps was a 632 B B-tree
    /// leaf (a buffer of four entries is 224 B), 1,076,910 B at `162295c`,
    /// 1,072,640 B at `d8165e4`, where each snapshot map took a buffer of
    /// its own, 1,029,936 B at `8a48a87`, 856,528 B at `3b093a8`,
    /// 433,296 B at `73f8f82`, where the fork's bundle and its kernel
    /// each built a tracer.
    const ASKED: u64 = 433_120;
    /// Allocations the fork makes: 4,443 at `8a48a87`, 2,186 at `3b093a8`
    /// (a histogram is one allocation in either form) and at `73f8f82`,
    /// whose two tracers were one allocation each. A metric name
    /// registered per instance, or a declaration copied per binding,
    /// shows here first.
    const ALLOCS: u64 = 2_184;
    let rt = warm(64);
    let ((fork, heap), allocs) = enrolled(|| measured(|| measured_heap(|| rt.fork_twin())));
    assert!(fork.is_some());
    assert!(heap.grown <= PINNED, "{heap:?}");
    assert!(heap.allocated <= ASKED, "{heap:?}");
    assert!(allocs <= ALLOCS, "{allocs}");
}

/// Once the current chunk and the books have room, appending a channel
/// block, a plan submission or a grant allocates nothing: a record is
/// encoded into the chunk, its names and numbers as bytes.
#[test]
fn a_warm_append_allocates_nothing_while_the_current_chunk_has_room() {
    let log = AuditLog::new();
    let (target, agent) = (Name::from("tc0".to_owned()), Name::from("gold".to_owned()));
    // 34 records: the first 33 fill the 256 B first chunk, the 34th opens
    // a 1 KiB one; the books have held a plan.
    log.append(
        0,
        AuditEvent::PlanSubmitted {
            plan: 1,
            actions: 1,
        },
    );
    for channel in 1..32 {
        let target = target.clone();
        log.append(
            channel,
            AuditEvent::ChannelBlocked {
                plan: 1,
                channel,
                target,
            },
        );
    }
    log.append(
        32,
        AuditEvent::PlanFinished {
            plan: 1,
            committed: true,
        },
    );
    log.append(33, AuditEvent::FailureCleared { node: 1 });
    let ((), allocs) = allocs_of(|| {
        let target = target.clone();
        log.append(
            33,
            AuditEvent::ChannelBlocked {
                plan: 2,
                channel: 0,
                target,
            },
        );
        log.append(
            33,
            AuditEvent::PlanSubmitted {
                plan: 2,
                actions: 1,
            },
        );
        let (granted, fraction) = ([1.0; 4], 1.0);
        log.append(
            33,
            AuditEvent::BudgetGranted {
                epoch: 1,
                agent,
                granted,
                fraction,
            },
        );
    });
    assert_eq!(allocs, 0);
}

/// The checker reads the audit log's books and the runtime's own
/// counters, never the log: on a clean warm runtime it allocates nothing,
/// with a plan in flight and after it.
#[test]
fn checking_a_clean_warm_runtime_allocates_nothing() {
    let mut rt = warm(8);
    let to = NodeId(2);
    let migrate = ReconfigAction::Migrate {
        name: "tc0".into(),
        to,
    };
    rt.request_reconfig(ReconfigPlan::single(migrate));
    assert!(rt.reconfig_in_progress());
    let (found, allocs) = allocs_of(|| rt.check_invariants());
    assert_eq!((found, allocs), (Vec::new(), 0));
    rt.run_for(SimDuration::from_millis(500));
    assert_eq!(rt.reports().len(), 1);
    let (found, allocs) = allocs_of(|| rt.check_invariants());
    assert_eq!((found, allocs), (Vec::new(), 0));
}

/// [`warm`]'s 8 pipelines with the negotiator arbitrating their 24
/// agents every 100 ms: 20 rounds in, every agent has its grant and its
/// gauge.
fn warm_negotiated() -> Runtime {
    let mut rt = media_pipelines::deploy(8);
    rt.enable_negotiation(NegotiateConfig::default());
    rt.run_for(SimDuration::from_millis(2_020));
    rt
}

/// What an audit log holds on the heap: what a copy of its records,
/// appended in the same order, grows the heap by.
fn held_by(log: &AuditLog) -> i64 {
    let (_copy, heap) = heap_of(|| {
        let copy = AuditLog::new();
        for e in log.entries() {
            copy.append(e.at_us, e.event);
        }
        copy
    });
    heap.grown
}

/// Past its audit records, a negotiated runtime keeps nothing per round:
/// the last outcome replaces the one before it. Two runs from the same
/// warm state, 30 and 60 rounds long, each grow the heap by what their
/// audit log took on and what the rest of the runtime kept; what the
/// longer run kept beyond its records and beyond the shorter run is what
/// the extra 30 rounds left behind. At `f970229`, which kept every
/// round's outcome, that was 77,312 B: about 107 B a grant.
#[test]
fn a_negotiated_runtime_keeps_nothing_per_round_beyond_its_audit_records() {
    let run = |rounds: u64| {
        let mut rt = warm_negotiated();
        let ((), heap) = heap_of(|| rt.run_for(SimDuration::from_millis(100 * rounds)));
        heap.grown - held_by(&rt.obs().audit)
    };
    let kept = run(60) - run(30);
    assert!(kept <= 1_024, "30 more rounds kept {kept} B");
}

/// `rounds` negotiation periods of `rt`, counted twice: what the runtime
/// allocates over them, and what appending the records they audited to a
/// copy of the log as it stood before allocates — the chunks those
/// records open.
fn negotiated_window(rt: &mut Runtime, rounds: u64) -> (u64, u64) {
    let before = rt.obs().audit.len();
    let copy = AuditLog::new();
    for e in rt.obs().audit.entries() {
        copy.append(e.at_us, e.event);
    }
    let ((), allocs) = allocs_of(|| rt.run_for(SimDuration::from_millis(100 * rounds)));
    let audited: Vec<_> = rt.obs().audit.entries().iter().skip(before).collect();
    assert!(audited.len() as u64 >= 24 * rounds, "every agent granted");
    let ((), chunks) = allocs_of(|| {
        for e in audited {
            copy.append(e.at_us, e.event);
        }
    });
    (allocs, chunks)
}

/// A warm negotiation round allocates nothing: the situational model, the
/// requests, the negotiator's scratch and the outcome are kept and
/// refreshed in place, and every name in them is shared. A window of 60
/// rounds allocates, beyond the audit chunks it opens, exactly what one
/// of 30 does: the buffers a `run_until` call draws once (52 here). At
/// `29e03e4`, which rebuilt all of them every round, the 30 further
/// rounds made 140 allocations each.
#[test]
fn a_warm_negotiation_round_allocates_nothing_beyond_its_audit_chunks() {
    let mut rt = warm_negotiated();
    let (short, short_chunks) = negotiated_window(&mut rt, 30);
    let (long, long_chunks) = negotiated_window(&mut rt, 60);
    let per_round = ((long - long_chunks) as f64 - (short - short_chunks) as f64) / 30.0;
    assert_eq!(
        long - long_chunks,
        short - short_chunks,
        "{per_round:.1} allocations a round beyond the audit chunks \
         ({long} with {long_chunks} for chunks over 60 rounds, \
         {short} with {short_chunks} over 30)"
    );
}

/// 20,000 records of churn — validated, applied and committed plans with
/// their channels, rejected ones, suspicions and denials.
fn churn_log() -> AuditLog {
    let log = AuditLog::new();
    let (target, agent) = (Name::from("tc0".to_owned()), Name::from("gold".to_owned()));
    for plan in 1..=2_500 {
        let at = plan * 1_000;
        log.append(at, AuditEvent::PlanSubmitted { plan, actions: 1 });
        if plan % 5 == 0 {
            let reason = format!("unknown component `ghost{plan}`");
            log.append(at, AuditEvent::PlanRejected { plan, reason });
            log.append(
                at,
                AuditEvent::PlanFinished {
                    plan,
                    committed: false,
                },
            );
            for epoch in plan..plan + 5 {
                let (agent, reason) = (agent.clone(), "floor-unsatisfiable");
                log.append(
                    at,
                    AuditEvent::BudgetDenied {
                        epoch,
                        agent,
                        reason,
                    },
                );
            }
            continue;
        }
        let (channel, action) = (plan, format!("migrate tc{plan} -> node1"));
        log.append(at, AuditEvent::PlanValidated { plan, actions: 1 });
        let blocked = target.clone();
        log.append(
            at,
            AuditEvent::ChannelBlocked {
                plan,
                channel,
                target: blocked,
            },
        );
        log.append(at, AuditEvent::ActionApplied { plan, action });
        let released = Some(target.clone());
        log.append(
            at,
            AuditEvent::ChannelReleased {
                plan,
                channel,
                target: released,
            },
        );
        log.append(
            at,
            AuditEvent::PlanFinished {
                plan,
                committed: true,
            },
        );
        log.append(at, AuditEvent::FailureSuspected { node: 2, phi: 3.5 });
        log.append(at, AuditEvent::FailureCleared { node: 2 });
    }
    assert_eq!(log.len(), 20_000);
    log
}

/// Reading the whole log, as a harness does to count kinds, renders one
/// record at a time under the log's lock: over [`churn_log`]'s 20,000
/// records the heap rises by the count map and one entry. At `6ee0708`,
/// `entries()` first copied every record into a vector of 112 B entries:
/// 2,240,000 B for these.
#[test]
fn counting_kinds_over_the_whole_log_reads_it_in_place() {
    let log = churn_log();
    let (kinds, heap) = heap_of(|| {
        let mut kinds = std::collections::BTreeMap::new();
        for e in log.entries() {
            *kinds.entry(e.kind.label()).or_insert(0) += 1;
        }
        kinds
    });
    assert_eq!(kinds.values().sum::<u64>(), 20_000);
    assert_eq!(
        (kinds["plan_finished"], kinds["budget_denied"]),
        (2_500, 2_500)
    );
    assert!(
        heap.peak < 1_024,
        "counting kinds rose the heap by {heap:?}"
    );
}

/// A record is stored as its encoded bytes, in chunks that never move:
/// [`churn_log`]'s 20,000 records hold 17.5 B of heap each, the last
/// chunk's slack and the log's books included. At `1f08808` each was an 80 B record in
/// a 32,768-slot vector, and an applied action or a rejection also kept
/// its `String`: about 134 B a record.
#[test]
fn twenty_thousand_records_hold_at_most_24_bytes_each() {
    let (log, heap) = heap_of(churn_log);
    let per_record = heap.grown as f64 / log.len() as f64;
    assert!(per_record <= 24.0, "{per_record:.1} B a record: {heap:?}");
}

/// A one-action plan is one slot: `ReconfigPlan::single` makes one
/// allocation, of one `ReconfigAction`. At `1f08808` it pushed onto an
/// empty vector, which reserved four.
#[test]
fn a_one_action_plan_allocates_one_slot() {
    let migrate = ReconfigAction::Migrate {
        name: "tc0".into(),
        to: NodeId(2),
    };
    let ((plan, heap), allocs) =
        enrolled(|| measured(|| measured_heap(|| ReconfigPlan::single(migrate))));
    assert_eq!(plan.len(), 1);
    let slot = std::mem::size_of::<ReconfigAction>() as u64;
    assert_eq!((allocs, heap.allocated), (1, slot), "{heap:?}");
}

/// The four plans `reconfig_churn` submits, one of each kind: a
/// migration, a snapshot swap, a connector swap, and a migration of a
/// component nobody bears, which validation refuses.
fn churn_plans() -> [ReconfigPlan; 4] {
    let mut spec = ConnectorSpec::direct("b").with_aspect(ConnectorAspect::SequenceCheck);
    spec = spec.with_aspect(ConnectorAspect::Metering);
    [
        ReconfigAction::Migrate {
            name: "tc0".into(),
            to: NodeId(2),
        },
        ReconfigAction::SwapImplementation {
            name: "tc1".into(),
            type_name: "Transcoder".into(),
            version: 1,
            transfer: StateTransfer::Snapshot,
        },
        ReconfigAction::SwapConnector {
            name: "b".into(),
            spec,
        },
        ReconfigAction::Migrate {
            name: "ghost0".into(),
            to: NodeId(0),
        },
    ]
    .map(ReconfigPlan::single)
}

/// What one plan of `rt` allocates from its submission to its end a
/// virtual second later, beyond what an idle second allocates; and what
/// its report and its audit records keep: the allocations a copy of the
/// report makes, and those appending its records to a copy of the log
/// makes — the chunks they open.
fn plan_footprint(rt: &mut Runtime, plan: ReconfigPlan) -> (u64, u64) {
    let second = SimDuration::from_secs(1);
    let ((), idle) = allocs_of(|| rt.run_for(second));
    let before = rt.obs().audit.len();
    let copy = AuditLog::new();
    for e in rt.obs().audit.entries() {
        copy.append(e.at_us, e.event);
    }
    let ((), allocs) = allocs_of(|| {
        rt.request_reconfig(plan);
        rt.run_for(second);
    });
    let report = rt.reports().last().expect("the plan ended");
    let (_, report_keeps) = allocs_of(|| report.clone());
    let audited: Vec<_> = rt.obs().audit.entries().iter().skip(before).collect();
    let ((), chunks) = allocs_of(|| {
        for e in audited {
            copy.append(e.at_us, e.event);
        }
    });
    (allocs - idle, report_keeps + chunks)
}

/// A warm plan allocates what its report and its audit records keep, and
/// beyond that only what its kind cannot do without: a transfer's state
/// snapshot — its type name, its field map and the map's place in the
/// thread's idle pool, 3 — and a swap's replacement, instantiated once to
/// check its interface and once to be installed. The interfaces it
/// compares are read in place, its action is rendered into a buffer the
/// engine keeps, the journal, the blocked targets, their channels and the
/// scans' scratch are the engine's, a refusal is rendered once into the
/// text its report keeps, and a connector swap moves its spec into the
/// new connector. On an idle runtime whose engine has already run each
/// kind, so the reports' vector has room. At `63e5a2c` the migration made
/// 16 allocations, the snapshot swap 40 (24 of them the interfaces its
/// check built, twice), the connector swap 8 and the refusal 7.
#[test]
fn a_warm_plan_allocates_only_what_its_report_and_audit_keep() {
    let mut rt = media_pipelines::deploy_idle(8);
    for _ in 0..3 {
        for plan in churn_plans() {
            rt.request_reconfig(plan);
            rt.run_for(SimDuration::from_secs(1));
        }
    }
    let [migrate, swap, swap_connector, refused] =
        churn_plans().map(|plan| plan_footprint(&mut rt, plan));
    // The report's blackout list, and the list of what migrated with the
    // name in it; then the snapshot.
    assert_eq!(migrate, (3 + 3, 3), "migration: (allocations, kept)");
    // The blackout list; two replacements and the snapshot.
    assert_eq!(swap, (1 + 2 + 3, 1), "snapshot swap: (allocations, kept)");
    assert_eq!(
        swap_connector,
        (0, 0),
        "connector swap: (allocations, kept)"
    );
    // The refusal text; the error's copy of the unknown name.
    assert_eq!(refused, (1 + 1, 1), "refused plan: (allocations, kept)");
}

/// `dispatch_allocs.rs`'s pipelines with no source started, the meta tick
/// armed by `enable` and two virtual seconds run: what is left to run is
/// the meta tick and the heartbeats it sends.
fn warm_idle(enable: impl FnOnce(&mut Runtime)) -> Runtime {
    let mut rt = media_pipelines::deploy_idle(8);
    enable(&mut rt);
    rt.run_for(SimDuration::from_millis(2_000));
    rt
}

/// A warm detector tick that neither suspects nor clears anyone sends
/// its heartbeats, evaluates and books its quiet tick without allocating:
/// ten ticks and their heartbeats allocate nothing.
#[test]
fn a_warm_detector_tick_without_detector_events_allocates_nothing() {
    let mut rt = warm_idle(|rt| {
        let config = DetectorConfig::new(SimDuration::from_millis(100), 3.0, NodeId(0));
        rt.enable_failure_detector(config);
    });
    let suspected = rt.obs().audit.len();
    let ((), allocs) = allocs_of(|| rt.run_for(SimDuration::from_secs(1)));
    assert_eq!(rt.obs().audit.len(), suspected, "no detector event");
    assert_eq!(allocs, 0, "ten warm detector ticks");
}

/// A warm RAML tick whose constraint holds and whose rule does not fire
/// reads its metrics off the runtime in place, with no snapshot: ten
/// ticks allocate nothing. (Each tick built an `observe()` snapshot, four
/// allocations, before RAML read the view.)
#[test]
fn a_warm_raml_tick_with_no_rule_firing_allocates_nothing() {
    let mut rt = warm_idle(|rt| {
        let mut raml = Raml::new(SimDuration::from_millis(100));
        raml.add_constraint(Constraint::MaxMeanLatencyMs {
            component: "tc0".into(),
            limit_ms: 1e9,
        });
        raml.add_rule(Rule::new(
            "never",
            Metric::Utilization(NodeId(1)),
            RuleMonitor::new(TemporalOp::Implies, Cmp::Gt, 2.0),
            Intercession::Notify("overloaded".into()),
            SimDuration::ZERO,
        ));
        rt.install_raml(raml);
    });
    let ((), allocs) = allocs_of(|| rt.run_for(SimDuration::from_secs(1)));
    let raml = rt.raml().expect("installed");
    assert_eq!(raml.snapshots_taken(), 30, "ten ticks measured");
    assert_eq!(raml.rules()[0].fired_count(), 0);
    assert!(raml.violations().is_empty());
    assert_eq!(allocs, 0, "ten warm RAML ticks");
}
