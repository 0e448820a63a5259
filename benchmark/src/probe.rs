//! Probes run after a traced trial: layers the `Runtime` keeps to itself
//! are exercised directly through their own public functions, fed with
//! what the trial actually did.
//!
//! - `sim.replay`: the trial's channel endpoints, per-slice send counts
//!   and fault schedule go into a bare `Kernel<u64>` (flat routing, then
//!   hierarchical) and into a `ShardedKernel`; this is where route-cache
//!   statistics come from, which the `Runtime` does not expose.
//! - `sim.fork`: `Kernel::fork` half-way through the flat replay.
//! - `control.negotiate`: one `Negotiator::arbitrate` round over as many
//!   agents as the workload has transcoders.
//! - `obs.export`: the JSONL export of the trial's metrics and audit log.

use crate::sizes::SLICE_MS;
use crate::spans::Recorder;
use crate::trial::{Layer, ReplayInput};
use crate::workload::Deployed;
use aas_control::negotiate::{BudgetRequest, Negotiator, ObjectiveWeights, ResourceVector};
use aas_control::situational::{AgentObservation, NodeSituation, SituationalModel};
use aas_sim::channel::ChannelId;
use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::FaultSchedule;
use aas_sim::kernel::Kernel;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use std::time::Instant;

/// Wire size of a replayed message, bytes (an audio frame).
const REPLAY_SIZE: u64 = 320;
/// Arbitration rounds timed by the negotiator probe.
const NEGOTIATE_ROUNDS: u32 = 50;

/// Channel endpoints of the trial.
struct Endpoints {
    /// Into each transcoder, then into each sink.
    app: Vec<(NodeId, NodeId)>,
    /// From every watched node to the monitor.
    heartbeats: Vec<(NodeId, NodeId)>,
}

fn endpoints(d: &Deployed) -> Endpoints {
    let node = |name: &String| d.rt.node_of(name);
    let mut app = Vec::new();
    for (i, agent) in d.agents.iter().enumerate() {
        let Some(at) = node(agent) else { continue };
        // Injected frames enter on the transcoder's own node.
        let from = d.sources.get(i).and_then(node).unwrap_or(at);
        app.push((from, at));
        if let Some(sink) = d.sinks.get(i).and_then(node) {
            app.push((at, sink));
        }
    }
    let heartbeats = d.monitor.map_or_else(Vec::new, |monitor| {
        d.topology
            .node_ids()
            .filter(|n| *n != monitor)
            .map(|n| (n, monitor))
            .collect()
    });
    Endpoints { app, heartbeats }
}

fn schedule(d: &Deployed) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for (at, kind) in &d.faults {
        s.at(*at, *kind);
    }
    s
}

/// Calls `send(slice, channel)` for every message the trial sent in each
/// slice, round-robin over the channels of its kind.
fn for_each_send(
    input: &ReplayInput,
    app: &[ChannelId],
    heartbeats: &[ChannelId],
    mut send: impl FnMut(u64, ChannelId),
) {
    for (slice, (app_n, hb_n)) in input.sends.iter().enumerate() {
        for (channels, n) in [(app, *app_n), (heartbeats, *hb_n)] {
            for j in 0..n {
                if let Some(ch) = channels.get(j as usize % channels.len().max(1)) {
                    send(slice as u64, *ch);
                }
            }
        }
    }
}

/// Replays the trial into a serial kernel. Returns `(events, host
/// seconds, kernel, fork seconds)`; the fork is taken half-way through.
fn replay_serial(d: &Deployed, input: &ReplayInput, hier: bool) -> (u64, f64, Kernel<u64>, f64) {
    let ends = endpoints(d);
    let mut k: Kernel<u64> = Kernel::new(d.topology.clone(), 1);
    if hier {
        k.enable_hier_routing();
    }
    let open = |k: &mut Kernel<u64>, ends: &[(NodeId, NodeId)]| -> Vec<ChannelId> {
        ends.iter().map(|(a, b)| k.open_channel(*a, *b)).collect()
    };
    let (app, hb) = (open(&mut k, &ends.app), open(&mut k, &ends.heartbeats));
    k.inject_faults(schedule(d));
    let mut events = 0u64;
    let mut run_to = |k: &mut Kernel<u64>, until: SimTime| {
        // A timer at the boundary carries the clock there even when the
        // slice is otherwise empty.
        let _ = k.set_timer(until.saturating_since(k.now()));
        while k.next_event_time().is_some_and(|t| t <= until) {
            let _ = k.step();
            events += 1;
        }
    };
    let started = Instant::now();
    run_to(&mut k, input.window_start);
    let (mut fork_s, mut payload, mut current) = (0.0, 0u64, 0u64);
    let slice_end =
        |slice: u64| input.window_start + SimDuration::from_millis((slice + 1) * SLICE_MS);
    for_each_send(input, &app, &hb, |slice, ch| {
        // Sends of a later slice wait until the earlier ones have run.
        while current < slice {
            run_to(&mut k, slice_end(current));
            if current == input.sends.len() as u64 / 2 {
                let t = Instant::now();
                std::hint::black_box(k.fork());
                fork_s = t.elapsed().as_secs_f64();
            }
            current += 1;
        }
        let _ = k.send(ch, payload, REPLAY_SIZE);
        payload += 1;
    });
    run_to(
        &mut k,
        slice_end(input.sends.len().saturating_sub(1) as u64),
    );
    // The fork is not part of the replay's own time.
    let secs = started.elapsed().as_secs_f64() - fork_s;
    (events, secs, k, fork_s)
}

/// Replays the trial into a sharded kernel at `shards` shards. Returns
/// `(events, host seconds, windows)`.
fn replay_sharded(d: &Deployed, input: &ReplayInput, shards: u32) -> (u64, f64, u64) {
    let ends = endpoints(d);
    let mode = if shards > 1 {
        ExecMode::Threads
    } else {
        ExecMode::Inline
    };
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(d.topology.clone(), shards, mode);
    let open = |k: &mut ShardedKernel<u64>, ends: &[(NodeId, NodeId)]| -> Vec<ChannelId> {
        ends.iter().map(|(a, b)| k.open_channel(*a, *b)).collect()
    };
    let (app, hb) = (open(&mut k, &ends.app), open(&mut k, &ends.heartbeats));
    k.inject_faults(schedule(d));
    let mut payload = 0u64;
    for_each_send(input, &app, &hb, |slice, ch| {
        let at = input.window_start + SimDuration::from_millis(slice * SLICE_MS);
        k.send_at(at, ch, payload, REPLAY_SIZE);
        payload += 1;
    });
    let started = Instant::now();
    std::hint::black_box(k.drain());
    let secs = started.elapsed().as_secs_f64();
    let stats = k.stats();
    // Dropping the kernel joins its worker threads.
    (stats.events, secs, stats.windows)
}

/// Times one arbitration round over `agents` requests with the priority
/// and floor mix of `overload_negotiated`, at 4.8× the budget.
fn negotiate_round_ns(agents: usize) -> f64 {
    let budget = ResourceVector {
        capacity: agents as f64,
        work_rate: 1000.0 * agents as f64,
        retry_budget: 64.0,
        twin_horizon: 4.0,
    };
    let mut model = SituationalModel::empty(SimTime::from_secs(1));
    let mut requests = Vec::with_capacity(agents);
    for i in 0..agents {
        let name = format!("tc{i}");
        let node = (i % 4) as u32;
        model.agents.insert(
            name.clone(),
            AgentObservation {
                arrivals: 480,
                ..AgentObservation::idle(node)
            },
        );
        model.nodes.insert(node, NodeSituation::healthy(2000.0));
        let demand = ResourceVector {
            capacity: 1.0,
            work_rate: 4800.0,
            retry_budget: 3.0,
            twin_horizon: 0.0,
        };
        let floor = demand.scaled([0.10, 0.08, 0.05][i % 3]);
        requests.push(BudgetRequest::new(name, floor, demand).with_priority(3 - (i % 3) as u8));
    }
    model.arrival_rate = 4800.0 * agents as f64;
    model.capacity_rate = 1000.0 * agents as f64;
    let mut negotiator = Negotiator::new(ObjectiveWeights::default(), budget);
    let started = Instant::now();
    for _ in 0..NEGOTIATE_ROUNDS {
        std::hint::black_box(negotiator.arbitrate(&model, &requests));
    }
    started.elapsed().as_nanos() as f64 / f64::from(NEGOTIATE_ROUNDS)
}

/// Runs every probe under a `probe` span and files the results in `layer`.
pub fn run(d: &Deployed, input: &ReplayInput, rec: &mut Recorder, layer: &mut Layer) {
    let probe = rec.begin("probe");

    let open = rec.begin("sim.replay");
    let (events, secs, flat, fork_s) = replay_serial(d, input, false);
    let route = flat.route_cache_stats();
    drop(flat);
    let (_, _, hier, _) = replay_serial(d, input, true);
    let hier_settled = hier.hier_stats().map_or(0, |h| h.settled);
    drop(hier);
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(2)) as u32;
    let (sharded_events, sharded_secs, windows) = replay_sharded(d, input, shards);
    let _ = rec.end(open);
    layer.insert("sim.replay.ns_per_event", secs * 1e9 / events.max(1) as f64);
    layer.insert("sim.replay.events_per_s", events as f64 / secs);
    layer.insert(
        "sim.replay_sharded.events_per_s",
        sharded_events as f64 / sharded_secs,
    );
    layer.insert("sim.replay_sharded.windows", windows as f64);
    layer.insert("sim.route.hits", route.hits as f64);
    layer.insert("sim.route.misses", route.misses as f64);
    layer.insert("sim.route.invalidations", route.invalidations as f64);
    layer.insert("sim.route.settled", route.settled as f64);
    layer.insert("sim.route.hit_ratio", route.hit_ratio());
    layer.insert("sim.route_hier.settled", hier_settled as f64);
    layer.insert("sim.fork_s", fork_s);

    let open = rec.begin("control.negotiate");
    let ns = negotiate_round_ns(d.agents.len());
    let _ = rec.end(open);
    layer.insert("control.negotiate_ns", ns);
    layer.insert("control.agents", d.agents.len() as f64);

    let open = rec.begin("obs.export");
    let snapshot = d.rt.obs().metrics.snapshot();
    let series = snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len();
    let exported = aas_obs::export::metrics_jsonl(&snapshot).len()
        + aas_obs::export::audit_jsonl(&d.rt.obs().audit.entries()).len();
    std::hint::black_box(exported);
    layer.insert("obs.export_s", rec.end(open));
    layer.insert("obs.metric_series", series as f64);

    let _ = rec.end(probe);
}
