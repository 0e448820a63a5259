//! One trial: a fresh [`Runtime`] taken through set-up, an untimed
//! warm-up, the timed window, the drain, and the correctness gate.
//!
//! The timed window advances virtual time in 100 ms slices. Before each
//! slice the driver injects what the workload calls for; after every
//! tenth slice the benchmark takes one `observe()` snapshot, as an
//! operator polling the meta-level once a virtual second would. Traced
//! and untraced trials do the same work; a traced trial additionally
//! stores spans, reads the counters at every slice boundary, forks the
//! twin at eight fixed virtual times and ends with the probes.

use crate::alloc;
use crate::calibrate::Steps;
use crate::gate;
use crate::sizes::{Sizes, Workload, SLICE_MS};
use crate::spans::{Recorder, Span};
use crate::workload::{deploy, overload_frame, Deployed, Driver};
use aas_core::message::{Message, Value};
use aas_core::runtime::{Runtime, RuntimeMetrics};
use aas_obs::Counters;
use aas_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Slices between two `observe()` polls: one poll per virtual second.
const OBSERVE_EVERY: u64 = 1000 / SLICE_MS;
/// Twin forks taken over a traced window.
const FORK_POINTS: u64 = 8;

/// Per-layer metrics of one trial, by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Counter readings at one instant of a trial.
#[derive(Debug, Clone)]
pub struct Counts {
    /// Frames offered so far (emitted by sources or injected).
    pub offered: u64,
    /// Frames processed by sinks so far.
    pub sunk: u64,
    /// Frames processed by transcoders so far.
    pub transcoded: u64,
    /// Messages inside handlers right now.
    pub inflight: u64,
    /// Sequence anomalies seen at the sinks' inboxes.
    pub sink_seq_anomalies: u64,
    /// The runtime's aggregate metrics.
    pub m: RuntimeMetrics,
    /// The kernel's counters.
    pub k: Counters,
}

impl Counts {
    /// Reads every counter through `observe()`, `metrics()` and
    /// `kernel_counters()`. `injected` is the benchmark's own count of
    /// frames it injected (zero when sources generate the load).
    #[must_use]
    pub fn take(d: &Deployed, injected: u64) -> Counts {
        let snap = d.rt.observe();
        let by_name: BTreeMap<&str, _> = snap
            .components
            .iter()
            .map(|c| (c.name.as_str(), c))
            .collect();
        let sum = |names: &[String], f: &dyn Fn(&aas_core::raml::ComponentObservation) -> u64| {
            names
                .iter()
                .filter_map(|n| by_name.get(n.as_str()))
                .map(|c| f(c))
                .sum::<u64>()
        };
        let registry = &d.rt.obs().metrics;
        let emitted: f64 = d
            .source_meters
            .iter()
            .map(|m| registry.histogram(m).snapshot().sum())
            .sum();
        Counts {
            offered: emitted as u64 + injected,
            sunk: sum(&d.sinks, &|c| c.processed),
            transcoded: sum(&d.agents, &|c| c.processed),
            inflight: snap.components.iter().map(|c| u64::from(c.inflight)).sum(),
            sink_seq_anomalies: sum(&d.sinks, &|c| c.seq_anomalies),
            m: d.rt.metrics(),
            k: d.rt.kernel_counters(),
        }
    }
}

/// What the bare-kernel probes replay besides the trial's channel
/// endpoints and faults: how many messages each slice sent.
#[derive(Debug)]
pub struct ReplayInput {
    /// Application and heartbeat messages sent in each timed slice.
    pub sends: Vec<(u64, u64)>,
    /// Virtual time the timed window started at.
    pub window_start: SimTime,
}

/// Everything one trial measured.
#[derive(Debug)]
pub struct Outcome {
    /// Set-up step by step, from the process inputs to the end of
    /// warm-up: everything up to the deployed system, then each 100 ms
    /// slice of the warm-up.
    pub setup: Steps,
    /// The timed window slice by slice (driver, `run_until`, `observe`).
    pub window: Steps,
    /// Frames offered inside the timed window.
    pub frames_window: u64,
    /// `Runtime` deliveries inside the timed window.
    pub deliveries_window: u64,
    /// Heap allocations inside the timed window.
    pub allocs_window: u64,
    /// Peak live heap over the trial, bytes.
    pub peak_heap: u64,
    /// Virtual-time p99 of `RuntimeMetrics::e2e_latency`, milliseconds.
    pub sim_p99_ms: f64,
    /// Frames offered over the whole trial.
    pub offered: u64,
    /// Frames that reached their sink over the whole trial.
    pub sunk: u64,
    /// Frames by which the conservation equality is off.
    pub unaccounted: u64,
    /// FNV-1a over counters, plan outcomes, latency histogram and graph.
    pub fingerprint: u64,
    /// Correctness-gate failures; empty when the trial passed.
    pub failures: Vec<String>,
    /// Per-layer metrics.
    pub layer: Layer,
    /// Spans of a traced trial (empty otherwise).
    pub spans: Vec<Span>,
    /// Host seconds the whole trial took, measured around everything.
    pub wall_s: f64,
}

impl Outcome {
    /// Frames that reached their sink over frames offered, whole trial.
    #[must_use]
    pub fn goodput_ratio(&self) -> f64 {
        self.sunk as f64 / self.offered.max(1) as f64
    }

    /// Frames offered in the window per reference second of the window.
    #[must_use]
    pub fn frames_per_s(&self) -> f64 {
        self.frames_window as f64 / self.window.reference_total()
    }

    /// Heap allocations per `Runtime` delivery in the window.
    #[must_use]
    pub fn allocs_per_msg(&self) -> f64 {
        self.allocs_window as f64 / self.deliveries_window.max(1) as f64
    }
}

/// The counters a traced slice attaches to its span.
struct SliceCounters {
    k: Counters,
    delivered: u64,
    dropped: u64,
    audit: usize,
    reports: usize,
    rounds: u64,
}

impl SliceCounters {
    fn read(rt: &Runtime) -> SliceCounters {
        let m = rt.metrics();
        SliceCounters {
            k: rt.kernel_counters(),
            delivered: m.delivered,
            dropped: m.dropped,
            audit: rt.obs().audit.len(),
            reports: rt.reports().len(),
            rounds: rt.negotiation_rounds(),
        }
    }

    fn deltas(&self, prev: &SliceCounters) -> Vec<(&'static str, f64)> {
        let k = |name: &str| (self.k.get(name) - prev.k.get(name)) as f64;
        vec![
            ("sim.sent", k("sent")),
            ("sim.delivered", k("delivered")),
            ("sim.dropped", k("dropped")),
            ("sim.faults_applied", k("faults_applied")),
            ("core.delivered", (self.delivered - prev.delivered) as f64),
            ("core.dropped", (self.dropped - prev.dropped) as f64),
            ("obs.audit_entries", (self.audit - prev.audit) as f64),
            ("core.exec.reports", (self.reports - prev.reports) as f64),
            ("core.negotiate.rounds", (self.rounds - prev.rounds) as f64),
        ]
    }
}

/// Runs one trial of `workload` at `sizes` from `seed`.
///
/// # Errors
///
/// Returns a description when set-up fails (see [`deploy`]).
pub fn run_trial(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let wall = Instant::now();
    // What earlier trials left on the heap is not this trial's.
    alloc::reset_peak();
    let heap_before = alloc::snapshot().live;
    let mut rec = Recorder::new(traced);
    let mut layer = Layer::new();

    // Set-up: inputs, deployment, warm-up.
    let open = rec.begin("setup");
    let mut setup = Steps::default();
    let mut d = match setup.time(|| deploy(workload, sizes, seed, &mut rec)) {
        Ok(d) => d,
        Err(e) => {
            let _ = rec.end(open);
            return Err(e);
        }
    };
    let window_start = SimTime::from_micros(sizes.warmup_ms * 1000);
    let warmup = rec.begin("core.warmup");
    for slice in 1..=sizes.warmup_ms / SLICE_MS {
        setup.time(|| {
            d.rt.run_until(SimTime::from_micros(slice * SLICE_MS * 1000));
            drop(d.rt.drain_events());
        });
    }
    layer.insert("core.warmup_s", rec.end(warmup));
    let _ = rec.end(open);
    layer.extend(d.layer.iter().copied());

    // The timed window.
    let mut injected = 0u64;
    let before = Counts::take(&d, injected);
    let allocs_before = alloc::snapshot();
    let slices = sizes.timed_slices();
    let fork_every = (slices / FORK_POINTS).max(1);
    let mut slice_ms = Vec::with_capacity(slices as usize);
    let mut window = Steps::default();
    let mut kernel_allocs = (0u64, 0u64);
    let (mut run_s, mut inject_s, mut request_s, mut observe_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut fork_s, mut fork_heap, mut forks) = (0.0, 0u64, 0u64);
    let mut replay = ReplayInput {
        sends: Vec::new(),
        window_start,
    };
    let mut prev = traced.then(|| SliceCounters::read(&d.rt));
    let heartbeats_per_slice = if d.monitor.is_some() {
        d.topology.node_count() as u64 - 1
    } else {
        0
    };

    let run = rec.begin("run");
    for slice in 0..slices {
        // The kernel's own allocations are not the workload's.
        let outside = alloc::snapshot();
        window.kernel.push(crate::calibrate::kernel());
        let (allocs, bytes) = alloc::snapshot().since(&outside);
        kernel_allocs = (kernel_allocs.0 + allocs, kernel_allocs.1 + bytes);
        let step = Instant::now();
        let slice_end = window_start + SimDuration::from_millis((slice + 1) * SLICE_MS);
        match &mut d.driver {
            Driver::Idle => {}
            Driver::Overload { rng, per_slice } => {
                let open = rec.begin("core.inject");
                for _ in 0..*per_slice {
                    let target = &d.agents[rng.below(d.agents.len() as u64) as usize];
                    let offset = SimDuration::from_micros(rng.below(SLICE_MS * 1000));
                    if d.rt.inject_after(offset, target, overload_frame()).is_ok() {
                        injected += 1;
                    }
                }
                inject_s += rec.end(open);
            }
            Driver::Churn { plans } => {
                let open = rec.begin("core.request_reconfig");
                while plans.front().is_some_and(|(at, _)| *at <= slice) {
                    let (_, plan) = plans.pop_front().expect("front was checked");
                    let _ = d.rt.request_reconfig(plan);
                }
                request_s += rec.end(open);
            }
        }

        let open = rec.begin("core.run_until");
        d.rt.run_until(slice_end);
        // An embedding application drains the event list as it goes.
        drop(d.rt.drain_events());
        let counters = match prev.as_mut() {
            Some(prev) => {
                let now = SliceCounters::read(&d.rt);
                let deltas = now.deltas(prev);
                let app = (now.delivered - prev.delivered) + (now.dropped - prev.dropped);
                let sent = now.k.get("sent") - prev.k.get("sent");
                replay.sends.push((
                    app.min(sent),
                    sent.saturating_sub(app).min(heartbeats_per_slice),
                ));
                *prev = now;
                deltas
            }
            None => Vec::new(),
        };
        let secs = rec.end_with(open, counters);
        run_s += secs;
        slice_ms.push(secs * 1e3);

        if (slice + 1) % OBSERVE_EVERY == 0 {
            let open = rec.begin("core.observe");
            std::hint::black_box(d.rt.observe());
            observe_s += rec.end(open);
        }
        window.secs.push(step.elapsed().as_secs_f64());
        if traced && (slice + 1) % fork_every == 0 && forks < FORK_POINTS {
            // `None` while a plan is executing: nothing to measure then.
            let live = alloc::snapshot().live;
            let open = rec.begin("core.fork_twin");
            let twin = d.rt.fork_twin();
            let secs = rec.end(open);
            if twin.is_some() {
                fork_s += secs;
                fork_heap += alloc::snapshot().live.saturating_sub(live);
                forks += 1;
            }
        }
    }
    let _ = rec.end(run);
    let (allocs_window, alloc_bytes_window) = alloc::snapshot().since(&allocs_before);
    let (allocs_window, alloc_bytes_window) = (
        allocs_window - kernel_allocs.0,
        alloc_bytes_window - kernel_allocs.1,
    );
    let after = Counts::take(&d, injected);

    // Drain: end the sessions, stop injecting, run the grace period.
    let open = rec.begin("drain");
    for src in &d.sources {
        for _ in 0..sizes.sessions {
            let _ = d.rt.inject(src, Message::event("session_end", Value::Null));
        }
    }
    let end = window_start + SimDuration::from_millis(sizes.timed_ms + sizes.grace_ms);
    d.rt.run_until(end);
    drop(d.rt.drain_events());
    let _ = rec.end(open);

    // Checks and fingerprint.
    let open = rec.begin("gate");
    let last = Counts::take(&d, injected);
    let verdict = gate::check(workload, &d, &last);
    let fingerprint = gate::fingerprint(&d.rt, &last);
    let _ = rec.end(open);

    // Per-layer metrics of the run phase.
    let deliveries_window = after.m.delivered - before.m.delivered;
    layer.insert("core.run_s", run_s);
    layer.insert("core.inject_s", inject_s);
    layer.insert("core.exec.request_s", request_s);
    layer.insert("core.observe_s", observe_s);
    layer.insert(
        "core.ns_per_delivery",
        run_s * 1e9 / deliveries_window.max(1) as f64,
    );
    let (tail_pct, tail_ms) = crate::stats::tail_percentile(&slice_ms).unwrap_or((0.0, 0.0));
    layer.insert("core.run.slice_ms_p50", crate::stats::median(&slice_ms));
    layer.insert("core.run.slice_ms_tail", tail_ms);
    layer.insert("core.run.slice_tail_pct", tail_pct);
    layer.insert(
        "core.run.slice_ms_max",
        slice_ms.iter().copied().fold(0.0, f64::max),
    );
    layer.insert("core.twin.fork_s", fork_s / forks.max(1) as f64);
    layer.insert(
        "core.twin.fork_heap_mb",
        fork_heap as f64 / forks.max(1) as f64 / (1 << 20) as f64,
    );
    layer.insert("bench.host_speed", window.host_speed());
    layer.insert("bench.allocs", allocs_window as f64);
    layer.insert("bench.alloc_bytes", alloc_bytes_window as f64);
    let frames_window = after.offered - before.offered;
    let sim_events = (after.k.get("delivered") - before.k.get("delivered"))
        + (after.k.get("dropped") - before.k.get("dropped"));
    layer.insert(
        "sim.events_per_frame",
        sim_events as f64 / frames_window.max(1) as f64,
    );
    gate::whole_trial_layer(&d, &last, &mut layer);
    if traced {
        crate::probe::run(&d, &replay, &mut rec, &mut layer);
    }

    Ok(Outcome {
        setup,
        window,
        frames_window,
        deliveries_window,
        allocs_window,
        peak_heap: alloc::snapshot().peak - heap_before,
        sim_p99_ms: crate::stats::histogram_quantile(&last.m.e2e_latency, 0.99),
        offered: last.offered,
        sunk: last.sunk,
        unaccounted: verdict.unaccounted,
        fingerprint,
        failures: verdict.failures,
        layer,
        spans: rec.spans().to_vec(),
        wall_s: wall.elapsed().as_secs_f64(),
    })
}
