//! Running workloads and reporting: repeated untraced trials for the
//! end-to-end metrics, one traced trial for the per-layer metrics, the
//! result file and the trace files.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::host::Host;
use crate::json::Json;
use crate::sizes::{Sizes, Workload};
use crate::spans::{self_time_by_name, to_jsonl, Span};
use crate::stats::{median, Summary};
use crate::trial::{run_trial, Layer, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Untraced trials behind a reported median.
const TRIALS: usize = 5;
/// Fewest of them a run makes when its host seconds run out first.
const MIN_TRIALS: usize = 3;
/// Least share of a traced trial's wall time its spans must cover.
const MIN_TRACE_COVERAGE: f64 = 0.95;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, in order.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Host seconds after which a workload starts no further untraced
    /// trial, once it has three.
    pub seconds: f64,
    /// Whether the traced trial follows the untraced ones.
    pub traced: bool,
    /// Use the smoke sizes instead of the benchmark's. For the tests: no
    /// command-line flag sets it.
    pub smoke: bool,
    /// Where `result.json` and the traces go.
    pub out_dir: PathBuf,
}

/// Results of one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Its sizes.
    pub sizes: Sizes,
    /// End-to-end metrics over the untraced trials, by name.
    pub end_to_end: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics of the traced trial (empty without one).
    pub layer: Layer,
    /// Self time by span name of the traced trial, largest first.
    pub self_times: Vec<(&'static str, f64)>,
    /// The simulation fingerprint every trial agreed on.
    pub fingerprint: u64,
    /// Gate failures over all trials; empty when the workload passed.
    pub failures: Vec<String>,
    /// Frames offered in one trial.
    pub attempted: u64,
    /// Frames by which the conservation equality is off.
    pub failed: u64,
    /// Untraced trials run.
    pub trials: usize,
    /// Median host speed over the untraced windows, as a share of the
    /// reference host's (see [`crate::calibrate`]).
    pub host_speed: f64,
}

impl WorkloadResult {
    /// Whether every check on every trial passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// One trial's reading of an end-to-end metric.
fn sample(o: &Outcome, metric: &str) -> f64 {
    match metric {
        "frames_per_s" => o.frames_per_s(),
        "allocs_per_msg" => o.allocs_per_msg(),
        "peak_heap_mb" => o.peak_heap as f64 / (1 << 20) as f64,
        "sim_p99_ms" => o.sim_p99_ms,
        "goodput_ratio" => o.goodput_ratio(),
        "setup_s" => o.setup.reference_total(),
        other => panic!("the catalogue declares {other}, which no trial measures"),
    }
}

/// Runs one workload: five untraced trials (fewer, but at least three,
/// when `seconds` run out first), then the traced trial if the plan asks
/// for it.
///
/// # Errors
///
/// Returns a description when a trial cannot be set up.
pub fn run_workload(
    workload: Workload,
    plan: &Plan,
) -> Result<(WorkloadResult, Vec<Span>), String> {
    let sizes = if plan.smoke {
        Sizes::smoke(workload)
    } else {
        Sizes::full(workload)
    };
    let started = Instant::now();
    let mut untraced: Vec<Outcome> = Vec::new();
    while untraced.len() < TRIALS {
        let spent = started.elapsed().as_secs_f64();
        let next = spent / untraced.len().max(1) as f64;
        if untraced.len() >= MIN_TRIALS && spent + next > plan.seconds {
            break;
        }
        untraced.push(run_trial(workload, &sizes, plan.seed, false)?);
    }
    let traced = plan
        .traced
        .then(|| run_trial(workload, &sizes, plan.seed, true))
        .transpose()?;

    let mut failures: Vec<String> = Vec::new();
    let first = &untraced[0];
    for (i, o) in untraced.iter().chain(traced.as_ref()).enumerate() {
        failures.extend(o.failures.iter().map(|f| format!("trial {i}: {f}")));
        if o.fingerprint != first.fingerprint {
            failures.push(format!(
                "trial {i}: sim_fingerprint {:016x} differs from trial 0's {:016x}",
                o.fingerprint, first.fingerprint
            ));
        }
    }

    let mut end_to_end = BTreeMap::new();
    for m in &END_TO_END {
        let samples = untraced.iter().map(|o| sample(o, m.name)).collect();
        end_to_end.insert(m.name, Summary::of(samples));
    }
    let host_speed = median(
        &untraced
            .iter()
            .map(|o| o.window.host_speed())
            .collect::<Vec<_>>(),
    );

    let mut layer = Layer::new();
    let mut self_times = Vec::new();
    let mut spans = Vec::new();
    if let Some(t) = traced {
        let untraced_run: Vec<f64> = untraced.iter().map(|o| o.layer["core.run_s"]).collect();
        let covered: u64 = t
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum();
        let coverage = covered as f64 / 1e9 / t.wall_s;
        layer = t.layer;
        layer.insert(
            "obs.trace_overhead",
            layer["core.run_s"] / median(&untraced_run),
        );
        layer.insert("obs.trace_coverage", coverage);
        layer.insert("telecom.frames_lost", (t.offered - t.sunk) as f64);
        if coverage < MIN_TRACE_COVERAGE {
            failures.push(format!(
                "trace: spans cover {:.1}% of the traced trial's {:.3} s",
                coverage * 100.0,
                t.wall_s
            ));
        }
        for m in &PER_LAYER {
            if !layer.contains_key(m.name) {
                failures.push(format!("per-layer metric {} was not measured", m.name));
            }
        }
        self_times = self_time_by_name(&t.spans);
        spans = t.spans;
    }

    Ok((
        WorkloadResult {
            workload,
            sizes,
            end_to_end,
            layer,
            self_times,
            fingerprint: first.fingerprint,
            failures,
            attempted: first.offered,
            failed: first.unaccounted,
            trials: untraced.len(),
            host_speed,
        },
        spans,
    ))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Prints one workload's metrics by name with units.
pub fn print_workload(r: &WorkloadResult) {
    println!(
        "== {} ({} untraced trials at {:.2} of reference host speed, sim_fingerprint {:016x}) ==",
        r.workload.name(),
        r.trials,
        r.host_speed,
        r.fingerprint
    );
    for m in &END_TO_END {
        let s = &r.end_to_end[m.name];
        println!(
            "  {:<16} {:>16.6} {:<14} {} is better, bound {}; median of {} trials: q1 {:.6} q3 {:.6} n {}",
            m.name,
            s.value,
            m.unit,
            m.better.word(),
            m.bound,
            if m.deterministic {
                "identical"
            } else {
                "calibrated"
            },
            s.q1,
            s.q3,
            s.samples.len(),
        );
    }
    if !r.layer.is_empty() {
        println!("  per layer (traced trial):");
        for m in &PER_LAYER {
            if let Some(v) = r.layer.get(m.name) {
                println!("    {:<34} {:>18.6} {}", m.name, v, m.unit);
            }
        }
        println!("  self time by span (traced trial, host_s):");
        for (name, secs) in &r.self_times {
            println!("    {name:<34} {secs:>18.6}");
        }
    }
    println!(
        "  frames: {} offered, {} unaccounted; gate: {}",
        r.attempted,
        r.failed,
        if r.correct() { "passed" } else { "FAILED" }
    );
    for f in &r.failures {
        println!("  FAIL {f}");
    }
}

fn summary_json(s: &Summary, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(s.value)),
        ("unit", Json::from(unit)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::from(s.samples.len() as u64)),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|x| Json::Num(*x)).collect()),
        ),
    ])
}

/// One workload as it appears in `result.json`.
#[must_use]
pub fn workload_json(r: &WorkloadResult) -> Json {
    Json::obj([
        ("name", Json::from(r.workload.name())),
        ("why", Json::from(crate::catalogue::why(r.workload))),
        ("sizes", r.sizes.to_json()),
        ("trials", Json::from(r.trials as u64)),
        ("host_speed", Json::Num(r.host_speed)),
        ("correct", Json::from(r.correct())),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        (
            "sim_fingerprint",
            Json::from(format!("{:016x}", r.fingerprint)),
        ),
        (
            "failures",
            Json::Arr(r.failures.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        (
            "end_to_end",
            Json::obj(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, summary_json(&r.end_to_end[m.name], m.unit))),
            ),
        ),
        (
            "per_layer",
            Json::obj(r.layer.iter().map(|(name, v)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::from(unit_of(name))),
                    ]),
                )
            })),
        ),
        (
            "self_time_host_s",
            Json::obj(r.self_times.iter().map(|(n, s)| (*n, Json::Num(*s)))),
        ),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
#[must_use]
pub fn contract_line(results: &[WorkloadResult], traced: bool) -> String {
    let qualify = results.len() > 1;
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for r in results {
        let key = |name: &str| {
            if qualify {
                format!("{}.{name}", r.workload.name())
            } else {
                name.to_owned()
            }
        };
        let value =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::from(unit))]);
        if traced {
            for m in &PER_LAYER {
                if let Some(v) = r.layer.get(m.name) {
                    metrics.push((key(m.name), value(*v, m.unit)));
                }
            }
        } else {
            for m in &END_TO_END {
                metrics.push((key(m.name), value(r.end_to_end[m.name].value, m.unit)));
            }
        }
    }
    Json::obj([
        (
            "correct",
            Json::from(results.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted",
            Json::from(results.iter().map(|r| r.attempted).sum::<u64>()),
        ),
        (
            "failed",
            Json::from(results.iter().map(|r| r.failed).sum::<u64>()),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs `plan`, prints every metric, writes `result.json` and one trace
/// per traced workload, and returns the results.
///
/// # Errors
///
/// Returns a description when a trial cannot be set up or a file cannot
/// be written.
pub fn run(plan: &Plan) -> Result<Vec<WorkloadResult>, String> {
    let started = Instant::now();
    let host = Host::read();
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("creating {}: {e}", plan.out_dir.display()))?;
    println!(
        "host: {} x {}, {}, {} profile, git {}; seed {}",
        host.nproc, host.cpu, host.rustc, host.profile, host.git, plan.seed
    );
    let mut results = Vec::new();
    for &workload in &plan.workloads {
        let (result, spans) = run_workload(workload, plan)?;
        print_workload(&result);
        if !spans.is_empty() {
            let trial = format!("{}-seed{}", workload.name(), plan.seed);
            write(
                &plan
                    .out_dir
                    .join(format!("trace-{}.jsonl", workload.name())),
                &to_jsonl(&trial, &spans),
            )?;
        }
        results.push(result);
    }
    let file = Json::obj([
        ("host", host.to_json()),
        (
            "run",
            Json::obj([
                ("seed", Json::from(plan.seed)),
                ("default_seed", Json::from(crate::sizes::DEFAULT_SEED)),
                ("held_out_seed", Json::from(crate::sizes::HELD_OUT_SEED)),
                ("grid_seed", Json::from(crate::sizes::GRID_SEED)),
                ("storm_seed", Json::from(crate::sizes::STORM_SEED)),
                ("seconds_per_workload", Json::Num(plan.seconds)),
                ("traced", Json::from(plan.traced)),
                ("smoke_sizes", Json::from(plan.smoke)),
                ("wall_host_s", Json::Num(started.elapsed().as_secs_f64())),
            ]),
        ),
        (
            "workloads",
            Json::Arr(results.iter().map(workload_json).collect()),
        ),
    ]);
    write(&plan.out_dir.join("result.json"), &file.render_pretty())?;
    Ok(results)
}
