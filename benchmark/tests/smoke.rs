//! All five workloads at tiny sizes through the same code path as the
//! real run: set-up, trials, traced trial, probes, gate, result files.
//! A change in `crates/*` that breaks the harness fails here, loudly.

use aas_benchmark::catalogue::{END_TO_END, PER_LAYER};
use aas_benchmark::compare::compare;
use aas_benchmark::json::Json;
use aas_benchmark::report::{contract_line, run, Plan};
use aas_benchmark::sizes::Workload;
use std::path::PathBuf;
use std::sync::Mutex;

/// The allocator counters are process-wide: trials of two tests running
/// at once would count each other's allocations.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn plan(traced: bool, out: &str) -> Plan {
    Plan {
        workloads: Workload::ALL.to_vec(),
        seed: 11,
        seconds: 0.2,
        traced,
        smoke: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out),
    }
}

#[test]
fn every_workload_passes_the_gate_and_reports_every_metric() {
    let _serial = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan(true, "smoke-full");
    let results = run(&plan).expect("the smoke run sets up");
    assert_eq!(results.len(), Workload::ALL.len());
    for r in &results {
        assert!(r.correct(), "{}: {:?}", r.workload.name(), r.failures);
        assert!(
            r.trials >= 3,
            "{}: a median needs three trials",
            r.workload.name()
        );
        assert!(r.attempted > 0 && r.failed == 0);
        for m in &END_TO_END {
            let s = &r.end_to_end[m.name];
            assert!(
                s.value > 0.0,
                "{} {} must never be 0",
                r.workload.name(),
                m.name
            );
            assert_eq!(s.samples.len(), r.trials);
            if m.deterministic {
                assert!(
                    s.samples
                        .iter()
                        .all(|x| x.to_bits() == s.samples[0].to_bits()),
                    "{} {} differs between trials of one seed: {:?}",
                    r.workload.name(),
                    m.name,
                    s.samples
                );
            }
        }
        for m in &PER_LAYER {
            assert!(
                r.layer.get(m.name).is_some_and(|v| v.is_finite()),
                "{} lacks {}",
                r.workload.name(),
                m.name
            );
        }
        if r.workload.is_lossless() {
            assert_eq!(r.end_to_end["goodput_ratio"].value, 1.0);
            assert_eq!(r.layer["telecom.seq_anomalies"], 0.0);
        }
        let trace = plan
            .out_dir
            .join(format!("trace-{}.jsonl", r.workload.name()));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        assert!(text.lines().count() > 20, "{}", trace.display());
        for line in text.lines() {
            let span = Json::parse(line).expect("each trace line is JSON");
            assert!(span.get("name").and_then(Json::as_str).is_some());
            assert!(span
                .get("self_us")
                .and_then(Json::as_f64)
                .is_some_and(|x| x >= 0.0));
        }
    }
    // The layers that must be busy in their own workload are.
    let by_name = |w: Workload| results.iter().find(|r| r.workload == w).expect("ran");
    assert!(by_name(Workload::FaultStorm).layer["sim.faults_applied"] > 0.0);
    assert!(by_name(Workload::FaultStorm).layer["core.detect.heartbeats"] > 0.0);
    assert!(by_name(Workload::OverloadNegotiated).layer["core.negotiate.rounds"] > 0.0);
    assert!(by_name(Workload::OverloadNegotiated).layer["core.shed"] > 0.0);
    assert!(by_name(Workload::ReconfigChurn).layer["core.exec.committed"] > 0.0);
    assert!(by_name(Workload::ReconfigChurn).layer["core.exec.rejected"] > 0.0);
    assert_eq!(
        by_name(Workload::SteadyStream).layer["core.exec.submitted"],
        0.0
    );
    assert_eq!(
        by_name(Workload::SteadyStream).layer["obs.audit_entries"],
        0.0
    );

    // The result file compares clean against itself, fingerprints included.
    let file = std::fs::read_to_string(plan.out_dir.join("result.json")).expect("result written");
    let parsed = Json::parse(&file).expect("result.json parses");
    for key in ["nproc", "cpu", "rustc", "profile", "git"] {
        assert!(
            parsed.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }
    let same = compare(&parsed, &parsed).expect("comparable");
    assert!(same.agrees(), "{:?}", same.lines);
}

#[test]
fn the_contract_line_carries_exactly_the_declared_metrics() {
    let _serial = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (traced, out, expected) in [
        (false, "smoke-e2e", END_TO_END.map(|m| m.name).to_vec()),
        (true, "smoke-layer", PER_LAYER.map(|m| m.name).to_vec()),
    ] {
        let mut plan = plan(traced, out);
        plan.workloads = vec![Workload::TwinRepair];
        let results = run(&plan).expect("the smoke run sets up");
        let line = Json::parse(&contract_line(&results, traced)).expect("one JSON object");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, expected);
        for (name, m) in metrics {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
        }
    }
}
