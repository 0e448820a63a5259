//! `aas-benchmark run [--seed N] [--workload W] [--seconds S] [--trace 0|1]`
//! `aas-benchmark compare <a.json> <b.json>`
//! `aas-benchmark manifest`

use aas_benchmark::catalogue::{manifest, RUN_SECONDS};
use aas_benchmark::compare::compare;
use aas_benchmark::json::Json;
use aas_benchmark::report::{contract_line, run, Plan};
use aas_benchmark::sizes::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  aas-benchmark run [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
      runs the named workload (all five without --workload): five untraced
      trials (at least three once S host seconds are spent), then the
      traced trial unless --trace 0; prints every metric, checks
      correctness, writes benchmark/out/result.json and one trace per
      workload
  aas-benchmark compare <a.json> <b.json>
      applies the per-metric bounds to two result files
  aas-benchmark manifest
      prints BENCHMARK.json";

fn parse_run(args: &[String]) -> Result<Plan, String> {
    let mut plan = Plan {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: true,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--seed" => {
                plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--workload" => {
                let name = value()?;
                plan.workloads = vec![Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?];
            }
            "--seconds" => {
                plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(plan.seconds > 0.0 && plan.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                plan.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(plan)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let plan = parse_run(&args[1..])?;
            let results = run(&plan)?;
            // The driver reads the last line of standard output.
            println!("{}", contract_line(&results, plan.traced));
            Ok(results.iter().all(|r| r.correct()))
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two result files".into());
            };
            let verdict = compare(&read_json(a)?, &read_json(b)?)?;
            for line in &verdict.lines {
                println!("{line}");
            }
            println!(
                "{} worse, {} unresolved, {} exact-match failures: the two sets {}",
                verdict.worse,
                verdict.unresolved,
                verdict.mismatches,
                if verdict.agrees() {
                    "agree"
                } else {
                    "DISAGREE"
                }
            );
            Ok(verdict.agrees())
        }
        Some("manifest") => {
            print!("{}", manifest().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
