//! # aas-bench — the experiment harness
//!
//! One module per experiment, each exposing `run(Tier) -> Table`; E14,
//! E15 and E19 are rows of the one [`kernel_grid`]. [`EXPERIMENTS`] is
//! the registry, [`main`] the runner behind the single bench target:
//!
//! ```text
//! cargo bench -p aas-bench -- [ids…] [smoke|full] [check]
//! ```
//!
//! prints the table of every named experiment (all of them when none is
//! named) and writes the same table as `crates/bench/BENCH_<id>.json`;
//! with `check` it writes nothing and instead holds every exact value to
//! the artifact already there.
//! See `EXPERIMENTS.md` for the claim ↔ measurement mapping and recorded
//! results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e20;
pub mod kernel_grid;
pub mod table;

pub use table::{Table, Tier};

use std::process::ExitCode;

/// An experiment: its id and how to run it.
pub type Experiment = (&'static str, fn(Tier) -> Table);

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: [Experiment; 18] = [
    ("e01", e01::run),
    ("e02", e02::run),
    ("e03", e03::run),
    ("e04", e04::run),
    ("e05", e05::run),
    ("e06", e06::run),
    ("e07", e07::run),
    ("e08", e08::run),
    ("e09", e09::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("e13", e13::run),
    ("kernel", kernel_grid::run),
    ("e16", e16::run),
    ("e17", e17::run),
    ("e18", e18::run),
    ("e20", e20::run),
];

/// Parses `[ids…] [tier] [check]`: the one place the tier argument is
/// read. No id selects every experiment; no tier
/// selects [`Tier::Default`]; the third value is whether `check` was
/// among the words. `--bench`, which cargo passes to every bench binary,
/// is skipped; any other flag is an unknown argument.
///
/// # Errors
///
/// An argument that is neither an experiment id, a tier nor `check`,
/// with the valid words of each kind.
pub fn parse_args(
    args: impl Iterator<Item = String>,
) -> Result<(Vec<Experiment>, Tier, bool), String> {
    let mut chosen = Vec::new();
    let mut tier = Tier::Default;
    let mut check = false;
    for arg in args.filter(|a| a != "--bench") {
        if let Some(t) = Tier::ALL.into_iter().find(|t| t.name() == arg) {
            tier = t;
        } else if let Some(e) = EXPERIMENTS.into_iter().find(|e| e.0 == arg) {
            chosen.push(e);
        } else if arg == "check" {
            check = true;
        } else {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            let tiers = Tier::ALL.map(Tier::name);
            return Err(format!(
                "unknown experiment or tier `{arg}`; experiments: {}; tiers: {}; or `check`",
                ids.join(" "),
                tiers.join(" ")
            ));
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS);
    }
    Ok((chosen, tier, check))
}

/// Runs the experiments `args` name at the tier they name, prints each
/// table and writes each artifact next to this crate's manifest: the
/// default tier to the committed `BENCH_<id>.json`, the others to
/// `BENCH_<id>.<tier>.json` so they never overwrite the ledger. With
/// `check` nothing is written: each experiment's
/// [`Table::exact_drift`] against the artifact of that tier is printed,
/// and any drift (or a missing artifact) fails the run.
pub fn main(args: impl Iterator<Item = String>) -> ExitCode {
    let (chosen, tier, check) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut drifted = false;
    for (id, run) in chosen {
        let dir = env!("CARGO_MANIFEST_DIR");
        let path = match tier {
            Tier::Default => format!("{dir}/BENCH_{id}.json"),
            _ => format!("{dir}/BENCH_{id}.{}.json", tier.name()),
        };
        if !check {
            let table = run(tier);
            println!("{table}");
            if let Err(e) = std::fs::write(&path, table.to_json()) {
                eprintln!("could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        } else {
            let drift = match std::fs::read_to_string(&path) {
                Ok(committed) => run(tier).exact_drift(&committed),
                Err(e) => vec![format!("could not read {path}: {e}")],
            };
            println!("{id}: {} exact values drifted", drift.len());
            drift.iter().for_each(|line| println!("  {line}"));
            drifted |= !drift.is_empty();
        }
    }
    if drifted {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, Tier), String> {
        let (chosen, tier, check) = parse_args(args.iter().map(|a| (*a).to_owned()))?;
        assert_eq!(check, args.contains(&"check"));
        Ok((chosen.iter().map(|e| e.0).collect(), tier))
    }

    #[test]
    fn ids_and_one_tier_in_any_order() {
        let (ids, tier) = parse(&["--bench", "e17", "smoke", "kernel"]).unwrap();
        assert_eq!((ids, tier), (vec!["e17", "kernel"], Tier::Smoke));
        let (ids, tier) = parse(&["full"]).unwrap();
        assert_eq!(tier, Tier::Full);
        assert_eq!(ids.len(), 18, "every experiment");
        // `check` is a word like a tier: anywhere, and it selects nothing.
        let (ids, tier) = parse(&["check", "e20", "--bench"]).unwrap();
        assert_eq!((ids, tier), (vec!["e20"], Tier::Default));
        assert_eq!(parse(&["smoke", "check"]).unwrap().0.len(), 18);
    }

    #[test]
    fn unknown_id_or_tier_exits_non_zero_naming_the_valid_ones() {
        for bad in [
            "e21", "e14", "e15", "e19", "quick", "--smoke", "--full", "--check",
        ] {
            let err = parse(&["e17", bad]).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("e01 e02") && err.contains("kernel"), "{err}");
            assert!(
                err.contains("tiers: smoke default full; or `check`"),
                "{err}"
            );
            let code = main(["e17", bad].into_iter().map(str::to_owned));
            assert_eq!(code, ExitCode::from(2));
        }
    }
}
