//! `compare <a.json> <b.json>`: applies the per-metric bounds to two
//! result files and checks the deterministic metrics and fingerprints
//! for exact agreement.

use crate::catalogue::{Better, EndToEnd, END_TO_END};
use crate::json::Json;
use crate::stats::{median, spread};

/// Direction-aware relative change from `a` to `b`: positive is better.
#[must_use]
pub fn improvement(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    match better {
        Better::Higher => rel,
        Better::Lower => -rel,
    }
}

/// Where `b` stands against `a` on one (metric, workload) pair. Spread is
/// looked at first: a pair too noisy to judge is never called worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound (or, with a spread wider than the
    /// bound, every run of `b` beats every run of `a`).
    Better,
    /// Neither side is off by more than the bound.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    /// The word printed for this verdict.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from the two sides' per-trial samples. The reported
/// value is their median, so gain and spread are read off one statistic.
#[must_use]
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > m.bound || spread(b) > m.bound {
        let every_b_beats_every_a = !a.is_empty()
            && a.iter()
                .all(|x| b.iter().all(|y| improvement(m.better, *x, *y) > 0.0));
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let gain = improvement(m.better, median(a), median(b));
    if gain < -m.bound {
        Verdict::Worse
    } else if gain > m.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn samples(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    let all = workload
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?;
    all.iter().map(Json::as_f64).collect()
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Report lines, one per (metric, workload) pair and exact check.
    pub lines: Vec<String>,
    /// Pairs judged worse.
    pub worse: usize,
    /// Pairs left unresolved.
    pub unresolved: usize,
    /// Deterministic values or fingerprints that differ between two runs
    /// of one seed.
    pub mismatches: usize,
}

impl Comparison {
    /// Whether the two sets agree within the benchmark's own bounds.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.worse == 0 && self.mismatches == 0
    }
}

/// Compares two parsed result files.
///
/// # Errors
///
/// Returns a description when a file lacks the expected members.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let seed = |j: &Json| {
        j.get("run")
            .and_then(|r| r.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "no `workloads` array".to_owned())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison::default();
    if !same_seed {
        out.lines
            .push("seeds differ: exact-match checks are skipped".to_owned());
    }
    for x in &wa {
        let name = x.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(y) = wb
            .iter()
            .find(|y| y.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.lines.push(format!("{name}: only in the first file"));
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (samples(x, m.name), samples(y, m.name)) else {
                return Err(format!("{name}: no samples of {}", m.name));
            };
            let verdict = judge(m, &sa, &sb);
            match verdict {
                Verdict::Worse => out.worse += 1,
                Verdict::Unresolved => out.unresolved += 1,
                _ => {}
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let mut line = format!(
                "{name:<20} {:<15} {:>14.6} -> {:>14.6} {:<14} {:+.2}% (bound {:.0}%, spreads {:.1}% / {:.1}%): {}",
                m.name,
                ma,
                mb,
                m.unit,
                improvement(m.better, ma, mb) * 100.0,
                m.bound * 100.0,
                spread(&sa) * 100.0,
                spread(&sb) * 100.0,
                verdict.word()
            );
            if same_seed && m.deterministic {
                if ma.to_bits() == mb.to_bits() {
                    line.push_str(", exact");
                } else {
                    line.push_str(", NOT EXACT");
                    out.mismatches += 1;
                }
            }
            out.lines.push(line);
        }
        if same_seed {
            let fp = |j: &Json| {
                j.get("sim_fingerprint")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            };
            if fp(x) == fp(y) {
                out.lines.push(format!(
                    "{name:<20} sim_fingerprint {} matches",
                    fp(x).unwrap_or_default()
                ));
            } else {
                out.lines.push(format!(
                    "{name:<20} sim_fingerprint {:?} != {:?}",
                    fp(x),
                    fp(y)
                ));
                out.mismatches += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("metric")
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let fps = metric("frames_per_s"); // higher is better, bound 0.25
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| steady.map(|x| x * k);
        assert_eq!(judge(fps, &steady, &scaled(1.05)), Verdict::WithinBound);
        assert_eq!(judge(fps, &steady, &scaled(0.80)), Verdict::WithinBound);
        assert_eq!(judge(fps, &steady, &scaled(0.70)), Verdict::Worse);
        assert_eq!(judge(fps, &steady, &scaled(1.30)), Verdict::Better);
        // Lower-is-better flips the sign.
        let setup = metric("setup_s");
        assert_eq!(judge(setup, &steady, &scaled(1.40)), Verdict::Worse);
        assert_eq!(judge(setup, &steady, &scaled(0.60)), Verdict::Better);
        // A side that spreads wider than the bound resolves nothing...
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(fps, &noisy, &steady), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(judge(fps, &noisy, &scaled(1.5)), Verdict::Better);
        // Too noisy to call worse, however far the medians are apart.
        assert_eq!(judge(fps, &scaled(2.0), &noisy), Verdict::Unresolved);
    }

    fn file(seed: u64, fps: f64, goodput: f64, fingerprint: &str) -> Json {
        let summary = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                (
                    "samples",
                    Json::Arr(vec![Json::Num(v), Json::Num(v), Json::Num(v)]),
                ),
            ])
        };
        Json::obj([
            ("run", Json::obj([("seed", Json::from(seed))])),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::from("steady_stream")),
                    ("sim_fingerprint", Json::from(fingerprint)),
                    (
                        "end_to_end",
                        Json::obj(END_TO_END.iter().map(|m| {
                            (
                                m.name,
                                summary(match m.name {
                                    "frames_per_s" => fps,
                                    "goodput_ratio" => goodput,
                                    _ => 1.0,
                                }),
                            )
                        })),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn same_seed_demands_exact_deterministic_metrics() {
        let a = file(1, 100.0, 1.0, "aa");
        assert!(compare(&a, &file(1, 104.0, 1.0, "aa")).unwrap().agrees());
        let drift = compare(&a, &file(1, 100.0, 0.999, "aa")).unwrap();
        assert_eq!((drift.mismatches, drift.worse), (1, 0));
        assert_eq!(
            compare(&a, &file(1, 100.0, 1.0, "bb")).unwrap().mismatches,
            1
        );
        // Across seeds only the bounds apply.
        assert!(compare(&a, &file(2, 100.0, 0.999, "bb")).unwrap().agrees());
        assert_eq!(compare(&a, &file(2, 50.0, 1.0, "aa")).unwrap().worse, 1);
        assert!(compare(&a, &Json::Null).is_err());
    }
}
