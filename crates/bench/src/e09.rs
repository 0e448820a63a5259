//! E9 — the cost of semantic compatibility checking.
//!
//! Paper claim (§1/§3): interconnection compatibility "can be checked
//! based on semantic information" (Wright-style LTS products) and FLO/C
//! rules "are parsed and semantically checked" for cycles. Neither paper
//! reports costs; this harness measures how both checks scale.
//!
//! Harness: (a) synchronous-product deadlock checks over ring protocols of
//! growing size; (b) rule-cycle detection over growing rule sets with a
//! planted cycle.

use crate::table::{ex, exact, timed, Col, Table, Tier, Value};
use aas_adl::parser::parse_system;
use aas_adl::validate::find_rule_cycle;
use aas_core::lts::{check_compatibility, synthetic_ring, Dir};
use std::time::Instant;

/// One protocol-size measurement.
#[derive(Debug, Clone)]
pub struct LtsCell {
    /// States per side.
    pub states: usize,
    /// Joint states explored.
    pub product_states: usize,
    /// Wall microseconds for the check.
    pub micros: f64,
    /// Whether the pair was compatible.
    pub compatible: bool,
}

/// Measures one LTS compatibility check with `n`-state ring protocols.
#[must_use]
pub fn lts_cell(n: usize) -> LtsCell {
    let a = synthetic_ring("a", n, Dir::Send);
    let b = synthetic_ring("b", n, Dir::Recv);
    let start = Instant::now();
    let report = check_compatibility(&a, &b);
    let micros = start.elapsed().as_nanos() as f64 / 1e3;
    LtsCell {
        states: n,
        product_states: report.product_states,
        micros,
        compatible: report.is_compatible(),
    }
}

/// One rule-set measurement.
#[derive(Debug, Clone)]
pub struct RuleCell {
    /// Rule count.
    pub rules: usize,
    /// Wall microseconds for cycle detection.
    pub micros: f64,
    /// Whether the planted cycle was found.
    pub cycle_found: bool,
}

/// Builds a system with `n` rules: a chain r0→r1→…→r(n-1) plus a back edge
/// closing a cycle, and measures detection.
#[must_use]
pub fn rule_cell(n: usize) -> RuleCell {
    assert!(n >= 2, "need at least two rules");
    let mut src = String::from("system R { node n0 { } node n1 { } ");
    for i in 0..n {
        src.push_str(&format!("component c{i} : T v1 on n0 "));
    }
    // Chain: rule i observes c_i and migrates c_{i+1}.
    for i in 0..n - 1 {
        src.push_str(&format!(
            "rule r{i}: latency(c{i}) > 5.0 implies migrate(c{next}, n1); ",
            next = i + 1
        ));
    }
    // Back edge: the last rule perturbs c0.
    src.push_str(&format!(
        "rule r{last}: latency(c{last}) > 5.0 implies migrate(c0, n1); ",
        last = n - 1
    ));
    src.push('}');
    let sys = parse_system(&src).expect("parse");
    let start = Instant::now();
    let cycle = find_rule_cycle(&sys);
    let micros = start.elapsed().as_nanos() as f64 / 1e3;
    RuleCell {
        rules: n,
        micros,
        cycle_found: cycle.is_some(),
    }
}

/// Runs both sweeps.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e09",
        tier,
        "E9: semantic checking cost — LTS products and rule-cycle detection",
        [
            exact(&["check", "size", "product-states"]),
            vec![Col::Timed("time(us)"), Col::Exact("verdict")],
        ]
        .concat(),
    );
    for n in [4usize, 16, 64, 256, 1024] {
        table.trials(|| {
            let c = lts_cell(n);
            vec![
                ex("lts-compat"),
                ex(c.states),
                ex(c.product_states),
                timed(c.micros, 2),
                ex(if c.compatible {
                    "compatible"
                } else {
                    "deadlock"
                }),
            ]
        });
    }
    for n in [4usize, 16, 64, 256] {
        table.trials(|| {
            let c = rule_cell(n);
            vec![
                ex("rule-cycle"),
                ex(c.rules),
                Value::Na,
                timed(c.micros, 2),
                ex(if c.cycle_found { "cycle" } else { "acyclic" }),
            ]
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pairs_are_compatible_and_lockstep() {
        let c = lts_cell(32);
        assert!(c.compatible);
        assert_eq!(c.product_states, 32, "complementary rings run in lockstep");
    }

    #[test]
    fn planted_cycles_are_always_found() {
        for n in [2usize, 8, 64] {
            assert!(rule_cell(n).cycle_found, "n = {n}");
        }
    }

    #[test]
    fn product_grows_for_interleaving_protocols() {
        // Non-complementary alphabets interleave: product grows ~n^2.
        let a = synthetic_ring("a", 16, Dir::Send);
        // A second ring whose actions never synchronize with `a`'s.
        let b = {
            let mut l = aas_core::lts::Lts::new("b");
            let ids: Vec<_> = (0..16).map(|i| l.add_state(format!("s{i}"))).collect();
            l.set_initial(ids[0]);
            l.mark_final(ids[0]);
            for i in 0..16 {
                l.add_transition(
                    ids[i],
                    aas_core::lts::Label::send(format!("other{i}")),
                    ids[(i + 1) % 16],
                );
            }
            l
        };
        let report = check_compatibility(&a, &b);
        assert_eq!(report.product_states, 256);
    }
}
