//! Semantic validation of parsed systems.
//!
//! Beyond reference/uniqueness checking, this implements the FLO/C
//! guarantee the paper highlights: "To guarantee that there is no
//! occurrence of a cycle in the calling tree, rules are parsed and
//! semantically checked" — rule-interaction cycle detection over the
//! affects/observes graph.

use crate::ast::{ActionDecl, SystemDecl};
use aas_core::raml::{Metric, MetricOf};
use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

/// Recognized constraint kinds.
pub const CONSTRAINT_KINDS: &[&str] = &[
    "max_mean_latency",
    "max_p99_latency",
    "max_error_rate",
    "max_node_utilization",
    "no_sequence_anomalies",
];

/// A semantic problem found in a system declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum SemIssue {
    /// Two declarations share a name.
    Duplicate {
        /// What kind of thing (node/component/connector/rule).
        kind: &'static str,
        /// The clashing name.
        name: String,
    },
    /// A reference to an undeclared node.
    UnknownNode(String),
    /// A reference to an undeclared component.
    UnknownComponent(String),
    /// A reference to an undeclared connector.
    UnknownConnector(String),
    /// A connector is declared but never used.
    UnusedConnector(String),
    /// The same source port is bound twice.
    DuplicateBindingSource(String, String),
    /// A constraint kind is not recognized.
    UnknownConstraintKind(String),
    /// A constraint that needs a limit lacks one.
    MissingLimit(String),
    /// A metric name is invalid for its subject kind.
    BadMetric {
        /// The metric.
        metric: String,
        /// The subject it was applied to.
        subject: String,
    },
    /// Rules form a trigger cycle (names in cycle order).
    RuleCycle(Vec<String>),
}

impl fmt::Display for SemIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemIssue::Duplicate { kind, name } => write!(f, "duplicate {kind} `{name}`"),
            SemIssue::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            SemIssue::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            SemIssue::UnknownConnector(n) => write!(f, "unknown connector `{n}`"),
            SemIssue::UnusedConnector(n) => write!(f, "connector `{n}` never used"),
            SemIssue::DuplicateBindingSource(i, p) => {
                write!(f, "port `{i}.{p}` bound more than once")
            }
            SemIssue::UnknownConstraintKind(k) => write!(f, "unknown constraint kind `{k}`"),
            SemIssue::MissingLimit(k) => write!(f, "constraint `{k}` needs a limit"),
            SemIssue::BadMetric { metric, subject } => {
                write!(f, "metric `{metric}` not valid for `{subject}`")
            }
            SemIssue::RuleCycle(names) => {
                write!(f, "rule cycle: {}", names.join(" -> "))
            }
        }
    }
}

/// Validates a system declaration; an empty result means deployable.
#[must_use]
pub fn validate(sys: &SystemDecl) -> Vec<SemIssue> {
    let mut issues = Vec::new();

    // Uniqueness.
    let check_dups = |kind: &'static str, names: Vec<&str>, issues: &mut Vec<SemIssue>| {
        let mut seen = BTreeSet::new();
        for n in names {
            if !seen.insert(n) {
                issues.push(SemIssue::Duplicate {
                    kind,
                    name: n.to_owned(),
                });
            }
        }
    };
    check_dups(
        "node",
        sys.nodes.iter().map(|n| n.name.as_str()).collect(),
        &mut issues,
    );
    check_dups(
        "component",
        sys.components.iter().map(|c| c.name.as_str()).collect(),
        &mut issues,
    );
    check_dups(
        "connector",
        sys.connectors.iter().map(|c| c.name.as_str()).collect(),
        &mut issues,
    );
    check_dups(
        "rule",
        sys.rules.iter().map(|r| r.name.as_str()).collect(),
        &mut issues,
    );

    let node_names: BTreeSet<&str> = sys.nodes.iter().map(|n| n.name.as_str()).collect();
    let comp_names: BTreeSet<&str> = sys.components.iter().map(|c| c.name.as_str()).collect();
    let conn_names: BTreeSet<&str> = sys.connectors.iter().map(|c| c.name.as_str()).collect();

    // Placement + link references.
    for c in &sys.components {
        if let crate::ast::Placement::On(node) = &c.placement {
            if !node_names.contains(node.as_str()) {
                issues.push(SemIssue::UnknownNode(node.clone()));
            }
        }
    }
    for l in &sys.links {
        for end in [&l.a, &l.b] {
            if !node_names.contains(end.as_str()) {
                issues.push(SemIssue::UnknownNode(end.clone()));
            }
        }
    }

    // Bindings.
    let mut used_connectors = BTreeSet::new();
    let mut sources = BTreeSet::new();
    for b in &sys.bindings {
        if !comp_names.contains(b.from.0.as_str()) {
            issues.push(SemIssue::UnknownComponent(b.from.0.clone()));
        }
        for (inst, _) in &b.to {
            if !comp_names.contains(inst.as_str()) {
                issues.push(SemIssue::UnknownComponent(inst.clone()));
            }
        }
        if conn_names.contains(b.via.as_str()) {
            used_connectors.insert(b.via.as_str());
        } else {
            issues.push(SemIssue::UnknownConnector(b.via.clone()));
        }
        if !sources.insert(b.from.clone()) {
            issues.push(SemIssue::DuplicateBindingSource(
                b.from.0.clone(),
                b.from.1.clone(),
            ));
        }
    }
    for c in &sys.connectors {
        if !used_connectors.contains(c.name.as_str()) {
            issues.push(SemIssue::UnusedConnector(c.name.clone()));
        }
    }

    // Constraints.
    for c in &sys.constraints {
        if !CONSTRAINT_KINDS.contains(&c.kind.as_str()) {
            issues.push(SemIssue::UnknownConstraintKind(c.kind.clone()));
            continue;
        }
        let needs_limit = c.kind != "no_sequence_anomalies";
        if needs_limit && c.limit.is_none() {
            issues.push(SemIssue::MissingLimit(c.kind.clone()));
        }
        if c.kind == "max_node_utilization" {
            if !node_names.contains(c.subject.as_str()) {
                issues.push(SemIssue::UnknownNode(c.subject.clone()));
            }
        } else if !comp_names.contains(c.subject.as_str()) {
            issues.push(SemIssue::UnknownComponent(c.subject.clone()));
        }
    }

    // Rules: metric/subject agreement + reference checks.
    for r in &sys.rules {
        let s = r.condition.subject.as_str();
        match Metric::named(&r.condition.metric) {
            Some(MetricOf::Component(_)) if !comp_names.contains(s) => {
                issues.push(SemIssue::UnknownComponent(s.to_owned()));
            }
            Some(MetricOf::Node(_)) if !node_names.contains(s) => {
                issues.push(SemIssue::UnknownNode(s.to_owned()));
            }
            Some(_) => {}
            None => issues.push(SemIssue::BadMetric {
                metric: r.condition.metric.clone(),
                subject: s.to_owned(),
            }),
        }
        match &r.action {
            ActionDecl::Migrate { component, to_node } => {
                if !comp_names.contains(component.as_str()) {
                    issues.push(SemIssue::UnknownComponent(component.clone()));
                }
                if !node_names.contains(to_node.as_str()) {
                    issues.push(SemIssue::UnknownNode(to_node.clone()));
                }
            }
            ActionDecl::Swap { component, .. } => {
                if !comp_names.contains(component.as_str()) {
                    issues.push(SemIssue::UnknownComponent(component.clone()));
                }
            }
            ActionDecl::Notify(_) => {}
        }
    }

    // FLO/C rule-cycle detection.
    if let Some(cycle) = find_rule_cycle(sys) {
        issues.push(SemIssue::RuleCycle(cycle));
    }

    issues
}

/// Subjects a rule's action perturbs: the component it changes, plus (for
/// migrations) the destination node whose utilization it shifts.
fn affected_subjects(action: &ActionDecl) -> Vec<&str> {
    match action {
        ActionDecl::Migrate { component, to_node } => vec![component, to_node],
        ActionDecl::Swap { component, .. } => vec![component],
        ActionDecl::Notify(_) => Vec::new(),
    }
}

/// Finds one rule-trigger cycle, if any: an edge A→B exists when A's action
/// affects the subject B's condition observes.
#[must_use]
pub fn find_rule_cycle(sys: &SystemDecl) -> Option<Vec<String>> {
    let n = sys.rules.len();
    let mut edges: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, a) in sys.rules.iter().enumerate() {
        let affected = affected_subjects(&a.action);
        for (j, b) in sys.rules.iter().enumerate() {
            if affected.contains(&b.condition.subject.as_str()) {
                edges.entry(i).or_default().push(j);
            }
        }
    }

    // Iterative DFS with colors.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];

    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some((u, idx)) = stack.last().copied() {
            let succs = edges.get(&u).map(Vec::as_slice).unwrap_or(&[]);
            if idx < succs.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let v = succs[idx];
                match color[v] {
                    Color::White => {
                        color[v] = Color::Gray;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    Color::Gray => {
                        // Found a cycle: walk back from u to v.
                        let mut cycle = vec![sys.rules[v].name.clone()];
                        let mut cur = u;
                        while cur != v && cur != usize::MAX {
                            cycle.push(sys.rules[cur].name.clone());
                            cur = parent[cur];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[u] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_system;

    fn ok_system() -> SystemDecl {
        parse_system(
            r#"
            system S {
                node n0 { capacity = 100.0; }
                node n1 { capacity = 100.0; }
                link n0 -- n1 { latency_ms = 1.0; }
                component a : A v1 on n0
                component b : B v1 on n1
                connector w { policy direct; }
                bind a.out -> w -> b.in;
                constraint max_mean_latency(b, 50.0);
                rule r1: utilization(n0) > 0.9 implies migrate(a, n1);
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn valid_system_is_clean() {
        assert!(validate(&ok_system()).is_empty());
    }

    #[test]
    fn unknown_references_flagged() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                component a : A v1 on ghost_node
                connector w { policy direct; }
                bind a.out -> w -> ghost_comp.in;
                bind ghost_src.out -> nowire -> a.in;
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(issues.contains(&SemIssue::UnknownNode("ghost_node".into())));
        assert!(issues.contains(&SemIssue::UnknownComponent("ghost_comp".into())));
        assert!(issues.contains(&SemIssue::UnknownComponent("ghost_src".into())));
        assert!(issues.contains(&SemIssue::UnknownConnector("nowire".into())));
    }

    #[test]
    fn duplicates_flagged() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                node n0 { }
                component a : A v1 on n0
                component a : A v1 on n0
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(
            issues
                .iter()
                .filter(|i| matches!(i, SemIssue::Duplicate { .. }))
                .count()
                >= 2
        );
    }

    #[test]
    fn constraint_checks() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                component a : A v1 on n0
                constraint bogus_kind(a, 1.0);
                constraint max_mean_latency(a);
                constraint max_node_utilization(a, 0.5);
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(issues.contains(&SemIssue::UnknownConstraintKind("bogus_kind".into())));
        assert!(issues.contains(&SemIssue::MissingLimit("max_mean_latency".into())));
        assert!(issues.contains(&SemIssue::UnknownNode("a".into())));
    }

    #[test]
    fn bad_metric_flagged() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                component a : A v1 on n0
                rule r: temperature(a) > 50.0 implies notify("hot");
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(issues
            .iter()
            .any(|i| matches!(i, SemIssue::BadMetric { metric, .. } if metric == "temperature")));
    }

    #[test]
    fn metric_subject_kind_mismatch_flagged() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                component a : A v1 on n0
                rule r: latency(n0) > 50.0 implies notify("x");
                rule r2: utilization(a) > 0.5 implies notify("y");
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(issues.contains(&SemIssue::UnknownComponent("n0".into())));
        assert!(issues.contains(&SemIssue::UnknownNode("a".into())));
    }

    #[test]
    fn two_rule_cycle_detected() {
        // r1 migrates `a` when n1 is hot; r2 migrates `b` when `a` is slow;
        // and r1's migration lands on the node r1 observes? Build a direct
        // 2-cycle: r1 affects a, r2 observes a; r2 affects n1, r1 observes n1.
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                node n1 { }
                component a : A v1 on n0
                component b : B v1 on n0
                rule r1: utilization(n1) > 0.9 implies migrate(a, n0);
                rule r2: latency(a) > 10.0 implies migrate(b, n1);
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        let cycle = issues.iter().find_map(|i| match i {
            SemIssue::RuleCycle(c) => Some(c.clone()),
            _ => None,
        });
        let cycle = cycle.expect("cycle found");
        assert!(cycle.contains(&"r1".to_owned()) && cycle.contains(&"r2".to_owned()));
    }

    #[test]
    fn self_loop_detected() {
        // The rule's own action perturbs the subject it observes.
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                node n1 { }
                component a : A v1 on n0
                rule r: latency(a) > 10.0 implies swap(a, A, 2);
            }
            "#,
        )
        .unwrap();
        let issues = validate(&sys);
        assert!(issues
            .iter()
            .any(|i| matches!(i, SemIssue::RuleCycle(c) if c == &vec!["r".to_owned()])));
    }

    #[test]
    fn acyclic_rules_pass() {
        let sys = ok_system();
        assert!(find_rule_cycle(&sys).is_none());
    }

    #[test]
    fn notify_rules_never_cycle() {
        let sys = parse_system(
            r#"
            system S {
                node n0 { }
                component a : A v1 on n0
                rule r1: latency(a) > 10.0 implies notify("one");
                rule r2: latency(a) > 20.0 implies notify("two");
            }
            "#,
        )
        .unwrap();
        assert!(find_rule_cycle(&sys).is_none());
    }
}
