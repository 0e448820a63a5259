//! JSONL and human-table exporters for metrics, coverage cells and audit
//! logs.
//!
//! JSON is rendered by hand (the values are flat: strings, integers,
//! floats), which keeps the exporters dependency-free and the output
//! stable enough to diff in tests. Every exporter returns a `String`;
//! callers decide where it goes.

use crate::audit::AuditEntry;
use crate::metrics::MetricsSnapshot;
use std::borrow::Borrow;
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 as a JSON number (`null` for non-finite values).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Renders a metrics snapshot as JSONL: one object per metric.
///
/// Counters emit `{"type":"counter","name":…,"value":…}`, gauges likewise,
/// and histograms a summary line with count/mean/min/max and the standard
/// percentiles.
///
/// # Examples
///
/// ```
/// use aas_obs::{export, MetricsRegistry};
///
/// let reg = MetricsRegistry::new();
/// reg.counter("sent").add(2);
/// let jsonl = export::metrics_jsonl(&reg.snapshot());
/// assert_eq!(jsonl, "{\"type\":\"counter\",\"name\":\"sent\",\"value\":2}\n");
/// ```
#[must_use]
pub fn metrics_jsonl(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            escape(name)
        );
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            escape(name),
            num(*v)
        );
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
            escape(name),
            h.count(),
            num(h.mean()),
            num(h.min()),
            num(h.max()),
            num(h.p50()),
            num(h.p90()),
            num(h.p99()),
            num(h.p999()),
        );
    }
    out
}

/// Renders adaptation-coverage cells as JSONL: one object per cell, in
/// the caller's (sorted, stable) order, so coverage regressions across
/// PRs show up as line diffs. Each row is `(cell key, visit count,
/// reachable-per-model flag)` — `aas-core`'s
/// `AdaptationCoverage::export_rows` produces exactly this shape,
/// including zero-count rows for reachable-but-unvisited cells.
///
/// # Examples
///
/// ```
/// use aas_obs::export;
///
/// let rows = vec![("steady/failover/observed".to_owned(), 3, true)];
/// assert_eq!(
///     export::coverage_jsonl(&rows),
///     "{\"type\":\"coverage_cell\",\"cell\":\"steady/failover/observed\",\"count\":3,\"reachable\":true}\n"
/// );
/// ```
#[must_use]
pub fn coverage_jsonl(rows: &[(String, u64, bool)]) -> String {
    let mut out = String::new();
    for (cell, count, reachable) in rows {
        let _ = writeln!(
            out,
            "{{\"type\":\"coverage_cell\",\"cell\":\"{}\",\"count\":{count},\"reachable\":{reachable}}}",
            escape(cell)
        );
    }
    out
}

/// Renders audit entries as JSONL, one object per entry, in the order
/// given: a slice of entries, or an audit log's `entries()` read in place.
#[must_use]
pub fn audit_jsonl(entries: impl IntoIterator<Item = impl Borrow<AuditEntry>>) -> String {
    let mut out = String::new();
    for e in entries {
        let e = e.borrow();
        let [plan, subject, outcome] = e.texts();
        let _ = writeln!(
            out,
            "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"plan\":\"{}\",\"subject\":\"{}\",\"outcome\":\"{}\"}}",
            e.seq,
            e.at_us,
            e.kind.label(),
            escape(&plan),
            escape(&subject),
            escape(&outcome),
        );
    }
    out
}

/// Renders a metrics snapshot as an aligned human-readable table.
#[must_use]
pub fn metrics_table(snap: &MetricsSnapshot) -> String {
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$}  value", "name");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "{name:<width$}  {v}");
    }
    for (name, v) in &snap.gauges {
        let _ = writeln!(out, "{name:<width$}  {v:.3}");
    }
    for (name, h) in &snap.histograms {
        let _ = writeln!(
            out,
            "{name:<width$}  n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
            h.count(),
            h.mean(),
            h.p50(),
            h.p99(),
            h.max(),
        );
    }
    out
}

/// Renders audit entries as an aligned human-readable table, in the
/// order given.
#[must_use]
pub fn audit_table(entries: impl IntoIterator<Item = impl Borrow<AuditEntry>>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>10}  {:<16}  {:<12}  subject / outcome",
        "seq", "at_us", "kind", "plan"
    );
    for e in entries {
        let e = e.borrow();
        let [plan, subject, outcome] = e.texts();
        let _ = writeln!(
            out,
            "{:>4}  {:>10}  {:<16}  {:<12}  {}{}",
            e.seq,
            e.at_us,
            e.kind.label(),
            if plan.is_empty() { "-" } else { &plan },
            subject,
            if outcome.is_empty() {
                String::new()
            } else {
                format!(" [{outcome}]")
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditEvent, AuditLog};
    use crate::metrics::MetricsRegistry;

    #[test]
    fn metrics_jsonl_is_line_per_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("a").incr();
        reg.gauge("b").set(1.5);
        reg.histogram("c").observe(10.0);
        let jsonl = metrics_jsonl(&reg.snapshot());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[1].contains("\"value\":1.5"));
        assert!(lines[2].contains("\"count\":1"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn strings_are_escaped() {
        let log = AuditLog::new();
        let reason = "p\"1\" line\nbreak".to_owned();
        log.append(0, AuditEvent::PlanRejected { plan: 1, reason });
        let jsonl = audit_jsonl(log.entries());
        assert!(jsonl.contains("p\\\"1\\\""));
        assert!(jsonl.contains("line\\nbreak"));
    }

    #[test]
    fn tables_render_every_row() {
        let reg = MetricsRegistry::new();
        reg.counter("delivered").add(7);
        reg.histogram("lat").observe(3.0);
        let table = metrics_table(&reg.snapshot());
        assert!(table.contains("delivered"));
        assert!(table.contains("n=1"));

        let log = AuditLog::new();
        log.append(
            0,
            AuditEvent::PlanSubmitted {
                plan: 1,
                actions: 1,
            },
        );
        log.append(
            1,
            AuditEvent::PlanFinished {
                plan: 1,
                committed: true,
            },
        );
        let table = audit_table(log.entries());
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("[success]"));
    }
}
