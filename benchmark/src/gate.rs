//! The correctness gate and the simulation fingerprint.
//!
//! Every check reads only what the crates already expose:
//! `RuntimeMetrics`, `observe()`, `kernel_counters()`, `reports()` and
//! the audit log.

use crate::sizes::Workload;
use crate::trial::{Counts, Layer};
use crate::workload::Deployed;
use aas_core::runtime::Runtime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Result of the gate on one trial.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Frames by which offered differs from sunk + dropped + shed + in
    /// handlers, in either direction.
    pub unaccounted: u64,
}

/// How the finished plans split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTally {
    /// `plan_submitted` audit records.
    pub submitted: u64,
    /// Reports with every action committed.
    pub committed: u64,
    /// Reports refused by validation.
    pub rejected: u64,
    /// Reports aborted after they had started.
    pub rolled_back: u64,
}

/// Audit records by kind label.
#[must_use]
pub fn audit_kinds(rt: &Runtime) -> BTreeMap<&'static str, u64> {
    let mut kinds = BTreeMap::new();
    for e in rt.obs().audit.entries() {
        *kinds.entry(e.kind.label()).or_insert(0) += 1;
    }
    kinds
}

/// Tallies submissions (from the audit log) against outcomes (from the
/// reports).
#[must_use]
pub fn plan_tally(rt: &Runtime, kinds: &BTreeMap<&'static str, u64>) -> PlanTally {
    let mut t = PlanTally {
        submitted: kinds.get("plan_submitted").copied().unwrap_or(0),
        ..PlanTally::default()
    };
    for r in rt.reports() {
        match &r.failure {
            None if r.success => t.committed += 1,
            Some(f) if f.starts_with("rejected") => t.rejected += 1,
            _ => t.rolled_back += 1,
        }
    }
    t
}

/// Runs the gate at the end of the drain.
#[must_use]
pub fn check(workload: Workload, d: &Deployed, last: &Counts) -> Verdict {
    let mut v = Verdict::default();
    let mut fail = |line: String| v.failures.push(line);
    let k = |name: &str| last.k.get(name);

    // Frame conservation, as an equality over application frames. A frame
    // takes two hops (into the transcoder, into the sink); on either it is
    // delivered, shed by the admission gate, or dropped (in transit, at a
    // failed instance or down node, or with a crashed host's queue), and
    // `RuntimeMetrics` counts none of the detector's heartbeats under
    // `dropped` or `shed`. The kernel's counters do count heartbeats, a
    // thousand of which are in flight at any instant, so they stay out of
    // the sum: the grace period is long enough that a frame still in
    // transit when it ends is a frame the drain lost.
    let accounted = last.sunk + last.m.dropped + last.m.shed + last.inflight;
    let unaccounted = last.offered.abs_diff(accounted);
    if unaccounted > 0 {
        fail(format!(
            "conservation: {} offered != {} sunk + {} dropped + {} shed + {} in handlers (off by {unaccounted})",
            last.offered, last.sunk, last.m.dropped, last.m.shed, last.inflight
        ));
    }
    if last.offered == 0 {
        fail("no frame was offered".into());
    }

    if !workload.has_faults() && (k("sent") != k("delivered") || k("dropped") != 0) {
        fail(format!(
            "kernel: sent {} != delivered {} (dropped {}) without faults",
            k("sent"),
            k("delivered"),
            k("dropped")
        ));
    }
    // Only application channels are ever blocked, so this holds with
    // heartbeats in flight too.
    if k("held") != k("released") {
        fail(format!(
            "kernel: held {} != released {} after the drain",
            k("held"),
            k("released")
        ));
    }
    if workload.is_lossless() {
        if last.sunk != last.offered {
            fail(format!(
                "goodput: {} of {} frames reached their sink",
                last.sunk, last.offered
            ));
        }
        if last.sink_seq_anomalies != 0 {
            fail(format!(
                "{} sequence anomalies at the sinks",
                last.sink_seq_anomalies
            ));
        }
    }
    if last.m.handler_errors != 0 || last.m.unrouted != 0 {
        fail(format!(
            "{} handler errors, {} unrouted messages",
            last.m.handler_errors, last.m.unrouted
        ));
    }

    // Plan reconciliation: every submission has exactly one outcome.
    let t = plan_tally(&d.rt, &audit_kinds(&d.rt));
    if t.submitted != t.committed + t.rejected + t.rolled_back || d.rt.reconfig_in_progress() {
        fail(format!(
            "plans: {} submitted != {} committed + {} rejected + {} rolled back{}",
            t.submitted,
            t.committed,
            t.rejected,
            t.rolled_back,
            if d.rt.reconfig_in_progress() {
                " (one still executing)"
            } else {
                ""
            }
        ));
    }
    if workload == Workload::ReconfigChurn && (t.committed == 0 || t.rejected == 0) {
        fail(format!(
            "churn: {} plans committed, {} rejected; both kinds must occur",
            t.committed, t.rejected
        ));
    }

    v.unaccounted = unaccounted;
    v
}

/// FNV-1a over the counters, the plan outcomes, the latency histogram and
/// the final configuration graph. Host-independent: two trials of one
/// seed must agree on it exactly.
#[must_use]
pub fn fingerprint(rt: &Runtime, last: &Counts) -> u64 {
    let mut s = String::new();
    let _ = write!(
        s,
        "offered={};sunk={};transcoded={};",
        last.offered, last.sunk, last.transcoded
    );
    for (name, n) in last.k.iter() {
        let _ = write!(s, "k.{name}={n};");
    }
    let m = &last.m;
    let _ = write!(
        s,
        "delivered={};unrouted={};dropped={};errors={};crash={};retries={};shed={};",
        m.delivered, m.unrouted, m.dropped, m.handler_errors, m.dropped_on_crash, m.retries, m.shed
    );
    for (name, h) in [
        ("e2e", &m.e2e_latency),
        ("mttd", &m.mttd_ms),
        ("mttr", &m.mttr_ms),
    ] {
        let _ = write!(
            s,
            "{name}:{}:{:x}:{:x}:{:x}:",
            h.count(),
            h.sum().to_bits(),
            h.min().to_bits(),
            h.max().to_bits()
        );
        for q in [0.5, 0.9, 0.99, 0.999] {
            let _ = write!(s, "{:x},", h.quantile(q).to_bits());
        }
        s.push(';');
    }
    for r in rt.reports() {
        let _ = write!(
            s,
            "r{}:{}:{}:{}:{};",
            r.id.0,
            r.success,
            r.actions_applied,
            r.finished_at.as_micros(),
            r.failure.as_deref().unwrap_or("")
        );
    }
    let _ = write!(s, "rounds={};", rt.negotiation_rounds());
    s.push_str(&rt.graph_fingerprint());
    aas_scenario::trajectory::fnv1a(s.as_bytes())
}

/// Per-layer counts over the whole trial.
pub fn whole_trial_layer(d: &Deployed, last: &Counts, layer: &mut Layer) {
    let rt = &d.rt;
    let k = |name: &str| last.k.get(name) as f64;
    let m = &last.m;
    for (name, v) in [
        ("core.delivered", m.delivered),
        ("core.dropped", m.dropped),
        ("core.unrouted", m.unrouted),
        ("core.shed", m.shed),
        ("core.retries", m.retries),
        ("core.dropped_on_crash", m.dropped_on_crash),
        ("core.handler_errors", m.handler_errors),
        ("telecom.frames_offered", last.offered),
        ("telecom.frames_sunk", last.sunk),
        ("telecom.seq_anomalies", last.sink_seq_anomalies),
    ] {
        layer.insert(name, v as f64);
    }
    for (name, counter) in [
        ("sim.sent", "sent"),
        ("sim.delivered", "delivered"),
        ("sim.dropped", "dropped"),
        ("sim.held", "held"),
        ("sim.released", "released"),
        ("sim.faults_applied", "faults_applied"),
    ] {
        layer.insert(name, k(counter));
    }

    let kinds = audit_kinds(rt);
    let kind = |label: &str| kinds.get(label).copied().unwrap_or(0) as f64;
    let t = plan_tally(rt, &kinds);
    layer.insert("core.exec.submitted", t.submitted as f64);
    layer.insert("core.exec.committed", t.committed as f64);
    layer.insert("core.exec.rejected", t.rejected as f64);
    layer.insert("core.exec.rolled_back", t.rolled_back as f64);
    layer.insert(
        "core.exec.blackout_ms_max",
        rt.reports()
            .iter()
            .map(|r| r.max_blackout().as_micros() as f64 / 1e3)
            .fold(0.0, f64::max),
    );
    // With the detector on, kernel deliveries that were neither handed to
    // a component nor shed are its heartbeats (plus the few frames refused
    // at hand-off by a failed instance or a down node).
    let heartbeats = match d.monitor {
        Some(_) => last.k.get("delivered").saturating_sub(m.delivered + m.shed),
        None => 0,
    };
    layer.insert("core.detect.heartbeats", heartbeats as f64);
    layer.insert("core.detect.suspicions", kind("failure_suspected"));
    layer.insert("core.heal.repairs", m.mttr_ms.count() as f64);
    layer.insert("core.heal.mttd_ms_mean", m.mttd_ms.mean());
    layer.insert("core.heal.mttr_ms_mean", m.mttr_ms.mean());
    layer.insert("core.twin.decisions", kind("twin_predicted"));
    layer.insert("core.negotiate.rounds", rt.negotiation_rounds() as f64);
    layer.insert("core.negotiate.granted", kind("budget_granted"));
    layer.insert("core.negotiate.denied", kind("budget_denied"));
    layer.insert(
        "core.negotiate.jain",
        rt.negotiation_outcome().map_or(
            0.0,
            aas_control::negotiate::NegotiationOutcome::jain_fairness,
        ),
    );
    layer.insert("obs.audit_entries", rt.obs().audit.len() as f64);
}
