//! The runtime checks its own books (DESIGN.md §2.1, *Invariants*): the
//! one place that says what the plan engine, the heal driver, the twin,
//! the negotiator and the audit log they write must agree on. Nothing on
//! the event loop calls it.

use super::*;
use aas_obs::AuditKind as K;
use std::collections::BTreeSet;
use std::fmt;

/// One item that breaks one of the runtime's invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant, as [`Runtime::check_invariants`] and
    /// [`Runtime::check_settled`] name them.
    pub invariant: &'static str,
    /// The offending item.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

impl Runtime {
    /// What holds between any two events, one [`Violation`] per offending
    /// item: `audit-sequence` (gap-free `seq`, `at_us` never going back);
    /// `plan-numbers` (every plan id reported or in flight);
    /// `plan-records` (each report's plan submitted once, then rejected
    /// or rolled back if it was, then finished as it says; every other
    /// plan submitted and in flight — so submitted = committed +
    /// rejected + rolled back + in flight); `repairs` (each completion
    /// planned); `crash-loss` (the counter is the sum the records state,
    /// each record states one); `twin-pairs` (each actual predicted, each
    /// held prediction awaited); `negotiation` (each round within budget,
    /// each grant and denial audited). DESIGN.md §2.1 says what each
    /// reads. A twin fork, or a runtime sharing its audit log, does not
    /// balance.
    #[must_use]
    pub fn check_invariants(&self) -> Vec<Violation> {
        self.check(false)
    }

    /// [`Runtime::check_invariants`], plus what holds once the runtime is
    /// quiet: `drained` (no plan active or queued, so every submitted
    /// plan has finished); `channels` (every `channel_blocked`
    /// released); `suspicion` (the detector suspects nothing, every
    /// `failure_suspected` cleared); and `convergence` (every instance
    /// `Active` on a node that is up).
    #[must_use]
    pub fn check_settled(&self) -> Vec<Violation> {
        self.check(true)
    }

    fn check(&self, settled: bool) -> Vec<Violation> {
        let mut found = Vec::new();
        macro_rules! fail {
            ($invariant:expr, $($detail:tt)+) => {
                found.push(Violation { invariant: $invariant, detail: format!($($detail)+) })
            };
        }
        let log = self.obs.audit.entries();
        let count = |kind| log.iter().filter(|e| e.kind == kind).count();
        // Each plan's life in the log, as (kind, outcome is "success").
        let mut lives: BTreeMap<&str, Vec<(K, bool)>> = BTreeMap::new();
        let (mut planned, mut predicted) = (BTreeSet::new(), BTreeSet::new());
        let mut lost = 0;
        for (i, e) in log.iter().enumerate() {
            if e.seq != i as u64 || (i > 0 && e.at_us < log[i - 1].at_us) {
                fail!("audit-sequence", "record {i} is out of order");
            }
            match e.kind {
                K::PlanSubmitted | K::PlanRejected | K::PlanRolledBack | K::PlanFinished => {
                    let record = (e.kind, e.outcome == "success");
                    lives.entry(&e.plan).or_default().push(record);
                }
                K::RepairPlanned => _ = planned.insert(&e.plan),
                K::RepairCompleted if !planned.contains(&e.plan) => {
                    fail!("repairs", "{} completed an unplanned repair", e.plan);
                }
                K::TwinPredicted => _ = predicted.insert(&e.subject),
                K::TwinActual if !predicted.remove(&e.subject) => {
                    fail!("twin-pairs", "{} has an unpaired twin_actual", e.subject);
                }
                K::DroppedOnCrash => {
                    match e.outcome.split_whitespace().next().map(str::parse::<u64>) {
                        Some(Ok(n)) => lost += n,
                        _ => fail!("crash-loss", "record {i} reads {:?}", e.outcome),
                    }
                }
                _ => {}
            }
        }

        let (ids, done) = (self.exec.last_id, self.exec.reports.len());
        let open = self.exec.in_flight().count();
        if ids != (done + open) as u64 {
            fail!("plan-numbers", "{ids} ids, {done} ended, {open} in flight");
        }
        let submitted = (K::PlanSubmitted, false);
        for r in &self.exec.reports {
            let id = r.id.to_string();
            let life = lives.remove(id.as_str()).unwrap_or_default();
            let rejected = matches!(&r.failure, Some(f) if f.starts_with("rejected:"));
            let finished = (K::PlanFinished, r.success);
            let expected = match (r.success, rejected) {
                (true, _) => vec![submitted, finished],
                (false, true) => vec![submitted, (K::PlanRejected, false), finished],
                (false, false) => vec![submitted, (K::PlanRolledBack, false), finished],
            };
            if life != expected {
                fail!("plan-records", "{id} ({:?}) reads {life:?}", r.failure);
            }
        }
        // What is left is in flight: submitted, nothing more.
        let unfinished = lives.values().filter(|life| life[..] == [submitted]);
        if lives.len() != open || unfinished.count() != open {
            fail!("plan-records", "{lives:?} unreported, {open} in flight");
        }

        let counted = self.m.dropped_on_crash.get();
        if counted != lost {
            fail!("crash-loss", "counted {counted}, audited {lost}");
        }
        for (node, incident) in &self.heal.incidents {
            let awaited = incident.queued && predicted.contains(&node.to_string());
            if incident.prediction.is_some() && !awaited {
                fail!("twin-pairs", "{node}'s incident holds a stale prediction");
            }
        }

        let history = self.negotiation_history();
        for round in history.iter().filter(|r| !r.within_budget()) {
            let (epoch, granted, budget) = (round.epoch, &round.total_granted, &round.budget);
            fail!("negotiation", "epoch {epoch}: [{granted}] over [{budget}]");
        }
        let grants = history.iter().flat_map(|r| &r.grants);
        let grants = grants.filter(|g| g.agent != TWIN_AGENT).count();
        let denials = history.iter().map(|r| r.denied.len()).sum();
        for (kind, n) in [(K::BudgetGranted, grants), (K::BudgetDenied, denials)] {
            let audited = count(kind);
            if audited != n {
                fail!("negotiation", "{audited} {}; transcript {n}", kind.label());
            }
        }

        if !settled {
            return found;
        }
        if open > 0 {
            fail!("drained", "{open} plans in flight");
        }
        for (invariant, opened, closed) in [
            ("channels", K::ChannelBlocked, K::ChannelReleased),
            ("suspicion", K::FailureSuspected, K::FailureCleared),
        ] {
            let (n, m) = (count(opened), count(closed));
            if n != m {
                fail!(invariant, "{n} {}, {m} {}", opened.label(), closed.label());
            }
        }
        if let Some(suspected) = self.detector.as_ref().map(|d| d.detector.suspected()) {
            if !suspected.is_empty() {
                fail!("suspicion", "still suspected: {suspected:?}");
            }
        }
        for inst in self.instances.values() {
            if inst.lifecycle != Lifecycle::Active {
                fail!("convergence", "`{}` is {:?}", inst.name, inst.lifecycle);
            }
            if !self.kernel.topology().node(inst.node).is_up() {
                fail!("convergence", "`{}` is on down {}", inst.name, inst.node);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::EchoComponent;
    use aas_sim::fault::FaultSchedule;

    /// A seeded storm that writes every kind of book: `svc` on node 2
    /// serves a stream and a burst the crash of node 2 (1–3 s) catches in
    /// service; the twin picks failover and the repair commits; the
    /// negotiator arbitrates throughout, the twin one of its agents; a
    /// user migration commits and a plan naming nobody is rejected.
    fn storm() -> Runtime {
        let topo = Topology::clique(4, 1000.0, SimDuration::from_millis(2), 1e7);
        let mut registry = ImplementationRegistry::new();
        registry.register("Echo", 1, |_| Box::new(EchoComponent::default()));
        let mut rt = Runtime::new(topo, 11, registry);
        let mut cfg = Configuration::new();
        cfg.component("svc", ComponentDecl::new("Echo", 1, NodeId(2)));
        cfg.component("aux", ComponentDecl::new("Echo", 1, NodeId(1)));
        rt.deploy(&cfg).expect("deploy");
        rt.set_fail_stop(true);
        rt.set_repair_policy(RepairPolicy::FailoverMigrate);
        let detector = DetectorConfig::new(SimDuration::from_millis(50), 2.0, NodeId(0));
        rt.enable_failure_detector(detector);
        rt.enable_twin(TwinConfig::default());
        rt.enable_negotiation(NegotiateConfig::default());
        let mut faults = FaultSchedule::new();
        faults.node_outage(NodeId(2), SimTime::from_secs(1), SimTime::from_secs(3));
        rt.inject_faults(faults);
        for (i, at) in (0..400).map(|i| 10 * i).chain([995; 20]).enumerate() {
            let echo = Message::request("echo", Value::Int(i as i64));
            rt.inject_after(SimDuration::from_millis(at), "svc", echo)
                .expect("inject");
        }
        for name in ["aux", "ghost"] {
            let to = NodeId(3);
            rt.request_reconfig(ReconfigPlan::single(ReconfigAction::Migrate {
                name: name.into(),
                to,
            }));
        }
        rt.run_until(SimTime::from_secs(10));
        rt
    }

    #[test]
    fn a_clean_storm_balances_and_each_forged_record_names_its_invariant() {
        let rt = storm();
        let wrote = |kind| !rt.obs().audit.of_kind(kind).is_empty();
        assert!(wrote(K::PlanRejected) && wrote(K::RepairCompleted));
        assert!(wrote(K::DroppedOnCrash) && wrote(K::TwinActual));
        assert!(wrote(K::BudgetGranted));
        assert_eq!(rt.check_settled(), []);

        for invariant in [
            "audit-sequence",
            "plan-records",
            "repairs",
            "crash-loss",
            "twin-pairs",
            "negotiation",
            "channels",
            "suspicion",
        ] {
            let rt = storm();
            let (log, at) = (&rt.obs().audit, rt.now().as_micros());
            match invariant {
                "audit-sequence" => log.plan_validated("reconfig1", "1 actions", 0),
                "plan-records" => log.plan_finished("reconfig1", "success", at),
                "repairs" => log.repair_completed("reconfig99", "node2", "", at),
                "crash-loss" => log.dropped_on_crash("svc", "garbage", at),
                "twin-pairs" => log.twin_actual("failover", "node3", "", at),
                "negotiation" => log.budget_granted("epoch-1", "svc", "", at),
                "channels" => log.channel_blocked("reconfig1", "ch=0 -> aux", at),
                "suspicion" => log.failure_suspected("node1", "phi=9", at),
                _ => unreachable!("one forgery per invariant"),
            }
            let found = rt.check_settled();
            let named: BTreeSet<_> = found.iter().map(|v| v.invariant).collect();
            assert_eq!(named, BTreeSet::from([invariant]), "{found:?}");
        }
    }
}
