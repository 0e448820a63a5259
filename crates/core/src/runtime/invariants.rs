//! The runtime checks its own books (DESIGN.md §2.1, *Invariants*): the
//! one place that says what the plan engine, the heal driver, the twin,
//! the negotiator and the audit log they write must agree on. It reads the
//! log's running [`Books`](aas_obs::Books) and the runtime's own counters,
//! never the log, so a check costs the same however long the run. Debug
//! builds also check after every kernel event and keep what that found
//! apart ([`Runtime::violations_seen`]); release builds never check on the
//! event loop.

use super::*;
use aas_obs::AuditKind as K;
use std::fmt;

/// One item that breaks one of the runtime's invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant, as [`Runtime::check_invariants`] and
    /// [`Runtime::check_settled`] name them.
    pub invariant: &'static str,
    /// The offending item.
    pub detail: String,
    /// When it was seen broken: the time of the check, or, in
    /// [`Runtime::violations_seen`], of the kernel event after which the
    /// check first saw it.
    pub at: SimTime,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

impl Runtime {
    /// What holds between any two events, one [`Violation`] per offending
    /// item: `audit-sequence` (`at_us` never going back);
    /// `plan-numbers` (every plan id reported or in flight);
    /// `plan-records` (each plan's records read submitted, then rejected
    /// or rolled back if it was, then finished as it ended; the finished
    /// ones end as the engine's reports did, and the others are exactly
    /// the plans in flight); `repairs` (each completion planned);
    /// `crash-loss` (the counter is the sum the records state);
    /// `twin-pairs` (each actual predicted, each held prediction
    /// awaited); `negotiation` (each round within budget, each grant and
    /// denial audited). DESIGN.md §2.1 says what each reads. A twin fork,
    /// or a runtime sharing its audit log, does not balance.
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

    /// What the check a debug build runs after every kernel event found:
    /// the first violation of each invariant, dated by that event, kept
    /// even if it has healed since. Empty in a release build, which does
    /// not check on the event loop, and on a twin fork.
    #[must_use]
    pub fn violations_seen(&self) -> &[Violation] {
        self.first_violations.as_deref().unwrap_or_default()
    }

    /// Checks the books after the event at `at`, keeping the first
    /// violation of each invariant.
    #[cfg(debug_assertions)]
    pub(super) fn check_event(&mut self, at: SimTime) {
        if self.first_violations.is_none() {
            return;
        }
        let found = self.check(false);
        if let Some(first) = &mut self.first_violations {
            for v in found {
                if first.iter().all(|f| f.invariant != v.invariant) {
                    first.push(Violation { at, ..v });
                }
            }
        }
    }

    fn check(&self, settled: bool) -> Vec<Violation> {
        let (at, mut found) = (self.now(), Vec::new());
        macro_rules! fail {
            ($invariant:expr, $($detail:tt)+) => {
                found.push(Violation { invariant: $invariant, detail: format!($($detail)+), at })
            };
        }
        let books = self.obs.audit.books();
        for (invariant, first) in [
            ("audit-sequence", books.disordered),
            ("plan-records", books.stray_plan_record),
            ("repairs", books.unplanned_repair),
            ("twin-pairs", books.unpaired_actual),
        ] {
            if let Some(seq) = first {
                fail!(invariant, "record {seq} is the first to break it");
            }
        }

        let (ids, done) = (self.exec.last_id, self.exec.reports.len());
        let open = self.exec.in_flight().count();
        if ids != (done + open) as u64 {
            fail!("plan-numbers", "{ids} ids, {done} ended, {open} in flight");
        }
        let (closed, ended) = (books.closed, self.exec.ended);
        if closed != ended {
            fail!("plan-records", "closed {closed:?}, ended {ended:?}");
        }
        // What is still open is in flight: submitted, nothing more.
        let (open_plans, in_flight) = (&books.open_plans, self.exec.in_flight_ids());
        if !open_plans
            .iter()
            .copied()
            .eq(in_flight.map(|id| (id.0, None)))
        {
            fail!("plan-records", "{open_plans:?} open, {open} in flight");
        }

        let (counted, lost) = (self.m.dropped_on_crash.get(), books.crash_losses);
        if counted != lost {
            fail!("crash-loss", "counted {counted}, audited {lost}");
        }
        for (node, incident) in &self.meta().heal.incidents {
            let awaited = incident.queued && books.predicted.contains(&node.0);
            if incident.prediction.is_some() && !awaited {
                fail!("twin-pairs", "{node}'s incident holds a stale prediction");
            }
        }

        let transcript = &self.meta().negotiate.transcript;
        for round in &transcript.over_budget {
            let (epoch, granted, budget) = (round.epoch, &round.total_granted, &round.budget);
            fail!("negotiation", "epoch {epoch}: [{granted}] over [{budget}]");
        }
        for (kind, n) in [
            (K::BudgetGranted, transcript.grants),
            (K::BudgetDenied, transcript.denials),
        ] {
            if books.count(kind) != n {
                fail!(
                    "negotiation",
                    "{} {}; transcript {n}",
                    books.count(kind),
                    kind.label()
                );
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
            let (n, m) = (books.count(opened), books.count(closed));
            if n != m {
                fail!(invariant, "{n} {}, {m} {}", opened.label(), closed.label());
            }
        }
        if let Some(suspected) = self
            .meta()
            .detector
            .as_ref()
            .map(|d| d.detector.suspected())
        {
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
    use crate::detector::DetectorConfig;
    use crate::heal::RepairPolicy;
    use aas_control::negotiate::{NegotiationOutcome, ResourceVector};
    use aas_obs::AuditEvent as E;
    use aas_sim::fault::FaultSchedule;
    use std::collections::BTreeSet;

    /// A seeded storm that writes every kind of book: `svc` on node 2
    /// serves a stream and a burst the crash of node 2 (1–3 s) catches in
    /// service; the twin picks failover and the repair commits; the
    /// negotiator arbitrates throughout, the twin one of its agents; a
    /// user migration commits and a plan naming nobody is rejected.
    fn storm() -> Runtime {
        let mut rt = storm_brewing();
        rt.run_until(SimTime::from_secs(10));
        rt
    }

    /// [`storm`], not yet run.
    fn storm_brewing() -> Runtime {
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
            let (log, now) = (&rt.obs().audit, rt.now().as_micros());
            let (at, forged) = match invariant {
                "audit-sequence" => (
                    0,
                    E::PlanValidated {
                        plan: 1,
                        actions: 1,
                    },
                ),
                "plan-records" => (
                    now,
                    E::PlanFinished {
                        plan: 1,
                        committed: true,
                    },
                ),
                "repairs" => (
                    now,
                    E::RepairCompleted {
                        plan: Some(99),
                        node: 2,
                        mttr_ms: None,
                    },
                ),
                // One job more than the counter holds.
                "crash-loss" => (
                    now,
                    E::DroppedOnCrash {
                        instance: "svc".into(),
                        jobs: 1,
                        node: 2,
                    },
                ),
                "twin-pairs" => (now, twin_actual_of(3)),
                "negotiation" => (now, granted_to("svc")),
                "channels" => (
                    now,
                    E::ChannelBlocked {
                        plan: 1,
                        channel: 0,
                        target: "aux".into(),
                    },
                ),
                "suspicion" => (now, E::FailureSuspected { node: 1, phi: 9.0 }),
                _ => unreachable!("one forgery per invariant"),
            };
            log.append(at, forged);
            let found = rt.check_settled();
            let named: BTreeSet<_> = found.iter().map(|v| v.invariant).collect();
            assert_eq!(named, BTreeSet::from([invariant]), "{found:?}");
        }
    }

    /// A round that granted past its budget is named by its epoch, also
    /// once later rounds have run within theirs.
    #[test]
    fn a_round_over_its_budget_is_named_by_its_epoch() {
        let mut rt = storm();
        let budget = NegotiateConfig::default().budget;
        let total_granted = ResourceVector {
            capacity: 2.0 * budget.capacity,
            ..budget
        };
        rt.meta_mut().negotiate.record(NegotiationOutcome {
            epoch: 999,
            model_fingerprint: 0,
            budget,
            grants: Vec::new(),
            denied: Vec::new(),
            total_granted,
        });
        rt.run_until(SimTime::from_secs(11));
        let found = rt.check_invariants();
        let named: Vec<_> = found
            .iter()
            .map(|v| (v.invariant, v.detail.split(':').next()))
            .collect();
        assert_eq!(named, [("negotiation", Some("epoch 999"))], "{found:?}");
    }

    fn twin_actual_of(node: u32) -> E {
        E::TwinActual {
            policy: "failover-migrate",
            node,
            mttr_ms: None,
            predicted_mttr_ms: 0.0,
            predicted_availability: 1.0,
        }
    }

    fn granted_to(agent: &'static str) -> E {
        E::BudgetGranted {
            epoch: 1,
            agent: agent.into(),
            granted: [0.0; 4],
            fraction: 1.0,
        }
    }

    #[test]
    fn a_forgery_between_two_events_is_named_at_the_next_in_a_debug_build() {
        let mut rt = storm_brewing();
        rt.run_until(SimTime::from_secs(5));
        let forged = E::PlanFinished {
            plan: 1,
            committed: true,
        };
        rt.obs().audit.append(rt.now().as_micros(), forged);
        let next = rt.step().expect("the storm goes on");
        rt.run_until(SimTime::from_secs(10));
        let dated =
            |found: &[Violation]| -> Vec<_> { found.iter().map(|v| (v.invariant, v.at)).collect() };
        assert_eq!(dated(&rt.check_settled()), [("plan-records", rt.now())]);
        let seen = if cfg!(debug_assertions) {
            vec![("plan-records", next)]
        } else {
            Vec::new()
        };
        assert_eq!(dated(rt.violations_seen()), seen);
    }
}
