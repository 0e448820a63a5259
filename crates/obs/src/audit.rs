//! Append-only reconfiguration audit log: typed at append, stored as
//! bytes, rendered on read.
//!
//! Dynamic reconfiguration is the riskiest thing this system does to
//! itself, so every step leaves a record: plan submission, each applied
//! action and its outcome, channel blocks and releases around quiescence,
//! rollbacks, and plan completion. The log is append-only and queryable,
//! which is what lets tests assert that a reconfiguration did *exactly*
//! what its plan said — no missed actions, no phantom ones.
//!
//! A record is typed where it is appended: its [`AuditEvent`] holds what
//! the writer already has — plan ids and epochs as integers, node and
//! channel numbers, counts, the `f64`s behind grants, phi, MTTR and twin
//! scores, shared [`Name`]s, and a failure reason or rendered action moved
//! in rather than copied. Every append folds the typed record into the
//! log's [`Books`], the running tally an invariant checker reads instead
//! of the log, so a check costs the same at the millionth record as at
//! the first; then the record is stored encoded as bytes.
//!
//! A stored record is a kind byte and its timestamp and integers as
//! LEB128 varints; each `f64` is its 8 raw bytes, each string or name its
//! varint length and UTF-8, each `&'static str` (a policy or denial
//! reason) a varint index into the log's table of the distinct ones it
//! has seen. With a 3 B timestamp and 2 B plan ids, a `plan_submitted`
//! or a committed `plan_finished` is 7 B, a `failure_suspected` 13 B, a
//! `channel_blocked` 9 B and its name's bytes, an `action_applied` or a
//! `plan_rejected` 7 B and its text's, a `budget_denied` 8 B and a
//! `budget_granted` 47 B and their agent's name's. A failed
//! `plan_finished` also stores where its plan's `plan_rejected` or
//! `plan_rolled_back` sits (3-5 B), so it reads that reason without
//! searching back. The bytes fill chunks that never move, from
//! 256 B growing four-fold to 256 KiB, so a short log holds one small
//! chunk, a long one leaves at most one chunk's slack, and a log opens
//! chunks no more often than a doubling vector of records would grow.
//!
//! Reading hands out [`AuditEntry`]s decoded one at a time; their `plan`
//! / `subject` / `outcome` texts are rendered only when asked for.

use crate::Name;
use std::borrow::Borrow;
use std::fmt::{self, Write};
use std::ops::Deref;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// Declares [`AuditKind`] with its labels and [`AuditEvent`], whose
/// variant of each kind carries that kind's typed fields.
macro_rules! audit_kinds {
    ($($(#[doc = $doc:literal])+ $kind:ident $label:literal { $($field:ident: $ty:ty),* })+) => {
        /// What an audit entry records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum AuditKind {
            $($(#[doc = $doc])+ $kind,)+
        }

        impl AuditKind {
            /// How many kinds there are.
            pub const COUNT: usize = [$($label),+].len();

            /// Stable lowercase label for exports.
            #[must_use]
            pub fn label(self) -> &'static str {
                match self {
                    $(AuditKind::$kind => $label,)+
                }
            }
        }

        /// What one record says, typed as its writer had it. Read back as
        /// text, a `plan` id `7` is `reconfig7` (`None`: `-`), a `node` `2`
        /// is `node2` and an `epoch` `3` is `epoch-3`.
        #[derive(Debug, Clone, PartialEq)]
        pub enum AuditEvent {
            $($(#[doc = $doc])+ $kind { $($field: $ty),* },)+
        }

        impl AuditEvent {
            /// The record's kind.
            #[must_use]
            pub fn kind(&self) -> AuditKind {
                match self {
                    $(AuditEvent::$kind { .. } => AuditKind::$kind,)+
                }
            }

            /// Encodes the fields, in declaration order.
            fn put_fields(&self, w: &mut Writer<'_, impl Sink>) {
                match self {
                    $(AuditEvent::$kind { $($field),* } => { $($field.put(w);)* })+
                }
            }

            /// Decodes the fields of a record of `kind`.
            fn take_fields(kind: AuditKind, r: &mut Reader<'_>) -> Option<Self> {
                match kind {
                    $(AuditKind::$kind => Some(AuditEvent::$kind {
                        $($field: Field::take(r)?),*
                    }),)+
                }
            }
        }

        /// Every kind, indexed by its stored byte.
        const KINDS: [AuditKind; AuditKind::COUNT] = [$(AuditKind::$kind),+];
    };
}

audit_kinds! {
    /// A reconfiguration plan of `actions` actions was submitted.
    PlanSubmitted "plan_submitted" { plan: u64, actions: u64 }
    /// One action of a plan was applied.
    ActionApplied "action_applied" { plan: u64, action: String }
    /// A plan finished; a failed one reads the reason of the plan's last
    /// `plan_rejected` or `plan_rolled_back` before it that no earlier
    /// failed `plan_finished` of the plan has read.
    PlanFinished "plan_finished" { plan: u64, committed: bool }
    /// A plan passed up-front validation and may begin mutating.
    PlanValidated "plan_validated" { plan: u64, actions: u64 }
    /// A plan was rejected by up-front validation before any mutation.
    PlanRejected "plan_rejected" { plan: u64, reason: String }
    /// A plan aborted mid-flight and its applied actions were compensated.
    PlanRolledBack "plan_rolled_back" { plan: u64, compensated: u64, reason: String }
    /// One applied action was undone by replaying its compensating inverse.
    ActionCompensated "action_compensated" { plan: u64, action: String }
    /// A channel into `target` was blocked for quiescence.
    ChannelBlocked "channel_blocked" { plan: u64, channel: u64, target: Name }
    /// A blocked channel was released (`target: None`: as it closed).
    ChannelReleased "channel_released" { plan: u64, channel: u64, target: Option<Name> }
    /// A failure detector began suspecting a node, at suspicion `phi`.
    FailureSuspected "failure_suspected" { node: u32, phi: f64 }
    /// A previously suspected node was seen alive again.
    FailureCleared "failure_cleared" { node: u32 }
    /// A repair policy chose a plan in response to a suspected failure.
    RepairPlanned "repair_planned" { node: u32, policy: &'static str, by: RepairBy }
    /// A repair completed and service was restored (`plan: None`: by a
    /// connector), `mttr_ms` after the node's crash if it had crashed.
    RepairCompleted "repair_completed" { plan: Option<u64>, node: u32, mttr_ms: Option<f64> }
    /// Jobs in service on `instance` were discarded as `node` crashed.
    DroppedOnCrash "dropped_on_crash" { instance: Name, jobs: u64, node: u32 }
    /// A digital-twin fork predicted the outcome of a repair plan before
    /// it was committed to the mainline.
    TwinPredicted "twin_predicted" { policy: &'static str, node: u32, availability: f64, mttr_ms: f64 }
    /// The actual, measured outcome of a twin-verified repair; pairs with
    /// the matching [`AuditKind::TwinPredicted`] entry so prediction error
    /// is reconcilable from the log alone.
    TwinActual "twin_actual" {
        policy: &'static str, node: u32, mttr_ms: Option<f64>,
        predicted_mttr_ms: f64, predicted_availability: f64
    }
    /// The negotiation coordinator granted an agent the vector `granted`
    /// (capacity, work rate, retry budget, twin horizon).
    BudgetGranted "budget_granted" { epoch: u64, agent: Name, granted: [f64; 4], fraction: f64 }
    /// The negotiation coordinator denied an agent's request for a
    /// machine-readable reason ("every agent gets its floor or an audited
    /// deny").
    BudgetDenied "budget_denied" { epoch: u64, agent: Name, reason: &'static str }
    /// An outstanding grant was invalidated and queued for renegotiation
    /// because plan `trigger` committed mid-tick for the agent's node.
    BudgetRenegotiated "budget_renegotiated" { epoch: u64, agent: Name, trigger: Option<u64> }
}

/// How a repair is carried out: by plan `id` of `actions` actions, or by
/// adapting the named connector in place, which files no plan.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairBy {
    Plan { id: u64, actions: u64 },
    Connector(String),
}

/// Where encoded bytes go: a chunk, or a count of how many there are.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Encodes one record into `out`, interning its `&'static str`s.
struct Writer<'a, S> {
    out: &'a mut S,
    statics: &'a mut Vec<&'static str>,
}

impl<S: Sink> Writer<'_, S> {
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.put(&[v as u8 | 0x80]);
            v >>= 7;
        }
        self.out.put(&[v as u8]);
    }

    fn text(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.put(s.as_bytes());
    }
}

/// Decodes the records of one chunk.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    statics: &'a [&'static str],
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let bytes = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(bytes)
    }

    fn byte(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
        }
        None
    }

    fn len(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok()
    }

    fn text(&mut self) -> Option<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.bytes(n)?).ok()
    }
}

/// A field of an [`AuditEvent`], as it is stored.
trait Field: Sized {
    fn put(&self, w: &mut Writer<'_, impl Sink>);
    fn take(r: &mut Reader<'_>) -> Option<Self>;
}

impl Field for u64 {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.varint(*self);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        r.varint()
    }
}

impl Field for u32 {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.varint(u64::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        u32::try_from(r.varint()?).ok()
    }
}

impl Field for bool {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.out.put(&[u8::from(*self)]);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        Some(r.byte()? != 0)
    }
}

impl Field for f64 {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.out.put(&self.to_bits().to_le_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        let bits = r.bytes(8)?.try_into().ok()?;
        Some(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Field for [f64; 4] {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        self.iter().for_each(|v| v.put(w));
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        Some([f64::take(r)?, f64::take(r)?, f64::take(r)?, f64::take(r)?])
    }
}

impl Field for String {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.text(self);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        r.text().map(str::to_owned)
    }
}

impl Field for Name {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.text(self);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        r.text().map(|s| Name::from(s.to_owned()))
    }
}

impl Field for &'static str {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        let i = match w.statics.iter().position(|s| s == self) {
            Some(i) => i,
            None => {
                w.statics.push(self);
                w.statics.len() - 1
            }
        };
        w.varint(i as u64);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        let i = r.len()?;
        r.statics.get(i).copied()
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        match bool::take(r)? {
            true => T::take(r).map(Some),
            false => Some(None),
        }
    }
}

impl Field for RepairBy {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        match self {
            RepairBy::Plan { id, actions } => {
                false.put(w);
                id.put(w);
                actions.put(w);
            }
            RepairBy::Connector(name) => {
                true.put(w);
                name.put(w);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        match bool::take(r)? {
            false => Some(RepairBy::Plan {
                id: r.varint()?,
                actions: r.varint()?,
            }),
            true => String::take(r).map(RepairBy::Connector),
        }
    }
}

/// Where a stored record starts: its chunk and its offset in it.
#[derive(Debug, Clone, Copy, Default)]
struct Pos {
    chunk: usize,
    at: usize,
}

impl Field for Pos {
    fn put(&self, w: &mut Writer<'_, impl Sink>) {
        w.varint(self.chunk as u64);
        w.varint(self.at as u64);
    }
    fn take(r: &mut Reader<'_>) -> Option<Self> {
        Some(Pos {
            chunk: r.len()?,
            at: r.len()?,
        })
    }
}

/// Encodes a record: its kind, `at_us`, its fields and, for a failed
/// `plan_finished`, where its plan's failing record sits.
fn encode(at_us: u64, event: &AuditEvent, why: Option<Pos>, w: &mut Writer<'_, impl Sink>) {
    w.out.put(&[event.kind() as u8]);
    at_us.put(w);
    event.put_fields(w);
    if fails(event) {
        why.put(w);
    }
}

/// A `plan_finished` that did not commit: it reads its plan's reason.
fn fails(event: &AuditEvent) -> bool {
    matches!(
        event,
        AuditEvent::PlanFinished {
            committed: false,
            ..
        }
    )
}

/// One decoded record: its timestamp, its event and, for a failed
/// `plan_finished`, where its plan's failing record sits.
fn decode(r: &mut Reader<'_>) -> Option<(u64, AuditEvent, Option<Pos>)> {
    let kind = *KINDS.get(usize::from(r.byte()?))?;
    let at_us = r.varint()?;
    let event = AuditEvent::take_fields(kind, r)?;
    let why = if fails(&event) { Field::take(r)? } else { None };
    Some((at_us, event, why))
}

/// One record as read. It holds the typed [`AuditEvent`]; its `plan`,
/// `subject` and `outcome` texts are rendered only when asked for, as the
/// runtime's writers wrote them before records were typed.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// Position in the log (0-based, gap-free).
    pub seq: u64,
    /// Caller-supplied timestamp in microseconds (sim time).
    pub at_us: u64,
    /// Record kind.
    pub kind: AuditKind,
    /// What the record says.
    pub event: AuditEvent,
    /// A failed `plan_finished`: the reason its plan's last
    /// `plan_rejected` (after `rejected: `) or `plan_rolled_back` gave.
    why: Option<Box<str>>,
}

impl AuditEntry {
    /// The `plan`, `subject` and `outcome` texts.
    #[must_use]
    pub fn texts(&self) -> [String; 3] {
        let mut texts = <[String; 3]>::default();
        let _ = self.event.write_texts(self.why.as_deref(), &mut texts);
        texts
    }

    /// The plan the record belongs to (`reconfig7`; a twin's policy; a
    /// negotiation `epoch-3`; `-` for a repair filing no plan); empty for
    /// records outside any plan.
    #[must_use]
    pub fn plan(&self) -> String {
        let [plan, ..] = self.texts();
        plan
    }

    /// The subject: an action, a channel, a node, an agent.
    #[must_use]
    pub fn subject(&self) -> String {
        let [_, subject, _] = self.texts();
        subject
    }

    /// The outcome (`ok`, `success`, a reason, a measurement); may be empty.
    #[must_use]
    pub fn outcome(&self) -> String {
        let [.., outcome] = self.texts();
        outcome
    }
}

impl AuditEvent {
    /// Appends the `plan`, `subject` and `outcome` texts; `why` is the
    /// reason a failed `plan_finished` gives.
    fn write_texts(&self, why: Option<&str>, [p, s, o]: &mut [String; 3]) -> fmt::Result {
        use AuditEvent as E;
        match self {
            E::PlanSubmitted { plan, actions } | E::PlanValidated { plan, actions } => {
                write!(p, "reconfig{plan}")?;
                write!(s, "{actions} actions")
            }
            E::ActionApplied { plan, action } | E::ActionCompensated { plan, action } => {
                write!(p, "reconfig{plan}")?;
                s.push_str(action);
                o.push_str("ok");
                Ok(())
            }
            E::PlanFinished { plan, committed } => {
                write!(p, "reconfig{plan}")?;
                o.push_str(if *committed { "success" } else { "failed" });
                why.iter().try_for_each(|why| write!(o, ": {why}"))
            }
            E::PlanRejected { plan, reason } => {
                write!(p, "reconfig{plan}")?;
                o.push_str(reason);
                Ok(())
            }
            E::PlanRolledBack {
                plan,
                compensated,
                reason,
            } => {
                write!(p, "reconfig{plan}")?;
                write!(s, "{compensated} compensated")?;
                o.push_str(reason);
                Ok(())
            }
            E::ChannelBlocked {
                plan,
                channel,
                target,
            } => write!(p, "reconfig{plan}").and(write!(s, "ch={channel} -> {target}")),
            E::ChannelReleased {
                plan,
                channel,
                target,
            } => {
                write!(p, "reconfig{plan}")?;
                match target {
                    Some(target) => write!(s, "ch={channel} -> {target}"),
                    None => write!(s, "ch={channel} (closed)"),
                }
            }
            E::FailureSuspected { node, phi } => {
                write!(s, "node{node}").and(write!(o, "phi={phi:.2}"))
            }
            E::FailureCleared { node } => write!(s, "node{node}"),
            E::RepairPlanned { node, policy, by } => {
                write!(s, "node{node}")?;
                match by {
                    RepairBy::Plan { id, actions } => {
                        write!(p, "reconfig{id}")?;
                        write!(o, "{policy}: {actions} actions")
                    }
                    RepairBy::Connector(name) => {
                        p.push('-');
                        write!(o, "{policy}: adapt connector `{name}`")
                    }
                }
            }
            E::RepairCompleted {
                plan,
                node,
                mttr_ms,
            } => {
                match plan {
                    Some(id) => write!(p, "reconfig{id}")?,
                    None => p.push('-'),
                }
                write!(s, "node{node}")?;
                match mttr_ms {
                    Some(mttr) => write!(o, "mttr_ms={mttr:.3}"),
                    None => write!(o, "repaired"),
                }
            }
            E::DroppedOnCrash {
                instance,
                jobs,
                node,
            } => {
                s.push_str(instance);
                write!(o, "{jobs} in-flight jobs lost in crash of node{node}")
            }
            E::TwinPredicted {
                policy,
                node,
                availability,
                mttr_ms,
            } => {
                p.push_str(policy);
                write!(s, "node{node}")?;
                write!(o, "availability={availability:.4} mttr_ms={mttr_ms:.3}")
            }
            E::TwinActual {
                policy,
                node,
                mttr_ms,
                predicted_mttr_ms: mttr,
                predicted_availability: availability,
            } => {
                p.push_str(policy);
                write!(s, "node{node}")?;
                match mttr_ms {
                    Some(actual) => write!(o, "actual_mttr_ms={actual:.3}")?,
                    None => o.push_str("actual_mttr_ms=na"),
                }
                write!(
                    o,
                    " predicted_mttr_ms={mttr:.3} predicted_availability={availability:.4}"
                )
            }
            E::BudgetGranted {
                epoch,
                agent,
                granted: [cap, rate, retry, twin],
                fraction,
            } => {
                write!(p, "epoch-{epoch}")?;
                s.push_str(agent);
                write!(
                    o,
                    "[cap={cap:.6} rate={rate:.6} retry={retry:.6} twin={twin:.6}]"
                )?;
                write!(o, " fraction={fraction:.6}")
            }
            E::BudgetDenied {
                epoch,
                agent,
                reason,
            } => {
                write!(p, "epoch-{epoch}")?;
                s.push_str(agent);
                o.push_str(reason);
                Ok(())
            }
            E::BudgetRenegotiated {
                epoch,
                agent,
                trigger,
            } => {
                write!(p, "epoch-{epoch}")?;
                s.push_str(agent);
                match trigger {
                    Some(id) => write!(o, "plan reconfig{id} committed"),
                    None => write!(o, "plan - committed"),
                }
            }
        }
    }
}

/// How plans ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanTally {
    /// Every action committed.
    pub committed: u64,
    /// Refused by validation.
    pub rejected: u64,
    /// Aborted and compensated.
    pub rolled_back: u64,
}

/// What the records add up to, folded in as each is appended: the books
/// an invariant checker reads instead of the log. A finished plan leaves
/// only counts behind; a record that breaks a rule of the fold leaves its
/// `seq`, if it is the first to break that rule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Books {
    /// Records of each kind, by [`AuditKind`]: see [`Books::count`].
    counts: [u64; AuditKind::COUNT],
    /// The first record timestamped before the record ahead of it.
    pub disordered: Option<u64>,
    /// Plans submitted and not finished, in submission order, each with
    /// the `plan_rejected` or `plan_rolled_back` recorded for it, if any.
    pub open_plans: Vec<(u64, Option<AuditKind>)>,
    /// How the finished plans ended, as their records say.
    pub closed: PlanTally,
    /// The first plan record out of place in its plan's life: a second
    /// submission, a rejection or rollback of a plan not simply
    /// submitted, a finish of no open plan or not as it was failing.
    pub stray_plan_record: Option<u64>,
    /// The first `repair_completed` naming no repair about to complete.
    pub unplanned_repair: Option<u64>,
    /// Jobs the `dropped_on_crash` records say were lost.
    pub crash_losses: u64,
    /// Nodes with a `twin_predicted` no `twin_actual` has paired yet.
    pub predicted: Vec<u32>,
    /// The first `twin_actual` pairing no prediction.
    pub unpaired_actual: Option<u64>,
    last_at_us: u64,
    last_submitted: u64,
    /// The plan that finished last: one that ends at submission finishes
    /// before its repair is planned.
    last_finished: Option<(u64, bool)>,
    /// Repairs planned (`None`: by a connector) whose plan has not failed,
    /// until their `repair_completed`.
    repairs_due: Vec<Option<u64>>,
}

impl Books {
    /// Records of `kind` appended so far.
    #[must_use]
    pub fn count(&self, kind: AuditKind) -> u64 {
        self.counts[kind as usize]
    }

    fn fold(&mut self, seq: u64, at_us: u64, event: &AuditEvent) {
        use AuditEvent as E;
        self.counts[event.kind() as usize] += 1;
        if at_us < self.last_at_us {
            self.disordered.get_or_insert(seq);
        }
        self.last_at_us = at_us;
        match *event {
            E::PlanSubmitted { plan, .. } if plan > self.last_submitted => {
                self.last_submitted = plan;
                self.open_plans.push((plan, None));
            }
            E::PlanRejected { plan, .. } | E::PlanRolledBack { plan, .. } => {
                match self.open_plans.iter_mut().find(|(id, _)| *id == plan) {
                    Some((_, failing @ None)) => *failing = Some(event.kind()),
                    _ => _ = self.stray_plan_record.get_or_insert(seq),
                }
            }
            E::PlanFinished { plan, committed } => {
                let open = self.open_plans.iter().position(|(id, _)| *id == plan);
                let closed = &mut self.closed;
                match (open.map(|i| self.open_plans.remove(i).1), committed) {
                    (Some(None), true) => closed.committed += 1,
                    (Some(Some(AuditKind::PlanRejected)), false) => closed.rejected += 1,
                    (Some(Some(AuditKind::PlanRolledBack)), false) => closed.rolled_back += 1,
                    _ => _ = self.stray_plan_record.get_or_insert(seq),
                }
                if !committed {
                    self.repairs_due.retain(|due| *due != Some(plan));
                }
                self.last_finished = Some((plan, committed));
            }
            E::PlanSubmitted { .. } => _ = self.stray_plan_record.get_or_insert(seq),
            E::RepairPlanned { ref by, .. } => match *by {
                RepairBy::Plan { id, .. } if self.last_finished == Some((id, false)) => {}
                RepairBy::Plan { id, .. } => self.repairs_due.push(Some(id)),
                RepairBy::Connector(_) => self.repairs_due.push(None),
            },
            E::RepairCompleted { plan, .. } => {
                match self.repairs_due.iter().position(|due| *due == plan) {
                    Some(i) => _ = self.repairs_due.swap_remove(i),
                    None => _ = self.unplanned_repair.get_or_insert(seq),
                }
            }
            E::DroppedOnCrash { jobs, .. } => self.crash_losses += jobs,
            E::TwinPredicted { node, .. } if !self.predicted.contains(&node) => {
                self.predicted.push(node);
            }
            E::TwinActual { node, .. } => match self.predicted.iter().position(|n| *n == node) {
                Some(i) => _ = self.predicted.swap_remove(i),
                None => _ = self.unpaired_actual.get_or_insert(seq),
            },
            _ => {}
        }
    }
}

/// The books of a log nothing has been appended to.
static NO_BOOKS: LazyLock<Books> = LazyLock::new(Books::default);

/// The first chunk's size, and the cap each next chunk's four-fold
/// growth stops at. Below the cap a log opens a chunk half as often as a
/// doubling vector of its records would grow; past it, its slack is at
/// most one chunk.
const FIRST_CHUNK: usize = 256;
const CHUNK_CAP: usize = 256 << 10;

#[derive(Debug, Default)]
struct Log {
    /// The chunk records are appended to. A record never spans two
    /// chunks, and no chunk grows past the capacity it was made with, so
    /// stored bytes never move.
    open: Vec<u8>,
    /// The chunks filled before `open`, oldest first.
    full: Vec<Vec<u8>>,
    /// Records stored.
    len: usize,
    /// The distinct `&'static str`s recorded, in order first seen.
    statics: Vec<&'static str>,
    /// Plans with a `plan_rejected` or `plan_rolled_back` no failed
    /// `plan_finished` has read yet, and where the latest of them sits.
    failing: Vec<(u64, Pos)>,
    books: Books,
}

impl Log {
    /// Stores `event` after the last record.
    fn push(&mut self, at_us: u64, event: &AuditEvent) {
        use AuditEvent as E;
        let why = match *event {
            E::PlanFinished {
                plan,
                committed: false,
            } => {
                let failing = self.failing.iter().position(|(id, _)| *id == plan);
                failing.map(|i| self.failing.swap_remove(i).1)
            }
            _ => None,
        };
        let statics = &mut self.statics;
        let mut size = 0;
        let out = &mut size;
        encode(at_us, event, why, &mut Writer { out, statics });
        if self.open.capacity() - self.open.len() < size {
            let next = match self.open.capacity() {
                0 => FIRST_CHUNK,
                full => (full * 4).min(CHUNK_CAP),
            };
            let filled = std::mem::replace(&mut self.open, Vec::with_capacity(next.max(size)));
            if !filled.is_empty() {
                self.full.push(filled);
            }
        }
        let here = Pos {
            chunk: self.full.len(),
            at: self.open.len(),
        };
        let out = &mut self.open;
        encode(at_us, event, why, &mut Writer { out, statics });
        self.len += 1;
        if let E::PlanRejected { plan, .. } | E::PlanRolledBack { plan, .. } = *event {
            match self.failing.iter_mut().find(|(id, _)| *id == plan) {
                Some((_, at)) => *at = here,
                None => self.failing.push((plan, here)),
            }
        }
    }

    fn chunk(&self, i: usize) -> Option<&[u8]> {
        match self.full.get(i) {
            Some(chunk) => Some(chunk),
            None => (i == self.full.len()).then_some(&self.open),
        }
    }

    fn reader(&self, at: Pos) -> Option<Reader<'_>> {
        Some(Reader {
            bytes: self.chunk(at.chunk)?,
            at: at.at,
            statics: &self.statics,
        })
    }

    /// The record under `cursor`, as read; moves `cursor` past it.
    fn read(&self, cursor: &mut Cursor) -> Option<AuditEntry> {
        if cursor.seq == self.len {
            return None;
        }
        let mut r = self.reader(cursor.at)?;
        let (at_us, event, why) = decode(&mut r)?;
        let why = why.and_then(|at| match decode(&mut self.reader(at)?)?.1 {
            AuditEvent::PlanRejected { reason, .. } => Some(format!("rejected: {reason}").into()),
            AuditEvent::PlanRolledBack { reason, .. } => Some(reason.into()),
            _ => None,
        });
        let entry = AuditEntry {
            seq: cursor.seq as u64,
            at_us,
            kind: event.kind(),
            event,
            why,
        };
        cursor.seq += 1;
        cursor.at.at = r.at;
        if r.at == r.bytes.len() {
            cursor.at = Pos {
                chunk: cursor.at.chunk + 1,
                at: 0,
            };
        }
        Some(entry)
    }
}

/// How far a reader of the log has come.
#[derive(Debug, Clone, Default)]
struct Cursor {
    seq: usize,
    at: Pos,
}

/// Shared append-only audit log.
///
/// # Examples
///
/// ```
/// use aas_obs::{AuditEvent, AuditKind, AuditLog};
///
/// let log = AuditLog::new();
/// log.append(100, AuditEvent::PlanSubmitted { plan: 1, actions: 1 });
/// let action = "swap-implementation filter".to_owned();
/// log.append(150, AuditEvent::ActionApplied { plan: 1, action });
/// log.append(200, AuditEvent::PlanFinished { plan: 1, committed: true });
///
/// let p1 = log.for_plan("reconfig1");
/// assert_eq!(p1.len(), 3);
/// assert_eq!(p1[1].kind, AuditKind::ActionApplied);
/// assert_eq!(p1[2].outcome(), "success");
/// assert_eq!(log.books().closed.committed, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuditLog {
    /// `None` until the first append: a log nothing writes to, such as a
    /// twin fork's, carries no books.
    log: Arc<Mutex<Option<Box<Log>>>>,
}

impl AuditLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        AuditLog::default()
    }

    fn lock(&self) -> MutexGuard<'_, Option<Box<Log>>> {
        self.log.lock().expect("audit log poisoned")
    }

    /// Appends `event`, timestamped `at_us`, and folds it into the books.
    /// The record is encoded from a borrow, so a writer may pass
    /// `&event` and keep the event's text for its next record.
    pub fn append(&self, at_us: u64, event: impl Borrow<AuditEvent>) {
        let event = event.borrow();
        let mut log = self.lock();
        let log = log.get_or_insert_with(Box::default);
        log.books.fold(log.len as u64, at_us, event);
        log.push(at_us, event);
    }

    /// The books, read under the log's lock: append nothing while holding
    /// them.
    #[must_use]
    pub fn books(&self) -> impl Deref<Target = Books> + '_ {
        struct Held<'a>(MutexGuard<'a, Option<Box<Log>>>);
        impl Deref for Held<'_> {
            type Target = Books;
            fn deref(&self) -> &Books {
                self.0.as_ref().map_or(&NO_BOOKS, |log| &log.books)
            }
        }
        Held(self.lock())
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().as_ref().map_or(0, |log| log.len)
    }

    /// True when the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries, in append order, read in place under the log's lock:
    /// append nothing while holding them. Each is rendered as it is
    /// reached, so reading the whole log copies one record at a time.
    #[must_use]
    pub fn entries(&self) -> Entries<'_> {
        Entries(self.lock())
    }

    /// The entries whose event `keep` accepts, in append order, in a
    /// vector no longer than they are.
    fn select(&self, mut keep: impl FnMut(&AuditEvent) -> bool) -> Vec<AuditEntry> {
        let entries = self.entries();
        let mut kept = Vec::with_capacity(entries.iter().filter(|e| keep(&e.event)).count());
        kept.extend(entries.iter().filter(|e| keep(&e.event)));
        kept
    }

    /// The entries whose plan text is `plan`, in append order.
    #[must_use]
    pub fn for_plan(&self, plan: &str) -> Vec<AuditEntry> {
        let mut texts = <[String; 3]>::default();
        self.select(|event| {
            texts.iter_mut().for_each(String::clear);
            let _ = event.write_texts(None, &mut texts);
            texts[0] == plan
        })
    }

    /// The entries of a given kind, in append order.
    #[must_use]
    pub fn of_kind(&self, kind: AuditKind) -> Vec<AuditEntry> {
        self.select(|event| event.kind() == kind)
    }
}

/// An audit log's entries, read in place: the view holds the log's lock,
/// so append nothing while holding it. Iterating renders one
/// [`AuditEntry`] at a time.
///
/// # Examples
///
/// ```
/// use aas_obs::{AuditEvent, AuditKind, AuditLog};
///
/// let log = AuditLog::new();
/// log.append(0, AuditEvent::FailureCleared { node: 1 });
/// log.append(5, AuditEvent::FailureCleared { node: 2 });
/// let mut cleared = 0;
/// for e in log.entries() {
///     cleared += u32::from(e.kind == AuditKind::FailureCleared);
/// }
/// assert_eq!(cleared, 2);
/// assert_eq!(log.entries().iter().nth(1).map(|e| e.at_us), Some(5));
/// ```
#[derive(Debug)]
pub struct Entries<'a>(MutexGuard<'a, Option<Box<Log>>>);

impl Entries<'_> {
    fn log(&self) -> Option<&Log> {
        self.0.as_deref()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log().map_or(0, |log| log.len)
    }

    /// True when the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in append order, each rendered as it is reached.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            log: self.log(),
            cursor: Cursor::default(),
        }
    }
}

/// Iterator over an [`Entries`] view.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    log: Option<&'a Log>,
    cursor: Cursor,
}

impl Iterator for Iter<'_> {
    type Item = AuditEntry;

    fn next(&mut self) -> Option<AuditEntry> {
        self.log?.read(&mut self.cursor)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.log.map_or(0, |log| log.len) - self.cursor.seq;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Entries<'_> {
    type Item = AuditEntry;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The owning iterator of an [`Entries`] view: it holds the log's lock
/// until it is dropped.
#[derive(Debug)]
pub struct IntoIter<'a> {
    entries: Entries<'a>,
    cursor: Cursor,
}

impl Iterator for IntoIter<'_> {
    type Item = AuditEntry;

    fn next(&mut self) -> Option<AuditEntry> {
        self.entries.log()?.read(&mut self.cursor)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.entries.len() - self.cursor.seq;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IntoIter<'_> {}

impl<'a> IntoIterator for Entries<'a> {
    type Item = AuditEntry;
    type IntoIter = IntoIter<'a>;

    fn into_iter(self) -> IntoIter<'a> {
        IntoIter {
            entries: self,
            cursor: Cursor::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AuditEvent as E;
    use AuditKind as K;

    fn log_of(events: impl IntoIterator<Item = AuditEvent>) -> AuditLog {
        let log = AuditLog::new();
        for (at, event) in events.into_iter().enumerate() {
            log.append(at as u64, event);
        }
        log
    }

    /// The last of `events` reads `texts` as `plan`, `subject`, `outcome`.
    fn renders(events: Vec<AuditEvent>, texts: [&str; 3]) {
        let (kind, n) = (events.last().expect("an event").kind(), events.len());
        let log = log_of(events);
        let entries = log.entries();
        assert_eq!((entries.len(), entries.iter().len()), (n, n));
        let last = entries.iter().last().expect("an entry");
        assert_eq!(last.kind, kind);
        assert_eq!(last.texts(), texts);
    }

    // One test per kind, each pinning the texts the runtime's writers
    // produced before records were typed.
    macro_rules! rendering {
        ($($test:ident: [$($event:expr),+] => $texts:expr;)+) => {$(
            #[test]
            fn $test() {
                renders(vec![$($event),+], $texts);
            }
        )+};
    }

    rendering! {
        plan_submitted_renders: [E::PlanSubmitted { plan: 3, actions: 2 }]
            => ["reconfig3", "2 actions", ""];
        plan_validated_renders: [E::PlanValidated { plan: 3, actions: 1 }]
            => ["reconfig3", "1 actions", ""];
        action_applied_renders: [E::ActionApplied {
            plan: 12,
            action: "migrate tc3 -> node2".into(),
        }] => ["reconfig12", "migrate tc3 -> node2", "ok"];
        plan_finished_renders: [
            E::PlanRejected { plan: 4, reason: "unknown component `ghost1`".into() },
            E::PlanRolledBack { plan: 5, compensated: 1, reason: "target node crashed".into() },
            E::PlanFinished { plan: 4, committed: false }
        ] => ["reconfig4", "", "failed: rejected: unknown component `ghost1`"];
        plan_rejected_renders: [E::PlanRejected {
            plan: 4,
            reason: "unknown component `ghost1`".into(),
        }] => ["reconfig4", "", "unknown component `ghost1`"];
        plan_rolled_back_renders: [E::PlanRolledBack {
            plan: 5,
            compensated: 2,
            reason: "target node crashed".into(),
        }] => ["reconfig5", "2 compensated", "target node crashed"];
        action_compensated_renders: [E::ActionCompensated {
            plan: 5,
            action: "migrate coder -> node1".into(),
        }] => ["reconfig5", "migrate coder -> node1", "ok"];
        channel_blocked_renders: [E::ChannelBlocked {
            plan: 7,
            channel: 14,
            target: "tc3".into(),
        }] => ["reconfig7", "ch=14 -> tc3", ""];
        channel_released_renders: [
            E::ChannelReleased { plan: 7, channel: 14, target: Some("tc3".into()) },
            E::ChannelReleased { plan: 7, channel: 15, target: None }
        ] => ["reconfig7", "ch=15 (closed)", ""];
        failure_suspected_renders: [E::FailureSuspected { node: 2, phi: 3.251 }]
            => ["", "node2", "phi=3.25"];
        failure_cleared_renders: [E::FailureCleared { node: 2 }] => ["", "node2", ""];
        repair_planned_renders: [
            E::RepairPlanned {
                node: 2,
                policy: "failover-migrate",
                by: RepairBy::Connector("wire".into()),
            },
            E::RepairPlanned {
                node: 2,
                policy: "failover-migrate",
                by: RepairBy::Plan { id: 9, actions: 1 },
            }
        ] => ["reconfig9", "node2", "failover-migrate: 1 actions"];
        repair_completed_renders: [
            E::RepairCompleted { plan: Some(9), node: 2, mttr_ms: None },
            E::RepairCompleted { plan: Some(9), node: 2, mttr_ms: Some(412.0) }
        ] => ["reconfig9", "node2", "mttr_ms=412.000"];
        dropped_on_crash_renders: [E::DroppedOnCrash {
            instance: "svc".into(),
            jobs: 3,
            node: 2,
        }] => ["", "svc", "3 in-flight jobs lost in crash of node2"];
        twin_predicted_renders: [E::TwinPredicted {
            policy: "restart-in-place",
            node: 2,
            availability: 0.75,
            mttr_ms: 1750.25,
        }] => ["restart-in-place", "node2", "availability=0.7500 mttr_ms=1750.250"];
        twin_actual_renders: [E::TwinActual {
            policy: "failover-migrate",
            node: 2,
            mttr_ms: Some(310.5),
            predicted_mttr_ms: 300.0,
            predicted_availability: 1.0,
        }] => [
            "failover-migrate",
            "node2",
            "actual_mttr_ms=310.500 predicted_mttr_ms=300.000 predicted_availability=1.0000",
        ];
        budget_granted_renders: [E::BudgetGranted {
            epoch: 3,
            agent: "gold".into(),
            granted: [0.5, 40.0, 1.25, 0.0],
            fraction: 2.0 / 3.0,
        }] => [
            "epoch-3",
            "gold",
            "[cap=0.500000 rate=40.000000 retry=1.250000 twin=0.000000] fraction=0.666667",
        ];
        budget_denied_renders: [E::BudgetDenied {
            epoch: 3,
            agent: "bronze".into(),
            reason: "floor-unsatisfiable",
        }] => ["epoch-3", "bronze", "floor-unsatisfiable"];
        budget_renegotiated_renders: [
            E::BudgetRenegotiated { epoch: 0, agent: "svc".into(), trigger: None },
            E::BudgetRenegotiated { epoch: 3, agent: "svc".into(), trigger: Some(7) }
        ] => ["epoch-3", "svc", "plan reconfig7 committed"];
    }

    #[test]
    fn the_other_branches_render_as_their_writers_did() {
        let rolled_back = log_of([
            E::PlanSubmitted {
                plan: 5,
                actions: 1,
            },
            E::PlanRolledBack {
                plan: 5,
                compensated: 1,
                reason: "migrate coder: node down".into(),
            },
            E::PlanFinished {
                plan: 5,
                committed: false,
            },
            E::PlanFinished {
                plan: 6,
                committed: true,
            },
            E::ChannelReleased {
                plan: 6,
                channel: 14,
                target: Some("tc3".into()),
            },
            E::RepairPlanned {
                node: 2,
                policy: "failover-migrate",
                by: RepairBy::Connector("wire".into()),
            },
            E::RepairCompleted {
                plan: None,
                node: 2,
                mttr_ms: None,
            },
            E::TwinActual {
                policy: "restart-in-place",
                node: 1,
                mttr_ms: None,
                predicted_mttr_ms: 0.0,
                predicted_availability: 0.5,
            },
            E::BudgetRenegotiated {
                epoch: 0,
                agent: "svc".into(),
                trigger: None,
            },
        ]);
        let outcomes: Vec<_> = rolled_back
            .entries()
            .into_iter()
            .map(|e| e.texts())
            .collect();
        assert_eq!(
            outcomes[2..],
            [
                ["reconfig5", "", "failed: migrate coder: node down"],
                ["reconfig6", "", "success"],
                ["reconfig6", "ch=14 -> tc3", ""],
                ["-", "node2", "failover-migrate: adapt connector `wire`"],
                ["-", "node2", "repaired"],
                [
                    "restart-in-place",
                    "node1",
                    "actual_mttr_ms=na predicted_mttr_ms=0.000 predicted_availability=0.5000"
                ],
                ["epoch-0", "svc", "plan - committed"],
            ]
            .map(|texts| texts.map(str::to_owned))
        );
    }

    /// The `f64`s an event holds, as bits: `PartialEq` cannot tell a NaN's
    /// payload or the sign of a zero.
    fn f64_bits(event: &AuditEvent) -> Vec<u64> {
        let values = match *event {
            E::FailureSuspected { phi, .. } => vec![phi],
            E::RepairCompleted { mttr_ms, .. } => mttr_ms.into_iter().collect(),
            E::TwinPredicted {
                availability,
                mttr_ms,
                ..
            } => vec![availability, mttr_ms],
            E::TwinActual {
                mttr_ms,
                predicted_mttr_ms,
                predicted_availability,
                ..
            } => mttr_ms
                .into_iter()
                .chain([predicted_mttr_ms, predicted_availability])
                .collect(),
            E::BudgetGranted {
                granted, fraction, ..
            } => granted.into_iter().chain([fraction]).collect(),
            _ => Vec::new(),
        };
        values.into_iter().map(f64::to_bits).collect()
    }

    /// Every kind, each `Option` and `RepairBy` arm, at the edges of its
    /// fields' ranges; the last three are the `plan_finished`s.
    fn edge_events(long: &str) -> Vec<AuditEvent> {
        let nan = f64::from_bits(0x7ff4_dead_beef_0001);
        let subnormal = f64::from_bits(1);
        let (max, node) = (u64::MAX, u32::MAX);
        vec![
            E::PlanSubmitted {
                plan: max,
                actions: max,
            },
            E::ActionApplied {
                plan: 0,
                action: String::new(),
            },
            E::ActionApplied {
                plan: max,
                action: long.into(),
            },
            E::PlanValidated {
                plan: max,
                actions: 0,
            },
            E::PlanRejected {
                plan: max,
                reason: long.into(),
            },
            E::PlanRolledBack {
                plan: 1,
                compensated: max,
                reason: String::new(),
            },
            E::ActionCompensated {
                plan: max,
                action: "\u{e9}\u{1f600}".into(),
            },
            E::ChannelBlocked {
                plan: max,
                channel: max,
                target: Name::from(long.to_owned()),
            },
            E::ChannelReleased {
                plan: max,
                channel: max,
                target: Some("".into()),
            },
            E::ChannelReleased {
                plan: 0,
                channel: 0,
                target: None,
            },
            E::FailureSuspected { node, phi: -0.0 },
            E::FailureSuspected { node: 0, phi: nan },
            E::FailureCleared { node },
            E::RepairPlanned {
                node,
                policy: "",
                by: RepairBy::Plan {
                    id: max,
                    actions: max,
                },
            },
            E::RepairPlanned {
                node: 0,
                policy: "failover-migrate",
                by: RepairBy::Connector(long.into()),
            },
            E::RepairPlanned {
                node: 1,
                policy: "",
                by: RepairBy::Connector(String::new()),
            },
            E::RepairCompleted {
                plan: Some(max),
                node,
                mttr_ms: Some(f64::INFINITY),
            },
            E::RepairCompleted {
                plan: None,
                node: 0,
                mttr_ms: None,
            },
            E::DroppedOnCrash {
                instance: "\u{7bc0}".into(),
                // Below `u64::MAX`: the books add up the jobs of every round.
                jobs: max >> 8,
                node,
            },
            E::TwinPredicted {
                policy: "restart-in-place",
                node,
                availability: subnormal,
                mttr_ms: f64::NEG_INFINITY,
            },
            E::TwinActual {
                policy: "failover-migrate",
                node,
                mttr_ms: Some(-subnormal),
                predicted_mttr_ms: nan,
                predicted_availability: -0.0,
            },
            E::TwinActual {
                policy: "restart-in-place",
                node: 0,
                mttr_ms: None,
                predicted_mttr_ms: f64::MAX,
                predicted_availability: f64::MIN_POSITIVE,
            },
            E::BudgetGranted {
                epoch: max,
                agent: Name::from(long.to_owned()),
                granted: [-0.0, nan, f64::INFINITY, subnormal],
                fraction: -nan,
            },
            E::BudgetDenied {
                epoch: max,
                agent: "".into(),
                reason: "floor-unsatisfiable",
            },
            E::BudgetDenied {
                epoch: 0,
                agent: "gold".into(),
                reason: "",
            },
            E::BudgetRenegotiated {
                epoch: max,
                agent: "svc".into(),
                trigger: Some(max),
            },
            E::BudgetRenegotiated {
                epoch: 0,
                agent: "svc".into(),
                trigger: None,
            },
            E::PlanFinished {
                plan: max,
                committed: false,
            },
            E::PlanFinished {
                plan: 1,
                committed: false,
            },
            E::PlanFinished {
                plan: max,
                committed: true,
            },
        ]
    }

    /// Stored as bytes, every field reads back as it was appended, the
    /// `f64`s bit for bit, over enough rounds to fill several chunks; a
    /// failed `plan_finished` reads its plan's reason wherever it sits.
    #[test]
    fn every_kind_reads_back_bit_for_bit() {
        let long = "cha\u{ee}ne \u{2192} \u{7bc0}\u{70b9} ".repeat(12);
        assert!(long.len() > 127, "a two-byte length");
        let events = edge_events(&long);
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind() as usize).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, (0..AuditKind::COUNT).collect::<Vec<_>>());
        let (log, rounds) = (AuditLog::new(), 40);
        for round in 0..rounds {
            for event in events.clone() {
                log.append(u64::MAX - rounds + round, event);
            }
        }
        let chunks = log.lock().as_ref().map_or(0, |log| log.full.len() + 1);
        assert!(chunks > 4, "{chunks} chunks");
        let entries = log.entries();
        assert_eq!(entries.len(), events.len() * rounds as usize);
        let finished = events.len() - 3;
        for (i, read) in entries.iter().enumerate() {
            let (round, wrote) = (i / events.len(), &events[i % events.len()]);
            let at_us = u64::MAX - rounds + round as u64;
            assert_eq!(
                (read.seq, read.at_us, read.kind),
                (i as u64, at_us, wrote.kind())
            );
            assert_eq!(format!("{:?}", read.event), format!("{wrote:?}"));
            assert_eq!(f64_bits(&read.event), f64_bits(wrote), "{wrote:?}");
            let outcome = read.outcome();
            match (i % events.len()).checked_sub(finished) {
                Some(0) => assert_eq!(outcome, format!("failed: rejected: {long}")),
                Some(1) => assert_eq!(outcome, "failed: "),
                _ => {}
            }
        }
    }

    /// A record costs its encoded bytes: a kind byte, varints, the raw
    /// bits of each `f64` and the text of each string or name. Here every
    /// timestamp is 3 B and every plan id 2 B.
    #[test]
    fn a_stored_record_is_its_encoded_bytes() {
        let sized = [
            (
                E::PlanSubmitted {
                    plan: 4_500,
                    actions: 1,
                },
                7,
            ),
            (
                E::ChannelBlocked {
                    plan: 4_500,
                    channel: 9_000,
                    target: "tc12".into(),
                },
                13,
            ),
            (
                E::ActionApplied {
                    plan: 4_500,
                    action: "migrate tc12 -> node3".into(),
                },
                28,
            ),
            (
                E::PlanFinished {
                    plan: 4_500,
                    committed: true,
                },
                7,
            ),
            (
                E::PlanRejected {
                    plan: 4_501,
                    reason: "unknown component `g`".into(),
                },
                28,
            ),
            (
                E::PlanFinished {
                    plan: 4_501,
                    committed: false,
                },
                10,
            ),
            (E::FailureSuspected { node: 2, phi: 3.5 }, 13),
            (
                E::BudgetDenied {
                    epoch: 480,
                    agent: "gold".into(),
                    reason: "floor",
                },
                12,
            ),
            (
                E::BudgetGranted {
                    epoch: 480,
                    agent: "gold".into(),
                    granted: [1.0; 4],
                    fraction: 1.0,
                },
                51,
            ),
        ];
        let log = AuditLog::new();
        for (event, _) in &sized {
            log.append(1_000_000, event.clone());
        }
        let stored = log
            .lock()
            .as_ref()
            .map(|log| (log.full.len(), log.open.len()));
        let total = sized.iter().map(|(_, bytes)| bytes).sum();
        assert_eq!(stored, Some((0, total)));
        let failed = log.entries().iter().nth(5).map(|e| e.outcome());
        assert_eq!(
            failed.as_deref(),
            Some("failed: rejected: unknown component `g`")
        );
    }

    /// What a reader of the whole log allocates a record for.
    #[test]
    fn an_entry_as_read_is_its_record_and_a_reason() {
        assert!(std::mem::size_of::<AuditEntry>() <= 112);
    }

    #[test]
    fn sequence_numbers_are_gap_free_and_queries_filter() {
        let log = log_of([
            E::PlanSubmitted {
                plan: 1,
                actions: 1,
            },
            E::PlanSubmitted {
                plan: 2,
                actions: 0,
            },
            E::ActionApplied {
                plan: 1,
                action: "bind a b".into(),
            },
            E::PlanFinished {
                plan: 1,
                committed: true,
            },
        ]);
        for (i, e) in log.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert_eq!(log.for_plan("reconfig1").len(), 3);
        assert_eq!(log.for_plan("reconfig2").len(), 1);
        assert!(log.for_plan("reconfig").is_empty());
        assert!(log.for_plan("reconfig12").is_empty());
        assert_eq!(log.of_kind(AuditKind::PlanSubmitted)[1].seq, 1);
        let finished = log.of_kind(AuditKind::PlanFinished);
        assert_eq!((finished[0].seq, finished[0].at_us), (3, 3));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn the_view_reads_in_place_and_queries_keep_only_their_matches() {
        let log = log_of((1..=6).map(|plan| E::PlanSubmitted { plan, actions: 1 }));
        log.append(
            9,
            E::PlanFinished {
                plan: 3,
                committed: true,
            },
        );
        let entries = log.entries();
        assert_eq!((entries.len(), entries.iter().len()), (7, 7));
        let borrowed: Vec<_> = entries.iter().collect();
        drop(entries);
        let owned: Vec<_> = log.entries().into_iter().collect();
        assert_eq!(owned, borrowed);
        assert!(owned.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        let plan = log.for_plan("reconfig3");
        assert_eq!((plan.len(), plan.capacity()), (2, 2));
        let finished = log.of_kind(K::PlanFinished);
        assert_eq!((finished.len(), finished.capacity()), (1, 1));
        assert!(AuditLog::new().entries().is_empty());
    }

    #[test]
    fn the_books_fold_every_append() {
        let log = log_of([
            E::PlanSubmitted {
                plan: 1,
                actions: 1,
            },
            E::PlanSubmitted {
                plan: 2,
                actions: 1,
            },
            E::PlanRejected {
                plan: 2,
                reason: "unknown component".into(),
            },
            E::PlanFinished {
                plan: 2,
                committed: false,
            },
            E::RepairPlanned {
                node: 1,
                policy: "restart-in-place",
                by: RepairBy::Plan { id: 1, actions: 1 },
            },
            E::ChannelBlocked {
                plan: 1,
                channel: 3,
                target: "svc".into(),
            },
            E::TwinPredicted {
                policy: "restart-in-place",
                node: 1,
                availability: 1.0,
                mttr_ms: 5.0,
            },
            E::DroppedOnCrash {
                instance: "svc".into(),
                jobs: 2,
                node: 1,
            },
        ]);
        {
            let books = log.books();
            assert_eq!(books.open_plans, [(1, None)]);
            assert_eq!(books.closed.rejected, 1);
            let channels = [K::ChannelBlocked, K::ChannelReleased].map(|k| books.count(k));
            assert_eq!((channels, books.crash_losses), ([1, 0], 2));
            assert_eq!(books.predicted, [1]);
        }
        for event in [
            E::ChannelReleased {
                plan: 1,
                channel: 3,
                target: Some("svc".into()),
            },
            E::PlanFinished {
                plan: 1,
                committed: true,
            },
            E::RepairCompleted {
                plan: Some(1),
                node: 1,
                mttr_ms: Some(5.0),
            },
            E::TwinActual {
                policy: "restart-in-place",
                node: 1,
                mttr_ms: Some(5.0),
                predicted_mttr_ms: 5.0,
                predicted_availability: 1.0,
            },
        ] {
            log.append(20, event);
        }
        let books = log.books();
        assert!(books.open_plans.is_empty() && books.predicted.is_empty());
        let channels = [K::ChannelBlocked, K::ChannelReleased].map(|k| books.count(k));
        assert_eq!((books.closed.committed, channels), (1, [1, 1]));
        let firsts = [
            books.disordered,
            books.stray_plan_record,
            books.unplanned_repair,
            books.unpaired_actual,
        ];
        assert_eq!(firsts, [None; 4]);
    }

    #[test]
    fn the_books_remember_the_first_record_that_does_not_fit() {
        let log = log_of([
            E::PlanSubmitted {
                plan: 1,
                actions: 1,
            },
            E::PlanFinished {
                plan: 1,
                committed: false,
            },
            E::PlanRolledBack {
                plan: 1,
                compensated: 0,
                reason: "late".into(),
            },
            E::PlanSubmitted {
                plan: 1,
                actions: 1,
            },
            E::RepairPlanned {
                node: 0,
                policy: "restart-in-place",
                by: RepairBy::Plan { id: 1, actions: 1 },
            },
            E::RepairCompleted {
                plan: Some(1),
                node: 0,
                mttr_ms: None,
            },
            E::TwinActual {
                policy: "restart-in-place",
                node: 0,
                mttr_ms: None,
                predicted_mttr_ms: 0.0,
                predicted_availability: 1.0,
            },
        ]);
        log.append(0, E::FailureCleared { node: 0 });
        let books = log.books();
        assert_eq!(books.stray_plan_record, Some(1));
        assert_eq!(books.unplanned_repair, Some(5), "its plan failed");
        assert_eq!(books.unpaired_actual, Some(6));
        assert_eq!(books.disordered, Some(7));
        assert_eq!(books.closed, PlanTally::default());
    }

    #[test]
    fn clone_shares_the_log() {
        let log = AuditLog::new();
        let alias = log.clone();
        assert_eq!(*log.books(), Books::default());
        log.append(0, E::FailureCleared { node: 1 });
        assert_eq!(alias.len(), 1);
        assert_eq!(alias.books().count(AuditKind::FailureCleared), 1);
        assert_eq!(log.books().count(AuditKind::FailureSuspected), 0);
    }
}
