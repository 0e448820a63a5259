//! `aas-obs` — the workspace's single telemetry substrate.
//!
//! The paper's central constraint on observation is that the meta-level
//! must watch the base level **without degrading the availability of the
//! applications** (PAPER.md §2). Everything in this crate is shaped by
//! that: hot-path recording never touches the registry's lock and takes
//! no contended one ([`metrics`]), and what is kept is bounded
//! ([`histogram`]) or stored as compact bytes and rendered only when
//! read ([`audit`]).
//! The audit log is the one record of what reconfiguration did.
//!
//! Module map:
//!
//! * [`stats`] — scalar estimators: [`Summary`] (Welford) and
//!   [`Counters`].
//! * [`histogram`] — log2-bucketed streaming [`Histogram`] with mergeable
//!   p50/p90/p99/p99.9 and exact min/max.
//! * [`metrics`] — typed [`MetricsRegistry`] with interned [`MetricId`]s
//!   handing out [`Counter`]/[`Gauge`] atomics and
//!   [`HistogramHandle`]s, each a [`Histogram`] behind its own mutex:
//!   one thread writes them, so the lock is never contended.
//! * [`audit`] — append-only reconfiguration [`AuditLog`]: every plan,
//!   action, outcome, rollback and channel block/release, typed at append,
//!   stored as bytes and rendered on read, with the running [`Books`] an
//!   invariant checker reads.
//! * [`name`] — [`Name`], a string that clones without allocating.
//! * [`export`] — JSONL and human-table renderings of metrics, coverage
//!   cells and the audit log.
//!
//! Timestamps throughout are plain `u64` microseconds supplied by the
//! caller; `aas-obs` has no dependency on the simulator's clock (or on
//! anything else), which is what lets every layer of the workspace share
//! it without cycles.

pub mod audit;
pub mod export;
pub mod histogram;
pub mod metrics;
pub mod name;
pub mod stats;

pub use audit::{AuditEntry, AuditEvent, AuditKind, AuditLog, Books, Entries, PlanTally, RepairBy};
pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, HistogramHandle, MetricId, MetricsRegistry, MetricsSnapshot};
pub use name::Name;
pub use stats::{Counters, Summary};

/// One bundle of the two telemetry facets, cheaply cloneable and shared
/// across layers (runtime, monitors, mechanisms).
///
/// # Examples
///
/// ```
/// use aas_obs::Obs;
///
/// let obs = Obs::new();
/// let sent = obs.metrics.counter("kernel.sent");
/// sent.incr();
/// assert_eq!(sent.get(), 1);
/// assert_eq!(obs.metrics.snapshot().counter("kernel.sent"), Some(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Metric registry shared by every layer.
    pub metrics: MetricsRegistry,
    /// Append-only reconfiguration audit log.
    pub audit: AuditLog,
}

impl Obs {
    /// Creates a fresh, empty telemetry bundle.
    #[must_use]
    pub fn new() -> Self {
        Obs::default()
    }
}
