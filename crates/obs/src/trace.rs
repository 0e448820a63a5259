//! Bounded span/event tracing with causal ids.
//!
//! A [`Tracer`] hands out [`SpanId`]s (one per reconfiguration plan, in
//! practice) and records start/end/event/hop records into a fixed-capacity
//! ring — old records fall off the back, so tracing can stay on forever
//! without growing. Per-message hop recording is governed by a sampling
//! knob: [`Tracer::sample_hop`] is the *entire* disabled path — one
//! relaxed atomic load and a branch — which is what keeps the simulator's
//! per-message overhead in the nanoseconds when tracing is off (measured
//! by bench E11).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Causal identity of a span. `SpanId(0)` means "no span" (root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: events recorded outside any span.
    pub const NONE: SpanId = SpanId(0);
}

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (e.g. a reconfiguration plan started executing).
    SpanStart,
    /// A span closed.
    SpanEnd,
    /// A point event inside a span (e.g. one reconfiguration action).
    Event,
    /// A sampled per-message hop from the simulation kernel.
    Hop,
}

impl TraceKind {
    /// Stable lowercase label for exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SpanStart => "span_start",
            TraceKind::SpanEnd => "span_end",
            TraceKind::Event => "event",
            TraceKind::Hop => "hop",
        }
    }
}

/// One record in the trace ring.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span this record belongs to (`SpanId::NONE` for free-standing).
    pub span: SpanId,
    /// Causal parent span (`SpanId::NONE` at the root).
    pub parent: SpanId,
    /// Record kind.
    pub kind: TraceKind,
    /// Short name, e.g. `"plan:scale-out"` or `"hop"`.
    pub name: String,
    /// Free-form detail, e.g. the action description or message route.
    pub detail: String,
    /// Caller-supplied timestamp in microseconds (sim time).
    pub at_us: u64,
}

#[derive(Debug)]
struct TracerInner {
    /// 0 = hop recording off; N = record one hop in N.
    hop_sampling: AtomicU32,
    hop_seq: AtomicU64,
    next_span: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

/// Shared, bounded span/event recorder.
///
/// # Examples
///
/// ```
/// use aas_obs::{SpanId, TraceKind, Tracer};
///
/// let t = Tracer::new();
/// let plan = t.span_start("plan:swap", SpanId::NONE, 10);
/// t.event(plan, "action", "swap-implementation filter", 12);
/// t.span_end(plan, 20);
///
/// let events = t.events();
/// assert_eq!(events.len(), 3);
/// assert!(events.iter().all(|e| e.span == plan));
/// assert_eq!(events[1].kind, TraceKind::Event);
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Default ring capacity (records retained).
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a tracer with the default ring capacity and hop sampling
    /// disabled.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a tracer retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            inner: Arc::new(TracerInner {
                hop_sampling: AtomicU32::new(0),
                hop_seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                // Grows as it fills: most tracers (a twin fork's among
                // them) record a handful of spans, if any.
                ring: Mutex::new(VecDeque::new()),
                capacity,
            }),
        }
    }

    /// Sets hop sampling: `0` disables per-message hop recording entirely;
    /// `n > 0` records one hop in `n`.
    pub fn set_hop_sampling(&self, one_in: u32) {
        self.inner.hop_sampling.store(one_in, Ordering::Relaxed);
    }

    /// Current hop sampling setting (`0` = off).
    #[must_use]
    pub fn hop_sampling(&self) -> u32 {
        self.inner.hop_sampling.load(Ordering::Relaxed)
    }

    /// Decides whether the current message hop should be recorded.
    ///
    /// This is the per-message fast path: when sampling is off it is one
    /// relaxed atomic load and a branch. Callers record via
    /// [`Tracer::hop`] only when this returns `true`, so the cost of
    /// building the hop detail string is also skipped when sampled out.
    #[inline]
    #[must_use]
    pub fn sample_hop(&self) -> bool {
        let n = self.inner.hop_sampling.load(Ordering::Relaxed);
        if n == 0 {
            return false;
        }
        self.inner
            .hop_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(u64::from(n))
    }

    fn push(&self, ev: TraceEvent) {
        let mut ring = self.inner.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.inner.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Opens a new span under `parent` and records its start.
    #[must_use]
    pub fn span_start(&self, name: &str, parent: SpanId, at_us: u64) -> SpanId {
        let id = SpanId(self.inner.next_span.fetch_add(1, Ordering::Relaxed));
        self.push(TraceEvent {
            span: id,
            parent,
            kind: TraceKind::SpanStart,
            name: name.to_owned(),
            detail: String::new(),
            at_us,
        });
        id
    }

    /// Records the end of `span`.
    pub fn span_end(&self, span: SpanId, at_us: u64) {
        self.push(TraceEvent {
            span,
            parent: SpanId::NONE,
            kind: TraceKind::SpanEnd,
            name: String::new(),
            detail: String::new(),
            at_us,
        });
    }

    /// Records a point event inside `span`.
    pub fn event(&self, span: SpanId, name: &str, detail: &str, at_us: u64) {
        self.push(TraceEvent {
            span,
            parent: SpanId::NONE,
            kind: TraceKind::Event,
            name: name.to_owned(),
            detail: detail.to_owned(),
            at_us,
        });
    }

    /// Records a sampled message hop. Call only after [`Tracer::sample_hop`]
    /// returned `true`.
    pub fn hop(&self, name: &str, detail: &str, at_us: u64) {
        self.push(TraceEvent {
            span: SpanId::NONE,
            parent: SpanId::NONE,
            kind: TraceKind::Hop,
            name: name.to_owned(),
            detail: detail.to_owned(),
            at_us,
        });
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the retained records, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Drains and returns the retained records, oldest first.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.inner
            .ring
            .lock()
            .expect("trace ring poisoned")
            .drain(..)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_causally() {
        let t = Tracer::new();
        let plan = t.span_start("plan:p1", SpanId::NONE, 0);
        let action = t.span_start("action:add", plan, 1);
        t.span_end(action, 2);
        t.span_end(plan, 3);
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[1].parent, plan);
        assert_ne!(evs[0].span, evs[1].span);
    }

    #[test]
    fn ring_is_bounded() {
        let t = Tracer::with_capacity(8);
        for i in 0..100 {
            t.event(SpanId::NONE, "e", "", i);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs[0].at_us, 92);
        assert_eq!(evs[7].at_us, 99);
    }

    #[test]
    fn sampling_off_records_nothing() {
        let t = Tracer::new();
        assert_eq!(t.hop_sampling(), 0);
        for _ in 0..1000 {
            assert!(!t.sample_hop());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn sampling_one_in_n() {
        let t = Tracer::new();
        t.set_hop_sampling(10);
        let mut recorded = 0;
        for i in 0..1000 {
            if t.sample_hop() {
                t.hop("hop", "a->b", i);
                recorded += 1;
            }
        }
        assert_eq!(recorded, 100);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn take_drains() {
        let t = Tracer::new();
        t.event(SpanId::NONE, "x", "", 0);
        assert_eq!(t.take().len(), 1);
        assert!(t.is_empty());
    }
}
