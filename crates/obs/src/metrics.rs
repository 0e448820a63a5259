//! Typed metrics registry.
//!
//! Registration (name → [`MetricId`]) goes through the registry's mutex
//! once; the returned [`Counter`]/[`Gauge`]/[`HistogramHandle`] handles
//! hold `Arc`s straight to their metric, so recording never touches the
//! registry. A counter increment or a gauge write is one relaxed atomic;
//! a histogram observation locks the histogram's own mutex, which no
//! other thread holds: every handle is written by the one thread that
//! drives the runtime, so the lock is never contended and costs its two
//! uncontended atomics. This is how the meta-level reads
//! [`MetricsRegistry::snapshot`] on its own schedule without degrading
//! the base level that writes.

use crate::histogram::Histogram;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Interned identity of a registered metric; stable for the life of the
/// registry and cheap to copy into events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(pub u32);

/// Monotonically increasing counter handle (one relaxed atomic).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins float gauge handle (one relaxed atomic of the f64's
/// bits).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge at `0.0` that no registry names: written like any other,
    /// absent from every snapshot.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Handle to a shared [`Histogram`] behind its own mutex.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

/// The histogram behind `h`. The guard is held for one `Histogram` call;
/// were one to panic, it would leave at most that observation
/// half-counted, so a poisoned lock is read as it stands.
fn locked(h: &Mutex<Histogram>) -> MutexGuard<'_, Histogram> {
    h.lock().unwrap_or_else(PoisonError::into_inner)
}

impl HistogramHandle {
    /// An empty histogram that no registry names: it records and answers
    /// like a registered one, but no snapshot lists it.
    #[must_use]
    pub fn new() -> Self {
        HistogramHandle::default()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, x: f64) {
        locked(&self.0).observe(x);
    }

    /// Copies the current state.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        locked(&self.0).clone()
    }

    /// Number of recorded observations, read in place.
    #[must_use]
    pub fn count(&self) -> u64 {
        locked(&self.0).count()
    }

    /// Mean of recorded observations, read in place: what
    /// `snapshot().mean()` answers, without the copy.
    #[must_use]
    pub fn mean(&self) -> f64 {
        locked(&self.0).mean()
    }

    /// The `q`-quantile, read in place: what `snapshot().quantile(q)`
    /// answers, without the copy.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        locked(&self.0).quantile(q)
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<Histogram>>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    by_name: HashMap<String, MetricId>,
    slots: Vec<(String, Slot)>,
}

/// The workspace's shared metric registry.
///
/// Cloning shares the underlying store, so every layer (kernel, runtime,
/// monitors, mechanisms) can hold its own copy and register or read the
/// same metrics.
///
/// # Examples
///
/// ```
/// use aas_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let c = reg.counter("runtime.delivered");
/// c.add(5);
/// let lat = reg.histogram("runtime.e2e_latency_ms");
/// lat.observe(12.5);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("runtime.delivered"), Some(5));
/// assert_eq!(snap.histogram("runtime.e2e_latency_ms").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Slot,
        open: impl Fn(&Slot) -> Option<T>,
    ) -> T {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(&id) = inner.by_name.get(name) {
            let (_, slot) = &inner.slots[id.0 as usize];
            return open(slot).unwrap_or_else(|| {
                panic!("metric `{name}` already registered as a {}", slot.kind())
            });
        }
        let id = MetricId(u32::try_from(inner.slots.len()).expect("too many metrics"));
        inner.slots.push((name.to_owned(), make()));
        inner.by_name.insert(name.to_owned(), id);
        open(&inner.slots[id.0 as usize].1).expect("freshly registered slot has the right type")
    }

    /// Returns the counter named `name`, registering it at zero on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.register(
            name,
            || Slot::Counter(Arc::new(AtomicU64::new(0))),
            |slot| match slot {
                Slot::Counter(c) => Some(Counter(Arc::clone(c))),
                _ => None,
            },
        )
    }

    /// Returns the gauge named `name`, registering it at `0.0` on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.register(
            name,
            || Slot::Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits()))),
            |slot| match slot {
                Slot::Gauge(g) => Some(Gauge(Arc::clone(g))),
                _ => None,
            },
        )
    }

    /// Returns the histogram named `name`, registering it empty on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.register(
            name,
            || Slot::Histogram(Arc::default()),
            |slot| match slot {
                Slot::Histogram(h) => Some(HistogramHandle(Arc::clone(h))),
                _ => None,
            },
        )
    }

    /// Interned id of `name`, if registered.
    #[must_use]
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .by_name
            .get(name)
            .copied()
    }

    /// Name behind an interned id, if valid.
    #[must_use]
    pub fn name(&self, id: MetricId) -> Option<String> {
        self.inner
            .lock()
            .expect("metrics registry poisoned")
            .slots
            .get(id.0 as usize)
            .map(|(n, _)| n.clone())
    }

    /// Copies every metric's current value into an immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in &inner.slots {
            match slot {
                Slot::Counter(c) => {
                    snap.counters
                        .insert(name.clone(), c.load(Ordering::Relaxed));
                }
                Slot::Gauge(g) => {
                    snap.gauges
                        .insert(name.clone(), f64::from_bits(g.load(Ordering::Relaxed)));
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), locked(h).clone());
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of every metric in a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram copy by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.incr();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counter("x"), Some(3));
    }

    #[test]
    fn clone_shares_the_store() {
        let reg = MetricsRegistry::new();
        let alias = reg.clone();
        reg.counter("shared").incr();
        assert_eq!(alias.snapshot().counter("shared"), Some(1));
    }

    #[test]
    fn ids_are_stable_and_reversible() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("first");
        let _ = reg.gauge("second");
        let id = reg.id("second").unwrap();
        assert_eq!(reg.name(id).as_deref(), Some("second"));
        assert_eq!(reg.id("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m");
        let _ = reg.gauge("m");
    }

    #[test]
    fn unregistered_handles_record_like_registered_ones() {
        let reg = MetricsRegistry::new();
        let (named, unnamed) = (reg.histogram("lat"), HistogramHandle::new());
        for x in [1.0, 4.0, 9.0] {
            named.observe(x);
            unnamed.observe(x);
        }
        assert_eq!(unnamed.count(), 3);
        assert_eq!(unnamed.quantile(0.99), named.quantile(0.99));
        let g = Gauge::new();
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
        assert_eq!(reg.snapshot().histograms.len(), 1);
    }

    #[test]
    fn gauges_hold_last_write() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("util");
        g.set(0.75);
        g.set(0.5);
        assert_eq!(g.get(), 0.5);
        assert_eq!(reg.snapshot().gauge("util"), Some(0.5));
    }

    #[test]
    fn concurrent_increments_all_land() {
        let reg = MetricsRegistry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = reg.counter("hits");
                let h = reg.histogram("lat");
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.observe(f64::from(i) + 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(4000));
        assert_eq!(snap.histogram("lat").unwrap().count(), 4000);
    }
}
