//! Benchmark-side spans: name, start, end, parent, one recorder per trial.
//!
//! Spans are taken around calls into the layers' public functions, kept in
//! memory and written out when the run ends. A recorder that is switched
//! off still times (the untraced trials need the durations) but stores
//! nothing.

use crate::json::Json;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_until`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds from the recorder's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's start; equals `start_ns` while open.
    pub end_ns: u64,
    /// Counter deltas attached at the boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; give it back to [`Recorder::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct Open {
    idx: Option<usize>,
    started: Instant,
}

/// Collects the spans of one trial.
#[derive(Debug)]
pub struct Recorder {
    store: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that stores spans iff `store`.
    #[must_use]
    pub fn new(store: bool) -> Recorder {
        Recorder {
            store,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let idx = self.store.then(|| {
            let at = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                start_ns: at,
                end_ns: at,
                counters: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, started }
    }

    /// Closes `open`, returning its duration in host seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        self.end_with(open, Vec::new())
    }

    /// Closes `open` and attaches counter deltas to it.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order — a bug in the
    /// harness, not in the measured program.
    pub fn end_with(&mut self, open: Open, counters: Vec<(&'static str, f64)>) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            self.spans[idx].counters = counters;
        }
        now.duration_since(open.started).as_secs_f64()
    }

    /// The stored spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover. Children nest inside their parent and do not overlap (the
/// recorder is a stack), so the subtraction cannot go negative.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time per span name, in host seconds, largest first.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own as f64 / 1e9,
            None => by_name.push((s.name, own as f64 / 1e9)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}

/// Renders spans as JSON lines, one span each, all carrying `trial`.
#[must_use]
pub fn to_jsonl(trial: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("trial", Json::from(trial)),
            ("id", Json::from(i as u64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
            ),
            ("name", Json::from(s.name)),
            ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
            ("self_us", Json::Num(own[i] as f64 / 1e3)),
            (
                "counters",
                Json::obj(s.counters.iter().map(|(k, v)| (*k, Json::Num(*v)))),
            ),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("run", None, 0, 100),
            span("core.run_until", Some(0), 10, 60),
            span("core.observe", Some(1), 20, 30),
            span("core.run_until", Some(0), 60, 90),
        ];
        // run: 100 - (50 + 30); first slice: 50 - 10; grandchild only
        // comes off its own parent.
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times of a tree sum to its root");
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0].0, "core.run_until");
        assert!((by_name[0].1 - 70e-9).abs() < 1e-15);
        assert_eq!(by_name.len(), 3, "the two slices are pooled");
    }

    #[test]
    fn recorder_nests_and_an_idle_one_stores_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("setup");
        let inner = rec.begin("topo.generate");
        let secs = rec.end_with(inner, vec![("topo.nodes", 3.0)]);
        assert!(secs >= 0.0);
        let _ = rec.end(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].counters, vec![("topo.nodes", 3.0)]);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        let lines = to_jsonl("t", rec.spans());
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"topo.generate\""));

        let mut idle = Recorder::new(false);
        let open = idle.begin("setup");
        assert!(idle.end(open) >= 0.0);
        assert!(idle.spans().is_empty());
    }
}
