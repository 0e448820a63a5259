//! Aggregate runtime metrics: the public [`RuntimeMetrics`] snapshot and
//! the [`MetricHandles`] into the shared `aas-obs` registry that the hot
//! paths increment.

use aas_obs::{Counter, Histogram, HistogramHandle, Obs};
use aas_sim::channel::DropReason;

/// Point-in-time view of the runtime's aggregate metrics, assembled from
/// the shared `aas-obs` registry by [`crate::runtime::Runtime::metrics`]. The registry is
/// the source of truth; this struct is a convenience copy.
#[derive(Debug, Clone, Default)]
pub struct RuntimeMetrics {
    /// End-to-end latency of every delivered message (milliseconds).
    pub e2e_latency: Histogram,
    /// Request→reply round-trip times (milliseconds).
    pub rtt: Histogram,
    /// Messages successfully handed to a component instance's node.
    pub delivered: u64,
    /// Messages that found no binding at their source port.
    pub unrouted: u64,
    /// Messages dropped in transit or at delivery. The registry also
    /// counts some of them by cause, each series registered at its
    /// cause's first drop: `runtime.dropped.<reason>` for those the
    /// kernel dropped (`unreachable`, `destination_down`,
    /// `channel_closed`) and `runtime.dropped.unaddressed` for those
    /// whose target's name bore no instance when they were due.
    pub dropped: u64,
    /// Handler errors.
    pub handler_errors: u64,
    /// Queued handler jobs lost when their host node crashed (a subset of
    /// `dropped`, broken out so crashes can be accounted precisely).
    pub dropped_on_crash: u64,
    /// Deliveries re-sent under a connector retry policy.
    pub retries: u64,
    /// Deliveries shed by the negotiation control plane's admission gate
    /// (not counted in `dropped`: shedding is a deliberate grant-bounded
    /// adaptation, not a loss).
    pub shed: u64,
    /// Failure-detection latency: crash → suspicion (milliseconds).
    pub mttd_ms: Histogram,
    /// Repair latency: crash → repair plan committed (milliseconds).
    pub mttr_ms: Histogram,
}

/// What routing has cost so far, read by
/// [`crate::runtime::Runtime::route_stats`] off whichever router the
/// runtime runs: the region-scoped one when the deployed topology carries
/// a full region map, the flat epoch-flushed cache otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Sends and migration transfers answered from the router's memo.
    pub hits: u64,
    /// Those the memo could not answer.
    pub misses: u64,
    /// Shortest-path searches started. Under region-scoped routing a miss
    /// that shares destination, source region and routing epoch with the
    /// search before it resumes that search, so this is at most `misses`;
    /// the flat cache starts one whole-graph search per miss.
    pub searches: u64,
    /// Nodes settled by every search, cell builds included — the
    /// host-independent measure of routing work.
    pub settled: u64,
    /// Border-clique cells (re)built; always zero under the flat cache.
    pub cell_rebuilds: u64,
    /// Memo entries dropped as stale. The flat cache drops its whole map
    /// at once and counts each flush as one.
    pub stale_evictions: u64,
}

/// Handles into the shared registry for the runtime's hot-path metrics:
/// counters are relaxed atomics, histograms a mutex only the runtime's own
/// thread takes, so recording never waits.
#[derive(Debug)]
pub(super) struct MetricHandles {
    pub(super) e2e_latency: HistogramHandle,
    pub(super) rtt: HistogramHandle,
    pub(super) delivered: Counter,
    pub(super) unrouted: Counter,
    pub(super) dropped: Counter,
    pub(super) handler_errors: Counter,
    pub(super) dropped_on_crash: Counter,
    pub(super) retries: Counter,
    pub(super) shed: Counter,
    /// `runtime.dropped.<cause>`, by [`DropCause::series`] slot; `None`
    /// until the cause's first drop.
    by_cause: [Option<Counter>; 4],
}

/// Why a message counted in `runtime.dropped` was dropped, where the
/// registry tells it apart.
#[derive(Debug, Clone, Copy)]
pub(super) enum DropCause {
    /// The kernel dropped it, for this reason.
    Kernel(DropReason),
    /// Its target's name bore no instance when it was due.
    Unaddressed,
}

impl DropCause {
    /// The cause's slot in `by_cause` and its series name.
    fn series(self) -> (usize, &'static str) {
        match self {
            DropCause::Kernel(DropReason::Unreachable) => (0, "runtime.dropped.unreachable"),
            DropCause::Kernel(DropReason::DestinationDown) => {
                (1, "runtime.dropped.destination_down")
            }
            DropCause::Kernel(DropReason::ChannelClosed) => (2, "runtime.dropped.channel_closed"),
            DropCause::Unaddressed => (3, "runtime.dropped.unaddressed"),
        }
    }
}

impl MetricHandles {
    pub(super) fn new(obs: &Obs) -> Self {
        MetricHandles {
            e2e_latency: obs.metrics.histogram("runtime.e2e_latency_ms"),
            rtt: obs.metrics.histogram("runtime.rtt_ms"),
            delivered: obs.metrics.counter("runtime.delivered"),
            unrouted: obs.metrics.counter("runtime.unrouted"),
            dropped: obs.metrics.counter("runtime.dropped"),
            handler_errors: obs.metrics.counter("runtime.handler_errors"),
            dropped_on_crash: obs.metrics.counter("runtime.dropped_on_crash"),
            retries: obs.metrics.counter("runtime.retries"),
            shed: obs.metrics.counter("runtime.shed"),
            by_cause: Default::default(),
        }
    }

    /// Counts a drop under its cause, registering the cause's counter at
    /// its first drop: a run that never drops for a cause exports no
    /// series for it.
    pub(super) fn count_cause(&mut self, obs: &Obs, cause: DropCause) {
        let (slot, name) = cause.series();
        self.by_cause[slot]
            .get_or_insert_with(|| obs.metrics.counter(name))
            .incr();
    }
}
