//! Perf-regression guard for the coordinator's window widening.
//!
//! Wall-clock timing is flaky in CI, but the *window count* of a fixed
//! workload is deterministic: it depends only on the schedule and the
//! widening rule, not on the host. This test pins the coordinator
//! barrier budget — an accidental lookahead regression (say, a widening
//! heuristic change that halves too eagerly) shows up as a window-count
//! jump long before anyone notices wall-clock drift.
//!
//! The baselines were recorded from the E19 implementation; the guard
//! allows 25% headroom so intentional tuning has room to move without
//! churn, while a regression back toward one-barrier-per-lookahead
//! (which would be ~10x these numbers) fails loudly.

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

/// Recorded windows for the fixed workload below at K=1 and K=4
/// (inline execution). Update deliberately — a bump
/// here must come with an explanation, not a regression.
const BASELINE_WINDOWS: [(u32, u64); 2] = [(1, 1), (4, 6)];
/// Allowed headroom over the recorded baseline.
const HEADROOM: f64 = 1.25;

/// The fixed workload: 10k sends over 8 cross-shard channels on a
/// 2 ms-lookahead clique, 11 µs apart (a 110 ms span ≈ 55 lookaheads —
/// one-lookahead windows would need ~55 barriers at K=4; widening needs 6).
/// At K=1 everything is shard-local, the lookahead is unbounded and the
/// whole schedule runs in a single window — any K=1 count above 1 means
/// windowing kicked in where none is needed.
fn run_workload(shards: u32) -> aas_sim::coordinator::ShardedStats {
    let topo = Topology::clique(8, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, ExecMode::Inline);
    let chans: Vec<_> = (0..8u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 3) % 8)))
        .collect();
    for i in 0..10_000u64 {
        k.send_at(
            SimTime::from_micros(i * 11),
            chans[(i % 8) as usize],
            i,
            256,
        );
    }
    let events = k.drain();
    assert_eq!(events.len(), 10_000, "every message must be delivered");
    k.stats()
}

#[test]
fn window_budget_within_recorded_baseline() {
    for (shards, baseline) in BASELINE_WINDOWS {
        let stats = run_workload(shards);
        assert_eq!(stats.early_crossings, 0);
        let budget = (baseline as f64 * HEADROOM).floor() as u64;
        eprintln!(
            "K={shards}: windows={} baseline={baseline} budget={budget}",
            stats.windows
        );
        assert!(
            stats.windows <= budget,
            "K={shards}: {} windows exceeds the budget of {budget} \
             (recorded baseline {baseline} + 25% headroom) — the \
             window widening regressed",
            stats.windows,
        );
    }
}
