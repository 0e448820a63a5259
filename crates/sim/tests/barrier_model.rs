//! Concurrency-model tests for the epoch-barrier / mailbox protocol.
//!
//! The sharded kernel's safety argument rests on three invariants that
//! these tests stress with real worker threads and seeded schedules
//! (thread scheduling supplies the interleaving variety; every run
//! re-checks the invariants, and repeated runs explore different
//! timings):
//!
//! 1. **No message crosses a barrier early** — a cross-shard message
//!    produced inside window `[tq, W)` must arrive at `tq + lookahead
//!    ≥ W`, so it is exchanged at the barrier, never observed mid-window
//!    (`stats().early_crossings == 0`).
//! 2. **No shard advances past the coordinator's safe time** — workers
//!    only pop events strictly below the window end the coordinator
//!    published (the clock never passes a `run_until` limit and the
//!    merged stream stays `(time, key)`-ordered across slices).
//! 3. **Clean shutdown** — dropping the kernel with cross-shard messages
//!    still queued neither hangs nor corrupts; draining first delivers
//!    every message exactly once.

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::kernel::Fired;
use aas_sim::link::LinkSpec;
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};

/// A ring: with round-robin sharding every hop crosses a shard boundary,
/// which maximises barrier/mailbox traffic.
fn ring(n: usize, latency_ms: u64) -> Topology {
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| t.add_node(NodeSpec::new(format!("n{i}"), 10.0)))
        .collect();
    for i in 0..n {
        t.add_link(LinkSpec::new(
            ids[i],
            ids[(i + 1) % n],
            SimDuration::from_millis(latency_ms),
            1e7,
        ));
    }
    t
}

/// Heavy cross-shard traffic over many epochs: the mailbox exchange must
/// be active (messages exchanged at barriers) and both safety counters
/// must stay at zero for every interleaving the threads produce.
#[test]
fn no_message_crosses_a_barrier_early() {
    for round in 0..8 {
        let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 1), 4, ExecMode::Threads);
        let mut rng = SimRng::seed_from(0xBA55 + round);
        let mut chans = Vec::new();
        for i in 0..8u32 {
            // Neighbour channels: round-robin placement makes every one
            // of these cross-shard.
            chans.push(k.open_channel(NodeId(i), NodeId((i + 1) % 8)));
        }
        for m in 0..400u64 {
            let at = SimTime::from_micros(rng.below(40_000));
            let ch = chans[rng.below(8) as usize];
            k.send_at(at, ch, m, 256);
        }
        let events = k.drain();
        let stats = k.stats();
        assert!(stats.windows > 1, "round {round}: expected multiple epochs");
        assert!(
            stats.exchanged > 0,
            "round {round}: no cross-shard traffic was exchanged — the test is vacuous"
        );
        assert_eq!(
            stats.early_crossings, 0,
            "round {round}: message observed mid-window"
        );
        let delivered = events
            .iter()
            .filter(|e| matches!(e.what, Fired::Delivered { .. }))
            .count();
        assert_eq!(delivered, 400, "round {round}: lost messages");
    }
}

/// Driving the kernel in many small, misaligned `run_until` slices forces
/// windows that do not line up with lookahead multiples; no shard may
/// ever process an event at or beyond the published safe time, and the
/// merged stream must stay strictly (time, key)-ordered across slices.
#[test]
fn no_shard_advances_past_safe_time_under_misaligned_slices() {
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 2), 4, ExecMode::Threads);
    let mut rng = SimRng::seed_from(0x5AFE);
    let chans: Vec<_> = (0..8u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 3) % 8)))
        .collect();
    for m in 0..300u64 {
        let at = SimTime::from_micros(rng.below(30_000));
        k.send_at(at, chans[rng.below(8) as usize], m, 128);
    }
    let mut all = Vec::new();
    let mut limit = 0u64;
    // Slice widths are coprime-ish to the 2 ms lookahead on purpose.
    for step in [137u64, 911, 1723, 333, 4999].iter().cycle().take(40) {
        limit += step;
        all.extend(k.run_until(SimTime::from_micros(limit)));
        assert!(k.now() <= SimTime::from_micros(limit));
    }
    all.extend(k.drain());
    let stats = k.stats();
    assert_eq!(stats.early_crossings, 0);
    let mut prev = None;
    for e in &all {
        let cur = (e.at, e.key);
        if let Some(p) = prev {
            assert!(p < cur, "stream regressed across run_until slices");
        }
        prev = Some(cur);
    }
    let delivered = all
        .iter()
        .filter(|e| matches!(e.what, Fired::Delivered { .. }))
        .count();
    assert_eq!(delivered, 300);
}

/// Same shard count, same schedule: worker threads must produce exactly
/// what the inline (serial) execution of K=4 produces, for every seed.
/// Thread-scheduling noise across 24 seeded runs supplies interleavings.
#[test]
fn threaded_interleavings_match_inline_execution() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9));
        let schedule: Vec<(u64, usize, u64)> = (0..200)
            .map(|m| (rng.below(25_000), rng.below(8) as usize, m))
            .collect();
        let run = |mode: ExecMode| {
            let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 1), 4, mode);
            let chans: Vec<_> = (0..8u32)
                .map(|i| k.open_channel(NodeId(i), NodeId((i + 1) % 8)))
                .collect();
            for &(at, ch, m) in &schedule {
                k.send_at(SimTime::from_micros(at), chans[ch], m, 512);
            }
            k.drain()
                .iter()
                .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(ExecMode::Inline),
            run(ExecMode::Threads),
            "seed {seed}: thread interleaving changed the event stream"
        );
    }
}

/// Dropping the kernel while cross-shard messages are still queued must
/// terminate promptly (workers parked at the barrier are woken with the
/// shutdown flag and joined) — a hang here fails the test via timeout.
#[test]
fn shutdown_with_queued_cross_shard_messages_does_not_hang() {
    for _ in 0..16 {
        let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 1), 4, ExecMode::Threads);
        let chans: Vec<_> = (0..8u32)
            .map(|i| k.open_channel(NodeId(i), NodeId((i + 1) % 8)))
            .collect();
        for m in 0..200u64 {
            k.send_at(SimTime::from_micros(m * 50), chans[(m % 8) as usize], m, 64);
        }
        // Stop mid-schedule: plenty of entries remain in shard queues.
        let partial = k.run_until(SimTime::from_millis(3));
        assert!(partial.len() < 200, "run was not actually partial");
        drop(k); // must join all four workers without deadlock
    }
}

/// Property tier for adaptive outer windows.
///
/// The coordinator widens outer windows geometrically while they stay
/// clean, which is only sound if a widened window can never admit an
/// early crossing: the sub-round decomposition still advances one
/// lookahead at a time internally, so the static safety argument is
/// unchanged. These properties drive seeded random schedules at K ∈ 2..=4
/// and assert (a) the safety counters stay zero with widening
/// demonstrably active, and (b) the merged stream and event count are
/// byte-identical to the same schedule at K = 1 inline — one window, no
/// windowing at all, and held equal to the serial `Kernel` by
/// `tests/shard_determinism.rs` — in both Inline and Threads modes.
mod adaptive_windows {
    use super::*;

    /// One seeded schedule executed at `shards` shards (`None`: the
    /// seed's K in 2..=4) in `mode`; returns the formatted merged stream
    /// plus the run's stats.
    fn run_schedule(
        seed: u64,
        shards: Option<u32>,
        mode: ExecMode,
    ) -> (Vec<String>, aas_sim::coordinator::ShardedStats) {
        let mut rng = SimRng::seed_from(seed.wrapping_mul(0xA17D_A97E).wrapping_add(1));
        let seeded = 2 + (rng.below(3) as u32); // K in 2..=4
        let shards = shards.unwrap_or(seeded);
        let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 1), shards, mode);
        let chans: Vec<_> = (0..8u32)
            .map(|i| k.open_channel(NodeId(i), NodeId((i + 1 + (seed % 3) as u32) % 8)))
            .collect();
        let msgs = 150 + rng.below(150);
        for m in 0..msgs {
            let at = SimTime::from_micros(rng.below(60_000));
            k.send_at(at, chans[rng.below(8) as usize], m, 64 + rng.below(512));
        }
        let mut events = Vec::new();
        // Misaligned slices stress the clipping/backoff path of the
        // widening heuristic, not just full drains.
        let mut limit = 0u64;
        for _ in 0..3 {
            limit += 7_000 + rng.below(9_000);
            events.extend(k.run_until(SimTime::from_micros(limit)));
        }
        events.extend(k.drain());
        let out = events
            .iter()
            .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
            .collect();
        (out, k.stats())
    }

    fn check_seed(seed: u64) {
        let (one_ev, one_stats) = run_schedule(seed, Some(1), ExecMode::Inline);
        let mut widened_total = 0;
        for mode in [ExecMode::Inline, ExecMode::Threads] {
            let (ev, stats) = run_schedule(seed, None, mode);
            assert_eq!(
                one_ev, ev,
                "seed {seed} {mode:?}: windowed stream diverged from K = 1"
            );
            assert_eq!(
                stats.early_crossings, 0,
                "seed {seed} {mode:?}: widened window admitted an early crossing"
            );
            assert_eq!(stats.events, one_stats.events);
            widened_total += stats.widened_windows;
        }
        assert!(
            widened_total > 0,
            "seed {seed}: widening never engaged — the property is vacuous"
        );
    }

    /// Fast tier: 64 seeded schedules on every push.
    #[test]
    fn widened_windows_never_admit_early_crossings() {
        for seed in 0..64u64 {
            check_seed(seed);
        }
    }

    /// Deep tier (nightly, `--ignored`): 640 further seeds.
    #[test]
    #[ignore = "nightly deep tier: 640 extra seeds, run with --ignored"]
    fn widened_windows_never_admit_early_crossings_deep() {
        for seed in 64..704u64 {
            check_seed(seed);
        }
    }
}

/// Draining after a partial run recovers every queued message: stopping
/// at a barrier loses nothing that a continuous run would have delivered.
#[test]
fn drain_after_partial_run_loses_nothing() {
    let run_split = |split_at: Option<u64>| {
        let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(ring(8, 1), 4, ExecMode::Threads);
        let chans: Vec<_> = (0..8u32)
            .map(|i| k.open_channel(NodeId(i), NodeId((i + 1) % 8)))
            .collect();
        for m in 0..250u64 {
            k.send_at(SimTime::from_micros(m * 37), chans[(m % 8) as usize], m, 64);
        }
        let mut events = Vec::new();
        if let Some(t) = split_at {
            events.extend(k.run_until(SimTime::from_micros(t)));
        }
        events.extend(k.drain());
        events
            .iter()
            .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
            .collect::<Vec<_>>()
    };
    let continuous = run_split(None);
    for split in [500, 2_750, 5_001, 9_250] {
        assert_eq!(
            continuous,
            run_split(Some(split)),
            "split at {split}µs changed the delivered stream"
        );
    }
}
