//! Proves the kernel's cache-hit send path is allocation-free — for the
//! serial kernel on the caller thread, and for the sharded kernel on
//! every worker thread — and that so is a warm block / hold / unblock
//! cycle of the serial kernel.
//!
//! The thread-enrolled counting allocator lives in
//! `support/counting_alloc.rs`, shared with `aas-core`'s dispatch budget.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{enroll, measured, unenroll, GATE};

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};

#[test]
fn cache_hit_send_path_allocates_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll(); // the serial kernel runs right here on the test thread

    let topo = Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: Kernel<u64> = Kernel::new(topo, 1401);
    let nodes: Vec<_> = k.topology().node_ids().collect();
    let channels: Vec<_> = (0..nodes.len())
        .map(|i| k.open_channel(nodes[i], nodes[(i + 5) % nodes.len()]))
        .collect();

    // Warm-up: populate the route cache for every (pair, size) the loop
    // uses, and let the event queue / channel buffers reach capacity.
    let run = |k: &mut Kernel<u64>, msgs: u64| {
        let mut delivered = 0u64;
        for i in 0..msgs {
            let ch = channels[(i % channels.len() as u64) as usize];
            let size = if (i / channels.len() as u64).is_multiple_of(2) {
                256
            } else {
                4096
            };
            k.send(ch, i, size);
            if let Some((_, Fired::Delivered { .. })) = k.step() {
                delivered += 1;
            }
        }
        while let Some((_, fired)) = k.step() {
            if matches!(fired, Fired::Delivered { .. }) {
                delivered += 1;
            }
        }
        delivered
    };
    let warm = run(&mut k, 4096);
    assert_eq!(warm, 4096, "warm-up must deliver everything");

    // Measured phase: every route resolves from the cache, so the loop
    // must not touch the allocator at all.
    let (delivered, delta) = measured(|| run(&mut k, 10_000));
    assert_eq!(delivered, 10_000, "measured phase must deliver everything");
    assert_eq!(
        delta, 0,
        "cache-hit send path performed {delta} heap allocations over 10k sends"
    );

    let stats = k.route_cache_stats();
    assert_eq!(
        stats.misses,
        channels.len() as u64 * 2,
        "one miss per (channel, size) pair, everything else hits"
    );
    assert!(stats.hits >= 10_000);
    unenroll();
}

/// A reconfiguration's view of a channel: block it, let sends arrive and
/// be held, unblock it and deliver what was held. Once the held queues
/// and the event queue have grown to the cycle's peak, the kernel
/// records the block and the release in its counters alone and the whole
/// cycle touches no allocator.
#[test]
fn a_warm_block_hold_unblock_cycle_allocates_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    enroll();

    let topo = Topology::clique(4, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: Kernel<u64> = Kernel::new(topo, 7);
    let channels: Vec<_> = (0..4u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 1) % 4)))
        .collect();
    let cycle = |k: &mut Kernel<u64>| {
        for &ch in &channels {
            k.block_channel(ch);
        }
        for i in 0..64u64 {
            k.send(channels[(i % 4) as usize], i, 256);
        }
        // Every send arrives at a blocked channel: nothing is visible.
        assert!(k.step().is_none(), "a blocked channel delivers nothing");
        for &ch in &channels {
            k.unblock_channel(ch);
        }
        let mut delivered = 0u64;
        while let Some((_, fired)) = k.step() {
            if matches!(fired, Fired::Delivered { .. }) {
                delivered += 1;
            }
        }
        delivered
    };
    for _ in 0..4 {
        assert_eq!(cycle(&mut k), 64, "warm-up must deliver everything");
    }

    let (delivered, delta) = measured(|| (0..16).map(|_| cycle(&mut k)).sum::<u64>());
    assert_eq!(delivered, 16 * 64, "every held message is delivered");
    assert_eq!(
        delta, 0,
        "16 warm block / unblock cycles performed {delta} heap allocations"
    );
    unenroll();
}

/// The same property under K=4 with real worker threads: only the
/// workers are enrolled (via the start hook), the coordinator thread is
/// not — so the assertion is precisely "a warm shard event loop never
/// allocates", independent of coordinator-side merge bookkeeping.
#[test]
fn sharded_worker_event_loops_allocate_nothing_when_warm() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let topo = Topology::clique(8, 100.0, SimDuration::from_millis(2), 1e7);
    let mut k: ShardedKernel<u64> =
        ShardedKernel::with_mode_and_hook(topo, 4, ExecMode::Threads, Some(enroll));
    let channels: Vec<_> = (0..8u32)
        .map(|i| k.open_channel(NodeId(i), NodeId((i + 3) % 8)))
        .collect();

    // One schedule, issued twice over disjoint time ranges: the warm pass
    // grows every per-shard heap, outbox, inbox and fired buffer to the
    // exact peak the measured pass will need.
    let schedule = |k: &mut ShardedKernel<u64>, base_us: u64| {
        for i in 0..4000u64 {
            let ch = channels[(i % 8) as usize];
            let size = if i.is_multiple_of(2) { 256 } else { 4096 };
            k.send_at(SimTime::from_micros(base_us + i * 11), ch, i, size);
        }
    };
    let count_delivered = |events: &[aas_sim::shard::MergedEvent<u64>]| {
        events
            .iter()
            .filter(|e| matches!(e.what, Fired::Delivered { .. }))
            .count()
    };

    // Two warm passes: the first grows every per-shard heap, outbox
    // batch, inbox slot and fired buffer; the second runs with the
    // adaptive window widths already at steady state, so its (wider)
    // sub-round batches reach the true capacity peak the measured pass
    // will replay.
    let mut now_us = 0;
    for _ in 0..2 {
        schedule(&mut k, now_us);
        let warm = k.drain();
        assert_eq!(
            count_delivered(&warm),
            4000,
            "warm pass must deliver everything"
        );
        now_us += 4000 * 11 + 60_000;
    }

    // Measured pass: identical load, so workers stay within the
    // capacities the warm passes established. Scheduling happens on the
    // (un-enrolled) main thread; only window execution is charged.
    schedule(&mut k, now_us);
    let (events, delta) = measured(|| k.drain());
    assert_eq!(
        count_delivered(&events),
        4000,
        "measured pass must deliver everything"
    );
    assert_eq!(
        delta, 0,
        "warm sharded event loops performed {delta} heap allocations over 4k sends"
    );
    assert_eq!(k.stats().early_crossings, 0);
}
