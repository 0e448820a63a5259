//! Property tests for the epoch-invalidated route cache.
//!
//! 256 seeded random schedules interleave message sends, node/link flaps
//! (both via the topology mutators and via injected fault events), and
//! topology growth. After every schedule step a batch of cache-served
//! routes is compared against a fresh Dijkstra on the same topology, and
//! every hop of a cache-served route is checked to be alive — a cached
//! route must never survive a routing-affecting mutation.

use aas_sim::fault::FaultSchedule;
use aas_sim::kernel::Kernel;
use aas_sim::link::{LinkId, LinkSpec};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::SimDuration;

/// 8-node ring with two chords: enough alternative paths that flaps
/// actually change routes instead of just partitioning the graph.
fn base_topology() -> Topology {
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..8)
        .map(|i| t.add_node(NodeSpec::new(format!("n{i}"), 10.0)))
        .collect();
    for i in 0..8 {
        t.add_link(LinkSpec::new(
            ids[i],
            ids[(i + 1) % 8],
            SimDuration::from_millis(2),
            1e7,
        ));
    }
    t.add_link(LinkSpec::new(
        ids[0],
        ids[4],
        SimDuration::from_millis(5),
        1e7,
    ));
    t.add_link(LinkSpec::new(
        ids[2],
        ids[6],
        SimDuration::from_millis(5),
        1e7,
    ));
    t
}

const SIZES: [u64; 3] = [64, 4096, 262_144];

/// Compares the cache-served route against a fresh Dijkstra and checks
/// hop liveness. Panics with the seed/step on any divergence.
fn check_probes(k: &mut Kernel<u32>, rng: &mut SimRng, seed: u64, step: usize) {
    for _ in 0..4 {
        let n = k.topology().node_count() as u64;
        let src = NodeId(rng.below(n) as u32);
        let dst = NodeId(rng.below(n) as u32);
        let size = SIZES[rng.below(SIZES.len() as u64) as usize];
        let cached = k.route(src, dst, size);
        let fresh = k.topology().route(src, dst, size);
        match (cached, fresh) {
            (None, None) => {}
            (Some(c), Some(f)) => {
                assert_eq!(
                    c.links, f.links,
                    "seed {seed} step {step}: cached path {src:?}->{dst:?} differs from fresh"
                );
                assert_eq!(
                    c.transit, f.transit,
                    "seed {seed} step {step}: cached transit {src:?}->{dst:?} differs from fresh"
                );
                // No stale hops: every link and both endpoints of every
                // link on a served route must currently be up.
                let topo = k.topology();
                assert!(topo.node(src).is_up() && topo.node(dst).is_up());
                for &lid in &c.links {
                    let link = topo.link(lid);
                    assert!(
                        link.is_up(),
                        "seed {seed} step {step}: served route uses down link {lid:?}"
                    );
                    assert!(
                        topo.node(link.spec().a).is_up() && topo.node(link.spec().b).is_up(),
                        "seed {seed} step {step}: served route crosses a down node"
                    );
                }
            }
            (c, f) => panic!(
                "seed {seed} step {step}: cache and fresh Dijkstra disagree on \
                 reachability {src:?}->{dst:?}: cached={:?} fresh={:?}",
                c.map(|r| r.transit),
                f.map(|r| r.transit)
            ),
        }
    }
}

fn run_schedule(seed: u64) {
    let mut rng = SimRng::seed_from(seed ^ 0xE14);
    let mut k: Kernel<u32> = Kernel::new(base_topology(), seed);
    let mut channels = Vec::new();
    for _ in 0..4 {
        let n = k.topology().node_count() as u64;
        let src = NodeId(rng.below(n) as u32);
        let dst = NodeId(rng.below(n) as u32);
        channels.push(k.open_channel(src, dst));
    }
    for step in 0..120 {
        match rng.below(12) {
            0 | 1 => {
                // Node flap via the epoch-bumping topology mutator.
                let n = k.topology().node_count() as u64;
                let id = NodeId(rng.below(n) as u32);
                let up = rng.chance(0.5);
                k.topology_mut().set_node_up(id, up);
            }
            2 | 3 => {
                // Link flap via the epoch-bumping topology mutator.
                let m = k.topology().link_count() as u64;
                let id = LinkId(rng.below(m) as u32);
                let up = rng.chance(0.5);
                k.topology_mut().set_link_up(id, up);
            }
            4 => {
                // Topology growth: new node wired to two existing ones.
                let n = k.topology().node_count() as u64;
                let peer_a = NodeId(rng.below(n) as u32);
                let peer_b = NodeId(rng.below(n) as u32);
                let id = k
                    .topology_mut()
                    .add_node(NodeSpec::new(format!("g{step}"), 5.0));
                k.topology_mut().add_link(LinkSpec::new(
                    id,
                    peer_a,
                    SimDuration::from_millis(3),
                    1e7,
                ));
                if peer_b != peer_a {
                    k.topology_mut().add_link(LinkSpec::new(
                        id,
                        peer_b,
                        SimDuration::from_millis(4),
                        1e7,
                    ));
                }
            }
            5 => {
                // Flap through the kernel's fault pipeline as well, so the
                // epoch rule is exercised from `apply_fault` too.
                let n = k.topology().node_count() as u64;
                let id = NodeId(rng.below(n) as u32);
                let from = k.now() + SimDuration::from_micros(1);
                let mut sched = FaultSchedule::new();
                sched.node_outage(id, from, from + SimDuration::from_millis(1));
                k.inject_faults(sched);
                // Drain so the outage (and recovery) actually apply.
                let horizon = k.now() + SimDuration::from_millis(5);
                while k.next_event_time().is_some_and(|t| t <= horizon) {
                    k.step();
                }
            }
            _ => {
                // Send a burst over a random channel and pump the kernel.
                let ch = channels[rng.below(channels.len() as u64) as usize];
                for i in 0..4 {
                    let size = SIZES[rng.below(SIZES.len() as u64) as usize];
                    k.send(ch, step as u32 * 4 + i, size);
                }
                for _ in 0..6 {
                    if k.step().is_none() {
                        break;
                    }
                }
            }
        }
        check_probes(&mut k, &mut rng, seed, step);
    }
    // Every schedule must actually exercise the cache on both sides.
    let stats = k.route_cache_stats();
    assert!(stats.misses > 0, "seed {seed}: no cache misses recorded");
    assert!(
        stats.hits + stats.misses >= 480,
        "seed {seed}: probes not reaching the cache"
    );
}

#[test]
fn cache_matches_fresh_dijkstra_across_256_schedules() {
    for seed in 0..256 {
        run_schedule(seed);
    }
}

// ---------------------------------------------------------------------
// Per-shard caches (sharded kernel): every shard keeps its own route
// cache, but all of them validate against the single shared topology
// epoch — so one routing-affecting mutation, applied in one sync step,
// must invalidate the cache of *every* shard, not just the shard whose
// traffic triggered it.
// ---------------------------------------------------------------------

mod sharded {
    use super::base_topology;
    use aas_sim::coordinator::{ExecMode, ShardedKernel};
    use aas_sim::fault::FaultKind;
    use aas_sim::link::LinkId;
    use aas_sim::node::NodeId;
    use aas_sim::shard::ShardId;
    use aas_sim::time::SimTime;

    /// Opens one channel sourced on every node so all four shards resolve
    /// routes, then checks warm-hit behaviour, a fault-driven epoch bump,
    /// and the post-bump re-resolution on each shard independently.
    #[test]
    fn epoch_bump_on_one_shard_invalidates_every_shards_cache() {
        let mut k: ShardedKernel<u32> =
            ShardedKernel::with_mode(base_topology(), 4, ExecMode::Threads);
        let chans: Vec<_> = (0..8u32)
            .map(|i| k.open_channel(NodeId(i), NodeId((i + 2) % 8)))
            .collect();

        // Warm phase: two rounds per channel — first resolve misses, the
        // second must hit the (still-valid) per-shard cache.
        for (i, &ch) in chans.iter().enumerate() {
            k.send_at(SimTime::from_millis(1), ch, i as u32, 64);
            k.send_at(SimTime::from_millis(8), ch, 100 + i as u32, 64);
        }
        k.run_until(SimTime::from_millis(20));
        for s in 0..4 {
            let st = k.shard_route_cache_stats(ShardId(s));
            assert!(st.misses >= 1, "shard {s} never resolved: {st:?}");
            assert!(st.hits >= 1, "shard {s} warm send missed: {st:?}");
            assert_eq!(st.invalidations, 0, "shard {s} invalidated early: {st:?}");
        }

        // One fault, applied in a single coordinator sync step, bumps the
        // shared topology's routing epoch. LinkId(0) touches only nodes
        // 0 and 1 (shards 0 and 1) — yet shards 2 and 3 must also drop
        // their cached routes when they next resolve.
        k.fault_at(SimTime::from_millis(25), FaultKind::LinkDown(LinkId(0)));
        for (i, &ch) in chans.iter().enumerate() {
            k.send_at(SimTime::from_millis(30), ch, 200 + i as u32, 64);
        }
        k.drain();
        for s in 0..4 {
            let st = k.shard_route_cache_stats(ShardId(s));
            assert!(
                st.invalidations >= 1,
                "shard {s} kept a stale cache across the epoch bump: {st:?}"
            );
        }
        // The aggregate view sums the per-shard stats.
        let total = k.route_cache_stats();
        let summed = (0..4)
            .map(|s| k.shard_route_cache_stats(ShardId(s)))
            .fold((0u64, 0u64, 0u64), |a, s| {
                (a.0 + s.hits, a.1 + s.misses, a.2 + s.invalidations)
            });
        assert_eq!(
            (total.hits, total.misses, total.invalidations),
            summed,
            "aggregate stats must be the sum of per-shard stats"
        );
    }

    /// Post-bump routing is *correct*, not just invalidated: with the
    /// direct link down, traffic between its endpoints must detour and
    /// the sharded run must agree byte-for-byte with the serial kernel.
    #[test]
    fn post_bump_routes_match_serial_kernel() {
        let run = |shards: u32, mode: ExecMode| {
            let mut k: ShardedKernel<u32> = ShardedKernel::with_mode(base_topology(), shards, mode);
            let ch = k.open_channel(NodeId(0), NodeId(1));
            let back = k.open_channel(NodeId(5), NodeId(2));
            k.send_at(SimTime::from_millis(1), ch, 1, 4096);
            k.send_at(SimTime::from_millis(1), back, 2, 4096);
            k.fault_at(SimTime::from_millis(10), FaultKind::LinkDown(LinkId(0)));
            k.send_at(SimTime::from_millis(20), ch, 3, 4096);
            k.send_at(SimTime::from_millis(20), back, 4, 4096);
            let log: Vec<String> = k
                .drain()
                .iter()
                .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
                .collect();
            let bytes: Vec<u64> = (0..10).map(|l| k.link_bytes(LinkId(l))).collect();
            (log, bytes)
        };
        let serial = run(1, ExecMode::Inline);
        let sharded = run(4, ExecMode::Threads);
        assert_eq!(
            serial, sharded,
            "post-bump detour differs between K=1 and K=4"
        );
        // The downed link really was avoided after the bump: only the two
        // pre-fault messages can have crossed it.
        assert!(
            serial.1[0] <= 2 * (4096 + 64),
            "stale route used the downed link"
        );
    }
}

// ---------------------------------------------------------------------
// Hierarchical router: same exactness bar as the flat cache — every
// served route must match a fresh whole-graph Dijkstra — plus the
// partial-invalidation contract (a degrading flap evicts only routes
// crossing the flapped region) and the shared search: misses to one
// destination resume one search, whatever is asked in between.
// ---------------------------------------------------------------------

mod hier {
    use aas_sim::hier::HierRouter;
    use aas_sim::link::{LinkId, LinkSpec};
    use aas_sim::network::{RegionId, Topology};
    use aas_sim::node::{NodeId, NodeSpec};
    use aas_sim::rng::SimRng;
    use aas_sim::time::SimDuration;

    const SIZES: [u64; 3] = [64, 4096, 262_144];

    /// Four 6-node regions; see [`ring_of_regions`].
    fn regioned_topology() -> Topology {
        ring_of_regions(4)
    }

    /// `regions` 6-node regions, each a ring with a chord; regions joined
    /// in a ring through two border nodes each, plus one cross-link —
    /// plenty of alternative paths so flaps reroute instead of
    /// partitioning.
    fn ring_of_regions(regions: usize) -> Topology {
        let mut t = Topology::new();
        let mut rng = SimRng::seed_from(0x9e61);
        let mut nodes = Vec::new();
        for r in 0..regions as u32 {
            let ids: Vec<NodeId> = (0..6)
                .map(|i| {
                    let id = t.add_node(NodeSpec::new(format!("r{r}n{i}"), 10.0));
                    t.set_node_region(id, RegionId(r));
                    id
                })
                .collect();
            for i in 0..6 {
                t.add_link(LinkSpec::new(
                    ids[i],
                    ids[(i + 1) % 6],
                    SimDuration::from_millis(1 + rng.below(3)),
                    1e7,
                ));
            }
            t.add_link(LinkSpec::new(
                ids[0],
                ids[3],
                SimDuration::from_millis(2 + rng.below(3)),
                1e7,
            ));
            nodes.push(ids);
        }
        // Region ring: r connects to r+1 through two distinct border
        // pairs, so single inter-region link loss reroutes.
        for r in 0..regions {
            let next = (r + 1) % regions;
            t.add_link(LinkSpec::new(
                nodes[r][1],
                nodes[next][4],
                SimDuration::from_millis(4 + rng.below(4)),
                1e8,
            ));
            t.add_link(LinkSpec::new(
                nodes[r][2],
                nodes[next][5],
                SimDuration::from_millis(4 + rng.below(4)),
                1e8,
            ));
        }
        // One diagonal.
        t.add_link(LinkSpec::new(
            nodes[0][0],
            nodes[2][0],
            SimDuration::from_millis(9),
            1e8,
        ));
        t
    }

    /// A served route must equal the fresh Dijkstra answer: same
    /// reachability, same transit, live hops, and a path whose summed
    /// cost is its claimed transit.
    fn check_query(
        router: &mut HierRouter,
        topo: &Topology,
        (src, dst, size): (NodeId, NodeId, u64),
        ctx: &str,
    ) {
        let served = router.resolve(topo, src, dst, size);
        let fresh = topo.route(src, dst, size);
        match (served, fresh) {
            (None, None) => {}
            (Some(c), Some(f)) => {
                assert_eq!(
                    c.transit, f.transit,
                    "{ctx}: hier transit {src:?}->{dst:?} not shortest"
                );
                if src != dst {
                    let mut cost = SimDuration::ZERO;
                    let mut cur = src;
                    for &lid in &c.links {
                        let link = topo.link(lid);
                        assert!(link.is_up(), "{ctx}: served route uses down {lid:?}");
                        cost += link.transit(size);
                        cur = link.opposite(cur).expect("contiguous path");
                        assert!(
                            topo.node(cur).is_up(),
                            "{ctx}: served route crosses a down node"
                        );
                    }
                    assert_eq!(cur, dst, "{ctx}: path must reach dst");
                    assert_eq!(
                        cost, c.transit,
                        "{ctx}: claimed transit is not the path cost"
                    );
                }
            }
            (c, f) => panic!(
                "{ctx}: hier and fresh disagree on reachability \
                 {src:?}->{dst:?}: hier={:?} fresh={:?}",
                c.map(|r| r.transit),
                f.map(|r| r.transit)
            ),
        }
    }

    fn random_node(topo: &Topology, rng: &mut SimRng) -> NodeId {
        NodeId(rng.below(topo.node_count() as u64) as u32)
    }

    fn random_size(rng: &mut SimRng) -> u64 {
        SIZES[rng.below(SIZES.len() as u64) as usize]
    }

    /// Four independent random queries.
    fn check_probes(
        router: &mut HierRouter,
        topo: &Topology,
        rng: &mut SimRng,
        seed: u64,
        step: usize,
    ) {
        for _ in 0..4 {
            let query = (
                random_node(topo, rng),
                random_node(topo, rng),
                random_size(rng),
            );
            check_query(router, topo, query, &format!("seed {seed} step {step}"));
        }
    }

    fn run_schedule(seed: u64) {
        let mut rng = SimRng::seed_from(seed ^ 0xE16);
        let mut topo = regioned_topology();
        let mut router = HierRouter::new();
        for step in 0..100 {
            match rng.below(10) {
                0 | 1 => {
                    let n = topo.node_count() as u64;
                    let id = NodeId(rng.below(n) as u32);
                    let up = rng.chance(0.55);
                    topo.set_node_up(id, up);
                }
                2..=4 => {
                    let m = topo.link_count() as u64;
                    let id = LinkId(rng.below(m) as u32);
                    let up = rng.chance(0.5);
                    topo.set_link_up(id, up);
                }
                5 => {
                    // Growth: the new node is first unassigned (hier must
                    // stay correct by falling back flat), then adopted
                    // into a region.
                    let n = topo.node_count() as u64;
                    let peer = NodeId(rng.below(n) as u32);
                    let id = topo.add_node(NodeSpec::new(format!("g{step}"), 5.0));
                    topo.add_link(LinkSpec::new(id, peer, SimDuration::from_millis(3), 1e7));
                    check_probes(&mut router, &topo, &mut rng, seed, step);
                    let region = topo.region_of(peer).expect("grown from a regioned node");
                    topo.set_node_region(id, region);
                }
                _ => {}
            }
            check_probes(&mut router, &topo, &mut rng, seed, step);
        }
        let stats = router.stats();
        assert!(stats.misses > 0, "seed {seed}: router never searched");
    }

    #[test]
    fn hier_matches_fresh_dijkstra_across_64_schedules() {
        for seed in 0..64 {
            run_schedule(seed);
        }
    }

    #[test]
    fn degrading_flaps_only_evict_crossing_routes() {
        let mut topo = regioned_topology();
        let mut router = HierRouter::new();
        // Warm one intra-region-0 pair and one region 0 -> region 2 pair.
        let local = (NodeId(3), NodeId(4)); // region 0 interior
        let far = (NodeId(0), NodeId(15)); // region 0 -> region 2
        router.resolve(&topo, local.0, local.1, 64).unwrap();
        router.resolve(&topo, far.0, far.1, 64).unwrap();
        let warm = router.stats();

        // Down-flap a link interior to region 3 (nodes 18..24): neither
        // warmed route crosses it, so both must keep hitting.
        let interior = topo
            .links()
            .position(|l| {
                let s = l.spec();
                topo.region_of(s.a) == Some(RegionId(3)) && topo.region_of(s.b) == Some(RegionId(3))
            })
            .expect("region 3 has interior links");
        topo.set_link_up(LinkId(interior as u32), false);

        router.resolve(&topo, local.0, local.1, 64).unwrap();
        router.resolve(&topo, far.0, far.1, 64).unwrap();
        let after = router.stats();
        assert_eq!(
            after.hits,
            warm.hits + 2,
            "a flap in an uncrossed region must not evict: {after:?}"
        );
        assert_eq!(
            after.stale_evictions, warm.stale_evictions,
            "no stale evictions expected: {after:?}"
        );

        // A recovery (improving flap) is global: both entries go stale.
        topo.set_link_up(LinkId(interior as u32), true);
        router.resolve(&topo, local.0, local.1, 64).unwrap();
        router.resolve(&topo, far.0, far.1, 64).unwrap();
        let recovered = router.stats();
        assert_eq!(
            recovered.stale_evictions,
            after.stale_evictions + 2,
            "an improving flap must invalidate everything: {recovered:?}"
        );
    }

    /// A node of `region` (regions are 6 consecutive node ids).
    fn node_in(region: u64, rng: &mut SimRng) -> NodeId {
        NodeId((region * 6 + rng.below(6)) as u32)
    }

    /// Runs of queries that share a destination, alternate between two,
    /// or hop between source regions, interleaved with degrade-only and
    /// recovering flaps: what the live search is resumed for, restarted
    /// for, and invalidated by.
    fn run_shared_schedule(seed: u64, regions: usize) {
        let mut rng = SimRng::seed_from(seed ^ 0x5EA2C4);
        let mut topo = ring_of_regions(regions);
        let mut router = HierRouter::new();
        let mut downed: Vec<LinkId> = Vec::new();
        for step in 0..60 {
            let ctx = format!("seed {seed} regions {regions} step {step}");
            match rng.below(4) {
                0 => {
                    // Degrade only: the improve epoch stands.
                    let id = LinkId(rng.below(topo.link_count() as u64) as u32);
                    topo.set_link_up(id, false);
                    downed.push(id);
                }
                1 => {
                    if rng.chance(0.5) {
                        let node = random_node(&topo, &mut rng);
                        topo.set_node_up(node, false);
                    } else if let Some(id) = downed.pop() {
                        topo.set_link_up(id, true);
                    } else {
                        for node in topo.node_ids().collect::<Vec<_>>() {
                            topo.set_node_up(node, true);
                        }
                    }
                }
                _ => {}
            }
            let size = random_size(&mut rng);
            let dst = random_node(&topo, &mut rng);
            let other = random_node(&topo, &mut rng);
            let region = rng.below(regions as u64);
            let other_region = rng.below(regions as u64);
            for i in 0..8 {
                let query = match step % 3 {
                    // One destination, sources of one region.
                    0 => (node_in(region, &mut rng), dst, size),
                    // Two destinations, alternating.
                    1 => (node_in(region, &mut rng), [dst, other][i % 2], size),
                    // One destination, alternating source regions.
                    _ => (node_in([region, other_region][i % 2], &mut rng), dst, size),
                };
                check_query(&mut router, &topo, query, &ctx);
            }
        }
        let stats = router.stats();
        assert!(
            stats.overlay_queries < stats.misses,
            "seed {seed}: no miss ever resumed a search: {stats:?}"
        );
    }

    #[test]
    fn shared_search_matches_fresh_dijkstra_across_64_schedules() {
        for seed in 0..64 {
            run_shared_schedule(seed, 4);
        }
    }

    #[test]
    fn shared_search_holds_above_64_regions() {
        for seed in 0..8 {
            run_shared_schedule(seed, 70);
        }
    }

    #[test]
    fn misses_of_one_region_to_one_destination_share_one_search() {
        let topo = regioned_topology();
        let mut router = HierRouter::new();
        let dst = NodeId(15); // region 2
        for src in 0..6 {
            check_query(&mut router, &topo, (NodeId(src), dst, 64), "region 0");
        }
        let stats = router.stats();
        assert_eq!(stats.misses, 6);
        assert_eq!(
            stats.overlay_queries, 1,
            "six misses, one search: {stats:?}"
        );
        // Another source region is another search, rooted at the same
        // destination; so is the first region again after it.
        check_query(&mut router, &topo, (NodeId(20), dst, 64), "region 3");
        assert_eq!(router.stats().overlay_queries, 2);
    }

    #[test]
    fn a_region_with_every_border_down_is_cut_off_not_mis_routed() {
        let mut topo = regioned_topology();
        // Region 1 is nodes 6..12; its borders are the endpoints of its
        // inter-region links.
        let borders: Vec<NodeId> = (6..12)
            .map(NodeId)
            .filter(|&n| {
                topo.links_of(n).iter().any(|&l| {
                    let s = topo.link(l).spec();
                    topo.region_of(s.a) != topo.region_of(s.b)
                })
            })
            .collect();
        let interior: Vec<NodeId> = (6..12)
            .map(NodeId)
            .filter(|n| !borders.contains(n))
            .collect();
        assert!(!interior.is_empty(), "region 1 needs an interior node");
        let mut router = HierRouter::new();
        // Warm routes into, out of and across region 1 first, so the
        // degrading flaps have memo entries to evict.
        let probes = [
            (interior[0], NodeId(0)),
            (NodeId(0), interior[0]),
            (NodeId(0), NodeId(15)),
            (NodeId(20), NodeId(3)),
        ];
        for &(src, dst) in &probes {
            check_query(&mut router, &topo, (src, dst, 64), "warm");
        }
        for &b in &borders {
            topo.set_node_up(b, false);
        }
        assert!(topo.route(interior[0], NodeId(0), 64).is_none());
        for round in 0..2 {
            for &(src, dst) in &probes {
                check_query(&mut router, &topo, (src, dst, 64), &format!("cut {round}"));
            }
        }
    }

    #[test]
    fn an_unreachable_source_asked_twice_is_searched_once() {
        let mut topo = regioned_topology();
        // Isolate node 9 (region 1): every incident link goes down.
        let lonely = NodeId(9);
        for l in topo.links_of(lonely).to_vec() {
            topo.set_link_up(l, false);
        }
        let mut router = HierRouter::new();
        check_query(&mut router, &topo, (lonely, NodeId(15), 64), "first");
        let first = router.stats();
        assert_eq!(first.overlay_queries, 1);
        check_query(&mut router, &topo, (lonely, NodeId(15), 64), "second");
        let second = router.stats();
        assert_eq!(second.hits, first.hits + 1, "negative answers memoize");
        assert_eq!(
            (second.overlay_queries, second.settled),
            (first.overlay_queries, first.settled),
            "the second answer must come without a new search"
        );
        // A neighbour in the same region resumes the search that ran dry.
        check_query(&mut router, &topo, (NodeId(8), NodeId(15), 64), "neighbour");
        let third = router.stats();
        assert_eq!(third.overlay_queries, 1, "same destination, same region");
        assert_eq!(
            third.settled, second.settled,
            "a dry search settles nothing"
        );
    }

    /// Satellite regression: a pair that is never asked again (a channel
    /// rebound by mobility, closed after a migration) must not stay in
    /// the memo for the life of the kernel.
    #[test]
    fn memo_never_outgrows_the_live_pairs_across_rebinds_and_recoveries() {
        let mut rng = SimRng::seed_from(0x1EAC);
        let mut topo = regioned_topology();
        let mut router = HierRouter::new();
        let mut live: Vec<(NodeId, NodeId)> = (0..12)
            .map(|_| (random_node(&topo, &mut rng), random_node(&topo, &mut rng)))
            .collect();
        for round in 0..200 {
            // One pair is rebound: its old endpoints are never asked again.
            let slot = rng.below(live.len() as u64) as usize;
            live[slot] = (random_node(&topo, &mut rng), random_node(&topo, &mut rng));
            // A flap that recovers: every memoized route goes stale.
            let link = LinkId(rng.below(topo.link_count() as u64) as u32);
            topo.set_link_up(link, false);
            topo.set_link_up(link, true);
            for &(src, dst) in &live {
                check_query(
                    &mut router,
                    &topo,
                    (src, dst, 64),
                    &format!("round {round}"),
                );
            }
            assert!(
                router.cached_queries() <= live.len(),
                "round {round}: {} entries for {} live pairs",
                router.cached_queries(),
                live.len()
            );
        }
    }
}
