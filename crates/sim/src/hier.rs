//! Hierarchical routing with region-scoped partial invalidation.
//!
//! At planet scale the flat [`RouteCache`]
//! craters under fault churn: every liveness flap bumps the global routing
//! epoch, the whole cache flushes, and every active pair re-runs a
//! whole-graph Dijkstra. [`HierRouter`] replaces that with a two-level
//! scheme in the style of customizable route planning:
//!
//! * The topology is partitioned into *regions* (metros, motif instances —
//!   see [`Topology::set_node_region`]). Per `(region, size)` the router
//!   caches a *cell*: exact shortest intra-region distances (and paths)
//!   between the region's *border* nodes, stamped with the region's epoch.
//!   A flap inside one region invalidates one cell, not all of them.
//! * A query runs a *multilevel Dijkstra*: the source and destination
//!   regions are searched at full link granularity, every other region is
//!   traversed through its border clique — interior nodes of far regions
//!   are never settled. Search work scales with two region interiors plus
//!   the border overlay instead of the whole graph.
//! * Answered queries are memoized with *partial* invalidation: each entry
//!   records the regions its path crosses (with their epochs) and the
//!   topology's improve epoch. A *degrading* flap (node or link going
//!   down) evicts only entries crossing the flapped region; entries whose
//!   routes avoid it keep serving hits.
//!
//! # Exactness
//!
//! Unlike landmark schemes with stretch > 1, every route served here is a
//! true shortest path, equal in cost to a fresh whole-graph Dijkstra:
//!
//! * **Cells are exact** — an optimal path decomposes into maximal
//!   intra-region segments joined by inter-region links; each segment is
//!   an intra-region path between two borders, so it costs at least the
//!   cell's clique distance, and every clique edge expands to a real
//!   path. The multilevel search therefore finds exactly the optimum,
//!   including paths that leave a region and re-enter it.
//! * **Partial invalidation is sound** — a cached route is served only if
//!   (a) the improve epoch is unchanged, so no mutation since could have
//!   *created or shortened* any path, and (b) every region the route
//!   crosses has an unchanged epoch, so every hop is still alive and
//!   costs the same. Degradations elsewhere only remove paths: the cached
//!   route's cost is still achievable, and no cheaper path can have
//!   appeared, so it is still shortest. Unreachable (negative) entries
//!   are valid while the improve epoch stands, because only an improving
//!   mutation can create reachability.
//!
//! The property harness in `crates/sim/tests/route_cache_props.rs` checks
//! both claims against fresh whole-graph Dijkstra runs across randomized
//! flap schedules.

use crate::link::LinkId;
use crate::network::{
    RegionId, Route, RouteCache, RouteCacheStats, RouteScratch, Topology, LOCAL_TRANSIT,
};
use crate::node::NodeId;
use crate::time::SimDuration;
use std::collections::HashMap;
use std::sync::Arc;

/// Marker for "not a border node" in the per-node border index.
const NOT_BORDER: u32 = u32::MAX;

/// Counters describing how a [`HierRouter`] has been performing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Queries answered from the query cache (validity stamps intact).
    pub hits: u64,
    /// Queries that ran a multilevel search (and repopulated the cache).
    pub misses: u64,
    /// Cached entries dropped because a crossed region's epoch (or the
    /// improve epoch) moved — the partial counterpart of the flat cache's
    /// whole-map invalidation.
    pub stale_evictions: u64,
    /// Border-clique cell (re)builds, each a batch of region-local
    /// Dijkstra runs. This is the unit of post-flap recomputation; the
    /// flat cache's equivalent is a whole-graph Dijkstra per active pair.
    pub cell_rebuilds: u64,
    /// Multilevel overlay searches run (one per miss on mapped nodes).
    pub overlay_queries: u64,
    /// Whole-graph flat Dijkstra fallbacks (only taken when some node has
    /// no region assigned).
    pub full_fallbacks: u64,
    /// Nodes settled across every search this router ran (cells, overlay
    /// and fallback) — directly comparable to
    /// [`RouteCacheStats::settled`](crate::network::RouteCacheStats).
    pub settled: u64,
}

impl HierStats {
    /// Hit ratio in `[0, 1]`; `0.0` before any query.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One region's border-clique cell for one message size: exact shortest
/// intra-region distances and link paths between the region's borders,
/// valid while the region's epoch stands.
#[derive(Debug)]
struct Cell {
    /// Region epoch the cell was computed under.
    epoch: u64,
    /// `dist[i * borders + j]`: shortest intra-region transit from border
    /// `i` to border `j`; `None` when the live intra-region subgraph does
    /// not connect them.
    dist: Vec<Option<SimDuration>>,
    /// `paths[i * borders + j]`: the links of that path, ordered `i → j`.
    paths: Vec<Vec<LinkId>>,
}

/// Predecessor of a settled node in the multilevel search.
#[derive(Debug, Clone, Copy)]
enum Prev {
    /// Reached over a real link.
    Link(LinkId),
    /// Reached through a region's border clique, entering at `from`.
    Cut {
        /// The region traversed.
        region: u32,
        /// The border the shortcut was entered at.
        from: NodeId,
    },
}

/// Generation-stamped working memory for the multilevel search and the
/// cell builds (same trick as [`RouteScratch`]: `O(1)` clearing per
/// query).
#[derive(Debug, Default)]
struct HierScratch {
    stamp: u64,
    dist: Vec<(u64, SimDuration)>,
    prev: Vec<(u64, Prev)>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimDuration, u32)>>,
    settled: u64,
}

impl HierScratch {
    fn begin(&mut self, n: usize) {
        self.stamp += 1;
        if self.dist.len() < n {
            self.dist.resize(n, (0, SimDuration::ZERO));
            self.prev.resize(n, (0, Prev::Link(LinkId(u32::MAX))));
        }
        self.heap.clear();
    }

    fn dist(&self, v: NodeId) -> Option<SimDuration> {
        let (stamp, d) = self.dist[v.0 as usize];
        (stamp == self.stamp).then_some(d)
    }

    fn set_dist(&mut self, v: NodeId, d: SimDuration) {
        self.dist[v.0 as usize] = (self.stamp, d);
    }

    fn prev(&self, v: NodeId) -> Option<Prev> {
        let (stamp, p) = self.prev[v.0 as usize];
        (stamp == self.stamp).then_some(p)
    }

    fn set_prev(&mut self, v: NodeId, p: Prev) {
        self.prev[v.0 as usize] = (self.stamp, p);
    }

    /// Relaxes `v` through cost `nd`; pushes on improvement.
    fn relax(&mut self, v: NodeId, nd: SimDuration, p: Prev) {
        let better = match self.dist(v) {
            None => true,
            Some(old) => nd < old,
        };
        if better {
            self.set_dist(v, nd);
            self.set_prev(v, p);
            self.heap.push(std::cmp::Reverse((nd, v.0)));
        }
    }
}

/// A memoized query answer with its validity stamps.
#[derive(Debug)]
struct CachedEntry {
    route: Option<Arc<Route>>,
    /// Improve epoch at computation time.
    improve: u64,
    /// `(region, region_epoch)` for every region the route crosses,
    /// sorted by region; empty for negative (unreachable) entries.
    crossed: Vec<(u32, u64)>,
}

/// Hierarchical router: region border cliques + multilevel search + a
/// query memo with partial (region-scoped) invalidation. See the module
/// docs for the scheme and its exactness argument.
///
/// # Examples
///
/// ```
/// use aas_sim::hier::HierRouter;
/// use aas_sim::network::{RegionId, Topology};
/// use aas_sim::node::{NodeId, NodeSpec};
/// use aas_sim::link::LinkSpec;
/// use aas_sim::time::SimDuration;
///
/// // Two 2-node regions joined by one inter-region link.
/// let mut topo = Topology::new();
/// let ids: Vec<_> = (0..4)
///     .map(|i| topo.add_node(NodeSpec::new(format!("n{i}"), 1.0)))
///     .collect();
/// for w in [(0, 1), (1, 2), (2, 3)] {
///     topo.add_link(LinkSpec::new(ids[w.0], ids[w.1], SimDuration::from_millis(1), 1e9));
/// }
/// for (i, &id) in ids.iter().enumerate() {
///     topo.set_node_region(id, RegionId(i as u32 / 2));
/// }
/// let mut router = HierRouter::new();
/// let route = router.resolve(&topo, ids[0], ids[3], 0).expect("reachable");
/// assert_eq!(route.transit, topo.route(ids[0], ids[3], 0).unwrap().transit);
/// ```
#[derive(Debug, Default)]
pub struct HierRouter {
    // --- structure snapshot (rebuilt when the topology grows or regions
    // are reassigned) ---
    node_count: usize,
    link_count: usize,
    assign_epoch: u64,
    fully_assigned: bool,
    /// Border nodes per region, ascending node id.
    borders: Vec<Vec<NodeId>>,
    /// Per node: its index within its region's border list, or
    /// `NOT_BORDER`.
    border_idx: Vec<u32>,
    // --- caches ---
    cells: HashMap<(u32, u64), Cell>,
    queries: HashMap<(u32, u32, u64), CachedEntry>,
    // --- working memory ---
    scratch: HierScratch,
    cell_scratch: HierScratch,
    flat_scratch: RouteScratch,
    stats: HierStats,
}

impl HierRouter {
    /// Creates an empty router; structure is derived lazily from the
    /// topology on first use.
    #[must_use]
    pub fn new() -> Self {
        HierRouter::default()
    }

    /// Router performance counters.
    #[must_use]
    pub fn stats(&self) -> HierStats {
        self.stats
    }

    /// Number of memoized query answers (stale entries included until
    /// they are touched).
    #[must_use]
    pub fn cached_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of built border-clique cells across all `(region, size)`
    /// keys (stale cells included until they are touched).
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Answers a routing query, from the memo when its validity stamps
    /// are intact, otherwise by a multilevel search. Semantically
    /// identical to [`Topology::route`]: same reachability answers, same
    /// shortest transit.
    pub fn resolve(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<Arc<Route>> {
        self.sync_structure(topo);
        if !self.fully_assigned {
            // Not a hierarchical topology (yet): stay a correct router by
            // running the flat search. No memoization — this path exists
            // for partially-built topologies, not steady-state traffic.
            self.stats.full_fallbacks += 1;
            let route = topo
                .route_with(src, dst, size, &mut self.flat_scratch)
                .map(Arc::new);
            self.stats.settled += self.flat_scratch.take_settled();
            return route;
        }

        let key = (src.0, dst.0, size);
        if let Some(entry) = self.queries.get(&key) {
            let valid = entry.improve == topo.improve_epoch()
                && entry
                    .crossed
                    .iter()
                    .all(|&(r, e)| topo.region_epoch(RegionId(r)) == e);
            if valid {
                self.stats.hits += 1;
                return entry.route.clone();
            }
            self.queries.remove(&key);
            self.stats.stale_evictions += 1;
        }
        self.stats.misses += 1;

        let computed = self.overlay_query(topo, src, dst, size);
        let (route, crossed) = match computed {
            None => (None, Vec::new()),
            Some((transit, links)) => {
                let mut crossed: Vec<(u32, u64)> = Vec::new();
                let mut note = |node: NodeId| {
                    let r = topo.region_of(node).expect("fully assigned").0;
                    if let Err(i) = crossed.binary_search_by_key(&r, |&(r, _)| r) {
                        crossed.insert(i, (r, topo.region_epoch(RegionId(r))));
                    }
                };
                note(src);
                note(dst);
                for &lid in &links {
                    let spec = topo.link(lid).spec();
                    note(spec.a);
                    note(spec.b);
                }
                (Some(Arc::new(Route { links, transit })), crossed)
            }
        };
        self.queries.insert(
            key,
            CachedEntry {
                route: route.clone(),
                improve: topo.improve_epoch(),
                crossed,
            },
        );
        route
    }

    /// Rebuilds the border structure when the topology grew or regions
    /// were reassigned; drops every cache (correct but costly — this is a
    /// build-time event, not a steady-state one).
    fn sync_structure(&mut self, topo: &Topology) {
        if self.node_count == topo.node_count()
            && self.link_count == topo.link_count()
            && self.assign_epoch == topo.region_assignment_epoch()
        {
            return;
        }
        self.node_count = topo.node_count();
        self.link_count = topo.link_count();
        self.assign_epoch = topo.region_assignment_epoch();
        self.cells.clear();
        self.queries.clear();
        self.fully_assigned = topo.region_count() > 0 && topo.regions_fully_assigned();
        if !self.fully_assigned {
            return;
        }
        let regions = topo.region_count() as usize;
        let mut is_border = vec![false; self.node_count];
        for link in topo.links() {
            let spec = link.spec();
            let ra = topo.region_of(spec.a).expect("fully assigned");
            let rb = topo.region_of(spec.b).expect("fully assigned");
            if ra != rb {
                is_border[spec.a.0 as usize] = true;
                is_border[spec.b.0 as usize] = true;
            }
        }
        self.borders = vec![Vec::new(); regions];
        self.border_idx = vec![NOT_BORDER; self.node_count];
        for (i, &b) in is_border.iter().enumerate() {
            if b {
                let node = NodeId(i as u32);
                let r = topo.region_of(node).expect("fully assigned").0 as usize;
                self.border_idx[i] = self.borders[r].len() as u32;
                self.borders[r].push(node);
            }
        }
    }

    /// Ensures the `(region, size)` cell is fresh, rebuilding it with one
    /// intra-region Dijkstra per live border if not.
    fn ensure_cell(&mut self, topo: &Topology, region: u32, size: u64) {
        let epoch = topo.region_epoch(RegionId(region));
        if self
            .cells
            .get(&(region, size))
            .is_some_and(|c| c.epoch == epoch)
        {
            return;
        }
        let borders = &self.borders[region as usize];
        let b = borders.len();
        let mut dist = vec![None; b * b];
        let mut paths = vec![Vec::new(); b * b];
        for (i, &from) in borders.iter().enumerate() {
            dist[i * b + i] = Some(SimDuration::ZERO);
            if !topo.node(from).is_up() {
                continue;
            }
            // Dijkstra restricted to the region's live interior.
            let scratch = &mut self.cell_scratch;
            scratch.begin(topo.node_count());
            scratch.set_dist(from, SimDuration::ZERO);
            scratch
                .heap
                .push(std::cmp::Reverse((SimDuration::ZERO, from.0)));
            while let Some(std::cmp::Reverse((d, u))) = scratch.heap.pop() {
                let u = NodeId(u);
                if scratch.dist(u) != Some(d) {
                    continue;
                }
                scratch.settled += 1;
                for &lid in topo.links_of(u) {
                    let link = topo.link(lid);
                    if !link.is_up() {
                        continue;
                    }
                    let Some(v) = link.opposite(u) else { continue };
                    if !topo.node(v).is_up()
                        || topo.region_of(v).expect("fully assigned").0 != region
                    {
                        continue;
                    }
                    scratch.relax(v, d + link.transit(size), Prev::Link(lid));
                }
            }
            for (j, &to) in borders.iter().enumerate() {
                if j == i {
                    continue;
                }
                let Some(d) = self.cell_scratch.dist(to) else {
                    continue;
                };
                dist[i * b + j] = Some(d);
                let path = &mut paths[i * b + j];
                let mut cur = to;
                while cur != from {
                    let Some(Prev::Link(lid)) = self.cell_scratch.prev(cur) else {
                        unreachable!("cell paths are link-only")
                    };
                    path.push(lid);
                    cur = topo.link(lid).opposite(cur).expect("link endpoint");
                }
                path.reverse();
            }
        }
        self.stats.settled += std::mem::take(&mut self.cell_scratch.settled);
        self.stats.cell_rebuilds += 1;
        self.cells
            .insert((region, size), Cell { epoch, dist, paths });
    }

    /// The multilevel search: full link granularity inside the source and
    /// destination regions, border cliques everywhere else. Returns the
    /// exact shortest transit and its link path.
    fn overlay_query(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<(SimDuration, Vec<LinkId>)> {
        if !topo.node(src).is_up() || !topo.node(dst).is_up() {
            return None;
        }
        if src == dst {
            return Some((LOCAL_TRANSIT, Vec::new()));
        }
        self.stats.overlay_queries += 1;
        let open_a = topo.region_of(src).expect("fully assigned").0;
        let open_b = topo.region_of(dst).expect("fully assigned").0;

        // The scratch leaves `self` for the duration of the search so cell
        // rebuilds (which need `&mut self`) can interleave with
        // relaxations.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.begin(topo.node_count());
        scratch.set_dist(src, SimDuration::ZERO);
        scratch
            .heap
            .push(std::cmp::Reverse((SimDuration::ZERO, src.0)));

        while let Some(std::cmp::Reverse((d, u))) = scratch.heap.pop() {
            let u = NodeId(u);
            if scratch.dist(u) != Some(d) {
                continue;
            }
            scratch.settled += 1;
            if u == dst {
                break;
            }
            let ru = topo.region_of(u).expect("fully assigned").0;
            if ru == open_a || ru == open_b {
                // Open region: relax every live incident link.
                for &lid in topo.links_of(u) {
                    let link = topo.link(lid);
                    if !link.is_up() {
                        continue;
                    }
                    let Some(v) = link.opposite(u) else { continue };
                    if topo.node(v).is_up() {
                        scratch.relax(v, d + link.transit(size), Prev::Link(lid));
                    }
                }
            } else {
                // `u` is a border of a closed region (interior nodes of
                // closed regions are only reachable through cliques, which
                // jump straight to borders). Relax its inter-region links
                // plus its region's clique.
                for &lid in topo.links_of(u) {
                    let link = topo.link(lid);
                    if !link.is_up() {
                        continue;
                    }
                    let Some(v) = link.opposite(u) else { continue };
                    if !topo.node(v).is_up() || topo.region_of(v).expect("fully assigned").0 == ru {
                        continue;
                    }
                    scratch.relax(v, d + link.transit(size), Prev::Link(lid));
                }
                self.ensure_cell(topo, ru, size);
                let cell = &self.cells[&(ru, size)];
                let borders = &self.borders[ru as usize];
                let b = borders.len();
                let i = self.border_idx[u.0 as usize] as usize;
                debug_assert!(i < b, "settled interior node of a closed region");
                for (j, &to) in borders.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    if let Some(cd) = cell.dist[i * b + j] {
                        scratch.relax(
                            to,
                            d + cd,
                            Prev::Cut {
                                region: ru,
                                from: u,
                            },
                        );
                    }
                }
            }
        }

        let result = scratch.dist(dst).map(|transit| {
            let mut links = Vec::new();
            let mut cur = dst;
            while cur != src {
                match scratch.prev(cur).expect("path reconstruction") {
                    Prev::Link(lid) => {
                        links.push(lid);
                        cur = topo.link(lid).opposite(cur).expect("link endpoint");
                    }
                    Prev::Cut { region, from } => {
                        let cell = &self.cells[&(region, size)];
                        let b = self.borders[region as usize].len();
                        let i = self.border_idx[from.0 as usize] as usize;
                        let j = self.border_idx[cur.0 as usize] as usize;
                        for &lid in cell.paths[i * b + j].iter().rev() {
                            links.push(lid);
                        }
                        cur = from;
                    }
                }
            }
            links.reverse();
            (transit, links)
        });
        self.stats.settled += std::mem::take(&mut scratch.settled);
        self.scratch = scratch;
        result
    }
}

/// The route resolver of one event-loop core: the flat epoch-flushed
/// [`RouteCache`] by default, a [`HierRouter`] once hierarchical routing
/// is enabled. Every core of a kernel holds the same variant, so routing
/// policy never depends on the shard count.
#[derive(Debug)]
pub(crate) enum Router {
    Flat(RouteCache),
    Hier(Box<HierRouter>),
}

impl Router {
    pub fn flat(topo: &Topology) -> Self {
        Router::Flat(RouteCache::new(topo))
    }

    pub fn hier() -> Self {
        Router::Hier(Box::default())
    }

    /// A cold router of the same kind. Resolution is a pure function of
    /// the topology, so a cold copy routes identically; only the stats
    /// restart.
    pub fn cold_copy(&self, topo: &Topology) -> Self {
        match self {
            Router::Flat(_) => Router::flat(topo),
            Router::Hier(_) => Router::hier(),
        }
    }

    pub fn resolve(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<Arc<Route>> {
        match self {
            Router::Flat(c) => c.resolve(topo, src, dst, size),
            Router::Hier(h) => h.resolve(topo, src, dst, size),
        }
    }

    /// Flat-cache counters; all zero under hierarchical routing.
    pub fn flat_stats(&self) -> RouteCacheStats {
        match self {
            Router::Flat(c) => c.stats(),
            Router::Hier(_) => RouteCacheStats::default(),
        }
    }

    /// Hierarchical-router counters; `None` under flat routing.
    pub fn hier_stats(&self) -> Option<HierStats> {
        match self {
            Router::Flat(_) => None,
            Router::Hier(h) => Some(h.stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::NodeSpec;
    use crate::time::SimDuration;

    /// Three regions of 3 nodes each on a line, consecutive nodes linked:
    /// `0-1-2 | 3-4-5 | 6-7-8`, regions joined at 2-3 and 5-6, plus a slow
    /// direct 0-8 chord so partitions stay reachable.
    fn line9() -> Topology {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..9)
            .map(|i| t.add_node(NodeSpec::new(format!("n{i}"), 1.0)))
            .collect();
        for i in 0..8 {
            t.add_link(LinkSpec::new(
                ids[i],
                ids[i + 1],
                SimDuration::from_millis(2),
                1e9,
            ));
        }
        t.add_link(LinkSpec::new(
            ids[0],
            ids[8],
            SimDuration::from_millis(100),
            1e9,
        ));
        for (i, &id) in ids.iter().enumerate() {
            t.set_node_region(id, RegionId(i as u32 / 3));
        }
        t
    }

    fn assert_matches_flat(router: &mut HierRouter, topo: &Topology, size: u64) {
        for src in topo.node_ids() {
            for dst in topo.node_ids() {
                let hier = router.resolve(topo, src, dst, size);
                let flat = topo.route(src, dst, size);
                match (hier, flat) {
                    (None, None) => {}
                    (Some(h), Some(f)) => {
                        assert_eq!(
                            h.transit, f.transit,
                            "{src:?}->{dst:?} transit diverges from flat Dijkstra"
                        );
                        // The served path must really cost its claimed
                        // transit over live links.
                        if src != dst {
                            let mut total = SimDuration::ZERO;
                            let mut cur = src;
                            for &lid in &h.links {
                                let link = topo.link(lid);
                                assert!(link.is_up(), "{src:?}->{dst:?} uses down {lid:?}");
                                total += link.transit(size);
                                cur = link.opposite(cur).expect("contiguous path");
                                assert!(topo.node(cur).is_up());
                            }
                            assert_eq!(cur, dst, "path must end at dst");
                            assert_eq!(total, h.transit, "claimed transit must be the path cost");
                        }
                    }
                    (h, f) => panic!(
                        "{src:?}->{dst:?}: reachability diverges: hier={:?} flat={:?}",
                        h.map(|r| r.transit),
                        f.map(|r| r.transit)
                    ),
                }
            }
        }
    }

    #[test]
    fn matches_flat_dijkstra_on_all_pairs() {
        let topo = line9();
        let mut router = HierRouter::new();
        assert_matches_flat(&mut router, &topo, 64);
        assert!(router.stats().misses > 0);
        assert!(router.stats().full_fallbacks == 0);
    }

    #[test]
    fn repeat_queries_hit_the_memo() {
        let topo = line9();
        let mut router = HierRouter::new();
        let a = router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        let b = router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must clone the Arc");
        assert_eq!(router.stats().hits, 1);
        assert_eq!(router.stats().misses, 1);
    }

    #[test]
    fn degrading_flap_evicts_only_crossing_routes() {
        let mut topo = line9();
        let mut router = HierRouter::new();
        // Warm two entries: one inside region 0, one crossing all regions.
        router.resolve(&topo, NodeId(0), NodeId(1), 64).unwrap();
        router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        // Down-flap interior to region 2 (link 6-7 has both endpoints
        // there).
        topo.set_link_up(LinkId(6), false);
        // The intra-region-0 route survives (hit) …
        router.resolve(&topo, NodeId(0), NodeId(1), 64).unwrap();
        assert_eq!(router.stats().hits, 1, "route avoiding region 2 survives");
        // … the crossing route re-resolves (eviction + miss) and detours.
        let detoured = router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        assert_eq!(router.stats().stale_evictions, 1);
        assert_eq!(
            detoured.transit,
            topo.route(NodeId(0), NodeId(8), 64).unwrap().transit
        );
    }

    #[test]
    fn improving_flap_invalidates_cached_routes() {
        let mut topo = line9();
        topo.set_link_up(LinkId(6), false);
        let mut router = HierRouter::new();
        let slow = router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        // Recovery creates a shorter path; the stale (longer) entry must
        // not be served.
        topo.set_link_up(LinkId(6), true);
        let fast = router.resolve(&topo, NodeId(0), NodeId(8), 64).unwrap();
        assert!(fast.transit < slow.transit, "recovery shortens the route");
        assert_eq!(
            fast.transit,
            topo.route(NodeId(0), NodeId(8), 64).unwrap().transit
        );
    }

    #[test]
    fn unreachable_pairs_are_negatively_cached() {
        let mut topo = line9();
        topo.set_link_up(LinkId(2), false); // 2-3
        topo.set_link_up(LinkId(8), false); // 0-8 chord
        let mut router = HierRouter::new();
        assert!(router.resolve(&topo, NodeId(0), NodeId(8), 64).is_none());
        assert!(router.resolve(&topo, NodeId(0), NodeId(8), 64).is_none());
        assert_eq!(router.stats().hits, 1, "negative answers memoize too");
        // Downing something else keeps the negative entry valid …
        topo.set_link_up(LinkId(4), false);
        assert!(router.resolve(&topo, NodeId(0), NodeId(8), 64).is_none());
        assert_eq!(router.stats().hits, 2);
        // … but recovery (an improving flap) re-resolves it.
        topo.set_link_up(LinkId(4), true);
        topo.set_link_up(LinkId(2), true);
        assert!(router.resolve(&topo, NodeId(0), NodeId(8), 64).is_some());
    }

    #[test]
    fn paths_may_leave_and_reenter_a_region() {
        // Region 0 is a slow "U": its two borders connect internally only
        // through a 50ms link, but externally through region 1 in 4ms.
        // The exact router must route region-0 traffic *through* region 1.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0)); // region 0 border
        let b = t.add_node(NodeSpec::new("b", 1.0)); // region 0 border
        let x = t.add_node(NodeSpec::new("x", 1.0)); // region 1
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(50), 1e9));
        t.add_link(LinkSpec::new(a, x, SimDuration::from_millis(2), 1e9));
        t.add_link(LinkSpec::new(x, b, SimDuration::from_millis(2), 1e9));
        t.set_node_region(a, RegionId(0));
        t.set_node_region(b, RegionId(0));
        t.set_node_region(x, RegionId(1));
        let mut router = HierRouter::new();
        let route = router.resolve(&t, a, b, 0).unwrap();
        assert_eq!(route.transit, SimDuration::from_millis(4));
        assert_eq!(route.links.len(), 2, "detour through region 1");
    }

    #[test]
    fn falls_back_flat_on_unassigned_topologies() {
        let t = Topology::clique(4, 1.0, SimDuration::from_millis(1), 1e9);
        let mut router = HierRouter::new();
        let route = router.resolve(&t, NodeId(0), NodeId(3), 64).unwrap();
        assert_eq!(
            route.transit,
            t.route(NodeId(0), NodeId(3), 64).unwrap().transit
        );
        assert_eq!(router.stats().full_fallbacks, 1);
    }

    #[test]
    fn local_delivery_and_down_endpoints() {
        let mut topo = line9();
        let mut router = HierRouter::new();
        let local = router.resolve(&topo, NodeId(4), NodeId(4), 1_000).unwrap();
        assert_eq!(local.transit, LOCAL_TRANSIT);
        assert!(local.links.is_empty());
        topo.set_node_up(NodeId(8), false);
        assert!(router.resolve(&topo, NodeId(0), NodeId(8), 64).is_none());
        assert!(router.resolve(&topo, NodeId(8), NodeId(0), 64).is_none());
    }

    #[test]
    fn matches_flat_across_random_flap_schedules() {
        let mut rng = crate::rng::SimRng::seed_from(0x41e6);
        let mut topo = line9();
        let mut router = HierRouter::new();
        for _ in 0..200 {
            match rng.below(4) {
                0 => {
                    let l = LinkId(rng.below(topo.link_count() as u64) as u32);
                    let up = rng.chance(0.5);
                    topo.set_link_up(l, up);
                }
                1 => {
                    let n = NodeId(rng.below(topo.node_count() as u64) as u32);
                    let up = rng.chance(0.6);
                    topo.set_node_up(n, up);
                }
                _ => {
                    let src = NodeId(rng.below(topo.node_count() as u64) as u32);
                    let dst = NodeId(rng.below(topo.node_count() as u64) as u32);
                    let hier = router.resolve(&topo, src, dst, 64);
                    let flat = topo.route(src, dst, 64);
                    assert_eq!(
                        hier.map(|r| r.transit),
                        flat.map(|r| r.transit),
                        "{src:?}->{dst:?} diverged mid-schedule"
                    );
                }
            }
        }
        assert!(router.stats().misses > 0);
        assert!(router.stats().settled > 0);
    }
}
