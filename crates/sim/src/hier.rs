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
//! * A miss runs a *multilevel Dijkstra rooted at the destination*: the
//!   destination's and the source's regions are searched at full link
//!   granularity, every other region is traversed through its border
//!   clique — interior nodes of far regions are never settled. Search work
//!   scales with two region interiors plus the border overlay instead of
//!   the whole graph.
//! * The search is *resumable*. Its heap and labels stay alive after it
//!   has answered, keyed by `(dst, region(src), size)` and the routing
//!   epoch; the next miss with the same key continues it from where it
//!   stopped — a source it already settled is read straight off the
//!   predecessor links, one it has not costs only the settles still
//!   missing. A monitor that a thousand nodes report to is searched from
//!   once per source region and routing epoch, not once per channel.
//! * Answered queries are memoized with *partial* invalidation. An entry
//!   is a route and the routing epoch it was last validated at, nothing
//!   else; the topology records per region the routing epoch of its last
//!   touch ([`Topology::region_epoch`]). While the routing epoch stands a
//!   hit is one comparison. Once it has moved, the regions the route
//!   crosses are read off the route's own links: if none was touched since
//!   the entry's stamp the entry is re-stamped and served, otherwise it is
//!   recomputed — a *degrading* flap (node or link going down) evicts only
//!   entries crossing the flapped region. An *improving* flap (recovery,
//!   addition) clears the whole memo, as the flat cache does on its epoch.
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
//! * **Rooting at the destination changes nothing** — links are
//!   undirected and [`Link::transit`](crate::link::Link::transit) is
//!   symmetric and integer-valued, so the shortest `dst → src` transit is
//!   the shortest `src → dst` transit, summed from the same integers. The
//!   path is read `src → dst` off the predecessor links, cell paths taken
//!   in the `cur → from` direction.
//! * **Resuming is sound** — Dijkstra's labels at or below the key of the
//!   last settled node are final, whatever target the search was started
//!   for; the live search is dropped the moment the routing epoch moves,
//!   so every label it holds was computed on the topology as it is.
//! * **Partial invalidation is sound** — a cached route is served only if
//!   (a) the improve epoch is unchanged, so no mutation since could have
//!   *created or shortened* any path, and (b) no region the route crosses
//!   was touched after the entry's stamp, so every hop is still alive and
//!   costs the same. Degradations elsewhere only remove paths: the cached
//!   route's cost is still achievable, and no cheaper path can have
//!   appeared, so it is still shortest. Unreachable (negative) entries
//!   are valid while the improve epoch stands, because only an improving
//!   mutation can create reachability.
//!
//! The property harness in `crates/sim/tests/route_cache_props.rs` checks
//! these claims against fresh whole-graph Dijkstra runs across randomized
//! flap schedules.

use crate::link::LinkId;
use crate::network::{
    IdMap, RegionId, Route, RouteCache, RouteCacheStats, RouteScratch, Topology, LOCAL_TRANSIT,
};
use crate::node::NodeId;
use crate::time::SimDuration;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Counters describing how a [`HierRouter`] has been performing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Queries answered from the memo (stamp current, or no crossed
    /// region touched since it).
    pub hits: u64,
    /// Queries the memo could not answer; each is answered by the
    /// multilevel search, resumed or started.
    pub misses: u64,
    /// Memo entries dropped because a region their route crosses was
    /// touched, or because the improve epoch moved (every entry at once) —
    /// the partial counterpart of the flat cache's whole-map invalidation.
    pub stale_evictions: u64,
    /// Border-clique cell (re)builds, each a batch of region-local
    /// Dijkstra runs. This is the unit of post-flap recomputation; the
    /// flat cache's equivalent is a whole-graph Dijkstra per active pair.
    pub cell_rebuilds: u64,
    /// Multilevel searches *started*. A miss that shares destination,
    /// source region, size and routing epoch with the live search resumes
    /// it and starts none, so this is at most `misses`.
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
/// valid while the region's epoch stands. Links are undirected, so only
/// the pairs `i < j` are kept, in three flat vectors.
#[derive(Debug, Default)]
struct Cell {
    /// Region epoch the cell was computed under.
    epoch: u64,
    /// Shortest intra-region transit between borders `i < j`, at
    /// [`pair`]`(b, i, j)`; [`SimDuration::MAX`] when the live
    /// intra-region subgraph does not connect them.
    dist: Vec<SimDuration>,
    /// Where each pair's path ends in `links`; it starts where the
    /// previous pair's ends.
    path_end: Vec<u32>,
    /// The pairs' paths back to back, each ordered from border `j` to
    /// border `i`.
    links: Vec<LinkId>,
}

/// Position of the border pair `i < j`, of `b` borders, in a cell's
/// vectors.
fn pair(b: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < b);
    i * (2 * b - i - 1) / 2 + (j - i - 1)
}

impl Cell {
    /// Intra-region transit between borders `i != j`, in either order.
    fn dist(&self, b: usize, i: usize, j: usize) -> Option<SimDuration> {
        let d = self.dist[pair(b, i.min(j), i.max(j))];
        (d != SimDuration::MAX).then_some(d)
    }

    /// Appends the links of the path from border `from` to border `to`.
    fn push_path(&self, b: usize, from: usize, to: usize, out: &mut Vec<LinkId>) {
        let p = pair(b, from.min(to), from.max(to));
        let start = if p == 0 { 0 } else { self.path_end[p - 1] };
        let path = &self.links[start as usize..self.path_end[p] as usize];
        if from > to {
            out.extend_from_slice(path);
        } else {
            out.extend(path.iter().rev());
        }
    }
}

/// Tag bit of [`Label::prev`]: the rest names a border node, not a link.
const CUT: u32 = 1 << 31;

/// What a search knows about one node.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: SimDuration,
    /// Generation of the search that wrote the label; any other reads as
    /// unset (same trick as [`RouteScratch`]: `O(1)` clearing per search).
    stamp: u32,
    /// Next hop towards the root: a link id, or `CUT |` the id of the
    /// border the node's region is left at, through its clique.
    prev: u32,
}

/// Working memory of one Dijkstra run — the multilevel search, which
/// stays alive between misses, or a cell build.
#[derive(Debug, Default)]
struct Scratch {
    stamp: u32,
    labels: Vec<Label>,
    heap: BinaryHeap<Reverse<(SimDuration, u32)>>,
    /// Key of the last node settled. Keys leave the heap in order, so
    /// every label at or below it is final.
    frontier: SimDuration,
    settled: u64,
}

impl Scratch {
    /// Starts a search over `n` nodes from `root`.
    fn begin(&mut self, n: usize, root: NodeId) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // The generations wrapped: a label 2^32 searches old would
            // read as current.
            self.labels.clear();
            self.stamp = 1;
        }
        if self.labels.len() < n {
            let unset = Label {
                dist: SimDuration::ZERO,
                stamp: 0,
                prev: 0,
            };
            self.labels.resize(n, unset);
        }
        self.heap.clear();
        self.frontier = SimDuration::ZERO;
        self.relax(root, SimDuration::ZERO, 0);
    }

    fn label(&self, v: NodeId) -> Option<Label> {
        let label = self.labels[v.0 as usize];
        (label.stamp == self.stamp).then_some(label)
    }

    /// Relaxes `v` through cost `dist`; pushes on improvement.
    fn relax(&mut self, v: NodeId, dist: SimDuration, prev: u32) {
        if self.label(v).is_none_or(|old| dist < old.dist) {
            self.labels[v.0 as usize] = Label {
                dist,
                stamp: self.stamp,
                prev,
            };
            self.heap.push(Reverse((dist, v.0)));
        }
    }

    /// Settles the nearest unsettled node.
    fn settle(&mut self) -> Option<(SimDuration, NodeId)> {
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.label(u).is_some_and(|l| l.dist == d) {
                self.frontier = d;
                self.settled += 1;
                return Some((d, u));
            }
        }
        None
    }
}

/// What the live multilevel search answers: every source in one region,
/// to one destination, at one size, on the topology of one routing epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SearchKey {
    dst: NodeId,
    src_region: u32,
    size: u64,
    epoch: u64,
}

/// A memoized query answer and the routing epoch it was last known good
/// at.
#[derive(Debug)]
struct CachedEntry {
    route: Option<Arc<Route>>,
    validated: u64,
}

/// Hierarchical router: region border cliques + a resumable multilevel
/// search + a query memo with partial (region-scoped) invalidation. See
/// the module docs for the scheme and its exactness argument.
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
    // --- caches ---
    cells: IdMap<(u32, u64), Cell>,
    queries: IdMap<(u32, u32, u64), CachedEntry>,
    /// Improve epoch the memo was filled under.
    improve_epoch: u64,
    // --- working memory ---
    /// What the labels in `search` answer; `None` until the first search
    /// and after a structure change.
    live: Option<SearchKey>,
    search: Scratch,
    cell_scratch: Scratch,
    /// The path of the route being assembled, so that the route itself is
    /// one exact-size allocation.
    path: Vec<LinkId>,
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

    /// Number of memoized query answers (entries staled by a degrading
    /// flap included, until they are asked again or the improve epoch
    /// moves).
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

    /// Answers a routing query, from the memo when no region the memoized
    /// route crosses was touched since, otherwise by the multilevel
    /// search. Semantically identical to [`Topology::route`]: same
    /// reachability answers, same shortest transit.
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
        if self.improve_epoch != topo.improve_epoch() {
            // A path may have appeared that beats any memoized route, or
            // reaches what a negative entry could not.
            self.stats.stale_evictions += self.queries.len() as u64;
            self.queries.clear();
            self.improve_epoch = topo.improve_epoch();
        }

        let key = (src.0, dst.0, size);
        let epoch = topo.epoch();
        if let Some(entry) = self.queries.get_mut(&key) {
            if entry.validated == epoch || untouched_since(topo, src, dst, entry) {
                entry.validated = epoch;
                self.stats.hits += 1;
                return entry.route.clone();
            }
            self.stats.stale_evictions += 1;
        }
        self.stats.misses += 1;
        let route = self.search(topo, src, dst, size);
        let entry = CachedEntry {
            route: route.clone(),
            validated: epoch,
        };
        self.queries.insert(key, entry);
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
        self.live = None;
        self.fully_assigned = topo.region_count() > 0 && topo.regions_fully_assigned();
        if !self.fully_assigned {
            return;
        }
        assert!(
            self.node_count < CUT as usize && self.link_count < CUT as usize,
            "node and link ids must leave the label's tag bit free"
        );
        let mut is_border = vec![false; self.node_count];
        for link in topo.links() {
            let spec = link.spec();
            if region(topo, spec.a) != region(topo, spec.b) {
                is_border[spec.a.0 as usize] = true;
                is_border[spec.b.0 as usize] = true;
            }
        }
        self.borders = vec![Vec::new(); topo.region_count() as usize];
        for (i, _) in is_border.iter().enumerate().filter(|(_, &b)| b) {
            let node = NodeId(i as u32);
            self.borders[region(topo, node) as usize].push(node);
        }
    }

    /// Ensures the `(region, size)` cell is fresh, rebuilding it with one
    /// intra-region Dijkstra per border but the last if not.
    fn ensure_cell(&mut self, topo: &Topology, region_id: u32, size: u64) {
        let epoch = topo.region_epoch(RegionId(region_id));
        let key = (region_id, size);
        if self.cells.get(&key).is_some_and(|c| c.epoch == epoch) {
            return;
        }
        // A stale cell's vectors are refilled in place.
        let mut cell = self.cells.remove(&key).unwrap_or_default();
        cell.epoch = epoch;
        cell.dist.clear();
        cell.path_end.clear();
        cell.links.clear();
        let borders = &self.borders[region_id as usize];
        let scratch = &mut self.cell_scratch;
        for (i, &from) in borders.iter().enumerate() {
            let later = &borders[i + 1..];
            if later.is_empty() {
                break;
            }
            scratch.begin(topo.node_count(), from);
            if !topo.node(from).is_up() {
                // A border that is down reaches nothing.
                scratch.heap.clear();
            }
            // Dijkstra restricted to the region's live interior, to
            // exhaustion, so every label it leaves is final.
            while let Some((d, u)) = scratch.settle() {
                for &lid in topo.links_of(u) {
                    let link = topo.link(lid);
                    if !link.is_up() {
                        continue;
                    }
                    let Some(v) = link.opposite(u) else { continue };
                    if topo.node(v).is_up() && region(topo, v) == region_id {
                        scratch.relax(v, d + link.transit(size), lid.0);
                    }
                }
            }
            for &to in later {
                cell.dist
                    .push(scratch.label(to).map_or(SimDuration::MAX, |l| l.dist));
                let mut cur = to;
                while let Some(label) = scratch.label(cur).filter(|_| cur != from) {
                    let lid = LinkId(label.prev);
                    cell.links.push(lid);
                    cur = topo.link(lid).opposite(cur).expect("link endpoint");
                }
                cell.path_end.push(cell.links.len() as u32);
            }
        }
        self.stats.settled += std::mem::take(&mut scratch.settled);
        self.stats.cell_rebuilds += 1;
        self.cells.insert(key, cell);
    }

    /// Answers a miss from the multilevel search rooted at `dst`: resumes
    /// the live one when it was started for the same destination, source
    /// region, size and routing epoch, starts over otherwise.
    fn search(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<Arc<Route>> {
        if !topo.node(src).is_up() || !topo.node(dst).is_up() {
            return None;
        }
        if src == dst {
            return Some(Arc::new(Route {
                links: Vec::new(),
                transit: LOCAL_TRANSIT,
            }));
        }
        let key = SearchKey {
            dst,
            src_region: region(topo, src),
            size,
            epoch: topo.epoch(),
        };
        // The scratch leaves `self` for the duration of the search so cell
        // rebuilds (which need `&mut self`) can interleave with
        // relaxations.
        let mut scratch = std::mem::take(&mut self.search);
        if self.live != Some(key) {
            self.live = Some(key);
            self.stats.overlay_queries += 1;
            scratch.begin(topo.node_count(), dst);
        }
        let transit = self.settle_until(topo, &mut scratch, key, src);
        let route = transit.map(|transit| {
            self.read_path(topo, &scratch, src, dst, size);
            Arc::new(Route {
                links: self.path.clone(),
                transit,
            })
        });
        self.stats.settled += std::mem::take(&mut scratch.settled);
        self.search = scratch;
        route
    }

    /// Advances the multilevel search until `target`'s label is final:
    /// full link granularity inside the destination's and the source's
    /// regions, border cliques everywhere else. Returns the exact shortest
    /// transit, or `None` once the search has run dry without reaching
    /// `target`.
    fn settle_until(
        &mut self,
        topo: &Topology,
        scratch: &mut Scratch,
        key: SearchKey,
        target: NodeId,
    ) -> Option<SimDuration> {
        let dst_region = region(topo, key.dst);
        loop {
            if let Some(label) = scratch.label(target).filter(|l| l.dist <= scratch.frontier) {
                return Some(label.dist);
            }
            let (d, u) = scratch.settle()?;
            let ru = region(topo, u);
            let open = ru == dst_region || ru == key.src_region;
            for &lid in topo.links_of(u) {
                let link = topo.link(lid);
                if !link.is_up() {
                    continue;
                }
                let Some(v) = link.opposite(u) else { continue };
                // Inside a closed region only its clique moves, below.
                if topo.node(v).is_up() && (open || region(topo, v) != ru) {
                    scratch.relax(v, d + link.transit(key.size), lid.0);
                }
            }
            if !open {
                // `u` is a border of a closed region (interior nodes of
                // closed regions are only reachable through cliques, which
                // jump straight to borders).
                self.ensure_cell(topo, ru, key.size);
                let cell = &self.cells[&(ru, key.size)];
                let borders = &self.borders[ru as usize];
                let i = border_index(borders, u);
                for (j, &to) in borders.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    if let Some(cd) = cell.dist(borders.len(), i, j) {
                        scratch.relax(to, d + cd, CUT | u.0);
                    }
                }
            }
        }
    }

    /// Reads the path `src → dst` off the search's predecessor links into
    /// `self.path`.
    fn read_path(
        &mut self,
        topo: &Topology,
        scratch: &Scratch,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) {
        self.path.clear();
        let mut cur = src;
        while cur != dst {
            let prev = scratch.label(cur).expect("path reconstruction").prev;
            if prev & CUT == 0 {
                self.path.push(LinkId(prev));
                cur = topo
                    .link(LinkId(prev))
                    .opposite(cur)
                    .expect("link endpoint");
            } else {
                let from = NodeId(prev & !CUT);
                let r = region(topo, cur);
                let borders = &self.borders[r as usize];
                self.cells[&(r, size)].push_path(
                    borders.len(),
                    border_index(borders, cur),
                    border_index(borders, from),
                    &mut self.path,
                );
                cur = from;
            }
        }
    }
}

/// Index of border `node` among the `borders` of its region.
fn border_index(borders: &[NodeId], node: NodeId) -> usize {
    borders
        .binary_search(&node)
        .expect("only borders are settled in a closed region")
}

/// The region of `node` on a fully assigned topology.
fn region(topo: &Topology, node: NodeId) -> u32 {
    topo.region_of(node).expect("fully assigned").0
}

/// True when no region `entry`'s route crosses was touched after the
/// entry was last validated, so every hop is as it was. An unreachable
/// answer crosses nothing: only an improving mutation can overturn it, and
/// those clear the memo.
fn untouched_since(topo: &Topology, src: NodeId, dst: NodeId, entry: &CachedEntry) -> bool {
    let fresh = |node| topo.region_epoch(RegionId(region(topo, node))) <= entry.validated;
    entry.route.as_ref().is_none_or(|route| {
        fresh(src)
            && fresh(dst)
            && route.links.iter().all(|&lid| {
                let spec = topo.link(lid).spec();
                fresh(spec.a) && fresh(spec.b)
            })
    })
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
