//! Network topology and routing.
//!
//! A [`Topology`] owns the nodes and links of the simulated deployment and
//! answers routing queries: what is the latency-cheapest live path between
//! two nodes, and how long does a message of a given size take along it?
//!
//! Routing queries are memoizable: the topology carries a *routing epoch*
//! that bumps on every mutation that can change a routing answer (node or
//! link added, node or link up/down). A [`RouteCache`] keyed on
//! `(src, dst, size)` serves [`Arc<Route>`]s while the epoch is unchanged
//! and fully invalidates the moment it bumps, so cached answers are always
//! identical to a fresh Dijkstra run.

use crate::link::{Link, LinkId, LinkSpec};
use crate::node::{Node, NodeId, NodeSpec};
use crate::time::{SimDuration, SimTime};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// The hasher of the route memos: one rotate, xor and multiply per key
/// word. Their keys are node, region and size integers this program
/// generates, never input an adversary could shape to collide, so the
/// keyed SipHash `std` defaults to buys nothing here — and nothing
/// iterates these maps, so their order cannot reach a result.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

/// `HashMap` keyed by tuples of ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// The multiply leaves its best bits on top; the table indexes with
    /// the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Identifier of a routing region (a metro, a motif instance, a cell of a
/// partition). Regions scope epoch invalidation: a liveness flap inside a
/// region bumps only that region's epoch, so hierarchical route caches can
/// evict partially instead of flushing wholesale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Marker for a node with no region assigned.
const NO_REGION: u32 = u32::MAX;

/// Min/max/mean node degree of a topology; used by generator invariant
/// tests and the E16 report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Smallest node degree.
    pub min: usize,
    /// Largest node degree.
    pub max: usize,
    /// Mean node degree.
    pub mean: f64,
}

/// A routed path: the links traversed and the total transit time for the
/// queried message size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Links in traversal order; empty for local (same-node) delivery.
    pub links: Vec<LinkId>,
    /// End-to-end transit time for the queried size.
    pub transit: SimDuration,
}

/// Transit time charged for a message that never leaves its node.
pub const LOCAL_TRANSIT: SimDuration = SimDuration::from_micros(5);

/// The simulated deployment graph.
///
/// # Examples
///
/// ```
/// use aas_sim::network::Topology;
/// use aas_sim::node::NodeSpec;
/// use aas_sim::link::LinkSpec;
/// use aas_sim::time::SimDuration;
///
/// let mut topo = Topology::new();
/// let a = topo.add_node(NodeSpec::new("a", 100.0));
/// let b = topo.add_node(NodeSpec::new("b", 100.0));
/// topo.add_link(LinkSpec::new(a, b, SimDuration::from_millis(5), 1e6));
/// let route = topo.route(a, b, 0).expect("reachable");
/// assert_eq!(route.transit, SimDuration::from_millis(5));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// Each node's spec is shared by every clone of the topology (see
    /// [`Node`]); its liveness and queue are the clone's own.
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Shared by every clone until one adds a node or link (copy on
    /// write): taking nodes and links up or down leaves it alone.
    adjacency: Arc<Vec<Vec<LinkId>>>,
    /// Routing epoch: bumps on any mutation that can change a routing
    /// answer. Caches key their validity on it.
    epoch: u64,
    /// Region of each node (`NO_REGION` when unassigned), parallel to
    /// `nodes`.
    node_regions: Vec<u32>,
    /// Per region, the routing epoch of the last mutation that touched
    /// it. A hierarchical cache that stamps an entry with the routing
    /// epoch it was valid at evicts only entries that cross a region
    /// touched since.
    region_epochs: Vec<u64>,
    /// Bumps on every mutation that can *create or improve* a path
    /// (node/link recovery, node/link addition). Degradations (taking a
    /// node or link down) leave it alone — they can only remove paths, so
    /// cached shortest routes that avoid the mutated region stay shortest.
    improve_epoch: u64,
    /// Bumps on every region (re)assignment; hierarchical routers rebuild
    /// their border structure when it moves.
    assign_epoch: u64,
}

impl Topology {
    /// Creates an empty topology.
    #[must_use]
    pub fn new() -> Self {
        Topology::default()
    }

    /// The current routing epoch. Any mutation that can change a routing
    /// answer (adding nodes or links, taking nodes or links up or down)
    /// increments it; a [`RouteCache`] compares epochs to decide whether
    /// its entries are still valid.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds a node, returning its id. The node starts with no region; see
    /// [`Topology::set_node_region`].
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, spec));
        Arc::make_mut(&mut self.adjacency).push(Vec::new());
        self.node_regions.push(NO_REGION);
        self.epoch += 1;
        self.improve_epoch += 1;
        id
    }

    /// Adds a bidirectional link, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_link(&mut self, spec: LinkSpec) -> LinkId {
        assert!(
            (spec.a.0 as usize) < self.nodes.len() && (spec.b.0 as usize) < self.nodes.len(),
            "link endpoint does not exist"
        );
        let id = LinkId(self.links.len() as u32);
        let adjacency = Arc::make_mut(&mut self.adjacency);
        adjacency[spec.a.0 as usize].push(id);
        adjacency[spec.b.0 as usize].push(id);
        self.epoch += 1;
        self.improve_epoch += 1;
        self.touch_region_of(spec.a);
        self.touch_region_of(spec.b);
        self.links.push(Link::new(id, spec));
        id
    }

    /// Takes a node up or down, bumping the routing epoch when the state
    /// actually changes. This is the only way to change node liveness —
    /// fault application goes through here so route caches can never serve
    /// a path through a dead node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_node_up(&mut self, id: NodeId, up: bool) {
        let node = &mut self.nodes[id.0 as usize];
        if node.is_up() != up {
            node.set_up(up);
            self.epoch += 1;
            self.touch_region_of(id);
            if up {
                // A recovery can create new shortest paths anywhere.
                self.improve_epoch += 1;
            }
        }
    }

    /// Takes a link up or down, bumping the routing epoch when the state
    /// actually changes. See [`Topology::set_node_up`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let link = &mut self.links[id.0 as usize];
        if link.is_up() != up {
            link.set_up(up);
            let (a, b) = (link.spec().a, link.spec().b);
            self.epoch += 1;
            self.touch_region_of(a);
            self.touch_region_of(b);
            if up {
                // A recovery can create new shortest paths anywhere.
                self.improve_epoch += 1;
            }
        }
    }

    /// Moves the epoch of `node`'s region, if it has one, to the routing
    /// epoch, which the caller has just bumped.
    fn touch_region_of(&mut self, node: NodeId) {
        let r = self.node_regions[node.0 as usize];
        if r != NO_REGION {
            self.region_epochs[r as usize] = self.epoch;
        }
    }

    // ----- regions ----------------------------------------------------

    /// Assigns `node` to `region`, growing the region table as needed.
    ///
    /// Region membership feeds hierarchical routing, so reassignment
    /// conservatively touches *every* region (cached routes crossed their
    /// regions under the old assignment) and bumps the global and improve
    /// epochs. Assignment is expected at build time — topology
    /// generators call this once per node before any traffic flows.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_node_region(&mut self, node: NodeId, region: RegionId) {
        assert!((node.0 as usize) < self.nodes.len(), "no such node");
        if self.region_epochs.len() <= region.0 as usize {
            self.region_epochs.resize(region.0 as usize + 1, 0);
        }
        self.node_regions[node.0 as usize] = region.0;
        self.epoch += 1;
        self.improve_epoch += 1;
        self.assign_epoch += 1;
        self.region_epochs.fill(self.epoch);
    }

    /// Stamp of the region assignment; bumps on every
    /// [`Topology::set_node_region`] call. Hierarchical routers compare it
    /// to know when their border/region structure is stale.
    #[must_use]
    pub fn region_assignment_epoch(&self) -> u64 {
        self.assign_epoch
    }

    /// The region of `node`, or `None` if it was never assigned one.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> Option<RegionId> {
        let r = self.node_regions[node.0 as usize];
        (r != NO_REGION).then_some(RegionId(r))
    }

    /// Number of regions (the highest assigned region id plus one; zero
    /// when no node has a region).
    #[must_use]
    pub fn region_count(&self) -> u32 {
        self.region_epochs.len() as u32
    }

    /// True when every node has a region — the precondition for
    /// hierarchical routing to skip its flat fallback.
    #[must_use]
    pub fn regions_fully_assigned(&self) -> bool {
        !self.node_regions.is_empty() && self.node_regions.iter().all(|&r| r != NO_REGION)
    }

    /// The epoch of one region: the routing epoch ([`Topology::epoch`]) of
    /// the last mutation that touched the region (a node in it flapped, a
    /// link with an endpoint in it flapped or was added, or region
    /// membership changed). Whatever was valid at a routing epoch no
    /// lower than this has not been affected by a mutation in the region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is out of range.
    #[must_use]
    pub fn region_epoch(&self, region: RegionId) -> u64 {
        self.region_epochs[region.0 as usize]
    }

    /// The improve epoch: bumps on every mutation that can create or
    /// shorten a path (recovery or addition), and never on pure
    /// degradation. See the field docs for why caches can keep serving
    /// routes that avoid a degraded region.
    #[must_use]
    pub fn improve_epoch(&self) -> u64 {
        self.improve_epoch
    }

    /// Node count per region (`region_sizes()[r]` is region `r`'s size).
    /// Unassigned nodes are not counted anywhere.
    #[must_use]
    pub fn region_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.region_epochs.len()];
        for &r in &self.node_regions {
            if r != NO_REGION {
                sizes[r as usize] += 1;
            }
        }
        sizes
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// Immutable access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Mutable access to a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// The links incident to `node`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn links_of(&self, node: NodeId) -> &[LinkId] {
        &self.adjacency[node.0 as usize]
    }

    // ----- graph statistics -------------------------------------------

    /// Degree (incident link count, liveness ignored) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.0 as usize].len()
    }

    /// Min/max/mean degree over all nodes; zeroes on an empty topology.
    #[must_use]
    pub fn degree_summary(&self) -> DegreeSummary {
        if self.nodes.is_empty() {
            return DegreeSummary {
                min: 0,
                max: 0,
                mean: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut total = 0usize;
        for adj in self.adjacency.iter() {
            min = min.min(adj.len());
            max = max.max(adj.len());
            total += adj.len();
        }
        DegreeSummary {
            min,
            max,
            mean: total as f64 / self.nodes.len() as f64,
        }
    }

    /// Breadth-first hop distances over the *live* subgraph from `from`
    /// (`usize::MAX` = unreachable). The workhorse behind
    /// [`Topology::is_connected`] and [`Topology::diameter_estimate`].
    fn bfs_hops(&self, from: NodeId) -> Vec<usize> {
        let mut hops = vec![usize::MAX; self.nodes.len()];
        if !self.node(from).is_up() {
            return hops;
        }
        hops[from.0 as usize] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            let d = hops[u.0 as usize];
            for &lid in &self.adjacency[u.0 as usize] {
                let link = self.link(lid);
                if !link.is_up() {
                    continue;
                }
                let Some(v) = link.opposite(u) else { continue };
                if self.node(v).is_up() && hops[v.0 as usize] == usize::MAX {
                    hops[v.0 as usize] = d + 1;
                    queue.push_back(v);
                }
            }
        }
        hops
    }

    /// True when every live node can reach every other live node over
    /// live links. Vacuously true with fewer than two live nodes.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.nodes.iter().find(|n| n.is_up()) else {
            return true;
        };
        let hops = self.bfs_hops(start.id());
        self.nodes
            .iter()
            .all(|n| !n.is_up() || hops[n.id().0 as usize] != usize::MAX)
    }

    /// Hop-count diameter estimate of the live subgraph by double-sweep
    /// BFS: a lower bound on the true diameter, exact on trees and tight
    /// on the generated tiered/motif families. Returns 0 when no pair of
    /// live nodes is connected.
    #[must_use]
    pub fn diameter_estimate(&self) -> usize {
        let Some(start) = self.nodes.iter().find(|n| n.is_up()) else {
            return 0;
        };
        let far = |hops: &[usize]| {
            hops.iter()
                .enumerate()
                .filter(|&(_, &h)| h != usize::MAX)
                .max_by_key(|&(i, &h)| (h, std::cmp::Reverse(i)))
                .map(|(i, &h)| (NodeId(i as u32), h))
        };
        let first = self.bfs_hops(start.id());
        let Some((a, _)) = far(&first) else { return 0 };
        let second = self.bfs_hops(a);
        far(&second).map_or(0, |(_, h)| h)
    }

    /// Finds the latency-cheapest live path from `src` to `dst` for a
    /// message of `size` bytes.
    ///
    /// Returns `None` if either endpoint is down or no live path exists.
    /// Local delivery (`src == dst`) costs [`LOCAL_TRANSIT`].
    ///
    /// This allocates fresh working buffers per call; hot paths should use
    /// [`Topology::route_with`] with a long-lived [`RouteScratch`], or go
    /// through a [`RouteCache`].
    #[must_use]
    pub fn route(&self, src: NodeId, dst: NodeId, size: u64) -> Option<Route> {
        let mut scratch = RouteScratch::default();
        self.route_with(src, dst, size, &mut scratch)
    }

    /// Like [`Topology::route`], but reuses the caller's scratch buffers:
    /// after the buffers have grown to the topology's size no further heap
    /// allocation happens inside the search (the returned `Route` still
    /// owns its link list).
    #[must_use]
    pub fn route_with(
        &self,
        src: NodeId,
        dst: NodeId,
        size: u64,
        scratch: &mut RouteScratch,
    ) -> Option<Route> {
        let transit = self.dijkstra_into(src, dst, size, scratch)?;
        Some(Route {
            links: scratch.links.clone(),
            transit,
        })
    }

    /// Dijkstra over per-message transit time (latency + serialization),
    /// writing the traversal-ordered path into `scratch.links` and
    /// returning the total transit. Allocation-free once `scratch` has
    /// warmed up to the topology size.
    pub(crate) fn dijkstra_into(
        &self,
        src: NodeId,
        dst: NodeId,
        size: u64,
        scratch: &mut RouteScratch,
    ) -> Option<SimDuration> {
        scratch.links.clear();
        if !self.node(src).is_up() || !self.node(dst).is_up() {
            return None;
        }
        if src == dst {
            return Some(LOCAL_TRANSIT);
        }
        let n = self.nodes.len();
        scratch.begin(n);
        scratch.set_dist(src, SimDuration::ZERO);
        scratch
            .heap
            .push(std::cmp::Reverse((SimDuration::ZERO, src.0)));

        while let Some(std::cmp::Reverse((d, u))) = scratch.heap.pop() {
            if scratch.dist(NodeId(u)) != Some(d) {
                continue;
            }
            scratch.settled += 1;
            if u == dst.0 {
                break;
            }
            for &lid in &self.adjacency[u as usize] {
                let link = self.link(lid);
                if !link.is_up() {
                    continue;
                }
                let Some(v) = link.opposite(NodeId(u)) else {
                    continue;
                };
                if !self.node(v).is_up() {
                    continue;
                }
                let nd = d + link.transit(size);
                let better = match scratch.dist(v) {
                    None => true,
                    Some(old) => nd < old,
                };
                if better {
                    scratch.set_dist(v, nd);
                    scratch.set_prev(v, lid);
                    scratch.heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }

        let transit = scratch.dist(dst)?;
        let mut cur = dst;
        while cur != src {
            let lid = scratch.prev(cur).expect("path reconstruction");
            scratch.links.push(lid);
            cur = self.link(lid).opposite(cur).expect("link endpoint");
        }
        scratch.links.reverse();
        Some(transit)
    }

    /// Charges `size` bytes of accounting to each link along `route`.
    pub fn account_route(&mut self, route: &Route, size: u64) {
        for &lid in &route.links {
            self.link_mut(lid).account(size);
        }
    }

    /// The spread (max - min) of node utilizations at `now`; a load-balance
    /// quality measure used by experiment E5. Computed in one streaming
    /// pass, no intermediate collection.
    #[must_use]
    pub fn utilization_spread(&self, now: SimTime) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for n in &self.nodes {
            let u = n.utilization(now);
            min = min.min(u);
            max = max.max(u);
        }
        if self.nodes.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Builds a fully-connected clique of `n` identical nodes — a handy
    /// test fixture.
    #[must_use]
    pub fn clique(n: usize, capacity: f64, latency: SimDuration, bandwidth: f64) -> Topology {
        let mut topo = Topology::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| topo.add_node(NodeSpec::new(format!("n{i}"), capacity)))
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                topo.add_link(LinkSpec::new(ids[i], ids[j], latency, bandwidth));
            }
        }
        topo
    }
}

/// Reusable working memory for [`Topology::route_with`].
///
/// The `dist`/`prev` arrays are *generation-stamped*: instead of clearing
/// `O(n)` cells per query, every query bumps a stamp and a cell only counts
/// as written when its stamp matches the current one. After the buffers
/// have grown to the topology size, a routing query performs no heap
/// allocation at all.
#[derive(Debug, Default)]
pub struct RouteScratch {
    stamp: u64,
    /// Tentative distance per node, valid when the stamp matches.
    dist: Vec<(u64, SimDuration)>,
    /// Predecessor link per node, valid when the stamp matches.
    prev: Vec<(u64, LinkId)>,
    heap: BinaryHeap<std::cmp::Reverse<(SimDuration, u32)>>,
    /// Traversal-ordered path of the last successful query.
    links: Vec<LinkId>,
    /// Nodes settled (accepted heap pops) since the last
    /// [`RouteScratch::take_settled`] — the search-work measure E16 and
    /// the hierarchical-routing tests compare across router designs.
    settled: u64,
}

impl RouteScratch {
    /// Creates empty scratch buffers; they grow on first use.
    #[must_use]
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Nodes settled since the last call, resetting the counter.
    pub fn take_settled(&mut self) -> u64 {
        std::mem::take(&mut self.settled)
    }

    /// Starts a new query over `n` nodes: bumps the stamp and grows the
    /// buffers if the topology has grown since last time.
    fn begin(&mut self, n: usize) {
        self.stamp += 1;
        if self.dist.len() < n {
            self.dist.resize(n, (0, SimDuration::ZERO));
            self.prev.resize(n, (0, LinkId(u32::MAX)));
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

    fn prev(&self, v: NodeId) -> Option<LinkId> {
        let (stamp, l) = self.prev[v.0 as usize];
        (stamp == self.stamp).then_some(l)
    }

    fn set_prev(&mut self, v: NodeId, l: LinkId) {
        self.prev[v.0 as usize] = (self.stamp, l);
    }
}

/// Counters describing how a [`RouteCache`] has been performing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran a fresh Dijkstra (and populated the cache).
    pub misses: u64,
    /// Times the whole cache was discarded because the epoch bumped.
    pub invalidations: u64,
    /// Nodes settled by the Dijkstra runs behind the misses — the
    /// search-work measure compared against hierarchical routing.
    pub settled: u64,
}

impl RouteCacheStats {
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

/// An epoch-invalidated memo of routing answers.
///
/// Entries are keyed by `(src, dst, size)` and shared as [`Arc<Route>`]s,
/// so a cache hit clones a pointer, not a link list. Unreachable results
/// are cached too (`None`), so a send storm against a partitioned node
/// does not re-run Dijkstra per message. The whole cache is dropped the
/// moment the topology's routing epoch moves past the one the entries
/// were computed under — correctness never depends on partial
/// invalidation being right.
///
/// # Examples
///
/// ```
/// use aas_sim::network::{RouteCache, Topology};
/// use aas_sim::time::SimDuration;
///
/// let topo = Topology::clique(4, 100.0, SimDuration::from_millis(1), 1e6);
/// let ids: Vec<_> = topo.node_ids().collect();
/// let mut cache = RouteCache::new(&topo);
/// let first = cache.resolve(&topo, ids[0], ids[1], 100).unwrap();
/// let second = cache.resolve(&topo, ids[0], ids[1], 100).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct RouteCache {
    epoch: u64,
    map: IdMap<(u32, u32, u64), Option<Arc<Route>>>,
    scratch: RouteScratch,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// Creates an empty cache synchronized to `topo`'s current epoch.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        RouteCache {
            epoch: topo.epoch(),
            map: IdMap::default(),
            scratch: RouteScratch::default(),
            stats: RouteCacheStats::default(),
        }
    }

    /// Answers a routing query, from the cache when the epoch still
    /// matches, otherwise by a fresh Dijkstra whose result (including
    /// `None` for unreachable) is memoized.
    pub fn resolve(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size: u64,
    ) -> Option<Arc<Route>> {
        if self.epoch != topo.epoch() {
            // `clear` keeps the map's capacity, so repopulating after a
            // fault does not re-grow the table.
            self.map.clear();
            self.epoch = topo.epoch();
            self.stats.invalidations += 1;
        }
        let key = (src.0, dst.0, size);
        if let Some(cached) = self.map.get(&key) {
            self.stats.hits += 1;
            return cached.clone();
        }
        self.stats.misses += 1;
        let computed = topo
            .dijkstra_into(src, dst, size, &mut self.scratch)
            .map(|transit| {
                Arc::new(Route {
                    links: self.scratch.links.clone(),
                    transit,
                })
            });
        self.stats.settled += self.scratch.take_settled();
        self.map.insert(key, computed.clone());
        computed
    }

    /// Cache performance counters.
    #[must_use]
    pub fn stats(&self) -> RouteCacheStats {
        self.stats
    }

    /// Number of memoized entries (under the current epoch).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing is memoized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId) {
        // a --5ms-- b --5ms-- c, plus a direct a--c link at 50ms.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0));
        let b = t.add_node(NodeSpec::new("b", 1.0));
        let c = t.add_node(NodeSpec::new("c", 1.0));
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(5), 1e9));
        t.add_link(LinkSpec::new(b, c, SimDuration::from_millis(5), 1e9));
        t.add_link(LinkSpec::new(a, c, SimDuration::from_millis(50), 1e9));
        (t, a, b, c)
    }

    #[test]
    fn routes_prefer_cheapest_path() {
        let (t, a, _b, c) = line3();
        let r = t.route(a, c, 0).unwrap();
        assert_eq!(r.links.len(), 2, "should go via b");
        assert_eq!(r.transit, SimDuration::from_millis(10));
    }

    #[test]
    fn routes_around_dead_links() {
        let (mut t, a, _b, c) = line3();
        t.set_link_up(LinkId(0), false); // kill a--b
        let r = t.route(a, c, 0).unwrap();
        assert_eq!(r.links, vec![LinkId(2)]);
        assert_eq!(r.transit, SimDuration::from_millis(50));
    }

    #[test]
    fn routes_around_dead_nodes() {
        let (mut t, a, b, c) = line3();
        t.set_node_up(b, false);
        let r = t.route(a, c, 0).unwrap();
        assert_eq!(r.links, vec![LinkId(2)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let (mut t, a, _b, c) = line3();
        t.set_link_up(LinkId(0), false);
        t.set_link_up(LinkId(2), false);
        assert!(t.route(a, c, 0).is_none());
    }

    #[test]
    fn dead_endpoint_returns_none() {
        let (mut t, a, _b, c) = line3();
        t.set_node_up(c, false);
        assert!(t.route(a, c, 0).is_none());
        assert!(t.route(c, a, 0).is_none());
    }

    #[test]
    fn local_delivery_is_cheap() {
        let (t, a, _, _) = line3();
        let r = t.route(a, a, 1_000_000).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(r.transit, LOCAL_TRANSIT);
    }

    #[test]
    fn size_affects_path_choice() {
        // Two paths: low-latency low-bandwidth vs high-latency high-bandwidth.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0));
        let b = t.add_node(NodeSpec::new("b", 1.0));
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(1), 1e3)); // 1 KB/s
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(20), 1e9));
        // Tiny message: take the 1ms link.
        assert_eq!(t.route(a, b, 1).unwrap().links, vec![LinkId(0)]);
        // Big message: serialization dominates, take the fat link.
        assert_eq!(t.route(a, b, 1_000_000).unwrap().links, vec![LinkId(1)]);
    }

    /// What a topology answers from its shared storage: adjacency, node
    /// specs and every cheapest route.
    fn structure(t: &Topology) -> (Vec<Vec<LinkId>>, Vec<String>, Vec<Option<Route>>) {
        let adjacency = t.node_ids().map(|n| t.links_of(n).to_vec()).collect();
        let names = t.nodes().map(|n| n.spec().name.clone()).collect();
        let pairs = t.node_ids().flat_map(|s| t.node_ids().map(move |d| (s, d)));
        let routes = pairs.map(|(s, d)| t.route(s, d, 0)).collect();
        (adjacency, names, routes)
    }

    #[test]
    fn a_clone_shares_its_structure_until_one_side_writes_it() {
        for write_the_clone in [true, false] {
            let (mut parent, a, _, c) = line3();
            let mut fork = parent.clone();
            assert!(std::ptr::eq(parent.links_of(a), fork.links_of(a)));
            assert!(std::ptr::eq(parent.node(a).spec(), fork.node(a).spec()));
            let before = structure(&parent);
            let (written, read) = if write_the_clone {
                (&mut fork, &parent)
            } else {
                (&mut parent, &fork)
            };
            let d = written.add_node(NodeSpec::new("d", 1.0));
            written.add_link(LinkSpec::new(c, d, SimDuration::from_millis(1), 1e9));
            written.set_link_up(LinkId(0), false);
            assert_eq!(structure(read), before, "write_the_clone {write_the_clone}");
            assert_eq!(written.links_of(c), &[LinkId(1), LinkId(2), LinkId(3)]);
            assert_eq!(written.node(d).spec().name, "d");
            // a--b is down: a reaches d over the direct 50 ms link to c.
            let route = written.route(a, d, 0).expect("reachable");
            assert_eq!(route.links, vec![LinkId(2), LinkId(3)]);
            assert_eq!(read.route(a, c, 0).expect("reachable").links.len(), 2);
        }
    }

    #[test]
    fn clique_is_fully_connected() {
        let t = Topology::clique(4, 10.0, SimDuration::from_millis(1), 1e6);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 6);
        for i in t.node_ids() {
            for j in t.node_ids() {
                assert!(t.route(i, j, 0).is_some());
            }
        }
    }

    #[test]
    fn utilization_spread_reflects_imbalance() {
        let mut t = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
        t.node_mut(NodeId(0)).run_job(SimTime::ZERO, 100.0); // 1s busy
        let spread = t.utilization_spread(SimTime::from_secs(2));
        assert!((spread - 0.5).abs() < 1e-9);
    }

    #[test]
    fn region_epochs_scope_to_the_touched_region() {
        let (mut t, a, b, c) = line3();
        t.set_node_region(a, RegionId(0));
        t.set_node_region(b, RegionId(0));
        t.set_node_region(c, RegionId(1));
        assert_eq!(t.region_count(), 2);
        assert!(t.regions_fully_assigned());
        assert_eq!(t.region_of(a), Some(RegionId(0)));
        assert_eq!(t.region_of(c), Some(RegionId(1)));

        let (e0, e1) = (t.region_epoch(RegionId(0)), t.region_epoch(RegionId(1)));
        let improve = t.improve_epoch();
        // Degrading a region-0 node touches region 0 only, and never the
        // improve epoch.
        t.set_node_up(a, false);
        assert_eq!(t.region_epoch(RegionId(0)), e0 + 1);
        assert_eq!(t.region_epoch(RegionId(1)), e1);
        assert_eq!(t.improve_epoch(), improve);
        // Recovery bumps the improve epoch.
        t.set_node_up(a, true);
        assert_eq!(t.improve_epoch(), improve + 1);
        // A cross-region link flap touches both endpoint regions.
        let (f0, f1) = (t.region_epoch(RegionId(0)), t.region_epoch(RegionId(1)));
        t.set_link_up(LinkId(1), false); // b -- c crosses regions 0 and 1
        assert_eq!(t.region_epoch(RegionId(0)), f0 + 1);
        assert!(t.region_epoch(RegionId(1)) > f1);
        // A region's epoch is the routing epoch of its last touch.
        assert_eq!(t.region_epoch(RegionId(1)), t.epoch());
    }

    #[test]
    fn degree_and_diameter_stats() {
        let (t, a, b, _c) = line3();
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.degree(b), 2);
        let d = t.degree_summary();
        assert_eq!((d.min, d.max), (2, 2));
        assert!((d.mean - 2.0).abs() < 1e-12);
        assert!(t.is_connected());
        assert_eq!(t.diameter_estimate(), 1); // the a--c chord closes the triangle
        assert_eq!(t.links_of(a).len(), 2);
    }

    #[test]
    fn connectivity_respects_liveness() {
        let (mut t, _a, b, _c) = line3();
        assert!(t.is_connected());
        t.set_link_up(LinkId(0), false);
        assert!(t.is_connected(), "still connected via the chord");
        t.set_link_up(LinkId(2), false);
        t.set_link_up(LinkId(1), false);
        assert!(!t.is_connected());
        // Downed nodes don't count against connectivity.
        t.set_link_up(LinkId(1), true);
        t.set_node_up(b, false);
        assert!(!t.is_connected());
    }

    #[test]
    fn route_scratch_counts_settles() {
        let (t, a, _b, c) = line3();
        let mut scratch = RouteScratch::new();
        assert!(t.route_with(a, c, 0, &mut scratch).is_some());
        let settled = scratch.take_settled();
        assert!(settled >= 2, "a 3-node search settles at least src+dst");
        assert_eq!(scratch.take_settled(), 0, "take resets");
    }

    #[test]
    fn account_route_charges_links() {
        let (mut t, a, _b, c) = line3();
        let r = t.route(a, c, 100).unwrap();
        t.account_route(&r, 100);
        assert_eq!(t.link(LinkId(0)).bytes_carried(), 100);
        assert_eq!(t.link(LinkId(1)).bytes_carried(), 100);
        assert_eq!(t.link(LinkId(2)).bytes_carried(), 0);
    }
}
