//! The interactive discrete-event kernel — the K=1 driver of the shard
//! core.
//!
//! A [`Kernel`] owns virtual time, one `ShardCore` (event queue, channel
//! sides, router — see [`crate::shard`] for the transitions), the
//! [`Topology`] and an RNG stream. Higher layers (the component
//! runtime in `aas-core`) drive it by calling [`Kernel::step`] in a loop
//! and reacting to the [`Fired`] occurrences it yields. Commands take
//! effect *now*: a send runs the core's send transition at the current
//! time and reports its outcome directly, and block / unblock / close /
//! rebind apply on the spot through the same sync-command function the
//! sharded driver runs at its barriers. Only faults are scheduled.

use crate::channel::{ChannelId, ChannelStats, DropReason};
use crate::fault::FaultSchedule;
use crate::hier::{HierStats, Router};
use crate::network::{Route, RouteCacheStats, Topology};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::shard::{
    apply_sync, sync_runs_first, DeliverSide, Entry, EventKey, Scheduled, SendSide, ShardCore,
    ShardEvent, SyncCmd, SyncEntry,
};
use crate::time::{SimDuration, SimTime};
use aas_obs::Counters;
use std::collections::BinaryHeap;
use std::sync::Arc;

pub use crate::shard::{Fired, KernelCounter};

/// Outcome of a [`Kernel::send`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message was accepted and will arrive after this transit time
    /// (plus any FIFO queueing behind earlier messages).
    Sent(SimDuration),
    /// The message was dropped immediately.
    Dropped(DropReason),
}

impl SendOutcome {
    /// True if the message was accepted.
    #[must_use]
    pub fn is_sent(&self) -> bool {
        matches!(self, SendOutcome::Sent(_))
    }
}

/// The simulation kernel.
///
/// # Examples
///
/// ```
/// use aas_sim::kernel::{Kernel, Fired};
/// use aas_sim::network::Topology;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
/// let mut k: Kernel<&'static str> = Kernel::new(topo, 42);
/// let ids: Vec<_> = k.topology().node_ids().collect();
/// let ch = k.open_channel(ids[0], ids[1]);
/// k.send(ch, "hello", 100);
/// let (at, fired) = k.step().expect("one event pending");
/// match fired {
///     Fired::Delivered { msg, .. } => assert_eq!(msg, "hello"),
///     other => panic!("unexpected {other:?}"),
/// }
/// assert!(at > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct Kernel<M> {
    now: SimTime,
    core: ShardCore<M>,
    /// Scheduled faults, in `(time, cmd)` order.
    sync: BinaryHeap<SyncEntry>,
    topology: Topology,
    rng: SimRng,
    /// Issue-order id of the next caller command.
    next_cmd: u64,
    next_timer_tag: u64,
}

impl<M> Kernel<M> {
    /// Creates a kernel over `topology`, seeded with `seed`.
    #[must_use]
    pub fn new(topology: Topology, seed: u64) -> Self {
        Kernel {
            now: SimTime::ZERO,
            core: ShardCore::new(0, &topology),
            sync: BinaryHeap::new(),
            topology,
            rng: SimRng::seed_from(seed),
            next_cmd: 0,
            next_timer_tag: 0,
        }
    }

    /// The key of the next caller command: issue order breaks
    /// same-instant ties.
    fn alloc_key(&mut self) -> EventKey {
        let cmd = self.next_cmd;
        self.next_cmd += 1;
        EventKey::new(cmd, 0)
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology (read access).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The topology (mutable access, e.g. for job execution on nodes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The kernel's RNG stream (deterministic per seed).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Kernel-level counters (`sent`, `delivered`, `dropped`, …), exported
    /// from the enum-indexed fast array into a [`Counters`] snapshot. The
    /// per-message path never touches a string-keyed map; this export only
    /// runs when a report or test asks for it.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for k in KernelCounter::ALL {
            c.add(k.name(), self.counter(k));
        }
        c
    }

    /// Reads one fast counter directly, no export.
    #[must_use]
    pub fn counter(&self, c: KernelCounter) -> u64 {
        self.core.counters[c as usize]
    }

    /// Resolves the route a send on `(src, dst, size)` would take right
    /// now, through the kernel's active router — the hierarchical one when
    /// [`Kernel::enable_hier_routing`] has been called, the flat
    /// epoch-invalidated [`RouteCache`](crate::network::RouteCache)
    /// otherwise. What the send path uses, open to whoever else must price
    /// a transfer between two nodes (`aas-core` prices a migration's state
    /// transfer with it) and to tests and benches that audit the send
    /// path. Every call counts in [`Kernel::route_cache_stats`] /
    /// [`Kernel::hier_stats`] like a send's.
    pub fn route(&mut self, src: NodeId, dst: NodeId, size: u64) -> Option<Arc<Route>> {
        self.core.router.resolve(&self.topology, src, dst, size)
    }

    /// Route-cache performance counters (hits, misses, invalidations).
    /// All zero after [`Kernel::enable_hier_routing`] — see
    /// [`Kernel::hier_stats`] then.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.core.router.flat_stats()
    }

    /// Switches routing to a [`HierRouter`](crate::hier::HierRouter) with
    /// region-scoped partial invalidation. Requires every node to carry a
    /// region assignment (see [`Topology::set_node_region`]) to actually
    /// route hierarchically; unassigned topologies fall back to flat
    /// searches per query. Calling this again resets the router.
    pub fn enable_hier_routing(&mut self) {
        self.core.router = Router::hier();
    }

    /// Hierarchical-router counters; `None` until
    /// [`Kernel::enable_hier_routing`].
    #[must_use]
    pub fn hier_stats(&self) -> Option<HierStats> {
        self.core.router.hier_stats()
    }

    // ----- channels --------------------------------------------------

    /// Opens a FIFO channel from `src` to `dst`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist in the topology.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        assert!((src.0 as usize) < self.topology.node_count(), "bad src");
        assert!((dst.0 as usize) < self.topology.node_count(), "bad dst");
        let ch = ChannelId(self.core.send_sides.len() as u64);
        self.core.put_send_side(ch, SendSide::new(src, dst));
        self.core.put_deliver_side(ch, DeliverSide::new(dst));
        ch
    }

    /// `ev` at time `at`, under a fresh command id.
    fn sync_entry(&mut self, at: SimTime, ev: SyncCmd) -> SyncEntry {
        let key = self.alloc_key();
        Scheduled { at, key, ev }
    }

    /// Runs a sync command against the one core.
    fn apply(&mut self, entry: SyncEntry) -> Option<Fired<M>> {
        let mut core = &mut self.core;
        let cores = std::slice::from_mut(&mut core);
        apply_sync(cores, &mut self.topology, None, entry)
    }

    /// Applies a sync command right now.
    fn sync_now(&mut self, ev: SyncCmd) {
        let entry = self.sync_entry(self.now, ev);
        self.apply(entry);
    }

    /// Closes a channel; messages still in flight will be dropped at
    /// delivery time with [`DropReason::ChannelClosed`], and so are the
    /// ones a blocked channel holds, at once and in arrival order.
    pub fn close_channel(&mut self, ch: ChannelId) {
        self.sync_now(SyncCmd::Close(ch));
    }

    /// Rebinds a channel's endpoints (used when a component migrates).
    /// New sends use the new endpoints; messages already in flight keep
    /// their arrival time and are delivered against the new destination.
    ///
    /// # Panics
    ///
    /// Panics if either node does not exist in the topology — the same
    /// validation [`Kernel::open_channel`] applies, so a bad migration
    /// fails at the rebind instead of at a later routing query.
    pub fn rebind_channel(&mut self, ch: ChannelId, src: NodeId, dst: NodeId) {
        self.sync_now(SyncCmd::Rebind(ch, src, dst));
    }

    /// The `(src, dst)` endpoints of a channel.
    #[must_use]
    pub fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId) {
        let s = self.core.send_side(ch).expect("channel was opened");
        (s.src, s.dst)
    }

    /// Per-channel statistics.
    #[must_use]
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        let mut stats = ChannelStats::default();
        self.core.channel_stats_into(ch, &mut stats);
        stats
    }

    /// Whether the channel is currently blocked.
    #[must_use]
    pub fn is_blocked(&self, ch: ChannelId) -> bool {
        let side = self.core.deliver_side(ch).expect("channel was opened");
        side.blocked
    }

    /// Blocks a channel: subsequent deliveries are held, in order, until
    /// [`Kernel::unblock_channel`]. Sending is still allowed (messages
    /// travel and then wait at the destination), exactly the Polylith
    /// "manage messages in transit" behaviour the paper describes.
    pub fn block_channel(&mut self, ch: ChannelId) {
        self.sync_now(SyncCmd::Block(ch));
    }

    /// Unblocks a channel, rescheduling all held messages for immediate
    /// delivery in their original order.
    pub fn unblock_channel(&mut self, ch: ChannelId) {
        self.sync_now(SyncCmd::Unblock(ch));
    }

    /// Sends `msg` of `size` bytes on channel `ch`.
    ///
    /// Transit time is the routed path's latency plus serialization delay;
    /// FIFO order per channel is enforced even when later routes would be
    /// faster.
    pub fn send(&mut self, ch: ChannelId, msg: M, size: u64) -> SendOutcome {
        let key = self.alloc_key();
        match self
            .core
            .send(self.now, key, ch, msg, size, &self.topology, None)
        {
            Ok((transit, route)) => {
                self.topology.account_route(&route, size);
                SendOutcome::Sent(transit)
            }
            Err((_, reason)) => SendOutcome::Dropped(reason),
        }
    }

    // ----- timers -----------------------------------------------------

    /// Schedules a timer to fire after `delay`; returns its tag.
    pub fn set_timer(&mut self, delay: SimDuration) -> u64 {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        self.set_timer_with_tag(delay, tag);
        tag
    }

    /// Schedules a timer with a caller-chosen tag. Tags supplied here may
    /// collide with automatic tags if mixed carelessly; prefer one scheme
    /// per runtime.
    pub fn set_timer_with_tag(&mut self, delay: SimDuration, tag: u64) {
        let key = self.alloc_key();
        self.core.queue.push(Entry {
            at: self.now + delay,
            key,
            ev: ShardEvent::Timer { tag },
        });
    }

    // ----- faults -----------------------------------------------------

    /// Injects every fault in `schedule` as future events.
    pub fn inject_faults(&mut self, schedule: FaultSchedule) {
        for (at, kind) in schedule.into_entries() {
            let entry = self.sync_entry(at, SyncCmd::Fault(kind));
            self.sync.push(entry);
        }
    }

    // ----- the engine loop ---------------------------------------------

    /// Advances to the next event and returns it, or `None` when nothing
    /// is pending. Virtual time never goes backwards.
    pub fn step(&mut self) -> Option<(SimTime, Fired<M>)> {
        loop {
            let sync = self.sync.peek().map(|e| (e.at, e.key));
            if sync_runs_first(self.core.queue.peek(), sync)? {
                let entry = self.sync.pop().expect("peeked");
                let at = entry.at;
                debug_assert!(at >= self.now, "time went backwards");
                self.now = at;
                if let Some(fired) = self.apply(entry) {
                    return Some((at, fired));
                }
                continue;
            }
            let entry = self.core.queue.pop().expect("peeked");
            let at = entry.at;
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            // `None`: held by a blocked channel, invisible to the
            // application; keep stepping.
            if let Some(fired) = self.core.process(entry, &self.topology, None) {
                return Some((at, fired));
            }
        }
    }

    /// Time of the next pending event, if any.
    #[must_use]
    pub fn next_event_time(&self) -> Option<SimTime> {
        let event = self.core.queue.peek().map(|(at, _)| at);
        let sync = self.sync.peek().map(|e| e.at);
        match (event, sync) {
            (Some(e), Some(s)) => Some(e.min(s)),
            (e, s) => e.or(s),
        }
    }

    /// Runs a job of `cost` work units on `node`, returning the total delay
    /// (queueing + service) from now until completion, or `None` if the
    /// node is down.
    pub fn run_job(&mut self, node: NodeId, cost: f64) -> Option<SimDuration> {
        let now = self.now;
        let n = self.topology.node_mut(node);
        if !n.is_up() {
            return None;
        }
        Some(n.run_job(now, cost))
    }
}

impl<M: Clone> Kernel<M> {
    /// Forks the kernel: a cheap, O(state) deep copy that shares **no**
    /// mutable state with the original. The fork carries the same virtual
    /// time, pending events and scheduled faults (tie order included),
    /// topology, channel sides (open/blocked flags, FIFO tails, held
    /// messages, stats), lifecycle counters, RNG stream position and
    /// command-id / timer-tag allocators — so a fork fed the same inputs
    /// replays **byte-identically** to the mainline, and dropping a fork
    /// never perturbs the mainline (see `tests/fork_determinism.rs`).
    ///
    /// One piece is deliberately rebuilt rather than copied: the router
    /// starts cold — route *resolution* is a pure function of the
    /// topology, so behaviour is identical; only `route_cache_stats` /
    /// `hier_stats` differ.
    #[must_use]
    pub fn fork(&self) -> Kernel<M> {
        Kernel {
            now: self.now,
            core: self.core.fork(&self.topology),
            sync: self.sync.clone(),
            topology: self.topology.clone(),
            rng: self.rng.clone(),
            next_cmd: self.next_cmd,
            next_timer_tag: self.next_timer_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn kernel2() -> (Kernel<u32>, NodeId, NodeId) {
        let topo = Topology::clique(2, 100.0, SimDuration::from_millis(10), 1e6);
        let k: Kernel<u32> = Kernel::new(topo, 1);
        (k, NodeId(0), NodeId(1))
    }

    fn drain(k: &mut Kernel<u32>) -> Vec<(SimTime, Fired<u32>)> {
        std::iter::from_fn(|| k.step()).collect()
    }

    #[test]
    fn message_arrives_after_transit() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let out = k.send(ch, 7, 1000);
        // 10 ms latency + 1000B / 1MB/s = 1 ms  => 11 ms
        assert_eq!(out, SendOutcome::Sent(SimDuration::from_millis(11)));
        let (at, fired) = k.step().unwrap();
        assert_eq!(at, SimTime::from_millis(11));
        assert!(matches!(fired, Fired::Delivered { msg: 7, .. }));
        assert_eq!(k.now(), SimTime::from_millis(11));
    }

    #[test]
    fn fifo_holds_even_for_smaller_later_messages() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 1_000_000); // slow: 10ms + 1s
        k.send(ch, 2, 0); // fast alone, but must queue behind
        let events = drain(&mut k);
        let order: Vec<u32> = events
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Delivered { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn blocked_channel_holds_and_releases_in_order() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.block_channel(ch);
        for i in 0..5 {
            k.send(ch, i, 10);
        }
        // Stepping now yields nothing visible: all messages are held.
        assert!(k.step().is_none());
        assert_eq!(k.channel_stats(ch).held, 5);

        k.unblock_channel(ch);
        assert_eq!(k.counter(KernelCounter::Released), 5);
        let order: Vec<u32> = drain(&mut k)
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Delivered { msg, .. } => Some(*msg),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        let stats = k.channel_stats(ch);
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.held, 0);
    }

    #[test]
    fn closed_channel_drops_at_send_and_delivery() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 10); // in flight
        k.close_channel(ch);
        let out = k.send(ch, 2, 10);
        assert_eq!(out, SendOutcome::Dropped(DropReason::ChannelClosed));
        let events = drain(&mut k);
        assert!(events.iter().any(|(_, f)| matches!(
            f,
            Fired::Dropped {
                reason: DropReason::ChannelClosed,
                ..
            }
        )));
        assert_eq!(k.channel_stats(ch).dropped, 2);
    }

    #[test]
    fn closing_a_blocked_channel_drops_what_it_holds() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.block_channel(ch);
        for i in 0..3 {
            k.send(ch, i, 10);
        }
        assert!(k.step().is_none());
        assert_eq!(k.channel_stats(ch).held, 3);

        k.close_channel(ch);
        let closed_at = k.now();
        let dropped: Vec<(SimTime, u32)> = drain(&mut k)
            .into_iter()
            .map(|(at, f)| match f {
                Fired::Dropped {
                    msg,
                    reason: DropReason::ChannelClosed,
                    at_send: false,
                    ..
                } => (at, msg),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<_> = (0..3).map(|i| (closed_at, i)).collect();
        assert_eq!(dropped, expected, "at the close instant, in arrival order");
        let stats = k.channel_stats(ch);
        assert_eq!((stats.held, stats.dropped, stats.delivered), (0, 3, 0));
        assert_eq!(k.counter(KernelCounter::Held), 3);
        assert_eq!(k.counter(KernelCounter::Released), 3);
        assert_eq!(k.counter(KernelCounter::Dropped), 3);
    }

    #[test]
    fn crashing_destination_drops_in_flight_messages() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let mut faults = FaultSchedule::new();
        faults.at(SimTime::from_millis(1), FaultKind::NodeCrash(b));
        k.inject_faults(faults);
        k.send(ch, 1, 10); // arrives at ~10ms, after the crash
        let events = drain(&mut k);
        assert!(events.iter().any(|(_, f)| matches!(f, Fired::Fault(_))));
        assert!(events.iter().any(|(_, f)| matches!(
            f,
            Fired::Dropped {
                reason: DropReason::DestinationDown,
                ..
            }
        )));
    }

    #[test]
    fn dead_source_cannot_send() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.topology_mut().set_node_up(a, false);
        assert_eq!(
            k.send(ch, 1, 10),
            SendOutcome::Dropped(DropReason::Unreachable)
        );
    }

    #[test]
    fn timers_fire_in_order_with_tags() {
        let (mut k, _, _) = kernel2();
        let t1 = k.set_timer(SimDuration::from_millis(20));
        let t2 = k.set_timer(SimDuration::from_millis(10));
        let fired: Vec<u64> = drain(&mut k)
            .iter()
            .filter_map(|(_, f)| match f {
                Fired::Timer { tag } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![t2, t1]);
    }

    #[test]
    fn recovery_restores_delivery() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        let mut faults = FaultSchedule::new();
        faults.node_outage(b, SimTime::from_millis(0), SimTime::from_millis(50));
        k.inject_faults(faults);
        // Step through both fault events.
        let _ = k.step();
        let _ = k.step();
        assert_eq!(k.now(), SimTime::from_millis(50));
        let out = k.send(ch, 9, 10);
        assert!(out.is_sent());
        let events = drain(&mut k);
        assert!(events
            .iter()
            .any(|(_, f)| matches!(f, Fired::Delivered { msg: 9, .. })));
    }

    #[test]
    fn rebind_affects_future_sends_only() {
        let topo = Topology::clique(3, 100.0, SimDuration::from_millis(10), 1e6);
        let mut k: Kernel<u32> = Kernel::new(topo, 1);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send(ch, 1, 10);
        k.rebind_channel(ch, NodeId(0), NodeId(2));
        assert_eq!(k.channel_endpoints(ch), (NodeId(0), NodeId(2)));
        k.send(ch, 2, 10);
        let delivered = drain(&mut k)
            .iter()
            .filter(|(_, f)| matches!(f, Fired::Delivered { .. }))
            .count();
        assert_eq!(delivered, 2);
    }

    #[test]
    fn counters_track_lifecycle() {
        let (mut k, a, b) = kernel2();
        let ch = k.open_channel(a, b);
        k.send(ch, 1, 10);
        let _ = drain(&mut k);
        assert_eq!(k.counters().get("sent"), 1);
        assert_eq!(k.counters().get("delivered"), 1);
        assert_eq!(k.counters().get("dropped"), 0);
    }

    #[test]
    fn run_job_respects_node_state() {
        let (mut k, a, _) = kernel2();
        assert!(k.run_job(a, 10.0).is_some());
        k.topology_mut().set_node_up(a, false);
        assert!(k.run_job(a, 10.0).is_none());
    }
}
