//! The event-loop core shared by both kernel drivers.
//!
//! A `ShardCore` is the single implementation of channel and event
//! semantics: the send transition (closed / unreachable / FIFO tail), the
//! delivery transition (closed / blocked-hold / destination down), timers,
//! and — through `apply_sync` — the commands that touch shared state
//! (faults, block, unblock, close, rebind). Two drivers sit on top of it:
//!
//! - [`Kernel`](crate::kernel::Kernel) owns one core and steps it
//!   interactively: the K=1 case.
//! - [`ShardedKernel`](crate::coordinator::ShardedKernel) partitions
//!   [`Topology`] nodes into K *shards*, runs one core per shard over
//!   conservative time windows, and lets them talk only through
//!   *mailboxes* exchanged at deterministic epoch barriers.
//!
//! Determinism comes from [`EventKey`]: every caller-issued command (a
//! send, a timer, a fault, a release) is stamped with a globally unique,
//! monotonically increasing key at *issue* time, and every derived event
//! inherits the key of the command that caused it. Events are processed in
//! `(time, key)` order, which is independent of how many shards exist —
//! the merged occurrence stream is byte-identical at K=1 and K=N.

use crate::channel::{ChannelId, ChannelStats, DropReason, HeldMessage};
use crate::fault::FaultKind;
use crate::hier::Router;
use crate::network::{Route, Topology};
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::ops::DerefMut;
use std::sync::Arc;
use std::time::Instant;

/// The per-message lifecycle counters, enum-indexed so the hot path bumps
/// a fixed array slot instead of walking a string-keyed map. Both kernels
/// export them into a [`Counters`](aas_obs::Counters) under their
/// historical names (`sent`, `delivered`, …) for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum KernelCounter {
    /// Messages accepted by the send transition.
    Sent,
    /// Messages handed to the application.
    Delivered,
    /// Messages dropped at send or delivery time.
    Dropped,
    /// Messages held by blocked channels.
    Held,
    /// Held messages released by an unblock.
    Released,
    /// Faults applied to the topology.
    FaultsApplied,
}

impl KernelCounter {
    /// Number of counters (the fast array's length).
    pub const COUNT: usize = 6;

    /// The historical string name this counter exports under.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelCounter::Sent => "sent",
            KernelCounter::Delivered => "delivered",
            KernelCounter::Dropped => "dropped",
            KernelCounter::Held => "held",
            KernelCounter::Released => "released",
            KernelCounter::FaultsApplied => "faults_applied",
        }
    }

    /// All counters, in export order.
    pub const ALL: [KernelCounter; KernelCounter::COUNT] = [
        KernelCounter::Sent,
        KernelCounter::Delivered,
        KernelCounter::Dropped,
        KernelCounter::Held,
        KernelCounter::Released,
        KernelCounter::FaultsApplied,
    ];
}

/// An occurrence handed to the caller — one at a time by
/// [`Kernel::step`](crate::kernel::Kernel::step), in merged batches by
/// [`ShardedKernel::run_until`](crate::coordinator::ShardedKernel::run_until).
#[derive(Debug)]
pub enum Fired<M> {
    /// A message arrived on a channel.
    Delivered {
        /// The channel it arrived on.
        channel: ChannelId,
        /// The payload.
        msg: M,
        /// Payload size in bytes (as given at send time).
        size: u64,
        /// When it was sent; `now - sent_at` is its end-to-end delay.
        sent_at: SimTime,
    },
    /// A timer expired.
    Timer {
        /// The tag given at scheduling time.
        tag: u64,
    },
    /// A scheduled fault was applied to the topology. The topology has
    /// already been updated when this is yielded.
    Fault(FaultKind),
    /// A message was dropped. The payload is handed back so higher layers
    /// can account for the loss precisely — or retry the send under their
    /// own policy.
    Dropped {
        /// The channel involved.
        channel: ChannelId,
        /// The payload that was lost.
        msg: M,
        /// Why it was dropped.
        reason: DropReason,
        /// True when a *scheduled* send was dropped as its command ran
        /// (closed channel or no live route); false at delivery time. The
        /// interactive [`Kernel::send`](crate::kernel::Kernel::send)
        /// reports send-time drops through its return value instead.
        at_send: bool,
    },
}

/// Pads (and aligns) a value to a 64-byte cache line so two hot fields
/// owned by different threads never share a line (false sharing turns
/// every barrier counter bump into a cross-core invalidation).
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CacheAligned<T>(pub T);

/// Identifier of a shard in a sharded kernel (dense, `0..K`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

/// Deterministic assignment of topology nodes to shards.
///
/// The assignment is round-robin by node id, so it is a pure function of
/// `(node_count, shards)` — two runs of the same program at the same K see
/// the same placement.
///
/// # Examples
///
/// ```
/// use aas_sim::shard::{ShardId, ShardMap};
/// use aas_sim::node::NodeId;
///
/// let map = ShardMap::round_robin(6, 4);
/// assert_eq!(map.shard_of(NodeId(0)), ShardId(0));
/// assert_eq!(map.shard_of(NodeId(5)), ShardId(1));
/// assert_eq!(map.count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardMap {
    of_node: Vec<u32>,
    shards: u32,
}

impl ShardMap {
    /// Builds a round-robin map of `node_count` nodes over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn round_robin(node_count: usize, shards: u32) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardMap {
            of_node: (0..node_count).map(|i| i as u32 % shards).collect(),
            shards,
        }
    }

    /// The shard owning `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not covered by the map.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        ShardId(self.of_node[node.0 as usize])
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.shards
    }

    /// The conservative lookahead for this partition: the minimum
    /// propagation latency over all links whose endpoints live on
    /// different shards. A message generated by an event at time `t` and
    /// crossing shards arrives no earlier than `t + lookahead`, so a
    /// window of at most this width can run with no mid-window exchange.
    ///
    /// Returns [`SimDuration::MAX`] when no link crosses shards (e.g. a
    /// single-shard map): windows are then bounded only by sync points.
    #[must_use]
    pub fn lookahead(&self, topo: &Topology) -> SimDuration {
        let mut min = SimDuration::MAX;
        for link in topo.links() {
            let spec = link.spec();
            if self.shard_of(spec.a) != self.shard_of(spec.b) {
                min = min.min(spec.latency);
            }
        }
        min
    }
}

/// Total-order key of an occurrence, independent of shard count.
///
/// `cmd` is the globally unique, monotonically increasing id the
/// coordinator stamps on every caller command; `sub` distinguishes the
/// multiple events one command can spawn (e.g. the messages released by a
/// single unblock). Derived events inherit their parent command's key, so
/// `(time, key)` totally orders every occurrence the same way at any K.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Issue-order id of the originating caller command.
    pub cmd: u64,
    /// Index among the events spawned by that command.
    pub sub: u32,
}

impl EventKey {
    /// Key of the `sub`-th event spawned by command `cmd`.
    #[must_use]
    pub fn new(cmd: u64, sub: u32) -> Self {
        EventKey { cmd, sub }
    }
}

impl std::fmt::Display for EventKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.cmd, self.sub)
    }
}

/// Core-internal event representation.
#[derive(Debug, Clone)]
pub(crate) enum ShardEvent<M> {
    /// A send issued by the caller, processed at the source shard at its
    /// scheduled time (routing, FIFO and accounting all happen then).
    SendCmd { ch: ChannelId, msg: M, size: u64 },
    /// A message in transit, processed at the destination shard at its
    /// arrival time.
    Deliver {
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    },
    /// A caller timer.
    Timer { tag: u64 },
}

impl<M> ShardEvent<M> {
    /// The channel this event belongs to, if any.
    pub(crate) fn channel(&self) -> Option<ChannelId> {
        match self {
            ShardEvent::SendCmd { ch, .. } | ShardEvent::Deliver { ch, .. } => Some(*ch),
            ShardEvent::Timer { .. } => None,
        }
    }
}

/// One record of the merged output stream: an occurrence plus the
/// `(time, key)` coordinates that totally order it across shards.
#[derive(Debug)]
pub struct MergedEvent<M> {
    /// Virtual time of the occurrence.
    pub at: SimTime,
    /// Shard-count-independent total-order key.
    pub key: EventKey,
    /// The occurrence itself.
    pub what: Fired<M>,
}

/// An event due at `at`. Entries order by `(at, key)` — earliest first out
/// of a `BinaryHeap` — whatever they carry, so core events and sync
/// commands share one total order.
#[derive(Debug, Clone)]
pub(crate) struct Scheduled<E> {
    pub at: SimTime,
    pub key: EventKey,
    pub ev: E,
}

/// A scheduled entry in a core's queue.
pub(crate) type Entry<M> = Scheduled<ShardEvent<M>>;

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest (time, key).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// A struct-of-arrays run of in-transit deliveries — the unit of
/// cross-shard exchange.
///
/// Only `Deliver` events ever cross shards (sends are processed at the
/// source, timers are shard-local), so the mailbox payload is a fixed
/// five-column layout plus the message column. Batches move between
/// shards as whole buffers: a barrier exchange costs O(runs) pointer
/// swaps instead of O(events) per-entry moves, and spent buffers are
/// recycled through each shard's free list so the steady-state exchange
/// path allocates nothing.
#[derive(Debug)]
pub(crate) struct DeliverBatch<M> {
    pub ats: Vec<SimTime>,
    pub keys: Vec<EventKey>,
    pub chs: Vec<ChannelId>,
    pub sizes: Vec<u64>,
    pub sent_ats: Vec<SimTime>,
    pub msgs: Vec<M>,
    /// Earliest arrival time in the batch; lets the exchange check the
    /// "nothing crosses a barrier early" invariant and lets the
    /// coordinator see the global next-event time without touching
    /// entries.
    pub min_at: SimTime,
}

impl<M> Default for DeliverBatch<M> {
    fn default() -> Self {
        DeliverBatch {
            ats: Vec::new(),
            keys: Vec::new(),
            chs: Vec::new(),
            sizes: Vec::new(),
            sent_ats: Vec::new(),
            msgs: Vec::new(),
            min_at: SimTime::MAX,
        }
    }
}

impl<M> DeliverBatch<M> {
    pub fn push(
        &mut self,
        at: SimTime,
        key: EventKey,
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
    ) {
        self.ats.push(at);
        self.keys.push(key);
        self.chs.push(ch);
        self.sizes.push(size);
        self.sent_ats.push(sent_at);
        self.msgs.push(msg);
        self.min_at = self.min_at.min(at);
    }

    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Moves every entry into `queue` and resets the batch (capacity is
    /// kept, so a recycled batch keeps the exchange path allocation-free).
    pub fn drain_into(&mut self, queue: &mut KeyedQueue<M>) {
        let DeliverBatch {
            ats,
            keys,
            chs,
            sizes,
            sent_ats,
            msgs,
            min_at,
        } = self;
        for (i, msg) in msgs.drain(..).enumerate() {
            queue.push(Entry {
                at: ats[i],
                key: keys[i],
                ev: ShardEvent::Deliver {
                    ch: chs[i],
                    msg,
                    size: sizes[i],
                    sent_at: sent_ats[i],
                },
            });
        }
        ats.clear();
        keys.clear();
        chs.clear();
        sizes.clear();
        sent_ats.clear();
        *min_at = SimTime::MAX;
    }
}

/// One lane of a shard's shared mailbox: batches pushed by other shards
/// during one sub-round's exchange phase, drained by the owner at the
/// start of the next. Lives outside [`ShardCore`] (under its own lock) so
/// peers can deposit batches while the owner's core is locked by its
/// worker.
#[derive(Debug)]
pub(crate) struct InboxSlot<M> {
    pub batches: Vec<DeliverBatch<M>>,
    /// Earliest arrival over every queued batch.
    pub min_at: SimTime,
}

impl<M> Default for InboxSlot<M> {
    fn default() -> Self {
        InboxSlot {
            batches: Vec::new(),
            min_at: SimTime::MAX,
        }
    }
}

/// A `(time, key)`-ordered event queue: ties are broken by the
/// deterministic [`EventKey`] rather than local insertion order, which is
/// what makes pop order identical regardless of which shard pushed when.
#[derive(Debug, Clone)]
pub(crate) struct KeyedQueue<M> {
    heap: BinaryHeap<Entry<M>>,
}

impl<M> Default for KeyedQueue<M> {
    fn default() -> Self {
        KeyedQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<M> KeyedQueue<M> {
    pub fn push(&mut self, entry: Entry<M>) {
        self.heap.push(entry);
    }

    pub fn pop(&mut self) -> Option<Entry<M>> {
        self.heap.pop()
    }

    /// `(time, key)` of the earliest entry without removing it.
    pub fn peek(&self) -> Option<(SimTime, EventKey)> {
        self.heap.peek().map(|e| (e.at, e.key))
    }

    /// Iterates over every pending entry in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<M>> {
        self.heap.iter()
    }

    /// Removes and returns every entry belonging to `ch`, preserving
    /// nothing about heap order (callers re-push into another queue, which
    /// re-establishes `(time, key)` order). Used when a rebind migrates a
    /// channel between shards.
    pub fn extract_channel(&mut self, ch: ChannelId) -> Vec<Entry<M>> {
        let drained = std::mem::take(&mut self.heap).into_vec();
        let mut extracted = Vec::new();
        for e in drained {
            if e.ev.channel() == Some(ch) {
                extracted.push(e);
            } else {
                self.heap.push(e);
            }
        }
        extracted
    }
}

/// Send-side state of a channel, owned by the shard of its source node.
#[derive(Debug, Clone)]
pub(crate) struct SendSide {
    pub src: NodeId,
    pub dst: NodeId,
    pub open: bool,
    /// Time of the latest scheduled delivery; enforces FIFO.
    pub fifo_tail: SimTime,
    pub sent: u64,
    pub dropped: u64,
}

impl SendSide {
    /// The send side of a freshly opened channel.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        SendSide {
            src,
            dst,
            open: true,
            fifo_tail: SimTime::ZERO,
            sent: 0,
            dropped: 0,
        }
    }
}

/// Delivery-side state of a channel, owned by the shard of its
/// destination node.
#[derive(Debug, Clone)]
pub(crate) struct DeliverSide<M> {
    pub dst: NodeId,
    pub open: bool,
    pub blocked: bool,
    pub held: VecDeque<HeldMessage<M>>,
    pub delivered: u64,
    pub dropped: u64,
}

impl<M> DeliverSide<M> {
    /// The delivery side of a freshly opened channel.
    pub fn new(dst: NodeId) -> Self {
        DeliverSide {
            dst,
            open: true,
            blocked: false,
            held: VecDeque::new(),
            delivered: 0,
            dropped: 0,
        }
    }
}

/// One event loop's state: its queue, the channel sides it owns, its
/// router and fast counters — everything the transitions read and write —
/// plus the window-engine buffers (`fired` through `exchange_ops`) only
/// the sharded driver fills. Under the K=1 [`Kernel`](crate::kernel::Kernel)
/// those stay empty: it owns the [`Topology`] and accounts bytes there,
/// sends at `now` instead of queueing `SendCmd`s, and has no peers.
#[derive(Debug)]
pub(crate) struct ShardCore<M> {
    pub id: u32,
    pub queue: KeyedQueue<M>,
    /// Send sides indexed by `ChannelId`; `None` when not owned here.
    pub send_sides: Vec<Option<SendSide>>,
    /// Delivery sides indexed by `ChannelId`; `None` when not owned here.
    pub deliver_sides: Vec<Option<DeliverSide<M>>>,
    pub router: Router,
    pub counters: [u64; KernelCounter::COUNT],
    /// Occurrences produced since the last barrier, in processing
    /// (= `(time, key)`) order; swapped out by the coordinator at the
    /// barrier. A deque so the coordinator's K-way merge can pop from the
    /// front without draining into an intermediate iterator.
    pub fired: VecDeque<MergedEvent<M>>,
    /// Cross-shard deliveries generated this sub-round, one SoA batch per
    /// destination shard; pushed to the destination's [`InboxSlot`] at
    /// the exchange phase as a whole-buffer move.
    pub outboxes: Vec<DeliverBatch<M>>,
    /// Spent batches handed back after their entries drained into the
    /// queue; reused as outbox replacements so exchange never allocates
    /// once warm.
    pub free: Vec<DeliverBatch<M>>,
    /// Scheduled times of every pending `SendCmd` on this shard (a
    /// min-heap). Sends are the only event kind that *generates* new
    /// events, so the earliest pending send bounds, from below, the time
    /// of the next cross-shard arrival this shard can produce — the lever
    /// behind adaptive window widening (see `arrival_bound`).
    pub send_times: BinaryHeap<Reverse<SimTime>>,
    /// Time of the last processed event (drives the coordinator's clock).
    pub last_at: SimTime,
    /// Per-link byte accounting deltas (summed across shards on demand;
    /// u64 addition commutes, so totals are shard-count-independent).
    pub link_bytes: Vec<u64>,
    pub events_processed: u64,
    /// Nanoseconds spent inside `run_window` (per-shard busy time; the
    /// coordinator's critical-path accounting takes the max per window).
    pub busy_ns: u64,
    /// Entries this shard pushed into peer inboxes whose arrival time was
    /// *inside* the sub-round that produced them — a violation of the
    /// lookahead rule. Must stay zero.
    pub early_crossings: u64,
    /// Cross-shard entries this shard pushed into peer inboxes.
    pub exchanged_out: u64,
    /// Whole-batch exchange operations (the O(runs) unit the SoA layout
    /// buys: compare with `exchanged_out`, the O(events) unit).
    pub exchange_ops: u64,
}

impl<M> ShardCore<M> {
    /// A core with no peers and flat routing; the sharded driver adds the
    /// `outboxes` and `link_bytes` it needs.
    pub fn new(id: u32, topo: &Topology) -> Self {
        ShardCore {
            id,
            queue: KeyedQueue::default(),
            send_sides: Vec::new(),
            deliver_sides: Vec::new(),
            router: Router::flat(topo),
            counters: [0; KernelCounter::COUNT],
            fired: VecDeque::new(),
            outboxes: Vec::new(),
            free: Vec::new(),
            send_times: BinaryHeap::new(),
            last_at: SimTime::ZERO,
            link_bytes: Vec::new(),
            events_processed: 0,
            busy_ns: 0,
            early_crossings: 0,
            exchanged_out: 0,
            exchange_ops: 0,
        }
    }

    fn ensure_channel_slot(&mut self, ch: ChannelId) {
        let idx = ch.0 as usize;
        if self.send_sides.len() <= idx {
            self.send_sides.resize_with(idx + 1, || None);
            self.deliver_sides.resize_with(idx + 1, || None);
        }
    }

    /// `ch`'s send side, if this core owns it.
    pub fn send_side(&self, ch: ChannelId) -> Option<&SendSide> {
        self.send_sides.get(ch.0 as usize)?.as_ref()
    }

    /// `ch`'s delivery side, if this core owns it.
    pub fn deliver_side(&self, ch: ChannelId) -> Option<&DeliverSide<M>> {
        self.deliver_sides.get(ch.0 as usize)?.as_ref()
    }

    /// Installs `ch`'s send side on this core.
    pub fn put_send_side(&mut self, ch: ChannelId, side: SendSide) {
        self.ensure_channel_slot(ch);
        self.send_sides[ch.0 as usize] = Some(side);
    }

    /// Installs `ch`'s delivery side on this core.
    pub fn put_deliver_side(&mut self, ch: ChannelId, side: DeliverSide<M>) {
        self.ensure_channel_slot(ch);
        self.deliver_sides[ch.0 as usize] = Some(side);
    }

    /// Runs this shard's loop over every queued event strictly before
    /// `end`. Cross-shard events land in `outboxes`; occurrences land in
    /// `fired`. Safe to run concurrently with the other shards because it
    /// only reads `topo`/`map` and writes shard-owned state.
    pub fn run_window(&mut self, topo: &Topology, map: &ShardMap, end: SimTime) {
        let t0 = Instant::now();
        while let Some((at, key)) = self.queue.peek() {
            if at >= end {
                break;
            }
            let entry = self.queue.pop().expect("peeked");
            if let Some(what) = self.process(entry, topo, Some(map)) {
                self.fired.push_back(MergedEvent { at, key, what });
            }
        }
        self.busy_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Time of this shard's earliest pending queue entry (its shared
    /// inbox is accounted separately by the coordinator).
    pub fn next_pending(&self) -> SimTime {
        self.queue.peek().map_or(SimTime::MAX, |(at, _)| at)
    }

    /// A provable lower bound on the arrival time of *any* cross-shard
    /// event this shard can still generate.
    ///
    /// Only `SendCmd` processing creates new events, so with `ts_min` the
    /// earliest pending send on this shard, every future arrival is at
    /// least `ts_min + la` (`la` bounds every cross-shard route's transit
    /// from below) **and** at least the smallest FIFO tail over this
    /// shard's open send sides (`arrival = max(t + transit, fifo_tail)`
    /// and tails only move forward). Returns [`SimTime::MAX`] when no
    /// send is pending (or no send side is open): this shard can generate
    /// nothing, so it does not constrain the window at all.
    ///
    /// The coordinator takes the min over shards and may widen a window
    /// up to that bound without any exchange inside it — provably never
    /// past the static safe bound, because the bound *is* the static
    /// argument re-applied to the current queue contents.
    pub fn arrival_bound(&self, la: SimDuration) -> SimTime {
        let Some(&Reverse(ts_min)) = self.send_times.peek() else {
            return SimTime::MAX;
        };
        let mut floor = SimTime::MAX;
        for s in self.send_sides.iter().flatten() {
            if s.open {
                floor = floor.min(s.fifo_tail);
            }
        }
        if floor == SimTime::MAX {
            // No open send side: every pending send will drop at its
            // source without generating a delivery.
            return SimTime::MAX;
        }
        (ts_min + la).max(floor)
    }

    /// Rebuilds the pending-send-time heap from the queue. Needed after a
    /// rebind migrates queued `SendCmd`s between shards (the only
    /// operation that moves pending sends without processing them).
    fn rebuild_send_times(&mut self) {
        self.send_times.clear();
        for e in self.queue.iter() {
            if matches!(e.ev, ShardEvent::SendCmd { .. }) {
                self.send_times.push(Reverse(e.at));
            }
        }
    }

    /// Processes one popped event and returns the occurrence it surfaces,
    /// if any (an accepted send and a held delivery surface nothing).
    pub fn process(
        &mut self,
        entry: Entry<M>,
        topo: &Topology,
        map: Option<&ShardMap>,
    ) -> Option<Fired<M>> {
        self.events_processed += 1;
        let Entry { at, key, ev } = entry;
        self.last_at = at;
        match ev {
            ShardEvent::SendCmd { ch, msg, size } => {
                // This send is the earliest pending one on this shard
                // (queue pops are time-ordered), so retiring the heap min
                // retires exactly this command's scheduled time.
                self.send_times.pop();
                match self.send(at, key, ch, msg, size, topo, map) {
                    Ok((_, route)) => {
                        for &lid in &route.links {
                            self.link_bytes[lid.0 as usize] += size;
                        }
                        None
                    }
                    Err((msg, reason)) => Some(Fired::Dropped {
                        channel: ch,
                        msg,
                        reason,
                        at_send: true,
                    }),
                }
            }
            ShardEvent::Deliver {
                ch,
                msg,
                size,
                sent_at,
            } => self.deliver(ch, msg, size, sent_at, topo),
            ShardEvent::Timer { tag } => Some(Fired::Timer { tag }),
        }
    }

    /// The send transition: `msg` enters `ch` at time `at` under `key`.
    /// Routes through this core's router, enforces FIFO behind earlier
    /// messages even when a later route would be faster, and schedules the
    /// delivery on the destination's core (`map` is `None` when this core
    /// is the only one). Returns the transit time and the route taken, for
    /// the caller's byte accounting; a refused message is handed back.
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &mut self,
        at: SimTime,
        key: EventKey,
        ch: ChannelId,
        msg: M,
        size: u64,
        topo: &Topology,
        map: Option<&ShardMap>,
    ) -> Result<(SimDuration, Arc<Route>), (M, DropReason)> {
        let side = self.send_sides[ch.0 as usize]
            .as_mut()
            .expect("send side owned by this core");
        let resolved = if side.open {
            self.router
                .resolve(topo, side.src, side.dst, size)
                .ok_or(DropReason::Unreachable)
        } else {
            Err(DropReason::ChannelClosed)
        };
        let route = match resolved {
            Ok(route) => route,
            Err(reason) => {
                side.dropped += 1;
                self.counters[KernelCounter::Dropped as usize] += 1;
                return Err((msg, reason));
            }
        };
        let arrival = (at + route.transit).max(side.fifo_tail);
        side.fifo_tail = arrival;
        side.sent += 1;
        self.counters[KernelCounter::Sent as usize] += 1;
        let dest = map.map_or(self.id, |m| m.shard_of(side.dst).0);
        if dest == self.id {
            self.queue.push(Entry {
                at: arrival,
                key,
                ev: ShardEvent::Deliver {
                    ch,
                    msg,
                    size,
                    sent_at: at,
                },
            });
        } else {
            self.outboxes[dest as usize].push(arrival, key, ch, msg, size, at);
        }
        Ok((arrival.saturating_since(at), route))
    }

    /// The delivery transition: a message reaches the end of `ch`. A
    /// blocked channel holds it, in order and invisibly, until the
    /// unblock re-queues it.
    fn deliver(
        &mut self,
        ch: ChannelId,
        msg: M,
        size: u64,
        sent_at: SimTime,
        topo: &Topology,
    ) -> Option<Fired<M>> {
        let side = self.deliver_sides[ch.0 as usize]
            .as_mut()
            .expect("deliver side owned by this core");
        let reason = if !side.open {
            DropReason::ChannelClosed
        } else if side.blocked {
            side.held.push_back(HeldMessage { msg, size, sent_at });
            self.counters[KernelCounter::Held as usize] += 1;
            return None;
        } else if !topo.node(side.dst).is_up() {
            DropReason::DestinationDown
        } else {
            side.delivered += 1;
            self.counters[KernelCounter::Delivered as usize] += 1;
            return Some(Fired::Delivered {
                channel: ch,
                msg,
                size,
                sent_at,
            });
        };
        side.dropped += 1;
        self.counters[KernelCounter::Dropped as usize] += 1;
        Some(Fired::Dropped {
            channel: ch,
            msg,
            reason,
            at_send: false,
        })
    }

    /// Hands what `ch`'s delivery side holds back to the queue at `at`, in
    /// arrival order, as sub-events 1.. of the command `key`: an unblocked
    /// side then delivers them, a closed one drops them.
    fn requeue_held(&mut self, ch: ChannelId, at: SimTime, key: EventKey) {
        // Drained, not taken: the side keeps its buffer for the next hold.
        let side = self.deliver_sides[ch.0 as usize].as_mut().expect("owner");
        self.counters[KernelCounter::Released as usize] += side.held.len() as u64;
        for (i, h) in side.held.drain(..).enumerate() {
            self.queue.push(Entry {
                at,
                key: EventKey::new(key.cmd, i as u32 + 1),
                ev: ShardEvent::Deliver {
                    ch,
                    msg: h.msg,
                    size: h.size,
                    sent_at: h.sent_at,
                },
            });
        }
    }

    /// Merged per-channel stats contribution from the sides this shard
    /// owns.
    pub fn channel_stats_into(&self, ch: ChannelId, stats: &mut ChannelStats) {
        if let Some(s) = self.send_side(ch) {
            stats.sent += s.sent;
            stats.dropped += s.dropped;
        }
        if let Some(d) = self.deliver_side(ch) {
            stats.delivered += d.delivered;
            stats.dropped += d.dropped;
            stats.held += d.held.len() as u64;
        }
    }
}

impl<M: Clone> ShardCore<M> {
    /// A deep copy sharing no mutable state with the original: queue (tie
    /// order included), channel sides with held messages, FIFO tails and
    /// stats, counters. The router restarts cold ([`Router::cold_copy`]).
    /// Taken between windows, when `fired` and the outboxes are empty.
    pub fn fork(&self, topo: &Topology) -> Self {
        debug_assert!(self.fired.is_empty() && self.outboxes.iter().all(DeliverBatch::is_empty));
        ShardCore {
            queue: self.queue.clone(),
            send_sides: self.send_sides.clone(),
            deliver_sides: self.deliver_sides.clone(),
            router: self.router.cold_copy(topo),
            send_times: self.send_times.clone(),
            link_bytes: self.link_bytes.clone(),
            outboxes: self
                .outboxes
                .iter()
                .map(|_| DeliverBatch::default())
                .collect(),
            fired: VecDeque::new(),
            free: Vec::new(),
            ..*self
        }
    }
}

/// A command that touches state shared between cores (the topology, or a
/// channel's two sides at once). Executed sequentially by the driver, in
/// `(time, cmd)` order, through [`apply_sync`].
#[derive(Debug, Clone)]
pub(crate) enum SyncCmd {
    Fault(FaultKind),
    Block(ChannelId),
    Unblock(ChannelId),
    Close(ChannelId),
    Rebind(ChannelId, NodeId, NodeId),
}

/// A [`SyncCmd`] scheduled for virtual time `at`. It orders as sub-event 0
/// of its command id, like any other caller-issued event.
pub(crate) type SyncEntry = Scheduled<SyncCmd>;

/// Which runs next: the earliest core event or the earliest sync command?
/// `Some(true)` for the sync command, `None` when both are absent.
pub(crate) fn sync_runs_first(
    event: Option<(SimTime, EventKey)>,
    sync: Option<(SimTime, EventKey)>,
) -> Option<bool> {
    match (event, sync) {
        (None, None) => None,
        (Some(e), Some(s)) => Some(s < e),
        (None, Some(_)) => Some(true),
        (Some(_), None) => Some(false),
    }
}

/// Applies a sync command to the cores that own the state it touches, and
/// returns the occurrence it surfaces (faults only).
/// `map` places nodes on cores; `None` means `cores` is a single core
/// owning everything.
///
/// # Panics
///
/// Panics if a channel command names a channel that was never opened, or
/// a rebind names a node outside the topology.
pub(crate) fn apply_sync<M, C: DerefMut<Target = ShardCore<M>>>(
    cores: &mut [C],
    topo: &mut Topology,
    map: Option<&ShardMap>,
    Scheduled { at, key, ev }: SyncEntry,
) -> Option<Fired<M>> {
    let shard_of = |n: NodeId| map.map_or(0, |m| m.shard_of(n).0 as usize);
    let idx = |ch: ChannelId| ch.0 as usize;
    let send_owner = |cores: &[C], ch| {
        let owns = |c: &C| c.send_side(ch).is_some();
        cores.iter().position(owns).expect("channel was opened")
    };
    let deliver_owner = |cores: &[C], ch| {
        let owns = |c: &C| c.deliver_side(ch).is_some();
        cores.iter().position(owns).expect("channel was opened")
    };
    match ev {
        SyncCmd::Fault(kind) => {
            // Liveness flips go through the topology-level mutators so
            // the routing epoch bumps and every router invalidates.
            match kind {
                FaultKind::NodeCrash(n) => topo.set_node_up(n, false),
                FaultKind::NodeRecover(n) => topo.set_node_up(n, true),
                FaultKind::LinkDown(l) => topo.set_link_up(l, false),
                FaultKind::LinkUp(l) => topo.set_link_up(l, true),
            }
            cores[0].counters[KernelCounter::FaultsApplied as usize] += 1;
            return Some(Fired::Fault(kind));
        }
        SyncCmd::Block(ch) => {
            let dsh = deliver_owner(cores, ch);
            cores[dsh].deliver_sides[idx(ch)]
                .as_mut()
                .expect("owner")
                .blocked = true;
        }
        SyncCmd::Unblock(ch) => {
            let dsh = deliver_owner(cores, ch);
            cores[dsh].deliver_sides[idx(ch)]
                .as_mut()
                .expect("owner")
                .blocked = false;
            cores[dsh].requeue_held(ch, at, key);
        }
        SyncCmd::Close(ch) => {
            // Later sends drop at the source, in-flight messages at the
            // destination, both with `ChannelClosed` — and so does what a
            // blocked side holds, now rather than never.
            let (ssh, dsh) = (send_owner(cores, ch), deliver_owner(cores, ch));
            cores[ssh].send_sides[idx(ch)].as_mut().expect("owner").open = false;
            cores[dsh].deliver_sides[idx(ch)]
                .as_mut()
                .expect("owner")
                .open = false;
            cores[dsh].requeue_held(ch, at, key);
        }
        SyncCmd::Rebind(ch, ns, nd) => {
            let n = topo.node_count() as u32;
            assert!(ns.0 < n && nd.0 < n, "rebind endpoint out of bounds");
            let (ossh, odsh) = (send_owner(cores, ch), deliver_owner(cores, ch));
            let (nssh, ndsh) = (shard_of(ns), shard_of(nd));
            // Repoint both sides; new sends use the new endpoints and
            // in-flight messages are delivered against the new
            // destination.
            let mut sside = cores[ossh].send_sides[idx(ch)].take().expect("owner");
            sside.src = ns;
            sside.dst = nd;
            let mut dside = cores[odsh].deliver_sides[idx(ch)].take().expect("owner");
            dside.dst = nd;
            cores[nssh].put_send_side(ch, sside);
            cores[ndsh].put_deliver_side(ch, dside);
            if (ossh, odsh) != (nssh, ndsh) {
                // Queued entries follow their side to its new owner:
                // pending sends the send side, in-flight deliveries the
                // delivery side.
                let mut pending = cores[ossh].queue.extract_channel(ch);
                if odsh != ossh {
                    pending.extend(cores[odsh].queue.extract_channel(ch));
                }
                for e in pending {
                    let dest = match e.ev {
                        ShardEvent::SendCmd { .. } => nssh,
                        ShardEvent::Deliver { .. } => ndsh,
                        ShardEvent::Timer { .. } => unreachable!("timers are channel-less"),
                    };
                    cores[dest].queue.push(e);
                }
                // The send-time heaps (which drive adaptive window
                // bounds) must follow the pending sends.
                for i in [ossh, odsh, nssh, ndsh] {
                    cores[i].rebuild_send_times();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::NodeSpec;

    #[test]
    fn round_robin_covers_all_shards() {
        let map = ShardMap::round_robin(16, 4);
        let mut seen = [0u32; 4];
        for i in 0..16 {
            seen[map.shard_of(NodeId(i)).0 as usize] += 1;
        }
        assert_eq!(seen, [4, 4, 4, 4]);
    }

    #[test]
    fn lookahead_is_min_cross_shard_latency() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0));
        let b = t.add_node(NodeSpec::new("b", 1.0));
        let c = t.add_node(NodeSpec::new("c", 1.0));
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(3), 1e6));
        t.add_link(LinkSpec::new(b, c, SimDuration::from_millis(7), 1e6));
        // K=2 round robin: a,c on shard 0; b on shard 1 — both links cross.
        let map = ShardMap::round_robin(3, 2);
        assert_eq!(map.lookahead(&t), SimDuration::from_millis(3));
        // K=1: nothing crosses, lookahead unbounded.
        let map1 = ShardMap::round_robin(3, 1);
        assert_eq!(map1.lookahead(&t), SimDuration::MAX);
    }

    /// Every sift of the event heap moves whole entries, so a handle-sized
    /// message must keep an entry inside one cache line.
    #[test]
    fn an_entry_around_a_handle_fits_a_cache_line() {
        assert!(std::mem::size_of::<Entry<u32>>() <= 64);
    }

    #[test]
    fn keyed_queue_orders_by_time_then_key() {
        let mut q: KeyedQueue<u32> = KeyedQueue::default();
        let t = SimTime::from_millis(1);
        q.push(Entry {
            at: t,
            key: EventKey::new(9, 0),
            ev: ShardEvent::Timer { tag: 9 },
        });
        q.push(Entry {
            at: t,
            key: EventKey::new(2, 1),
            ev: ShardEvent::Timer { tag: 21 },
        });
        q.push(Entry {
            at: t,
            key: EventKey::new(2, 0),
            ev: ShardEvent::Timer { tag: 20 },
        });
        q.push(Entry {
            at: SimTime::ZERO,
            key: EventKey::new(99, 0),
            ev: ShardEvent::Timer { tag: 99 },
        });
        let tags: Vec<u64> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.ev {
                ShardEvent::Timer { tag } => tag,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(tags, vec![99, 20, 21, 9]);
    }

    #[test]
    fn extract_channel_pulls_only_that_channel() {
        let mut q: KeyedQueue<u32> = KeyedQueue::default();
        for i in 0..6u64 {
            q.push(Entry {
                at: SimTime::from_micros(i),
                key: EventKey::new(i, 0),
                ev: ShardEvent::SendCmd {
                    ch: ChannelId(i % 2),
                    msg: i as u32,
                    size: 1,
                },
            });
        }
        let pulled = q.extract_channel(ChannelId(1));
        assert_eq!(pulled.len(), 3);
        assert_eq!(q.iter().count(), 3);
        assert!(pulled.iter().all(|e| e.ev.channel() == Some(ChannelId(1))));
    }
}
