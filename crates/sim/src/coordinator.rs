//! The sharded parallel kernel: K shard event loops under one
//! coordinator.
//!
//! [`ShardedKernel`] partitions [`Topology`] nodes into K shards (see
//! [`ShardMap`]) and runs each shard's event loop either inline (serial,
//! [`ExecMode::Inline`]) or on its own persistent worker thread
//! ([`ExecMode::Threads`]). Shards interact only through mailboxes the
//! coordinator exchanges at *epoch barriers*.
//!
//! ## Barrier protocol
//!
//! Time advances in *outer windows* `[tq, W)` where `tq` is the earliest
//! pending event anywhere. Each outer window is executed as a sequence of
//! *sub-rounds* at most one lookahead wide: the lookahead `la` is the
//! minimum latency over cross-shard links ([`ShardMap::lookahead`]), so
//! an event at time `t ≥ b` that sends across shards produces an arrival
//! no earlier than `t + la ≥ b + la` — a sub-round `[b, b + la)` can run
//! with no mid-round exchange. Between sub-rounds the shards exchange
//! their SoA mailbox batches *directly* (each worker deposits into the
//! destination's shared inbox slot and waits on an atomic sub-barrier);
//! the coordinator only participates once per outer window, where the
//! serialized work lives: the K-way merge of the fired runs, metric
//! flushes and clock advance. The outer width grows geometrically while
//! windows stay clean (×2 per clean window, halved when a window is
//! clipped by a sync point or the run limit, capped at
//! 2^[`MAX_WIDEN_LOG2`] lookaheads) and is additionally widened to the
//! provable cross-shard arrival bound (`ShardCore::arrival_bound`), so
//! phases with no pending sends collapse to a single round. Sub-rounds
//! inside a window still advance one lookahead at a time, so the static
//! safety argument does not depend on the width.
//!
//! ## Determinism
//!
//! Every caller command is stamped with a globally unique
//! [`EventKey`] at issue time and derived events inherit it, so
//! `(time, key)` totally orders every occurrence independently of K.
//! Per-shard windows emit occurrences already `(time, key)`-sorted (the
//! shard queue pops in that order), and windows are disjoint in time, so
//! the barrier merge — a K-way merge of the per-shard runs — reconstructs
//! the same global order at any shard count. *Sync points* (faults,
//! block/unblock/close/rebind, which touch shared state) are executed
//! sequentially by the coordinator, interleaved with same-instant shard
//! events in key order, which again is K-independent. The differential
//! harness in `tests/shard_determinism.rs` checks all of this byte for
//! byte against K=1.

use crate::channel::{ChannelId, ChannelStats};
use crate::fault::{FaultKind, FaultSchedule};
use crate::hier::{HierStats, Router};
use crate::link::LinkId;
use crate::network::{RouteCacheStats, Topology};
use crate::node::NodeId;
use crate::shard::{
    apply_sync, sync_runs_first, CacheAligned, DeliverBatch, DeliverSide, Entry, EventKey,
    InboxSlot, KernelCounter, MergedEvent, Scheduled, SendSide, ShardCore, ShardEvent, ShardId,
    ShardMap, SyncCmd, SyncEntry,
};
use crate::time::{SimDuration, SimTime};
use aas_obs::Counters;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering as AtomicOrd};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How shard windows are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Windows run serially on the caller's thread (still shard-by-shard,
    /// still through the barrier protocol — useful for deterministic
    /// debugging and for modeled-speedup measurements on small hosts).
    Inline,
    /// Each shard runs on its own persistent worker thread; the caller
    /// blocks at barriers.
    Threads,
}

/// Cap on the geometric widening exponent: an outer window spans at most
/// `2^MAX_WIDEN_LOG2` lookaheads (bounds per-window buffering and keeps
/// the kernel responsive to `run_until` limits).
pub const MAX_WIDEN_LOG2: u32 = 6;

/// Shared state between the coordinator and the workers.
struct Shared<M> {
    /// Topology + shard map; workers take read locks for the duration of
    /// a window, the coordinator takes a write lock for sync steps.
    world: RwLock<World>,
    /// One core per shard. Workers lock only their own; the coordinator
    /// locks them between windows (never while a window runs). Each core
    /// sits on its own cache line: the hot per-shard fields (queue head,
    /// outbox lengths, busy counter) are written at high rate by their
    /// owning worker, and sharing a line with a neighbor would turn every
    /// bump into cross-core traffic.
    shards: Vec<CacheAligned<Mutex<ShardCore<M>>>>,
    /// Per-shard shared mailboxes, separate from the cores so peers can
    /// deposit batches during the exchange phase while every core is
    /// locked by its own worker. Inbox locks are only ever taken while
    /// holding one's *own* core lock (never a peer's core), so the
    /// protocol is deadlock-free by lock-order.
    ///
    /// Each mailbox has two lanes, used by sub-round parity ([`lane`]):
    /// round `r` deposits into one while the owner drains the other, which
    /// holds exactly round `r - 1`'s deposits. What a shard takes in each
    /// round is therefore a function of the schedule alone — a fast peer's
    /// round-`r` deposit can never slip into a slow owner's round-`r`
    /// drain — so queue lengths, and with them every buffer capacity a
    /// warm worker needs, repeat exactly from run to run.
    inboxes: Vec<CacheAligned<[Mutex<InboxSlot<M>>; 2]>>,
    barrier: BarrierCtl,
}

struct World {
    topo: Topology,
    map: ShardMap,
}

/// The spin-then-park barrier replacing the old `Mutex<Ctrl>` + `Condvar`
/// generation handshake: one atomic epoch bump publishes a window, one
/// atomic add per worker reports completion, and everyone spins briefly
/// before parking — the fast path makes no syscall at all.
///
/// Every hot atomic lives on its own cache line (asserted by a unit
/// test): `epoch` is written by the coordinator and spun on by K workers,
/// `done` is contended by workers finishing, and the sub-barrier pair
/// churns once per sub-round.
struct BarrierCtl {
    /// Bumped once per outer window; workers run exactly one outer window
    /// (all of its sub-rounds) per bump. The bump `Release`-publishes the
    /// window parameters below.
    epoch: CacheAligned<AtomicU64>,
    /// Workers done with the current outer window.
    done: CacheAligned<AtomicU32>,
    /// Sub-barrier arrival counter (sense-reversing, reset by the last
    /// arriver).
    sub_arrived: CacheAligned<AtomicU32>,
    /// Sub-barrier generation; bumped by the last arriver of each
    /// sub-round.
    sub_epoch: CacheAligned<AtomicU64>,
    /// Current window parameters, raw micros; written by the coordinator
    /// before the epoch bump that publishes them.
    tq: CacheAligned<AtomicU64>,
    la: CacheAligned<AtomicU64>,
    bound: CacheAligned<AtomicU64>,
    end: CacheAligned<AtomicU64>,
    /// Global index of the window's first sub-round (selects the lanes).
    round: CacheAligned<AtomicU64>,
    shutdown: AtomicBool,
    /// Per-worker "I am parked" flags (Dekker pairing with the epoch
    /// bump: a worker publishes the flag, then re-checks the epoch; the
    /// coordinator bumps the epoch, then checks the flags).
    parked: Vec<CacheAligned<AtomicBool>>,
    /// The coordinator thread currently blocked in `run_until`, for the
    /// last-done worker to unpark. Registered once per `run_until` call.
    coord: Mutex<Option<std::thread::Thread>>,
}

impl BarrierCtl {
    fn new(shards: u32) -> Self {
        BarrierCtl {
            epoch: CacheAligned(AtomicU64::new(0)),
            done: CacheAligned(AtomicU32::new(0)),
            sub_arrived: CacheAligned(AtomicU32::new(0)),
            sub_epoch: CacheAligned(AtomicU64::new(0)),
            tq: CacheAligned(AtomicU64::new(0)),
            la: CacheAligned(AtomicU64::new(0)),
            bound: CacheAligned(AtomicU64::new(0)),
            end: CacheAligned(AtomicU64::new(0)),
            round: CacheAligned(AtomicU64::new(0)),
            shutdown: AtomicBool::new(false),
            parked: (0..shards)
                .map(|_| CacheAligned(AtomicBool::new(false)))
                .collect(),
            coord: Mutex::new(None),
        }
    }
}

/// End of the sub-round starting at `b`: one lookahead forward, skipping
/// straight to the provable arrival `bound` when it is further (nothing
/// can land in `[b + la, bound)`), clamped to the outer window end.
fn next_round_end(b: SimTime, la: SimDuration, bound: SimTime, w_end: SimTime) -> SimTime {
    if la == SimDuration::MAX {
        return w_end;
    }
    w_end.min((b + la).max(bound))
}

/// The mailbox lane sub-round `round` deposits into. The owner drains
/// `lane(round + 1)` meanwhile: the previous round's deposits.
fn lane(round: u64) -> usize {
    (round & 1) as usize
}

/// Moves every batch deposited in one mailbox lane into the owner's
/// queue, recycling spent buffers into the core's free list. `scratch` is
/// a reusable vector so the lane lock is held only for two pointer swaps.
fn drain_lane<M>(
    lane: &Mutex<InboxSlot<M>>,
    core: &mut ShardCore<M>,
    scratch: &mut Vec<DeliverBatch<M>>,
) {
    {
        let mut s = lane.lock().expect("inbox lock");
        if s.batches.is_empty() {
            return;
        }
        std::mem::swap(&mut s.batches, scratch);
        s.min_at = SimTime::MAX;
    }
    for mut b in scratch.drain(..) {
        b.drain_into(&mut core.queue);
        core.free.push(b);
    }
}

/// One shard's share of sub-round `round`, which ends at `end`: take in
/// the previous round's deposits, run the window, then the exchange phase
/// — every non-empty outbox batch goes to the destination shard's mailbox
/// as a whole-buffer move (O(runs), not O(events)), replaced from the
/// free list, and is checked against the "nothing crosses a barrier
/// early" invariant.
fn run_round<M>(
    shared: &Shared<M>,
    world: &World,
    core: &mut ShardCore<M>,
    scratch: &mut Vec<DeliverBatch<M>>,
    end: SimTime,
    round: u64,
) {
    let me = core.id as usize;
    drain_lane(&shared.inboxes[me].0[lane(round + 1)], core, scratch);
    core.run_window(&world.topo, &world.map, end);
    for (d, slot) in shared.inboxes.iter().enumerate() {
        if d == me || core.outboxes[d].is_empty() {
            continue;
        }
        let repl = core.free.pop().unwrap_or_default();
        let batch = std::mem::replace(&mut core.outboxes[d], repl);
        core.exchanged_out += batch.len() as u64;
        core.exchange_ops += 1;
        if batch.min_at < end {
            core.early_crossings += batch.len() as u64;
        }
        let mut s = slot.0[lane(round)].lock().expect("inbox lock");
        s.min_at = s.min_at.min(batch.min_at);
        s.batches.push(batch);
    }
}

/// Sense-reversing barrier between sub-rounds: every shard must deposit
/// its round-r batches before any shard drains its inbox for round r+1.
/// Spins briefly, then yields, then parks with a timeout (no wakeup
/// needed — the timeout bounds the oversleep and the spin/yield phases
/// catch the common case).
fn sub_barrier_wait(bar: &BarrierCtl, k: u32) {
    let gen = bar.sub_epoch.0.load(AtomicOrd::Acquire);
    if bar.sub_arrived.0.fetch_add(1, AtomicOrd::AcqRel) + 1 == k {
        bar.sub_arrived.0.store(0, AtomicOrd::Relaxed);
        bar.sub_epoch.0.fetch_add(1, AtomicOrd::Release);
        return;
    }
    let mut spins = 0u32;
    while bar.sub_epoch.0.load(AtomicOrd::Acquire) == gen {
        if spins < 512 {
            spins += 1;
            std::hint::spin_loop();
        } else if spins < 576 {
            spins += 1;
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(100));
        }
    }
}

/// Execution statistics of a [`ShardedKernel`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardedStats {
    /// Outer windows executed — one coordinator barrier (serial merge +
    /// metric flush) each. This is the synchronization-tax unit adaptive
    /// widening attacks.
    pub windows: u64,
    /// Lookahead-wide sub-rounds executed inside outer windows (each ends
    /// in a worker-to-worker batch exchange over an atomic sub-barrier,
    /// with no coordinator involvement). Always ≥ `windows`.
    pub subrounds: u64,
    /// Outer windows that were wider than one lookahead (adaptive gain).
    pub widened_windows: u64,
    /// Sequential sync steps executed.
    pub sync_steps: u64,
    /// Cross-shard entries exchanged at barriers.
    pub exchanged: u64,
    /// Whole-batch exchange operations. The SoA exchange moves buffers,
    /// not entries: `exchanged / exchange_ops` entries ride each O(1)
    /// buffer move.
    pub exchange_ops: u64,
    /// Entries that would have arrived *inside* the window that produced
    /// them — a violation of the lookahead rule. Must stay zero.
    pub early_crossings: u64,
    /// Total events processed across all shards.
    pub events: u64,
    /// Modeled critical-path nanoseconds: per window, the *maximum* shard
    /// busy time (the window's span on an ideal K-core host), summed.
    pub critical_ns: u64,
    /// Coordinator-serial nanoseconds (barriers, merges, sync steps) —
    /// the Amdahl term that bounds scaling.
    pub serial_ns: u64,
    /// The barrier-only part of `serial_ns` (merge + flush at outer
    /// windows, excluding sync steps); `barrier_ns / windows` is the E19
    /// microbench's ns-per-window figure.
    pub barrier_ns: u64,
}

impl ShardedStats {
    /// Modeled events/second on an ideal K-core host: events over
    /// (critical path + serial coordinator time).
    #[must_use]
    pub fn modeled_events_per_sec(&self) -> f64 {
        let ns = self.critical_ns + self.serial_ns;
        if ns == 0 {
            return 0.0;
        }
        self.events as f64 / (ns as f64 / 1e9)
    }
}

/// The parallel kernel: K shard event loops, deterministic epoch
/// barriers, byte-identical merged output at any K.
///
/// The API mirrors [`Kernel`](crate::kernel::Kernel) where the semantics
/// match, with one structural difference: because shards run whole
/// windows at a time, occurrences are returned in batches from
/// [`ShardedKernel::run_until`] / [`ShardedKernel::drain`] instead of
/// one-by-one from `step()`, and every command is *scheduled* at an
/// explicit virtual time (`send_at`, `fault_at`, …) rather than taking
/// effect "now".
///
/// # Examples
///
/// ```
/// use aas_sim::coordinator::ShardedKernel;
/// use aas_sim::network::Topology;
/// use aas_sim::kernel::Fired;
/// use aas_sim::time::{SimDuration, SimTime};
///
/// let topo = Topology::clique(4, 100.0, SimDuration::from_millis(1), 1e6);
/// let mut k: ShardedKernel<&'static str> = ShardedKernel::new(topo, 2);
/// let ch = k.open_channel(aas_sim::node::NodeId(0), aas_sim::node::NodeId(1));
/// k.send_at(SimTime::ZERO, ch, "ping", 64);
/// let events = k.drain();
/// assert_eq!(events.len(), 1);
/// assert!(matches!(events[0].what, Fired::Delivered { .. }));
/// ```
pub struct ShardedKernel<M: Send + 'static> {
    shared: Arc<Shared<M>>,
    mode: ExecMode,
    workers: Vec<JoinHandle<()>>,
    now: SimTime,
    next_cmd: u64,
    next_timer_tag: u64,
    sync: BinaryHeap<SyncEntry>,
    next_channel: u64,
    stats: ShardedStats,
    /// Current geometric widening exponent (outer window target width is
    /// `la << widen_log2`).
    widen_log2: u32,
    /// Cached `world.lookahead` (static after construction).
    la: SimDuration,
    /// Sum of per-core `early_crossings` at the last barrier, for the
    /// per-window delta the widening keys on.
    prev_early: u64,
    /// Reusable batch scratch for inline-mode inbox drains.
    inline_scratch: Vec<DeliverBatch<M>>,
    /// Last flushed busy_ns per shard (to compute per-window deltas).
    prev_busy: Vec<u64>,
    /// Reusable K-way merge buffers (swapped with shard `fired` deques).
    merge_bufs: Vec<VecDeque<MergedEvent<M>>>,
    /// Peak per-window fired count per shard, for capacity handback: the
    /// fired buffer and merge buffer trade roles every window, so the
    /// coordinator re-reserves the handed-back buffer to the peak —
    /// keeping all growth off the worker threads.
    fired_peak: Vec<usize>,
}

impl<M: Send + std::fmt::Debug + 'static> std::fmt::Debug for ShardedKernel<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKernel")
            .field("mode", &self.mode)
            .field("now", &self.now)
            .field("next_cmd", &self.next_cmd)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<M: Send + 'static> ShardedKernel<M> {
    /// Builds an inline-mode sharded kernel over `topo` with `shards`
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(topo: Topology, shards: u32) -> Self {
        ShardedKernel::with_mode(topo, shards, ExecMode::Inline)
    }

    /// Builds a sharded kernel with an explicit [`ExecMode`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_mode(topo: Topology, shards: u32, mode: ExecMode) -> Self {
        ShardedKernel::with_mode_and_hook(topo, shards, mode, None)
    }

    /// Like [`ShardedKernel::with_mode`], with a hook every worker thread
    /// calls once at startup (before its first window). Test harnesses use
    /// this to enroll worker threads in thread-scoped instrumentation such
    /// as the counting allocator in `tests/alloc_free.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn with_mode_and_hook(
        topo: Topology,
        shards: u32,
        mode: ExecMode,
        hook: Option<fn()>,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let map = ShardMap::round_robin(topo.node_count(), shards);
        let lookahead = map.lookahead(&topo);
        let cores: Vec<CacheAligned<Mutex<ShardCore<M>>>> = (0..shards)
            .map(|i| {
                let mut core = ShardCore::new(i, &topo);
                core.outboxes = (0..shards).map(|_| DeliverBatch::default()).collect();
                core.link_bytes = vec![0; topo.link_count()];
                CacheAligned(Mutex::new(core))
            })
            .collect();
        let shared = Arc::new(Shared {
            world: RwLock::new(World { topo, map }),
            shards: cores,
            inboxes: (0..shards)
                .map(|_| CacheAligned(std::array::from_fn(|_| Mutex::default())))
                .collect(),
            barrier: BarrierCtl::new(shards),
        });
        let workers = if mode == ExecMode::Threads {
            (0..shards)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("aas-shard-{i}"))
                        .spawn(move || worker_loop(&shared, i as usize, hook))
                        .expect("spawn shard worker")
                })
                .collect()
        } else {
            Vec::new()
        };
        ShardedKernel {
            shared,
            mode,
            workers,
            now: SimTime::ZERO,
            next_cmd: 0,
            next_timer_tag: 0,
            sync: BinaryHeap::new(),
            next_channel: 0,
            stats: ShardedStats::default(),
            widen_log2: 0,
            la: lookahead,
            prev_early: 0,
            inline_scratch: Vec::new(),
            prev_busy: vec![0; shards as usize],
            merge_bufs: (0..shards).map(|_| VecDeque::new()).collect(),
            fired_peak: vec![0; shards as usize],
        }
    }

    fn alloc_cmd(&mut self) -> u64 {
        let c = self.next_cmd;
        self.next_cmd += 1;
        c
    }

    /// Locks the core that `owns` a channel side — the same scan
    /// `apply_sync` places commands with.
    fn owner(&self, owns: impl Fn(&ShardCore<M>) -> bool) -> MutexGuard<'_, ShardCore<M>> {
        let cores = self.shared.shards.iter();
        cores
            .map(|m| m.0.lock().expect("shard lock"))
            .find(|c| owns(c))
            .expect("channel was opened")
    }

    fn schedule_sync(&mut self, at: SimTime, ev: SyncCmd) {
        let key = EventKey::new(self.alloc_cmd(), 0);
        self.sync.push(Scheduled { at, key, ev });
    }

    // ----- caller commands ---------------------------------------------

    /// Opens a FIFO channel from `src` to `dst`; the send side lives on
    /// `src`'s shard, the delivery side on `dst`'s.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of topology bounds.
    pub fn open_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        let shared = Arc::clone(&self.shared);
        let world = shared.world.read().expect("world lock");
        let n = world.topo.node_count() as u32;
        assert!(src.0 < n && dst.0 < n, "channel endpoint out of bounds");
        let ch = ChannelId(self.next_channel);
        self.next_channel += 1;
        let ssh = world.map.shard_of(src).0 as usize;
        let dsh = world.map.shard_of(dst).0 as usize;
        let lock = |i: usize| shared.shards[i].0.lock().expect("shard lock");
        lock(ssh).put_send_side(ch, SendSide::new(src, dst));
        lock(dsh).put_deliver_side(ch, DeliverSide::new(dst));
        ch
    }

    /// Schedules a send on `ch` at virtual time `at` (≥ `now`). Routing,
    /// FIFO ordering and accounting happen when the source shard
    /// processes the command at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `ch` was never opened.
    pub fn send_at(&mut self, at: SimTime, ch: ChannelId, msg: M, size: u64) {
        assert!(at >= self.now, "cannot schedule a send in the past");
        let cmd = self.alloc_cmd();
        let mut core = self.owner(|c| c.send_side(ch).is_some());
        core.queue.push(Entry {
            at,
            key: EventKey::new(cmd, 0),
            ev: ShardEvent::SendCmd { ch, msg, size },
        });
        core.send_times.push(Reverse(at));
    }

    /// Schedules a timer at `at`; returns the tag the eventual
    /// [`Fired::Timer`](crate::kernel::Fired::Timer) will carry.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime) -> u64 {
        assert!(at >= self.now, "cannot schedule a timer in the past");
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        let cmd = self.alloc_cmd();
        let shared = Arc::clone(&self.shared);
        // Placement is K-dependent but output order is not: the key rules.
        let shard = (cmd % self.shared.shards.len() as u64) as usize;
        let mut core = shared.shards[shard].0.lock().expect("shard lock");
        core.queue.push(Entry {
            at,
            key: EventKey::new(cmd, 0),
            ev: ShardEvent::Timer { tag },
        });
        tag
    }

    /// Schedules a fault at `at` (a sync point: the topology mutation runs
    /// sequentially at the coordinator).
    pub fn fault_at(&mut self, at: SimTime, kind: FaultKind) {
        self.schedule_sync(at, SyncCmd::Fault(kind));
    }

    /// Schedules every entry of `sched` as a fault sync point.
    pub fn inject_faults(&mut self, sched: FaultSchedule) {
        for (at, kind) in sched.into_entries() {
            self.fault_at(at, kind);
        }
    }

    /// Schedules a delivery block on `ch` at `at` (reconfiguration
    /// quiesce). Messages arriving while blocked are held, invisible, and
    /// re-released in order on unblock.
    pub fn block_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        self.schedule_sync(at, SyncCmd::Block(ch));
    }

    /// Schedules an unblock of `ch` at `at`; held messages re-enter the
    /// queue at `at` in arrival order.
    pub fn unblock_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        self.schedule_sync(at, SyncCmd::Unblock(ch));
    }

    /// Schedules a close of `ch` at `at`; later sends, in-flight
    /// deliveries and what a blocked `ch` holds drop with `ChannelClosed`.
    pub fn close_channel_at(&mut self, at: SimTime, ch: ChannelId) {
        self.schedule_sync(at, SyncCmd::Close(ch));
    }

    /// Schedules a rebind of `ch` to new endpoints at `at` (component
    /// migration). In-flight messages are delivered against the new
    /// destination, exactly like
    /// [`Kernel::rebind_channel`](crate::kernel::Kernel::rebind_channel).
    pub fn rebind_channel_at(&mut self, at: SimTime, ch: ChannelId, src: NodeId, dst: NodeId) {
        self.schedule_sync(at, SyncCmd::Rebind(ch, src, dst));
    }

    // ----- the engine --------------------------------------------------

    /// Runs every pending event with virtual time ≤ `limit` and returns
    /// the merged occurrence stream in `(time, key)` order — byte-identical
    /// at any shard count for the same command sequence.
    pub fn run_until(&mut self, limit: SimTime) -> Vec<MergedEvent<M>> {
        let mut out = Vec::new();
        self.run_until_into(limit, &mut out);
        out
    }

    /// Like [`ShardedKernel::run_until`], appending into a caller-owned
    /// buffer — a warmed buffer keeps the whole run allocation-free (see
    /// `tests/alloc_free.rs`).
    pub fn run_until_into(&mut self, limit: SimTime, out: &mut Vec<MergedEvent<M>>) {
        if self.mode == ExecMode::Threads {
            *self.shared.barrier.coord.lock().expect("coord slot") = Some(std::thread::current());
        }
        loop {
            let shared = Arc::clone(&self.shared);
            let la = self.la;
            let (tq, bound) = {
                let mut tq = SimTime::MAX;
                let mut bound = SimTime::MAX;
                for m in &shared.shards {
                    let core = m.0.lock().expect("shard lock");
                    tq = tq.min(core.next_pending());
                    if la < SimDuration::MAX {
                        bound = bound.min(core.arrival_bound(la));
                    }
                }
                for lane in shared.inboxes.iter().flat_map(|slot| &slot.0) {
                    tq = tq.min(lane.lock().expect("inbox lock").min_at);
                }
                (tq, bound)
            };
            let ts = self.sync.peek().map_or(SimTime::MAX, |e| e.at);
            let t = tq.min(ts);
            if t == SimTime::MAX || t > limit {
                break;
            }
            if ts <= tq {
                self.sync_step(ts, out);
                continue;
            }
            // Outer window [tq, w_end): bounded by the next sync point and
            // the caller's limit; when any link crosses shards, the target
            // width is a geometric multiple of the lookahead — or the
            // provable arrival bound, if further.
            let hard = ts.min(limit + SimDuration::from_micros(1));
            let mut clipped = false;
            let w_end = if la == SimDuration::MAX {
                hard
            } else {
                let target = (tq + la * (1u64 << self.widen_log2)).max(bound);
                clipped = target > hard;
                hard.min(target)
            };
            if w_end <= tq {
                // Degenerate (zero-latency cross-shard link): fall back to
                // sequential processing of this instant.
                self.sync_step(tq, out);
                continue;
            }
            self.dispatch_window(tq, la, bound, w_end);
            let window_early = self.barrier_merge(out);
            if la < SimDuration::MAX {
                if w_end > tq + la {
                    self.stats.widened_windows += 1;
                }
                // Widen geometrically while windows close cleanly; back
                // off when the target overshot a sync point or the run
                // limit (dense sync phases want narrow windows). An early
                // crossing can't happen (the bound is provable) but would
                // snap the width back to one lookahead if it ever did.
                if window_early > 0 {
                    self.widen_log2 = 0;
                } else if clipped {
                    self.widen_log2 = self.widen_log2.saturating_sub(1);
                } else {
                    self.widen_log2 = (self.widen_log2 + 1).min(MAX_WIDEN_LOG2);
                }
            }
        }
        if limit < SimTime::MAX {
            self.now = self.now.max(limit);
        }
    }

    /// Runs until every queue is empty; the batch analogue of looping
    /// [`Kernel::step`](crate::kernel::Kernel::step).
    pub fn drain(&mut self) -> Vec<MergedEvent<M>> {
        self.run_until(SimTime::MAX)
    }

    /// Like [`ShardedKernel::drain`], appending into a caller-owned
    /// buffer.
    pub fn drain_into(&mut self, out: &mut Vec<MergedEvent<M>>) {
        self.run_until_into(SimTime::MAX, out);
    }

    /// Executes one outer window `[tq, w_end)` as lookahead-wide
    /// sub-rounds with direct worker-to-worker exchange between them.
    fn dispatch_window(&mut self, tq: SimTime, la: SimDuration, bound: SimTime, w_end: SimTime) {
        let round = self.stats.subrounds;
        // Count sub-rounds (same boundary walk the workers do).
        let mut b = tq;
        loop {
            self.stats.subrounds += 1;
            let end = next_round_end(b, la, bound, w_end);
            if end >= w_end {
                break;
            }
            b = end;
        }
        match self.mode {
            ExecMode::Inline => self.run_rounds_inline(tq, la, bound, w_end, round),
            ExecMode::Threads => {
                let bar = &self.shared.barrier;
                bar.tq.0.store(tq.as_micros(), AtomicOrd::Relaxed);
                bar.la.0.store(la.as_micros(), AtomicOrd::Relaxed);
                bar.bound.0.store(bound.as_micros(), AtomicOrd::Relaxed);
                bar.end.0.store(w_end.as_micros(), AtomicOrd::Relaxed);
                bar.round.0.store(round, AtomicOrd::Relaxed);
                // The SeqCst bump publishes the parameters and pairs with
                // the workers' parked-flag protocol (Dekker): we bump,
                // then check flags; they set the flag, then re-check the
                // epoch.
                bar.epoch.0.fetch_add(1, AtomicOrd::SeqCst);
                for (i, flag) in bar.parked.iter().enumerate() {
                    if flag.0.load(AtomicOrd::SeqCst) {
                        self.workers[i].thread().unpark();
                    }
                }
                let k = self.shared.shards.len() as u32;
                let mut spins = 0u32;
                while bar.done.0.load(AtomicOrd::Acquire) < k {
                    if spins < 512 {
                        spins += 1;
                        std::hint::spin_loop();
                    } else if spins < 576 {
                        spins += 1;
                        std::thread::yield_now();
                    } else {
                        std::thread::park_timeout(Duration::from_micros(200));
                    }
                }
                bar.done.0.store(0, AtomicOrd::Relaxed);
            }
        }
    }

    /// Inline-mode outer window: the same sub-round/exchange schedule the
    /// workers run, executed shard-by-shard on the caller's thread.
    fn run_rounds_inline(
        &mut self,
        tq: SimTime,
        la: SimDuration,
        bound: SimTime,
        w_end: SimTime,
        mut round: u64,
    ) {
        let shared = Arc::clone(&self.shared);
        let world = shared.world.read().expect("world lock");
        let mut b = tq;
        loop {
            let end = next_round_end(b, la, bound, w_end);
            for m in &shared.shards {
                let mut core = m.0.lock().expect("shard lock");
                let scratch = &mut self.inline_scratch;
                run_round(&shared, &world, &mut core, scratch, end, round);
            }
            if end >= w_end {
                break;
            }
            b = end;
            round += 1;
        }
    }

    /// Coordinator barrier at the end of an outer window: collect the
    /// per-shard fired runs, advance the clock, K-way merge. Exchange
    /// already happened shard-to-shard at sub-round ends.
    /// Returns the number of early crossings recorded this window (the
    /// widening's back-off signal).
    fn barrier_merge(&mut self, out: &mut Vec<MergedEvent<M>>) -> u64 {
        let t0 = Instant::now();
        self.stats.windows += 1;
        let shared = Arc::clone(&self.shared);
        let mut max_busy = 0u64;
        let mut early_total = 0u64;
        for (i, m) in shared.shards.iter().enumerate() {
            let mut core = m.0.lock().expect("shard lock");
            let delta = core.busy_ns - self.prev_busy[i];
            self.prev_busy[i] = core.busy_ns;
            max_busy = max_busy.max(delta);
            self.now = self.now.max(core.last_at);
            early_total += core.early_crossings;
            std::mem::swap(&mut self.merge_bufs[i], &mut core.fired);
            // Capacity handback: the deque handed back may be the one
            // that missed the widest window so far; reserve it to the
            // observed peak here so it never regrows on a worker thread.
            let peak = self.fired_peak[i].max(self.merge_bufs[i].len());
            self.fired_peak[i] = peak;
            if core.fired.capacity() < peak {
                let additional = peak - core.fired.len();
                core.fired.reserve(additional);
            }
        }
        self.stats.critical_ns += max_busy;
        let window_early = early_total - self.prev_early;
        self.prev_early = early_total;
        // K-way merge of the per-shard runs (each already sorted — a
        // shard's sub-rounds advance in time, so its concatenated window
        // output stays sorted). Popping from the front of the persistent
        // deques keeps this allocation-free.
        loop {
            let mut best: Option<(usize, SimTime, EventKey)> = None;
            for (i, buf) in self.merge_bufs.iter().enumerate() {
                if let Some(e) = buf.front() {
                    let better = match best {
                        None => true,
                        Some((_, at, key)) => (e.at, e.key) < (at, key),
                    };
                    if better {
                        best = Some((i, e.at, e.key));
                    }
                }
            }
            let Some((i, _, _)) = best else { break };
            out.push(self.merge_bufs[i].pop_front().expect("peeked"));
        }
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats.serial_ns += dt;
        self.stats.barrier_ns += dt;
        window_early
    }

    /// A sequential step at instant `ts`: executes pending sync commands
    /// and same-instant shard events one at a time in `(time, key)` order,
    /// draining mailboxes after every event. Exactly what a K=1 kernel
    /// would do — which is why sync semantics are K-independent.
    fn sync_step(&mut self, ts: SimTime, out: &mut Vec<MergedEvent<M>>) {
        let t0 = Instant::now();
        self.stats.sync_steps += 1;
        let shared = Arc::clone(&self.shared);
        let mut world = shared.world.write().expect("world lock");
        let world = &mut *world;
        let mut cores: Vec<MutexGuard<'_, ShardCore<M>>> = shared
            .shards
            .iter()
            .map(|m| m.0.lock().expect("shard lock"))
            .collect();
        let k = cores.len();
        // Pull everything still sitting in the shared inboxes into the
        // queues so same-instant cross-shard events are visible to this
        // step's merge.
        for (slot, core) in shared.inboxes.iter().zip(&mut cores) {
            for lane in &slot.0 {
                drain_lane(lane, core, &mut self.inline_scratch);
            }
        }
        loop {
            let mut best: Option<(usize, EventKey)> = None;
            for (i, core) in cores.iter().enumerate() {
                if let Some((at, key)) = core.queue.peek() {
                    if at == ts && best.is_none_or(|(_, b)| key < b) {
                        best = Some((i, key));
                    }
                }
            }
            let sync_next = self.sync.peek().filter(|e| e.at == ts);
            let Some(take_sync) = sync_runs_first(
                best.map(|(_, key)| (ts, key)),
                sync_next.map(|e| (ts, e.key)),
            ) else {
                break;
            };
            if take_sync {
                let entry = self.sync.pop().expect("peeked");
                let key = entry.key;
                let fired = apply_sync(&mut cores, &mut world.topo, Some(&world.map), entry);
                if let Some(what) = fired {
                    out.push(MergedEvent { at: ts, key, what });
                }
            } else {
                let (i, key) = best.expect("have a shard event");
                let entry = cores[i].queue.pop().expect("peeked");
                // The occurrence surfaces immediately, and cross-shard
                // output is forwarded right away so a same-instant
                // consequence on another shard is visible within this step.
                if let Some(what) = cores[i].process(entry, &world.topo, Some(&world.map)) {
                    out.push(MergedEvent { at: ts, key, what });
                }
                for d in 0..k {
                    if cores[i].outboxes[d].is_empty() {
                        continue;
                    }
                    let repl = cores[i].free.pop().unwrap_or_default();
                    let mut moved = std::mem::replace(&mut cores[i].outboxes[d], repl);
                    self.stats.exchanged += moved.len() as u64;
                    self.stats.exchange_ops += 1;
                    moved.drain_into(&mut cores[d].queue);
                    cores[i].free.push(moved);
                }
            }
        }
        self.now = self.now.max(ts);
        self.stats.serial_ns += t0.elapsed().as_nanos() as u64;
    }

    // ----- introspection -----------------------------------------------

    /// Current virtual time (the latest processed instant, or the limit of
    /// the last bounded run).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The execution mode this kernel was built with.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The conservative lookahead (min cross-shard link latency). Cached:
    /// the link set and shard map are fixed at construction.
    #[must_use]
    pub fn lookahead(&self) -> SimDuration {
        self.la
    }

    /// Global kernel counters, summed across shards — same names and
    /// meanings as
    /// [`Kernel::counters`](crate::kernel::Kernel::counters).
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        for k in KernelCounter::ALL {
            c.add(k.name(), self.counter(k));
        }
        c
    }

    /// One global counter, summed across shards.
    #[must_use]
    pub fn counter(&self, c: KernelCounter) -> u64 {
        self.shared
            .shards
            .iter()
            .map(|m| m.0.lock().expect("shard lock").counters[c as usize])
            .sum()
    }

    /// Per-channel statistics, merged across the owning shards.
    #[must_use]
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        let mut stats = ChannelStats::default();
        for m in &self.shared.shards {
            m.0.lock()
                .expect("shard lock")
                .channel_stats_into(ch, &mut stats);
        }
        stats
    }

    /// Current `(src, dst)` endpoints of `ch`.
    #[must_use]
    pub fn channel_endpoints(&self, ch: ChannelId) -> (NodeId, NodeId) {
        let core = self.owner(|c| c.send_side(ch).is_some());
        let s = core.send_side(ch).expect("owner");
        (s.src, s.dst)
    }

    /// Whether `ch`'s delivery side is currently blocked.
    #[must_use]
    pub fn is_blocked(&self, ch: ChannelId) -> bool {
        let core = self.owner(|c| c.deliver_side(ch).is_some());
        core.deliver_side(ch).expect("owner").blocked
    }

    /// Route-cache counters summed across every shard's private cache.
    #[must_use]
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        let mut total = RouteCacheStats::default();
        for m in &self.shared.shards {
            let s = m.0.lock().expect("shard lock").router.flat_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.invalidations += s.invalidations;
            total.settled += s.settled;
        }
        total
    }

    /// Switches every shard to hierarchical routing (a private
    /// [`HierRouter`](crate::hier::HierRouter) per shard, all enabled
    /// together so routing policy does not depend on the shard count).
    /// Call before driving traffic; calling again resets the routers.
    pub fn enable_hier_routing(&mut self) {
        for m in &self.shared.shards {
            m.0.lock().expect("shard lock").router = Router::hier();
        }
    }

    /// Hierarchical-router counters summed across shards; `None` until
    /// [`ShardedKernel::enable_hier_routing`].
    #[must_use]
    pub fn hier_stats(&self) -> Option<HierStats> {
        let mut total = HierStats::default();
        let mut any = false;
        for m in &self.shared.shards {
            if let Some(s) = m.0.lock().expect("shard lock").router.hier_stats() {
                any = true;
                total.hits += s.hits;
                total.misses += s.misses;
                total.stale_evictions += s.stale_evictions;
                total.cell_rebuilds += s.cell_rebuilds;
                total.overlay_queries += s.overlay_queries;
                total.full_fallbacks += s.full_fallbacks;
                total.settled += s.settled;
            }
        }
        any.then_some(total)
    }

    /// One shard's private route-cache counters.
    #[must_use]
    pub fn shard_route_cache_stats(&self, shard: ShardId) -> RouteCacheStats {
        self.shared.shards[shard.0 as usize]
            .0
            .lock()
            .expect("shard lock")
            .router
            .flat_stats()
    }

    /// Total bytes accounted to `lid`, summed across shards (u64 addition
    /// commutes, so the total is shard-count-independent).
    #[must_use]
    pub fn link_bytes(&self, lid: LinkId) -> u64 {
        self.shared
            .shards
            .iter()
            .map(|m| m.0.lock().expect("shard lock").link_bytes[lid.0 as usize])
            .sum()
    }

    /// Execution statistics (windows, exchanges, invariant violations,
    /// modeled critical path).
    #[must_use]
    pub fn stats(&self) -> ShardedStats {
        let mut s = self.stats;
        for m in &self.shared.shards {
            let core = m.0.lock().expect("shard lock");
            s.events += core.events_processed;
            s.early_crossings += core.early_crossings;
            s.exchanged += core.exchanged_out;
            s.exchange_ops += core.exchange_ops;
        }
        s
    }
}

/// Spin-then-park wait for the next outer-window epoch. Returns `false`
/// on shutdown. The parked flag pairs with the coordinator's post-bump
/// flag check (both SeqCst, Dekker-style): either the worker sees the new
/// epoch on its re-check, or the coordinator sees the flag and unparks.
fn wait_for_epoch(bar: &BarrierCtl, idx: usize, seen: &mut u64) -> bool {
    let flag = &bar.parked[idx].0;
    let mut spins = 0u32;
    loop {
        let e = bar.epoch.0.load(AtomicOrd::SeqCst);
        if e != *seen {
            *seen = e;
            // The shutdown flag is stored before the epoch bump that
            // publishes it, so a worker woken by that bump always sees it.
            return !bar.shutdown.load(AtomicOrd::SeqCst);
        }
        if bar.shutdown.load(AtomicOrd::SeqCst) {
            return false;
        }
        if spins < 256 {
            spins += 1;
            std::hint::spin_loop();
        } else if spins < 320 {
            spins += 1;
            std::thread::yield_now();
        } else {
            flag.store(true, AtomicOrd::SeqCst);
            if bar.epoch.0.load(AtomicOrd::SeqCst) == *seen && !bar.shutdown.load(AtomicOrd::SeqCst)
            {
                std::thread::park_timeout(Duration::from_millis(1));
            }
            flag.store(false, AtomicOrd::SeqCst);
        }
    }
}

fn worker_loop<M: Send + 'static>(shared: &Shared<M>, idx: usize, hook: Option<fn()>) {
    if let Some(h) = hook {
        h();
    }
    let bar = &shared.barrier;
    let k = shared.shards.len() as u32;
    let mut seen = 0u64;
    let mut scratch: Vec<DeliverBatch<M>> = Vec::new();
    loop {
        if !wait_for_epoch(bar, idx, &mut seen) {
            return;
        }
        let tq = SimTime::from_micros(bar.tq.0.load(AtomicOrd::Acquire));
        let la = SimDuration::from_micros(bar.la.0.load(AtomicOrd::Acquire));
        let bound = SimTime::from_micros(bar.bound.0.load(AtomicOrd::Acquire));
        let w_end = SimTime::from_micros(bar.end.0.load(AtomicOrd::Acquire));
        let mut round = bar.round.0.load(AtomicOrd::Acquire);
        {
            let world = shared.world.read().expect("world lock");
            let mut core = shared.shards[idx].0.lock().expect("shard lock");
            // Every worker computes the identical sub-round boundary
            // sequence from the published window parameters, so the
            // sub-barrier count always matches.
            let mut b = tq;
            loop {
                let end = next_round_end(b, la, bound, w_end);
                run_round(shared, &world, &mut core, &mut scratch, end, round);
                if end >= w_end {
                    break;
                }
                b = end;
                round += 1;
                sub_barrier_wait(bar, k);
            }
        }
        if bar.done.0.fetch_add(1, AtomicOrd::AcqRel) + 1 == k {
            if let Some(t) = bar.coord.lock().expect("coord slot").as_ref() {
                t.unpark();
            }
        }
    }
}

impl<M: Send + 'static> Drop for ShardedKernel<M> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        // Order matters: publish shutdown, then bump the epoch so spinning
        // workers re-check, then unpark sleepers. No worker is mid-window
        // here (run_until always waits out the done barrier), so every
        // worker is in `wait_for_epoch` and exits without touching the
        // sub-barrier.
        self.shared.barrier.shutdown.store(true, AtomicOrd::SeqCst);
        self.shared.barrier.epoch.0.fetch_add(1, AtomicOrd::SeqCst);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Fired;
    use crate::network::Topology;

    fn two_node_topo() -> Topology {
        Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6)
    }

    #[test]
    fn send_and_deliver_one_message() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send_at(SimTime::ZERO, ch, 7, 100);
        let events = k.drain();
        // The send fires nothing by itself; delivery is the only record
        // besides... actually SendCmd produces no fired record, only the
        // delivery does.
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].what, Fired::Delivered { msg: 7, .. }));
        assert_eq!(k.counter(KernelCounter::Sent), 1);
        assert_eq!(k.counter(KernelCounter::Delivered), 1);
        assert_eq!(k.stats().early_crossings, 0);
    }

    #[test]
    fn threaded_matches_inline() {
        let build = |mode| {
            let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(two_node_topo(), 2, mode);
            let ch = k.open_channel(NodeId(0), NodeId(1));
            for i in 0..50u64 {
                k.send_at(SimTime::from_micros(i * 10), ch, i, 64 + i);
            }
            let ev: Vec<String> = k
                .drain()
                .iter()
                .map(|e| format!("{} {} {:?}", e.at, e.key, e.what))
                .collect();
            (ev, k.counters())
        };
        let (a, ca) = build(ExecMode::Inline);
        let (b, cb) = build(ExecMode::Threads);
        assert_eq!(a, b);
        assert_eq!(ca.iter().collect::<Vec<_>>(), cb.iter().collect::<Vec<_>>());
    }

    #[test]
    fn block_then_unblock_releases_in_order() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.block_channel_at(SimTime::ZERO, ch);
        for i in 0..3 {
            k.send_at(SimTime::from_micros(i), ch, i as u32, 64);
        }
        let before = k.run_until(SimTime::from_millis(5));
        assert!(
            before.is_empty(),
            "blocked deliveries must stay invisible: {before:?}"
        );
        assert!(k.is_blocked(ch));
        assert_eq!(k.counter(KernelCounter::Held), 3);
        k.unblock_channel_at(SimTime::from_millis(6), ch);
        let after = k.drain();
        let msgs: Vec<u32> = after
            .iter()
            .filter_map(|e| match e.what {
                Fired::Delivered { msg, .. } => Some(msg),
                _ => None,
            })
            .collect();
        assert_eq!(msgs, vec![0, 1, 2]);
        assert_eq!(k.counter(KernelCounter::Released), 3);
    }

    #[test]
    fn fault_drops_delivery_on_down_node() {
        let mut k: ShardedKernel<u32> = ShardedKernel::new(two_node_topo(), 2);
        let ch = k.open_channel(NodeId(0), NodeId(1));
        k.send_at(SimTime::ZERO, ch, 1, 64);
        // Crash the destination before the ~1ms delivery.
        k.fault_at(SimTime::from_micros(500), FaultKind::NodeCrash(NodeId(1)));
        let events = k.drain();
        assert!(events.iter().any(|e| matches!(
            e.what,
            Fired::Dropped {
                reason: crate::channel::DropReason::DestinationDown,
                ..
            }
        )));
        assert_eq!(k.counter(KernelCounter::Dropped), 1);
    }

    /// The loom-free cache-line check from the issue: no two shards' hot
    /// state (core mutex, inbox slot) and no two barrier atomics may
    /// share a 64-byte line, so false sharing cannot couple the workers.
    #[test]
    fn hot_fields_live_on_distinct_cache_lines() {
        let k: ShardedKernel<u32> = ShardedKernel::with_mode(
            Topology::clique(8, 100.0, SimDuration::from_millis(1), 1e6),
            4,
            ExecMode::Inline,
        );
        let mut lines: Vec<usize> = Vec::new();
        for m in &k.shared.shards {
            lines.push(std::ptr::from_ref(m) as usize);
        }
        for s in &k.shared.inboxes {
            lines.push(std::ptr::from_ref(s) as usize);
        }
        let bar = &k.shared.barrier;
        lines.push(std::ptr::from_ref(&bar.epoch) as usize);
        lines.push(std::ptr::from_ref(&bar.done) as usize);
        lines.push(std::ptr::from_ref(&bar.sub_arrived) as usize);
        lines.push(std::ptr::from_ref(&bar.sub_epoch) as usize);
        lines.push(std::ptr::from_ref(&bar.round) as usize);
        for p in &bar.parked {
            lines.push(std::ptr::from_ref(p) as usize);
        }
        for (i, addr) in lines.iter().enumerate() {
            assert_eq!(addr % 64, 0, "field {i} is not cache-line aligned");
        }
        let mut line_ids: Vec<usize> = lines.iter().map(|a| a / 64).collect();
        line_ids.sort_unstable();
        line_ids.dedup();
        assert_eq!(
            line_ids.len(),
            lines.len(),
            "two hot fields share a cache line"
        );
    }
}
