//! Differential determinism harness for the two kernel drivers.
//!
//! 256 seeded random schedules — bursts of sends interleaved with faults
//! (node crashes, link flaps) and reconfiguration commands (block,
//! unblock, close, rebind) — each drawn with issue order unrelated to time
//! order and executed by the sharded kernel at K=1 in inline mode and at
//! K=4 on real worker threads: the audit logs must be **byte-identical**.
//! The same schedule sorted into time order then runs through the
//! interactive serial `Kernel` (its commands act at `now`) and the K=1
//! inline driver again, and those occurrence streams must be byte-identical
//! too, send-time drops — which the serial kernel reports through `send`'s
//! return value — included. In both comparisons the kernel counters,
//! per-channel stats and per-link byte totals must be equal; delivered
//! payloads must show no duplication (checked with `aas_core`'s
//! `SequenceTracker`), and fault-free schedules must additionally be
//! loss-free and perfectly in order.
//!
//! The deep tier (`--ignored`, nightly CI) runs 10× the seeds.

use aas_core::message::SequenceTracker;
use aas_obs::Counters;
use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::kernel::{Fired, Kernel, SendOutcome};
use aas_sim::link::{LinkId, LinkSpec};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::{ChannelId, ChannelStats};
use std::fmt::Write as _;

/// One caller command; a schedule is a `Vec<Op>` applied identically to
/// every kernel under test (same order → same deterministic event keys).
#[derive(Debug, Clone)]
enum Op {
    Send {
        at: SimTime,
        ch: usize,
        msg: u64,
        size: u64,
    },
    Timer {
        at: SimTime,
    },
    Fault {
        at: SimTime,
        kind: FaultKind,
    },
    Block {
        at: SimTime,
        ch: usize,
    },
    Unblock {
        at: SimTime,
        ch: usize,
    },
    Close {
        at: SimTime,
        ch: usize,
    },
    Rebind {
        at: SimTime,
        ch: usize,
        src: u32,
        dst: u32,
    },
}

impl Op {
    fn at(&self) -> SimTime {
        match *self {
            Op::Send { at, .. }
            | Op::Timer { at }
            | Op::Fault { at, .. }
            | Op::Block { at, .. }
            | Op::Unblock { at, .. }
            | Op::Close { at, .. }
            | Op::Rebind { at, .. } => at,
        }
    }
}

#[derive(Clone)]
struct Case {
    topo_seed: u64,
    channels: Vec<(NodeId, NodeId)>,
    ops: Vec<Op>,
    has_disruption: bool,
}

/// Ring + chords (odd seeds) or clique (even seeds); latencies are drawn
/// per link so lookahead differs across cases.
fn build_topology(seed: u64) -> Topology {
    let mut rng = SimRng::seed_from(seed ^ 0x70_70);
    if seed.is_multiple_of(2) {
        let lat = SimDuration::from_millis(1 + rng.below(4));
        Topology::clique(6, 100.0, lat, 1e7)
    } else {
        let mut t = Topology::new();
        let n = 8 + rng.below(4) as usize;
        let ids: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(NodeSpec::new(format!("n{i}"), 10.0)))
            .collect();
        for i in 0..n {
            t.add_link(LinkSpec::new(
                ids[i],
                ids[(i + 1) % n],
                SimDuration::from_millis(1 + rng.below(5)),
                1e7,
            ));
        }
        t.add_link(LinkSpec::new(
            ids[0],
            ids[n / 2],
            SimDuration::from_millis(2 + rng.below(4)),
            1e7,
        ));
        t.add_link(LinkSpec::new(
            ids[1],
            ids[n - 2],
            SimDuration::from_millis(2 + rng.below(4)),
            1e7,
        ));
        t
    }
}

fn build_case(seed: u64) -> Case {
    let topo = build_topology(seed);
    let n = topo.node_count() as u64;
    let m = topo.link_count() as u64;
    let mut rng = SimRng::seed_from(seed ^ 0xD1FF);
    let mut channels = Vec::new();
    for _ in 0..4 + rng.below(3) {
        let src = NodeId(rng.below(n) as u32);
        let dst = NodeId(rng.below(n) as u32);
        channels.push((src, dst));
    }
    let horizon_ms = 150;
    let mut ops = Vec::new();
    let mut seqs = vec![0u64; channels.len()];
    let mut blocked: Vec<bool> = vec![false; channels.len()];
    let mut has_disruption = false;
    let steps = 80 + rng.below(60);
    for _ in 0..steps {
        let at = SimTime::from_micros(rng.below(horizon_ms * 1000));
        let ch = rng.below(channels.len() as u64) as usize;
        match rng.below(20) {
            0 => {
                has_disruption = true;
                let node = NodeId(rng.below(n) as u32);
                let kind = if rng.chance(0.5) {
                    FaultKind::NodeCrash(node)
                } else {
                    FaultKind::NodeRecover(node)
                };
                ops.push(Op::Fault { at, kind });
            }
            1 => {
                has_disruption = true;
                let link = LinkId(rng.below(m) as u32);
                let kind = if rng.chance(0.5) {
                    FaultKind::LinkDown(link)
                } else {
                    FaultKind::LinkUp(link)
                };
                ops.push(Op::Fault { at, kind });
            }
            2 => {
                ops.push(Op::Block { at, ch });
                blocked[ch] = true;
            }
            3 => {
                ops.push(Op::Unblock { at, ch });
            }
            4 => {
                has_disruption = true;
                ops.push(Op::Close { at, ch });
            }
            5 => {
                has_disruption = true;
                ops.push(Op::Rebind {
                    at,
                    ch,
                    src: rng.below(n) as u32,
                    dst: rng.below(n) as u32,
                });
            }
            6 => {
                ops.push(Op::Timer { at });
            }
            _ => {
                // Bursts of 1–4 sends on one channel, seq-stamped payloads
                // so the tracker can detect loss/dup/reorder downstream.
                for _ in 0..1 + rng.below(4) {
                    let msg = ((ch as u64) << 40) | seqs[ch];
                    seqs[ch] += 1;
                    let size = [64, 1024, 16384][rng.below(3) as usize];
                    ops.push(Op::Send { at, ch, msg, size });
                }
            }
        }
    }
    // Flush every channel that was ever blocked so held messages surface
    // and the conservation accounting below is exact.
    let end = SimTime::from_micros(horizon_ms * 1000 + 1);
    for (ch, was_blocked) in blocked.iter().enumerate() {
        if *was_blocked {
            ops.push(Op::Unblock { at: end, ch });
        }
    }
    Case {
        topo_seed: seed,
        channels,
        ops,
        has_disruption,
    }
}

#[derive(Default)]
struct RunResult {
    /// The rendered audit log, one line per merged occurrence, keys
    /// included (sharded runs only: the serial kernel keeps its keys to
    /// itself).
    log: String,
    /// The same stream without keys — what the serial kernel can be held
    /// to.
    stream: String,
    counters: Vec<(String, u64)>,
    channel_stats: Vec<ChannelStats>,
    link_bytes: Vec<u64>,
    delivered: Vec<(usize, u64)>,
    sent_events: u64,
}

fn run_case(case: &Case, shards: u32, mode: ExecMode) -> RunResult {
    let topo = build_topology(case.topo_seed);
    let link_count = topo.link_count();
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
    let chans: Vec<_> = case
        .channels
        .iter()
        .map(|&(s, d)| k.open_channel(s, d))
        .collect();
    for op in &case.ops {
        match *op {
            Op::Send { at, ch, msg, size } => k.send_at(at, chans[ch], msg, size),
            Op::Timer { at } => {
                let _ = k.set_timer_at(at);
            }
            Op::Fault { at, kind } => k.fault_at(at, kind),
            Op::Block { at, ch } => k.block_channel_at(at, chans[ch]),
            Op::Unblock { at, ch } => k.unblock_channel_at(at, chans[ch]),
            Op::Close { at, ch } => k.close_channel_at(at, chans[ch]),
            Op::Rebind { at, ch, src, dst } => {
                k.rebind_channel_at(at, chans[ch], NodeId(src), NodeId(dst));
            }
        }
    }
    let events = k.drain();
    let stats = k.stats();
    assert_eq!(
        stats.early_crossings, 0,
        "K={shards}: a message crossed an epoch barrier early"
    );
    let mut res = RunResult::default();
    let mut prev = None;
    for e in &events {
        let _ = writeln!(res.log, "{} {} {:?}", e.at, e.key, e.what);
        // The merged stream must be strictly (time, key)-ordered.
        let cur = (e.at, e.key);
        if let Some(p) = prev {
            assert!(p < cur, "merged stream out of order at {} {}", e.at, e.key);
        }
        prev = Some(cur);
        res.record(e.at, &e.what);
    }
    res.counters = rendered(&k.counters());
    res.channel_stats = chans.iter().map(|&ch| k.channel_stats(ch)).collect();
    res.link_bytes = (0..link_count)
        .map(|i| k.link_bytes(LinkId(i as u32)))
        .collect();
    res
}

fn rendered(counters: &Counters) -> Vec<(String, u64)> {
    counters.iter().map(|(n, v)| (n.to_owned(), v)).collect()
}

impl RunResult {
    fn record(&mut self, at: SimTime, what: &Fired<u64>) {
        let _ = writeln!(self.stream, "{at} {what:?}");
        if let Fired::Delivered { msg, .. } = *what {
            self.delivered
                .push(((msg >> 40) as usize, msg & ((1 << 40) - 1)));
        }
        self.sent_events += 1;
    }

    fn assert_same_totals(&self, other: &RunResult, seed: u64, pair: &str) {
        assert_eq!(
            self.counters, other.counters,
            "seed {seed}: {pair} counters diverge"
        );
        assert_eq!(
            self.channel_stats, other.channel_stats,
            "seed {seed}: {pair} per-channel stats diverge"
        );
        assert_eq!(
            self.link_bytes, other.link_bytes,
            "seed {seed}: {pair} per-link byte totals diverge"
        );
    }
}

/// Timer tag of the serial runner's clock-pacing timers (the schedule's
/// own timers get the automatic tags 0, 1, …).
const PACE: u64 = u64::MAX;

/// Runs a time-ordered schedule through the interactive serial `Kernel`.
/// Its commands act at `now`, so before each op a pacing timer carries the
/// clock to the op's time — surfacing, as the sharded kernel does, every
/// event of an earlier command due by then — and a send the kernel refuses
/// is recorded where the sharded stream carries its `at_send` drop.
fn run_serial(case: &Case) -> RunResult {
    let topo = build_topology(case.topo_seed);
    let link_count = topo.link_count();
    let mut k: Kernel<u64> = Kernel::new(topo, case.topo_seed);
    let chans: Vec<ChannelId> = case
        .channels
        .iter()
        .map(|&(s, d)| k.open_channel(s, d))
        .collect();
    let mut res = RunResult::default();
    for op in &case.ops {
        let at = op.at();
        k.set_timer_with_tag(at.saturating_since(k.now()), PACE);
        loop {
            let (t, fired) = k.step().expect("the pacing timer is pending");
            if matches!(fired, Fired::Timer { tag: PACE }) {
                break;
            }
            res.record(t, &fired);
        }
        assert_eq!(k.now(), at);
        match *op {
            Op::Send { ch, msg, size, .. } => {
                if let SendOutcome::Dropped(reason) = k.send(chans[ch], msg, size) {
                    let dropped = Fired::Dropped {
                        channel: chans[ch],
                        msg,
                        reason,
                        at_send: true,
                    };
                    res.record(at, &dropped);
                }
            }
            Op::Timer { .. } => {
                let _ = k.set_timer(SimDuration::ZERO);
            }
            Op::Fault { kind, .. } => {
                let mut sched = FaultSchedule::new();
                sched.at(at, kind);
                k.inject_faults(sched);
            }
            Op::Block { ch, .. } => k.block_channel(chans[ch]),
            Op::Unblock { ch, .. } => k.unblock_channel(chans[ch]),
            Op::Close { ch, .. } => k.close_channel(chans[ch]),
            Op::Rebind { ch, src, dst, .. } => {
                k.rebind_channel(chans[ch], NodeId(src), NodeId(dst));
            }
        }
    }
    while let Some((t, fired)) = k.step() {
        res.record(t, &fired);
    }
    res.counters = rendered(&k.counters());
    res.channel_stats = chans.iter().map(|&ch| k.channel_stats(ch)).collect();
    res.link_bytes = (0..link_count)
        .map(|i| k.topology().link(LinkId(i as u32)).bytes_carried())
        .collect();
    res
}

fn check_case(seed: u64) {
    let case = build_case(seed);
    // The two sharded drivers get the schedule as drawn: issue order and
    // time order are unrelated, which is what `EventKey` has to absorb.
    let inline = run_case(&case, 1, ExecMode::Inline);
    let sharded = run_case(&case, 4, ExecMode::Threads);
    assert_eq!(
        inline.log, sharded.log,
        "seed {seed}: K=1 and K=4 audit logs are not byte-identical"
    );
    inline.assert_same_totals(&sharded, seed, "K=1 and K=4");

    // The interactive kernel acts at `now`, so it is held to the sharded
    // K=1 driver on the same schedule in time order (stable: same-instant
    // ops keep their drawn order).
    let mut in_time_order = case.clone();
    in_time_order.ops.sort_by_key(Op::at);
    let serial = run_serial(&in_time_order);
    let inline_sorted = run_case(&in_time_order, 1, ExecMode::Inline);
    assert_eq!(
        serial.stream, inline_sorted.stream,
        "seed {seed}: serial kernel and sharded K=1 streams are not byte-identical"
    );
    serial.assert_same_totals(&inline_sorted, seed, "serial and K=1");

    // No duplication, ever: each (channel, seq) payload arrives at most
    // once. (A rebind mid-flight may legitimately *reorder* a channel —
    // stragglers on the old route overtaken by sends on a faster new one
    // — so `SeqVerdict::Duplicate`, which also flags late arrivals, is
    // only authoritative on disruption-free schedules below.)
    let mut seen = std::collections::HashSet::new();
    for &(ch, seq) in &sharded.delivered {
        assert!(
            seen.insert((ch, seq)),
            "seed {seed}: payload (ch{ch}, seq {seq}) delivered twice"
        );
    }
    if !case.has_disruption {
        // Without faults/closes/rebinds every flow must be loss-free and
        // perfectly in order per the sequence tracker.
        let mut tracker = SequenceTracker::new();
        let mut flow = String::new();
        for &(ch, seq) in &sharded.delivered {
            use std::fmt::Write as _;
            flow.clear();
            let _ = write!(flow, "ch{ch}");
            let _ = tracker.observe(&flow, seq);
        }
        assert!(
            tracker.is_clean(),
            "seed {seed}: loss or reorder without any fault/close/rebind"
        );
    }
    assert!(
        inline.sent_events > 0 && serial.sent_events > 0,
        "seed {seed}: schedule fired nothing"
    );
}

#[test]
fn sharded_kernel_matches_serial_across_256_schedules() {
    for seed in 0..256 {
        check_case(seed);
    }
}

/// Deep tier: 10× the seeds. Run explicitly (nightly CI):
/// `cargo test -p aas-sim --test shard_determinism -- --ignored`.
#[test]
#[ignore = "deep tier: 2560 seeds, minutes of runtime"]
fn sharded_kernel_matches_serial_deep() {
    for seed in 256..2560 {
        check_case(seed);
    }
}

/// The adversarial scenario factory's compiled trajectories are subject
/// to the same contract as random op schedules: one `ScenarioSchedule`
/// (region-storm link flaps, mobility rebinds and flash-crowd traffic
/// over a generated tiered graph) replayed at K=1 inline and K=4 on real
/// worker threads must drain byte-identically.
#[test]
fn factory_schedule_replays_identically_across_exec_modes() {
    use aas_scenario::{LoadWave, MobilityWave, ScenarioSpec, StormWave};
    use aas_sim::network::RegionId;
    use aas_topo::tiered::TieredSpec;

    for seed in [11u64, 47] {
        let generated = TieredSpec::sized(200).generate(seed);
        let mut spec = ScenarioSpec::new(seed, SimTime::from_secs(10), 4);
        spec.load = LoadWave::flat(25.0).with_flash_crowd(
            SimTime::from_secs(2),
            SimTime::from_secs(5),
            3.0,
            SimDuration::from_millis(500),
        );
        spec.storms = vec![
            StormWave::region_flaps(vec![RegionId(1), RegionId(2)], 3.0, 1.0)
                .with_links_per_region(2),
        ];
        spec.mobility = Some(MobilityWave::new(6, SimDuration::from_millis(500)));
        let schedule = spec.build_generated(&generated);

        let run = |shards: u32, mode: ExecMode| {
            let topo = TieredSpec::sized(200).generate(seed).topology;
            let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
            let applied = schedule.apply_to_kernel(&mut k, 1024);
            assert!(applied.sent > 0, "seed {seed}: schedule carries no traffic");
            assert!(
                applied.faults > 0,
                "seed {seed}: schedule carries no faults"
            );
            assert!(
                applied.rebinds > 0,
                "seed {seed}: schedule carries no churn"
            );
            let events = k.drain();
            let stats = k.stats();
            assert_eq!(stats.early_crossings, 0, "K={shards}: early crossing");
            let mut log = String::new();
            for e in &events {
                use std::fmt::Write as _;
                let _ = writeln!(log, "{} {} {:?}", e.at, e.key, e.what);
            }
            let counters: Vec<(String, u64)> = k
                .counters()
                .iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect();
            (log, counters)
        };
        let (serial_log, serial_counters) = run(1, ExecMode::Inline);
        let (sharded_log, sharded_counters) = run(4, ExecMode::Threads);
        assert_eq!(
            serial_log, sharded_log,
            "seed {seed}: factory replay diverged across exec modes"
        );
        assert_eq!(
            serial_counters, sharded_counters,
            "seed {seed}: kernel counters diverge"
        );
        assert!(!serial_log.is_empty(), "seed {seed}: replay fired nothing");
    }
}

/// K is a free parameter, not just 4: spot-check 2, 3 and 8 shards on a
/// subset of seeds.
#[test]
fn shard_count_is_a_free_parameter() {
    for seed in [3, 17, 40, 101] {
        let case = build_case(seed);
        let reference = run_case(&case, 1, ExecMode::Inline);
        for k in [2, 3, 8] {
            let other = run_case(&case, k, ExecMode::Inline);
            assert_eq!(
                reference.log, other.log,
                "seed {seed}: K={k} diverges from K=1"
            );
            assert_eq!(reference.counters, other.counters);
        }
    }
}
