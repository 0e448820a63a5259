//! Differential determinism harness for kernel forking.
//!
//! The snapshot-and-fork contract (`Kernel::fork`) is what the
//! digital-twin layer in `aas-core` stands on, so it gets the strongest
//! check we can write:
//!
//! 1. **Byte-identical replay** — run a seeded random schedule to a
//!    midpoint, fork, then feed the *identical* remaining script to the
//!    mainline and the fork. The rendered occurrence streams, counters,
//!    channel stats and subsequent RNG draws must match byte for byte,
//!    across ≥128 seeds (the deep tier runs 10×).
//! 2. **Inertness** — taking a fork, even stepping it forward, then
//!    dropping it must leave the mainline's stream, counters and RNG
//!    stream exactly as if the fork never existed.

use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::kernel::Kernel;
use aas_sim::network::Topology;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

const NODES: u64 = 6;

fn topology(seed: u64) -> Topology {
    let mut rng = SimRng::seed_from(seed ^ 0xF0_4C);
    let lat = SimDuration::from_millis(1 + rng.below(4));
    Topology::clique(NODES as usize, 100.0, lat, 1e7)
}

/// One scripted caller action against a serial kernel. The script is the
/// "identical inputs" of the fork contract: applying the same ops to a
/// mainline and its fork must produce byte-identical observations.
#[derive(Debug, Clone)]
enum Op {
    Send { ch: usize, msg: u64, size: u64 },
    Timer { delay_us: u64 },
    Block { ch: usize },
    Unblock { ch: usize },
    Steps { n: u32 },
    RngDraw,
}

struct Case {
    seed: u64,
    channels: Vec<(NodeId, NodeId)>,
    faults: Vec<(SimTime, FaultKind)>,
    first: Vec<Op>,
    second: Vec<Op>,
}

fn build_case(seed: u64) -> Case {
    let mut rng = SimRng::seed_from(seed ^ 0xD1FF);
    let mut channels = Vec::new();
    for _ in 0..3 + rng.below(3) {
        channels.push((
            NodeId(rng.below(NODES) as u32),
            NodeId(rng.below(NODES) as u32),
        ));
    }
    let mut faults = Vec::new();
    for _ in 0..rng.below(4) {
        let node = NodeId(rng.below(NODES) as u32);
        let kind = if rng.chance(0.5) {
            FaultKind::NodeCrash(node)
        } else {
            FaultKind::NodeRecover(node)
        };
        faults.push((SimTime::from_micros(rng.below(120_000)), kind));
    }
    let first_count = 25 + rng.below(25);
    let second_count = 25 + rng.below(25);
    let mut ops = |count: u64, seqs: &mut Vec<u64>| {
        let mut v = Vec::new();
        for _ in 0..count {
            let ch = rng.below(channels.len() as u64) as usize;
            match rng.below(12) {
                0 => v.push(Op::Block { ch }),
                1 => v.push(Op::Unblock { ch }),
                2 => v.push(Op::Timer {
                    delay_us: 100 + rng.below(20_000),
                }),
                3 => v.push(Op::RngDraw),
                4..=6 => v.push(Op::Steps {
                    n: 1 + rng.below(6) as u32,
                }),
                _ => {
                    let msg = ((ch as u64) << 40) | seqs[ch];
                    seqs[ch] += 1;
                    v.push(Op::Send {
                        ch,
                        msg,
                        size: [64, 1024, 16384][rng.below(3) as usize],
                    });
                }
            }
        }
        // Surface held messages and drain fully so every case ends at a
        // quiescent point with exact conservation accounting.
        for ch in 0..channels.len() {
            v.push(Op::Unblock { ch });
        }
        v.push(Op::Steps { n: u32::MAX });
        v
    };
    let mut seqs = vec![0u64; channels.len()];
    let first = ops(first_count, &mut seqs);
    let second = ops(second_count, &mut seqs);
    Case {
        seed,
        channels,
        faults,
        first,
        second,
    }
}

fn fresh_kernel(case: &Case) -> (Kernel<u64>, Vec<aas_sim::ChannelId>) {
    let mut k: Kernel<u64> = Kernel::new(topology(case.seed), case.seed ^ 0x5EED);
    let chans: Vec<_> = case
        .channels
        .iter()
        .map(|&(s, d)| k.open_channel(s, d))
        .collect();
    let mut sched = FaultSchedule::new();
    for &(at, kind) in &case.faults {
        sched.at(at, kind);
    }
    k.inject_faults(sched);
    (k, chans)
}

/// Applies `ops`, rendering every observable outcome (send outcomes,
/// fired events, RNG draws) into `log`.
fn apply_ops(k: &mut Kernel<u64>, chans: &[aas_sim::ChannelId], ops: &[Op], log: &mut String) {
    for op in ops {
        match *op {
            Op::Send { ch, msg, size } => {
                let out = k.send(chans[ch], msg, size);
                let _ = writeln!(log, "send ch{ch} msg{msg} {out:?}");
            }
            Op::Timer { delay_us } => {
                let tag = k.set_timer(SimDuration::from_micros(delay_us));
                let _ = writeln!(log, "timer tag{tag} +{delay_us}us");
            }
            Op::Block { ch } => k.block_channel(chans[ch]),
            Op::Unblock { ch } => k.unblock_channel(chans[ch]),
            Op::Steps { n } => {
                for _ in 0..n {
                    match k.step() {
                        Some((at, fired)) => {
                            let _ = writeln!(log, "{at} {fired:?}");
                        }
                        None => break,
                    }
                }
            }
            Op::RngDraw => {
                let _ = writeln!(log, "rng {}", k.rng().below(1 << 30));
            }
        }
    }
}

/// Every observable facet of a kernel, rendered for byte comparison.
fn observe(k: &mut Kernel<u64>, chans: &[aas_sim::ChannelId]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "now {}", k.now());
    for (name, v) in k.counters().iter() {
        let _ = writeln!(s, "counter {name} {v}");
    }
    for &ch in chans {
        let _ = writeln!(
            s,
            "chan {ch:?} {:?} {:?}",
            k.channel_endpoints(ch),
            k.channel_stats(ch)
        );
    }
    // Three post-hoc draws prove the RNG stream position matches too.
    for _ in 0..3 {
        let _ = writeln!(s, "rng {}", k.rng().below(1 << 30));
    }
    s
}

fn check_fork_replay(seed: u64) {
    let case = build_case(seed);

    let (mut main, chans) = fresh_kernel(&case);
    let mut pre = String::new();
    apply_ops(&mut main, &chans, &case.first, &mut pre);

    let mut fork = main.fork();

    // Identical remaining inputs into both sides.
    let mut main_log = String::new();
    let mut fork_log = String::new();
    apply_ops(&mut main, &chans, &case.second, &mut main_log);
    apply_ops(&mut fork, &chans, &case.second, &mut fork_log);
    main_log.push_str(&observe(&mut main, &chans));
    fork_log.push_str(&observe(&mut fork, &chans));

    assert_eq!(
        main_log, fork_log,
        "seed {seed}: fork fed identical inputs diverged from mainline"
    );
    assert!(
        !main_log.is_empty(),
        "seed {seed}: schedule observed nothing"
    );
}

fn check_fork_inertness(seed: u64) {
    let case = build_case(seed);

    // Reference: no fork ever taken.
    let (mut a, chans_a) = fresh_kernel(&case);
    let mut log_a = String::new();
    apply_ops(&mut a, &chans_a, &case.first, &mut log_a);
    apply_ops(&mut a, &chans_a, &case.second, &mut log_a);
    log_a.push_str(&observe(&mut a, &chans_a));

    // Same schedule, but a fork is taken at the midpoint, stepped forward
    // through the rest of the script, and dropped.
    let (mut b, chans_b) = fresh_kernel(&case);
    let mut log_b = String::new();
    apply_ops(&mut b, &chans_b, &case.first, &mut log_b);
    {
        let mut fork = b.fork();
        let mut scratch = String::new();
        apply_ops(&mut fork, &chans_b, &case.second, &mut scratch);
        // fork dropped here
    }
    apply_ops(&mut b, &chans_b, &case.second, &mut log_b);
    log_b.push_str(&observe(&mut b, &chans_b));

    assert_eq!(
        log_a, log_b,
        "seed {seed}: taking/stepping/dropping a fork perturbed the mainline"
    );
}

#[test]
fn fork_replays_byte_identically_across_128_schedules() {
    for seed in 0..128 {
        check_fork_replay(seed);
    }
}

#[test]
fn dropped_fork_never_perturbs_mainline() {
    for seed in 0..128 {
        check_fork_inertness(seed);
    }
}

/// Deep tier: 10× the seeds. Run explicitly (nightly CI):
/// `cargo test -p aas-sim --test fork_determinism -- --ignored`.
#[test]
#[ignore = "deep tier: 1280 seeds, minutes of runtime"]
fn fork_replay_and_inertness_deep() {
    for seed in 128..1280 {
        check_fork_replay(seed);
        check_fork_inertness(seed);
    }
}
