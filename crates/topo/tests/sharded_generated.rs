//! Sharded-vs-serial determinism on *generated* 1k-node graphs: the
//! sharded kernel's merged occurrence stream must be byte-identical
//! between K=1 inline and K=4 threads when driving traffic over each
//! generator family's output — with and without hierarchical routing.

use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::FaultKind;
use aas_sim::link::LinkId;
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::SimTime;
use aas_sim::Topology;
use aas_topo::motif::MotifSpec;
use aas_topo::scale_free::ScaleFreeSpec;
use aas_topo::tiered::TieredSpec;

fn generate(family: &str, seed: u64) -> Topology {
    match family {
        "tiered" => TieredSpec::sized(1000).generate(seed).topology,
        "scale_free" => ScaleFreeSpec::sized(1000).generate(seed).topology,
        "motif" => MotifSpec::sized(1000).generate(seed).topology,
        other => panic!("unknown family {other}"),
    }
}

struct Schedule {
    channels: Vec<(NodeId, NodeId)>,
    sends: Vec<(SimTime, usize, u64, u64)>,
    faults: Vec<(SimTime, FaultKind)>,
}

fn build_schedule(topo: &Topology, seed: u64) -> Schedule {
    let mut rng = SimRng::seed_from(seed ^ 0x5C4ED);
    let n = topo.node_count() as u64;
    let m = topo.link_count() as u64;
    let channels: Vec<(NodeId, NodeId)> = (0..24)
        .map(|_| (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32)))
        .collect();
    let mut sends = Vec::new();
    let mut faults = Vec::new();
    for i in 0..600 {
        let at = SimTime::from_micros(rng.below(200_000));
        if i % 40 == 39 {
            let link = LinkId(rng.below(m) as u32);
            let kind = if rng.chance(0.5) {
                FaultKind::LinkDown(link)
            } else {
                FaultKind::LinkUp(link)
            };
            faults.push((at, kind));
        } else {
            let ch = rng.below(channels.len() as u64) as usize;
            let size = [64, 1024, 8192][rng.below(3) as usize];
            sends.push((at, ch, i, size));
        }
    }
    Schedule {
        channels,
        sends,
        faults,
    }
}

fn run(
    family: &str,
    topo_seed: u64,
    schedule: &Schedule,
    shards: u32,
    mode: ExecMode,
    hier: bool,
) -> (String, Vec<(String, u64)>) {
    let topo = generate(family, topo_seed);
    let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
    if hier {
        k.enable_hier_routing();
    }
    let chans: Vec<_> = schedule
        .channels
        .iter()
        .map(|&(s, d)| k.open_channel(s, d))
        .collect();
    for &(at, ch, msg, size) in &schedule.sends {
        k.send_at(at, chans[ch], msg, size);
    }
    for &(at, kind) in &schedule.faults {
        k.fault_at(at, kind);
    }
    let events = k.drain();
    let stats = k.stats();
    assert_eq!(stats.early_crossings, 0, "{family}: early barrier crossing");
    let mut log = String::new();
    for e in &events {
        use std::fmt::Write as _;
        let _ = writeln!(log, "{} {} {:?}", e.at, e.key, e.what);
    }
    let counters = k
        .counters()
        .iter()
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    (log, counters)
}

fn check(family: &str, hier: bool) {
    for seed in [2, 11] {
        let topo = generate(family, seed);
        let schedule = build_schedule(&topo, seed);
        let serial = run(family, seed, &schedule, 1, ExecMode::Inline, hier);
        let sharded = run(family, seed, &schedule, 4, ExecMode::Threads, hier);
        assert_eq!(
            serial.0, sharded.0,
            "{family}/{seed} (hier={hier}): K=1 and K=4 logs differ"
        );
        assert_eq!(
            serial.1, sharded.1,
            "{family}/{seed} (hier={hier}): counters differ"
        );
        assert!(!serial.0.is_empty(), "{family}/{seed}: nothing fired");
    }
}

#[test]
fn tiered_1k_is_shard_deterministic() {
    check("tiered", false);
}

#[test]
fn scale_free_1k_is_shard_deterministic() {
    check("scale_free", false);
}

#[test]
fn motif_1k_is_shard_deterministic() {
    check("motif", false);
}

#[test]
fn tiered_1k_is_shard_deterministic_with_hier_routing() {
    check("tiered", true);
}

#[test]
fn scale_free_1k_is_shard_deterministic_with_hier_routing() {
    check("scale_free", true);
}
