//! The kernel grid — one measurement of `aas-sim`'s event engine. E14 is
//! its `driver = serial` rows, E15 and E19 its `driver = sharded` rows.
//!
//! The paper's vision of dynamic, adaptive systems presumes a substrate
//! cheap enough to interpose on every interaction and able to scale past
//! one core without giving up determinism. The grid drives the same
//! traffic — messages round-robined over 128 random pairs, alternating
//! 256 B / 4 kB — over a dense 16-node clique and a sparse 64-node
//! ring-with-chords, steady and under a crash/flap storm, through every
//! driver of the one shard core:
//!
//! * **serial** — the interactive [`Kernel`]: one send and one step per
//!   message (E14: the epoch-invalidated route cache on the hot path;
//!   storm cells flush it on every flap, so their hit ratio bounds the
//!   cost of epoch-granularity invalidation).
//! * **serial-preloaded** — the same [`Kernel`] given the sharded cells'
//!   own schedule up front, one timer per message at the 1 µs cadence,
//!   each firing one send, then stepped dry: the like-for-like row that
//!   splits "serial is N× faster than sharded K = 1" into heap depth
//!   (serial → serial-preloaded) and driver overhead (serial-preloaded →
//!   sharded K = 1 inline).
//! * **sharded, K ∈ {1, 2, 4, 8}** — [`ShardedKernel`] fed the schedule
//!   at a 1 µs cadence and drained (K = 1 inline, K > 1 on worker
//!   threads): E15's scaling (modeled events/s = events ÷ (critical
//!   path + serial time), what a K-core host would see, beside wall
//!   events/s on this host; in storm cells every fault is a serialized
//!   sync step between the sends, so they bound the cost of
//!   barrier-heavy churn) and E19's coordination cost (barriers per run,
//!   barrier ns per window, events per window, exchange ops).
//!
//! Two things are asserted in every run: no cross-shard message arrives
//! inside the window that produced it (`early_crossings == 0`); and the
//! serial-preloaded row's events, cache hit ratio and invalidations equal
//! the sharded K = 1 row's — two drivers of one shard core, fed one
//! schedule, must do the same work. The exact `windows` column is held by
//! `cargo bench -p aas-bench -- check`.

use crate::table::{ex, timed, Col, Table, Tier, Value};
use aas_sim::coordinator::{ExecMode, ShardedKernel, ShardedStats};
use aas_sim::fault::{FaultProcess, FaultSchedule};
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::link::{LinkId, LinkSpec};
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use std::time::Instant;

const SEED: u64 = 1901;
/// The two message sizes interleaved by the workload; distinct sizes are
/// distinct route-cache keys.
const SIZES: [u64; 2] = [256, 4096];
/// Concurrent channel pairs per workload.
const PAIRS: usize = 128;
/// Shard counts of the sharded driver.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Which driver of the shard core runs a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The interactive serial [`Kernel`].
    Serial,
    /// The serial [`Kernel`] fed the sharded driver's schedule up front.
    SerialPreloaded,
    /// [`ShardedKernel`] at K shards.
    Sharded(u32),
}

/// Messages per cell. The smoke count still spans ~30 lookaheads, so the
/// geometric widening reaches steady state.
fn msgs(tier: Tier) -> u64 {
    match tier {
        Tier::Smoke => 30_000,
        Tier::Default | Tier::Full => 100_000,
    }
}

/// Dense workload: every pair one hop apart, routing trivially cheap —
/// isolates the per-event bookkeeping cost.
fn clique16() -> Topology {
    Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7)
}

/// Sparse workload: 64-node ring with `i → i+8` chords — multi-hop
/// routes, so each cache miss pays a real Dijkstra.
fn sparse64() -> Topology {
    let mut topo = Topology::new();
    let ids: Vec<NodeId> = (0..64)
        .map(|i| topo.add_node(NodeSpec::new(format!("s{i}"), 100.0)))
        .collect();
    for (stride, latency_ms) in [(1, 2), (8, 5)] {
        for i in 0..64usize {
            let latency = SimDuration::from_millis(latency_ms);
            topo.add_link(LinkSpec::new(ids[i], ids[(i + stride) % 64], latency, 1e7));
        }
    }
    topo
}

fn pairs_for(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = topo.node_count() as u64;
    let mut rng = SimRng::seed_from(seed);
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let a = NodeId(rng.below(n) as u32);
        let b = NodeId(rng.below(n) as u32);
        if a != b {
            pairs.push((a, b));
        }
    }
    pairs
}

/// Four node-crash and four link-flap renewal processes lasting as long
/// as the driver's traffic: the serial driver advances one delivery
/// latency per message, minutes in all, and meets outages whose mean
/// times are seconds over an hour; the preloaded schedule (sharded or
/// serial) sends `msgs` messages a microsecond apart, so its outages are
/// the same processes in milliseconds, stopping with the last send.
fn storm(link_count: usize, driver: Driver, msgs: u64) -> FaultSchedule {
    let (unit, horizon) = match driver {
        Driver::Serial => (1.0, SimTime::from_secs(3600)),
        Driver::SerialPreloaded | Driver::Sharded(..) => (1e-3, SimTime::from_micros(msgs)),
    };
    let mut storm = FaultProcess::new();
    for n in 0..4u32 {
        storm = storm.crash_node(NodeId(n * 3 + 1), 2.0 * unit, 0.5 * unit);
    }
    for l in 0..4usize {
        let link = LinkId((l * (link_count / 4)) as u32);
        storm = storm.flap_link(link, 1.5 * unit, 0.4 * unit);
    }
    storm.generate(horizon, &mut SimRng::seed_from(SEED ^ 0xfa))
}

/// One trial's reading of a cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Kernel events processed (serial: sends + steps; serial-preloaded:
    /// steps but for the faults, which the sharded driver's count leaves
    /// out as sync steps).
    pub events: u64,
    /// Route-cache hit ratio in percent, and whole-cache invalidations.
    pub cache: (f64, u64),
    /// Wall-clock events per second on this host.
    pub wall_events_per_sec: f64,
    /// What only the sharded driver has: its statistics after the drain.
    pub sharded: Option<ShardedStats>,
}

/// Runs one cell once.
///
/// # Panics
///
/// Panics on an unknown workload or an early barrier crossing.
#[must_use]
pub fn run_cell(workload: &str, faults: bool, driver: Driver, msgs: u64) -> Cell {
    let topo = match workload {
        "clique16" => clique16(),
        "sparse64" => sparse64(),
        other => panic!("unknown workload `{other}`"),
    };
    let schedule = faults.then(|| storm(topo.link_count(), driver, msgs));
    let pairs = pairs_for(&topo, PAIRS, SEED ^ 0x5eed);
    let pick = |i: u64| ((i % PAIRS as u64) as usize, SIZES[(i % 2) as usize]);
    match driver {
        Driver::Serial | Driver::SerialPreloaded => {
            let mut k: Kernel<u64> = Kernel::new(topo, SEED);
            let chs: Vec<_> = pairs.iter().map(|&(a, b)| k.open_channel(a, b)).collect();
            if let Some(schedule) = schedule {
                k.inject_faults(schedule);
            }
            let (t0, events) = if driver == Driver::Serial {
                let t0 = Instant::now();
                let mut events = msgs;
                for i in 0..msgs {
                    let (ch, size) = pick(i);
                    k.send(chs[ch], i, size);
                    events += u64::from(k.step().is_some());
                }
                while k.step().is_some() {
                    events += 1;
                }
                (t0, events)
            } else {
                for i in 0..msgs {
                    k.set_timer_with_tag(SimDuration::from_micros(i), i);
                }
                let t0 = Instant::now();
                let mut events = 0;
                while let Some((_, fired)) = k.step() {
                    if let Fired::Timer { tag } = fired {
                        let (ch, size) = pick(tag);
                        k.send(chs[ch], tag, size);
                    }
                    events += u64::from(!matches!(fired, Fired::Fault(_)));
                }
                (t0, events)
            };
            let secs = t0.elapsed().as_secs_f64();
            let cache = k.route_cache_stats();
            Cell {
                events,
                cache: (cache.hit_ratio() * 100.0, cache.invalidations),
                wall_events_per_sec: events as f64 / secs,
                sharded: None,
            }
        }
        Driver::Sharded(shards) => {
            let mode = if shards == 1 {
                ExecMode::Inline
            } else {
                ExecMode::Threads
            };
            let mut k: ShardedKernel<u64> = ShardedKernel::with_mode(topo, shards, mode);
            let chs: Vec<_> = pairs.iter().map(|&(a, b)| k.open_channel(a, b)).collect();
            if let Some(schedule) = schedule {
                k.inject_faults(schedule);
            }
            for i in 0..msgs {
                let (ch, size) = pick(i);
                k.send_at(SimTime::from_micros(i), chs[ch], i, size);
            }
            let t0 = Instant::now();
            drop(k.drain());
            let secs = t0.elapsed().as_secs_f64();
            let stats = k.stats();
            assert_eq!(stats.early_crossings, 0, "safety violated during bench");
            let cache = k.route_cache_stats();
            Cell {
                events: stats.events,
                cache: (cache.hit_ratio() * 100.0, cache.invalidations),
                wall_events_per_sec: stats.events as f64 / secs,
                sharded: Some(stats),
            }
        }
    }
}

fn row(workload: &str, faults: bool, driver: Driver, c: &Cell) -> Vec<Value> {
    let mut row = vec![ex(workload), ex(if faults { "storm" } else { "none" })];
    match driver {
        Driver::Serial => row.extend([ex("serial"), Value::Na]),
        Driver::SerialPreloaded => row.extend([ex("serial-preloaded"), Value::Na]),
        Driver::Sharded(k) => row.extend([ex("sharded"), ex(k)]),
    }
    row.extend([ex(c.events), ex(format!("{:.2}", c.cache.0)), ex(c.cache.1)]);
    match &c.sharded {
        None => row.extend(std::iter::repeat_n(Value::Na, 7)),
        Some(s) => row.extend([
            ex(s.windows),
            ex(s.subrounds),
            ex(s.widened_windows),
            ex(s.sync_steps),
            ex(s.exchanged),
            ex(s.exchange_ops),
            ex(format!("{:.1}", s.events as f64 / s.windows.max(1) as f64)),
        ]),
    }
    let sharded = |f: fn(ShardedStats) -> f64| c.sharded.map_or(Value::Na, |s| timed(f(s), 0));
    row.extend([
        sharded(|s| s.modeled_events_per_sec()),
        Value::Na, // speedup: filled in by `grid` once the group's base row exists
        timed(c.wall_events_per_sec, 0),
        sharded(|s| s.barrier_ns as f64 / s.windows.max(1) as f64),
    ]);
    row
}

/// The whole grid: the artifact `BENCH_kernel.json`. The smoke tier
/// covers clique16 steady on both serial drivers and K ∈ {1, 4}; the
/// other tiers run {clique16, sparse64} × {steady, storm} × {serial,
/// serial-preloaded, K ∈ {1, 2, 4, 8}}.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let msgs = msgs(tier);
    let mut table = Table::new(
        "kernel",
        tier,
        format!(
            "Kernel grid: one event engine, every driver ({msgs} msgs over {PAIRS} pairs, \
             sizes {SIZES:?}, seed {SEED}; speedup = modeled ev/s over the group's K=1 row)"
        ),
        [
            crate::table::exact(&[
                "workload",
                "faults",
                "driver",
                "K",
                "events",
                "cache-hit(%)",
                "invalidations",
                "windows",
                "subrounds",
                "widened",
                "sync steps",
                "exchanged",
                "exch ops",
                "ev/window",
            ]),
            vec![
                Col::Timed("modeled ev/s"),
                Col::Timed("speedup"),
                Col::Timed("wall ev/s"),
                Col::Timed("ns/window"),
            ],
        ]
        .concat(),
    );
    let (workloads, fault_modes, shard_counts): (&[&str], &[bool], &[u32]) = match tier {
        Tier::Smoke => (&["clique16"], &[false], &[1, 4]),
        Tier::Default | Tier::Full => (&["clique16", "sparse64"], &[false, true], &SHARD_COUNTS),
    };
    let drivers: Vec<Driver> = [Driver::Serial, Driver::SerialPreloaded]
        .into_iter()
        .chain(shard_counts.iter().map(|&k| Driver::Sharded(k)))
        .collect();
    let modeled = (table.columns.iter())
        .position(|c| c.name() == "modeled ev/s")
        .expect("column");
    for &workload in workloads {
        for &faults in fault_modes {
            // The group's first modeled figure: its K=1 row.
            let mut base = None;
            // The group's serial-preloaded row, which its K=1 row must
            // equal in work done.
            let mut preloaded = None;
            for &driver in &drivers {
                table.trials(|| {
                    let cell = run_cell(workload, faults, driver, msgs);
                    row(workload, faults, driver, &cell)
                });
                let this = table.rows.last_mut().expect("just pushed");
                if let Value::Timed(m) = &this[modeled] {
                    let base = base.get_or_insert_with(|| m.clone());
                    this[modeled + 1] = Value::Timed(m.ratio(base, 2));
                }
                let this = table.rows.len() - 1;
                match (driver, preloaded) {
                    (Driver::SerialPreloaded, _) => preloaded = Some(this),
                    (Driver::Sharded(1), Some(serial)) => {
                        for name in ["events", "cache-hit(%)", "invalidations"] {
                            assert_eq!(
                                table.exact(serial, name),
                                table.exact(this, name),
                                "{workload} faults={faults}: serial-preloaded `{name}` \
                                 differs from {driver:?}'s"
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_steady_cells_hit_the_cache_and_never_invalidate() {
        for workload in ["clique16", "sparse64"] {
            let c = run_cell(workload, false, Driver::Serial, 4_000);
            assert_eq!(c.events, 8_000, "every send delivered");
            assert_eq!(c.cache.1, 0, "{workload}: no mutation, no flush");
            assert!(c.cache.0 > 90.0, "{workload}: hit ratio {}", c.cache.0);
        }
    }

    #[test]
    fn serial_storm_cells_invalidate_but_still_deliver() {
        let c = run_cell("clique16", true, Driver::Serial, 4_000);
        assert!(c.cache.1 > 0, "storm must flush the cache");
        assert!(c.events > 4_000, "deliveries besides the sends");
    }

    #[test]
    fn event_counts_are_shard_invariant() {
        // The same schedule must process the same virtual events at any
        // K — only wall/modeled time may differ.
        let c1 = run_cell("clique16", false, Driver::Sharded(1), 3_000);
        let c4 = run_cell("clique16", false, Driver::Sharded(4), 3_000);
        assert_eq!(c1.events, c4.events);
        let s4 = c4.sharded.expect("sharded");
        assert!(s4.exchanged > 0, "K=4 clique must exchange across shards");
        assert!(s4.modeled_events_per_sec() > 0.0);
        assert!(c4.wall_events_per_sec > 0.0);
    }

    #[test]
    fn windows_widen_and_batch_the_exchange() {
        let c = run_cell("clique16", false, Driver::Sharded(4), 30_000);
        let s = c.sharded.expect("sharded");
        assert!(s.widened_windows > 0);
        assert!(s.subrounds >= s.windows);
        assert!(
            s.exchanged > 0 && s.exchange_ops < s.exchanged,
            "batches must carry more than one entry on average: {} ops for {} entries",
            s.exchange_ops,
            s.exchanged
        );
    }

    #[test]
    fn sharded_storm_cells_run_sync_steps_while_traffic_is_in_flight() {
        for workload in ["clique16", "sparse64"] {
            let steady = run_cell(workload, false, Driver::Sharded(1), 10_000);
            let storm = |k| {
                let c = run_cell(workload, true, Driver::Sharded(k), 10_000);
                (c.events, c.sharded.expect("sharded"))
            };
            let (events, s1) = storm(1);
            assert!(s1.sync_steps > 0, "{workload}: every fault is a sync step");
            assert!(
                events < steady.events,
                "{workload}: crashes must cost deliveries, {events} of {}",
                steady.events
            );
            assert!(
                s1.windows > steady.sharded.expect("sharded").windows,
                "{workload}: faults between sends must split the drain"
            );
            // Fault semantics are K-independent.
            let (events4, s4) = storm(4);
            assert_eq!((events4, s4.sync_steps), (events, s1.sync_steps));
        }
    }

    #[test]
    fn the_serial_kernel_fed_the_sharded_schedule_does_the_sharded_work() {
        for (workload, faults) in [("clique16", true), ("sparse64", true), ("sparse64", false)] {
            let serial = run_cell(workload, faults, Driver::SerialPreloaded, 10_000);
            let sharded = run_cell(workload, faults, Driver::Sharded(1), 10_000);
            assert_eq!(
                (serial.events, serial.cache),
                (sharded.events, sharded.cache),
                "{workload} faults={faults}"
            );
            assert_eq!(serial.cache.1 > 0, faults, "{workload}: flushes iff storm");
        }
    }

    #[test]
    fn the_smoke_grid_has_one_row_per_driver() {
        let t = run(Tier::Smoke);
        let drivers: Vec<String> = (0..t.rows.len())
            .map(|i| format!("{} {}", t.exact(i, "driver"), t.rows[i][3]))
            .collect();
        assert_eq!(
            drivers,
            ["serial -", "serial-preloaded -", "sharded 1", "sharded 4"]
        );
    }
}
