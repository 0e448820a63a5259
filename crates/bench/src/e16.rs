//! E16 — planet-scale routing: flat epoch-flush vs hierarchical partial
//! invalidation on generated tiered networks.
//!
//! The grid drives ~1M telecom sessions (hot-pair pools over the edge
//! tier, diurnal-modulated arrivals from `aas-telecom`'s planet wiring,
//! mobility rebinds, and a link-outage storm) across 1k- and 10k-node
//! tiered topologies from `aas-topo`, once per router:
//!
//! * **flat** — the E14 [`RouteCache`](aas_sim::network::RouteCache):
//!   one global routing epoch, every flap flushes the whole cache and
//!   every active pair re-runs a whole-graph Dijkstra.
//! * **hier** — the [`HierRouter`](aas_sim::hier::HierRouter): region
//!   border cliques, a destination-rooted resumable multilevel search,
//!   and partial invalidation that only evicts routes crossing a flapped
//!   region.
//!
//! Reported per cell: sessions/s (wall), p99 delivery latency (virtual),
//! full-graph recomputations and settled-node totals (the honest
//! Dijkstra-work metric, comparable across both routers), and both
//! normalized per flap. The ≥10× recompute separation at 10k nodes is
//! pinned by `crates/topo/tests/storm_ratio.rs`; this experiment records
//! the numbers in `BENCH_e16.json`.
//!
//! Tiers: `smoke` runs 10k sessions per cell on the 1k/10k-node grid;
//! the default tier 250k sessions (~1M over the grid); `full` is the
//! nightly scale — the 50k-node cells added, at the smoke session count.

use crate::table::{ex, exact, timed, Col, Table, Tier};
use aas_obs::Histogram;
use aas_sim::coordinator::{ExecMode, ShardedKernel};
use aas_sim::fault::FaultKind;
use aas_sim::kernel::Fired;
use aas_sim::link::LinkId;
use aas_sim::network::RegionId;
use aas_sim::time::{SimDuration, SimTime};
use aas_telecom::planet::{plan_sessions, PlanetEvent, PlanetLoadSpec, PlanetMobility, TierCells};
use aas_topo::tiered::TieredSpec;
use std::time::Instant;

const SEED: u64 = 1601;
/// Per-session message size (one media-setup exchange).
const MSG_SIZE: u64 = 2048;
/// Hot `(src, dst)` pool size.
const HOT_PAIRS: usize = 256;
/// Link outages in the storm (each is a down-flap plus a recovery).
const OUTAGES: usize = 24;
/// Virtual horizon the sessions are planned over.
const HORIZON: SimTime = SimTime::from_secs(600);

/// Node-count grid and sessions per cell of a tier.
fn grid(tier: Tier) -> (&'static [u32], u64) {
    match tier {
        Tier::Smoke => (&[1_000, 10_000], 10_000),
        Tier::Default => (&[1_000, 10_000], 250_000),
        Tier::Full => (&[1_000, 10_000, 50_000], 10_000),
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Node count of the generated tiered network.
    pub nodes: u32,
    /// `"flat"` or `"hier"`.
    pub router: &'static str,
    /// Sessions started.
    pub sessions: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Liveness flaps applied (downs + recoveries).
    pub flaps: u64,
    /// Mobility rebinds applied.
    pub rebinds: u64,
    /// p99 end-to-end delivery latency, virtual milliseconds.
    pub p99_ms: f64,
    /// Sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Whole-graph Dijkstra runs (flat cache misses; hier flat
    /// fallbacks — zero on fully regioned topologies).
    pub full_recomputes: u64,
    /// Route searches started (flat: one per miss; hier: multilevel
    /// searches, which a miss to the live search's destination resumes
    /// instead of starting).
    pub searches: u64,
    /// Dijkstra-settled nodes across all searches — the honest work
    /// metric, directly comparable between routers.
    pub settled: u64,
    /// Settled nodes per flap.
    pub settled_per_flap: f64,
}

/// Runs one cell: a tiered network of `nodes`, ~`sessions` planned
/// sessions over a hot pool, a link-outage storm, mobility rebinds, and
/// one router driving every send.
///
/// # Panics
///
/// Panics if the generated storm cannot find enough metro-interior
/// links (generator regression) or the drain violates kernel safety.
#[must_use]
pub fn run_cell(nodes: u32, hier: bool, sessions: u64) -> Cell {
    let generated = TieredSpec::sized(nodes).generate(SEED);
    let cells = TierCells::new(&generated, 8_000.0, 8_000.0, 8, 8);
    let spec = PlanetLoadSpec {
        base_rate: sessions as f64 / 600.0,
        mean_session: SimDuration::from_secs(45),
        hot_pairs: HOT_PAIRS,
        diurnal: Some((SimDuration::from_secs(300), 0.5)),
        flash_crowd: Some((
            SimTime::from_secs(200),
            SimTime::from_secs(260),
            3.0,
            SimDuration::from_secs(10),
        )),
    };
    let plan = plan_sessions(&generated, &spec, HORIZON, SEED ^ 0x10ad);

    // Storm: distinct metro-interior links (evenly spaced over the
    // candidates so outages spread across regions), each down for 20 s.
    let storm: Vec<LinkId> = {
        let topo = &generated.topology;
        let candidates: Vec<LinkId> = topo
            .links()
            .enumerate()
            .filter(|(_, link)| {
                let spec = link.spec();
                let (ra, rb) = (topo.region_of(spec.a), topo.region_of(spec.b));
                ra == rb && ra != Some(RegionId(0))
            })
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        assert!(
            candidates.len() >= OUTAGES,
            "not enough metro-interior links"
        );
        (0..OUTAGES)
            .map(|i| candidates[i * candidates.len() / OUTAGES])
            .collect()
    };

    let mut mobility = PlanetMobility::new(cells, 64, 15.0, 30.0, SEED ^ 0x0b);

    let mut k: ShardedKernel<u64> =
        ShardedKernel::with_mode(generated.topology, 1, ExecMode::Inline);
    if hier {
        k.enable_hier_routing();
    }

    // One channel per distinct hot pair, opened on first use.
    let mut chans = std::collections::HashMap::new();
    let mut started = 0u64;
    for (at, ev) in &plan {
        if let PlanetEvent::Start(s) = ev {
            let ch = *chans
                .entry((s.src, s.dst))
                .or_insert_with(|| k.open_channel(s.src, s.dst));
            k.send_at(*at, ch, started, MSG_SIZE);
            started += 1;
        }
    }
    let mut flaps = 0u64;
    for (i, &lid) in storm.iter().enumerate() {
        let down = SimTime::from_secs(30 + (i as u64 * 540) / OUTAGES as u64);
        k.fault_at(down, FaultKind::LinkDown(lid));
        k.fault_at(down + SimDuration::from_secs(20), FaultKind::LinkUp(lid));
        flaps += 2;
    }
    // Mobility: walkers advance in 10 s strides; each serving-node
    // handover rebinds one hot channel's source to the new edge node.
    let mut channel_ids: Vec<_> = chans.values().copied().collect();
    channel_ids.sort_unstable();
    let mut rebinds = 0u64;
    for stride in 1..60u64 {
        let at = SimTime::from_secs(stride * 10);
        for h in mobility.step(SimDuration::from_secs(10)) {
            let ch = channel_ids[h.walker % channel_ids.len()];
            let (_, dst) = k.channel_endpoints(ch);
            if dst != h.to {
                k.rebind_channel_at(at, ch, h.to, dst);
                rebinds += 1;
            }
        }
    }

    let t0 = Instant::now();
    let merged = k.drain();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(k.stats().early_crossings, 0, "safety violated during bench");

    let mut latency = Histogram::new();
    let mut delivered = 0u64;
    for e in &merged {
        if let Fired::Delivered { sent_at, .. } = e.what {
            delivered += 1;
            latency.observe(e.at.saturating_since(sent_at).as_micros() as f64 / 1000.0);
        }
    }

    let (full_recomputes, searches, settled) = if hier {
        let h = k.hier_stats().expect("hier enabled");
        (h.full_fallbacks, h.overlay_queries, h.settled)
    } else {
        let f = k.route_cache_stats();
        (f.misses, f.misses, f.settled)
    };

    Cell {
        nodes,
        router: if hier { "hier" } else { "flat" },
        sessions: started,
        delivered,
        flaps,
        rebinds,
        p99_ms: latency.p99(),
        sessions_per_sec: started as f64 / wall,
        full_recomputes,
        searches,
        settled,
        settled_per_flap: settled as f64 / flaps as f64,
    }
}

/// Runs the tier's grid: sizes × {flat, hier}.
#[must_use]
pub fn run(tier: Tier) -> Table {
    let mut table = Table::new(
        "e16",
        tier,
        format!(
            "E16: planet-scale routing, flat epoch-flush vs hierarchical \
             partial invalidation ({HOT_PAIRS} hot pairs, {OUTAGES} outages, \
             seed {SEED})"
        ),
        [
            exact(&["nodes", "router", "sessions", "delivered", "flaps"]),
            exact(&["rebinds", "p99 ms"]),
            vec![Col::Timed("sessions/s")],
            exact(&["full recomputes", "searches", "settled", "settled/flap"]),
        ]
        .concat(),
    );
    let (sizes, sessions) = grid(tier);
    for &nodes in sizes {
        for hier in [false, true] {
            table.trials(|| {
                let c = run_cell(nodes, hier, sessions);
                vec![
                    ex(c.nodes),
                    ex(c.router),
                    ex(c.sessions),
                    ex(c.delivered),
                    ex(c.flaps),
                    ex(c.rebinds),
                    ex(format!("{:.3}", c.p99_ms)),
                    timed(c.sessions_per_sec, 0),
                    ex(c.full_recomputes),
                    ex(c.searches),
                    ex(c.settled),
                    ex(format!("{:.0}", c.settled_per_flap)),
                ]
            });
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routers_agree_on_what_arrives() {
        // Same plan, same storm: the two routers must deliver the same
        // message multiset with the same virtual latencies — only the
        // search work may differ.
        let flat = run_cell(1_000, false, 2_000);
        let hier = run_cell(1_000, true, 2_000);
        assert_eq!(flat.sessions, hier.sessions);
        assert_eq!(flat.delivered, hier.delivered);
        assert!((flat.p99_ms - hier.p99_ms).abs() < 1e-9, "latency differs");
        assert_eq!(hier.full_recomputes, 0, "regioned grid must not fall back");
        assert!(flat.settled > hier.settled, "hier must settle less work");
    }

    #[test]
    fn storm_and_mobility_actually_run() {
        let c = run_cell(1_000, true, 2_000);
        assert_eq!(c.flaps, 2 * OUTAGES as u64);
        assert!(c.rebinds > 0, "mobility produced no rebinds");
        assert!(c.delivered > 0);
        assert!(c.p99_ms > 0.0);
    }
}
