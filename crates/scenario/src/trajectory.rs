//! The seeded trajectory factory: coordinated waveforms compiled into a
//! deterministic, byte-identically replayable [`ScenarioSchedule`].
//!
//! A scenario is declared as a [`ScenarioSpec`]: a load wave (base rate
//! with optional diurnal and flash-crowd overlays, reusing the exact
//! `aas-telecom` NHPP machinery), any number of storm waves (node
//! crashes, link flaps, or *region-targeted* flaps resolved against an
//! `aas-topo` generated graph), and optional mobility churn (planet
//! walkers whose handovers become channel rebinds). Compiling the spec
//! yields a schedule of plain data — fault entries, traffic instants,
//! rebinds, a normalized load curve — that any harness can replay
//! against a kernel or runtime without touching an RNG, so two replays
//! of one schedule are byte-identical by construction and the schedule
//! itself is byte-identical per `(spec, seed)`.
//!
//! The adversarial ingredient is **correlation**: a storm wave marked
//! [`StormWave::correlated`] draws its outage onsets from a thinned
//! Poisson process whose intensity follows the *same* load multiplier as
//! the traffic, so faults cluster exactly where the load peaks — the
//! shaking-table pattern iid flap schedules can never produce.

use aas_sim::coordinator::ShardedKernel;
use aas_sim::fault::{FaultKind, FaultSchedule};
use aas_sim::link::LinkId;
use aas_sim::network::{RegionId, Topology};
use aas_sim::node::NodeId;
use aas_sim::rng::SimRng;
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::trace::ResourceTrace;
use aas_telecom::load::{LoadEvent, LoadGenerator};
use aas_telecom::planet::{PlanetMobility, TierCells};
use aas_topo::tiers::{Generated, Tier};

/// FNV-1a, the workspace's standard structural hash (`benchmark/` reads
/// it from this path).
pub use aas_control::negotiate::fnv1a;

/// The load waveform: a base arrival rate shaped by the same diurnal and
/// flash-crowd overlays `aas-telecom`'s generator applies.
#[derive(Debug, Clone)]
pub struct LoadWave {
    /// Base arrivals per second.
    pub base_rate: f64,
    /// Diurnal overlay: `(day length, swing in [0, 1])`.
    pub diurnal: Option<(SimDuration, f64)>,
    /// Flash crowd: `(start, end, multiplier ≥ 1, ramp)`.
    pub flash_crowd: Option<(SimTime, SimTime, f64, SimDuration)>,
}

impl LoadWave {
    /// A flat wave at `base_rate` arrivals/second.
    #[must_use]
    pub fn flat(base_rate: f64) -> Self {
        LoadWave {
            base_rate,
            diurnal: None,
            flash_crowd: None,
        }
    }

    /// Adds a diurnal overlay (`period`-long day, `swing` in `[0, 1]`).
    #[must_use]
    pub fn with_diurnal(mut self, period: SimDuration, swing: f64) -> Self {
        self.diurnal = Some((period, swing));
        self
    }

    /// Adds a flash crowd: `multiplier`× between `start` and `end`,
    /// ramping over `ramp`.
    #[must_use]
    pub fn with_flash_crowd(
        mut self,
        start: SimTime,
        end: SimTime,
        multiplier: f64,
        ramp: SimDuration,
    ) -> Self {
        self.flash_crowd = Some((start, end, multiplier, ramp));
        self
    }

    /// The dimensionless multiplier trace (base rate factored out) — the
    /// waveform correlated storms and the normalized load curve follow.
    #[must_use]
    pub fn multiplier(&self) -> ResourceTrace {
        let mut trace = ResourceTrace::constant(1.0);
        if let Some((period, swing)) = self.diurnal {
            trace = trace.times(ResourceTrace::sine(1.0, swing, period));
        }
        if let Some((start, end, mult, ramp)) = self.flash_crowd {
            trace = trace.times(ResourceTrace::rush_hour(1.0, mult, start, end, ramp));
        }
        trace
    }
}

/// What a storm wave shakes.
#[derive(Debug, Clone)]
pub enum StormTargets {
    /// Crash/recover cycles on these nodes.
    Nodes(Vec<NodeId>),
    /// Down/up flaps on these links.
    Links(Vec<LinkId>),
    /// Flaps on region-interior links of these regions (both endpoints in
    /// the region), resolved against a generated graph's region map.
    Regions(Vec<RegionId>),
}

/// One storm waveform: a set of targets failing with the given mean time
/// between failures and mean time to repair (exponential, per target).
#[derive(Debug, Clone)]
pub struct StormWave {
    /// What the wave shakes.
    pub targets: StormTargets,
    /// Mean seconds between outage onsets, per target.
    pub mtbf_secs: f64,
    /// Mean outage duration in seconds.
    pub mttr_secs: f64,
    /// When true, onsets follow the load multiplier (thinned NHPP): the
    /// per-target onset intensity at time `t` is `multiplier(t) / mtbf`,
    /// so faults bunch at load peaks while the per-target long-run rate
    /// stays ~`1 / mtbf` wherever the multiplier hovers near 1.
    pub correlated: bool,
    /// For region targets: how many interior links to storm per region.
    pub links_per_region: usize,
}

impl StormWave {
    /// Crash/recover cycles on `nodes`.
    #[must_use]
    pub fn node_crashes(nodes: Vec<NodeId>, mtbf_secs: f64, mttr_secs: f64) -> Self {
        StormWave {
            targets: StormTargets::Nodes(nodes),
            mtbf_secs,
            mttr_secs,
            correlated: false,
            links_per_region: 4,
        }
    }

    /// Down/up flaps on `links`.
    #[must_use]
    pub fn link_flaps(links: Vec<LinkId>, mtbf_secs: f64, mttr_secs: f64) -> Self {
        StormWave {
            targets: StormTargets::Links(links),
            mtbf_secs,
            mttr_secs,
            correlated: false,
            links_per_region: 4,
        }
    }

    /// Flaps on interior links of `regions` (requires a generated graph).
    #[must_use]
    pub fn region_flaps(regions: Vec<RegionId>, mtbf_secs: f64, mttr_secs: f64) -> Self {
        StormWave {
            targets: StormTargets::Regions(regions),
            mtbf_secs,
            mttr_secs,
            correlated: false,
            links_per_region: 4,
        }
    }

    /// Correlates this wave's onsets with the load multiplier.
    #[must_use]
    pub fn correlated(mut self) -> Self {
        self.correlated = true;
        self
    }

    /// Overrides how many interior links per region a region wave storms.
    #[must_use]
    pub fn with_links_per_region(mut self, n: usize) -> Self {
        self.links_per_region = n;
        self
    }
}

/// Mobility churn: planet walkers whose serving-node handovers become
/// channel rebinds on the scenario's flows.
#[derive(Debug, Clone)]
pub struct MobilityWave {
    /// Number of walkers.
    pub walkers: usize,
    /// Walker speed range in m/s.
    pub min_speed: f64,
    /// Walker speed range in m/s.
    pub max_speed: f64,
    /// How often walker positions are advanced.
    pub stride: SimDuration,
}

impl MobilityWave {
    /// `walkers` random-waypoint walkers at 20–80 m/s, stepped every
    /// `stride`.
    #[must_use]
    pub fn new(walkers: usize, stride: SimDuration) -> Self {
        MobilityWave {
            walkers,
            min_speed: 20.0,
            max_speed: 80.0,
            stride,
        }
    }
}

/// A declarative adversarial scenario; compile with [`ScenarioSpec::build`]
/// (plain topology) or [`ScenarioSpec::build_generated`] (an `aas-topo`
/// generated graph, enabling region storms and mobility).
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Master seed; every waveform derives its own split stream from it.
    pub seed: u64,
    /// Trajectory horizon: no traffic instant or outage onset lands at or
    /// past it (recoveries may trail past it).
    pub horizon: SimTime,
    /// Number of traffic flows the schedule spreads instants over.
    pub flows: usize,
    /// The load waveform.
    pub load: LoadWave,
    /// Storm waveforms, applied in order.
    pub storms: Vec<StormWave>,
    /// Mobility churn (generated graphs only).
    pub mobility: Option<MobilityWave>,
}

impl ScenarioSpec {
    /// A spec with flat unit load and no storms — a skeleton to build on.
    #[must_use]
    pub fn new(seed: u64, horizon: SimTime, flows: usize) -> Self {
        ScenarioSpec {
            seed,
            horizon,
            flows,
            load: LoadWave::flat(1.0),
            storms: Vec::new(),
            mobility: None,
        }
    }

    /// Compiles against a plain topology: flow endpoints are drawn over
    /// all nodes, region storms and mobility are unavailable.
    ///
    /// # Panics
    ///
    /// Panics if the spec declares region storms or mobility (those need
    /// a generated graph's region/tier maps — use
    /// [`ScenarioSpec::build_generated`]), if `flows` is zero, or if the
    /// topology has fewer than two nodes.
    #[must_use]
    pub fn build(&self, topo: &Topology) -> ScenarioSchedule {
        assert!(
            !self
                .storms
                .iter()
                .any(|s| matches!(s.targets, StormTargets::Regions(_))),
            "region storms need a generated graph: use build_generated"
        );
        assert!(
            self.mobility.is_none(),
            "mobility churn needs a generated graph: use build_generated"
        );
        let n = topo.node_count();
        assert!(n >= 2, "need at least two nodes for flows");
        let mut rng = SimRng::seed_from(self.seed).split("scenario.flows");
        let candidates: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
        self.compile(topo, &draw_flows(&candidates, self.flows, &mut rng), None)
    }

    /// Compiles against a generated graph: flow endpoints are drawn over
    /// the edge tier, region storms resolve to region-interior links, and
    /// mobility handovers become rebinds.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero or the edge tier has fewer than two
    /// nodes.
    #[must_use]
    pub fn build_generated(&self, generated: &Generated) -> ScenarioSchedule {
        let edges = generated.nodes_of_tier(Tier::Edge);
        assert!(edges.len() >= 2, "need an edge tier for flows");
        let mut rng = SimRng::seed_from(self.seed).split("scenario.flows");
        let flows = draw_flows(&edges, self.flows, &mut rng);
        self.compile(&generated.topology, &flows, Some(generated))
    }

    fn compile(
        &self,
        _topo: &Topology,
        flows: &[(NodeId, NodeId)],
        generated: Option<&Generated>,
    ) -> ScenarioSchedule {
        let root = SimRng::seed_from(self.seed);
        let multiplier = self.load.multiplier();

        // Traffic: the telecom NHPP generator, session starts only, each
        // start assigned to a flow by an independent stream.
        let rate = ResourceTrace::constant(self.base_rate()).times(multiplier.clone());
        let mut generator = LoadGenerator::new(
            rate,
            SimDuration::from_millis(500),
            root.split("scenario.load"),
        );
        let mut assign = root.split("scenario.flow-assign");
        let traffic: Vec<(SimTime, u32)> = generator
            .generate(self.horizon)
            .into_iter()
            .filter(|(_, e)| matches!(e, LoadEvent::SessionStart(_)))
            .map(|(at, _)| (at, assign.below(flows.len() as u64) as u32))
            .collect();

        // Storms: per-wave, per-target split streams; correlated waves
        // thin their onsets against the load multiplier.
        let mut entries: Vec<(SimTime, FaultKind)> = Vec::new();
        for (w, wave) in self.storms.iter().enumerate() {
            let mut sched = FaultSchedule::new();
            match &wave.targets {
                StormTargets::Nodes(nodes) => {
                    for node in nodes {
                        let mut stream = root.split(&format!("scenario.storm{w}.node{node}"));
                        self.wave_outages(wave, &multiplier, &mut stream, |from, to| {
                            sched.node_outage(*node, from, to);
                        });
                    }
                }
                StormTargets::Links(links) => {
                    for link in links {
                        let mut stream = root.split(&format!("scenario.storm{w}.link{}", link.0));
                        self.wave_outages(wave, &multiplier, &mut stream, |from, to| {
                            sched.link_outage(*link, from, to);
                        });
                    }
                }
                StormTargets::Regions(regions) => {
                    let generated = generated.expect("region storms checked at build entry");
                    for link in region_interior_links(generated, regions, wave.links_per_region) {
                        let mut stream =
                            root.split(&format!("scenario.storm{w}.region-link{}", link.0));
                        self.wave_outages(wave, &multiplier, &mut stream, |from, to| {
                            sched.link_outage(link, from, to);
                        });
                    }
                }
            }
            entries.extend(sched.into_entries());
        }
        // One global time order (stable: same-instant entries keep wave
        // order) so replaying through any API visits faults identically.
        entries.sort_by_key(|(at, _)| *at);
        let mut faults = FaultSchedule::new();
        for (at, kind) in entries {
            faults.at(at, kind);
        }

        // Mobility churn: walker handovers → flow rebinds.
        let mut rebinds: Vec<(SimTime, u32, NodeId)> = Vec::new();
        if let Some(mob) = &self.mobility {
            let generated = generated.expect("mobility checked at build entry");
            let cells = TierCells::new(generated, 1000.0, 1000.0, 8, 8);
            let mut walkers = PlanetMobility::new(
                cells,
                mob.walkers,
                mob.min_speed,
                mob.max_speed,
                root.split("scenario.mobility").seed(),
            );
            let mut t = SimTime::ZERO + mob.stride;
            while t < self.horizon {
                for h in walkers.step(mob.stride) {
                    rebinds.push((t, (h.walker % flows.len()) as u32, h.to));
                }
                t += mob.stride;
            }
        }

        // The normalized load curve: 64 multiplier samples scaled to a
        // peak of 1.0 — what introspective strategies observe.
        let step = SimDuration::from_micros((self.horizon.as_micros() / 64).max(1));
        let samples = multiplier.sample_series(SimTime::ZERO, self.horizon, step);
        let peak = samples
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        let load_curve = samples
            .into_iter()
            .map(|(at, v)| (at, (v / peak).clamp(0.0, 1.0)))
            .collect();

        ScenarioSchedule {
            seed: self.seed,
            horizon: self.horizon,
            flows: flows.to_vec(),
            faults,
            traffic,
            rebinds,
            load_curve,
        }
    }

    fn base_rate(&self) -> f64 {
        assert!(
            self.load.base_rate > 0.0,
            "load wave needs a positive base rate"
        );
        self.load.base_rate
    }

    /// Samples one target's alternating outage windows over the horizon.
    fn wave_outages(
        &self,
        wave: &StormWave,
        multiplier: &ResourceTrace,
        rng: &mut SimRng,
        mut emit: impl FnMut(SimTime, SimTime),
    ) {
        assert!(wave.mtbf_secs > 0.0 && wave.mttr_secs > 0.0);
        if wave.correlated {
            // Thinned NHPP: intensity(t) = multiplier(t) / mtbf, bounded
            // by the multiplier's sampled peak.
            let step = SimDuration::from_micros((self.horizon.as_micros() / 512).max(1));
            let peak = multiplier
                .sample_series(SimTime::ZERO, self.horizon, step)
                .into_iter()
                .map(|(_, v)| v)
                .fold(0.0_f64, f64::max)
                .max(1e-9);
            let lam_max = peak / wave.mtbf_secs;
            let mut t = SimTime::ZERO;
            loop {
                t += SimDuration::from_secs_f64(rng.exp(1.0 / lam_max));
                if t >= self.horizon {
                    break;
                }
                if rng.next_f64() < multiplier.sample(t).max(0.0) / peak {
                    let until = t + SimDuration::from_secs_f64(rng.exp(wave.mttr_secs));
                    emit(t, until);
                    t = until; // outages never overlap per target
                }
            }
        } else {
            let mut t = SimTime::ZERO;
            loop {
                t += SimDuration::from_secs_f64(rng.exp(wave.mtbf_secs));
                if t >= self.horizon {
                    break;
                }
                let until = t + SimDuration::from_secs_f64(rng.exp(wave.mttr_secs));
                emit(t, until);
                t = until;
            }
        }
    }
}

/// Draws `count` distinct-endpoint `(src, dst)` pairs from `candidates`.
fn draw_flows(candidates: &[NodeId], count: usize, rng: &mut SimRng) -> Vec<(NodeId, NodeId)> {
    assert!(count > 0, "a scenario needs at least one flow");
    (0..count)
        .map(|_| {
            let a = candidates[rng.below(candidates.len() as u64) as usize];
            let mut b = a;
            while b == a {
                b = candidates[rng.below(candidates.len() as u64) as usize];
            }
            (a, b)
        })
        .collect()
}

/// Interior links (both endpoints in the region) of each requested
/// region, evenly spaced through the link table, up to `per_region` each.
fn region_interior_links(
    generated: &Generated,
    regions: &[RegionId],
    per_region: usize,
) -> Vec<LinkId> {
    let topo = &generated.topology;
    let mut out = Vec::new();
    for region in regions {
        let candidates: Vec<LinkId> = topo
            .links()
            .enumerate()
            .filter_map(|(i, link)| {
                let spec = link.spec();
                (topo.region_of(spec.a) == Some(*region) && topo.region_of(spec.b) == Some(*region))
                    .then_some(LinkId(i as u32))
            })
            .collect();
        assert!(
            !candidates.is_empty(),
            "region {region:?} has no interior links to storm"
        );
        let stride = (candidates.len() / per_region.max(1)).max(1);
        out.extend(candidates.iter().step_by(stride).take(per_region).copied());
    }
    out
}

/// Counters returned by [`ScenarioSchedule::apply_to_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelApplied {
    /// Messages scheduled.
    pub sent: usize,
    /// Fault entries scheduled.
    pub faults: usize,
    /// Channel rebinds scheduled.
    pub rebinds: usize,
}

/// A compiled scenario: plain, replayable data. Two replays of one
/// schedule perform byte-identical API calls; two compilations of one
/// `(spec, seed)` yield byte-identical schedules (see
/// [`ScenarioSchedule::fingerprint`]).
#[derive(Debug, Clone)]
pub struct ScenarioSchedule {
    /// The master seed the schedule was compiled from.
    pub seed: u64,
    /// The trajectory horizon.
    pub horizon: SimTime,
    /// Flow endpoints, indexed by the flow ids in `traffic`/`rebinds`.
    pub flows: Vec<(NodeId, NodeId)>,
    /// The composed fault schedule, globally time-ordered.
    pub faults: FaultSchedule,
    /// Traffic instants: `(time, flow index)`.
    pub traffic: Vec<(SimTime, u32)>,
    /// Mobility rebinds: `(time, flow index, new source node)`.
    pub rebinds: Vec<(SimTime, u32, NodeId)>,
    /// Normalized load multiplier samples, peak = 1.0.
    pub load_curve: Vec<(SimTime, f64)>,
}

impl ScenarioSchedule {
    /// The fault entries in replay order.
    #[must_use]
    pub fn fault_entries(&self) -> Vec<(SimTime, FaultKind)> {
        self.faults.clone().into_entries().collect()
    }

    /// Outage onset times (crashes and link downs), in order.
    #[must_use]
    pub fn onsets(&self) -> Vec<SimTime> {
        self.fault_entries()
            .into_iter()
            .filter(|(_, k)| matches!(k, FaultKind::NodeCrash(_) | FaultKind::LinkDown(_)))
            .map(|(at, _)| at)
            .collect()
    }

    /// Renders every field deterministically — byte-equal strings iff the
    /// schedules are identical.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "seed={};horizon={};",
            self.seed,
            self.horizon.as_micros()
        );
        for (a, b) in &self.flows {
            let _ = write!(out, "f{}-{};", a.0, b.0);
        }
        for (at, kind) in self.fault_entries() {
            let _ = write!(out, "F{}:{kind:?};", at.as_micros());
        }
        for (at, flow) in &self.traffic {
            let _ = write!(out, "T{}:{flow};", at.as_micros());
        }
        for (at, flow, to) in &self.rebinds {
            let _ = write!(out, "R{}:{flow}>{};", at.as_micros(), to.0);
        }
        for (at, v) in &self.load_curve {
            let _ = write!(out, "L{}:{v:.9};", at.as_micros());
        }
        out
    }

    /// FNV-1a hash of [`ScenarioSchedule::fingerprint`].
    #[must_use]
    pub fn fingerprint_hash(&self) -> u64 {
        fnv1a(self.fingerprint().as_bytes())
    }

    /// Replays the schedule onto a sharded kernel: one channel per flow,
    /// every traffic instant a send (payload = instant index), every
    /// fault entry injected, every rebind applied to its flow's channel
    /// (destination unchanged). Identical calls in identical order on
    /// every invocation — the differential harness runs this once per
    /// `ExecMode` and demands byte-identical drains.
    pub fn apply_to_kernel(&self, kernel: &mut ShardedKernel<u64>, size: u64) -> KernelApplied {
        let channels: Vec<_> = self
            .flows
            .iter()
            .map(|(src, dst)| kernel.open_channel(*src, *dst))
            .collect();
        for (i, (at, flow)) in self.traffic.iter().enumerate() {
            kernel.send_at(*at, channels[*flow as usize], i as u64, size);
        }
        for (at, kind) in self.fault_entries() {
            kernel.fault_at(at, kind);
        }
        for (at, flow, to) in &self.rebinds {
            let dst = self.flows[*flow as usize].1;
            kernel.rebind_channel_at(*at, channels[*flow as usize], *to, dst);
        }
        KernelApplied {
            sent: self.traffic.len(),
            faults: self.faults.len(),
            rebinds: self.rebinds.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aas_topo::tiered::TieredSpec;

    fn clique5() -> Topology {
        Topology::clique(5, 1000.0, SimDuration::from_millis(2), 1e7)
    }

    fn storm_spec(seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(seed, SimTime::from_secs(16), 2);
        spec.load = LoadWave::flat(40.0)
            .with_diurnal(SimDuration::from_secs(16), 0.6)
            .with_flash_crowd(
                SimTime::from_secs(3),
                SimTime::from_secs(7),
                4.0,
                SimDuration::from_millis(500),
            );
        spec.storms = vec![StormWave::node_crashes(vec![NodeId(2)], 5.0, 2.0).correlated()];
        spec
    }

    #[test]
    fn compilation_is_byte_identical_per_seed() {
        let topo = clique5();
        let a = storm_spec(9).build(&topo);
        let b = storm_spec(9).build(&topo);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint_hash(), b.fingerprint_hash());
        let c = storm_spec(10).build(&topo);
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed must matter");
    }

    #[test]
    fn traffic_and_storms_respect_the_horizon() {
        let schedule = storm_spec(5).build(&clique5());
        assert!(!schedule.traffic.is_empty());
        assert!(schedule
            .traffic
            .iter()
            .all(|(at, flow)| *at < schedule.horizon && (*flow as usize) < schedule.flows.len()));
        assert!(!schedule.faults.is_empty(), "storm produced no faults");
        assert!(schedule.onsets().iter().all(|at| *at < schedule.horizon));
    }

    #[test]
    fn correlated_storm_bunches_onsets_at_the_load_peak() {
        // Aggregate over seeds: with a 4× flash crowd on [3 s, 7 s), a
        // load-correlated storm must put clearly more onsets inside the
        // crowd window than uniform hazard would (4/16 of the horizon).
        let topo = clique5();
        let (mut inside, mut total) = (0usize, 0usize);
        for seed in 0..24 {
            let mut spec = storm_spec(seed);
            spec.storms =
                vec![
                    StormWave::node_crashes(vec![NodeId(2), NodeId(3), NodeId(4)], 4.0, 0.5)
                        .correlated(),
                ];
            let schedule = spec.build(&topo);
            for at in schedule.onsets() {
                total += 1;
                if at >= SimTime::from_secs(3) && at < SimTime::from_secs(7) {
                    inside += 1;
                }
            }
        }
        assert!(total >= 40, "expected a real sample, got {total}");
        let share = inside as f64 / total as f64;
        assert!(
            share > 0.45,
            "correlated onsets should bunch in the 25%-of-horizon crowd window, got {share:.2}"
        );
    }

    #[test]
    fn uncorrelated_storm_spreads_onsets() {
        let topo = clique5();
        let (mut inside, mut total) = (0usize, 0usize);
        for seed in 0..24 {
            let mut spec = storm_spec(seed);
            spec.storms = vec![StormWave::node_crashes(
                vec![NodeId(2), NodeId(3), NodeId(4)],
                4.0,
                0.5,
            )];
            let schedule = spec.build(&topo);
            for at in schedule.onsets() {
                total += 1;
                if at >= SimTime::from_secs(3) && at < SimTime::from_secs(7) {
                    inside += 1;
                }
            }
        }
        let share = inside as f64 / total as f64;
        assert!(
            share < 0.45,
            "uncorrelated onsets should not bunch in the crowd window, got {share:.2}"
        );
    }

    #[test]
    fn load_curve_is_normalized_and_peaks_in_the_crowd() {
        let schedule = storm_spec(7).build(&clique5());
        let peak = schedule
            .load_curve
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0_f64, f64::max);
        assert!((peak - 1.0).abs() < 1e-9, "curve must be normalized");
        let (at, _) = schedule
            .load_curve
            .iter()
            .find(|(_, v)| (*v - 1.0).abs() < 1e-9)
            .expect("a peak sample");
        assert!(
            *at >= SimTime::from_secs(3) && *at < SimTime::from_secs(7),
            "peak should land in the flash crowd, got {at:?}"
        );
        assert!(schedule
            .load_curve
            .iter()
            .all(|(_, v)| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn generated_build_resolves_regions_and_mobility() {
        let generated = TieredSpec::sized(200).generate(33);
        let mut spec = ScenarioSpec::new(21, SimTime::from_secs(10), 4);
        spec.load = LoadWave::flat(20.0);
        spec.storms = vec![
            StormWave::region_flaps(vec![RegionId(1), RegionId(2)], 3.0, 1.0)
                .with_links_per_region(3),
        ];
        spec.mobility = Some(MobilityWave::new(6, SimDuration::from_millis(500)));
        let schedule = spec.build_generated(&generated);

        // Every stormed link is interior to a requested region.
        let topo = &generated.topology;
        let mut stormed: Vec<LinkId> = schedule
            .fault_entries()
            .into_iter()
            .filter_map(|(_, k)| match k {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => Some(l),
                _ => None,
            })
            .collect();
        stormed.sort_by_key(|l| l.0);
        stormed.dedup();
        assert!(!stormed.is_empty(), "region storm resolved to no links");
        for lid in &stormed {
            let spec_l = topo
                .links()
                .nth(lid.0 as usize)
                .expect("stormed link")
                .spec();
            let (ra, rb) = (topo.region_of(spec_l.a), topo.region_of(spec_l.b));
            assert_eq!(ra, rb, "stormed link must be region-interior");
            assert!(
                ra == Some(RegionId(1)) || ra == Some(RegionId(2)),
                "stormed link outside requested regions: {ra:?}"
            );
        }
        // Mobility produced rebinds onto edge-tier nodes.
        assert!(!schedule.rebinds.is_empty(), "walkers produced no churn");
        let edges = generated.nodes_of_tier(Tier::Edge);
        assert!(schedule.rebinds.iter().all(|(_, _, to)| edges.contains(to)));
        // Flows are edge-to-edge.
        assert!(schedule
            .flows
            .iter()
            .all(|(a, b)| a != b && edges.contains(a) && edges.contains(b)));
    }

    #[test]
    fn plain_build_rejects_region_storms() {
        let mut spec = ScenarioSpec::new(1, SimTime::from_secs(2), 1);
        spec.storms = vec![StormWave::region_flaps(vec![RegionId(1)], 2.0, 1.0)];
        let err = std::panic::catch_unwind(|| spec.build(&clique5()));
        assert!(err.is_err(), "region storm on a plain topology must panic");
    }
}
