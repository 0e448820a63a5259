//! The negotiation fingerprints hash their text as they format it; the
//! digests are those of the strings the fingerprints used to build.
//!
//! The builders below are the old `fingerprint()` bodies, kept as the
//! oracle: for 256 seeded random situational models and negotiation
//! outcomes, `fingerprint()` must equal `fnv1a` over the oracle's string.

use aas_control::negotiate::{fnv1a, DenyReason, Grant, NegotiationOutcome, ResourceVector};
use aas_control::situational::{AgentObservation, NodeSituation, SituationalModel};
use aas_sim::rng::SimRng;
use aas_sim::time::SimTime;

const CASES: u64 = 256;

fn old_render(v: &ResourceVector) -> String {
    format!(
        "cap={:.6} rate={:.6} retry={:.6} twin={:.6}",
        v.capacity, v.work_rate, v.retry_budget, v.twin_horizon
    )
}

fn old_model_text(m: &SituationalModel) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "at={} arr={:.6} cap={:.6} epoch={}",
        m.observed_at.as_micros(),
        m.arrival_rate,
        m.capacity_rate,
        m.region_epoch
    ));
    for (name, a) in &m.agents {
        s.push_str(&format!(
            "|a:{name}:{}:{}:{}:{}:{}:{:.6}",
            a.node, a.arrivals, a.inflight, a.processed, a.errors, a.mean_latency_ms
        ));
    }
    for (id, n) in &m.nodes {
        s.push_str(&format!(
            "|n:{id}:{}:{:.6}:{:.6}:{:.6}:{:.6}",
            u8::from(n.up),
            n.utilization,
            n.backlog_ms,
            n.effective_capacity,
            n.suspicion
        ));
    }
    s
}

fn old_outcome_text(o: &NegotiationOutcome) -> String {
    let mut s = format!(
        "epoch={} model={:#018x} budget[{}] total[{}]",
        o.epoch,
        o.model_fingerprint,
        old_render(&o.budget),
        old_render(&o.total_granted)
    );
    for g in &o.grants {
        s.push_str(&format!(
            "|g:{}:[{}]:[{}]:{:.6}:{:.6}:{}",
            g.agent,
            old_render(&g.granted),
            old_render(&g.demand),
            g.fraction,
            g.utility,
            g.epoch
        ));
    }
    for (agent, reason) in &o.denied {
        s.push_str(&format!("|d:{}:{}", agent, reason.label()));
    }
    s
}

/// Mostly ordinary magnitudes, sometimes a value fixed precision has to
/// round, print huge, or print as `NaN` / `inf`.
fn float(rng: &mut SimRng) -> f64 {
    match rng.below(10) {
        0 => [f64::NAN, f64::INFINITY, -0.0, 1e300][rng.below(4) as usize],
        1 => rng.uniform(-1e-7, 1e-7),
        2 => rng.uniform(-1e12, 1e12),
        _ => rng.uniform(0.0, 2_000.0),
    }
}

fn name(rng: &mut SimRng) -> String {
    let len = 1 + rng.below(12) as usize;
    (0..len)
        .map(|_| *rng.choose(b"abcxyz019_-.:|[]").expect("non-empty alphabet") as char)
        .collect()
}

fn vector(rng: &mut SimRng) -> ResourceVector {
    ResourceVector {
        capacity: float(rng),
        work_rate: float(rng),
        retry_budget: float(rng),
        twin_horizon: float(rng),
    }
}

fn model(rng: &mut SimRng) -> SituationalModel {
    let mut m = SituationalModel::empty(SimTime::from_micros(rng.next_u64() >> 8));
    m.arrival_rate = float(rng);
    m.capacity_rate = float(rng);
    m.region_epoch = rng.below(1_000);
    for _ in 0..rng.below(12) {
        let observation = AgentObservation {
            node: rng.below(64) as u32,
            arrivals: rng.next_u64(),
            inflight: rng.below(100),
            processed: rng.next_u64(),
            errors: rng.below(1_000),
            mean_latency_ms: float(rng),
        };
        m.agents.insert(name(rng), observation);
    }
    for _ in 0..rng.below(12) {
        let situation = NodeSituation {
            up: rng.chance(0.8),
            utilization: float(rng),
            backlog_ms: float(rng),
            effective_capacity: float(rng),
            suspicion: float(rng),
        };
        m.nodes.insert(rng.below(64) as u32, situation);
    }
    m
}

fn outcome(rng: &mut SimRng) -> NegotiationOutcome {
    let epoch = rng.below(10_000);
    let grants = (0..rng.below(10))
        .map(|_| Grant {
            agent: name(rng).into(),
            granted: vector(rng),
            demand: vector(rng),
            fraction: float(rng),
            utility: float(rng),
            epoch,
        })
        .collect();
    let denied = (0..rng.below(4))
        .map(|_| {
            let reason = if rng.chance(0.5) {
                DenyReason::FloorUnsatisfiable
            } else {
                DenyReason::HostSuspected
            };
            (name(rng).into(), reason)
        })
        .collect();
    NegotiationOutcome {
        epoch,
        model_fingerprint: rng.next_u64(),
        budget: vector(rng),
        grants,
        denied,
        total_granted: vector(rng),
    }
}

#[test]
fn model_fingerprints_hash_the_text_they_used_to_build() {
    for seed in 0..CASES {
        let m = model(&mut SimRng::seed_from(seed));
        let text = old_model_text(&m);
        assert_eq!(
            m.fingerprint(),
            fnv1a(text.as_bytes()),
            "seed {seed}: {text}"
        );
    }
}

#[test]
fn outcome_fingerprints_hash_the_text_they_used_to_build() {
    for seed in 0..CASES {
        let o = outcome(&mut SimRng::seed_from(seed));
        let text = old_outcome_text(&o);
        assert_eq!(
            o.fingerprint(),
            fnv1a(text.as_bytes()),
            "seed {seed}: {text}"
        );
        assert_eq!(o.budget.render(), old_render(&o.budget), "seed {seed}");
    }
}
