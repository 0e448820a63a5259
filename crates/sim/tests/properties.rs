//! Property-based tests for the simulation substrate.

use aas_obs::{Histogram, Summary};
use aas_sim::kernel::{Fired, Kernel};
use aas_sim::link::LinkSpec;
use aas_sim::network::Topology;
use aas_sim::node::{NodeId, NodeSpec};
use aas_sim::time::{SimDuration, SimTime};
use aas_sim::trace::ResourceTrace;
use proptest::prelude::*;

proptest! {
    /// Events fire in nondecreasing time order; ties keep issue order.
    #[test]
    fn kernel_events_total_order(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut k: Kernel<()> = Kernel::new(Topology::new(), 1);
        for &t in &times {
            // Tags are handed out in issue order.
            let _ = k.set_timer(SimDuration::from_micros(t));
        }
        let mut prev: Option<(SimTime, u64)> = None;
        while let Some((at, fired)) = k.step() {
            let Fired::Timer { tag } = fired else {
                panic!("only timers were scheduled");
            };
            prop_assert_eq!(at, SimTime::from_micros(times[tag as usize]));
            if let Some((pt, ptag)) = prev {
                prop_assert!(at >= pt);
                if at == pt {
                    prop_assert!(tag > ptag, "FIFO among ties");
                }
            }
            prev = Some((at, tag));
        }
    }

    /// Histogram quantiles are monotone in q and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(0.001f64..1e6, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = f64::from(i) / 20.0;
            let x = h.quantile(q);
            prop_assert!(x >= prev - 1e-9, "q{q}: {x} < {prev}");
            prev = x;
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(h.quantile(0.0), lo);
        prop_assert_eq!(h.quantile(1.0), hi);
    }

    /// Merging two summaries equals summarizing the concatenation.
    #[test]
    fn summary_merge_associative(
        a in prop::collection::vec(-1e4f64..1e4, 0..100),
        b in prop::collection::vec(-1e4f64..1e4, 0..100),
    ) {
        let mut sa = Summary::new();
        let mut sb = Summary::new();
        let mut all = Summary::new();
        for &x in &a { sa.observe(x); all.observe(x); }
        for &x in &b { sb.observe(x); all.observe(x); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), all.count());
        prop_assert!((sa.mean() - all.mean()).abs() < 1e-6);
        prop_assert!((sa.variance() - all.variance()).abs() < 1e-3);
    }

    /// Traces are pure functions of time: two samples agree; clamped traces
    /// stay in bounds.
    #[test]
    fn traces_pure_and_clamped(
        seed in 0u64..1000,
        samples in prop::collection::vec(0u64..100_000_000, 1..100),
        lo in -1.0f64..0.5,
        hi in 0.6f64..2.0,
    ) {
        let tr = ResourceTrace::noise(0.5, 5.0, SimDuration::from_millis(250), seed)
            .clamped(lo, hi);
        for &us in &samples {
            let t = SimTime::from_micros(us);
            let v1 = tr.sample(t);
            let v2 = tr.sample(t);
            prop_assert_eq!(v1, v2);
            prop_assert!(v1 >= lo && v1 <= hi);
        }
    }

    /// Routing cost never increases when a new link is added.
    #[test]
    fn adding_links_never_hurts(size in 1u64..100_000) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::new("a", 1.0));
        let b = t.add_node(NodeSpec::new("b", 1.0));
        let c = t.add_node(NodeSpec::new("c", 1.0));
        t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(10), 1e6));
        t.add_link(LinkSpec::new(b, c, SimDuration::from_millis(10), 1e6));
        let before = t.route(a, c, size).unwrap().transit;
        t.add_link(LinkSpec::new(a, c, SimDuration::from_millis(50), 1e9));
        let after = t.route(a, c, size).unwrap().transit;
        prop_assert!(after <= before);
    }

    /// FIFO channels deliver in send order regardless of message sizes.
    #[test]
    fn channel_fifo_for_arbitrary_sizes(sizes in prop::collection::vec(0u64..1_000_000, 1..50)) {
        use aas_sim::kernel::{Fired, Kernel};
        let topo = Topology::clique(2, 1.0, SimDuration::from_millis(1), 1e5);
        let mut k: Kernel<usize> = Kernel::new(topo, 1);
        let ids: Vec<NodeId> = k.topology().node_ids().collect();
        let ch = k.open_channel(ids[0], ids[1]);
        for (i, &s) in sizes.iter().enumerate() {
            k.send(ch, i, s);
        }
        let mut expected = 0usize;
        while let Some((_, fired)) = k.step() {
            if let Fired::Delivered { msg, .. } = fired {
                prop_assert_eq!(msg, expected);
                expected += 1;
            }
        }
        prop_assert_eq!(expected, sizes.len());
    }

    /// Node job accounting: total busy time equals the sum of service
    /// times; utilization never exceeds 1.
    #[test]
    fn node_busy_accounting(costs in prop::collection::vec(0.1f64..50.0, 1..50)) {
        let mut t = Topology::new();
        let id = t.add_node(NodeSpec::new("n", 100.0));
        let mut total = SimDuration::ZERO;
        for &c in &costs {
            total += SimDuration::from_secs_f64(c / 100.0);
            t.node_mut(id).run_job(SimTime::ZERO, c);
        }
        let node = t.node(id);
        let diff = node.busy_total().as_secs_f64() - total.as_secs_f64();
        prop_assert!(diff.abs() < 1e-3, "diff {diff}");
        let end = node.busy_until();
        prop_assert!(node.utilization(end) <= 1.0 + 1e-9);
    }
}
