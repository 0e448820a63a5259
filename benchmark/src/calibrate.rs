//! Host-speed calibration for the two host-time metrics.
//!
//! The sandbox's CPU does not run at one speed: a fixed loop takes 130 to
//! 200 ms from one second to the next, and whole minutes run 20% apart.
//! Every host time in a run is stretched by that factor: ten runs of one
//! seed spread 13-33% on the median of their trials' raw host times and
//! 4-22% on step-wise minima, with single runs up to half off (README,
//! "Host noise"); the driver refuses a metric that spreads beyond its
//! bound, 0.25 at most. What the stretch does not touch is the *ratio*
//! between a slice of the workload and a fixed piece of work done right
//! beside it.
//!
//! So before every step (a 100 ms slice of virtual time, a set-up phase)
//! the benchmark times [`kernel`], ~60 µs of map, string, heap and float
//! work that uses nothing from `crates/*`. A step's cost is its host time
//! over the median of the five kernel samples around it; a trial's time is
//! the sum of its steps' costs, turned back into seconds with
//! [`KERNEL_REF_S`], the kernel's time on the reference host at full
//! speed. The result reads "reference seconds" (`ref_s`) and spreads 3-10%
//! over the same runs. The raw host speed of every run stays in the result
//! file beside it.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Host seconds [`kernel`] takes on the reference host (2-vCPU Xeon
/// 2.1 GHz sandbox, rustc 1.95, release profile) at full speed: the least
/// of ~50,000 samples. Part of the benchmark's definition: it scales
/// every calibrated time, and cancels when two commits are compared.
pub const KERNEL_REF_S: f64 = 60e-6;
/// Kernel samples on each side of a step that its speed estimate pools.
const NEIGHBOURS: usize = 2;

/// Runs the calibration work once and returns its host seconds.
#[must_use]
pub fn kernel() -> f64 {
    let started = Instant::now();
    let mut map: BTreeMap<String, f64> = BTreeMap::new();
    let mut key = String::new();
    let mut sum = 0.0f64;
    let mut boxes: Vec<Box<[u64; 8]>> = Vec::new();
    for i in 0..400u64 {
        key.clear();
        let _ = write!(key, "comp{}->sink{}", i % 64, (i * 7) % 64);
        *map.entry(key.clone()).or_insert(0.0) += (i as f64).sqrt();
        if let Some(v) = map.get(key.as_str()) {
            sum += *v;
        }
        boxes.push(Box::new([i; 8]));
        if boxes.len() > 32 {
            boxes.clear();
        }
    }
    std::hint::black_box((sum, boxes, map));
    started.elapsed().as_secs_f64()
}

/// Host times of one trial's steps, each with the kernel sample taken
/// just before it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Steps {
    /// Host seconds of each step.
    pub secs: Vec<f64>,
    /// Host seconds of the kernel run before each step.
    pub kernel: Vec<f64>,
}

impl Steps {
    /// Samples the kernel, runs `step`, and records both times.
    pub fn time<R>(&mut self, step: impl FnOnce() -> R) -> R {
        self.kernel.push(kernel());
        let started = Instant::now();
        let out = step();
        self.secs.push(started.elapsed().as_secs_f64());
        out
    }

    /// Reference seconds of these steps: each step's host time over the
    /// median of the kernel samples around it, summed and scaled by
    /// [`KERNEL_REF_S`].
    #[must_use]
    pub fn reference_total(&self) -> f64 {
        let in_kernels = (0..self.secs.len()).map(|i| {
            let from = i.saturating_sub(NEIGHBOURS);
            let to = (i + NEIGHBOURS + 1).min(self.kernel.len());
            self.secs[i] / median(&self.kernel[from..to])
        });
        in_kernels.sum::<f64>() * KERNEL_REF_S
    }

    /// The host's speed over these steps as a share of the reference
    /// host's: 1.0 when the kernel takes [`KERNEL_REF_S`].
    #[must_use]
    pub fn host_speed(&self) -> f64 {
        KERNEL_REF_S / median(&self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_cancels_out() {
        let k = KERNEL_REF_S;
        let work = [
            100.0 * k,
            300.0 * k,
            50.0 * k,
            200.0 * k,
            100.0 * k,
            250.0 * k,
        ];
        let at_speed = |f: f64| Steps {
            secs: work.map(|w| w * f).to_vec(),
            kernel: vec![k * f; 6],
        };
        let exact: f64 = work.iter().sum();
        for f in [1.0, 1.3, 2.0] {
            assert!((at_speed(f).reference_total() - exact).abs() < 1e-12);
            assert!((at_speed(f).host_speed() - 1.0 / f).abs() < 1e-12);
        }
        // One kernel sample caught by a burst is voted out by its
        // neighbours.
        let mut dip = at_speed(1.0);
        dip.kernel[2] *= 3.0;
        assert!((dip.reference_total() - exact).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_does_measurable_work() {
        let mut s = Steps::default();
        let out = s.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!((s.secs.len(), s.kernel.len()), (1, 1));
        assert!(s.kernel[0] > 1e-6, "kernel took {} s", s.kernel[0]);
    }
}
