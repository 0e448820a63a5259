//! # aas-benchmark — the full-stack `Runtime` benchmark
//!
//! Five seeded workloads are driven through the public `aas-core`
//! [`Runtime`](aas_core::runtime::Runtime) API from one thread of one
//! process. Six end-to-end metrics are measured on every workload from
//! repeated untraced trials; one traced trial per workload attributes the
//! cost to the layers from outside, by timing calls into their public
//! functions and reading the counters they already expose. See
//! `README.md` for the glossary and `BENCHMARK.json` for the contract.
//!
//! Module map: [`sizes`] and [`catalogue`] define the benchmark;
//! [`workload`] builds a deployed system from a seed; [`trial`] runs it
//! (set-up, warm-up, timed window, drain) and [`gate`] checks it;
//! [`probe`] exercises the layers the runtime hides; [`report`] repeats
//! trials and writes the results; [`compare`] applies the bounds to two
//! result files. [`alloc`], [`calibrate`], [`spans`], [`stats`], [`json`]
//! and [`host`] are the instruments.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod calibrate;
pub mod catalogue;
pub mod compare;
pub mod gate;
pub mod host;
pub mod json;
pub mod probe;
pub mod report;
pub mod sizes;
pub mod spans;
pub mod stats;
pub mod trial;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
