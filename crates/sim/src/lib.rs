//! # aas-sim — deterministic discrete-event substrate
//!
//! The simulation substrate underneath the AAS (auto-adaptive systems)
//! framework: virtual time, a deterministic event loop, a node/link
//! topology with latency- and bandwidth-aware routing, FIFO channels that
//! can be *blocked* during reconfiguration (after Polylith), resource
//! fluctuation traces, and fault injection.
//!
//! Everything is deterministic given a seed: the same program with the same
//! seed produces bit-identical runs, which the test suite and the benchmark
//! harness rely on.
//!
//! ## Quick tour
//!
//! ```
//! use aas_sim::kernel::{Fired, Kernel};
//! use aas_sim::network::Topology;
//! use aas_sim::time::SimDuration;
//!
//! // Two nodes, 1 ms apart.
//! let topo = Topology::clique(2, 100.0, SimDuration::from_millis(1), 1e6);
//! let mut kernel: Kernel<String> = Kernel::new(topo, 7);
//! let nodes: Vec<_> = kernel.topology().node_ids().collect();
//!
//! let ch = kernel.open_channel(nodes[0], nodes[1]);
//! kernel.send(ch, "ping".to_owned(), 64);
//!
//! while let Some((at, fired)) = kernel.step() {
//!     if let Fired::Delivered { msg, .. } = fired {
//!         println!("{at}: got {msg}");
//!     }
//! }
//! ```
//!
//! ## Modules
//!
//! - [`time`] — [`time::SimTime`] / [`time::SimDuration`] newtypes.
//! - [`rng`] — seeded, splittable randomness ([`rng::SimRng`]).
//! - [`node`] / [`link`] / [`network`] — the deployment graph and routing.
//! - [`channel`] — channel ids, per-channel stats and drop reasons.
//! - [`trace`] — resource-fluctuation signals (rush hour, noise, steps).
//! - [`fault`] — scheduled node crashes and link outages.
//! - [`hier`] — hierarchical [`hier::HierRouter`] with region-scoped
//!   partial cache invalidation.
//! - [`shard`] — the event-loop core: the one implementation of send /
//!   deliver / block / unblock / close / rebind / fault semantics, its
//!   `(time, key)`-ordered queue, and shard partitioning.
//! - [`kernel`] — the interactive [`kernel::Kernel`], the K=1 driver of
//!   that core.
//! - [`coordinator`] — the parallel [`coordinator::ShardedKernel`]: K
//!   cores under conservative windows and deterministic epoch barriers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod coordinator;
pub mod fault;
pub mod hier;
pub mod kernel;
pub mod link;
pub mod network;
pub mod node;
pub mod rng;
pub mod shard;
pub mod time;
pub mod trace;

pub use channel::{ChannelId, ChannelStats, DropReason};
pub use coordinator::{ExecMode, ShardedKernel, ShardedStats};
pub use fault::{FaultKind, FaultSchedule};
pub use hier::{HierRouter, HierStats};
pub use kernel::{Fired, Kernel, KernelCounter, SendOutcome};
pub use link::{LinkId, LinkSpec};
pub use network::{
    DegreeSummary, RegionId, Route, RouteCache, RouteCacheStats, RouteScratch, Topology,
};
pub use node::{NodeId, NodeSpec};
pub use rng::SimRng;
pub use shard::{EventKey, MergedEvent, ShardId, ShardMap};
pub use time::{SimDuration, SimTime};
pub use trace::ResourceTrace;
