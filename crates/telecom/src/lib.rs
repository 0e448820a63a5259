//! # aas-telecom — the multimedia telecom workload
//!
//! The paper motivates auto-adaptive systems with multimedia telecom
//! services "deployed optimally on network equipments, … adapted to the
//! available resources and … reconfigured automatically according to
//! user's mobility, preferences, profiles and equipments". This crate is
//! that domain, synthesized (see DESIGN.md §4):
//!
//! - [`codec`] — codec profiles and the five-level degradation ladder;
//! - [`mobility`] — cells + random-waypoint users, producing the handover
//!   events that drive geographical reconfiguration;
//! - [`load`] — non-homogeneous Poisson session workloads (rush hour,
//!   diurnal curves, flash crowds);
//! - [`planet`] — sessions and mobility wired onto `aas-topo` generated
//!   tier maps (hot-pair pools, serving-node handovers);
//! - [`services`] — runnable `aas-core` components implementing the
//!   paper's video composition path (extraction → coding → transfer):
//!   [`services::MediaSource`], [`services::Transcoder`],
//!   [`services::MediaSink`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod load;
pub mod mobility;
pub mod planet;
pub mod services;

pub use codec::{standard_ladder, CodecProfile};
pub use load::{LoadEvent, LoadGenerator, SessionId};
pub use mobility::{CellGrid, CellId, Position, RandomWaypoint};
pub use planet::{plan_sessions, PlanetEvent, PlanetLoadSpec, PlanetMobility, TierCells};
pub use services::{register_telecom_components, MediaSink, MediaSource, Transcoder};
