//! # aas-core — the auto-adaptive component runtime
//!
//! A from-scratch realization of the system envisioned by Aksit & Choukair,
//! *"Dynamic, Adaptive and Reconfigurable Systems: Overview and Prospective
//! Vision"* (ICDCS Workshops 2003): components bound on-line through
//! connectors, observed and steered by a Reconfiguration and Adaptation
//! Meta-Level (RAML) using introspection and intercession.
//!
//! ## What lives here
//!
//! - [`component`] — the [`component::Component`] behaviour trait, state
//!   snapshots for strong reconfiguration, lifecycle states.
//! - [`interface`] — signatures, versioned interfaces, backward-
//!   compatibility checking (the paper's *interface modification*).
//! - [`message`] — dynamically-typed messages with per-flow sequence
//!   numbers (loss/duplication detection across reconfigurations).
//! - [`lts`] — labelled transition systems, synchronous product, deadlock
//!   analysis (Wright-style interconnection compatibility), plus a runtime
//!   protocol enforcer.
//! - [`connector`] — first-class connectors: routing policies, aspect
//!   chains, collaboration automata, and the connector factory.
//! - [`config`] — declarative configurations; diffing two configurations
//!   yields the reconfiguration plan between them.
//! - [`reconfig`] — plans, actions (structural / geographical /
//!   implementation / interface), and reports with per-component blackouts.
//! - [`detector`] — phi-accrual-style heartbeat failure detection over
//!   virtual time (suspicion levels, configurable thresholds).
//! - [`coverage`] — the adaptation-state-space odometer: which
//!   (detector-phase × policy × plan-outcome) cells a run exercised.
//! - [`heal`] — repair policies turning suspicions into intercessions:
//!   restart-in-place, failover-migrate, degrade-to-backup.
//! - [`raml`] — introspection snapshots, behavioural constraints, FLO/C
//!   interaction rules held as values, intercession commands.
//! - [`runtime`] — the [`runtime::Runtime`] executing all of the above on
//!   the deterministic `aas-sim` substrate.
//! - [`registry`] — the implementation registry standing in for dynamic
//!   code loading (see DESIGN.md §4 for the substitution argument).
//!
//! ## Quick example
//!
//! ```
//! use aas_core::component::EchoComponent;
//! use aas_core::config::{ComponentDecl, Configuration};
//! use aas_core::message::{Message, Value};
//! use aas_core::registry::ImplementationRegistry;
//! use aas_core::runtime::Runtime;
//! use aas_sim::network::Topology;
//! use aas_sim::node::NodeId;
//! use aas_sim::time::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut registry = ImplementationRegistry::new();
//! registry.register("Echo", 1, |_| Box::new(EchoComponent::default()));
//!
//! let topo = Topology::clique(1, 100.0, SimDuration::from_millis(1), 1e6);
//! let mut rt = Runtime::new(topo, 1, registry);
//!
//! let mut cfg = Configuration::new();
//! cfg.component("echo", ComponentDecl::new("Echo", 1, NodeId(0)));
//! rt.deploy(&cfg)?;
//! rt.inject("echo", Message::request("echo", Value::from(7)))?;
//! rt.run_until(SimTime::from_secs(1));
//! assert_eq!(rt.take_outbox().len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod component;
pub mod config;
pub mod connector;
pub mod coverage;
pub mod detector;
pub mod error;
pub mod heal;
pub mod interface;
pub mod lts;
pub mod message;
mod meta;
pub mod raml;
pub mod reconfig;
pub mod registry;
pub mod runtime;

pub use component::{CallCtx, Component, ComponentId, Lifecycle, StateSnapshot};
pub use config::{BindingDecl, ComponentDecl, Configuration};
pub use connector::{
    Connector, ConnectorAspect, ConnectorFactory, ConnectorSpec, RetryPolicy, RoutingPolicy,
};
pub use detector::{DetectorConfig, DetectorEvent, FailureDetector};
pub use error::{ComponentError, RuntimeError, StateError};
pub use heal::RepairPolicy;
pub use interface::{Interface, Signature, TypeTag};
pub use lts::{check_compatibility, Label, Lts, LtsRunner};
pub use message::{Message, MessageId, MessageKind, Name, Value};
pub use raml::{Constraint, Intercession, Metric, Raml, Rule, SystemSnapshot};
pub use reconfig::{ReconfigAction, ReconfigPlan, ReconfigReport, StateTransfer};
pub use registry::{ImplementationRegistry, Props};
pub use runtime::{RouteStats, Runtime, RuntimeMetrics, EXTERNAL};
