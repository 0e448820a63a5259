//! # aas-adapt — the ten dynamic-adaptability mechanisms
//!
//! The paper's §2 lists "ten major approaches that can be used to
//! dynamically adapt services". This crate implements all ten, each as a
//! small, genuinely usable framework over `aas-core` messages and
//! components:
//!
//! | # | Paper approach | Module |
//! |---|---|---|
//! | 1 | Composition frameworks (family-checked slots + aspects) | [`framework`] |
//! | 2 | Strategy pattern + introspective switching | [`strategy`] |
//! | 3 | Aspect weaving (sealed static advice, dynamic interchange) | [`weaving`] |
//! | 4 | Composition filters (inlined pipelines seal; superimposition) | [`filters`] |
//! | 5 | Connector interchange policies | [`connector_swap`] |
//! | 6 | Composition paths (frozen stages) | [`paths`] |
//! | 7 | Interaction patterns (meta-objects by priority, four properties) | [`interaction`] |
//! | 8 | Adaptive middleware (reflective service stack) | [`middleware`] |
//! | 9 | Injectors (scoped interception, reroute) | [`injector`] |
//! | 10 | Adaptive component interfaces (meta protocol, watchpoints) | [`adaptive_iface`] |
//!
//! Approaches 1, 3, 4, 7 and 9 and the watchpoints of 10 are one act —
//! named behaviour run in front of a message — so they share one hook
//! record and chain, and the three component wrappers share one wrapper;
//! each module keeps only its paper rule. [`mechanism`] catalogues the
//! ten with the cost profiles used by experiments E1 and E10.
//!
//! The common thread — and the paper's central claim about adaptability —
//! is that every mechanism here changes behaviour **without quiescence**:
//! no channel is blocked, no message is delayed, the switch costs little,
//! and the price is a small per-message tax instead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod adaptive_iface;
pub mod connector_swap;
pub mod filters;
pub mod framework;
mod hook;
pub mod injector;
pub mod interaction;
pub mod mechanism;
pub mod middleware;
pub mod paths;
pub mod strategy;
pub mod weaving;

pub use adaptive_iface::AdaptiveComponent;
pub use connector_swap::ConnectorSelector;
pub use filters::{FilterMode, FilterPipeline, FilteredComponent, MessageFilter};
pub use framework::CompositionFramework;
pub use injector::{InjectedBehavior, Injector, InjectorRegistry};
pub use interaction::{ChainedComponent, MetaChain, MetaObject, WrapperProp};
pub use mechanism::{MechanismKind, MechanismProfile, SwitchMeter};
pub use middleware::{AdaptiveMiddleware, ContextInfo, MiddlewareService};
pub use paths::{CompositionPath, ServiceVariant, Stage};
pub use strategy::{FnStrategy, IntrospectiveSwitcher, Strategy, StrategyContext};
pub use weaving::{Advice, JoinPoint, Pointcut, Weaver, WeaverBuilder};
