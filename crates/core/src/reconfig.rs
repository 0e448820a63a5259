//! Reconfiguration plans, actions and reports.
//!
//! A [`ReconfigPlan`] is an ordered list of [`ReconfigAction`]s covering the
//! paper's four change categories:
//!
//! - **structural** — [`ReconfigAction::AddComponent`],
//!   [`ReconfigAction::RemoveComponent`], [`ReconfigAction::Bind`],
//!   [`ReconfigAction::Unbind`], connector add/remove/swap;
//! - **geographical** — [`ReconfigAction::Migrate`];
//! - **implementation** — [`ReconfigAction::SwapImplementation`] (weak or
//!   strong via [`StateTransfer`]);
//! - **interface** — implementation swaps are checked for backward
//!   compatibility (the runtime refuses a replacement whose provided
//!   interface drops or narrows operations).
//!
//! Plans are executed by the runtime (see
//! [`Runtime::request_reconfig`](crate::runtime::Runtime::request_reconfig))
//! with quiescence, channel blocking and state transfer; the outcome is a
//! [`ReconfigReport`] that records, per component, the *blackout window*
//! during which it was unavailable.

use crate::config::{BindingDecl, ComponentDecl};
use crate::connector::ConnectorSpec;
use crate::message::Name;
use aas_sim::node::NodeId;
use aas_sim::time::{SimDuration, SimTime};
use core::fmt;

/// How state moves from the old to the new implementation during a swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StateTransfer {
    /// Weak reconfiguration: the successor starts fresh; only future calls
    /// are redirected.
    None,
    /// Strong reconfiguration: the predecessor is quiesced, its snapshot is
    /// captured, transferred and restored into the successor — the paper's
    /// "initializing new components … with adequate internal state
    /// variables, contexts, program counters".
    #[default]
    Snapshot,
}

impl fmt::Display for StateTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateTransfer::None => f.write_str("weak"),
            StateTransfer::Snapshot => f.write_str("strong"),
        }
    }
}

/// One atomic reconfiguration step.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigAction {
    /// Instantiate a new component (structural change).
    AddComponent {
        /// Instance name.
        name: String,
        /// What to instantiate and where.
        decl: ComponentDecl,
    },
    /// Quiesce and retire a component (structural change).
    RemoveComponent {
        /// Instance name.
        name: String,
    },
    /// Replace a component's implementation in place (implementation
    /// change; also carries interface changes).
    SwapImplementation {
        /// Instance name.
        name: String,
        /// Replacement type name.
        type_name: String,
        /// Replacement version.
        version: u32,
        /// Weak or strong state transfer.
        transfer: StateTransfer,
    },
    /// Move a component to another node (geographical change).
    Migrate {
        /// Instance name.
        name: String,
        /// Destination node.
        to: NodeId,
    },
    /// Create a connector.
    AddConnector {
        /// Connector name.
        name: String,
        /// Its spec.
        spec: ConnectorSpec,
    },
    /// Remove a connector (must be unused by bindings).
    RemoveConnector {
        /// Connector name.
        name: String,
    },
    /// Replace a connector's spec in place, preserving its bindings —
    /// the paper's "connectors may be interchanged if necessary".
    SwapConnector {
        /// Connector name.
        name: String,
        /// The new spec.
        spec: ConnectorSpec,
    },
    /// Add a binding.
    Bind(BindingDecl),
    /// Remove the binding rooted at this `(instance, port)` source.
    Unbind {
        /// The `(instance, port)` whose binding is removed.
        from: (String, String),
    },
}

impl ReconfigAction {
    /// A short machine-readable kind tag, useful in reports and tests.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ReconfigAction::AddComponent { .. } => "add-component",
            ReconfigAction::RemoveComponent { .. } => "remove-component",
            ReconfigAction::SwapImplementation { .. } => "swap-implementation",
            ReconfigAction::Migrate { .. } => "migrate",
            ReconfigAction::AddConnector { .. } => "add-connector",
            ReconfigAction::RemoveConnector { .. } => "remove-connector",
            ReconfigAction::SwapConnector { .. } => "swap-connector",
            ReconfigAction::Bind(_) => "bind",
            ReconfigAction::Unbind { .. } => "unbind",
        }
    }

    /// The component this action must quiesce first, if any.
    #[must_use]
    pub fn quiesce_target(&self) -> Option<&str> {
        match self {
            ReconfigAction::RemoveComponent { name }
            | ReconfigAction::SwapImplementation { name, .. }
            | ReconfigAction::Migrate { name, .. } => Some(name),
            _ => None,
        }
    }
}

impl fmt::Display for ReconfigAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconfigAction::AddComponent { name, decl } => {
                write!(
                    f,
                    "add {name} ({} v{}) on {}",
                    decl.type_name, decl.version, decl.node
                )
            }
            ReconfigAction::RemoveComponent { name } => write!(f, "remove {name}"),
            ReconfigAction::SwapImplementation {
                name,
                type_name,
                version,
                transfer,
            } => write!(f, "swap {name} -> {type_name} v{version} ({transfer})"),
            ReconfigAction::Migrate { name, to } => write!(f, "migrate {name} -> {to}"),
            ReconfigAction::AddConnector { name, .. } => write!(f, "add connector {name}"),
            ReconfigAction::RemoveConnector { name } => write!(f, "remove connector {name}"),
            ReconfigAction::SwapConnector { name, .. } => write!(f, "swap connector {name}"),
            ReconfigAction::Bind(b) => write!(f, "bind {b}"),
            ReconfigAction::Unbind { from } => write!(f, "unbind {}.{}", from.0, from.1),
        }
    }
}

/// An ordered reconfiguration plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconfigPlan {
    actions: Vec<ReconfigAction>,
}

impl ReconfigPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        ReconfigPlan::default()
    }

    /// A plan consisting of one action, in a buffer of one slot.
    #[must_use]
    pub fn single(action: ReconfigAction) -> Self {
        ReconfigPlan {
            actions: vec![action],
        }
    }

    /// Appends an action.
    pub fn push(&mut self, action: ReconfigAction) {
        self.actions.push(action);
    }

    /// Number of actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if the plan does nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The actions in order.
    #[must_use]
    pub fn actions(&self) -> &[ReconfigAction] {
        &self.actions
    }

    /// Consumes the plan, yielding its actions.
    #[must_use]
    pub fn into_actions(self) -> Vec<ReconfigAction> {
        self.actions
    }
}

impl fmt::Display for ReconfigPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan ({} actions):", self.actions.len())?;
        for a in &self.actions {
            writeln!(f, "  - {a}")?;
        }
        Ok(())
    }
}

impl FromIterator<ReconfigAction> for ReconfigPlan {
    fn from_iter<I: IntoIterator<Item = ReconfigAction>>(iter: I) -> Self {
        ReconfigPlan {
            actions: iter.into_iter().collect(),
        }
    }
}

/// Identifier of a submitted reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReconfigId(pub u64);

impl fmt::Display for ReconfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reconfig{}", self.0)
    }
}

/// The outcome of executing a reconfiguration plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigReport {
    /// The plan's id.
    pub id: ReconfigId,
    /// When execution began.
    pub started_at: SimTime,
    /// When execution finished (success or abort).
    pub finished_at: SimTime,
    /// Whether every action committed.
    pub success: bool,
    /// Failure description when `success` is false.
    pub failure: Option<String>,
    /// Actions that committed before completion/abort.
    pub actions_applied: usize,
    /// Per-component unavailability window (block → unblock), in name
    /// order — the measured cost of reconfiguration vs adaptation
    /// (experiments E1/E10).
    pub blackouts: Vec<(Name, SimDuration)>,
    /// Messages that were held at blocked channels and released unharmed.
    pub messages_held: u64,
    /// Bytes of component state transferred (strong swaps + migrations).
    pub state_bytes_transferred: u64,
    /// Instances moved by committed migrate actions, in order. Consumers
    /// such as the negotiation control plane use this to invalidate
    /// budget decisions issued against the pre-plan placement.
    pub migrated: Vec<String>,
}

impl ReconfigReport {
    /// Total wall-clock (virtual) duration of the reconfiguration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.finished_at.saturating_since(self.started_at)
    }

    /// The longest single-component blackout, or zero if none.
    #[must_use]
    pub fn max_blackout(&self) -> SimDuration {
        let windows = self.blackouts.iter().map(|&(_, d)| d);
        windows.max().unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_and_accessors() {
        let mut plan = ReconfigPlan::new();
        assert!(plan.is_empty());
        plan.push(ReconfigAction::RemoveComponent { name: "x".into() });
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.actions()[0].kind(), "remove-component");
    }

    #[test]
    fn quiesce_targets_are_the_disruptive_actions() {
        let migrate = ReconfigAction::Migrate {
            name: "a".into(),
            to: NodeId(1),
        };
        let swap = ReconfigAction::SwapImplementation {
            name: "b".into(),
            type_name: "T".into(),
            version: 2,
            transfer: StateTransfer::Snapshot,
        };
        let bind = ReconfigAction::Bind(BindingDecl::new("a", "o", "w", "b", "i"));
        assert_eq!(migrate.quiesce_target(), Some("a"));
        assert_eq!(swap.quiesce_target(), Some("b"));
        assert_eq!(bind.quiesce_target(), None);
    }

    #[test]
    fn plan_display_lists_actions() {
        let plan: ReconfigPlan = vec![
            ReconfigAction::Migrate {
                name: "s".into(),
                to: NodeId(2),
            },
            ReconfigAction::Unbind {
                from: ("a".into(), "out".into()),
            },
        ]
        .into_iter()
        .collect();
        let text = plan.to_string();
        assert!(text.contains("migrate s -> node2"));
        assert!(text.contains("unbind a.out"));
    }

    #[test]
    fn report_duration_and_blackout() {
        let blackouts = vec![
            (Name::from("a"), SimDuration::from_millis(10)),
            (Name::from("b"), SimDuration::from_millis(30)),
        ];
        let r = ReconfigReport {
            id: ReconfigId(1),
            started_at: SimTime::from_secs(1),
            finished_at: SimTime::from_secs(2),
            success: true,
            failure: None,
            actions_applied: 2,
            blackouts,
            messages_held: 5,
            state_bytes_transferred: 100,
            migrated: Vec::new(),
        };
        assert_eq!(r.duration(), SimDuration::from_secs(1));
        assert_eq!(r.max_blackout(), SimDuration::from_millis(30));
    }

    #[test]
    fn transfer_modes_display() {
        assert_eq!(StateTransfer::None.to_string(), "weak");
        assert_eq!(StateTransfer::Snapshot.to_string(), "strong");
    }
}
