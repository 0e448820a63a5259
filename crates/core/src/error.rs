//! Error types for the component runtime.

use crate::message::Name;
use core::fmt;

/// Errors raised by the runtime's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// No component instance with this name exists.
    UnknownComponent(String),
    /// No connector with this name exists.
    UnknownConnector(String),
    /// The implementation registry has no entry for this type/version.
    UnknownImplementation {
        /// Requested type name.
        type_name: String,
        /// Requested version.
        version: u32,
    },
    /// A component with this name already exists.
    DuplicateComponent(String),
    /// A connector with this name already exists.
    DuplicateConnector(String),
    /// The component is still the source or a target of a binding.
    ComponentInUse(String),
    /// The connector still mediates a binding.
    ConnectorInUse(String),
    /// The source port already has a binding.
    PortBound {
        /// The component instance.
        component: String,
        /// The bound port.
        port: String,
    },
    /// The source port has no binding.
    NoBinding {
        /// The component instance.
        component: String,
        /// The unbound port.
        port: String,
    },
    /// The target node does not exist or is down.
    NodeUnavailable(String),
    /// The target node has no capacity left to host anything.
    NoCapacity(String),
    /// An interface change was not backward compatible.
    IncompatibleInterface {
        /// The component whose interface was being modified.
        component: String,
        /// Human-readable reason.
        reason: String,
    },
    /// A bind or swap was rejected because the participants' protocols
    /// can deadlock (Wright-style composition-correctness check).
    IncompatibleProtocols {
        /// The connector involved.
        connector: String,
        /// The component whose protocol conflicts.
        component: String,
        /// The joint deadlock states found.
        deadlocks: Vec<String>,
    },
    /// A connector swap was refused because the connector's collaboration
    /// automaton is between final states, mid-round.
    MidCollaboration {
        /// The connector.
        connector: String,
        /// The state its automaton is in.
        state: String,
    },
    /// A reconfiguration action failed while it was being applied; the
    /// plan was rolled back.
    ReconfigFailed {
        /// Which action failed.
        action: String,
        /// Why.
        reason: String,
    },
    /// A component handler failed.
    Component(ComponentError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownComponent(n) => write!(f, "unknown component `{n}`"),
            RuntimeError::UnknownConnector(n) => write!(f, "unknown connector `{n}`"),
            RuntimeError::UnknownImplementation { type_name, version } => {
                write!(f, "unknown implementation `{type_name}` v{version}")
            }
            RuntimeError::DuplicateComponent(n) => write!(f, "component `{n}` already exists"),
            RuntimeError::DuplicateConnector(n) => write!(f, "connector `{n}` already exists"),
            RuntimeError::ComponentInUse(n) => write!(f, "component `{n}` still has bindings"),
            RuntimeError::ConnectorInUse(n) => write!(f, "connector `{n}` still in use"),
            RuntimeError::PortBound { component, port } => {
                write!(f, "port `{component}.{port}` already bound")
            }
            RuntimeError::NoBinding { component, port } => {
                write!(f, "no binding at `{component}.{port}`")
            }
            RuntimeError::NodeUnavailable(n) => write!(f, "node `{n}` unavailable"),
            RuntimeError::NoCapacity(n) => write!(f, "target `{n}` has no effective capacity"),
            RuntimeError::IncompatibleInterface { reason, .. } => {
                write!(f, "incompatible interface: {reason}")
            }
            RuntimeError::IncompatibleProtocols {
                connector,
                component,
                ..
            } => {
                write!(
                    f,
                    "incompatible protocols between connector `{connector}` and `{component}`"
                )
            }
            RuntimeError::MidCollaboration { connector, state } => {
                write!(
                    f,
                    "connector `{connector}` is mid-collaboration in state `{state}`"
                )
            }
            RuntimeError::ReconfigFailed { action, reason } => {
                write!(f, "reconfiguration action {action} failed: {reason}")
            }
            RuntimeError::Component(e) => write!(f, "component error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ComponentError> for RuntimeError {
    fn from(e: ComponentError) -> Self {
        RuntimeError::Component(e)
    }
}

/// Errors raised by component message handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentError {
    /// The operation is not part of the component's provided interface.
    UnsupportedOperation(Name),
    /// The payload did not match the expected shape.
    BadPayload(String),
    /// A domain-specific failure, carried as text.
    Failed(String),
}

impl fmt::Display for ComponentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentError::UnsupportedOperation(op) => {
                write!(f, "unsupported operation `{op}`")
            }
            ComponentError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
            ComponentError::Failed(msg) => write!(f, "handler failed: {msg}"),
        }
    }
}

impl std::error::Error for ComponentError {}

/// Errors raised while capturing or restoring component state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The snapshot's shape did not match what the component expects.
    SchemaMismatch(String),
    /// A required field was absent.
    MissingField(String),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::SchemaMismatch(msg) => write!(f, "snapshot schema mismatch: {msg}"),
            StateError::MissingField(name) => write!(f, "snapshot missing field `{name}`"),
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_prose() {
        let samples: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(RuntimeError::UnknownComponent("x".into())),
            Box::new(RuntimeError::IncompatibleInterface {
                component: "c".into(),
                reason: "removed op".into(),
            }),
            Box::new(ComponentError::BadPayload("want int".into())),
            Box::new(StateError::MissingField("count".into())),
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
            assert!(!s.ends_with('.'), "{s}");
        }
    }

    #[test]
    fn component_error_converts_to_runtime_error() {
        let e: RuntimeError = ComponentError::Failed("boom".into()).into();
        assert!(matches!(e, RuntimeError::Component(_)));
    }
}
