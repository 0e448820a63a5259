//! # aas-adl — an architecture description language for auto-adaptive
//! systems
//!
//! The paper assigns ADLs a central role: they "may be used to create,
//! validate and update architectures … useful in expressing components
//! hierarchy, and in specifying interactions, application deployment and
//! the dynamic features of applications". This crate provides such a
//! language end to end:
//!
//! - [`lexer`] / [`parser`] / [`ast`] — the `system { … }` language:
//!   nodes, links, components (with `on auto` placement), connectors with
//!   aspects and protocols, bindings, constraints and interaction rules;
//! - [`validate`](mod@validate) — semantic validation, including the FLO/C rule-cycle
//!   check the paper highlights;
//! - [`behavior`] — Wright-style interconnection compatibility over
//!   component protocols (LTS products, deadlock detection);
//! - [`deploy`] — compilation to an `aas-sim` topology + `aas-core`
//!   configuration, automatic placement planning, and RAML installation:
//!   each interaction rule becomes an `aas_core::raml::Rule` value whose
//!   monitor gives the five FLO/C temporal operators (`implies`,
//!   `implies_later`, `implies_before`, `permitted_if`, `wait_until`)
//!   their executable meaning.
//!
//! ```
//! use aas_adl::parser::parse_system;
//! use aas_adl::validate::validate;
//! use aas_adl::deploy::compile;
//!
//! let sys = parse_system(r#"
//!     system Hello {
//!         node n0 { capacity = 1000.0; }
//!         component svc : Service v1 on n0
//!     }
//! "#).unwrap();
//! assert!(validate(&sys).is_empty());
//! let deployment = compile(&sys).unwrap();
//! assert_eq!(deployment.topology.node_count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod behavior;
pub mod deploy;
pub mod lexer;
pub mod parser;
pub mod validate;

pub use ast::{SystemDecl, TemporalOp};
pub use behavior::{check_bindings, BindingVerdict};
pub use deploy::{build_raml, compile, plan_placement, CompileError, Deployment};
pub use parser::{parse_system, ParseError};
pub use validate::{validate, SemIssue};
