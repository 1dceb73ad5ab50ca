//! # d4py-graph — abstract workflow graphs for dispel4py-rs
//!
//! This crate implements the *abstract workflow* layer of dispel4py: users
//! compose processing elements (PEs) into a directed acyclic graph whose
//! edges carry a [`Grouping`] that governs how data is routed between PE
//! *instances*. The abstract workflow is independent of any enactment engine
//! ("mapping"); concrete deployment decisions — how many instances each PE
//! gets, which worker executes which instance — live in [`partition`] and in
//! the mapping crates built on top.
//!
//! The crate also ships the two *static* optimizations the paper builds on
//! (naive assignment and staging, see [`optimize`]) and a DOT exporter for
//! visualising workflows ([`dot`]).
//!
//! ```
//! use d4py_graph::{WorkflowGraph, PeSpec, Grouping};
//!
//! let mut g = WorkflowGraph::new("example");
//! let src = g.add_pe(PeSpec::source("read", "output"));
//! let work = g.add_pe(PeSpec::transform("work", "input", "output"));
//! let sink = g.add_pe(PeSpec::sink("write", "input"));
//! g.connect(src, "output", work, "input", Grouping::Shuffle).unwrap();
//! g.connect(work, "output", sink, "input", Grouping::Shuffle).unwrap();
//! g.validate().unwrap();
//! assert_eq!(g.topological_order().unwrap().len(), 3);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod builder;
pub mod dot;
pub mod graph;
pub mod grouping;
pub mod node;
pub mod optimize;
pub mod partition;
pub mod port;
pub mod topo;
pub mod validate;

pub use analyze::{AnalysisContext, Diagnostic, Diagnostics, Placement, Severity};
pub use builder::PipelineBuilder;
pub use graph::{Connection, ConnectionId, WorkflowGraph};
pub use grouping::Grouping;
pub use node::{PeId, PeKind, PeSpec};
pub use partition::{InstanceAllocation, InstanceId, PartitionPlan};
pub use port::{PortDecl, PortDirection};
pub use validate::GraphError;
