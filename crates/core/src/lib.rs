//! # d4py-core — the dispel4py-rs runtime
//!
//! This crate implements the runtime layer of the dispel4py-rs reproduction:
//! the data model streamed between PEs ([`value`], [`codec`]), the
//! processing-element API ([`pe`], [`executable`]), grouping-aware routing
//! ([`routing`]), the evaluation metrics ([`metrics`]), platform simulation
//! ([`platform`], [`workload`]), and the non-Redis mappings
//! ([`mappings`]): `simple`, `multi`, `dyn_multi`, `dyn_auto_multi`,
//! `hybrid_multi`. All but `simple` are one engine core behind three front
//! doors ([`mappings::multi`], [`mappings::dynamic`], [`mappings::hybrid`]);
//! the Redis mappings (crate `d4py-redis`) plug their queues into the last
//! two.
//!
//! The auto-scaler of the paper's Algorithm 1 lives in [`autoscale`].
//!
//! ```
//! use d4py_core::prelude::*;
//! use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
//!
//! // source → doubler → collector, run under dynamic scheduling.
//! let mut g = WorkflowGraph::new("quick");
//! let src = g.add_pe(PeSpec::source("src", "out"));
//! let dbl = g.add_pe(PeSpec::transform("double", "in", "out"));
//! let snk = g.add_pe(PeSpec::sink("sink", "in"));
//! g.connect(src, "out", dbl, "in", Grouping::Shuffle).unwrap();
//! g.connect(dbl, "out", snk, "in", Grouping::Shuffle).unwrap();
//!
//! let (_, results) = Collector::new();
//! let r = results.clone();
//! let mut exe = Executable::new(g).unwrap();
//! exe.register(src, || Box::new(FnSource(|ctx: &mut dyn Context| {
//!     for i in 0..8 { ctx.emit("out", Value::Int(i)); }
//! })));
//! exe.register(dbl, || Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
//!     ctx.emit("out", Value::Int(v.as_int().unwrap() * 2));
//! })));
//! exe.register(snk, move || Box::new(Collector::into_handle(r.clone())));
//! let exe = exe.seal().unwrap();
//!
//! let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
//! assert_eq!(results.lock().len(), 8);
//! assert_eq!(report.mapping, "dyn_multi");
//! ```

#![warn(missing_docs)]

pub mod autoscale;
pub mod codec;
pub mod error;
pub mod executable;
pub mod fault;
pub mod mapping;
pub mod mappings;
pub mod metrics;
pub mod options;
pub mod pe;
pub mod platform;
pub mod preflight;
pub mod profile;
pub mod queue;
pub mod routing;
pub mod state;
pub mod task;
pub mod value;
pub mod workload;

/// Everything a workflow author typically needs.
pub mod prelude {
    pub use crate::autoscale::AutoscaleConfig;
    pub use crate::error::CoreError;
    pub use crate::executable::Executable;
    pub use crate::fault::FaultPlan;
    pub use crate::mapping::Mapping;
    pub use crate::mappings::dynamic::ScalingStrategyKind;
    pub use crate::mappings::{DynAutoMulti, DynMulti, HybridMulti, Multi, Simple};
    pub use crate::metrics::RunReport;
    pub use crate::options::{ExecutionOptions, TerminationConfig};
    pub use crate::pe::{
        Collector, Context, CountingSink, FnSource, FnTransform, ProcessingElement,
    };
    pub use crate::platform::Platform;
    pub use crate::value::Value;
    pub use crate::workload::{BetaSampler, WorkUnit};
}
