//! # dispel4py-rs
//!
//! A production-quality Rust reproduction of **"Optimization towards
//! Efficiency and Stateful of dispel4py"** (SC 2023 workshops): the
//! dispel4py stream-based workflow system with the paper's contributions —
//! Redis-backed dynamic scheduling, an auto-scaling optimization, and the
//! hybrid mapping for stateful applications — plus everything they stand
//! on, including a from-scratch Redis server ([`redis_lite`]).
//!
//! ## The seven mappings
//!
//! | Mapping | Where | Stateful? | Auto-scaling? |
//! |---|---|---|---|
//! | `simple` | [`mappings::Simple`] | ✓ (sequential) | – |
//! | `multi` | [`mappings::Multi`] | ✓ | – |
//! | `dyn_multi` | [`mappings::DynMulti`] | ✗ | – |
//! | `dyn_auto_multi` | [`mappings::DynAutoMulti`] | ✗ | queue size |
//! | `dyn_redis` | [`redis::DynRedis`] | ✗ | – |
//! | `dyn_auto_redis` | [`redis::DynAutoRedis`] | ✗ | idle time |
//! | `hybrid_redis` | [`redis::HybridRedis`] | ✓ | – |
//!
//! `simple` (the reference semantics) has its own loop. The other six — and
//! the in-process `hybrid_multi` ablation — are one engine core under
//! different *placements*: a global queue with a pool of workers, plus
//! pinned workers with a private queue each — one per stateful instance
//! for the hybrid ones, and for `multi` (the paper's static baseline) one
//! per instance of the static partition and no pool. They differ only in
//! where the queues live (in process or in Redis), whether the auto-scaler
//! gates the pool, and which PEs are pinned.
//!
//! ## Quickstart
//!
//! ```
//! use dispel4py::prelude::*;
//!
//! let mut g = WorkflowGraph::new("hello");
//! let src = g.add_pe(PeSpec::source("numbers", "out"));
//! let sq = g.add_pe(PeSpec::transform("square", "in", "out"));
//! let snk = g.add_pe(PeSpec::sink("collect", "in"));
//! g.connect(src, "out", sq, "in", Grouping::Shuffle).unwrap();
//! g.connect(sq, "out", snk, "in", Grouping::Shuffle).unwrap();
//!
//! let (_, results) = Collector::new();
//! let r = results.clone();
//! let mut exe = Executable::new(g).unwrap();
//! exe.register(src, || Box::new(FnSource(|ctx: &mut dyn Context| {
//!     for i in 1..=5 { ctx.emit("out", Value::Int(i)); }
//! })));
//! exe.register(sq, || Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
//!     let x = v.as_int().unwrap();
//!     ctx.emit("out", Value::Int(x * x));
//! })));
//! exe.register(snk, move || Box::new(Collector::into_handle(r.clone())));
//! let exe = exe.seal().unwrap();
//!
//! let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
//! let mut got: Vec<i64> = results.lock().iter().map(|v| v.as_int().unwrap()).collect();
//! got.sort();
//! assert_eq!(got, vec![1, 4, 9, 16, 25]);
//! println!("{report}");
//! ```

#![warn(missing_docs)]

/// The abstract-workflow layer (re-export of `d4py-graph`).
pub use d4py_graph as graph;

/// The runtime: values, PEs, metrics, core mappings (re-export of `d4py-core`).
pub use d4py_core as core;

/// The from-scratch Redis substrate (re-export of `redis-lite`).
pub use redis_lite;

/// The Redis mappings (re-export of `d4py-redis`).
pub use d4py_redis as redis;

/// The paper's three evaluation workflows (re-export of `d4py-workflows`).
pub use d4py_workflows as workflows;

/// Core mapping implementations.
pub use d4py_core::mappings;

/// One-stop imports for building and running workflows.
pub mod prelude {
    pub use d4py_core::autoscale::AutoscaleConfig;
    pub use d4py_core::error::CoreError;
    pub use d4py_core::executable::Executable;
    pub use d4py_core::mapping::Mapping;
    pub use d4py_core::mappings::dynamic::ScalingStrategyKind;
    pub use d4py_core::mappings::{DynAutoMulti, DynMulti, HybridMulti, Multi, Simple};
    pub use d4py_core::metrics::{RunReport, TracePoint};
    pub use d4py_core::options::{ExecutionOptions, TerminationConfig};
    pub use d4py_core::pe::{
        Collector, Context, CountingSink, FnSource, FnTransform, ProcessingElement,
    };
    pub use d4py_core::platform::Platform;
    pub use d4py_core::value::Value;
    pub use d4py_core::workload::{BetaSampler, WorkUnit};
    pub use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    pub use d4py_redis::{DynAutoRedis, DynRedis, HybridRedis, RedisBackend};
    pub use d4py_workflows::WorkloadConfig;
}
