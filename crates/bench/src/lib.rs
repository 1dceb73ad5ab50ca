//! # d4py-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5):
//!
//! * [`sweep`] — runs a workflow across mappings × worker counts on a
//!   simulated platform, producing the runtime / process-time series of
//!   Figures 8–12;
//! * [`ratios`] — derives the Table 1–3 ratio summaries (best-by-runtime,
//!   best-by-process-time, mean ± std) from a sweep;
//! * [`render`] — prints series and tables in the paper's shape;
//! * [`scenario`] — the chaos matrix: workloads × traffic shapes × faults,
//!   with recovery time and invariant penalties as gateable metrics;
//! * [`connscale`] — the connection-scaling ablation: N concurrent clients
//!   against the reactor;
//! * [`compare`] — the statistical regression gate over the versioned
//!   `BENCH_<name>.json` reports the ablation benches and the chaos matrix
//!   persist;
//! * [`check`] — `repro check`: static `D4PY` diagnostics over every
//!   built-in workflow, gated at zero Error-severity findings.
//!
//! The `repro` binary drives the evaluation:
//!
//! ```sh
//! cargo run -p d4py-bench --release --bin repro -- fig8
//! cargo run -p d4py-bench --release --bin repro -- table1
//! cargo run -p d4py-bench --release --bin repro -- all --quick
//! ```
//!
//! and `bench-compare` gates a run against a stored baseline:
//!
//! ```sh
//! cargo run -p d4py-bench --bin bench-compare -- \
//!     bench/baselines/BENCH_ablation_queue.json \
//!     target/bench/BENCH_ablation_queue.json
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod compare;
pub mod connscale;
pub mod ratios;
pub mod render;
pub mod scenario;
pub mod sweep;

pub use compare::{compare, Comparison, Gate, Verdict};
pub use ratios::{ratio_table, RatioSummary};
pub use scenario::{
    matrix, run_cells, run_matrix, CellOutcome, ChaosCell, ChaosFault, ChaosWorkload, ScenarioOpts,
};
pub use sweep::{run_cell, MappingKind, RedisTarget, RunRow, Sweep, WorkflowKind};
