//! Dynamic scheduling (Figure 2 of the paper): the front door, and the two
//! in-process mappings behind it.
//!
//! Every worker holds its own copy of the abstract workflow and pulls
//! `(PE id, data)` tasks from a shared global queue; results are routed back
//! into the queue. The run is generic over [`TaskQueue`], so the same
//! engine core (`mappings::engine`) powers [`DynMulti`] (in-process queue)
//! and `dyn_redis` (Redis stream over the wire), with or without the
//! auto-scaler ([`DynAutoMulti`]). The placement is the simplest one: no
//! pinned slots, every worker in the pool, so its pre-flight's
//! `Placement::Pool` refuses any stateful PE, keyed grouping or broadcast
//! (`D4PY401`, `D4PY402`).
//!
//! The run ends by the engine's one rule, with no stateful stage to flush:
//! in strict mode the worker whose settle takes the engine's outstanding-task
//! counter to zero broadcasts the poison pills there and then. §3.2.3's
//! protocol — a worker that keeps finding the queue
//! empty waits `poll_timeout`, retries `max_retries` times, then broadcasts
//! — decides when `strict` is off, and whenever the counter may not be exact
//! (a transport retry was absorbed, a task was delivered twice).

use super::engine::{self, Plan};
use crate::autoscale::{AutoscaleConfig, ProportionalStrategy, QueueSizeStrategy};
pub use crate::autoscale::{AutoscaleSetup, StrategyBuilder};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::FaultPlan;
use crate::mapping::Mapping;
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;
use crate::queue::{TaskQueue, WorkStealQueue};
use d4py_graph::optimize::staging;
use d4py_graph::Placement;
use std::sync::Arc;
use std::time::Instant;

/// Runs a stateless workflow under dynamic scheduling on `queue`.
///
/// `mapping_name` labels the report and names the mapping in a refusal
/// (the pool's placement rules, `D4PY401`/`D4PY402`); `autoscale`
/// attaches Algorithm 1.
pub fn run_dynamic(
    exe: &Executable,
    opts: &ExecutionOptions,
    queue: Arc<dyn TaskQueue>,
    mapping_name: &'static str,
    autoscale: Option<AutoscaleSetup>,
) -> Result<RunReport, CoreError> {
    if opts.workers == 0 {
        return Err(CoreError::InvalidOptions("workers must be ≥ 1".into()));
    }
    let autoscaling = autoscale.is_some();
    let placement = Placement::Pool { autoscaling };
    let warnings = crate::preflight::preflight(exe, opts, mapping_name, placement)?;
    let plan = Plan {
        exe,
        opts,
        mapping: mapping_name,
        started: Instant::now(),
        global: queue,
        pool: opts.workers,
        slots: Vec::new(),
        clustering: staging(exe.graph()),
        state: None,
        faults: &FaultPlan::default(),
        warnings,
    };
    engine::run(plan, autoscale)
}

/// The in-process queue of both mappings below: per-worker deques with
/// stealing, which break the single-queue contention plateau under high
/// worker counts.
fn in_proc_queue(opts: &ExecutionOptions) -> Arc<dyn TaskQueue> {
    Arc::new(WorkStealQueue::new(opts.workers))
}

/// `dyn_multi`: dynamic scheduling over the in-process global queue — the
/// baseline dynamic mapping from the authors' prior work (\[13\] in the
/// paper): the multiprocessing global queue of Figure 2, no auto-scaling.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynMulti;

impl Mapping for DynMulti {
    fn name(&self) -> &'static str {
        "dyn_multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        run_dynamic(exe, opts, in_proc_queue(opts), self.name(), None)
    }
}

/// Which monitoring strategy drives the scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingStrategyKind {
    /// The paper's naive strategy: grow/shrink ±1 on queue-depth deltas,
    /// with the configured threshold breaking flat ties (§3.2.2).
    QueueSize,
    /// The refined strategy of this reproduction's extension: EWMA-smoothed
    /// depth, absolute per-worker targets, multi-step moves (§5.5's
    /// future-work direction).
    Proportional {
        /// Queue depth one active worker is expected to absorb.
        items_per_worker: f64,
        /// EWMA smoothing factor in (0, 1].
        alpha: f64,
        /// Maximum active-size change per tick.
        max_step: usize,
    },
}

/// `dyn_auto_multi`: dynamic scheduling + auto-scaling over the in-process
/// queue, monitored by queue depth (§3.2.2).
#[derive(Debug, Clone, Copy)]
pub struct DynAutoMulti {
    /// Auto-scaler parameters; `threshold` is a queue depth.
    pub config: AutoscaleConfig,
    /// The monitoring strategy (the paper's queue-size strategy by default).
    pub strategy: ScalingStrategyKind,
}

impl DynAutoMulti {
    /// Uses the paper's defaults (active size = half the pool, queue-size
    /// strategy).
    pub fn new() -> Self {
        Self::with_config(AutoscaleConfig::default())
    }

    /// Overrides the scaler configuration.
    pub fn with_config(config: AutoscaleConfig) -> Self {
        Self {
            config,
            strategy: ScalingStrategyKind::QueueSize,
        }
    }

    /// Selects a different monitoring strategy (builder style).
    pub fn with_strategy(mut self, strategy: ScalingStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Default for DynAutoMulti {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapping for DynAutoMulti {
    fn name(&self) -> &'static str {
        "dyn_auto_multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let threshold = self.config.threshold;
        let strategy = self.strategy;
        let setup = AutoscaleSetup {
            config: self.config,
            strategy: Box::new(move |q| match strategy {
                ScalingStrategyKind::QueueSize => Box::new(QueueSizeStrategy::new(q, threshold)),
                ScalingStrategyKind::Proportional {
                    items_per_worker,
                    alpha,
                    max_step,
                } => Box::new(ProportionalStrategy::new(
                    q,
                    items_per_worker,
                    alpha,
                    max_step,
                )),
            }),
        };
        run_dynamic(exe, opts, in_proc_queue(opts), self.name(), Some(setup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Collector, Context, CountingSink, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use std::sync::atomic::Ordering;

    fn pipeline_exe(items: i64) -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, move || {
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                for i in 0..items {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() * 3));
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        (exe.seal().unwrap(), handle)
    }

    fn run(exe: &Executable, workers: usize) -> RunReport {
        let queue = Arc::new(WorkStealQueue::new(workers));
        run_dynamic(
            exe,
            &ExecutionOptions::new(workers),
            queue,
            "dyn_test",
            None,
        )
        .unwrap()
    }

    #[test]
    fn single_worker_processes_everything() {
        let (exe, results) = pipeline_exe(20);
        let report = run(&exe, 1);
        assert_eq!(results.lock().len(), 20);
        assert_eq!(report.tasks_executed, 41); // kickoff + 20 + 20
        assert_eq!(report.dropped_emissions, 0);
    }

    #[test]
    fn many_workers_process_everything_exactly_once() {
        let (exe, results) = pipeline_exe(200);
        run(&exe, 8);
        let mut got: Vec<i64> = results.lock().iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..200).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn stateful_workflow_rejected() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::group_by("k"))
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        let queue = Arc::new(WorkStealQueue::new(2));
        let err =
            run_dynamic(&exe, &ExecutionOptions::new(2), queue, "dyn_test", None).unwrap_err();
        match err {
            CoreError::Analysis {
                mapping: "dyn_test",
                report,
            } => assert!(report.contains("error[D4PY401]"), "{report}"),
            other => panic!("expected the pool's refusal, got {other:?}"),
        }
    }

    #[test]
    fn zero_workers_rejected() {
        let (exe, _) = pipeline_exe(1);
        let queue = Arc::new(WorkStealQueue::new(1));
        assert!(matches!(
            run_dynamic(&exe, &ExecutionOptions::new(0), queue, "dyn_test", None),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn empty_source_terminates_promptly() {
        let (exe, results) = pipeline_exe(0);
        let started = Instant::now();
        run(&exe, 4);
        assert!(results.lock().is_empty());
        // timing: hang detector with a generous bound (an empty run takes
        // microseconds), not a performance gate.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    /// A latency-dominated trickle: twenty 2 ms tasks that one worker pops
    /// as a single batch, so most of the pool has nothing to do for ~40 ms.
    fn trickle_exe() -> Executable {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..20 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }))
        });
        exe.seal().unwrap()
    }

    #[test]
    fn autoscaled_run_records_trace() {
        // The run must outlast the monitor's first tick to be traced at all.
        let workers = 8;
        let queue = Arc::new(WorkStealQueue::new(workers));
        let setup = AutoscaleSetup {
            config: AutoscaleConfig {
                tick: std::time::Duration::from_micros(500),
                ..AutoscaleConfig::default()
            },
            strategy: Box::new(|q| Box::new(crate::autoscale::QueueSizeStrategy::new(q, 4.0))),
        };
        let report = run_dynamic(
            &trickle_exe(),
            &ExecutionOptions::new(workers),
            queue,
            "dyn_auto_test",
            Some(setup),
        )
        .unwrap();
        assert_eq!(report.tasks_executed, 21);
        assert!(
            !report.scaling_trace.is_empty(),
            "auto-scaled run must trace"
        );
    }

    #[test]
    fn autoscaling_reduces_process_time_on_light_load() {
        let workers = 8;

        let plain = {
            let queue = Arc::new(WorkStealQueue::new(workers));
            run_dynamic(
                &trickle_exe(),
                &ExecutionOptions::new(workers),
                queue,
                "dyn",
                None,
            )
            .unwrap()
        };
        let auto = {
            let queue = Arc::new(WorkStealQueue::new(workers));
            let setup = AutoscaleSetup {
                config: AutoscaleConfig {
                    initial_active: Some(2),
                    tick: std::time::Duration::from_millis(1),
                    ..AutoscaleConfig::default()
                },
                strategy: Box::new(|q| Box::new(crate::autoscale::QueueSizeStrategy::new(q, 50.0))),
            };
            run_dynamic(
                &trickle_exe(),
                &ExecutionOptions::new(workers),
                queue,
                "dyn_auto",
                Some(setup),
            )
            .unwrap()
        };
        assert!(
            auto.process_time < plain.process_time,
            "auto {:?} should be < plain {:?}",
            auto.process_time,
            plain.process_time
        );
    }

    #[test]
    fn dyn_multi_runs_a_pipeline() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..30 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v);
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
        assert_eq!(report.mapping, "dyn_multi");
        assert_eq!(handle.lock().len(), 30);
        assert!(report.scaling_trace.is_empty(), "no auto-scaling here");
    }

    #[test]
    fn auto_multi_completes_and_traces() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..150 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                ctx.emit("out", v);
            }))
        });
        exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let mapping = DynAutoMulti::with_config(AutoscaleConfig {
            tick: std::time::Duration::from_micros(300),
            ..AutoscaleConfig::default()
        });
        let report = mapping.execute(&exe, &ExecutionOptions::new(8)).unwrap();
        assert_eq!(report.mapping, "dyn_auto_multi");
        assert_eq!(count.load(Ordering::Relaxed), 150);
        assert!(!report.scaling_trace.is_empty());
        // Active size in the trace must respect pool bounds.
        for p in &report.scaling_trace {
            assert!(p.active_size >= 1 && p.active_size <= 8);
        }
    }

    #[test]
    fn proportional_strategy_variant_completes() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..100 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let mapping = DynAutoMulti::with_config(AutoscaleConfig {
            tick: std::time::Duration::from_micros(300),
            ..AutoscaleConfig::default()
        })
        .with_strategy(ScalingStrategyKind::Proportional {
            items_per_worker: 8.0,
            alpha: 0.5,
            max_step: 4,
        });
        let report = mapping.execute(&exe, &ExecutionOptions::new(8)).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        // Proportional moves may exceed ±1 per decision.
        for p in &report.scaling_trace {
            assert!((1..=8).contains(&p.active_size));
        }
    }
}
