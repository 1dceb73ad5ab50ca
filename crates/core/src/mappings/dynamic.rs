//! Dynamic scheduling (Figure 2 of the paper): the front door.
//!
//! Every worker holds its own copy of the abstract workflow and pulls
//! `(PE id, data)` tasks from a shared global queue; results are routed back
//! into the queue. The run is generic over [`TaskQueue`], so the same
//! engine core (`mappings::engine`) powers `dyn_multi` (in-process queue) and
//! `dyn_redis` (Redis stream over the wire), with or without the
//! auto-scaler. The placement is the simplest one: no pinned slots, every
//! worker in the pool.
//!
//! The run ends at quiescence: in strict mode the worker whose settle takes
//! the engine's outstanding-task counter to zero broadcasts the poison pills
//! there and then. §3.2.3's protocol — a worker that keeps finding the queue
//! empty waits `poll_timeout`, retries `max_retries` times, then broadcasts
//! — decides when `strict` is off, and whenever the counter may not be exact
//! (a transport retry was absorbed, a task was delivered twice).

use super::engine::{self, Driver, Plan};
pub use crate::autoscale::{AutoscaleSetup, StrategyBuilder};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::FaultPlan;
use crate::mapping::require_stateless;
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;
use crate::queue::TaskQueue;
use std::sync::Arc;
use std::time::Instant;

/// Runs a stateless workflow under dynamic scheduling on `queue`.
///
/// `mapping_name` labels the report; `autoscale` attaches Algorithm 1.
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
    let warnings = crate::preflight::preflight(exe, opts, autoscale.is_some())?;
    require_stateless(exe, mapping_name)?;
    let plan = Plan {
        exe,
        opts,
        mapping: mapping_name,
        started: Instant::now(),
        global: queue,
        pool: opts.workers,
        slots: Vec::new(),
        driver: Driver::WorkerRetries,
        state: None,
        faults: &FaultPlan::default(),
        warnings,
    };
    engine::run(plan, autoscale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscaleConfig;
    use crate::pe::{Collector, Context, FnSource, FnTransform};
    use crate::queue::ChannelQueue;
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

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
        let queue = Arc::new(ChannelQueue::new(workers));
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
        let queue = Arc::new(ChannelQueue::new(2));
        let err =
            run_dynamic(&exe, &ExecutionOptions::new(2), queue, "dyn_test", None).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedWorkflow { .. }));
    }

    #[test]
    fn zero_workers_rejected() {
        let (exe, _) = pipeline_exe(1);
        let queue = Arc::new(ChannelQueue::new(1));
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
        let queue = Arc::new(ChannelQueue::new(workers));
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
            let queue = Arc::new(ChannelQueue::new(workers));
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
            let queue = Arc::new(ChannelQueue::new(workers));
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
}
