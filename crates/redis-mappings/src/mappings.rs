//! The three Redis mappings: `dyn_redis`, `dyn_auto_redis`, `hybrid_redis`.

use crate::backend::RedisBackend;
use crate::queue::RedisQueue;
use d4py_core::autoscale::{AutoscaleConfig, IdleTimeStrategy};
use d4py_core::error::CoreError;
use d4py_core::executable::Executable;
use d4py_core::fault::FaultPlan;
use d4py_core::mapping::Mapping;
use d4py_core::mappings::dynamic::{run_dynamic, AutoscaleSetup};
use d4py_core::mappings::hybrid::{run_hybrid_with_faults, QueueFactory};
use d4py_core::metrics::RunReport;
use d4py_core::options::ExecutionOptions;
use d4py_core::queue::TaskQueue;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter so concurrent runs never collide on stream keys.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_key(prefix: &str) -> String {
    format!(
        "d4py:{}:{}",
        prefix,
        // relaxed: uniqueness-only run id — no other memory depends on
        // its ordering.
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// `dyn_redis` (§3.1.1): dynamic scheduling whose global queue is a Redis
/// stream with one consumer group.
#[derive(Debug, Clone)]
pub struct DynRedis {
    backend: RedisBackend,
}

impl DynRedis {
    /// Creates the mapping over a Redis backend.
    pub fn new(backend: RedisBackend) -> Self {
        Self { backend }
    }
}

impl Mapping for DynRedis {
    fn name(&self) -> &'static str {
        "dyn_redis"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let queue = Arc::new(RedisQueue::new(
            &self.backend,
            fresh_key("queue"),
            opts.workers,
        )?);
        run_dynamic(exe, opts, queue, self.name(), None)
    }
}

/// `dyn_auto_redis` (§3.2.2): `dyn_redis` plus the auto-scaler monitoring
/// the consumer group's mean idle time.
#[derive(Debug, Clone)]
pub struct DynAutoRedis {
    backend: RedisBackend,
    /// Scaler parameters; `threshold` is the reactivation-cost bound in
    /// *seconds of idle time*.
    pub config: AutoscaleConfig,
}

impl DynAutoRedis {
    /// Uses the default scaler configuration with a 50 ms idle threshold.
    pub fn new(backend: RedisBackend) -> Self {
        Self {
            backend,
            config: AutoscaleConfig {
                threshold: 0.05,
                ..AutoscaleConfig::default()
            },
        }
    }

    /// Overrides the scaler configuration.
    pub fn with_config(backend: RedisBackend, config: AutoscaleConfig) -> Self {
        Self { backend, config }
    }
}

impl Mapping for DynAutoRedis {
    fn name(&self) -> &'static str {
        "dyn_auto_redis"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let queue = Arc::new(RedisQueue::new(
            &self.backend,
            fresh_key("queue"),
            opts.workers,
        )?);
        let threshold = self.config.threshold;
        let setup = AutoscaleSetup {
            config: self.config,
            strategy: Box::new(move |q: Arc<dyn TaskQueue>| {
                Box::new(IdleTimeStrategy::new(q, threshold))
            }),
        };
        run_dynamic(exe, opts, queue, self.name(), Some(setup))
    }
}

/// `hybrid_redis` (§3.1.2): stateful instances pinned to dedicated workers
/// with private Redis streams; stateless workers share the global stream.
#[derive(Clone)]
pub struct HybridRedis {
    backend: RedisBackend,
    state: Option<Arc<dyn d4py_core::state::StateStore>>,
    faults: FaultPlan,
}

impl HybridRedis {
    /// Creates the mapping over a Redis backend.
    pub fn new(backend: RedisBackend) -> Self {
        Self {
            backend,
            state: None,
            faults: FaultPlan::default(),
        }
    }

    /// Attaches state externalization: stateful instances warm-start from
    /// and snapshot into `store` (builder style). See
    /// [`d4py_core::state`] and [`crate::state::RedisStateStore`].
    pub fn with_state_store(mut self, store: Arc<dyn d4py_core::state::StateStore>) -> Self {
        self.state = Some(store);
        self
    }

    /// Arms a chaos fault plan for every run of this mapping (builder
    /// style). See [`d4py_core::fault`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl std::fmt::Debug for HybridRedis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridRedis")
            .field("backend", &self.backend)
            .field("state", &self.state.is_some())
            .field("faults", &self.faults)
            .finish()
    }
}

struct RedisQueueFactory {
    backend: RedisBackend,
    run: u64,
}

impl QueueFactory for RedisQueueFactory {
    fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
        let key = format!("d4py:hybrid:{}:{}", self.run, name);
        Ok(Arc::new(RedisQueue::new(
            &self.backend,
            key,
            consumers.max(1),
        )?))
    }
}

impl Mapping for HybridRedis {
    fn name(&self) -> &'static str {
        "hybrid_redis"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        let factory = RedisQueueFactory {
            backend: self.backend.clone(),
            // relaxed: uniqueness-only run id (see `unique_prefix`).
            run: RUN_COUNTER.fetch_add(1, Ordering::Relaxed),
        };
        run_hybrid_with_faults(
            exe,
            opts,
            &factory,
            self.name(),
            self.state.clone(),
            &self.faults,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::pe::{Collector, Context, FnSource, FnTransform, ProcessingElement};
    use d4py_core::task::QueueItem;
    use d4py_core::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use redis_lite::server::Server;
    use std::collections::HashMap;
    use std::time::Duration;

    /// source → `+1000` stage taking `stage_time` per item → collector.
    fn stateless_exe(
        items: i64,
        stage_time: std::time::Duration,
    ) -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
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
        exe.register(b, move || {
            Box::new(FnTransform(
                move |_: &str, v: Value, ctx: &mut dyn Context| {
                    std::thread::sleep(stage_time);
                    ctx.emit("out", Value::Int(v.as_int().unwrap() + 1000));
                },
            ))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        (exe.seal().unwrap(), handle)
    }

    #[test]
    fn dyn_redis_inproc_end_to_end() {
        let (exe, results) = stateless_exe(50, std::time::Duration::ZERO);
        let mapping = DynRedis::new(RedisBackend::in_proc());
        let report = mapping.execute(&exe, &ExecutionOptions::new(4)).unwrap();
        let mut got: Vec<i64> = results.lock().iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (1000..1050).collect::<Vec<_>>());
        assert_eq!(report.mapping, "dyn_redis");
    }

    /// A [`RedisQueue`] that counts the task items written to its stream.
    struct Counted {
        inner: RedisQueue,
        tasks: std::sync::atomic::AtomicUsize,
    }

    impl Counted {
        fn count(&self, items: &[QueueItem]) {
            let tasks = items.iter().filter(|i| matches!(i, QueueItem::Task(_)));
            self.tasks.fetch_add(tasks.count(), Ordering::SeqCst);
        }
    }

    impl TaskQueue for Counted {
        fn push(&self, item: QueueItem) -> Result<(), CoreError> {
            self.count(std::slice::from_ref(&item));
            self.inner.push(item)
        }
        fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
            self.inner.pop(consumer, timeout)
        }
        fn push_batch(&self, from: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
            self.count(&items);
            self.inner.push_batch(from, items)
        }
        fn pop_batch(
            &self,
            consumer: usize,
            max: usize,
            timeout: Duration,
        ) -> Result<Vec<QueueItem>, CoreError> {
            self.inner.pop_batch(consumer, max, timeout)
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
    }

    /// source → three pass-through hops → collector: one queued task per
    /// item (and the kickoff), the hops after the first being called by the
    /// worker that popped it.
    #[test]
    fn a_staged_chain_queues_one_task_per_item() {
        const ITEMS: i64 = 300;
        let mut g = WorkflowGraph::new("chain");
        let mut prev = g.add_pe(PeSpec::source("s", "out"));
        let source = prev;
        let mut hops = Vec::new();
        for h in 0..3 {
            let hop = g.add_pe(PeSpec::transform(format!("hop{h}"), "in", "out"));
            g.connect(prev, "out", hop, "in", Grouping::Shuffle)
                .unwrap();
            hops.push(hop);
            prev = hop;
        }
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(prev, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let (_, results) = Collector::new();
        let into = results.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(source, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                (0..ITEMS).for_each(|i| ctx.emit("out", Value::Int(i)));
            }))
        });
        for hop in hops {
            exe.register(hop, || {
                Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                    ctx.emit("out", v)
                }))
            });
        }
        exe.register(sink, move || Box::new(Collector::into_handle(into.clone())));
        let exe = exe.seal().unwrap();
        for workers in [1, 3] {
            let inner = RedisQueue::new(&RedisBackend::in_proc(), fresh_key("t"), workers).unwrap();
            let tasks = std::sync::atomic::AtomicUsize::new(0);
            let queue = Arc::new(Counted { inner, tasks });
            let opts = ExecutionOptions::new(workers);
            let report = run_dynamic(&exe, &opts, queue.clone(), "dyn_redis", None).unwrap();
            assert_eq!(std::mem::take(&mut *results.lock()).len(), ITEMS as usize);
            assert_eq!(queue.tasks.load(Ordering::SeqCst), 1 + ITEMS as usize);
            assert_eq!(report.tasks_executed, 1 + 4 * ITEMS as u64);
            assert_eq!(report.task_latency.count, report.tasks_executed);
        }
    }

    #[test]
    fn dyn_redis_over_tcp_end_to_end() {
        let server = Server::start(0).unwrap();
        let (exe, results) = stateless_exe(20, std::time::Duration::ZERO);
        let mapping = DynRedis::new(RedisBackend::Tcp(server.addr()));
        mapping.execute(&exe, &ExecutionOptions::new(3)).unwrap();
        assert_eq!(results.lock().len(), 20);
    }

    #[test]
    fn dyn_auto_redis_traces_idle_metric() {
        // Tens of ticks long: a run is traced from the monitor's first tick.
        let (exe, results) = stateless_exe(80, std::time::Duration::from_millis(1));
        let backend = RedisBackend::in_proc();
        let mapping = DynAutoRedis::with_config(
            backend,
            AutoscaleConfig {
                threshold: 0.02,
                tick: std::time::Duration::from_millis(1),
                ..AutoscaleConfig::default()
            },
        );
        let report = mapping.execute(&exe, &ExecutionOptions::new(6)).unwrap();
        assert_eq!(results.lock().len(), 80);
        assert_eq!(report.mapping, "dyn_auto_redis");
        assert!(!report.scaling_trace.is_empty());
    }

    #[test]
    fn dyn_redis_rejects_stateful() {
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
        let err = DynRedis::new(RedisBackend::in_proc())
            .execute(&exe, &ExecutionOptions::new(2))
            .unwrap_err();
        match err {
            CoreError::Analysis {
                mapping: "dyn_redis",
                report,
            } => assert!(report.contains("error[D4PY401]"), "{report}"),
            other => panic!("expected the pool's refusal, got {other:?}"),
        }
    }

    #[test]
    fn hybrid_redis_runs_stateful_workflow() {
        struct KeyCounter {
            counts: HashMap<String, i64>,
        }
        impl ProcessingElement for KeyCounter {
            fn process(&mut self, _p: &str, v: Value, _ctx: &mut dyn Context) {
                let k = v.get("state").unwrap().as_str().unwrap().to_string();
                *self.counts.entry(k).or_insert(0) += 1;
            }
            fn on_done(&mut self, ctx: &mut dyn Context) {
                for (k, n) in &self.counts {
                    ctx.emit(
                        "out",
                        Value::map([("state", Value::Str(k.clone())), ("count", Value::Int(*n))]),
                    );
                }
            }
        }
        let mut g = WorkflowGraph::new("t");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let cnt = g.add_pe(
            PeSpec::transform("count", "in", "out")
                .stateful()
                .with_instances(2),
        );
        let sink = g.add_pe(PeSpec::sink("sink", "in").stateful());
        g.connect(src, "out", cnt, "in", Grouping::group_by("state"))
            .unwrap();
        g.connect(cnt, "out", sink, "in", Grouping::Global).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for s in ["TX", "CA", "TX", "TX", "CA", "NY"] {
                    ctx.emit("out", Value::map([("state", s)]));
                }
            }))
        });
        exe.register(cnt, || {
            Box::new(KeyCounter {
                counts: HashMap::new(),
            })
        });
        exe.register(sink, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();

        let mapping = HybridRedis::new(RedisBackend::in_proc());
        let report = mapping.execute(&exe, &ExecutionOptions::new(5)).unwrap();
        assert_eq!(report.mapping, "hybrid_redis");
        let got = handle.lock();
        let mut counts: HashMap<&str, i64> = HashMap::new();
        for v in got.iter() {
            counts.insert(
                v.get("state").unwrap().as_str().unwrap(),
                v.get("count").unwrap().as_int().unwrap(),
            );
        }
        assert_eq!(counts["TX"], 3);
        assert_eq!(counts["CA"], 2);
        assert_eq!(counts["NY"], 1);
    }

    #[test]
    fn hybrid_redis_over_tcp() {
        let server = Server::start(0).unwrap();
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful());
        g.connect(a, "out", b, "in", Grouping::Global).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..10 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        HybridRedis::new(RedisBackend::Tcp(server.addr()))
            .execute(&exe, &ExecutionOptions::new(3))
            .unwrap();
        assert_eq!(handle.lock().len(), 10);
    }
}
