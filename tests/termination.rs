//! Integration: how a dynamic run ends — at quiescence in strict mode, by
//! the retry + poison-pill protocol (§3.2.3) otherwise — and how a hybrid
//! run ends: each zero-crossing flushes the next stateful stage, the last
//! one sends the pills.

use d4py_sync::Mutex;
use dispel4py::core::autoscale::QueueSizeStrategy;
use dispel4py::core::mappings::dynamic::{run_dynamic, AutoscaleSetup};
use dispel4py::core::mappings::hybrid::{run_hybrid, QueueFactory};
use dispel4py::core::queue::{TaskQueue, WorkStealQueue};
use dispel4py::core::task::QueueItem;
use dispel4py::prelude::*;
use dispel4py::redis::RedisQueue;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pipeline(items: i64) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("t");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    let c = g.add_pe(PeSpec::sink("c", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
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
            ctx.emit("out", v)
        }))
    });
    exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
    (exe.seal().unwrap(), count)
}

#[test]
fn dynamic_run_terminates_on_empty_workflow() {
    let (exe, count) = pipeline(0);
    let started = Instant::now();
    DynMulti.execute(&exe, &ExecutionOptions::new(8)).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 0);
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(3));
}

#[test]
fn retry_parameters_bound_the_shutdown_tail() {
    // The paper's mode, where the retries are the only signal: long poll +
    // many retries → slower shutdown; short + few → faster.
    let time_with = |poll_ms: u64, retries: u32| {
        let (exe, _) = pipeline(5);
        let opts = ExecutionOptions::new(4).with_termination(TerminationConfig {
            poll_timeout: Duration::from_millis(poll_ms),
            max_retries: retries,
            strict: false,
        });
        let report = DynMulti.execute(&exe, &opts).unwrap();
        report.runtime
    };
    let fast = time_with(2, 1);
    let slow = time_with(40, 5);
    assert!(
        slow > fast + Duration::from_millis(50),
        "5×40ms retries ({slow:?}) must dominate 1×2ms ({fast:?})"
    );
}

#[test]
fn non_strict_termination_still_completes_simple_pipelines() {
    // The paper's original emptiness-based check: works for workflows whose
    // queue never transiently empties mid-run (generous retries cover it).
    let (exe, count) = pipeline(100);
    let opts = ExecutionOptions::new(4).with_termination(TerminationConfig {
        poll_timeout: Duration::from_millis(25),
        max_retries: 4,
        strict: false,
    });
    DynMulti.execute(&exe, &opts).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 100);
}

#[test]
fn strict_termination_never_loses_tasks_under_slow_stages() {
    // A slow middle stage repeatedly leaves the queue momentarily empty
    // while work is still in flight; the outstanding counter must keep
    // workers from terminating early.
    let mut g = WorkflowGraph::new("slow");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::transform("slow", "in", "out"));
    let c = g.add_pe(PeSpec::sink("c", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            for i in 0..10 {
                ctx.emit("out", Value::Int(i));
            }
        }))
    });
    exe.register(b, || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            std::thread::sleep(Duration::from_millis(30));
            ctx.emit("out", v);
        }))
    });
    exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
    let exe = exe.seal().unwrap();

    // Aggressive termination settings that would fire during the slow stage
    // if only queue emptiness were checked.
    let opts = ExecutionOptions::new(2).with_termination(TerminationConfig {
        poll_timeout: Duration::from_millis(2),
        max_retries: 1,
        strict: true,
    });
    DynMulti.execute(&exe, &opts).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 10, "no task may be lost");
}

#[test]
fn termination_works_across_the_redis_wire() {
    let (exe, count) = pipeline(30);
    let mapping = DynRedis::new(RedisBackend::in_proc());
    let started = Instant::now();
    mapping.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 30);
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn many_repeated_runs_never_hang() {
    // Shake out termination races: a run ends the moment its last task
    // retires, so 200 of them — three dynamic mappings by three workloads,
    // and `hybrid_multi` flushing a two-stage stateful chain — take less
    // than the 20 the retry tail used to allow.
    type Workload = (fn(i64) -> (Executable, Arc<AtomicU64>), i64, u64);
    let workloads: [Workload; 3] = [
        (pipeline, 20, 20),
        (fan_out, 20, 20 * 2 * 3),
        (pipeline, 0, 0),
    ];
    let mappings: [(&str, Box<dyn Mapping>); 3] = [
        ("dyn_multi", Box::new(DynMulti)),
        (
            "dyn_redis",
            Box::new(DynRedis::new(RedisBackend::in_proc())),
        ),
        ("dyn_auto_multi", Box::new(DynAutoMulti::default())),
    ];
    let opts = ExecutionOptions::new(6);
    for i in 0..200 {
        let Some((name, mapping)) = mappings.get(i % 4) else {
            let (exe, got) = stateful_chain();
            HybridMulti.execute(&exe, &opts).unwrap();
            assert_top_one(&got, &format!("run {i} (hybrid_multi)"));
            continue;
        };
        let (build, items, expected) = workloads[i / 4 % 3];
        let (exe, count) = build(items);
        mapping.execute(&exe, &opts).unwrap();
        assert_eq!(
            count.load(Ordering::Relaxed),
            expected,
            "run {i} ({name}) lost tasks"
        );
    }
}

/// How many keys [`stateful_chain`]'s source emits: `k<j>` `j` times each,
/// so `k<TOP>` is the most frequent.
const TOP: i64 = 12;

/// Two stateful stages: a source emits key `k<j>` `j` times for each `j` in
/// `1..=TOP` → a per-key counter (group-by, three instances) → a global
/// top-1 → a stateless sink. Each stage emits only from `on_done`, so every
/// stage's input is complete only once the stage before it was flushed.
fn stateful_chain() -> (Executable, Arc<Mutex<Vec<Value>>>) {
    struct Counter(HashMap<String, i64>);
    impl ProcessingElement for Counter {
        fn process(&mut self, _: &str, v: Value, _: &mut dyn Context) {
            let key = v.get("k").and_then(Value::as_str).unwrap();
            *self.0.entry(key.to_string()).or_default() += 1;
        }
        fn on_done(&mut self, ctx: &mut dyn Context) {
            for (key, n) in self.0.drain() {
                ctx.emit(
                    "out",
                    Value::map([("k", Value::Str(key)), ("n", Value::Int(n))]),
                );
            }
        }
    }
    struct TopOne(Option<Value>);
    impl ProcessingElement for TopOne {
        fn process(&mut self, _: &str, v: Value, _: &mut dyn Context) {
            let n = |v: &Value| v.get("n").and_then(Value::as_int).unwrap();
            if self.0.as_ref().is_none_or(|best| n(&v) > n(best)) {
                self.0 = Some(v);
            }
        }
        fn on_done(&mut self, ctx: &mut dyn Context) {
            if let Some(best) = self.0.take() {
                ctx.emit("out", best);
            }
        }
    }
    let mut g = WorkflowGraph::new("stateful_chain");
    let src = g.add_pe(PeSpec::source("src", "out"));
    let count = g.add_pe(
        PeSpec::transform("count", "in", "out")
            .stateful()
            .with_instances(3),
    );
    let top_one = g.add_pe(PeSpec::transform("top", "in", "out").stateful());
    let sink = g.add_pe(PeSpec::sink("sink", "in"));
    g.connect(src, "out", count, "in", Grouping::group_by("k"))
        .unwrap();
    g.connect(count, "out", top_one, "in", Grouping::Global)
        .unwrap();
    g.connect(top_one, "out", sink, "in", Grouping::Shuffle)
        .unwrap();
    let (_, got) = Collector::new();
    let handle = got.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(src, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            for j in 1..=TOP {
                (0..j).for_each(|_| ctx.emit("out", Value::map([("k", format!("k{j}"))])));
            }
        }))
    });
    exe.register(count, || Box::new(Counter(HashMap::new())));
    exe.register(top_one, || Box::new(TopOne(None)));
    exe.register(sink, move || {
        Box::new(Collector::into_handle(handle.clone()))
    });
    (exe.seal().unwrap(), got)
}

/// [`stateful_chain`]'s exact output: one winner, `k<TOP>` × `TOP`.
fn assert_top_one(got: &Mutex<Vec<Value>>, run: &str) {
    let got = got.lock();
    let winner = Value::map([("k", Value::Str(format!("k{TOP}"))), ("n", Value::Int(TOP))]);
    assert_eq!(*got, [winner], "{run}: the stateful output is wrong");
}

/// source → two branches that each triple their input → one sink: every
/// popped batch of thirty-two tasks writes ninety-six children back.
fn fan_out(items: i64) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("fan");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let left = g.add_pe(PeSpec::transform("left", "in", "out"));
    let right = g.add_pe(PeSpec::transform("right", "in", "out"));
    let d = g.add_pe(PeSpec::sink("d", "in"));
    for branch in [left, right] {
        g.connect(a, "out", branch, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(branch, "out", d, "in", Grouping::Shuffle)
            .unwrap();
    }
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for i in 0..items {
                ctx.emit("out", Value::Int(i));
            }
        }))
    });
    for branch in [left, right] {
        exe.register(branch, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                for _ in 0..3 {
                    ctx.emit("out", v.clone());
                }
            }))
        });
    }
    exe.register(d, move || Box::new(CountingSink::into_handle(n.clone())));
    (exe.seal().unwrap(), count)
}

#[test]
fn batched_emission_loses_nothing_in_either_termination_mode() {
    // Workers hold their emissions until the popped batch is done: neither
    // the outstanding count (strict) nor generous retries on an empty queue
    // (the paper's original check) may end the run while a buffer is full.
    let mappings: [(&str, Box<dyn Mapping>); 2] = [
        ("dyn_multi", Box::new(DynMulti)),
        (
            "dyn_redis",
            Box::new(DynRedis::new(RedisBackend::in_proc())),
        ),
    ];
    for (name, mapping) in &mappings {
        for strict in [true, false] {
            let (exe, count) = fan_out(400);
            let opts = ExecutionOptions::new(4).with_termination(TerminationConfig {
                poll_timeout: Duration::from_millis(25),
                max_retries: 4,
                strict,
            });
            let report = mapping.execute(&exe, &opts).unwrap();
            assert_eq!(
                count.load(Ordering::Relaxed),
                400 * 2 * 3,
                "{name}, strict={strict}: a task was lost"
            );
            assert_eq!(report.tasks_executed, 1 + 400 * 2 + 400 * 2 * 3);
        }
    }
}

/// What a [`Logged`] queue writes down per `pop_batch`: `true` if it
/// delivered a task, `false` if it came back empty. A pop that delivered
/// only pills is not written down.
type Pops = Arc<Mutex<Vec<bool>>>;

/// A queue that logs its pops and can fail one `push_batch`.
struct Logged {
    inner: Arc<dyn TaskQueue>,
    pops: Pops,
    fail_next_push_batch: AtomicBool,
}

impl Logged {
    fn new(inner: Arc<dyn TaskQueue>, pops: &Pops, fail_a_push: bool) -> Arc<Self> {
        Arc::new(Logged {
            inner,
            pops: pops.clone(),
            fail_next_push_batch: AtomicBool::new(fail_a_push),
        })
    }
}

/// The number of empty pops logged after the last pop that delivered a
/// task: the polls the run spent on deciding that it was over.
fn tail(pops: &Pops) -> usize {
    let pops = pops.lock();
    let tail = pops.iter().rev().take_while(|delivered| !**delivered);
    tail.count()
}

impl TaskQueue for Logged {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        self.inner.push(item)
    }
    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        self.inner.pop(consumer, timeout)
    }
    fn push_batch(&self, from: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        if self.fail_next_push_batch.swap(false, Ordering::SeqCst) {
            // Fails cleanly: nothing was appended.
            return Err(CoreError::Queue("injected push failure".into()));
        }
        self.inner.push_batch(from, items)
    }
    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        let batch = self.inner.pop_batch(consumer, max, timeout)?;
        if batch.is_empty() {
            self.pops.lock().push(false);
        } else if batch.iter().any(|it| matches!(it, QueueItem::Task(_))) {
            self.pops.lock().push(true);
        }
        Ok(batch)
    }
    fn depth(&self) -> usize {
        self.inner.depth()
    }
    fn idle_times(&self) -> Option<Vec<Duration>> {
        self.inner.idle_times()
    }
}

/// Runs `pipeline(200)` on `inner` behind a [`Logged`] and returns the report
/// with its [`tail`].
fn tail_polls(
    inner: Arc<dyn TaskQueue>,
    opts: &ExecutionOptions,
    autoscaled: bool,
    fail_a_push: bool,
) -> (RunReport, usize) {
    let (exe, count) = pipeline(200);
    let pops = Pops::default();
    let queue = Logged::new(inner, &pops, fail_a_push);
    // Half the pool stays parked for the whole run: the threshold is out of
    // reach, so the scaler never grows the active set.
    let setup = autoscaled.then(|| AutoscaleSetup {
        config: AutoscaleConfig {
            initial_active: Some(opts.workers / 2),
            min_active: opts.workers / 2,
            tick: Duration::from_millis(1),
            ..AutoscaleConfig::default()
        },
        strategy: Box::new(|q| Box::new(QueueSizeStrategy::new(q, 1e9))),
    });
    let report = run_dynamic(&exe, opts, queue, "dyn_test", setup).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 200);
    (report, tail(&pops))
}

#[test]
fn a_strict_run_ends_at_quiescence_not_after_the_retries() {
    // A count, not a timing: with an exact outstanding count the settle that
    // reaches zero broadcasts the pills, so after the last task is popped a
    // worker polls an empty queue at most once (a poll already in flight, or
    // its pill went to a peer first). By retries every worker polls
    // `max_retries + 1` times. Parked auto-scaled workers never pop at all:
    // were they not released, the run would not return.
    const POOL: usize = 4;
    type Make = fn() -> Arc<dyn TaskQueue>;
    let queues: [(&str, Make); 2] = [
        ("work-steal", || Arc::new(WorkStealQueue::new(POOL))),
        ("redis in-proc", || {
            Arc::new(RedisQueue::new(&RedisBackend::in_proc(), "q", POOL).unwrap())
        }),
    ];
    let opts = ExecutionOptions::new(POOL).with_termination(TerminationConfig {
        poll_timeout: Duration::from_millis(50),
        ..TerminationConfig::default()
    });
    for (name, make) in queues {
        for autoscaled in [false, true] {
            let (report, polls) = tail_polls(make(), &opts, autoscaled, false);
            assert!(
                polls <= POOL,
                "{name}, autoscaled={autoscaled}: {polls} empty pops after the last task"
            );
            assert!(report.warnings.is_empty(), "{name}: {:?}", report.warnings);
        }
    }
}

/// Makes one queue of a hybrid run: its name and consumer count.
type MakeQueue = Box<dyn Fn(&str, usize) -> Arc<dyn TaskQueue> + Send + Sync>;

/// A hybrid run's queues, made by `make`, with the global one [`Logged`].
struct LoggedGlobal {
    make: MakeQueue,
    pops: Pops,
}

impl QueueFactory for LoggedGlobal {
    fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
        let queue = (self.make)(name, consumers);
        Ok(match name {
            "global" => Logged::new(queue, &self.pops, false),
            _ => queue,
        })
    }
}

#[test]
fn a_hybrid_run_ends_at_its_last_zero_crossing() {
    // The same count as above over a two-stage stateful chain: the settle
    // that reaches zero flushes the counters, the one after their work
    // retired flushes the top-1, and the one after the sink's task sends the
    // pills. After that last task-delivering pop of the global queue a pool
    // worker polls it empty at most once.
    const POOL: usize = 2;
    // Three counter instances and the top-1, each pinned to a worker.
    const SLOTS: usize = 4;
    type Make = fn() -> MakeQueue;
    let queues: [(&str, Make); 2] = [
        ("work-steal", || {
            Box::new(|_, consumers| Arc::new(WorkStealQueue::new(consumers)))
        }),
        ("redis in-proc", || {
            let backend = RedisBackend::in_proc();
            Box::new(move |name, consumers| {
                Arc::new(RedisQueue::new(&backend, name, consumers).unwrap())
            })
        }),
    ];
    let opts = ExecutionOptions::new(SLOTS + POOL).with_termination(TerminationConfig {
        poll_timeout: Duration::from_millis(50),
        ..TerminationConfig::default()
    });
    for (name, make) in queues {
        let (exe, got) = stateful_chain();
        let factory = LoggedGlobal {
            make: make(),
            pops: Pops::default(),
        };
        let report = run_hybrid(&exe, &opts, &factory, "hybrid_test").unwrap();
        assert_top_one(&got, name);
        assert!(report.warnings.is_empty(), "{name}: {:?}", report.warnings);
        let polls = tail(&factory.pops);
        assert!(
            polls <= POOL,
            "{name}: {polls} empty pops after the last task"
        );
    }
}

#[test]
fn an_absorbed_push_failure_falls_back_to_the_retries() {
    // A retried push may have appended twice, so zero outstanding no longer
    // proves the queue empty: the paper's protocol decides, and says so.
    const POOL: usize = 2;
    let opts = ExecutionOptions::new(POOL).with_transport_retries(1);
    let inner = Arc::new(WorkStealQueue::new(POOL));
    let (report, polls) = tail_polls(inner, &opts, false, true);
    assert!(
        polls > opts.termination.max_retries as usize,
        "{polls} empty pops: the run did not end by retries"
    );
    let said = |what: &str| report.warnings.iter().any(|w| w.contains(what));
    assert!(said("1 transient transport error"), "{:?}", report.warnings);
    assert!(said("ended by the retry protocol"), "{:?}", report.warnings);
}
