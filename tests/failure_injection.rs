//! Failure injection: a panicking PE must not hang or kill a parallel run.

use dispel4py::core::mappings::dynamic::run_dynamic;
use dispel4py::core::mappings::hybrid::{run_hybrid, QueueFactory};
use dispel4py::core::queue::{TaskQueue, WorkStealQueue};
use dispel4py::core::task::QueueItem;
use dispel4py::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// source emits 0..N; the middle PE panics on multiples of `poison_every`.
fn poisoned_exe(items: i64, poison_every: i64) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("poison");
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
    exe.register(b, move || {
        Box::new(FnTransform(
            move |_: &str, v: Value, ctx: &mut dyn Context| {
                let x = v.as_int().unwrap();
                if poison_every > 0 && x % poison_every == 0 {
                    panic!("poisoned record {x}");
                }
                ctx.emit("out", v);
            },
        ))
    });
    exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
    (exe.seal().unwrap(), count)
}

/// source emits 0..N; the middle PE fans each item out to two sinks that
/// count into one counter, so what it emits is written out as tasks (a
/// staged hop into a single sink would be called inline instead).
fn fanned_out_exe(items: i64) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("fan-out");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    let sinks = [
        g.add_pe(PeSpec::sink("c", "in")),
        g.add_pe(PeSpec::sink("d", "in")),
    ];
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    for sink in sinks {
        g.connect(b, "out", sink, "in", Grouping::Shuffle).unwrap();
    }
    let (_, count) = CountingSink::new();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            (0..items).for_each(|i| ctx.emit("out", Value::Int(i)));
        }))
    });
    exe.register(b, || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            ctx.emit("out", v)
        }))
    });
    for sink in sinks {
        let n = count.clone();
        exe.register(sink, move || Box::new(CountingSink::into_handle(n.clone())));
    }
    (exe.seal().unwrap(), count)
}

#[test]
fn dyn_multi_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    // Items 0, 10, 20, 30, 40 die; the other 45 arrive.
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn multi_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = Multi.execute(&exe, &ExecutionOptions::new(6)).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn hybrid_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = HybridMulti
        .execute(&exe, &ExecutionOptions::new(4))
        .unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn redis_mapping_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(30, 7);
    let report = DynRedis::new(RedisBackend::in_proc())
        .execute(&exe, &ExecutionOptions::new(4))
        .unwrap();
    // 0, 7, 14, 21, 28 die.
    assert_eq!(count.load(Ordering::Relaxed), 25);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn poisoned_source_still_terminates() {
    // The source itself panics after a few emissions: the run must
    // complete with whatever made it out. (Partial emissions from the
    // panicking call itself are discarded by contract.)
    let mut g = WorkflowGraph::new("poison-src");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            ctx.emit("out", Value::Int(1));
            panic!("source died mid-stream");
        }))
    });
    exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
    let exe = exe.seal().unwrap();

    let started = std::time::Instant::now();
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(2)).unwrap();
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(3), "must not hang");
    assert_eq!(report.failed_tasks, 1);
    assert_eq!(
        count.load(Ordering::Relaxed),
        0,
        "partial emissions discarded"
    );
}

#[test]
fn clean_runs_report_zero_failures() {
    let (exe, _) = poisoned_exe(20, -1);
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(report.failed_tasks, 0);
}

/// Queue wrapper whose N-th `push_batch` fails once with a transport error,
/// then behaves normally: a worker dies holding the tasks of its flush
/// window, whose outstanding count never drains.
struct FailingPush {
    inner: Arc<dyn TaskQueue>,
    /// `push_batch` calls left before the failing one.
    countdown: AtomicU64,
    /// Items the failing call was handed.
    lost: AtomicU64,
}

impl FailingPush {
    fn nth(inner: Arc<dyn TaskQueue>, n: u64) -> Arc<Self> {
        Arc::new(Self {
            inner,
            countdown: AtomicU64::new(n),
            lost: AtomicU64::new(0),
        })
    }
}

impl TaskQueue for FailingPush {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        self.inner.push(item)
    }
    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        self.inner.pop(consumer, timeout)
    }
    fn push_batch(&self, producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.lost.store(items.len() as u64, Ordering::SeqCst);
            return Err(CoreError::Queue("injected: push_batch failed".into()));
        }
        self.inner.push_batch(producer, items)
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

/// Runs `run` on its own thread and fails the test if it does not return.
fn must_return(run: impl FnOnce() -> Result<RunReport, CoreError> + Send + 'static) -> CoreError {
    let (tx, rx) = d4py_sync::channel::unbounded();
    std::thread::spawn(move || {
        let _ = tx.send(run());
    });
    // timing: hang detector with a generous bound (the run takes
    // milliseconds), not a performance gate.
    let result = rx.recv_timeout(Duration::from_secs(20));
    result
        .expect("the run hung after a worker died holding a task")
        .expect_err("the injected transport error must fail the run")
}

#[test]
fn dynamic_run_returns_when_a_worker_dies_holding_a_task() {
    // The source's burst is the first `push_batch`; the second is a worker
    // writing out the emissions of the batch it popped.
    let (exe, count) = fanned_out_exe(50);
    let queue = FailingPush::nth(Arc::new(WorkStealQueue::new(4)), 2);
    let q = queue.clone();
    let err =
        must_return(move || run_dynamic(&exe, &ExecutionOptions::new(4), q, "dyn_test", None));
    assert!(matches!(err, CoreError::Queue(_)), "unexpected: {err}");
    // The dying worker's buffer is dropped, not written out by anyone: what
    // it held never reaches the sink.
    let lost = queue.lost.load(Ordering::SeqCst);
    assert!(lost >= 1, "the failing write carried the worker's buffer");
    assert!(
        count.load(Ordering::Relaxed) + lost <= 2 * 50,
        "an aborted run must not deliver the dead worker's unwritten emissions"
    );
}

#[test]
fn hybrid_run_returns_when_a_worker_dies_holding_a_task() {
    struct Factory;
    impl QueueFactory for Factory {
        fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
            let queue = HybridMulti.make(name, consumers)?;
            Ok(match name {
                "global" => FailingPush::nth(queue, 2),
                _ => queue,
            })
        }
    }
    let (exe, _) = fanned_out_exe(50);
    let err = must_return(move || run_hybrid(&exe, &ExecutionOptions::new(4), &Factory, "hybrid"));
    assert!(matches!(err, CoreError::Queue(_)), "unexpected: {err}");
}
