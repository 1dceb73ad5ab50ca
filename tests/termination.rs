//! Integration: the retry + poison-pill termination protocol (§3.2.3).

use dispel4py::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pipeline(items: i64) -> (Executable, Arc<std::sync::atomic::AtomicU64>) {
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
    assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 0);
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(3));
}

#[test]
fn retry_parameters_bound_the_shutdown_tail() {
    // Long poll + many retries → slower shutdown; short + few → faster.
    let time_with = |poll_ms: u64, retries: u32| {
        let (exe, _) = pipeline(5);
        let opts = ExecutionOptions::new(4).with_termination(TerminationConfig {
            poll_timeout: Duration::from_millis(poll_ms),
            max_retries: retries,
            strict: true,
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
    assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 100);
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
    assert_eq!(
        count.load(std::sync::atomic::Ordering::Relaxed),
        10,
        "no task may be lost"
    );
}

#[test]
fn termination_works_across_the_redis_wire() {
    let (exe, count) = pipeline(30);
    let mapping = DynRedis::new(RedisBackend::in_proc());
    let started = Instant::now();
    mapping.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 30);
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(5));
}

#[test]
fn many_repeated_runs_never_hang() {
    // Shake out termination races: 20 consecutive dynamic runs.
    for i in 0..20 {
        let (exe, count) = pipeline(20);
        DynMulti.execute(&exe, &ExecutionOptions::new(6)).unwrap();
        assert_eq!(
            count.load(std::sync::atomic::Ordering::Relaxed),
            20,
            "run {i} lost tasks"
        );
    }
}

/// source → two branches that each triple their input → one sink: every
/// popped batch of thirty-two tasks writes ninety-six children back.
fn fan_out(items: i64) -> (Executable, Arc<std::sync::atomic::AtomicU64>) {
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
                count.load(std::sync::atomic::Ordering::Relaxed),
                400 * 2 * 3,
                "{name}, strict={strict}: a task was lost"
            );
            assert_eq!(report.tasks_executed, 1 + 400 * 2 + 400 * 2 * 3);
        }
    }
}
