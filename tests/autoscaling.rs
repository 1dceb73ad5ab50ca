//! Integration: the auto-scaling optimization's observable behaviour — the
//! properties behind Table 1/2's process-time wins and Figure 13's traces.

use dispel4py::prelude::*;
use dispel4py::workflows::astro;
use std::time::Duration;

fn cfg() -> WorkloadConfig {
    WorkloadConfig::standard().with_time_scale(0.03)
}

fn auto_cfg() -> AutoscaleConfig {
    AutoscaleConfig {
        tick: Duration::from_millis(1),
        ..AutoscaleConfig::default()
    }
}

#[test]
fn auto_scaling_reduces_process_time_vs_plain_dynamic() {
    let workers = 12;
    let (exe, _) = astro::build(&cfg());
    let plain = DynMulti
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    let (exe, _) = astro::build(&cfg());
    let auto = DynAutoMulti::with_config(auto_cfg())
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    assert!(
        auto.process_time < plain.process_time,
        "auto {:?} must beat plain {:?} on process time (the paper's core claim)",
        auto.process_time,
        plain.process_time
    );
}

#[test]
fn trace_respects_pool_bounds_and_iterations_increase() {
    let workers = 10;
    let (exe, _) = astro::build(&cfg());
    let report = DynAutoMulti::with_config(auto_cfg())
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    let trace = &report.scaling_trace;
    assert!(!trace.is_empty());
    for pair in trace.windows(2) {
        assert!(
            pair[0].iteration < pair[1].iteration,
            "iterations strictly increase"
        );
        let delta = pair[1].active_size as i64 - pair[0].active_size as i64;
        assert!(delta.abs() <= 1, "the naive strategy moves ±1 per decision");
    }
    for p in trace {
        assert!((1..=workers).contains(&p.active_size));
        assert!(p.metric >= 0.0);
    }
}

#[test]
fn initial_active_size_defaults_to_half_the_pool() {
    let workers = 16;
    let (exe, _) = astro::build(&cfg());
    let report = DynAutoMulti::with_config(auto_cfg())
        .execute(&exe, &ExecutionOptions::new(workers))
        .unwrap();
    // The earliest recorded decisions should hover near workers/2 = 8
    // (Algorithm 1 line 5), not at the extremes.
    let first = report.scaling_trace.first().unwrap();
    assert!(
        (6..=10).contains(&first.active_size),
        "first active size {} should be near 8",
        first.active_size
    );
}

#[test]
fn idle_time_strategy_shrinks_when_work_dries_up() {
    // A burst the pool clears in a few milliseconds, and one straggler that
    // holds the run open for a hundred: while it runs the rest of the pool
    // has nothing to pop, and the redis idle-time strategy must pull the
    // active size down toward the minimum.
    let mut g = WorkflowGraph::new("dries_up");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            (0..20).for_each(|i| ctx.emit("out", Value::Int(i)));
        }))
    });
    exe.register(b, || {
        Box::new(FnTransform(|_: &str, v: Value, _: &mut dyn Context| {
            // Emitted last, so nothing waits behind it in a popped batch.
            if v.as_int() == Some(19) {
                // sleep: the simulated straggler, ten idle thresholds long.
                std::thread::sleep(Duration::from_millis(100));
            }
        }))
    });
    let exe = exe.seal().unwrap();
    let mapping = DynAutoRedis::with_config(
        RedisBackend::in_proc(),
        AutoscaleConfig {
            threshold: 0.01,
            tick: Duration::from_millis(1),
            ..AutoscaleConfig::default()
        },
    );
    let report = mapping.execute(&exe, &ExecutionOptions::new(12)).unwrap();
    let trace = &report.scaling_trace;
    assert!(!trace.is_empty());
    let min_seen = trace.iter().map(|p| p.active_size).min().unwrap();
    assert!(
        min_seen < 6,
        "idle-driven shrink never engaged: min active {min_seen} (trace len {})",
        trace.len()
    );
}

#[test]
fn non_auto_mappings_produce_empty_traces() {
    let (exe, _) = astro::build(&cfg());
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert!(report.scaling_trace.is_empty());
    let (exe, _) = astro::build(&cfg());
    let report = Multi.execute(&exe, &ExecutionOptions::new(6)).unwrap();
    assert!(report.scaling_trace.is_empty());
}

#[test]
fn results_unaffected_by_scaling_decisions() {
    let (exe, r1) = astro::build(&cfg());
    DynAutoMulti::with_config(auto_cfg())
        .execute(&exe, &ExecutionOptions::new(9))
        .unwrap();
    let (exe, r2) = astro::build(&cfg());
    DynMulti.execute(&exe, &ExecutionOptions::new(9)).unwrap();
    assert_eq!(r1.lock().len(), r2.lock().len());
}
